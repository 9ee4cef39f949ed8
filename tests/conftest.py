import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from isoharness.engine import EngineConfig
from isoharness.executor import ExecutorConfig, Mode, Monitor
from isoharness.notation import parse_history


def fast_config(**kwargs) -> ExecutorConfig:
    """Executor config with a short stuck guard for the test suite."""
    kwargs.setdefault("timeout", 0.25)
    kwargs.setdefault("engine", EngineConfig())
    return ExecutorConfig(**kwargs)


def run_text(text: str, name: str = "<test>", **kwargs):
    """Parse and run a history, returning (output, monitor)."""
    prog = parse_history(text, source_name=name)
    monitor = Monitor(prog, fast_config(**kwargs))
    output = monitor.run()
    return output, monitor


class OpThread:
    """Run one engine call on a thread so tests can observe blocking."""

    def __init__(self, fn, *args, **kwargs):
        self.result = None
        self.error = None
        self._done = threading.Event()

        def target():
            try:
                self.result = fn(*args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - surfaced via .error
                self.error = exc
            finally:
                self._done.set()

        self.thread = threading.Thread(target=target, daemon=True)
        self.thread.start()

    def done(self, timeout=2.0) -> bool:
        return self._done.wait(timeout)

    def still_blocked(self, settle=0.05) -> bool:
        return not self._done.wait(settle)

    def outcome(self, timeout=2.0):
        assert self._done.wait(timeout), "operation never completed"
        if self.error is not None:
            raise self.error
        return self.result


@pytest.fixture
def opthread():
    return OpThread


def wait_until(cond, timeout=2.0, step=0.002) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(step)
    return False
