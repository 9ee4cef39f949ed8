"""``python -m isoharness``: the command line, as the ``isoharness`` script runs it."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
