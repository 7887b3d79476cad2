"""The process entry: ``python -m lieprolong`` and the ``lieprolong``
console script."""

import gc

from .cli import main


def run() -> int:
    """Run one command as the whole life of this process.

    The objects made by the imports (numpy's, and the package's tables) live
    until exit, so they are frozen out of the cyclic collector before the
    command runs: its collections, and the interpreter's last one at exit,
    do not walk them again.  Objects the command makes are collected as
    usual.  ``cli.main`` does not freeze, since tests and in-process
    benchmarks call it many times in one process."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
