"""The process entry: ``python -m lieprolong`` and the ``lieprolong``
console script."""

import gc
import os

from .cli import _load, _parser, _run

# The checks multiply stacks of small matrices, where BLAS threads gain
# nothing and cost much when another program holds a core.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run() -> int:
    """Run one command as the whole life of this process.

    BLAS runs on one thread unless the caller set the thread counts: numpy
    is not loaded yet, so the default reaches it.  The command line is
    parsed, and the modules the named command evaluates with are imported:
    numpy and the numerical modules for ``prolong``, ``check`` and
    ``report``, nothing more for ``catalog``.  Only then is the heap frozen
    out of the cyclic collector, before the command runs: the objects the
    imports made live until exit, so its collections, and the interpreter's
    last one at exit, do not walk them again.  Objects the command makes
    are collected as usual.  ``cli.main`` neither freezes nor sets thread
    counts, since tests and in-process callers run it many times in one
    process."""
    for var in _BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    args = _parser().parse_args()
    _load(args.command)
    gc.freeze()
    return _run(args)


if __name__ == "__main__":
    raise SystemExit(run())
