"""Child processes import this checkout's package, and BLAS runs on one thread.

``pythonpath = ["src"]`` in ``pyproject.toml`` puts ``src`` on the path of
the test process only; exporting it here lets the tests that start
``python -m lieprolong`` or a demo script inherit it.

The checks multiply stacks of small matrices, where a threaded BLAS spends
more CPU on its threads than it saves.  numpy is not yet imported when this
file runs, so the setting reaches the test process and every child.
"""

import os
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)
