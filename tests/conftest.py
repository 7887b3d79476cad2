"""Child processes import this checkout's package.

``pythonpath = ["src"]`` in ``pyproject.toml`` puts ``src`` on the path of
the test process only; exporting it here lets the tests that start
``python -m lieprolong`` or a demo script inherit it.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)
