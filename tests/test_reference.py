"""Same numbers, same reports: this package against its frozen reference.

``perfbench/yardstick/lieprolong_ref`` is a read-only copy of the package
from before stacked evaluation, kept as the benchmark's yardstick.  Both
packages must emit byte-identical canonical JSON for the same invocation,
which pins every residual, witness and verdict independently of the
platform's floating point.
"""

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest
from descriptors import GENERATOR_DESCRIPTORS

from lieprolong import cli

YARDSTICK = Path(__file__).resolve().parents[1] / "perfbench" / "yardstick"

# The frozen copy still passes the deprecated ``disp`` argument to logm.
pytestmark = pytest.mark.filterwarnings(
    "ignore:The `disp` argument is deprecated:DeprecationWarning"
)


@pytest.fixture(scope="module")
def reference_cli():
    sys.path.insert(0, str(YARDSTICK))
    try:
        return importlib.import_module("lieprolong_ref.cli")
    finally:
        sys.path.remove(str(YARDSTICK))


def run(module, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = module.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("seed", ["5", "1310"])
def test_catalog_report_bytes_match_the_reference(reference_cli, seed):
    argv = ["report", "--samples", "10", "--seed", seed]
    ours, theirs = run(cli, argv), run(reference_cli, argv)
    assert ours[0] == theirs[0] == 1
    assert ours[1] == theirs[1]


@pytest.mark.parametrize("name", sorted(GENERATOR_DESCRIPTORS))
def test_descriptor_check_bytes_match_the_reference(reference_cli, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(GENERATOR_DESCRIPTORS[name]()))
    argv = ["check", "--rep", str(path), "--suite", "all", "--samples", "20", "--seed", "4"]
    ours, theirs = run(cli, argv), run(reference_cli, argv)
    assert ours[0] == theirs[0] == 0
    assert ours[1] == theirs[1]


COMMANDS = {
    "catalog": ["catalog"],
    "catalog-circle": ["catalog", "--kind", "Circle"],
    "prolong-pass": [
        "prolong", "--rep", "so3_standard", "--a-coords", "0.1,0.2,0.3", "--fiber", "1,0,0",
    ],
    "prolong-fail": [
        "prolong", "--rep", "circle_winding_2", "--a-coords", "0.5", "--fiber", "1",
        "--tol", "1e-20",
    ],
    "check-all": ["check", "--rep", "circle_winding_2", "--suite", "all", "--samples", "5"],
    "report": ["report", "--samples", "3", "--seed", "3"],
}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_and_format_matches_the_reference(reference_cli, command, fmt):
    argv = COMMANDS[command] + ["--format", fmt]
    assert run(cli, argv) == run(reference_cli, argv)
