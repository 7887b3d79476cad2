"""Same numbers, same reports: this package against its frozen reference.

``perfbench/yardstick/lieprolong_ref`` is a read-only copy of the package
from before stacked evaluation, kept as the benchmark's yardstick.  Both
packages must emit the same bytes for the same invocation, which pins
every residual, witness and verdict independently of the platform's
floating point, except for one projection:

- ``version``, which is 0.3.0 here;
- the catalog's ``has_kernel_witness``, which said ``known_faithful``
  a second time and is gone;
- ``prolong``'s constant ``"analytic": true`` in a failing
  ``differential_consistency`` witness, which is gone;
- the verdict, residual and witness of every ``faithfulness_probe`` row,
  in json, csv and text.  The exact certificate replaced the reference's
  declared kernel elements and sampled collision search, so these rows
  differ by design.  They are pinned here by value instead, in
  ``FAITHFULNESS``; they depend on neither the seed nor the sample count;
- the same of every ``equivalence_transfer`` row.  The reference compared
  the prolongation with images conjugated from its own, which holds for
  any matrices.  The transfer theorem is now proved once in sympy
  (``tests/test_acceptance.py``, criterion 04), and the row scores only
  the tie ``rho(exp B0) = expm(d rho(B0))`` that the proof assumes of the
  map, so the residuals differ by design.  They are pinned by value in
  ``EQUIVALENCE_RESIDUALS``, by sample count and seed;
- the same of every ``homomorphism(prolonged)`` and ``action_oracle`` row
  of ``check`` and ``report``.  The reference prolonged each sampled pair
  and its tangent product, and differentiated the action curve by a
  central difference.  Both statements are now proved once in sympy
  (``tests/test_acceptance.py``, criteria 02 and 03): the prolonged row
  scores the base homomorphism and the fiber identity on the base row's
  pairs, and the oracle row reads the base homomorphism and the tie of the
  equivalence row, so the residuals differ by design.  They are pinned by
  value in ``MOVED_RESIDUALS``, by sample count and seed;
- the residual of a generator descriptor's ``homomorphism(base)``,
  ``homomorphism(prolonged)``, ``action_oracle`` and
  ``equivalence_transfer`` rows.  The load's loop and bracket tests decide
  all four claims exactly, and ``check`` reports the worst scaled defect of
  those tests as each row's residual, where the reference sampled them.
  They are pinned by value in ``DESCRIPTOR_RESIDUALS``, for any sample
  count and seed.
"""

import contextlib
import csv
import importlib
import io
import json
import sys
from pathlib import Path

import pytest
from descriptors import GENERATOR_DESCRIPTORS

from lieprolong import catalog_names, cli

YARDSTICK = Path(__file__).resolve().parents[1] / "perfbench" / "yardstick"

# The frozen copy still passes the deprecated ``disp`` argument to logm.
pytestmark = pytest.mark.filterwarnings(
    "ignore:The `disp` argument is deprecated:DeprecationWarning"
)

PROBE = "faithfulness_probe"
EQUIVALENCE = "equivalence_transfer"


def passing(rank: int, margin: float) -> dict:
    witness = {"margin": margin, "rank": rank, "scope": "identity component"}
    return {"verdict": "pass", "max_residual": 0.0, "witness": witness}


def collision(part: str, gap: float, element, coordinates, fiber, rank, margin) -> dict:
    witness = {
        "coordinates": coordinates,
        "element": element,
        "fiber": fiber,
        "image_gap": gap,
        "kind": "kernel_collision",
        "margin": margin,
        "part": part,
        "rank": rank,
        "scope": "identity component",
    }
    return {"verdict": "fail", "max_residual": gap, "witness": witness}


HALF_TURN = [[-0.9999999999999998, 1.5269510447359441e-16],
             [-1.526951044735943e-16, -0.9999999999999998]]
FIBER_COLLISION = collision("infinitesimal", 0.0, [[1.0, 0.0], [0.0, 1.0]], [0.0], [1.0], 0, 0.0)

# The faithfulness row of every catalog entry and generator descriptor.
FAITHFULNESS = {
    "circle_rotation": passing(1, 1.0),
    "circle_winding_2": collision(
        "central", 4.440892098500626e-16, HALF_TURN, [3.141592653589793], [0.0], 1, 1.0
    ),
    "gl_identity(1)": passing(1, 1.0),
    "gl_identity(2)": passing(4, 1.0),
    "gl_identity(3)": passing(9, 1.0),
    "sl2_standard": passing(3, 0.7071067811865475),
    "so3_standard": passing(3, 1.0),
    "trivial(1)": FIBER_COLLISION,
    "trivial(2)": FIBER_COLLISION,
    "circle_double": passing(1, 1.0),
    "circle_plus_trivial": passing(1, 1.0),
    "circle_winding": collision(
        "central", 1.71500712077188e-15, HALF_TURN, [3.141592653589793], [0.0], 1, 1.0
    ),
    "sl2_conjugated": passing(3, 0.02009721831490895),
    "so3_doubled": passing(3, 0.9999999999999999),
}


# The residual of every equivalence row compared below, by (samples, seed):
# each passes, without a witness.  The row scores rho(exp B0) against
# expm(d rho(B0)), so it reads exactly 0 wherever apply computes that same
# exponential: the catalog's identity maps and sums of them, the trivial
# maps and every generator descriptor.
EXACT_TIE = (
    "circle_rotation", "gl_identity(1)", "gl_identity(2)", "gl_identity(3)", "sl2_standard",
    "so3_standard", "trivial(1)", "trivial(2)", "circle_double", "circle_plus_trivial",
)
EQUIVALENCE_RESIDUALS = {
    (10, 5): {**dict.fromkeys(EXACT_TIE, 0.0), "circle_winding_2": 4.0939474033052647e-16},
    (10, 1310): {**dict.fromkeys(EXACT_TIE, 0.0), "circle_winding_2": 7.216449660063518e-16},
    (3, 3): {**dict.fromkeys(EXACT_TIE, 0.0), "circle_winding_2": 2.220446049250313e-16},
    (5, 0): {"circle_winding_2": 2.220446049250313e-16},
}

# The generator-descriptor rows that check reads off the load certificate,
# at any sample count and seed: the worst scaled loop residual or bracket
# defect.  Each passes, without a witness.
CERTIFIED = (
    "homomorphism(base)", "homomorphism(prolonged)", "action_oracle", "equivalence_transfer"
)
DESCRIPTOR_RESIDUALS = {
    "circle_winding": dict.fromkeys(CERTIFIED, 4.997759518216605e-17),
    "sl2_conjugated": dict.fromkeys(CERTIFIED, 8.881784197001253e-17),
    "so3_doubled": dict.fromkeys(CERTIFIED, 1.5010540113181237e-16),
}

# The residuals of every homomorphism(prolonged) and action_oracle row of
# check and report compared below, in that order, by (samples, seed): each
# passes, without a witness.  The oracle row is the worse of the base row
# and the equivalence row's tie, so it reads 0 wherever both are exact.
MOVED = ("homomorphism(prolonged)", "action_oracle")
MOVED_RESIDUALS = {
    (10, 5): {
        "circle_rotation": (1.9491468699421696e-16, 0.0),
        "circle_winding_2": (3.3306690738754696e-16, 4.0939474033052647e-16),
        "gl_identity(1)": (1.9174307664912422e-16, 0.0),
        "gl_identity(2)": (1.8844805690347489e-16, 0.0),
        "gl_identity(3)": (5.895877259944486e-16, 0.0),
        "sl2_standard": (2.0525641276448575e-16, 0.0),
        "so3_standard": (1.1102230246251565e-16, 0.0),
        "trivial(1)": (0.0, 0.0),
        "trivial(2)": (0.0, 0.0),
        "circle_double": (1.9491468699421696e-16, 0.0),
        "circle_plus_trivial": (1.9491468699421696e-16, 0.0),
    },
    (10, 1310): {
        "circle_rotation": (2.220446049250313e-16, 0.0),
        "circle_winding_2": (3.885780586188048e-16, 7.216449660063518e-16),
        "gl_identity(1)": (1.8745278753080168e-16, 0.0),
        "gl_identity(2)": (3.3306690738754696e-16, 0.0),
        "gl_identity(3)": (4.543321373324642e-16, 0.0),
        "sl2_standard": (3.3306690738754696e-16, 0.0),
        "so3_standard": (2.189908971834158e-16, 0.0),
        "trivial(1)": (0.0, 0.0),
        "trivial(2)": (0.0, 0.0),
        "circle_double": (2.220446049250313e-16, 0.0),
        "circle_plus_trivial": (2.220446049250313e-16, 0.0),
    },
    (3, 3): {
        "circle_rotation": (1.1102230246251565e-16, 0.0),
        "circle_winding_2": (2.2486570964354144e-16, 2.220446049250313e-16),
        "gl_identity(1)": (2.0816681711721685e-17, 0.0),
        "gl_identity(2)": (1.7822236642966823e-16, 0.0),
        "gl_identity(3)": (2.469041910053025e-16, 0.0),
        "sl2_standard": (1.4367404002853967e-16, 0.0),
        "so3_standard": (1.1102230246251565e-16, 0.0),
        "trivial(1)": (0.0, 0.0),
        "trivial(2)": (0.0, 0.0),
        "circle_double": (1.1102230246251565e-16, 0.0),
        "circle_plus_trivial": (1.1102230246251565e-16, 0.0),
    },
    (5, 0): {"circle_winding_2": (3.3306690738754696e-16, 3.3306690738754696e-16)},
}


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


def without_analytic(witness: dict) -> dict:
    return {key: value for key, value in witness.items() if key != "analytic"}


def project(fmt: str, text: str, pinned=()):
    """The output with the projected fields taken out, and its faithfulness,
    equivalence and ``pinned`` rows as (name, row) pairs: a check dict in
    json, a line otherwise."""
    rows = []
    if fmt == "json":
        document = json.loads(text)
        # The comparison below re-serializes, so pin the layout here.
        assert text == json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
        document.pop("version")
        for entry in document.get("entries", []):
            entry.pop("has_kernel_witness", None)
        for k, check in enumerate(document["checks"]):
            if check["name"].endswith((PROBE, EQUIVALENCE)) or check["name"] in pinned:
                rows.append((check["name"], check))
                document["checks"][k] = {"name": check["name"]}
            elif check["name"] == "differential_consistency" and "witness" in check:
                check["witness"] = without_analytic(check["witness"])
        return json.dumps(document, indent=2, sort_keys=True), rows
    lines = text.split("\n")
    for k, line in enumerate(lines):
        name = line.partition("," if fmt == "csv" else ": ")[0]
        if name.endswith((PROBE, EQUIVALENCE)) or name in pinned:
            rows.append((name, line))
            lines[k] = name
        elif fmt == "csv" and name == "differential_consistency":
            [row] = csv.reader([line])
            if row[3]:
                row[3] = json.dumps(without_analytic(json.loads(row[3])), sort_keys=True)
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="").writerow(row)
            lines[k] = buffer.getvalue()
    return "\n".join(lines), rows


def rendered(fmt: str, name: str, payload: dict):
    """A pinned payload as the CLI writes it in ``fmt``."""
    if fmt == "json":
        return {"name": name, **payload}
    if fmt == "csv":
        buffer = io.StringIO()
        witness = json.dumps(payload["witness"], sort_keys=True) if "witness" in payload else ""
        csv.writer(buffer, lineterminator="").writerow(
            [name, payload["verdict"], repr(payload["max_residual"]), witness]
        )
        return buffer.getvalue()
    return f"{name}: {payload['verdict'].upper()} (max residual {payload['max_residual']:.3e})"


def flag(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def compare(reference_cli, argv: list[str], rep=None, code=None, pinned=None) -> dict:
    """Run both packages; assert that the projections match byte for byte,
    that the exit codes match (or equal ``code``), and that every
    faithfulness and equivalence row, every moved row of ``check`` and
    ``report`` and every row named in ``pinned`` (a residual by name), is
    the pinned one.  Returns the faithfulness and equivalence rows' owners,
    by check name."""
    pinned = dict(pinned or {})
    fmt = flag(argv, "--format", "json")
    key = (int(flag(argv, "--samples", "200")), int(flag(argv, "--seed", "0")))
    residuals = EQUIVALENCE_RESIDUALS.get(key)
    if argv[0] in ("check", "report"):
        moved = MOVED_RESIDUALS.get(key, {})
        for owner in moved if argv[0] == "report" else [rep] if rep in moved else []:
            prefix = f"{owner}::" if argv[0] == "report" else ""
            pinned.update({prefix + name: r for name, r in zip(MOVED, moved[owner])})
    (our_code, ours), (their_code, theirs) = run(cli, argv), run(reference_cli, argv)
    assert our_code == (their_code if code is None else code)
    projected, rows = project(fmt, ours, pinned)
    assert projected == project(fmt, theirs, pinned)[0]
    assert "analytic" not in ours
    if fmt == "json":
        assert json.loads(ours)["version"] == "0.3.0"
    owners = {PROBE: [], EQUIVALENCE: []}
    assert sorted(name for name, _ in rows if name in pinned) == sorted(pinned)
    for name, row in rows:
        owner = name.partition("::")[0] if "::" in name else rep
        if name in pinned:
            payload = {"verdict": "pass", "max_residual": pinned[name]}
            assert row == rendered(fmt, name, payload), owner
            continue
        if name.endswith(PROBE):
            payload, kind = FAITHFULNESS[owner], PROBE
        else:
            payload = {"verdict": "pass", "max_residual": residuals[owner]}
            kind = EQUIVALENCE
        assert row == rendered(fmt, name, payload), owner
        owners[kind].append(owner)
    return owners


def owned(names: list[str]) -> dict:
    return {PROBE: names, EQUIVALENCE: names}


@pytest.mark.parametrize("seed", ["5", "1310"])
def test_catalog_report_bytes_match_the_reference(reference_cli, seed):
    argv = ["report", "--samples", "10", "--seed", seed]
    assert compare(reference_cli, argv, code=1) == owned(catalog_names())


@pytest.mark.parametrize("name", sorted(GENERATOR_DESCRIPTORS))
def test_descriptor_check_bytes_match_the_reference(reference_cli, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(GENERATOR_DESCRIPTORS[name]()))
    argv = ["check", "--rep", str(path), "--suite", "all", "--samples", "20", "--seed", "4"]
    # The reference passed the angle doubler, whose kernel it could not see.
    code = 1 if FAITHFULNESS[name]["verdict"] == "fail" else 0
    pinned = DESCRIPTOR_RESIDUALS[name]
    owners = compare(reference_cli, argv, rep=name, code=code, pinned=pinned)
    assert owners == {PROBE: [name], EQUIVALENCE: []}


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
ROWS = {"check-all": ["circle_winding_2"], "report": catalog_names()}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_and_format_matches_the_reference(reference_cli, command, fmt):
    argv = COMMANDS[command] + ["--format", fmt]
    owners = compare(reference_cli, argv, rep="circle_winding_2")
    assert owners == owned(ROWS.get(command, []))
