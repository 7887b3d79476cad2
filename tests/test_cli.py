import csv
import dataclasses
import functools
import gc
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from descriptors import (
    adjoint,
    circle_winding,
    determinant,
    gl1_power,
    gl2_det_power,
    gl2_perturbed,
    gl3_dense_conjugated,
    gl3_units,
    sl2_conjugated,
    so3_doubled,
    so3_repeated_image,
    so4_dense_conjugated,
    symmetric_power,
)

from lieprolong import (
    CheckReport,
    GroupElement,
    Verdict,
    __version__,
    catalog_entry,
    check_action_oracle,
    check_equivalence_transfer,
    check_homomorphism,
    check_invariance_transfer,
    faithfulness_probe,
    general_linear,
    is_invariant_subspace,
    load_representation,
    sample_tangent_elements,
)
from lieprolong import catalog, cli, groups, prolongation, rep_algebra
from lieprolong.cli import SEED_ENV_VAR, main

REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "config", "checks", "version"],
    "properties": {
        "command": {"type": "string"},
        "version": {"type": "string"},
        "config": {
            "type": "object",
            "required": ["command", "samples", "seed", "format"],
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "verdict", "max_residual"],
                "properties": {
                    "name": {"type": "string"},
                    "verdict": {"enum": ["pass", "fail", "inconclusive"]},
                    "max_residual": {"type": "number"},
                    "witness": {"type": "object"},
                },
            },
        },
        "entries": {"type": "array"},
        "result": {
            "type": "object",
            "required": ["top_left", "bottom_left", "dense"],
        },
    },
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    document = json.loads(out)
    jsonschema.validate(document, REPORT_SCHEMA)
    return code, document, err


class TestCatalogCommand:
    def test_lists_all_entries(self, capsys):
        code, document, _ = run_json(capsys, "catalog")
        assert code == 0
        assert document["command"] == "catalog"
        assert len(document["entries"]) == 11
        names = {e["name"] for e in document["entries"]}
        assert "circle_rotation" in names
        for entry in document["entries"]:
            assert set(entry) == {
                "name",
                "group",
                "target_dim",
                "known_faithful",
                "invariant_subspace_count",
                "notes",
            }

    def test_kind_filter(self, capsys):
        code, document, _ = run_json(capsys, "catalog", "--kind", "Circle")
        assert code == 0
        assert len(document["entries"]) == 6
        assert all("Circle" in e["group"] for e in document["entries"])

    def test_unknown_kind_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["catalog", "--kind", "Bogus"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'Bogus'" in err
        assert "GeneralLinear" in err

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--format", "text")
        assert code == 0
        assert "circle_rotation" in out
        assert "faithful" in out

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "name",
            "group",
            "target_dim",
            "known_faithful",
            "invariant_subspaces",
        ]
        assert len(rows) == 12

    def test_listing_the_catalog_loads_no_scipy(self):
        # SciPy's import costs more than the catalog command's own work, so a
        # fresh process that only lists the catalog must not load it.
        script = (
            "import contextlib, io, json, sys\n"
            "import lieprolong, lieprolong.cli\n"
            "lieprolong.catalog_list()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = lieprolong.cli.main(['catalog'])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('scipy'))]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, []]

    def test_cold_commands_load_no_scipy_linalg_and_no_numpy_random(self, tmp_path):
        # SciPy's compiled expm steps load from their own file, and the
        # prolong command's probes come from groups' streams, so a fresh
        # process imports neither scipy.linalg nor numpy.random.  SciPy's
        # version matters only to 2 x 2 exponentials, which neither prolong
        # nor check takes here, so they load no scipy module but the kernels'.
        # A descriptor's check takes no logarithm: one SciPy logm would
        # import scipy.linalg, about 11 MB of a cold check's peak memory.
        kernels = groups._load_pade_kernels()
        if not (kernels and groups._recorded_admission(kernels, 3)):
            pytest.skip(
                "the recorded bits of scipy.linalg.expm admit no kernels here, "
                "so the live probe imports scipy.linalg"
            )
        coords = ",".join(["0.25", "-0.5", "0.125"] * 3)
        descriptor = tmp_path / "so3_doubled.json"
        descriptor.write_text(json.dumps(so3_doubled()))
        commands = [
            ["prolong", "--rep", "gl_identity(3)", f"--a-coords={coords}", f"--fiber={coords}"],
            ["check", "--rep", "so3_standard", "--suite", "all", "--samples", "20"],
            ["check", "--rep", str(descriptor), "--suite", "all"],
        ]
        # The report takes 2 x 2 exponentials.
        if groups._recorded_admission(kernels, 2) == 2:
            commands.append(["report", "--samples", "3"])
        for argv in commands:
            script = (
                "import contextlib, io, json, sys\n"
                "import lieprolong.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = lieprolong.cli.main({argv!r})\n"
                "print(json.dumps([code, [m for m in ('scipy.linalg', 'numpy.random')"
                " if m in sys.modules],"
                " sorted(m for m in sys.modules if m.startswith('scipy'))]))\n"
            )
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            code, loaded, scipy_modules = json.loads(proc.stdout)
            assert code in (0, 1) and loaded == [], (argv, code, loaded)
            if argv[0] != "report":
                assert scipy_modules == ["scipy.linalg._matfuncs_expm"], (argv, scipy_modules)

    @pytest.mark.parametrize(
        "argv",
        [
            ["catalog"],
            ["catalog", "--format", "text"],
            ["catalog", "--format", "csv"],
            ["catalog", "--kind", "Circle"],
            ["--version"],
            ["--help"],
            ["check", "--suite", "all"],
            ["catalog", "--output", "{missing}/catalog.json"],
        ],
        ids=["json", "text", "csv", "kind", "version", "help", "usage_error", "unwritable"],
    )
    def test_commands_that_evaluate_nothing_load_no_numpy(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        # Listing reads the catalog's rows, and parsing and refusing need
        # no representation, so none of these processes imports numpy.
        argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to this
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
        out, err = capsys.readouterr()
        # -X importtime writes a line to stderr for each module imported.
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "lieprolong", *argv],
            capture_output=True,
            text=True,
        )
        timed = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
        imported = {line.rsplit("|", 1)[1].strip() for line in timed}
        assert not {m for m in imported if m == "numpy" or m.startswith("numpy.")}
        assert (proc.returncode, proc.stdout) == (code, out)
        assert proc.stderr.splitlines()[len(timed):] == err.splitlines()
        if argv == ["catalog"]:
            assert hashlib.sha256(out.encode()).hexdigest().startswith("150f9b8d")

    def test_faithfulness_suite_loads_no_scipy_spatial(self):
        # The certificate needs only scipy.linalg; the k-d tree it replaced
        # was the one user of scipy.spatial.
        script = (
            "import contextlib, io, json, sys\n"
            "import lieprolong.cli\n"
            "argv = ['check', '--rep', 'so3_standard', '--suite', 'faithfulness']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = lieprolong.cli.main(argv)\n"
            "print(json.dumps([code, 'scipy.spatial' in sys.modules]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, False]


class TestProlongCommand:
    def test_scalar_blocks_frozen(self, capsys):
        code, document, _ = run_json(
            capsys,
            "prolong",
            "--rep",
            "gl_identity(1)",
            "--a-coords",
            str(math.log(2.0)),
            "--fiber",
            "3",
        )
        assert code == 0
        result = document["result"]
        assert result["top_left"][0][0] == pytest.approx(2.0, rel=1e-12)
        assert result["bottom_left"][0][0] == pytest.approx(6.0, rel=1e-12)
        dense = np.array(result["dense"])
        np.testing.assert_allclose(dense[:1, 1:], 0.0)
        names = [c["name"] for c in document["checks"]]
        assert names == ["differential_consistency", "action_oracle"]
        assert all(c["verdict"] == "pass" for c in document["checks"])

    def test_circle_generator_blocks(self, capsys):
        code, document, _ = run_json(
            capsys, "prolong", "--rep", "circle_rotation", "--a-coords", "0", "--fiber", "1"
        )
        assert code == 0
        np.testing.assert_allclose(
            document["result"]["bottom_left"], [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12
        )

    def test_coordinates_accept_commas_and_spaces(self, capsys):
        code, document, _ = run_json(
            capsys,
            "prolong",
            "--rep",
            "so3_standard",
            "--a-coords",
            "0.1, 0.2 0.3",
            "--fiber",
            "1,0,0",
        )
        assert code == 0
        assert len(document["result"]["top_left"]) == 3

    def test_wrong_coordinate_count_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "prolong", "--rep", "so3_standard", "--a-coords", "1,2", "--fiber", "1,2,3"
        )
        assert code == 2
        assert out == ""
        assert "3 coordinates" in err

    def test_unparseable_coordinates_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "prolong", "--rep", "circle_rotation", "--a-coords", "abc", "--fiber", "1"
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        ("a_coords", "message"),
        [
            ("1000,0,0", "||tB|| = 1.000e+03 exceeds the overflow guard 700"),
            ("inf,0,0", "coordinate vector entries must be finite"),
            (",", "--a-coords must contain at least one number"),
        ],
        ids=["overflow_guard", "non_finite", "no_number"],
    )
    def test_unusable_base_coordinates_exit_2(self, capsys, a_coords, message):
        code, out, err = run_cli(
            capsys, "prolong", "--rep", "so3_standard", "--a-coords", a_coords, "--fiber", "1,0,0"
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")


# The library function behind each suite and the default tolerance it
# applies when --tol is not given.  The suites' vertical and direct-sum rows
# hold by construction and call nothing (acceptance criterion 07 proves
# both); is_invariant_subspace, which tests the vertical claim on any
# subspace, keeps the contract.
SUITE_CHECKS = [
    ("homomorphism", check_homomorphism, 1e-9),
    ("oracle", check_action_oracle, 1e-9),
    ("equivalence", check_equivalence_transfer, 1e-9),
    ("invariance", check_invariance_transfer, 1e-9),
    ("invariance", is_invariant_subspace, 1e-9),
]


@pytest.mark.parametrize(
    "suite, check, tol", SUITE_CHECKS, ids=[f"{s}-{c.__name__}" for s, c, _ in SUITE_CHECKS]
)
def test_suite_check_contract_and_default_tolerance(suite, check, tol):
    parameters = inspect.signature(check).parameters
    positional = [p.name for p in parameters.values() if p.kind is p.POSITIONAL_OR_KEYWORD]
    assert positional[-3:] == ["samples", "seed", "tol"]
    assert parameters["tol"].default == tol


def test_faithfulness_check_takes_no_samples():
    parameters = inspect.signature(faithfulness_probe).parameters
    assert list(parameters) == ["rep", "tol"]
    assert parameters["tol"].default == 1e-12


class TestCheckCommand:
    def test_all_suites_pass_on_rotation(self, capsys):
        code, document, _ = run_json(
            capsys, "check", "--rep", "circle_rotation", "--suite", "all", "--seed", "5"
        )
        assert code == 0
        names = [c["name"] for c in document["checks"]]
        assert names == [
            "homomorphism(base)",
            "homomorphism(prolonged)",
            "action_oracle",
            "equivalence_transfer",
            "vertical_invariance",
            "direct_sum_commutation",
            "faithfulness_probe",
        ]
        assert all(c["verdict"] == "pass" for c in document["checks"])

    def test_invariance_suite_includes_declared_subspaces(self, capsys):
        code, document, _ = run_json(
            capsys,
            "check",
            "--rep",
            "circle_plus_trivial",
            "--suite",
            "invariance",
            "--samples",
            "60",
        )
        assert code == 0
        names = [c["name"] for c in document["checks"]]
        assert names == [
            "invariance_transfer[0]",
            "invariance_transfer[1]",
            "vertical_invariance",
        ]

    def test_structural_rows_draw_nothing(self, capsys, monkeypatch):
        # The direct-sum and vertical rows hold by construction, so they draw
        # no sample however many --samples asks for.  so3_standard declares
        # no invariant subspace, so its invariance suite is the vertical row.
        draw, calls = groups.sample_tangent_elements, []

        def counted(*args):
            calls.append(args)
            return draw(*args)

        # rep_algebra draws through its own binding, behind the sample memo.
        monkeypatch.setattr(groups, "sample_tangent_elements", counted)
        monkeypatch.setattr(rep_algebra, "sample_tangent_elements", counted)
        rep_algebra._tangent_sample.cache_clear()
        for suite, samples, name in [
            ("directsum", "5000", "direct_sum_commutation"),
            ("invariance", "200", "vertical_invariance"),
        ]:
            code, document, _ = run_json(
                capsys, "check", "--rep", "so3_standard", "--suite", suite, "--samples", samples
            )
            assert code == 0
            rows = [(c["name"], c["verdict"], c["max_residual"]) for c in document["checks"]]
            assert rows == [(name, "pass", 0.0)]
        assert calls == []

        # The wrapper sees the draws of a sampled row.
        run_json(capsys, "check", "--rep", "so3_standard", "--suite", "oracle", "--samples", "5")
        assert calls

    def test_trivial_homomorphism_residual_is_exactly_zero(self, capsys):
        code, document, _ = run_json(
            capsys, "check", "--rep", "trivial(2)", "--suite", "homomorphism"
        )
        assert code == 0
        assert document["checks"][0]["max_residual"] == 0.0

    def test_known_kernel_collision_exits_1(self, capsys):
        code, document, _ = run_json(
            capsys, "check", "--rep", "circle_winding_2", "--suite", "faithfulness"
        )
        assert code == 1
        (check,) = document["checks"]
        assert check["verdict"] == "fail"
        assert check["witness"]["kind"] == "kernel_collision"

    def test_half_turn_collides_at_any_tolerance(self, capsys):
        # The half turn is found from the integer weights of d rho(J), not
        # from how near its image comes to the identity (about 4.4e-16).
        code, document, _ = run_json(
            capsys, "check", "--rep", "circle_winding_2", "--suite", "faithfulness",
            "--tol", "1e-300",
        )
        assert code == 1
        (check,) = document["checks"]
        assert document["config"]["tol"] == 1e-300
        assert check["witness"]["part"] == "central"
        assert 0.0 < check["max_residual"] < 1e-15

    def test_descriptor_file_as_rep_source(self, capsys, tmp_path):
        descriptor = {
            "group": {"kind": "Circle", "dim": 2},
            "target_dim": 2,
            "map": {
                "kind": "generators",
                "generator_images": [[[0.0, 2.0], [-2.0, 0.0]]],
            },
        }
        path = tmp_path / "winding.json"
        path.write_text(json.dumps(descriptor))
        code, document, _ = run_json(
            capsys, "check", "--rep", str(path), "--suite", "homomorphism", "--samples", "50"
        )
        assert code == 0
        assert all(c["verdict"] == "pass" for c in document["checks"])

    def test_malformed_descriptor_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "check", "--rep", str(path), "--suite", "homomorphism")
        assert code == 2
        assert "error" in err

    def test_non_utf8_descriptor_exits_2(self, capsys, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(capsys, "check", "--rep", str(path), "--suite", "homomorphism")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "UTF-8" in err
        assert "Traceback" not in err

    def test_unknown_rep_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "--rep", "missing", "--suite", "homomorphism")
        assert code == 2
        assert "neither a catalog entry nor a descriptor file" in err

    def test_unknown_suite_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check", "--rep", "circle_rotation", "--suite", "bogus"])
        assert info.value.code == 2

    def test_missing_rep_flag_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check", "--suite", "homomorphism"])
        assert info.value.code == 2

    def test_csv_output_parses(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check",
            "--rep",
            "circle_rotation",
            "--suite",
            "homomorphism",
            "--format",
            "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["name", "verdict", "max_residual", "witness"]
        assert [r[1] for r in rows[1:]] == ["pass", "pass"]
        float(rows[1][2])

    def test_text_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check",
            "--rep",
            "circle_rotation",
            "--suite",
            "oracle",
            "--format",
            "text",
            "--samples",
            "40",
        )
        assert code == 0
        assert "action_oracle: PASS" in out

    def test_output_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "check",
            "--rep",
            "circle_rotation",
            "--suite",
            "homomorphism",
            "--output",
            str(target),
        )
        assert code == 0
        assert out == ""
        document = json.loads(target.read_text())
        jsonschema.validate(document, REPORT_SCHEMA)

    @pytest.mark.parametrize(
        "target", [".", "missing/report.json"], ids=["directory", "missing_dir"]
    )
    def test_unwritable_output_exits_2(self, capsys, tmp_path, target):
        path = tmp_path / target
        code, out, err = run_cli(capsys, "catalog", "--output", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}")
        assert err.count("\n") == 1

    def test_tolerance_override_can_force_failure(self, capsys):
        code, document, _ = run_json(
            capsys,
            "check",
            "--rep",
            "so3_standard",
            "--suite",
            "homomorphism",
            "--tol",
            "1e-30",
        )
        assert code == 1
        assert any(c["verdict"] == "fail" for c in document["checks"])


# What a sampled suite of check or report never calls: a prolonged image, a
# tangent product or the finite-difference action oracle.
PROLONGED_PATH = ("tg_multiply", "prolong", "apply_prolonged", "tangent_action_oracle")


def count_calls(monkeypatch, names) -> dict:
    """Calls of the package functions ``names``, under whatever module name
    the package imported each one."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(groups, name, None) or getattr(prolongation, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("lieprolong") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


class TestCheckPath:
    """The homomorphism, oracle and equivalence rows read two scans, which
    sample the hypotheses of the block algebra that tests/test_acceptance.py
    proves, and no prolonged image."""

    def test_check_all_forms_no_prolonged_image(self, monkeypatch, capsys):
        counts = count_calls(monkeypatch, PROLONGED_PATH)
        code, document, _ = run_json(
            capsys, "check", "--rep", "so3_standard", "--suite", "all", "--samples", "20"
        )
        assert code == 0 and len(document["checks"]) == 7
        assert counts == dict.fromkeys(PROLONGED_PATH, 0)

    def test_report_prolongs_only_its_faithfulness_witnesses(self, monkeypatch, capsys):
        counts = count_calls(monkeypatch, PROLONGED_PATH)
        code, document, _ = run_json(capsys, "report", "--samples", "10", "--seed", "5")
        assert code == 1
        # faithfulness_probe prolongs its witness [I, B] when the kernel of
        # d rho holds B: on trivial(1) and trivial(2).
        witnesses = [
            c["name"] for c in document["checks"]
            if c.get("witness", {}).get("part") == "infinitesimal"
        ]
        assert witnesses == ["trivial(1)::faithfulness_probe", "trivial(2)::faithfulness_probe"]
        assert counts == {**dict.fromkeys(PROLONGED_PATH, 0), "prolong": 2}

    def test_the_oracle_row_adds_no_apply_evaluation(self, monkeypatch, capsys):
        entry = catalog_entry("so3_standard")
        calls = []
        rep = dataclasses.replace(
            entry.rep, apply=lambda a: calls.append(a.matrix.shape) or entry.rep.apply(a)
        )
        monkeypatch.setattr(cli, "_resolve_rep", lambda source: (rep, entry))

        def evaluations(suite: str) -> int:
            calls.clear()
            run_json(capsys, "check", "--rep", "so3_standard", "--suite", suite, "--samples", "20")
            return len(calls)

        # Within one command the oracle row reads the homomorphism and
        # equivalence rows' scans; on its own it runs both.
        others = sum(evaluations(suite) for suite in cli._SUITE_NAMES if suite != "oracle")
        assert evaluations("all") == others
        assert evaluations("oracle") == evaluations("homomorphism") + evaluations("equivalence")


class TestSeeds:
    def test_env_seed_matches_flag_seed(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "9")
        _, env_doc, _ = run_json(capsys, "check", "--rep", "so3_standard", "--suite", "homomorphism")
        monkeypatch.delenv(SEED_ENV_VAR)
        _, flag_doc, _ = run_json(
            capsys, "check", "--rep", "so3_standard", "--suite", "homomorphism", "--seed", "9"
        )
        assert env_doc["checks"] == flag_doc["checks"]
        assert env_doc["config"]["seed"] == 9

    def test_non_integer_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "pi")
        code, _, err = run_cli(capsys, "check", "--rep", "so3_standard", "--suite", "homomorphism")
        assert code == 2
        assert SEED_ENV_VAR in err

    def test_catalog_echoes_the_env_seed_and_the_default_samples(self, capsys, monkeypatch):
        # catalog takes no --samples, --seed or --tol; its echo keeps the
        # defaults and the environment seed in their places.
        monkeypatch.setenv(SEED_ENV_VAR, "9")
        _, document, _ = run_json(capsys, "catalog")
        config = document["config"]
        assert (config["samples"], config["seed"], config["tol"]) == (200, 9, None)

    def test_different_seeds_change_residuals(self, capsys):
        _, left, _ = run_json(
            capsys, "check", "--rep", "so3_standard", "--suite", "homomorphism", "--seed", "1"
        )
        _, right, _ = run_json(
            capsys, "check", "--rep", "so3_standard", "--suite", "homomorphism", "--seed", "2"
        )
        # the identity map makes the base residual exactly zero for any
        # seed; the prolonged residual is seed-sensitive
        assert (
            left["checks"][1]["max_residual"] != right["checks"][1]["max_residual"]
        )

    def test_gl3_descriptor_images_ignore_the_global_random_state(self):
        # This fails when logm is left to draw from the global state: some
        # of these 100 slices change in the last bit.
        rep = load_representation(gl3_units())
        stack = sample_tangent_elements(general_linear(3), range(100)).base
        digests = set()
        for global_seed in range(4):
            np.random.seed(global_seed)
            # A fresh element, since an element keeps its coordinates.
            images = rep.apply(GroupElement(stack.matrix, stack.spec))
            digests.add(hashlib.sha256(images.tobytes()).hexdigest())
        assert len(digests) == 1

    def test_json_reports_are_byte_identical_across_processes(self, tmp_path):
        outputs = []
        for run in range(2):
            target = tmp_path / f"run{run}.json"
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "lieprolong",
                    "check",
                    "--rep",
                    "so3_standard",
                    "--suite",
                    "homomorphism",
                    "--seed",
                    "123",
                    "--samples",
                    "60",
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            target.write_text(proc.stdout)
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]


class TestConfigEcho:
    """The whole ``config`` object of each command, run with no optional
    flag and with every flag it takes: a flag left out echoes RunConfig's
    default, and the seed falls back to the environment."""

    BARE = {
        "command": None,
        "rep_source": None,
        "samples": 200,
        "seed": 0,
        "tol": None,
        "output": None,
        "format": "json",
        "suite": None,
        "a_coords": None,
        "fiber": None,
        "kind": None,
    }
    REQUIRED = {
        "catalog": ([], {}),
        "prolong": (
            ["--rep", "so3_standard", "--a-coords", "0.1,0.2,0.3", "--fiber", "1,0,0"],
            {"rep_source": "so3_standard", "a_coords": "0.1,0.2,0.3", "fiber": "1,0,0"},
        ),
        "check": (
            ["--rep", "circle_rotation", "--suite", "faithfulness"],
            {"rep_source": "circle_rotation", "suite": "faithfulness"},
        ),
        "report": ([], {}),
    }
    OPTIONAL = {
        "catalog": (["--kind", "Circle"], {"kind": "Circle"}),
        "prolong": (["--seed", "-3", "--tol", "0.5"], {"seed": -3, "tol": 0.5}),
        "check": (
            ["--samples", "7", "--seed", "-3", "--tol", "0.5"],
            {"samples": 7, "seed": -3, "tol": 0.5},
        ),
        "report": (
            ["--samples", "1", "--seed", "-3", "--tol", "0.5"],
            {"samples": 1, "seed": -3, "tol": 0.5},
        ),
    }

    @pytest.fixture(params=[None, "9"], ids=["no_env_seed", "env_seed"])
    def env_seed(self, request, monkeypatch):
        if request.param is None:
            monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(SEED_ENV_VAR, request.param)
        return request.param

    @pytest.mark.parametrize("command", ["catalog", "prolong", "check", "report"])
    def test_bare_command(self, capsys, command, env_seed):
        argv, fields = self.REQUIRED[command]
        _, document, _ = run_json(capsys, command, *argv)
        expected = {**self.BARE, **fields, "command": command}
        if env_seed is not None:
            expected["seed"] = int(env_seed)
        assert document["config"] == expected

    @pytest.mark.parametrize("command", ["catalog", "prolong", "check", "report"])
    def test_every_flag(self, capsys, tmp_path, command, env_seed):
        target = tmp_path / "report.json"
        argv, fields = self.REQUIRED[command]
        flags, options = self.OPTIONAL[command]
        main([command, *argv, *flags, "--format", "json", "--output", str(target)])
        assert capsys.readouterr().out == ""
        expected = {
            **self.BARE,
            **fields,
            **options,
            "command": command,
            "format": "json",
            "output": str(target),
        }
        if command == "catalog" and env_seed is not None:
            expected["seed"] = int(env_seed)  # catalog takes no --seed
        assert json.loads(target.read_text())["config"] == expected


    def test_a_second_call_echoes_its_own_defaults(self, capsys, monkeypatch, env_seed):
        # main parses with one parser per process; the first call's flags
        # must not become the second's defaults.
        build, builds = cli.build_parser, []

        def counted():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        argv, fields = self.REQUIRED["check"]
        flags, _ = self.OPTIONAL["check"]
        main(["check", *argv, *flags, "--format", "csv"])
        capsys.readouterr()
        _, document, _ = run_json(capsys, "check", *argv)
        expected = {**self.BARE, **fields, "command": "check"}
        if env_seed is not None:
            expected["seed"] = int(env_seed)
        assert document["config"] == expected
        assert len(builds) == 1
        # The public builder still returns a parser of the caller's own.
        assert build() is not cli._parser()


class TestReportCommand:
    def test_catalog_wide_report(self, capsys):
        code, document, _ = run_json(capsys, "report", "--samples", "8", "--seed", "3")
        # the catalog contains representations with known kernels, so the
        # aggregate exit code reports their expected faithfulness failures
        assert code == 1
        names = [c["name"] for c in document["checks"]]
        assert any(name.startswith("circle_rotation::") for name in names)
        failing = [c for c in document["checks"] if c["verdict"] == "fail"]
        assert failing
        for check in failing:
            entry_name, check_name = check["name"].split("::")
            assert check_name == "faithfulness_probe"
            assert entry_name in {"circle_winding_2", "trivial(1)", "trivial(2)"}


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert __version__ in out


COLD_CHECK = ["check", "--rep", "so3_standard", "--suite", "all", "--samples", "20"]


class TestProcessEntry:
    """``python -m lieprolong`` and the console script parse the command
    line, import what the command evaluates with, freeze the heap out of
    the cyclic collector and then run the command; ``cli.main`` itself
    freezes nothing."""

    def test_main_in_process_freezes_nothing(self, capsys):
        before = gc.get_freeze_count()
        for argv in (["catalog"], COLD_CHECK, [*COLD_CHECK[:-1], "0"]):
            main(argv)
            assert gc.get_freeze_count() == before, argv
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [["catalog"], [*COLD_CHECK, "--seed", "4"], [*COLD_CHECK[:-1], "0"]],
        ids=["catalog", "check", "zero_samples"],
    )
    def test_a_process_prints_what_main_prints_in_process(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "lieprolong", *argv], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout) == (code, out)
        if "--seed" in argv:
            assert hashlib.sha256(out.encode()).hexdigest().startswith("655f6659")
        if code == 2:
            assert proc.stderr == err == "error: --samples must be at least 1, got 0\n"

    def test_the_console_script_freezes_before_the_command(self):
        # The entry pyproject.toml names, run in a fresh process.
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        module, function = re.search(
            r'^lieprolong = "([\w.]+):(\w+)"$', pyproject.read_text(), re.MULTILINE
        ).groups()
        script = (
            "import contextlib, gc, importlib, io, json, sys\n"
            f"entry = getattr(importlib.import_module({module!r}), {function!r})\n"
            "before = gc.get_freeze_count()\n"
            "sys.argv = ['lieprolong', 'catalog']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = entry()\n"
            "print(json.dumps([code, before, gc.get_freeze_count() > 0]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, 0, True]

    @pytest.mark.parametrize(
        "argv, numpy_frozen", [(["catalog"], False), (COLD_CHECK, True)], ids=["catalog", "check"]
    )
    def test_the_entry_freezes_after_the_commands_imports(self, argv, numpy_frozen):
        # A command that evaluates a representation has numpy's objects
        # frozen with the rest of its imports; catalog never loads numpy.
        script = (
            "import contextlib, gc, io, json, sys\n"
            "from lieprolong.__main__ import run\n"
            "seen, freeze = [], gc.freeze\n"
            "gc.freeze = lambda: seen.append('numpy' in sys.modules) or freeze()\n"
            f"sys.argv = ['lieprolong', *{argv!r}]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = run()\n"
            "print(json.dumps([code, seen, 'numpy' in sys.modules]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, [numpy_frozen], numpy_frozen]

    BLAS_THREADS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]

    @pytest.mark.parametrize(
        "preset, code, expected",
        [
            ({}, "import lieprolong.__main__ as m; m.run()", ["1", "1", "1"]),
            ({"OPENBLAS_NUM_THREADS": "2"}, "import lieprolong.__main__ as m; m.run()",
             ["2", "1", "1"]),
            ({}, "import lieprolong; lieprolong.mat_exp", [None, None, None]),
        ],
        ids=["unset", "preset", "library"],
    )
    def test_the_entry_alone_runs_blas_on_one_thread(self, preset, code, expected):
        # The entry sets what the caller left unset, before numpy loads; a
        # library import sets nothing.
        env = {k: v for k, v in os.environ.items() if k not in self.BLAS_THREADS}
        script = (
            "import contextlib, io, json, os, sys\n"
            "sys.argv = ['lieprolong', 'catalog']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    {code}\n"
            f"print(json.dumps([os.environ.get(v) for v in {self.BLAS_THREADS!r}]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env={**env, **preset}
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == expected


def strict_json(text: str):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


class TestMalformedInput:
    @pytest.mark.parametrize("suite", ["homomorphism", "oracle"])
    def test_zero_samples_exit_2(self, capsys, suite):
        code, out, err = run_cli(
            capsys, "check", "--rep", "circle_rotation", "--suite", suite, "--samples", "0"
        )
        assert code == 2
        assert out == ""
        assert "--samples" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["catalog", "--samples", "5"],
            ["catalog", "--seed", "1"],
            ["catalog", "--tol", "1e-3"],
            ["prolong", "--rep", "circle_rotation", "--a-coords", "0", "--fiber", "1",
             "--samples", "5"],
        ],
    )
    def test_flags_a_command_does_not_read_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: lieprolong")
        assert f"error: unrecognized arguments: {' '.join(argv[-2:])}\n" in captured.err

    def test_overflowing_fiber_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "prolong", "--rep", "gl_identity(1)", "--a-coords", "0", "--fiber", "1e308"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    @staticmethod
    def assert_only_an_error_line(*argv):
        # In process pytest records a warning before capsys could see it, so
        # the command runs as a child and its whole stderr is read.
        proc = subprocess.run(
            [sys.executable, "-m", "lieprolong", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1

    def test_overflowing_user_map_prints_only_its_error_line(self):
        # 2 * 1e308 overflows inside circle_winding_2's differential.
        self.assert_only_an_error_line(
            "prolong", "--rep", "circle_winding_2", "--a-coords", "3.14159", "--fiber", "1e308"
        )

    def test_nearly_singular_logarithm_prints_only_its_error_line(self, tmp_path):
        # The difference quotient takes logm at exp(-1e-6 B), about exp(-700),
        # where SciPy warns that its input is nearly singular.
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(gl1_power(1.015)))
        self.assert_only_an_error_line(
            "prolong", "--rep", str(path), "--a-coords", "0", "--fiber", "6.99e8"
        )

    @pytest.mark.parametrize(
        "document",
        [
            {
                "group": {"kind": "GeneralLinear", "dim": 1},
                "target_dim": True,
                "map": {"kind": "generators", "generator_images": [[[1.0]]]},
            },
            {
                "group": {"kind": "GeneralLinear", "dim": True},
                "target_dim": 1,
                "map": {"kind": "generators", "generator_images": [[[1.0]]]},
            },
            {
                "group": {"kind": ["GeneralLinear"], "dim": 1},
                "target_dim": 1,
                "map": {"kind": "generators", "generator_images": [[[1.0]]]},
            },
            {
                "group": {"kind": "Circle", "dim": 3},
                "target_dim": 1,
                "map": {"kind": "generators", "generator_images": [[[0.0]]]},
            },
            {
                "group": {"kind": "GeneralLinear", "dim": 1},
                "target_dim": 2,
                "map": {"kind": "generators", "generator_images": [[[0, "x"], [0, 0]]]},
            },
            {
                "group": {"kind": "GeneralLinear", "dim": 1},
                "target_dim": 2,
                "map": {"kind": "generators", "generator_images": [[[0, [1]], [0, 0]]]},
            },
            gl1_power(10**400),
            gl1_power(1e200),
            {
                "group": {"kind": "Circle", "dim": 2},
                "target_dim": 2,
                "map": {"kind": "named", "name": "circle_rotation"},
            },
            {
                "group": {"kind": "Circle", "dim": 2},
                "target_dim": 2,
                "map": {"kind": "generators", "generator_images": [[[0, 1], [-1, 0]]]},
                "differential": [[[0, 1], [-1, 0]]],
            },
            {
                "group": {"kind": "SpecialOrthogonal", "dim": 3},
                "target_dim": 3,
                "map": {
                    "kind": "generators",
                    "generator_images": [
                        [[0, 1.01, 0], [-1.01, 0, 0], [0, 0, 0]],
                        [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
                        [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
                    ],
                },
            },
            so3_repeated_image(),
            gl2_perturbed(),
        ],
        ids=[
            "boolean_target_dim",
            "boolean_group_dim",
            "unhashable_group_kind",
            "circle_in_dim_3",
            "non_numeric_image_entry",
            "ragged_image_row",
            "integer_past_the_float_range",
            "image_too_large_to_verify",
            "named_map",
            "differential_key",
            "open_loop",
            "broken_so3_bracket",
            "broken_gl2_bracket",
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_malformed_descriptor_exits_2_with_one_error_line(
        self, capsys, tmp_path, document
    ):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(
            capsys, "check", "--rep", str(path), "--suite", "homomorphism"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["SpecialLinear", "SpecialOrthogonal"])
    @pytest.mark.parametrize(
        "command",
        [["check", "--suite", "all"], ["prolong", "--a-coords", "", "--fiber", ""]],
        ids=["check", "prolong"],
    )
    def test_trivial_group_descriptors_exit_2(self, capsys, tmp_path, kind, command):
        # Dimension 1 makes both kinds the trivial group, with no generators.
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({
            "group": {"kind": kind, "dim": 1},
            "target_dim": 1,
            "map": {"kind": "generators", "generator_images": []},
        }))
        code, out, err = run_cli(capsys, command[0], "--rep", str(path), *command[1:])
        assert code == 2
        assert out == ""
        assert err == f"error: {kind}(1) is the trivial group, whose Lie algebra is zero\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_equivalence_row_forms_no_product_of_its_images(self):
        # Every image at sample 44 is finite, K R = 1.66e308 among them, and
        # diag(A, A) times it would overflow for any A of norm above 1.08.
        # The sampled row scores rho(x) against expm(d rho(B_0)) alone, which
        # a generator descriptor meets exactly.  (The check command reads a
        # descriptor's row off its load certificate.)
        rep = load_representation(gl1_power(710.0))
        report = check_equivalence_transfer(rep, 200, seed=317)
        assert (report.verdict.value, report.max_residual) == ("pass", 0.0)

    def test_overflowing_images_exit_2_in_prolong_at_large_coordinates(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(gl1_power(1000.0)))
        argv = ["prolong", "--rep", str(path), "--fiber", "0"]
        code, out, _ = run_cli(capsys, *argv, "--a-coords", "0.1")
        assert code == 0
        code, out, err = run_cli(capsys, *argv, "--a-coords", "5")
        assert code == 2
        assert out == ""
        assert err == (
            "error: cannot evaluate the prolongation there: apply returned non-finite entries\n"
        )

    def test_other_value_errors_in_a_suite_are_not_input_errors(self, monkeypatch):
        # Only evaluation failures of the images become exit 2; any other
        # ValueError in a suite is a fault of the program and propagates.
        def broken(*args):
            raise ValueError("shape mismatch inside a suite")

        monkeypatch.setattr(cli, "_run_suite", broken)
        with pytest.raises(ValueError, match="inside a suite"):
            main(["check", "--rep", "circle_rotation", "--suite", "homomorphism"])

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
    def test_unusable_tolerance_exits_2(self, capsys, tol):
        code, out, err = run_cli(
            capsys, "check", "--rep", "circle_rotation", "--suite", "homomorphism", f"--tol={tol}"
        )
        assert code == 2
        assert out == ""
        assert "--tol" in err


class TestStrictReports:
    def test_tolerance_reaches_the_faithfulness_threshold(self, capsys):
        argv = ["check", "--rep", "so3_standard", "--suite", "faithfulness"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert strict_json(out)["checks"][0]["witness"]["margin"] == 1.0
        code, out, _ = run_cli(capsys, *argv, "--tol", "10")
        assert code == 1
        document = strict_json(out)
        assert document["config"]["tol"] == 10.0
        assert document["checks"][0]["witness"]["part"] == "infinitesimal"

    @pytest.mark.parametrize("residual", [math.inf, math.nan], ids=["inf", "nan"])
    def test_a_non_finite_residual_is_written_as_the_largest_double(self, capsys, residual):
        # An overflowing gap is an infinite residual.  Strict JSON has no
        # literal for it, so the json payload and the csv witness cell stay
        # numbers and name the value; the csv residual column and text print
        # it as they always did.
        witness = {"seed": [3, 1], "sample_index": 7, "residual": residual}
        report = CheckReport("equivalence_transfer", Verdict.FAIL, residual, witness)
        config = cli.RunConfig("check", rep_source="so3_standard", suite="equivalence")
        assert cli._finish(config, [report]) == 1
        document = strict_json(capsys.readouterr().out)
        jsonschema.validate(document, REPORT_SCHEMA)
        [row] = document["checks"]
        assert row["max_residual"] == sys.float_info.max
        assert row["witness"] == {
            "seed": [3, 1],
            "sample_index": 7,
            "residual": sys.float_info.max,
            "non_finite_residual": str(residual),
        }
        assert cli._finish(dataclasses.replace(config, format="csv"), [report]) == 1
        [_, (_, _, written, cell)] = csv.reader(io.StringIO(capsys.readouterr().out))
        assert written == str(residual)
        assert strict_json(cell) == row["witness"]
        assert cli._finish(dataclasses.replace(config, format="text"), [report]) == 1
        assert capsys.readouterr().out == f"equivalence_transfer: FAIL (max residual {residual})\n"


CERTIFIED = (
    "homomorphism(base)", "homomorphism(prolonged)", "action_oracle", "equivalence_transfer"
)

# Every descriptor of tests/descriptors.py that loads.
LOADABLE = {
    "so3_doubled": so3_doubled,
    "circle_winding": circle_winding,
    "sl2_conjugated": sl2_conjugated,
    "gl3_units": gl3_units,
    "determinant": determinant,
    "adjoint_sl2": lambda: adjoint("SpecialLinear", 2),
    "adjoint_so4": lambda: adjoint("SpecialOrthogonal", 4),
    **{f"symmetric_power({n})": functools.partial(symmetric_power, n) for n in (4, 10, 20, 40)},
    "gl3_dense_conjugated": gl3_dense_conjugated,
    "so4_dense_conjugated": so4_dense_conjugated,
    "gl1_power(1000)": functools.partial(gl1_power, 1000.0),
    "gl2_det_power(14)": functools.partial(gl2_det_power, 14.0),
}


class TestDescriptorCertificate:
    """A descriptor's homomorphism, oracle and equivalence rows report its
    load certificate, the worst scaled loop residual or bracket defect, and
    sample nothing."""

    @pytest.mark.parametrize(
        ("document", "flags", "codes", "verdict"),
        [
            # Sampled at the defaults, these failed on every seed.
            (gl3_dense_conjugated(), [], {0}, "pass"),
            # Sampled, these were refused: cond(Sym^n a) = cond(a)^n.  Their
            # faithfulness rows fail rightly, since Sym^n(-I) = I for even n.
            (symmetric_power(20), [], {1}, "pass"),
            (symmetric_power(40), [], {1}, "pass"),
            # The loops close within 2.07e-10: the echoed tolerance applies.
            (so4_dense_conjugated(), ["--tol", "1e-12"], {1}, "fail"),
            # Images that overflow at sampled elements, which were refused.
            (gl1_power(1000.0), ["--samples", "3000"], {0}, "pass"),
        ],
        ids=["gl3_dense_conjugated", "symmetric_power(20)", "symmetric_power(40)",
             "so4_dense_conjugated-tol", "gl1_power(1000)"],
    )
    def test_rows_are_the_load_certificate_on_every_seed(
        self, capsys, tmp_path, document, flags, codes, verdict
    ):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(document))
        residual, witness = catalog._CERTIFICATES[load_representation(document)]
        for seed in range(12):
            argv = ["check", "--rep", str(path), "--suite", "all", "--seed", str(seed), *flags]
            code, report, err = run_json(capsys, *argv)
            assert code in codes and err == "", seed
            rows = {row["name"]: row for row in report["checks"]}
            for name in CERTIFIED:
                assert rows[name]["verdict"] == verdict, (seed, name)
                assert rows[name]["max_residual"] == residual, (seed, name)
                assert rows[name].get("witness") == (witness if verdict == "fail" else None)
        if verdict == "fail":
            assert report["config"]["tol"] == 1e-12
            assert witness["generator_index"] == 2
            assert witness["loop_residual"] == pytest.approx(2.07e-10, rel=1e-2)

    def test_no_suite_takes_a_logarithm_on_a_loadable_descriptor(
        self, capsys, monkeypatch, tmp_path
    ):
        def refuse(slices):
            raise AssertionError("check took a logarithm")

        monkeypatch.setattr(groups, "_logm", refuse)
        path = tmp_path / "rep.json"
        for name, make in LOADABLE.items():
            path.write_text(json.dumps(make()))
            for suite in [*cli._SUITE_NAMES, "all"]:
                rep_algebra._tangent_sample.cache_clear()
                code, _, err = run_cli(capsys, "check", "--rep", str(path), "--suite", suite)
                assert code in (0, 1) and err == "", (name, suite)
