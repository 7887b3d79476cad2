import csv
import hashlib
import inspect
import io
import json
import math
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from descriptors import gl1_power, gl2_perturbed, gl3_units, so3_repeated_image

from lieprolong import (
    GroupElement,
    __version__,
    check_action_oracle,
    check_direct_sum_commutation,
    check_equivalence_transfer,
    check_homomorphism,
    check_invariance_transfer,
    faithfulness_probe,
    general_linear,
    is_invariant_subspace,
    load_representation,
    sample_tangent_elements,
)
from lieprolong import cli, rep_algebra
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


# The library function behind each suite and the default tolerance it
# applies when --tol is not given.  The suites' vertical and direct-sum rows
# hold by construction and call nothing; the public checks that test the
# same claims on any subspace or pair keep the contract.
SUITE_CHECKS = [
    ("homomorphism", check_homomorphism, 1e-9),
    ("oracle", check_action_oracle, 1e-5),
    ("equivalence", check_equivalence_transfer, 1e-9),
    ("invariance", check_invariance_transfer, 1e-9),
    ("invariance", is_invariant_subspace, 1e-9),
    ("directsum", check_direct_sum_commutation, 1e-12),
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

    def test_gl3_descriptor_check_ignores_the_global_random_state(self, capsys, tmp_path):
        # Each process starts from its own OS-seeded numpy global state, which
        # SciPy's logm draws from; reseeding it in-process stands in for
        # fresh processes.  Here a last-bit change in one logarithm moves the
        # direct-sum residual off exact zero.
        path = tmp_path / "gl3_units.json"
        path.write_text(json.dumps(gl3_units()))
        argv = ["check", "--rep", str(path), "--suite", "directsum", "--samples", "30"]
        outputs = set()
        for global_seed in range(5):
            np.random.seed(global_seed)
            # A fresh process starts with an empty sample memo, so every run
            # takes its own logarithms.
            rep_algebra._tangent_sample.cache_clear()
            code, out, _ = run_cli(capsys, *argv, "--seed", "0")
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_gl3_descriptor_images_ignore_the_global_random_state(self):
        # Unlike the check above, this fails when logm is left to draw from
        # the global state: some of these 100 slices change in the last bit.
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


def strict_json(text: str):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


NON_FINITE = "apply returned non-finite entries"


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

    @pytest.mark.parametrize(
        "document",
        [
            gl1_power(1000.0),
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
            "overflowing_images",
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

    @pytest.mark.parametrize(("image", "samples"), [(380.0, "3000"), (500.0, "200")])
    def test_images_overflowing_during_a_check_exit_2(self, capsys, tmp_path, image, samples):
        # Both load; the images of some draws, or of some products of
        # two draws, overflow.
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(gl1_power(image)))
        code, out, err = run_cli(
            capsys, "check", "--rep", str(path), "--suite", "homomorphism", "--samples", samples
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        ("suite", "failure"),
        [
            ("homomorphism", "homomorphism check, seed 5, sample index 0: " + NON_FINITE),
            ("oracle", "action_oracle check, seed 5, sample index 1: " + NON_FINITE),
            ("equivalence", "equivalence_transfer check, seed [5, 1], sample index 1: " + NON_FINITE),
            ("all", "homomorphism check, seed 5, sample index 0: " + NON_FINITE),
        ],
    )
    def test_overflowing_images_name_the_check_seed_and_sample(
        self, capsys, tmp_path, suite, failure
    ):
        # The images load; every sampled suite reaches elements where they
        # overflow or underflow and reports the first sample that fails on
        # its own, with its own message, so the failure can be replayed.
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(gl1_power(1000.0)))
        code, out, err = run_cli(
            capsys, "check", "--rep", str(path), "--suite", suite, "--seed", "5"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: cannot evaluate the representation: {failure}\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_intertwined_image_exits_2(self, capsys, tmp_path):
        # Every image at sample 44 is finite, K R = 1.66e308 among them, but
        # the lift diag(A, A), A = 1.55, times it is not: the product is
        # refused like an image.
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(gl1_power(710.0)))
        code, out, err = run_cli(
            capsys, "check", "--rep", str(path), "--suite", "equivalence",
            "--samples", "200", "--seed", "317",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: cannot evaluate the representation: equivalence_transfer check, "
            "seed [317, 1], sample index 44: intertwined image A rho1(x) has non-finite entries\n"
        )

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
