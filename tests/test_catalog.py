import json
import math
import subprocess
import sys

import numpy as np
import pytest
from descriptors import (
    gl1_power,
    gl2_perturbed,
    gl3_dense_conjugated,
    so3_doubled,
    so3_repeated_image,
    so4_dense_conjugated,
)
from elements import circle_element

from lieprolong import (
    AlgebraElement,
    DescriptorError,
    GroupElement,
    NonFiniteImageError,
    SubspaceBasis,
    TangentGroupElement,
    Verdict,
    catalog_entry,
    catalog_list,
    catalog_names,
    check_homomorphism,
    differential_rep,
    faithfulness_probe,
    is_invariant_subspace,
    load_representation,
    prolong,
    read_descriptor,
    rep_image,
    sample_tangent_element,
)
import lieprolong
from lieprolong import _spec, catalog, groups, prolongation, rep_algebra
from lieprolong.cli import main


def _scaled(document: dict, scale: float) -> dict:
    images = np.array(document["map"]["generator_images"]) * scale
    document["map"]["generator_images"] = images.tolist()
    return document


def _circle_image(image: list) -> dict:
    return {
        "group": {"kind": "Circle", "dim": 2},
        "target_dim": 2,
        "map": {"kind": "generators", "generator_images": [image]},
    }


EXPECTED_NAMES = {
    "circle_rotation",
    "circle_winding_2",
    "gl_identity(1)",
    "gl_identity(2)",
    "gl_identity(3)",
    "sl2_standard",
    "so3_standard",
    "trivial(1)",
    "trivial(2)",
    "circle_double",
    "circle_plus_trivial",
}

THETA_GRID = [0.0, 0.5, -1.2, math.pi, 2.5, -3.0]

SELF_CHECK_SEED = 9001


def rotation(theta: float) -> np.ndarray:
    return np.array(
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
    )


class TestEntries:
    def test_expected_names(self):
        names = catalog_names()
        assert len(names) == len(set(names))
        assert set(names) == EXPECTED_NAMES
        assert len(names) >= 8

    def test_lookup_returns_cached_objects(self):
        first = catalog_entry("so3_standard")
        second = catalog_entry("so3_standard")
        assert first is second

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            catalog_entry("nonexistent")

    def test_rotation_formula(self):
        rep = catalog_entry("circle_rotation").rep
        for theta in THETA_GRID:
            image = rep_image(rep, circle_element(theta))
            assert np.max(np.abs(image - rotation(theta))) < 1e-14

    def test_winding_doubles_the_angle(self):
        rep = catalog_entry("circle_winding_2").rep
        for theta in THETA_GRID:
            image = rep_image(rep, circle_element(theta))
            assert np.max(np.abs(image - rotation(2.0 * theta))) < 1e-14

    def test_winding_kernel_is_the_half_turn(self):
        entry = catalog_entry("circle_winding_2")
        assert not entry.known_faithful
        witness = faithfulness_probe(entry.rep).witness
        assert witness["coordinates"] == [math.pi]
        half_turn = circle_element(math.pi)
        np.testing.assert_allclose(witness["element"], half_turn.matrix, atol=1e-15)
        np.testing.assert_allclose(rep_image(entry.rep, half_turn), np.eye(2), atol=1e-12)

    def test_trivial_metadata(self):
        entry = catalog_entry("trivial(2)")
        assert not entry.known_faithful
        image = rep_image(entry.rep, sample_tangent_element(entry.rep.group, 3).base)
        np.testing.assert_array_equal(image, np.eye(2))
        assert len(entry.known_invariant_subspaces) == 1

    def test_every_entry_is_a_homomorphism(self):
        for entry in catalog_list():
            report = check_homomorphism(entry.rep, 100, seed=30)
            assert report.passed, (entry.name, report)

    def test_every_declared_subspace_is_invariant(self):
        for entry in catalog_list():
            for U in entry.known_invariant_subspaces:
                report = is_invariant_subspace(entry.rep, U, 60, seed=31)
                assert report.passed, (entry.name, report)

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_entry_metadata_holds(self, name):
        # The catalog's self-check: seed 9001, 120/60 samples, and the exact
        # faithfulness certificate against the declared known_faithful.
        entry = catalog_entry(name)
        hom = check_homomorphism(entry.rep, 120, SELF_CHECK_SEED, 1e-9)
        assert hom.passed, hom
        for subspace in entry.known_invariant_subspaces:
            inv = is_invariant_subspace(entry.rep, subspace, 60, SELF_CHECK_SEED, 1e-9)
            assert inv.passed, inv
        probe = faithfulness_probe(entry.rep)
        assert probe.passed == entry.known_faithful, probe
        if not entry.known_faithful:
            assert probe.verdict is Verdict.FAIL, probe
            assert probe.witness["kind"] == "kernel_collision", probe

    def test_direct_sum_entries_have_block_subspaces(self):
        entry = catalog_entry("circle_double")
        spans = [U.vectors for U in entry.known_invariant_subspaces]
        np.testing.assert_array_equal(spans[0], np.eye(4)[[0, 1]])
        np.testing.assert_array_equal(spans[1], np.eye(4)[[2, 3]])

    def test_entries_carry_notes(self):
        for entry in catalog_list():
            assert entry.notes


class TestRows:
    """The catalog's metadata is one table of rows, numpy-free, which the
    built entries and the ``catalog`` command both read."""

    @pytest.mark.parametrize("position", range(11))
    def test_each_entry_is_built_from_its_row(self, position):
        row = list(_spec.CATALOG_ROWS.values())[position]
        entry = catalog_list()[position]
        assert entry.name == row.name == catalog_names()[position]
        assert (entry.rep.group, entry.rep.target_dim) == (row.group, row.target_dim)
        assert (entry.notes, entry.known_faithful) == (row.notes, row.known_faithful)
        assert len(entry.known_invariant_subspaces) == len(row.invariant_spans)
        for subspace, span in zip(entry.known_invariant_subspaces, row.invariant_spans):
            assert subspace.ambient_dim == row.target_dim
            np.testing.assert_array_equal(subspace.vectors, np.eye(row.target_dim)[list(span)])

    def test_importing_the_package_loads_no_numpy(self):
        script = (
            "import json, sys\n"
            "import lieprolong\n"
            "print(json.dumps('numpy' in sys.modules))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) is False

    def test_each_public_name_is_its_modules_own_object(self):
        owners = [catalog, groups, prolongation, rep_algebra]
        assert lieprolong.__all__ == [name for m in owners for name in m.__all__]
        for module in owners:
            assert getattr(lieprolong, module.__name__.rpartition(".")[2]) is module
            for name in module.__all__:
                assert getattr(lieprolong, name) is getattr(module, name), name


def winding_generator_descriptor(scale: float = 2.0) -> dict:
    return {
        "name": "winding_from_generators",
        "group": {"kind": "Circle", "dim": 2},
        "target_dim": 2,
        "map": {
            "kind": "generators",
            "generator_images": [[[0.0, scale], [-scale, 0.0]]],
        },
    }


class TestGeneratorDescriptors:
    def test_winding_generators_reproduce_the_builtin(self):
        rep = load_representation(winding_generator_descriptor())
        builtin = catalog_entry("circle_winding_2").rep
        for theta in THETA_GRID:
            a = circle_element(theta)
            gap = np.max(np.abs(rep_image(rep, a) - rep_image(builtin, a)))
            assert gap < 1e-12, (theta, gap)

    def test_generator_differential_is_linear_in_coordinates(self):
        rep = load_representation(winding_generator_descriptor())
        B = sample_tangent_element(rep.group, 5).algebra
        theta = B.matrix[0, 1]
        np.testing.assert_allclose(
            differential_rep(rep, B), [[0.0, 2.0 * theta], [-2.0 * theta, 0.0]], atol=1e-12
        )

    def test_identity_generators_reproduce_so3(self):
        document = {
            "group": {"kind": "SpecialOrthogonal", "dim": 3},
            "target_dim": 3,
            "map": {
                "kind": "generators",
                "generator_images": [
                    [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
                    [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
                    [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
                ],
            },
        }
        rep = load_representation(document)
        builtin = catalog_entry("so3_standard").rep
        for i in range(5):
            a = sample_tangent_element(rep.group, (33, i)).base
            gap = np.max(np.abs(rep_image(rep, a) - rep_image(builtin, a)))
            assert gap < 1e-9

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_generator_path_calls_no_deprecated_library_argument(self):
        document = {
            "group": {"kind": "SpecialOrthogonal", "dim": 3},
            "target_dim": 3,
            "map": {
                "kind": "generators",
                "generator_images": [
                    [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
                    [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
                    [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
                ],
            },
        }
        rep = load_representation(document)
        assert check_homomorphism(rep, 20, seed=3).passed
        assert rep_image(rep, sample_tangent_element(rep.group, 4).base).shape == (3, 3)

    def test_open_loop_is_rejected_with_witness(self):
        with pytest.raises(DescriptorError) as info:
            load_representation(winding_generator_descriptor(scale=2.01))
        witness = info.value.witness
        assert witness is not None
        assert witness["generator_index"] == 0
        assert witness["loop_residual"] > 1e-3

    def test_perturbed_so3_generator_rejected(self):
        document = {
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
        }
        with pytest.raises(DescriptorError):
            load_representation(document)

    def test_wrong_generator_count_rejected(self):
        document = winding_generator_descriptor()
        document["map"]["generator_images"].append([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(DescriptorError):
            load_representation(document)

    def test_wrong_shape_rejected(self):
        document = winding_generator_descriptor()
        document["map"]["generator_images"] = [[[0.0, 2.0]]]
        with pytest.raises(DescriptorError):
            load_representation(document)

    def test_non_finite_rejected(self):
        document = winding_generator_descriptor()
        document["map"]["generator_images"] = [[[0.0, None], [-2.0, 0.0]]]
        with pytest.raises(DescriptorError):
            load_representation(document)

    @pytest.mark.parametrize(
        "bad",
        [
            [[0, "x"], [0, 0]],
            [[0, [1]], [0, 0]],
            [[0, True], [-1, 0]],
            [["0", "2"], [-2, "0"]],
            [[0, 10**400], [-1, 0]],
        ],
    )
    def test_non_numeric_matrices_rejected_by_label(self, bad):
        document = winding_generator_descriptor()
        document["map"]["generator_images"] = [bad]
        with pytest.raises(DescriptorError, match=r"generator_images\[0\] is not a matrix"):
            load_representation(document)

    def test_overflowing_images_load_and_fail_where_evaluated(self, capsys, tmp_path):
        document = gl1_power(1000.0)
        rep = load_representation(document)
        # The certificate reads only d rho, which is finite and injective.
        assert faithfulness_probe(rep).passed
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(document))
        # check reads the homomorphism rows off the load certificate and
        # evaluates no image; prolong and the sampled checks evaluate them.
        assert main(["check", "--rep", str(path), "--suite", "homomorphism"]) == 0
        assert main(["prolong", "--rep", str(path), "--a-coords", "5", "--fiber", "0"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: cannot evaluate the prolongation there: apply returned non-finite entries\n"
        )
        with pytest.raises(NonFiniteImageError, match="seed 3, sample index"):
            check_homomorphism(rep, 50, seed=3)

    @pytest.mark.parametrize(
        ("base", "fiber"), [(-0.8, 1.0), (0.7, 1e5)], ids=["singular_R", "overflowing_KR"]
    )
    def test_prolonged_image_out_of_float_range_names_its_slice(self, base, fiber):
        # exp(-800) underflows to 0, so R is singular; exp(700) is finite,
        # but K R = 1e8 exp(700) is not.
        rep = load_representation(gl1_power(1000.0))
        spec = rep.group
        X = TangentGroupElement(
            GroupElement(np.exp([[[0.1]], [[base]], [[0.2]]]), spec),
            AlgebraElement(np.array([[[1.0]], [[fiber]], [[1.0]]]), spec),
        )
        with pytest.raises(NonFiniteImageError, match="prolonged image") as info:
            prolong(rep, X)
        assert info.value.position == 1

    @pytest.mark.parametrize(
        ("document", "defect"), [(so3_repeated_image, 0.4), (gl2_perturbed, 1e-10)]
    )
    def test_broken_bracket_rejected_with_generator_pair(self, document, defect):
        with pytest.raises(DescriptorError, match="bracket") as info:
            load_representation(document())
        witness = info.value.witness
        i, j = witness["generator_pair"]
        assert 0 <= i < j < len(document()["map"]["generator_images"])
        assert witness["bracket_defect"] > defect

    def test_brackets_of_large_float_images_round_within_tolerance(self):
        # The products of images with entries near 7e2 round by about 1e-11
        # in absolute terms; scaled by the images' norms they stay near eps.
        rep = load_representation(gl3_dense_conjugated())
        assert rep.target_dim == 3

    def test_dense_conjugated_so4_closes_its_loops_within_tolerance(self):
        # exp(2 pi D) of images near 4e2 rounds by about 1e-6 in absolute
        # terms; scaled by |2 pi D|_F it stays near 4e-10.
        rep = load_representation(so4_dense_conjugated())
        assert rep.target_dim == 4

    @pytest.mark.parametrize("scale", [1.0 + 1e-6, 1.01])
    def test_scaled_so4_images_rejected_by_the_loop_test(self, scale):
        with pytest.raises(DescriptorError, match="loop") as info:
            load_representation(_scaled(so4_dense_conjugated(), scale))
        assert info.value.witness["loop_residual"] > 1e-7

    @pytest.mark.parametrize(
        "document",
        [
            _scaled(so3_doubled(), 1e200),
            _circle_image([[0.0, 1e8 + 0.5], [-1e8 - 0.5, 0.0]]),
        ],
        ids=["entries_near_1e200", "half_winding"],
    )
    def test_images_too_large_to_verify_rejected(self, document):
        # Both tests scale their gaps by the norms.  Past the bound a half
        # winding, exp(2 pi D) = -I, 2 away from I, would pass; entries near
        # 1e200 overflow the norms and the products D_i D_j.
        with pytest.raises(DescriptorError, match="too large to verify") as info:
            load_representation(document)
        assert info.value.witness["generator_index"] == 0

    def test_loop_whose_exponential_is_nan_rejected(self):
        # scipy's expm squares exp(2 pi D) of this image into inf - inf.
        with pytest.raises(DescriptorError, match="loop") as info:
            load_representation(_circle_image([[255.0, -76.0], [48.0, 13.0]]))
        assert math.isnan(info.value.witness["loop_residual"])

    def test_load_takes_no_logarithm_and_draws_no_sample(self, monkeypatch):
        rep_algebra._tangent_sample.cache_clear()
        logm = groups._logm
        calls = []

        def counted(slices):
            calls.extend(slices)
            return logm(slices)

        monkeypatch.setattr(groups, "_logm", counted)
        misses = rep_algebra._tangent_sample.cache_info().misses
        load_representation(so3_doubled())
        load_representation(gl3_dense_conjugated())
        assert calls == []
        assert rep_algebra._tangent_sample.cache_info().misses == misses


class TestDescriptorValidation:
    def test_requires_mapping(self):
        with pytest.raises(DescriptorError):
            load_representation([1, 2, 3])

    def test_requires_known_group_kind(self):
        document = winding_generator_descriptor()
        document["group"]["kind"] = "Product"
        with pytest.raises(DescriptorError):
            load_representation(document)

    def test_requires_positive_target_dim(self):
        document = winding_generator_descriptor()
        document["target_dim"] = 0
        with pytest.raises(DescriptorError):
            load_representation(document)
        document["target_dim"] = "two"
        with pytest.raises(DescriptorError):
            load_representation(document)
        document["target_dim"] = True
        with pytest.raises(DescriptorError, match="target_dim"):
            load_representation(document)

    def test_requires_group_object(self):
        document = winding_generator_descriptor()
        document["group"] = "Circle"
        with pytest.raises(DescriptorError, match="descriptor needs a 'group' object with kind"):
            load_representation(document)

    def test_rejects_boolean_group_dim(self):
        document = winding_generator_descriptor()
        document["group"] = {"kind": "GeneralLinear", "dim": True}
        with pytest.raises(DescriptorError, match="dim"):
            load_representation(document)

    def test_requires_map_object(self):
        document = winding_generator_descriptor()
        del document["map"]
        with pytest.raises(DescriptorError):
            load_representation(document)

    def test_rejects_unknown_map_kind(self):
        document = winding_generator_descriptor()
        document["map"] = {"kind": "magic"}
        with pytest.raises(DescriptorError):
            load_representation(document)

    def test_rejects_named_map_pointing_to_rep(self):
        document = winding_generator_descriptor()
        document["map"] = {"kind": "named", "name": "circle_rotation"}
        with pytest.raises(DescriptorError, match="--rep <name>"):
            load_representation(document)

    def test_rejects_differential_key(self):
        document = winding_generator_descriptor()
        document["differential"] = [[[0.0, 2.0], [-2.0, 0.0]]]
        with pytest.raises(DescriptorError, match="unknown descriptor key 'differential'"):
            load_representation(document)


class TestReadDescriptor:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "rep.json"
        document = winding_generator_descriptor()
        path.write_text(json.dumps(document))
        loaded = read_descriptor(path)
        assert loaded == document
        rep = load_representation(loaded)
        assert rep.target_dim == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(DescriptorError):
            read_descriptor(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DescriptorError):
            read_descriptor(path)

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(DescriptorError):
            read_descriptor(path)
