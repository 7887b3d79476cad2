import json
import math

import numpy as np
import pytest

from lieprolong import (
    DescriptorError,
    SubspaceBasis,
    Verdict,
    catalog_entry,
    catalog_list,
    catalog_names,
    check_homomorphism,
    circle_element,
    differential_rep,
    faithfulness_probe,
    is_invariant_subspace,
    load_representation,
    read_descriptor,
    rep_image,
    sample_algebra_element,
    sample_group_element,
)

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

    def test_winding_kernel_witness_is_the_half_turn(self):
        entry = catalog_entry("circle_winding_2")
        assert not entry.known_faithful
        assert entry.kernel_witness is not None
        np.testing.assert_allclose(entry.kernel_witness.matrix, -np.eye(2), atol=1e-12)
        image = rep_image(entry.rep, entry.kernel_witness)
        np.testing.assert_allclose(image, np.eye(2), atol=1e-12)

    def test_trivial_metadata(self):
        entry = catalog_entry("trivial(2)")
        assert not entry.known_faithful
        assert entry.kernel_witness is not None
        image = rep_image(entry.rep, sample_group_element(entry.rep.group, 3))
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
        # The catalog's self-check: seed 9001, 120/60/8/120 samples.
        entry = catalog_entry(name)
        hom = check_homomorphism(entry.rep, 120, SELF_CHECK_SEED, 1e-9)
        assert hom.passed, hom
        for subspace in entry.known_invariant_subspaces:
            inv = is_invariant_subspace(entry.rep, subspace, 60, SELF_CHECK_SEED, 1e-9)
            assert inv.passed, inv
        if entry.kernel_witness is not None:
            probe = faithfulness_probe(
                entry.rep, 8, SELF_CHECK_SEED, kernel_witness=entry.kernel_witness
            )
            assert probe.verdict is Verdict.FAIL, probe
        elif entry.known_faithful:
            probe = faithfulness_probe(entry.rep, 120, SELF_CHECK_SEED)
            assert probe.passed, probe

    def test_direct_sum_entries_have_block_subspaces(self):
        entry = catalog_entry("circle_double")
        spans = [U.vectors for U in entry.known_invariant_subspaces]
        np.testing.assert_array_equal(spans[0], np.eye(4)[[0, 1]])
        np.testing.assert_array_equal(spans[1], np.eye(4)[[2, 3]])

    def test_entries_carry_notes(self):
        for entry in catalog_list():
            assert entry.notes


def named_descriptor(name: str, kind: str, dim: int, target_dim: int) -> dict:
    return {
        "group": {"kind": kind, "dim": dim},
        "target_dim": target_dim,
        "map": {"kind": "named", "name": name},
    }


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


class TestNamedDescriptors:
    def test_named_load_returns_catalog_representation(self):
        rep = load_representation(named_descriptor("circle_rotation", "Circle", 2, 2))
        assert rep is catalog_entry("circle_rotation").rep

    def test_named_group_mismatch_rejected(self):
        with pytest.raises(DescriptorError):
            load_representation(named_descriptor("circle_rotation", "GeneralLinear", 2, 2))

    def test_named_target_dim_mismatch_rejected(self):
        with pytest.raises(DescriptorError):
            load_representation(named_descriptor("circle_rotation", "Circle", 2, 3))

    def test_unknown_name_rejected(self):
        with pytest.raises(DescriptorError):
            load_representation(named_descriptor("missing", "Circle", 2, 2))


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
        B = sample_algebra_element(rep.group, 5)
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
            a = sample_group_element(rep.group, (33, i))
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
        assert rep_image(rep, sample_group_element(rep.group, 4)).shape == (3, 3)

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

    def test_overflowing_images_rejected_with_witness(self):
        document = {
            "group": {"kind": "GeneralLinear", "dim": 1},
            "target_dim": 1,
            "map": {"kind": "generators", "generator_images": [[[1000.0]]]},
        }
        with pytest.raises(DescriptorError, match="non-finite") as info:
            load_representation(document)
        assert info.value.witness["check"] == "homomorphism"
        assert info.value.witness["seed"] == 7


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


class TestDifferentialOverride:
    def test_consistent_override_accepted(self):
        document = named_descriptor("circle_winding_2", "Circle", 2, 2)
        document["differential"] = [[[0.0, 2.0], [-2.0, 0.0]]]
        rep = load_representation(document)
        B = sample_algebra_element(rep.group, 6)
        theta = B.matrix[0, 1]
        np.testing.assert_allclose(
            differential_rep(rep, B), [[0.0, 2.0 * theta], [-2.0 * theta, 0.0]], atol=1e-12
        )

    def test_inconsistent_override_rejected(self):
        document = named_descriptor("circle_winding_2", "Circle", 2, 2)
        document["differential"] = [[[0.0, 6.0], [-6.0, 0.0]]]
        with pytest.raises(DescriptorError) as info:
            load_representation(document)
        assert info.value.witness is not None
        assert info.value.witness["gap"] > 1e-2


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
