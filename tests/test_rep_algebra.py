import tracemalloc

import numpy as np
import pytest
import scipy.spatial.distance

from lieprolong import (
    CheckReport,
    Intertwiner,
    Representation,
    SpecMismatchError,
    SubspaceBasis,
    Verdict,
    catalog_entry,
    certify_irreducible_lines_2d,
    check_action_oracle,
    check_direct_sum_commutation,
    check_equivalence_transfer,
    check_homomorphism,
    check_invariance_transfer,
    circle,
    circle_element,
    commutant_basis,
    conjugate_representation,
    direct_sum,
    faithfulness_probe,
    general_linear,
    interleave_permutation,
    is_intertwiner,
    is_invariant_subspace,
    prolong,
    prolong_intertwiner,
    prolong_subspace,
    prolonged,
    random_conjugator,
    reducibility_probe,
    relative_residual,
    rep_image,
    sample_group_element,
    sample_tangent_element,
    sample_tangent_elements,
    tg_multiply,
    vertical_subspace,
)


def rep_of(name: str) -> Representation:
    return catalog_entry(name).rep


def skewed_identity(spec) -> Representation:
    """Identity map distorted away from multiplicativity at order 1e-3."""

    def apply(a):
        return a.matrix + 1e-3 * (a.matrix - np.eye(spec.dim))

    return Representation(spec, spec.dim, apply, lambda B: 1.001 * B.matrix, "skewed")


class TestCheckReport:
    def test_failure_requires_witness(self):
        with pytest.raises(ValueError):
            CheckReport("x", Verdict.FAIL, 1.0)

    def test_passed_property(self):
        assert CheckReport("x", Verdict.PASS, 0.0).passed
        assert not CheckReport("x", Verdict.INCONCLUSIVE, 0.0).passed


class TestHomomorphism:
    def test_catalog_representations_pass(self):
        for name in ["circle_rotation", "gl_identity(2)", "so3_standard"]:
            report = check_homomorphism(rep_of(name), 100, seed=1)
            assert report.passed, report
            assert report.max_residual < 1e-9

    def test_prolonged_representations_pass(self):
        report = check_homomorphism(prolonged(rep_of("sl2_standard")), 100, seed=1)
        assert report.passed
        assert report.max_residual < 1e-9

    def test_constant_representation_has_zero_residual(self):
        report = check_homomorphism(rep_of("trivial(2)"), 50, seed=1)
        assert report.max_residual == 0.0

    def test_distorted_map_fails_with_witness(self):
        report = check_homomorphism(skewed_identity(general_linear(2)), 50, seed=1)
        assert report.verdict is Verdict.FAIL
        assert report.max_residual > 1e-5
        assert report.witness is not None
        assert "sample_index" in report.witness

    def test_deterministic_in_seed(self):
        first = check_homomorphism(rep_of("so3_standard"), 60, seed=11)
        second = check_homomorphism(rep_of("so3_standard"), 60, seed=11)
        assert first.max_residual == second.max_residual

    def test_rejects_empty_sampling(self):
        with pytest.raises(ValueError):
            check_homomorphism(rep_of("circle_rotation"), 0)


class TestActionOracleCheck:
    def test_catalog_representations_pass(self):
        for name in ["circle_rotation", "gl_identity(1)", "so3_standard"]:
            report = check_action_oracle(rep_of(name), 40, seed=2)
            assert report.passed, report
            assert report.max_residual < 1e-5


class TestIntertwiners:
    def test_identity_intertwines_rep_with_itself(self):
        rep = rep_of("so3_standard")
        report = is_intertwiner(np.eye(3), rep, rep, 50, seed=3)
        assert report.passed
        assert report.max_residual == 0.0

    def test_conjugation_produces_an_intertwiner(self):
        rep = rep_of("sl2_standard")
        A = random_conjugator(2, seed=4)
        other = conjugate_representation(rep, A)
        report = is_intertwiner(A, rep, other, 100, seed=4)
        assert report.passed

    def test_wrong_matrix_fails(self):
        rep = rep_of("circle_rotation")
        report = is_intertwiner([[1.0, 2.0], [0.0, 1.0]], rep, rep, 50, seed=5)
        assert report.verdict is Verdict.FAIL
        assert report.witness is not None

    def test_levels_cannot_be_mixed(self):
        rep = rep_of("circle_rotation")
        with pytest.raises(SpecMismatchError):
            is_intertwiner(np.eye(2), rep, prolonged(rep))

    def test_groups_must_match(self):
        with pytest.raises(SpecMismatchError):
            is_intertwiner(np.eye(2), rep_of("circle_rotation"), rep_of("gl_identity(2)"))

    def test_shape_is_checked(self):
        rep = rep_of("circle_rotation")
        with pytest.raises(ValueError):
            is_intertwiner(np.eye(3), rep, rep)

    def test_lift_is_block_diagonal(self):
        lifted = prolong_intertwiner([[2.0]])
        np.testing.assert_array_equal(lifted.matrix, [[2.0, 0.0], [0.0, 2.0]])

    def test_full_rank_detection(self):
        assert Intertwiner(np.eye(2)).full_rank
        assert not Intertwiner(np.zeros((2, 2))).full_rank
        assert not Intertwiner([[1.0, 1.0], [1.0, 1.0]]).full_rank

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Intertwiner([[np.inf]])


class TestEquivalenceTransfer:
    @pytest.mark.parametrize("name", ["circle_rotation", "sl2_standard"])
    def test_passes_on_catalog_representations(self, name):
        report = check_equivalence_transfer(rep_of(name), conjugations=5, samples=60, seed=6)
        assert report.passed, report
        assert report.max_residual < 1e-9

    def test_deterministic(self):
        a = check_equivalence_transfer(rep_of("circle_rotation"), 3, 40, seed=7)
        b = check_equivalence_transfer(rep_of("circle_rotation"), 3, 40, seed=7)
        assert a.max_residual == b.max_residual

    def test_conjugators_are_invertible(self):
        for s in range(10):
            A = random_conjugator(3, seed=s)
            assert np.isfinite(np.linalg.cond(A))
            assert np.linalg.cond(A) < 1e6


class TestSubspaces:
    def test_basis_validation(self):
        with pytest.raises(ValueError):
            SubspaceBasis(2, [[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            SubspaceBasis(2, np.ones((3, 2)))
        with pytest.raises(ValueError):
            SubspaceBasis(2, [[np.nan, 0.0]])

    def test_zero_dimensional_subspace_allowed(self):
        U = SubspaceBasis(3, np.zeros((0, 3)))
        assert U.dimension == 0

    def test_orthonormal_rows(self):
        U = SubspaceBasis(3, [[1.0, 1.0, 0.0], [0.0, 2.0, 0.0]])
        q = U.orthonormal()
        np.testing.assert_allclose(q @ q.T, np.eye(2), atol=1e-12)

    def test_zero_subspace_is_vacuously_invariant(self):
        U = SubspaceBasis(2, np.zeros((0, 2)))
        report = is_invariant_subspace(rep_of("circle_rotation"), U, 10, seed=8)
        assert report.passed
        assert report.max_residual == 0.0

    def test_full_space_is_invariant(self):
        U = SubspaceBasis(2, np.eye(2))
        assert is_invariant_subspace(rep_of("circle_rotation"), U, 50, seed=8).passed

    def test_line_is_not_invariant_under_rotations(self):
        U = SubspaceBasis(2, [[1.0, 0.0]])
        report = is_invariant_subspace(rep_of("circle_rotation"), U, 50, seed=8)
        assert report.verdict is Verdict.FAIL
        assert report.witness is not None

    def test_declared_catalog_subspaces_are_invariant(self):
        for entry_name in ["circle_double", "circle_plus_trivial", "trivial(1)"]:
            entry = catalog_entry(entry_name)
            for U in entry.known_invariant_subspaces:
                assert is_invariant_subspace(entry.rep, U, 60, seed=9).passed

    def test_ambient_dimension_is_checked(self):
        with pytest.raises(ValueError):
            is_invariant_subspace(rep_of("circle_rotation"), SubspaceBasis(3, np.eye(3)), 5)

    def test_lift_layout_frozen(self):
        U = SubspaceBasis(2, [[1.0, 2.0]])
        lifted = prolong_subspace(U)
        np.testing.assert_array_equal(
            lifted.vectors, [[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0]]
        )
        assert lifted.ambient_dim == 4

    def test_lift_doubles_dimension(self):
        U = SubspaceBasis(3, np.eye(3)[:2])
        assert prolong_subspace(U).dimension == 4

    def test_vertical_subspace_layout(self):
        V = vertical_subspace(2)
        np.testing.assert_array_equal(
            V.vectors, [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        )

    @pytest.mark.parametrize(
        "name", ["circle_rotation", "gl_identity(2)", "so3_standard", "circle_winding_2"]
    )
    def test_vertical_subspace_is_always_invariant(self, name):
        rep = rep_of(name)
        report = is_invariant_subspace(
            prolonged(rep), vertical_subspace(rep.target_dim), 60, seed=10
        )
        assert report.passed, report


class TestInvarianceTransfer:
    def test_declared_subspaces_transfer(self):
        entry = catalog_entry("circle_plus_trivial")
        for U in entry.known_invariant_subspaces:
            report = check_invariance_transfer(entry.rep, U, 60, seed=11)
            assert report.passed, report

    def test_non_invariant_subspace_fails_with_direction(self):
        U = SubspaceBasis(2, [[1.0, 0.0]])
        report = check_invariance_transfer(rep_of("circle_rotation"), U, 40, seed=12)
        assert report.verdict is Verdict.FAIL
        assert report.witness is not None
        assert report.witness["direction"] in {"base", "prolonged", "base_extraction"}
        assert set(report.witness["residuals"]) == {"base", "prolonged", "base_extraction"}

    def test_zero_subspace_transfers_vacuously(self):
        U = SubspaceBasis(2, np.zeros((0, 2)))
        assert check_invariance_transfer(rep_of("circle_rotation"), U, 10, seed=13).passed


def sympy_commutant_pair_nullspace(m1, m2):
    """Exact-arithmetic commutant of two integer matrices, as nullspace
    vectors in row-major unknown order."""
    import sympy

    unknowns = sympy.symbols("m0:4")
    M = sympy.Matrix(2, 2, unknowns)
    equations = []
    for mat in (m1, m2):
        A = sympy.Matrix(mat)
        equations.extend((M @ A - A @ M).vec())
    coefficient = sympy.Matrix(
        [[sympy.diff(eq, u) for u in unknowns] for eq in equations]
    )
    return coefficient.nullspace()


def sympy_rotation_commutant_dimension() -> int:
    """Exact commutant dimension of a generic plane rotation."""
    import sympy

    c, s = sympy.symbols("c s")
    rotation = sympy.Matrix([[c, s], [-s, c]])
    unknowns = sympy.symbols("m0:4")
    M = sympy.Matrix(2, 2, unknowns)
    equations = (M @ rotation - rotation @ M).vec()
    coefficient = sympy.Matrix(
        [[sympy.diff(eq, u) for u in unknowns] for eq in equations]
    )
    return 4 - coefficient.rank()


class TestCommutant:
    def test_generic_pair_oracle_gives_scalars_only(self):
        # Two fixed invertible integer matrices; exact rational arithmetic.
        import sympy

        nullspace = sympy_commutant_pair_nullspace([[1, 2], [3, 5]], [[2, 1], [1, 1]])
        assert len(nullspace) == 1
        assert nullspace[0] == sympy.Matrix([1, 0, 0, 1])
        assert len(commutant_basis(rep_of("gl_identity(2)"), 8, seed=14)) == 1

    def test_rotation_oracle_gives_dimension_two(self):
        assert sympy_rotation_commutant_dimension() == 2
        assert len(commutant_basis(rep_of("circle_rotation"), 8, seed=14)) == 2

    def test_known_dimensions(self):
        assert len(commutant_basis(rep_of("so3_standard"), 8, seed=15)) == 1
        assert len(commutant_basis(rep_of("sl2_standard"), 8, seed=15)) == 1
        assert len(commutant_basis(rep_of("trivial(2)"), 8, seed=15)) == 4
        assert len(commutant_basis(rep_of("circle_plus_trivial"), 8, seed=15)) == 3
        assert len(commutant_basis(rep_of("circle_double"), 8, seed=15)) == 8

    def test_scalar_commutant_is_spanned_by_identity(self):
        (basis,) = commutant_basis(rep_of("gl_identity(2)"), 8, seed=16)
        normalized = basis / basis[0, 0]
        np.testing.assert_allclose(normalized, np.eye(2), atol=1e-9)

    def test_elements_commute_with_fresh_images(self):
        rep = rep_of("circle_double")
        for M in commutant_basis(rep, 8, seed=17):
            for i in range(10):
                image = rep_image(rep, sample_group_element(rep.group, (1000, i)))
                assert np.max(np.abs(M @ image - image @ M)) < 1e-8

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            commutant_basis(rep_of("circle_rotation"), 1)


class TestReducibilityProbe:
    def test_irreducible_classification(self):
        for name in ["gl_identity(2)", "so3_standard", "sl2_standard"]:
            report = reducibility_probe(rep_of(name), seed=18)
            assert report.passed
            assert report.witness["classification"] == "irreducible"

    def test_reducible_classification_with_verified_subspace(self):
        report = reducibility_probe(rep_of("circle_double"), seed=18)
        assert report.passed
        assert report.witness["classification"] == "reducible"
        vectors = np.array(report.witness["invariant_subspace"])
        U = SubspaceBasis(4, vectors)
        assert is_invariant_subspace(rep_of("circle_double"), U, 60, seed=19).passed

    def test_trivial_representation_is_reducible(self):
        report = reducibility_probe(rep_of("trivial(2)"), seed=18)
        assert report.passed
        assert report.witness["classification"] == "reducible"

    def test_rotation_commutant_alone_is_inconclusive(self):
        # The commutant is two-dimensional but symmetrizing any element of
        # it yields a scalar matrix, so no eigenspace splits off.
        report = reducibility_probe(rep_of("circle_rotation"), seed=18)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.witness["classification"] == "inconclusive"
        assert report.witness["commutant_dimension"] == 2


class TestLineSweep:
    def test_rotation_representation_is_irreducible(self):
        report = certify_irreducible_lines_2d(rep_of("circle_rotation"), seed=20)
        assert report.passed
        assert report.witness["classification"] == "irreducible"

    def test_identity_representation_is_irreducible(self):
        report = certify_irreducible_lines_2d(rep_of("gl_identity(2)"), seed=20)
        assert report.passed
        assert report.witness["classification"] == "irreducible"

    def test_finds_invariant_line_of_reducible_representation(self):
        rep = direct_sum(rep_of("trivial(1)"), rep_of("trivial(1)"))
        report = certify_irreducible_lines_2d(rep, seed=20)
        assert report.passed
        assert report.witness["classification"] == "reducible"

    def test_only_two_dimensional(self):
        with pytest.raises(ValueError):
            certify_irreducible_lines_2d(rep_of("so3_standard"))


class TestDirectSum:
    def test_images_are_block_diagonal(self):
        summed = direct_sum(rep_of("circle_rotation"), rep_of("trivial(1)"))
        a = circle_element(0.7)
        image = rep_image(summed, a)
        np.testing.assert_allclose(image[:2, :2], a.matrix, atol=1e-15)
        assert image[2, 2] == 1.0
        np.testing.assert_array_equal(image[:2, 2], np.zeros(2))

    def test_group_mismatch_rejected(self):
        with pytest.raises(SpecMismatchError):
            direct_sum(rep_of("circle_rotation"), rep_of("gl_identity(2)"))

    def test_sum_is_a_homomorphism(self):
        summed = direct_sum(rep_of("circle_rotation"), rep_of("circle_winding_2"))
        assert check_homomorphism(summed, 80, seed=21).passed

    def test_interleave_frozen_small(self):
        np.testing.assert_array_equal(interleave_permutation(1, 1), [0, 2, 1, 3])

    def test_interleave_frozen_two_one(self):
        np.testing.assert_array_equal(interleave_permutation(2, 1), [0, 1, 3, 4, 2, 5])

    def test_interleave_is_a_permutation(self):
        for n1, n2 in [(1, 1), (2, 1), (2, 3), (3, 5)]:
            perm = interleave_permutation(n1, n2)
            assert sorted(perm.tolist()) == list(range(2 * (n1 + n2)))

    def test_index_shuffle_equals_conjugation(self):
        perm = interleave_permutation(2, 1)
        P = np.eye(6)[perm]
        rng = np.random.default_rng(22)
        M = rng.uniform(-1, 1, (6, 6))
        np.testing.assert_array_equal(M[np.ix_(perm, perm)], P @ M @ P.T)

    @pytest.mark.parametrize(
        "pair",
        [
            ("circle_rotation", "circle_winding_2"),
            ("circle_rotation", "trivial(1)"),
            ("gl_identity(2)", "gl_identity(2)"),
        ],
    )
    def test_commutation_with_prolongation(self, pair):
        report = check_direct_sum_commutation(
            rep_of(pair[0]), rep_of(pair[1]), samples=50, seed=23
        )
        assert report.passed, report
        assert report.max_residual < 1e-12

    def test_commutation_check_rejects_group_mismatch(self):
        with pytest.raises(SpecMismatchError):
            check_direct_sum_commutation(rep_of("circle_rotation"), rep_of("sl2_standard"))


class TestFaithfulnessProbe:
    def test_faithful_representation_passes(self):
        report = faithfulness_probe(rep_of("gl_identity(2)"), 200, seed=24)
        assert report.passed
        assert report.witness["min_image_separation"] > 1e-3

    def test_constant_representation_collides(self):
        report = faithfulness_probe(rep_of("trivial(2)"), 50, seed=24)
        assert report.verdict is Verdict.FAIL
        assert report.witness["kind"] == "random_collision"
        assert report.witness["input_gap"] > 1e-9

    def test_declared_kernel_element_collides(self):
        entry = catalog_entry("circle_winding_2")
        report = faithfulness_probe(
            entry.rep, 50, seed=24, kernel_witness=entry.kernel_witness
        )
        assert report.verdict is Verdict.FAIL
        assert report.witness["kind"] == "kernel_collision"
        assert "cannot be injective" in report.witness["note"]

    def test_bogus_kernel_witness_is_inconclusive(self):
        report = faithfulness_probe(
            rep_of("circle_rotation"), 50, seed=24, kernel_witness=circle_element(0.5)
        )
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.witness["kind"] == "kernel_witness_mismatch"

    def test_witness_spec_is_checked(self):
        with pytest.raises(SpecMismatchError):
            faithfulness_probe(
                rep_of("gl_identity(2)"),
                10,
                kernel_witness=circle_element(1.0),
            )


class TestSharedDriver:
    """The stacked checks against plain loops over single elements."""

    def test_homomorphism_matches_a_per_pair_loop(self):
        rep = prolonged(skewed_identity(general_linear(2)))
        seed, count = 31, 300
        residuals = []
        for i in range(count):
            x = sample_tangent_element(rep.group, (seed, 2 * i))
            y = sample_tangent_element(rep.group, (seed, 2 * i + 1))
            residuals.append(
                relative_residual(rep.apply(tg_multiply(x, y)), rep.apply(x) @ rep.apply(y))
            )
        report = check_homomorphism(rep, count, seed)
        assert report.verdict is Verdict.FAIL
        assert report.max_residual == max(residuals)
        assert report.witness["sample_index"] == int(np.argmax(residuals))

    def test_equivalence_is_the_worst_intertwiner_over_conjugations(self):
        rep = rep_of("circle_plus_trivial")
        seed, conjugations, samples = 12, 4, 40
        per_conjugation = []
        for c in range(conjugations):
            A = random_conjugator(rep.target_dim, (seed, 2, c))
            other = conjugate_representation(rep, A)
            per_conjugation.append(
                is_intertwiner(
                    prolong_intertwiner(A), prolonged(rep), prolonged(other), samples, (seed, 1)
                ).max_residual
            )
        report = check_equivalence_transfer(rep, conjugations, samples, seed)
        assert report.max_residual == max(per_conjugation)

    def test_failing_equivalence_names_conjugation_and_sample(self):
        report = check_equivalence_transfer(
            rep_of("sl2_standard"), conjugations=5, samples=300, seed=6, tol=1e-17
        )
        assert report.verdict is Verdict.FAIL
        assert set(report.witness) == {"conjugation_index", "seed", "sample_index", "residual"}
        assert report.witness["residual"] == report.max_residual

    @pytest.mark.parametrize(
        "run",
        [
            lambda rep: check_action_oracle(rep, 0),
            lambda rep: check_equivalence_transfer(rep, 3, 0),
            lambda rep: check_equivalence_transfer(rep, 0, 10),
            lambda rep: is_intertwiner(np.eye(2), rep, rep, 0),
            lambda rep: is_invariant_subspace(rep, SubspaceBasis(2, np.eye(2)), 0),
            lambda rep: check_invariance_transfer(rep, SubspaceBasis(2, np.eye(2)), 0),
            lambda rep: check_direct_sum_commutation(rep, rep, 0),
            lambda rep: faithfulness_probe(rep, 0),
        ],
    )
    def test_no_check_passes_over_zero_samples(self, run):
        with pytest.raises(ValueError):
            run(rep_of("circle_rotation"))


class TestFaithfulnessNeighbours:
    @pytest.mark.parametrize("name", ["gl_identity(2)", "so3_standard", "circle_double"])
    def test_min_separation_equals_the_pairwise_distance_minimum(self, name):
        rep = rep_of(name)
        samples, seed = 120, 4
        X = sample_tangent_elements(rep.group, [(seed, 47, i) for i in range(samples)])
        images = prolong(rep, X).dense().reshape(samples, -1)
        expected = float(np.min(scipy.spatial.distance.pdist(images, "chebyshev")))
        report = faithfulness_probe(rep, samples, seed)
        assert report.passed
        assert report.witness["min_image_separation"] == expected

    def test_single_sample_has_no_separation(self):
        report = faithfulness_probe(rep_of("gl_identity(2)"), 1, seed=2)
        assert report.passed
        assert report.witness["min_image_separation"] is None

    def test_collision_tolerance_sets_the_threshold(self):
        rep = rep_of("so3_standard")
        assert faithfulness_probe(rep, 60, seed=5).passed
        report = faithfulness_probe(rep, 60, seed=5, collision_tol=10.0)
        assert report.witness["kind"] == "random_collision"
        assert (report.witness["first_index"], report.witness["second_index"]) == (0, 1)

    def test_peak_memory_grows_linearly_with_the_sample_count(self):
        rep = rep_of("gl_identity(1)")
        peaks = {}
        for samples in (1000, 4000):
            tracemalloc.start()
            try:
                assert faithfulness_probe(rep, samples, seed=8).passed
                peaks[samples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # A dense S x S distance matrix alone would be 128 MB at S = 4000.
        assert peaks[4000] < 5 * peaks[1000]
        assert peaks[4000] < 16 * 2**20
