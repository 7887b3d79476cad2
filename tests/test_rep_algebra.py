import collections
import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest
import scipy.linalg
from descriptors import (
    adjoint,
    circle_winding,
    determinant,
    gl1_power,
    gl2_det_power,
    gl3_dense_conjugated,
    gl3_units,
    sl2_conjugated,
    so3_doubled,
    so4_dense_conjugated,
    symmetric_power,
)
from elements import broken_circle_plus_trivial

from lieprolong import (
    AlgebraElement,
    CheckReport,
    GroupElement,
    NonFiniteImageError,
    ProlongedMatrix,
    Representation,
    SpecMismatchError,
    SubspaceBasis,
    Verdict,
    algebra_from_coordinates,
    block_diag,
    catalog_entry,
    catalog_list,
    catalog_names,
    check_action_oracle,
    check_equivalence_transfer,
    check_homomorphism,
    check_invariance_transfer,
    circle,
    commutant_basis,
    conjugate_representation,
    differential_rep,
    direct_sum,
    faithfulness_probe,
    general_linear,
    group_coordinates,
    group_multiply,
    is_intertwiner,
    is_invariant_subspace,
    load_representation,
    mat_exp,
    prolong,
    prolong_intertwiner,
    prolonged,
    random_conjugator,
    reducibility_probe,
    relative_residual,
    rep_image,
    sample_tangent_element,
    sample_tangent_elements,
    special_orthogonal,
    tg_multiply,
)
from lieprolong import cli, groups, prolongation, rep_algebra
from lieprolong.cli import main


def rep_of(name: str) -> Representation:
    return catalog_entry(name).rep


CIRCLE_ENTRIES = [entry.name for entry in catalog_list() if entry.rep.group == circle()]


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


# Each public check with a tolerance, on so3_standard; the subspace checks
# also on the zero subspace, which they pass without sampling.
_LINE, _ZERO = SubspaceBasis(3, [[1.0, 0.0, 0.0]]), SubspaceBasis(3, np.zeros((0, 3)))
TOLERANT_CHECKS = {
    "homomorphism": lambda rep, tol: check_homomorphism(rep, 2, tol=tol),
    "prolonged_homomorphism": lambda rep, tol: check_homomorphism(prolonged(rep), 2, tol=tol),
    "action_oracle": lambda rep, tol: check_action_oracle(rep, 2, tol=tol),
    "equivalence_transfer": lambda rep, tol: check_equivalence_transfer(rep, 2, tol=tol),
    "intertwiner": lambda rep, tol: is_intertwiner(np.eye(3), rep, rep, 2, tol=tol),
    "invariant_subspace": lambda rep, tol: is_invariant_subspace(rep, _LINE, 2, tol=tol),
    "zero_subspace": lambda rep, tol: is_invariant_subspace(rep, _ZERO, 2, tol=tol),
    "invariance_transfer": lambda rep, tol: check_invariance_transfer(rep, _LINE, 2, tol=tol),
    "zero_transfer": lambda rep, tol: check_invariance_transfer(rep, _ZERO, 2, tol=tol),
    "faithfulness": lambda rep, tol: faithfulness_probe(rep, tol),
}


@pytest.mark.parametrize("check", TOLERANT_CHECKS.values(), ids=TOLERANT_CHECKS.keys())
def test_tolerances_that_make_a_gate_vacuous_are_refused(check):
    # An infinite tol passes any residual; a NaN or negative one passes
    # none, except where a probe compares the other way.  Zero is kept: it
    # forces a witness.
    rep = rep_of("so3_standard")
    for tol in (np.inf, np.nan, -1e-9):
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            check(rep, tol)
    assert isinstance(check(rep, 0.0), CheckReport)


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
        np.testing.assert_array_equal(lifted, [[2.0, 0.0], [0.0, 2.0]])
        assert not lifted.flags.writeable

    def test_lift_of_rectangular_intertwiner(self):
        lifted = prolong_intertwiner([[1.0, 2.0]])
        np.testing.assert_array_equal(lifted, [[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0]])
        assert prolong_intertwiner(np.ones((2, 3))).shape == (4, 6)

    def test_rejects_non_finite(self):
        rep = rep_of("circle_rotation")
        for bad in ([[np.inf, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]):
            with pytest.raises(ValueError, match="finite"):
                is_intertwiner(bad, rep, rep)
            with pytest.raises(ValueError, match="finite"):
                prolong_intertwiner(bad)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_product_is_refused_with_its_sample(self):
        # The images are finite, A times one of them is not; the first
        # sample whose image exceeds 1.8 overflows.
        rep, A = rep_of("gl_identity(1)"), [[1e308]]
        bases = [sample_tangent_element(general_linear(1), (0, i)).base.matrix for i in range(50)]
        first = next(i for i, a in enumerate(bases) if a[0, 0] > np.finfo(float).max / 1e308)
        with pytest.raises(NonFiniteImageError) as info:
            is_intertwiner(A, rep, rep, 50, seed=0)
        assert str(info.value) == (
            f"intertwiner check, seed 0, sample index {first}: "
            "intertwined image A rho1(x) has non-finite entries"
        )

    def test_rejects_non_matrices(self):
        rep = rep_of("circle_rotation")
        for bad in (1.0, [1.0, 0.0], np.ones((1, 2, 2))):
            with pytest.raises(ValueError, match="must be a matrix"):
                is_intertwiner(bad, rep, rep)
            with pytest.raises(ValueError, match="must be a matrix"):
                prolong_intertwiner(bad)


# Every tests/descriptors.py maker that loads (parametrized ones at one or
# two values), for checks that compare against independent references.
LOADED_DESCRIPTORS = {
    "so3_doubled": so3_doubled,
    "circle_winding": circle_winding,
    "sl2_conjugated": sl2_conjugated,
    "gl3_units": gl3_units,
    "determinant": determinant,
    "adjoint_sl2": lambda: adjoint("SpecialLinear", 2),
    "adjoint_so4": lambda: adjoint("SpecialOrthogonal", 4),
    "symmetric_power_4": lambda: symmetric_power(4),
    "gl3_dense_conjugated": gl3_dense_conjugated,
    "so4_dense_conjugated": so4_dense_conjugated,
    "gl1_power_3": lambda: gl1_power(3.0),
    "gl2_det_power_2": lambda: gl2_det_power(2.0),
}


def catalog_or_descriptor(name: str) -> Representation:
    if name in LOADED_DESCRIPTORS:
        return load_representation(LOADED_DESCRIPTORS[name]())
    return rep_of(name)


class TestEquivalenceTransfer:
    @pytest.mark.parametrize("name", ["circle_rotation", "sl2_standard"])
    def test_passes_on_catalog_representations(self, name):
        report = check_equivalence_transfer(rep_of(name), 60, seed=6)
        assert report.passed, report
        assert report.max_residual < 1e-9

    def test_deterministic(self):
        a = check_equivalence_transfer(rep_of("circle_rotation"), 40, seed=7)
        b = check_equivalence_transfer(rep_of("circle_rotation"), 40, seed=7)
        assert a.max_residual == b.max_residual

    def test_conjugators_are_invertible(self):
        for s in range(10):
            A = random_conjugator(3, seed=s)
            assert np.isfinite(np.linalg.cond(A))
            assert np.linalg.cond(A) < 1e6

    def test_conjugator_is_drawn_as_a_generator_would(self):
        for n, seed in ((1, 0), (3, (9, 2, 0)), (5, 2**40)):
            draws = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))
            np.testing.assert_array_equal(
                random_conjugator(n, seed), scipy.linalg.expm(0.5 * draws)
            )

    def test_failing_witness_replays_through_public_functions(self):
        # d rho off by 1e-6 breaks the tie: rho(x) against expm(d rho(B_0))
        # at the witness's sample, with B_0 the principal logarithm of the
        # sampled base.
        so3 = rep_of("so3_standard")
        rep = dataclasses.replace(so3, differential=lambda B: (1 + 1e-6) * B.matrix)
        report = check_equivalence_transfer(rep, 50, seed=3)
        assert report.verdict is Verdict.FAIL
        witness = report.witness
        assert set(witness) == {"seed", "sample_index", "residual"}
        x = sample_tangent_element(rep.group, (*witness["seed"], witness["sample_index"])).base
        B0 = algebra_from_coordinates(group_coordinates(x), rep.group)
        image = scipy.linalg.expm(differential_rep(rep, B0))
        residual = relative_residual(rep_image(rep, x), image)
        assert residual == pytest.approx(witness["residual"], rel=1e-8)
        assert report.max_residual == witness["residual"]

    @pytest.mark.parametrize("name", [*catalog_names(), *LOADED_DESCRIPTORS])
    def test_the_tie_needs_no_prolongation_conjugator_inverse_or_lift(self, monkeypatch, name):
        # The transfer itself is criterion 04's sympy proof; the sampled row
        # evaluates only rho and expm(d rho(B_0)).
        rep = catalog_or_descriptor(name)

        def refuse(*args, **kwargs):
            raise AssertionError("the equivalence check left the tie")

        rep_algebra._tangent_sample.cache_clear()
        for module, attribute in [
            (prolongation, "prolong"),
            (rep_algebra, "prolong"),
            (rep_algebra, "random_conjugator"),
            (rep_algebra, "prolong_intertwiner"),
            (rep_algebra, "_require_invertible"),
            (prolongation, "_require_invertible"),
            (groups, "_require_invertible"),
            (np.linalg, "inv"),
        ]:
            monkeypatch.setattr(module, attribute, refuse)
        assert isinstance(check_equivalence_transfer(rep, 30, seed=5), CheckReport)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_overflowing_exponential_is_refused_with_its_sample(self):
        # apply is the identity, finite everywhere, but d rho = 1000 B: the
        # first sample with B_0 > log(max double) / 1000 overflows expm.
        rep = dataclasses.replace(rep_of("gl_identity(1)"), differential=lambda B: 1e3 * B.matrix)
        exponents = [
            sample_tangent_element(general_linear(1), (4, 1, i)).base._exponent[0, 0]
            for i in range(50)
        ]
        first = next(i for i, b in enumerate(exponents) if b > np.log(np.finfo(float).max) / 1e3)
        with pytest.raises(NonFiniteImageError) as info:
            check_equivalence_transfer(rep, 50, seed=4)
        assert str(info.value) == (
            f"equivalence_transfer check, seed [4, 1], sample index {first}: "
            "exponential expm(d rho(B_0)) has non-finite entries"
        )


class TestSubspaces:
    def test_basis_validation(self):
        with pytest.raises(ValueError):
            SubspaceBasis(2, [[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            SubspaceBasis(2, np.ones((3, 2)))
        with pytest.raises(ValueError):
            SubspaceBasis(2, [[np.nan, 0.0]])
        with pytest.raises(ValueError, match=r"expected vectors of length 3, got shape \(1, 2\)"):
            SubspaceBasis(3, [1.0, 2.0])

    def test_one_vector_is_one_row(self):
        U = SubspaceBasis(3, [1.0, 2.0, 0.0])
        np.testing.assert_array_equal(U.vectors, [[1.0, 2.0, 0.0]])
        assert U.dimension == 1

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

    @pytest.mark.parametrize(
        "name", ["circle_rotation", "gl_identity(2)", "so3_standard", "circle_winding_2"]
    )
    def test_vertical_subspace_is_always_invariant(self, name):
        n = rep_of(name).target_dim
        fibers = SubspaceBasis(2 * n, np.eye(n, 2 * n, n))
        report = is_invariant_subspace(prolonged(rep_of(name)), fibers, 60, seed=10)
        assert report.passed, report


class TestInvarianceTransfer:
    def test_non_invariant_subspace_fails_with_direction(self):
        U = SubspaceBasis(2, [[1.0, 0.0]])
        report = check_invariance_transfer(rep_of("circle_rotation"), U, 40, seed=12)
        assert report.verdict is Verdict.FAIL
        assert report.max_residual == 0.9791184651660931
        assert report.witness == {
            "part": "prolonged",
            "seed": (12, 5),
            "sample_index": 4,
            "residual": 0.9791184651660931,
        }

    def test_zero_subspace_transfers_vacuously(self):
        U = SubspaceBasis(2, np.zeros((0, 2)))
        assert check_invariance_transfer(rep_of("circle_rotation"), U, 10, seed=13).passed

    def test_base_witness_replays(self):
        rep = rep_of("so3_standard")
        U = SubspaceBasis(3, [[1.0, 1.0, 1.0]])
        report = check_invariance_transfer(rep, U, 1, seed=13)
        witness = report.witness
        assert report.verdict is Verdict.FAIL
        assert witness["part"] == "base"
        assert witness["seed"] == (13, 5)
        assert witness["sample_index"] == 0
        assert witness["residual"] == report.max_residual == pytest.approx(0.336, abs=1e-3)
        # The base part scores U under rho(x) at the base point x of the
        # tangent sample, drawn under the same key as a group sample: the
        # witness's seed and index replay it as a plain invariance check.
        replay = is_invariant_subspace(rep, U, witness["sample_index"] + 1, witness["seed"])
        assert replay.max_residual == pytest.approx(witness["residual"], rel=1e-12)

    def test_a_broken_differential_fails_the_prolonged_part_alone(self):
        # apply is left whole, so span(e_2) stays invariant under every R,
        # but d rho(B) + theta E_02 sends e_2 to theta e_0, out of the span.
        broken = broken_circle_plus_trivial()
        U = SubspaceBasis(3, [[0.0, 0.0, 1.0]])
        report = check_invariance_transfer(broken, U, 50, seed=3)
        assert report.verdict is Verdict.FAIL
        assert report.witness == {
            "part": "prolonged",
            "seed": (3, 5),
            "sample_index": 12,
            "residual": 0.9954610387004739,
        }
        assert is_invariant_subspace(broken, U, 50, (3, 5)).max_residual == 0.0

    @pytest.mark.parametrize(
        "make, vectors",
        [
            (lambda: rep_of("circle_rotation"), [[1.0, 0.0]]),
            (lambda: rep_of("circle_plus_trivial"), [[1.0, 0.0, 0.0]]),
            (broken_circle_plus_trivial, [[0.0, 0.0, 1.0]]),
        ],
        ids=["circle_rotation", "circle_plus_trivial", "broken_circle_plus_trivial"],
    )
    def test_the_prolonged_part_is_d_rho_at_each_sampled_direction(self, make, vectors):
        # One sample at a time, through public functions alone: d rho at the
        # sampled direction B, and the distance of d rho(B) U from span(U).
        rep = make()
        U = SubspaceBasis(rep.target_dim, vectors)
        q = U.orthonormal()
        defects = []
        for i in range(50):
            B = sample_tangent_element(rep.group, (3, 5, i)).algebra
            images = differential_rep(rep, B) @ q.T
            defects.append(relative_residual(q.T @ (q @ images), images))
        report = check_invariance_transfer(rep, U, 50, seed=3)
        assert report.witness["part"] == "prolonged"
        assert report.max_residual == max(defects)
        assert report.witness["sample_index"] == int(np.argmax(defects))

    @pytest.mark.parametrize(
        "name", [entry.name for entry in catalog_list() if entry.known_invariant_subspaces]
    )
    def test_declared_subspaces_transfer(self, monkeypatch, name):
        # The transfer itself is criterion 05's sympy proof; the sampled row
        # evaluates only rho(a) and d rho(B).
        def refuse(*args, **kwargs):
            raise AssertionError("the invariance check prolonged or lifted")

        rep_algebra._tangent_sample.cache_clear()
        for module, attribute in [
            (prolongation, "prolong"),
            (rep_algebra, "prolong"),
            (rep_algebra, "_dense"),
            (prolongation, "_dense"),
            (rep_algebra, "_require_invertible"),
            (prolongation, "_require_invertible"),
        ]:
            monkeypatch.setattr(module, attribute, refuse)
        entry = catalog_entry(name)
        for U in entry.known_invariant_subspaces:
            report = check_invariance_transfer(entry.rep, U, 60, seed=11)
            assert report.passed, report


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


# Commutant dimensions of each catalog entry and of its prolongation.
COMMUTANT_DIMENSIONS = {
    "circle_rotation": (2, 4),
    "circle_winding_2": (2, 4),
    "gl_identity(1)": (1, 2),
    "gl_identity(2)": (1, 2),
    "gl_identity(3)": (1, 2),
    "sl2_standard": (1, 2),
    "so3_standard": (1, 2),
    "trivial(1)": (1, 4),
    "trivial(2)": (4, 16),
    "circle_double": (8, 16),
    "circle_plus_trivial": (3, 8),
}

# The same for descriptors; None where the prolongation is too large to
# solve quickly (2 x 21 = 42 coordinates, 1764 unknowns).
DESCRIPTOR_COMMUTANT_DIMENSIONS = {
    "so3_doubled": (so3_doubled, (4, 8)),
    "sl2_conjugated": (sl2_conjugated, (1, 2)),
    "gl3_units": (gl3_units, (1, 2)),
    "symmetric_power(4)": (lambda: symmetric_power(4), (1, 2)),
    "symmetric_power(10)": (lambda: symmetric_power(10), (1, 2)),
    "symmetric_power(20)": (lambda: symmetric_power(20), (1, None)),
}

# Classification of each catalog entry by the probe; every prolongation
# is reducible.
BASE_CLASSIFICATIONS = {
    "circle_rotation": "irreducible",
    "circle_winding_2": "irreducible",
    "gl_identity(1)": "irreducible",
    "gl_identity(2)": "irreducible",
    "gl_identity(3)": "irreducible",
    "sl2_standard": "irreducible",
    "so3_standard": "irreducible",
    "trivial(1)": "irreducible",
    "trivial(2)": "reducible",
    "circle_double": "reducible",
    "circle_plus_trivial": "reducible",
}


class TestCommutant:
    def test_generic_pair_oracle_gives_scalars_only(self):
        # Two fixed invertible integer matrices; exact rational arithmetic.
        import sympy

        nullspace = sympy_commutant_pair_nullspace([[1, 2], [3, 5]], [[2, 1], [1, 1]])
        assert len(nullspace) == 1
        assert nullspace[0] == sympy.Matrix([1, 0, 0, 1])
        assert len(commutant_basis(rep_of("gl_identity(2)"))) == 1

    def test_rotation_oracle_gives_dimension_two(self):
        assert sympy_rotation_commutant_dimension() == 2
        assert len(commutant_basis(rep_of("circle_rotation"))) == 2

    @pytest.mark.parametrize("name", sorted(COMMUTANT_DIMENSIONS))
    def test_catalog_dimensions_are_pinned(self, name):
        rep = rep_of(name)
        dimensions = (len(commutant_basis(rep)), len(commutant_basis(prolonged(rep))))
        assert dimensions == COMMUTANT_DIMENSIONS[name]

    @pytest.mark.parametrize("name", sorted(DESCRIPTOR_COMMUTANT_DIMENSIONS))
    def test_descriptor_dimensions_are_pinned(self, name):
        document, (base, lifted) = DESCRIPTOR_COMMUTANT_DIMENSIONS[name]
        rep = load_representation(document())
        assert len(commutant_basis(rep)) == base
        if lifted is not None:
            assert len(commutant_basis(prolonged(rep))) == lifted

    def test_scalar_commutant_is_spanned_by_identity(self):
        (basis,) = commutant_basis(rep_of("gl_identity(2)"))
        normalized = basis / basis[0, 0]
        np.testing.assert_allclose(normalized, np.eye(2), atol=1e-9)

    def test_elements_commute_with_fresh_images(self):
        rep = rep_of("circle_double")
        for M in commutant_basis(rep):
            for i in range(10):
                image = rep_image(rep, sample_tangent_element(rep.group, (1000, i)).base)
                assert np.max(np.abs(M @ image - image @ M)) < 1e-8
        # The prolonged generator images are laid out as prolong lays out
        # its image, so the commutant they give commutes with prolong's.
        for entry in catalog_list():
            lifted = prolonged(entry.rep)
            for M in commutant_basis(lifted):
                for i in range(10):
                    image = lifted.apply(sample_tangent_element(entry.rep.group, (1000, i)))
                    gap = np.max(np.abs(M @ image - image @ M))
                    assert gap <= 1e-12 * max(1.0, np.max(np.abs(image))), entry.name


class TestReducibilityProbe:
    def test_irreducible_classification(self):
        for name in ["gl_identity(2)", "so3_standard", "sl2_standard"]:
            report = reducibility_probe(rep_of(name))
            assert report.passed
            assert report.witness["classification"] == "irreducible"
            assert report.witness["commutant_type"] == "R"

    def test_quaternion_commutant_is_inconclusive(self):
        # The verdict matrix's spin-1/2 map: R^4 as the quaternions under
        # left multiplication, whose commutant, right multiplication, is the
        # quaternions again: dimension 4, neither type R nor type C.
        from test_verdict_matrix import ROWS

        report = reducibility_probe(ROWS["so3: spin 1/2 on R^4"]())
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.witness == {"classification": "inconclusive", "commutant_dimension": 4}

    def test_reducible_classification_with_verified_subspace(self):
        report = reducibility_probe(rep_of("circle_double"))
        assert report.passed
        assert report.witness["classification"] == "reducible"
        vectors = np.array(report.witness["invariant_subspace"])
        U = SubspaceBasis(4, vectors)
        assert is_invariant_subspace(rep_of("circle_double"), U, 60, seed=19).passed

    def test_finds_invariant_line_of_reducible_plane(self):
        rep = direct_sum(rep_of("trivial(1)"), rep_of("trivial(1)"))
        report = reducibility_probe(rep)
        assert report.passed
        assert report.witness["classification"] == "reducible"
        assert report.witness["subspace_dimension"] == 1
        U = SubspaceBasis(2, report.witness["invariant_subspace"])
        assert is_invariant_subspace(rep, U, 200, seed=20).passed

    def test_trivial_representation_is_reducible(self):
        report = reducibility_probe(rep_of("trivial(2)"))
        assert report.passed
        assert report.witness["classification"] == "reducible"

    @pytest.mark.parametrize(
        "rep",
        [
            lambda: rep_of("circle_rotation"),
            lambda: rep_of("circle_winding_2"),
            lambda: load_representation(circle_winding()),
        ],
        ids=["circle_rotation", "circle_winding_2", "circle_winding"],
    )
    def test_rotation_commutant_is_complex_so_irreducible(self, rep):
        # span{I, J} with J^2 = -I is a field: by Schur's lemma no line of
        # the plane is invariant.
        report = reducibility_probe(rep())
        assert report.passed
        assert report.witness == {
            "classification": "irreducible",
            "commutant_dimension": 2,
            "commutant_type": "C",
        }

    @pytest.mark.parametrize("name", sorted(BASE_CLASSIFICATIONS))
    def test_catalog_classifications(self, name):
        report = reducibility_probe(rep_of(name))
        assert report.passed
        assert report.witness["classification"] == BASE_CLASSIFICATIONS[name]

    @pytest.mark.parametrize(
        ("document", "classification"),
        [
            (so3_doubled, "reducible"),
            (sl2_conjugated, "irreducible"),
            (gl3_units, "irreducible"),
            (lambda: symmetric_power(4), "irreducible"),
            (lambda: symmetric_power(20), "irreducible"),
            (determinant, "irreducible"),
            (lambda: adjoint("SpecialLinear", 2), "irreducible"),
            (lambda: adjoint("SpecialOrthogonal", 4), "reducible"),
        ],
    )
    def test_descriptor_classifications(self, document, classification):
        report = reducibility_probe(load_representation(document()))
        assert report.passed
        assert report.witness["classification"] == classification

    @pytest.mark.parametrize("name", sorted(BASE_CLASSIFICATIONS))
    def test_every_prolongation_is_reducible_with_a_witness_that_replays(self, name):
        rep = prolonged(rep_of(name))
        report = reducibility_probe(rep)
        assert report.passed
        assert report.witness["classification"] == "reducible"
        assert report.max_residual < 1e-9
        U = SubspaceBasis(rep.target_dim, report.witness["invariant_subspace"])
        assert 0 < U.dimension < rep.target_dim
        assert is_invariant_subspace(rep, U, 200, seed=23, tol=1e-9).passed

    # trivial(1) is left out: its prolongation is trivial too, and any line
    # is a witness.
    @pytest.mark.parametrize(
        "name",
        sorted(n for n, c in BASE_CLASSIFICATIONS.items() if c == "irreducible" and n != "trivial(1)"),
    )
    def test_irreducible_base_prolongs_to_its_vertical_subspace(self, name):
        rep = rep_of(name)
        n = rep.target_dim
        witness = reducibility_probe(prolonged(rep)).witness
        U = np.array(witness["invariant_subspace"])
        assert U.shape == (n, 2 * n)
        np.testing.assert_allclose(U[:, :n], 0.0, atol=1e-12)

    def test_non_semisimple_gl1_image_is_reducible(self):
        # a |-> [[1, log a], [0, 1]]: the line e_0 is invariant and has no
        # invariant complement, so the commutant is span{I, N}, N nilpotent.
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        rep = Representation(
            general_linear(1),
            2,
            lambda a: np.eye(2) + np.log(a.matrix[..., :1, :1]) * N,
            lambda B: B.matrix[..., :1, :1] * N,
        )
        report = reducibility_probe(rep)
        assert report.witness["classification"] == "reducible"
        (line,) = np.array(report.witness["invariant_subspace"])
        np.testing.assert_allclose(np.abs(line), [1.0, 0.0], atol=1e-12)

    def test_probes_draw_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the probe drew a sample")

        monkeypatch.setattr(rep_algebra, "_tangent_sample", refuse)
        # Every draw, whatever calls it, goes through a stream.
        monkeypatch.setattr(groups._Stream, "draws", refuse)
        monkeypatch.setattr(groups, "_seed", refuse)
        for entry in catalog_list():
            for rep in (entry.rep, prolonged(entry.rep)):
                assert commutant_basis(rep)
                assert reducibility_probe(rep).passed


class TestDirectSum:
    def test_images_are_block_diagonal(self):
        # The one assumption acceptance criterion 07's proof makes about the
        # code: both maps of a sum are the block diagonals of the parts', in
        # order.
        pairs = [
            ("circle_rotation", "circle_winding_2"),
            ("circle_rotation", "trivial(1)"),
            ("gl_identity(2)", "gl_identity(2)"),
            ("so3_standard", "so3_standard"),
            ("sl2_standard", "sl2_standard"),
        ]
        for left, right in pairs:
            rep1, rep2 = rep_of(left), rep_of(right)
            X = sample_tangent_elements(rep1.group, range(20))
            summed = direct_sum(rep1, rep2)
            images = block_diag(rep1.apply(X.base), rep2.apply(X.base))
            differentials = block_diag(rep1.differential(X.algebra), rep2.differential(X.algebra))
            assert np.array_equal(summed.apply(X.base), images), (left, right)
            assert np.array_equal(summed.differential(X.algebra), differentials), (left, right)

    def test_group_mismatch_rejected(self):
        with pytest.raises(SpecMismatchError):
            direct_sum(rep_of("circle_rotation"), rep_of("gl_identity(2)"))

    def test_sum_is_a_homomorphism(self):
        summed = direct_sum(rep_of("circle_rotation"), rep_of("circle_winding_2"))
        assert check_homomorphism(summed, 80, seed=21).passed


def replayed_gap(rep, witness) -> float:
    """Distance from the identity of the prolonged image of a witness,
    rebuilt from its coordinates alone: rho(exp X) = expm(d rho(X))."""
    X = algebra_from_coordinates(witness["coordinates"], rep.group)
    B = algebra_from_coordinates(witness["fiber"], rep.group)
    np.testing.assert_allclose(witness["element"], scipy.linalg.expm(X.matrix), atol=1e-12)
    R = scipy.linalg.expm(differential_rep(rep, X))
    image = ProlongedMatrix(R, differential_rep(rep, B) @ R).dense()
    return float(np.max(np.abs(image - np.eye(2 * rep.target_dim))))


def rotation_by_log() -> Representation:
    """GL(1) on the plane by a |-> rotation by log a: its kernel e^{2 pi Z}
    is a set of positive scalars."""

    def apply(a):
        t = np.log(a.matrix[..., 0, 0])
        c, s = np.cos(t), np.sin(t)
        return np.stack([np.stack([c, s], -1), np.stack([-s, c], -1)], -2)

    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return Representation(general_linear(1), 2, apply, lambda B: B.matrix[..., :1, :1] * J)


class TestFaithfulnessProbe:
    def test_faithful_representation_passes(self):
        report = faithfulness_probe(rep_of("gl_identity(2)"))
        assert report.passed
        assert report.max_residual == 0.0
        assert report.witness == {"rank": 4, "margin": 1.0, "scope": "identity component"}

    def test_constant_representation_collides_on_a_fiber_direction(self):
        rep = rep_of("trivial(2)")
        report = faithfulness_probe(rep)
        assert report.verdict is Verdict.FAIL
        assert report.witness["kind"] == "kernel_collision"
        assert report.witness["part"] == "infinitesimal"
        assert report.witness["rank"] == 0
        assert np.max(np.abs(report.witness["fiber"])) == 1.0
        assert replayed_gap(rep, report.witness) == report.max_residual == 0.0

    @pytest.mark.parametrize(
        "document, part",
        [
            (circle_winding(), "central"),
            (determinant(), "infinitesimal"),
            (adjoint("SpecialLinear", 2), "central"),
            (adjoint("SpecialOrthogonal", 4), "central"),
        ],
        ids=["circle_2J", "determinant", "adjoint_sl2", "adjoint_so4"],
    )
    def test_descriptor_kernels_fail_with_a_replayable_witness(self, document, part):
        rep = load_representation(document)
        report = faithfulness_probe(rep)
        assert report.verdict is Verdict.FAIL
        witness = report.witness
        assert (witness["kind"], witness["part"]) == ("kernel_collision", part)
        assert witness["image_gap"] == report.max_residual <= 1e-12
        assert replayed_gap(rep, witness) <= 1e-12
        # The witness is not the identity tangent element.
        moved = np.max(np.abs(np.array(witness["element"]) - np.eye(rep.group.dim)))
        assert max(moved, np.max(np.abs(witness["fiber"]))) > 0.5

    def test_rank_counts_every_direction(self):
        # det sends four basis directions to one matrix entry: one singular
        # value, padded with three zeros.
        report = faithfulness_probe(load_representation(determinant()))
        assert (report.witness["rank"], report.witness["margin"]) == (1, 0.0)

    @pytest.mark.parametrize("document", [so3_doubled, sl2_conjugated, gl3_units])
    def test_faithful_descriptors_pass(self, document):
        report = faithfulness_probe(load_representation(document()))
        assert report.passed, report
        assert report.witness["rank"] == len(document()["map"]["generator_images"])

    def test_catalog_and_descriptor_give_one_verdict(self):
        ours = faithfulness_probe(rep_of("circle_winding_2")).witness
        loaded = faithfulness_probe(load_representation(circle_winding())).witness
        for key in ("kind", "part", "coordinates", "fiber", "element"):
            assert ours[key] == loaded[key]

    @pytest.mark.parametrize("n", [3, 8, 22, 30])
    def test_minus_identity_is_decided_by_the_parity_of_the_weights(self, n):
        # At n = 30, expm(d rho(pi J)) misses I by 5.6e-12, more than tol,
        # but every weight n, n - 2, ..., -n is even.  From n = 22 these
        # ill-conditioned images load only through the exact bracket test.
        rep = load_representation(symmetric_power(n))
        report = faithfulness_probe(rep)
        assert report.passed is (n % 2 == 1)
        if n % 2 == 0:
            assert report.witness["coordinates"] == [np.pi, -np.pi, 0.0]

    def test_imaginary_scalar_weights_are_inconclusive(self):
        report = faithfulness_probe(rotation_by_log())
        assert report.verdict is Verdict.INCONCLUSIVE
        assert "zero real part" in report.witness["reason"]

    def test_probe_samples_nothing_and_takes_no_logarithm(self, monkeypatch):
        rep = load_representation(so3_doubled())
        rep_algebra._tangent_sample.cache_clear()

        def refuse(slices):
            raise AssertionError("the certificate took a logarithm")

        monkeypatch.setattr(groups, "_logm", refuse)
        assert faithfulness_probe(rep).passed
        assert rep_algebra._tangent_sample.cache_info().currsize == 0


class TestSharedDriver:
    """The stacked checks against plain loops over single elements."""

    def test_homomorphism_matches_a_per_pair_loop(self):
        # Per pair x = [a, B], y = [a', B']: the base part scores rho(a a')
        # against R R', and the fiber part the fiber identity, with C = B +
        # a B' a^-1 the fiber of the tangent product.
        rep = skewed_identity(general_linear(2))
        seed, count = 31, 300
        residuals = []
        for i in range(count):
            x = sample_tangent_element(rep.group, (seed, 2 * i))
            y = sample_tangent_element(rep.group, (seed, 2 * i + 1))
            R, R2 = rep_image(rep, x.base), rep_image(rep, y.base)
            K, K2, KC = (
                differential_rep(rep, B) for B in (x.algebra, y.algebra, tg_multiply(x, y).algebra)
            )
            residuals.append(
                (
                    relative_residual(rep_image(rep, group_multiply(x.base, y.base)), R @ R2),
                    relative_residual(KC @ R, K @ R + R @ K2),
                )
            )
        base = check_homomorphism(rep, count, seed)
        lifted = check_homomorphism(prolonged(rep), count, seed)
        assert base.verdict is lifted.verdict is Verdict.FAIL
        worst = np.max(residuals, axis=0)
        assert base.max_residual == worst[0]
        assert base.witness["sample_index"] == int(np.argmax([r[0] for r in residuals]))
        part = int(np.argmax(worst))
        assert lifted.max_residual == worst[part]
        assert lifted.witness["part"] == ("base", "fiber")[part]
        assert lifted.witness["sample_index"] == int(np.argmax([r[part] for r in residuals]))

    def test_unevaluable_image_names_the_first_failing_sample(self):
        # The stack fails first at the product image of a later pair; sample
        # 0 already fails on its own, in apply.
        rep = load_representation(gl1_power(800.0))
        message = "homomorphism check, seed 10, sample index 0: apply returned non-finite entries"
        with pytest.raises(NonFiniteImageError) as info:
            rep_algebra._Scans(rep, 256, 10).homomorphism
        assert str(info.value) == message

    @pytest.mark.parametrize(("image", "samples"), [(380.0, 3000), (500.0, 200)])
    def test_images_overflowing_during_a_check_raise(self, image, samples):
        # Both load; the images of some draws, or of some products of two
        # draws, overflow.
        rep = load_representation(gl1_power(image))
        with pytest.raises(NonFiniteImageError, match="apply returned non-finite entries"):
            check_homomorphism(rep, samples)

    @pytest.mark.parametrize(
        ("run", "failure"),
        [
            (
                lambda rep: check_homomorphism(rep, 200, 5),
                "homomorphism check, seed 5, sample index 0",
            ),
            (
                lambda rep: check_homomorphism(prolonged(rep), 200, 5),
                "homomorphism check, seed 5, sample index 0",
            ),
            # The oracle row reads the homomorphism scan first.
            (
                lambda rep: check_action_oracle(rep, 200, 5),
                "homomorphism check, seed 5, sample index 0",
            ),
            (
                lambda rep: check_equivalence_transfer(rep, 200, 5),
                "equivalence_transfer check, seed [5, 1], sample index 1",
            ),
        ],
        ids=["homomorphism", "prolonged", "oracle", "equivalence"],
    )
    def test_overflowing_images_name_the_check_seed_and_sample(self, run, failure):
        # The images load; every sampled check reaches elements where they
        # overflow or underflow and reports the first sample that fails on
        # its own, with its own message, so the failure can be replayed.
        # (The check command reads these four rows off the load certificate.)
        rep = load_representation(gl1_power(1000.0))
        with pytest.raises(NonFiniteImageError) as info:
            run(rep)
        assert str(info.value) == f"{failure}: apply returned non-finite entries"

    def test_failing_equivalence_names_its_sample(self):
        report = check_equivalence_transfer(rep_of("circle_winding_2"), 300, seed=6, tol=1e-17)
        assert report.verdict is Verdict.FAIL
        assert set(report.witness) == {"seed", "sample_index", "residual"}
        assert report.witness["residual"] == report.max_residual

    @pytest.mark.parametrize(
        "run",
        [
            lambda rep: check_action_oracle(rep, 0),
            lambda rep: check_equivalence_transfer(rep, 0),
            lambda rep: is_intertwiner(np.eye(2), rep, rep, 0),
            lambda rep: is_invariant_subspace(rep, SubspaceBasis(2, np.eye(2)), 0),
            lambda rep: check_invariance_transfer(rep, SubspaceBasis(2, np.eye(2)), 0),
            lambda rep: is_invariant_subspace(rep, SubspaceBasis(2, np.zeros((0, 2))), 0),
            lambda rep: is_invariant_subspace(rep, SubspaceBasis(2, np.zeros((0, 2))), -5),
            lambda rep: check_invariance_transfer(rep, SubspaceBasis(2, np.zeros((0, 2))), 0),
        ],
    )
    def test_no_check_passes_over_zero_samples(self, run):
        with pytest.raises(ValueError):
            run(rep_of("circle_rotation"))


def equivalence_loop(rep, samples, seed) -> np.ndarray:
    """The equivalence check's residuals, one per sample, evaluated one
    sampled element at a time: ``rho`` at ``exp(B_0)`` against ``expm(d
    rho(B_0))``, with ``B_0`` the exponent the element was drawn from."""
    residuals = []
    for i in range(samples):
        x = sample_tangent_element(rep.group, (seed, 1, i)).base
        tied = scipy.linalg.expm(differential_rep(rep, AlgebraElement(x._exponent, rep.group)))
        residuals.append(relative_residual(rep_image(rep, x), tied))
    return np.array(residuals)


class TestEquivalenceAgainstALoop:
    """The stacked equivalence check against :func:`equivalence_loop`."""

    @pytest.mark.parametrize("name", [*catalog_names(), *LOADED_DESCRIPTORS])
    def test_residuals_and_witness_are_the_loop_s_bit_for_bit(self, name):
        rep, seed, samples = catalog_or_descriptor(name), 12, 40
        # At tolerance 0 every report carries its witness.
        report = check_equivalence_transfer(rep, samples, seed, tol=0.0)
        loop = equivalence_loop(rep, samples, seed)
        assert report.max_residual == np.max(loop)
        assert report.witness == {
            "seed": (seed, 1),
            "sample_index": int(np.argmax(loop)),
            "residual": report.max_residual,
        }


class TestSampleMemo:
    """Sample stacks are drawn once per (group, keys) within a process."""

    def clear(self):
        rep_algebra._tangent_sample.cache_clear()

    def count_logm(self, monkeypatch) -> list:
        """The slices whose logarithm is taken from the matrix, in order."""
        logm = groups._logm
        calls = []

        def counted(slices):
            calls.extend(slices)
            return logm(slices)

        monkeypatch.setattr(groups, "_logm", counted)
        return calls

    def report(self, capsys) -> str:
        assert main(["report", "--samples", "10", "--seed", "5"]) == 1
        return capsys.readouterr().out

    def test_report_reuses_stacks_and_keeps_its_bytes(self, capsys):
        self.clear()
        first = self.report(capsys)
        hits = rep_algebra._tangent_sample.cache_info().hits
        self.clear()
        assert self.report(capsys) == first
        assert hits > 0

    def test_base_and_prolonged_checks_share_one_draw(self):
        rep = rep_of("so3_standard")
        self.clear()
        assert check_homomorphism(rep, 10, seed=4).passed
        drawn = rep_algebra._tangent_sample.cache_info().misses
        assert check_homomorphism(prolonged(rep), 10, seed=4).passed
        assert rep_algebra._tangent_sample.cache_info().misses == drawn
        # A plain check reads its group draw off the base of the tangent
        # draw under the same keys, so it draws no stack of its own.
        assert is_intertwiner(np.eye(6), prolonged(rep), prolonged(rep), 10, seed=4).passed
        drawn = rep_algebra._tangent_sample.cache_info().misses
        assert is_intertwiner(np.eye(3), rep, rep, 10, seed=4).passed
        assert rep_algebra._tangent_sample.cache_info().misses == drawn
        keys = rep_algebra._keys(4, range(10))
        X = rep_algebra._tangent_sample(rep.group, keys)
        group_draw = sample_tangent_elements(rep.group, keys).base
        np.testing.assert_array_equal(rep_algebra._image(rep, X), rep_image(rep, group_draw))

    def test_equivalence_takes_no_logarithm_on_a_descriptor(self, monkeypatch):
        rep = load_representation(so3_doubled())
        self.clear()
        calls = self.count_logm(monkeypatch)
        assert check_equivalence_transfer(rep, 20, seed=0).passed
        # rho_2 is evaluated at the exponents the samples were drawn from,
        # and the descriptor's apply takes them as the samples' logarithms.
        assert len(calls) == 0

    @pytest.mark.parametrize("name", ["gl_identity(3)", "sl2_standard", "so3_standard"])
    def test_equivalence_takes_no_logarithm_of_its_own(self, monkeypatch, name):
        def refuse(*args):
            raise AssertionError("the equivalence check took a logarithm")

        self.clear()
        monkeypatch.setattr(groups, "_logm", refuse)
        monkeypatch.setattr(groups, "principal_log", refuse)
        assert check_equivalence_transfer(rep_of(name), 300, seed=0).passed

    def test_equivalence_takes_no_singular_value_decomposition(self, monkeypatch):
        # The tie compares rho(x) with an exponential: no rank to decide.
        rep = rep_of("so3_standard")
        self.clear()
        svd, calls = np.linalg.svd, []

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        assert check_equivalence_transfer(rep, 20, seed=0).passed
        assert calls == []

    def test_homomorphism_rows_take_each_product_logarithm_once(self, monkeypatch):
        rep = load_representation(so3_doubled())
        self.clear()
        calls = self.count_logm(monkeypatch)
        base, lifted = rep_algebra._Scans(rep, 30, 0).homomorphism_rows()
        assert base.passed and lifted.passed
        # The product of each pair: x and y keep the exponents they were
        # drawn as, and the plain and prolonged rows are read off one scan.
        assert len(calls) == 30

    def test_oracle_takes_a_logarithm_per_product(self, monkeypatch):
        rep = load_representation(so3_doubled())
        self.clear()
        calls = self.count_logm(monkeypatch)
        assert check_action_oracle(rep, 30, seed=0).passed
        # The oracle row reads the homomorphism scan, which takes the
        # logarithm of each pair's product, and the tie, which takes none.
        assert len(calls) == 30

    def test_prolong_takes_no_logarithm_of_the_element_it_prolongs(
        self, monkeypatch, capsys, tmp_path
    ):
        path = tmp_path / "so3_doubled.json"
        path.write_text(json.dumps(so3_doubled()))
        calls = self.count_logm(monkeypatch)
        coords = [0.1, 0.2, 0.3]
        argv = ["prolong", "--rep", str(path), "--a-coords", ",".join(map(str, coords)),
                "--fiber", "1,0,0"]
        assert main(argv) == 0
        capsys.readouterr()
        # The base and the finite difference's exp(+-hB) keep their
        # exponents; only the oracle's two curve points exp(+-hB) a, which
        # are products, take a logarithm.
        a = mat_exp(algebra_from_coordinates(coords, special_orthogonal(3)))
        assert len(calls) == 2
        assert not any(np.array_equal(m, a.matrix) for m in calls)

    @pytest.mark.parametrize("source", ["so3_standard", "circle_plus_trivial"])
    def test_homomorphism_suite_rows_are_the_public_checks(self, capsys, source):
        rep = rep_of(source)
        # At this tolerance every row with a non-zero residual fails and shows
        # its witness: the prolonged rows all do, the plain rows of the exact
        # catalog entries pass at 0.
        argv = ["check", "--rep", str(source), "--suite", "homomorphism", "--samples", "40",
                "--seed", "6", "--tol", "1e-30"]
        main(argv)
        rows = json.loads(capsys.readouterr().out)["checks"]
        reports = [check_homomorphism(r, 40, seed=6, tol=1e-30) for r in (rep, prolonged(rep))]
        for row, report in zip(rows, reports):
            assert row["verdict"] == report.verdict.value
            assert row["max_residual"] == report.max_residual
            assert row.get("witness") == report.witness
        assert reports[1].witness is not None

    def test_report_cond_calls_and_equivalence_stacks_stay_bounded(self, monkeypatch, capsys):
        # Counts, unlike wall time, repeat exactly: 420 cond calls when each
        # conjugated representation was prolonged on its own, 200 when each
        # stack took one, none now that a cheap bound certifies every image.
        # The equivalence check takes one stacked exponential per stack of
        # 10 samples; the faithfulness probe's are single matrices.
        calls, cond = [], np.linalg.cond
        sizes, expm = [], rep_algebra._expm

        def counted(x, *args, **kwargs):
            calls.append(np.shape(x))
            return cond(x, *args, **kwargs)

        def recorded(m):
            if np.ndim(m) == 3:
                sizes.append(len(m))
            return expm(m)

        monkeypatch.setattr(np.linalg, "cond", counted)
        monkeypatch.setattr(rep_algebra, "_expm", recorded)
        self.clear()
        self.report(capsys)
        assert calls == []
        assert sizes == [10] * len(catalog_list())
        assert max(sizes) <= rep_algebra._CHUNK

    def test_report_builds_no_generator_per_key(self, monkeypatch, capsys):
        built, default_rng = [], np.random.default_rng

        def counted(seed):
            built.append(seed)
            return default_rng(seed)

        # rep_algebra and cli draw only through groups' streams and import no _rng.
        monkeypatch.setattr(groups, "_rng", counted)
        monkeypatch.setattr(np.random, "default_rng", counted)
        self.report(capsys)
        assert built == []

    @pytest.mark.parametrize("name", CIRCLE_ENTRIES)
    def test_circle_reports_do_not_depend_on_the_entries_before(self, monkeypatch, name):
        # The other circle entries leave products with their coordinates on
        # the memo that this entry then reads.
        config = cli.RunConfig("check", samples=40, seed=8)

        def reports(entry_name):
            entry = catalog_entry(entry_name)
            scans = rep_algebra._Scans(entry.rep, config.samples, config.seed)
            return [repr(cli._run_suite(suite, scans, entry, config)) for suite in cli._SUITE_NAMES]

        self.clear()
        cold = reports(name)
        self.clear()
        for other in CIRCLE_ENTRIES:
            if other != name:
                reports(other)
        products = []
        monkeypatch.setattr(
            rep_algebra, "group_multiply", lambda a, b: products.append(a) or group_multiply(a, b)
        )
        assert reports(name) == cold
        assert products == []

    def test_clearing_the_memo_releases_what_its_stacks_keep(self):
        rep, indices = rep_of("circle_rotation"), np.arange(10)
        self.clear()
        assert check_homomorphism(rep, 10, seed=2).passed
        assert check_action_oracle(rep, 10, seed=2).passed
        X, Y, Z = (
            rep_algebra._tangent_sample(rep.group, rep_algebra._keys(2, *args))
            for args in ((2 * indices,), (2 * indices + 1,), (indices, 1))
        )
        # The only value kept on a stack is the group product of a pair,
        # which the oracle row read again.
        [product] = X._kept_values.values()
        assert isinstance(product, GroupElement)
        assert not hasattr(Y, "_kept_values") and not hasattr(Z, "_kept_values")
        refs = [weakref.ref(obj) for obj in (X, Y, Z, product, X._stream, Y._stream, Z._stream)]
        del X, Y, Z, product
        assert all(ref() is not None for ref in refs)
        rep_algebra._tangent_sample.cache_clear()
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_clearing_the_memo_leaves_no_seeded_stream(self, capsys):
        self.clear()
        gc.collect()  # stacks in reference cycles earlier tests left behind
        assert len(groups._STREAMS) == 0
        self.report(capsys)
        assert len(groups._STREAMS) > 0
        rep_algebra._tangent_sample.cache_clear()
        assert len(groups._STREAMS) == 0

    def test_report_seeds_each_key_set_once(self, monkeypatch, capsys):
        # The six groups draw under the same keys: the homomorphism pairs', the
        # tie's and the invariance transfer's.  No conjugator and no probe
        # vector is drawn.
        seed, calls = groups._seed, []
        monkeypatch.setattr(groups, "_seed", lambda keys: calls.append(keys) or seed(keys))
        self.clear()
        assert main(["report", "--samples", "50", "--seed", "5"]) == 1
        capsys.readouterr()
        assert set(collections.Counter(calls).values()) == {1}
        assert ((5, 2, 0),) not in calls
        assert len(calls) == 4

    def test_memo_stays_bounded(self):
        self.clear()
        assert check_homomorphism(rep_of("gl_identity(2)"), 3000, seed=3).passed
        info = rep_algebra._tangent_sample.cache_info()
        assert info.maxsize is not None
        assert 0 < info.currsize <= info.maxsize
