import math

import numpy as np
import pytest

from lieprolong import (
    AlgebraElement,
    ChartError,
    ExponentOverflowError,
    GroupElement,
    MembershipError,
    SpecMismatchError,
    TangentGroupElement,
    algebra_basis,
    algebra_coordinates,
    algebra_element,
    algebra_from_coordinates,
    algebra_membership_residual,
    block_diag,
    circle,
    circle_element,
    general_linear,
    group_coordinates,
    group_element,
    group_membership_residual,
    group_multiply,
    identity_element,
    identity_tangent,
    mat_exp,
    principal_log,
    relative_residual,
    sample_algebra_element,
    sample_group_element,
    sample_group_elements,
    sample_tangent_element,
    sample_tangent_elements,
    special_linear,
    special_orthogonal,
    tg_inverse,
    tg_multiply,
    zero_algebra,
)

SPECS = [
    general_linear(1),
    general_linear(2),
    general_linear(3),
    general_linear(4),
    special_linear(2),
    special_orthogonal(2),
    special_orthogonal(3),
    circle(),
]


def series_exp(matrix: np.ndarray, terms: int = 60) -> np.ndarray:
    """Plain truncated Taylor series, the independent oracle for mat_exp."""
    out = np.eye(matrix.shape[0])
    term = np.eye(matrix.shape[0])
    for k in range(1, terms):
        term = term @ matrix / k
        out = out + term
    return out


def tangent_pair(spec, seed) -> TangentGroupElement:
    return sample_tangent_element(spec, seed)


class TestMatExp:
    @pytest.mark.parametrize("spec", SPECS, ids=[s.describe() for s in SPECS])
    def test_matches_truncated_series(self, spec):
        for i in range(5):
            B = sample_algebra_element(spec, (3, i))
            got = mat_exp(B, 0.7).matrix
            want = series_exp(0.7 * B.matrix)
            assert relative_residual(got, want) < 1e-12

    def test_zero_direction_gives_identity(self):
        for spec in SPECS:
            got = mat_exp(zero_algebra(spec)).matrix
            np.testing.assert_array_equal(got, np.eye(spec.dim))

    def test_scalar_value(self):
        B = algebra_element([[1.0]], general_linear(1))
        assert mat_exp(B, 3.0).matrix[0, 0] == pytest.approx(20.085536923187668, rel=1e-14)

    def test_rotation_closed_form(self):
        generator = algebra_element([[0.0, 1.0], [-1.0, 0.0]], circle())
        for theta in [0.3, -1.2, math.pi / 2, 2.9]:
            got = mat_exp(generator, theta).matrix
            want = np.array(
                [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
            )
            assert np.max(np.abs(got - want)) < 1e-14

    def test_quarter_turn_frozen(self):
        generator = algebra_element([[0.0, 1.0], [-1.0, 0.0]], circle())
        got = mat_exp(generator, math.pi / 2).matrix
        np.testing.assert_allclose(got, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_overflow_guard(self):
        B = algebra_element([[1000.0]], general_linear(1))
        with pytest.raises(ExponentOverflowError):
            mat_exp(B, 1.0)
        with pytest.raises(ValueError):
            mat_exp(B, float("nan"))


class TestMembership:
    def test_special_linear_accepts_unimodular(self):
        a = group_element([[2.0, 0.0], [0.0, 0.5]], special_linear(2))
        assert group_membership_residual(a.matrix, special_linear(2)) < 1e-15

    def test_special_linear_rejects_other_determinants(self):
        with pytest.raises(MembershipError):
            group_element([[2.0, 0.0], [0.0, 1.0]], special_linear(2))

    def test_orthogonal_rejects_shear(self):
        with pytest.raises(MembershipError):
            group_element([[1.0, 1.0], [0.0, 1.0]], circle())

    def test_rejects_singular(self):
        with pytest.raises(MembershipError):
            group_element([[1.0, 0.0], [0.0, 0.0]], general_linear(2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            group_element([[np.nan, 0.0], [0.0, 1.0]], general_linear(2))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            group_element(np.eye(3), circle())
        with pytest.raises(ValueError):
            group_element(np.ones((2, 3)), general_linear(2))

    def test_algebra_constraints(self):
        assert algebra_membership_residual([[1.0, 2.0], [3.0, -1.0]], special_linear(2)) == 0.0
        with pytest.raises(MembershipError):
            algebra_element([[1.0, 0.0], [0.0, 1.0]], special_linear(2))
        with pytest.raises(MembershipError):
            algebra_element([[0.0, 1.0], [1.0, 0.0]], special_orthogonal(2))
        algebra_element([[0.0, 1.0], [-1.0, 0.0]], special_orthogonal(2))

    def test_elements_are_read_only(self):
        a = sample_group_element(circle(), 0)
        with pytest.raises(ValueError):
            a.matrix[0, 0] = 5.0


def dense_embed(X: TangentGroupElement) -> np.ndarray:
    """Independent 2x2-block picture of a tangent pair, used as the oracle
    for the tangent group law."""
    a = X.base.matrix
    b = X.algebra.matrix
    n = a.shape[0]
    return np.block([[a, np.zeros((n, n))], [b @ a, a]])


class TestTangentGroupLaw:
    def test_frozen_scalar_product(self):
        spec = general_linear(1)
        X = TangentGroupElement(group_element([[2.0]], spec), algebra_element([[3.0]], spec))
        Y = TangentGroupElement(group_element([[5.0]], spec), algebra_element([[7.0]], spec))
        Z = tg_multiply(X, Y)
        assert Z.base.matrix[0, 0] == pytest.approx(10.0, abs=1e-15)
        assert Z.algebra.matrix[0, 0] == pytest.approx(10.0, abs=1e-12)

    def test_frozen_scalar_inverse(self):
        spec = general_linear(1)
        X = TangentGroupElement(group_element([[2.0]], spec), algebra_element([[3.0]], spec))
        Z = tg_inverse(X)
        assert Z.base.matrix[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert Z.algebra.matrix[0, 0] == pytest.approx(-3.0, abs=1e-12)

    @pytest.mark.parametrize("spec", SPECS, ids=[s.describe() for s in SPECS])
    def test_matches_block_oracle(self, spec):
        for i in range(20):
            X = tangent_pair(spec, (13, i))
            Y = tangent_pair(spec, (17, i))
            got = dense_embed(tg_multiply(X, Y))
            want = dense_embed(X) @ dense_embed(Y)
            assert relative_residual(got, want) < 1e-11

    @pytest.mark.parametrize("spec", SPECS, ids=[s.describe() for s in SPECS])
    def test_identity_and_inverse_laws(self, spec):
        e = identity_tangent(spec)
        for i in range(10):
            X = tangent_pair(spec, (19, i))
            left = tg_multiply(e, X)
            right = tg_multiply(X, e)
            for Z in (left, right):
                assert relative_residual(Z.base.matrix, X.base.matrix) < 1e-12
                assert relative_residual(Z.algebra.matrix, X.algebra.matrix) < 1e-12
            unit = tg_multiply(X, tg_inverse(X))
            assert relative_residual(unit.base.matrix, np.eye(spec.dim)) < 1e-10
            assert np.max(np.abs(unit.algebra.matrix)) < 1e-10

    @pytest.mark.parametrize(
        "spec",
        [general_linear(2), special_linear(2), special_orthogonal(3), circle()],
        ids=["gl2", "sl2", "so3", "circle"],
    )
    def test_associativity_on_many_triples(self, spec):
        pool = [tangent_pair(spec, (23, i)) for i in range(30)]
        rng = np.random.default_rng(101)
        for _ in range(1000):
            X, Y, Z = (pool[k] for k in rng.integers(0, len(pool), 3))
            left = tg_multiply(tg_multiply(X, Y), Z)
            right = tg_multiply(X, tg_multiply(Y, Z))
            assert relative_residual(left.base.matrix, right.base.matrix) < 1e-8
            assert relative_residual(left.algebra.matrix, right.algebra.matrix) < 1e-8

    def test_zero_fiber_inverse_is_group_inverse(self):
        spec = special_orthogonal(3)
        a = sample_group_element(spec, 5)
        X = TangentGroupElement(a, zero_algebra(spec))
        Z = tg_inverse(X)
        assert relative_residual(Z.base.matrix, np.linalg.inv(a.matrix)) < 1e-12
        assert np.max(np.abs(Z.algebra.matrix)) == 0.0

    def test_spec_mismatch_rejected(self):
        X = tangent_pair(circle(), 1)
        Y = tangent_pair(general_linear(2), 1)
        with pytest.raises(SpecMismatchError):
            tg_multiply(X, Y)
        a = sample_group_element(circle(), 2)
        B = sample_algebra_element(general_linear(2), 2)
        with pytest.raises(SpecMismatchError):
            TangentGroupElement(a, B)


class TestSampling:
    @pytest.mark.parametrize("spec", SPECS, ids=[s.describe() for s in SPECS])
    def test_deterministic_in_seed(self, spec):
        first = sample_group_element(spec, 42).matrix
        second = sample_group_element(spec, 42).matrix
        np.testing.assert_array_equal(first, second)
        other = sample_group_element(spec, 43).matrix
        assert np.max(np.abs(first - other)) > 1e-6

    @pytest.mark.parametrize("spec", SPECS, ids=[s.describe() for s in SPECS])
    def test_samples_satisfy_membership(self, spec):
        for i in range(10):
            a = sample_group_element(spec, (29, i))
            assert group_membership_residual(a.matrix, spec) < 1e-9
            B = sample_algebra_element(spec, (31, i))
            assert algebra_membership_residual(B.matrix, spec) < 1e-12

    def test_multiplication_preserves_membership(self):
        spec = special_orthogonal(3)
        a = sample_group_element(spec, 1)
        b = sample_group_element(spec, 2)
        c = group_multiply(a, b)
        assert group_membership_residual(c.matrix, spec) < 1e-12
        assert group_membership_residual(np.linalg.inv(c.matrix), spec) < 1e-12


class TestAlgebraBasisAndCharts:
    def test_basis_sizes(self):
        assert len(algebra_basis(general_linear(2))) == 4
        assert len(algebra_basis(special_linear(2))) == 3
        assert len(algebra_basis(special_orthogonal(3))) == 3
        assert len(algebra_basis(circle())) == 1
        assert len(algebra_basis(special_orthogonal(2))) == 1
        assert len(algebra_basis(general_linear(4))) == 16

    def test_circle_generator_frozen(self):
        (generator,) = algebra_basis(circle())
        np.testing.assert_array_equal(generator, [[0.0, 1.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("spec", SPECS, ids=[s.describe() for s in SPECS])
    def test_coordinate_round_trip(self, spec):
        B = sample_algebra_element(spec, 7)
        coords = algebra_coordinates(B)
        back = algebra_from_coordinates(coords, spec)
        assert relative_residual(back.matrix, B.matrix) < 1e-12

    def test_coordinate_count_enforced(self):
        with pytest.raises(ValueError):
            algebra_from_coordinates([1.0, 2.0], circle())

    def test_circle_log_covers_half_turn(self):
        half_turn = circle_element(math.pi)
        log = principal_log(half_turn)
        np.testing.assert_allclose(log.matrix, [[0.0, math.pi], [-math.pi, 0.0]], atol=1e-15)
        assert group_coordinates(half_turn)[0] == pytest.approx(math.pi)

    def test_general_log_round_trip(self):
        a = sample_group_element(general_linear(2), 3)
        log = principal_log(a)
        assert relative_residual(mat_exp(log).matrix, a.matrix) < 1e-10

    def test_log_outside_chart_raises(self):
        a = group_element([[-1.0, 0.0], [0.0, -2.0]], general_linear(2))
        with pytest.raises(ChartError):
            principal_log(a)


class TestResidualHelper:
    def test_zero_for_equal(self):
        assert relative_residual(np.eye(3), np.eye(3)) == 0.0

    def test_absolute_for_small_scale(self):
        assert relative_residual(np.array([[0.5]]), np.array([[0.0]])) == 0.5

    def test_relative_for_large_scale(self):
        assert relative_residual(np.array([[1001.0]]), np.array([[1000.0]])) == pytest.approx(
            1e-3
        )

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            relative_residual(np.eye(2), np.eye(3))


class TestStacks:
    @pytest.mark.parametrize("spec", SPECS, ids=[s.describe() for s in SPECS])
    def test_stacked_samplers_match_the_scalar_ones_bit_for_bit(self, spec):
        seeds = [(71, i) for i in range(7)] + [5]
        groups = sample_group_elements(spec, seeds)
        tangents = sample_tangent_elements(spec, seeds)
        assert groups.matrix.shape == (len(seeds), spec.dim, spec.dim)
        for k, seed in enumerate(seeds):
            np.testing.assert_array_equal(
                groups.matrix[k], sample_group_element(spec, seed).matrix
            )
            X = sample_tangent_element(spec, seed)
            np.testing.assert_array_equal(tangents.base.matrix[k], X.base.matrix)
            np.testing.assert_array_equal(tangents.algebra.matrix[k], X.algebra.matrix)

    @pytest.mark.parametrize("spec", SPECS, ids=[s.describe() for s in SPECS])
    def test_stacked_arithmetic_matches_slices_bit_for_bit(self, spec):
        X = sample_tangent_elements(spec, range(6))
        Y = sample_tangent_elements(spec, range(6, 12))
        product = tg_multiply(X, Y)
        inverse = tg_inverse(X)
        for k in range(6):
            x = sample_tangent_element(spec, k)
            y = sample_tangent_element(spec, 6 + k)
            single = tg_multiply(x, y)
            np.testing.assert_array_equal(product.base.matrix[k], single.base.matrix)
            np.testing.assert_array_equal(product.algebra.matrix[k], single.algebra.matrix)
            np.testing.assert_array_equal(
                inverse.algebra.matrix[k], tg_inverse(x).algebra.matrix
            )
            np.testing.assert_array_equal(
                mat_exp(X.algebra, 0.3).matrix[k], mat_exp(x.algebra, 0.3).matrix
            )

    def test_one_bad_slice_rejects_the_whole_stack(self):
        with pytest.raises(MembershipError):
            GroupElement(np.stack([np.eye(3), np.diag([1.0, 1.0, -1.0])]), special_orthogonal(3))
        with pytest.raises(MembershipError):
            GroupElement(np.stack([np.eye(2), [[1.0, 0.0], [0.0, 0.0]]]), general_linear(2))
        with pytest.raises(MembershipError):
            AlgebraElement(np.stack([np.zeros((2, 2)), np.eye(2)]), special_linear(2))
        with pytest.raises(ValueError):
            GroupElement(np.stack([np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]]), general_linear(2))
        big = AlgebraElement(np.stack([np.zeros((2, 2)), 800.0 * np.eye(2)]), general_linear(2))
        with pytest.raises(ExponentOverflowError):
            mat_exp(big)

    def test_block_diag_fills_blocks_slice_by_slice(self):
        a = np.arange(8.0).reshape(2, 2, 2)
        out = block_diag(a, np.ones((1, 1)))
        assert out.shape == (2, 3, 3)
        for k in range(2):
            np.testing.assert_array_equal(out[k, :2, :2], a[k])
            np.testing.assert_array_equal(out[k, 2, :], [0.0, 0.0, 1.0])
            np.testing.assert_array_equal(out[k, :2, 2], [0.0, 0.0])

    @pytest.mark.parametrize(
        "spec", SPECS + [special_linear(3), special_orthogonal(4)], ids=lambda s: s.describe()
    )
    def test_logarithm_and_coordinates_of_a_stack_match_slices_bit_for_bit(
        self, spec, pinned_logm
    ):
        X = sample_tangent_elements(spec, range(8))
        logs = principal_log(X.base)
        coords = group_coordinates(X.base)
        fibers = algebra_coordinates(X.algebra)
        k = len(algebra_basis(spec))
        assert logs.matrix.shape == (8, spec.dim, spec.dim)
        assert coords.shape == fibers.shape == (8, k)
        for i in range(8):
            x = sample_tangent_element(spec, i)
            np.testing.assert_array_equal(logs.matrix[i], principal_log(x.base).matrix)
            np.testing.assert_array_equal(coords[i], group_coordinates(x.base))
            np.testing.assert_array_equal(fibers[i], algebra_coordinates(x.algebra))

    def test_one_slice_outside_the_chart_rejects_the_stack(self):
        spec = special_linear(2)
        outside = np.array([[-2.0, 0.0], [0.0, -0.5]])
        stack = GroupElement(np.stack([np.eye(2), outside]), spec)
        with pytest.raises(ChartError):
            principal_log(stack)
