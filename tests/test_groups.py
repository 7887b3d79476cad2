import math
import weakref

import numpy as np
import pytest
from descriptors import gl2_det_power
from elements import circle_element
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    algebra_from_coordinates,
    algebra_membership_residual,
    block_diag,
    circle,
    general_linear,
    group_coordinates,
    group_membership_residual,
    group_multiply,
    identity_element,
    load_representation,
    mat_exp,
    principal_log,
    relative_residual,
    rep_image,
    sample_tangent_element,
    sample_tangent_elements,
    special_linear,
    special_orthogonal,
    tg_inverse,
    tg_multiply,
)
from lieprolong import groups
from lieprolong.groups import _require_invertible, _uniform_draws

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
            B = sample_tangent_element(spec, (3, i)).algebra
            got = mat_exp(B, 0.7).matrix
            want = series_exp(0.7 * B.matrix)
            assert relative_residual(got, want) < 1e-12

    def test_zero_direction_gives_identity(self):
        for spec in SPECS:
            got = mat_exp(AlgebraElement(np.zeros((spec.dim, spec.dim)), spec)).matrix
            np.testing.assert_array_equal(got, np.eye(spec.dim))

    def test_scalar_value(self):
        B = AlgebraElement([[1.0]], general_linear(1))
        assert mat_exp(B, 3.0).matrix[0, 0] == pytest.approx(20.085536923187668, rel=1e-14)

    def test_rotation_closed_form(self):
        generator = AlgebraElement([[0.0, 1.0], [-1.0, 0.0]], circle())
        for theta in [0.3, -1.2, math.pi / 2, 2.9]:
            got = mat_exp(generator, theta).matrix
            want = np.array(
                [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
            )
            assert np.max(np.abs(got - want)) < 1e-14

    def test_quarter_turn_frozen(self):
        generator = AlgebraElement([[0.0, 1.0], [-1.0, 0.0]], circle())
        got = mat_exp(generator, math.pi / 2).matrix
        np.testing.assert_allclose(got, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_overflow_guard(self):
        B = AlgebraElement([[1000.0]], general_linear(1))
        with pytest.raises(ExponentOverflowError):
            mat_exp(B, 1.0)
        with pytest.raises(ValueError):
            mat_exp(B, float("nan"))


class TestMembership:
    def test_special_linear_accepts_unimodular(self):
        a = GroupElement([[2.0, 0.0], [0.0, 0.5]], special_linear(2))
        assert group_membership_residual(a.matrix, special_linear(2)) < 1e-15

    def test_special_linear_rejects_other_determinants(self):
        with pytest.raises(MembershipError):
            GroupElement([[2.0, 0.0], [0.0, 1.0]], special_linear(2))

    def test_orthogonal_rejects_shear(self):
        with pytest.raises(MembershipError):
            GroupElement([[1.0, 1.0], [0.0, 1.0]], circle())

    def test_rejects_singular(self):
        with pytest.raises(MembershipError):
            GroupElement([[1.0, 0.0], [0.0, 0.0]], general_linear(2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            GroupElement([[np.nan, 0.0], [0.0, 1.0]], general_linear(2))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            GroupElement(np.eye(3), circle())
        with pytest.raises(ValueError):
            GroupElement(np.ones((2, 3)), general_linear(2))

    def test_trivial_groups_are_refused(self):
        for make in (special_linear, special_orthogonal):
            with pytest.raises(ValueError, match=r"\(1\) is the trivial group"):
                make(1)

    def test_algebra_constraints(self):
        assert algebra_membership_residual([[1.0, 2.0], [3.0, -1.0]], special_linear(2)) == 0.0
        with pytest.raises(MembershipError):
            AlgebraElement([[1.0, 0.0], [0.0, 1.0]], special_linear(2))
        with pytest.raises(MembershipError):
            AlgebraElement([[0.0, 1.0], [1.0, 0.0]], special_orthogonal(2))
        AlgebraElement([[0.0, 1.0], [-1.0, 0.0]], special_orthogonal(2))

    def test_elements_are_read_only(self):
        for element in (
            sample_tangent_element(circle(), 0).base,
            identity_element(special_linear(3)),
            AlgebraElement(np.zeros((2, 2)), general_linear(2)),
        ):
            with pytest.raises(ValueError):
                element.matrix[0, 0] = 5.0


def exact_gate(matrix: np.ndarray):
    """The refusal of the plain gate ``np.linalg.cond <= 1e12`` as (message,
    position), or ``None`` when it accepts."""
    cond = np.linalg.cond(matrix)
    ok = cond <= 1e12
    if np.all(ok):
        return None
    message = f"matrix is singular or too ill-conditioned to invert (cond={np.max(cond):.3e})"
    return message, (int(np.flatnonzero(~ok)[0]) if ok.ndim else None)


def assert_gate_is_exact(matrix) -> None:
    """``_require_invertible`` accepts and refuses as the plain gate does,
    and what it returns on acceptance bounds ``cond`` from above."""
    matrix = np.array(matrix, dtype=float)
    expected = exact_gate(matrix)
    if expected is None:
        assert np.all(_require_invertible(matrix) >= np.linalg.cond(matrix))
    else:
        with pytest.raises(MembershipError) as info:
            _require_invertible(matrix)
        assert (str(info.value), info.value.position) == expected


def rotations(count: int) -> np.ndarray:
    return sample_tangent_elements(circle(), [(3, i) for i in range(count)]).base.matrix.copy()


class TestInvertibilityCertificate:
    """The gate behind every group element and prolonged image takes an SVD
    only where a cheap bound cannot place ``cond`` well inside the limit;
    its verdicts are the exact gate's."""

    @pytest.mark.parametrize(
        ("power", "worst"),
        [(13.5, (1e11, 5e11)), (14.0, (1e11, 5e11)), (14.5, (5e11, 1e12)), (15.0, (1e12, 1e13))],
    )
    def test_det_power_images_straddling_the_limit(self, power, worst):
        # cond = det(a)^power: the worst of these samples is certified at
        # powers 13.5 and 14, needs the SVD to be accepted at 14.5 and is
        # refused at 15.
        rep = load_representation(gl2_det_power(power))
        bases = sample_tangent_elements(general_linear(2), [(9, i) for i in range(200)]).base
        images = rep_image(rep, bases)
        low, high = worst
        assert low < np.max(np.linalg.cond(images)) <= high
        assert_gate_is_exact(images)
        for image in images:
            assert_gate_is_exact(image)
            assert_gate_is_exact(image[None])

    @pytest.mark.parametrize(
        "bad",
        [
            [[1.0, 2.0], [2.0, 4.0]],
            [[0.0, 0.0], [0.0, 0.0]],
            [[1.0, 2.0], [2.0, 4.0 + 1e-13]],
            [[1.0, 0.0], [0.0, 9e-13]],
            [[1.0, 0.0], [0.0, 1.5e-12]],
            [[1e-200, 0.0], [0.0, 1e-200]],
        ],
        ids=["singular", "zero", "near_singular", "past_limit", "below_limit", "tiny_scalar"],
    )
    def test_one_bad_slice_in_a_stack(self, bad):
        stack = rotations(6)
        stack[3] = bad
        assert_gate_is_exact(stack)
        assert_gate_is_exact(stack[3])

    def test_inverse_too_inaccurate_to_bound_anything(self):
        # Singular in exact arithmetic, not after rounding: LU's inverse
        # leaves |M X - I| above 1, where the bound's denominator turns
        # negative.
        bad = np.arange(1.0, 17.0).reshape(4, 4) / 10
        stack = np.stack([np.eye(4), bad, np.eye(4)])
        assert_gate_is_exact(stack)
        assert_gate_is_exact(bad)

    @pytest.mark.parametrize("value", [3.0, -2.5, 1.0, 1e300, 1e-300, 1e-310, 0.0])
    def test_one_by_one(self, value):
        assert_gate_is_exact([[value]])
        stack = np.linspace(0.5, 4.0, 7).reshape(7, 1, 1)
        assert_gate_is_exact(stack)
        stack[4] = value
        assert_gate_is_exact(stack)

    def test_well_conditioned_stacks_take_no_svd(self, monkeypatch):
        stacks = [
            rotations(50),
            sample_tangent_elements(general_linear(3), range(50)).base.matrix,
            np.linspace(0.5, 4.0, 7).reshape(7, 1, 1),
        ]
        exact = [np.linalg.cond(stack) for stack in stacks]

        def refuse(*args, **kwargs):
            raise AssertionError("an SVD was taken")

        monkeypatch.setattr(np.linalg, "cond", refuse)
        for stack, cond in zip(stacks, exact):
            assert np.all(_require_invertible(stack) >= cond)


class TestExponentialCertificate:
    """Exponentials and their products carry a bound on ``cond`` and skip
    the gate while it stays within half the limit; everything else is
    gated as before."""

    def count_gates(self, monkeypatch) -> list:
        gate, calls = groups._require_invertible, []
        monkeypatch.setattr(groups, "_require_invertible", lambda m: calls.append(m) or gate(m))
        return calls

    @pytest.mark.parametrize("spec", SPECS, ids=[s.describe() for s in SPECS])
    def test_sampled_stacks_take_no_inverse(self, monkeypatch, spec):
        def refuse(*args, **kwargs):
            raise AssertionError("an inverse was taken")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        calls = self.count_gates(monkeypatch)
        X = sample_tangent_elements(spec, [(37, i) for i in range(50)])
        Y = sample_tangent_elements(spec, [(41, i) for i in range(50)])
        product = group_multiply(X.base, Y.base)
        # The oracle's curve points.
        for t in (1e-6, -1e-6):
            group_multiply(mat_exp(X.algebra, t), X.base)
        group_multiply(product, mat_exp(Y.algebra, 2.0))
        assert calls == []

    @pytest.mark.parametrize("spec", SPECS, ids=[s.describe() for s in SPECS])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_bound_is_at_least_the_exact_cond(self, spec, t):
        X = sample_tangent_elements(spec, [(43, i) for i in range(40)])
        Y = sample_tangent_elements(spec, [(47, i) for i in range(40)])
        a, b = mat_exp(X.algebra, t), mat_exp(Y.algebra, -t)
        for element in (a, b, group_multiply(a, b), group_multiply(group_multiply(a, b), a)):
            assert element._cond >= np.max(np.linalg.cond(element.matrix))

    @pytest.mark.parametrize("d", [13.0, 13.5])
    def test_wide_exponential_is_accepted_through_the_gate(self, monkeypatch, d):
        calls = self.count_gates(monkeypatch)
        a = mat_exp(AlgebraElement(np.diag([d, -d]), general_linear(2)))
        assert len(calls) == 1
        assert a._cond >= np.linalg.cond(a.matrix) == pytest.approx(math.exp(2 * d))

    def test_too_wide_exponential_is_refused_as_before(self, monkeypatch):
        calls = self.count_gates(monkeypatch)
        with pytest.raises(MembershipError) as info:
            mat_exp(AlgebraElement(np.diag([14.0, -14.0]), general_linear(2)))
        assert str(info.value) == (
            "matrix is singular or too ill-conditioned to invert (cond=1.446e+12)"
        )
        assert len(calls) == 1

    def test_product_bound_covers_the_rounding_of_the_product(self):
        # a = Q diag(1, delta) Q^T: the gate's bound on cond(a) is nearly
        # exact, and the rounding of a a moves its cond by up to 1e-5, past
        # cond(a)^2.
        spec = general_linear(2)
        for theta in np.linspace(0.1, 1.5, 40):
            for delta in (1e-4, 1e-5, 3e-6):
                c, s = math.cos(theta), math.sin(theta)
                Q = np.array([[c, s], [-s, c]])
                a = GroupElement(Q @ np.diag([1.0, delta]) @ Q.T, spec)
                product = group_multiply(a, a)
                assert product._cond >= np.linalg.cond(product.matrix)

    def test_user_elements_and_inverses_are_gated(self, monkeypatch):
        calls = self.count_gates(monkeypatch)
        spec = general_linear(2)
        user = GroupElement([[2.0, 1.0], [0.0, 1.0]], spec)
        assert len(calls) == 1
        X = sample_tangent_elements(spec, [(53, i) for i in range(5)])
        tg_inverse(X)
        assert len(calls) == 2
        with pytest.raises(MembershipError, match="ill-conditioned"):
            GroupElement([[1.0, 2.0], [2.0, 4.0 + 1e-13]], spec)
        # A product of gated elements keeps the gate's bounds.
        assert group_multiply(user, user)._cond >= np.linalg.cond(user.matrix @ user.matrix)


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
        X = TangentGroupElement(GroupElement([[2.0]], spec), AlgebraElement([[3.0]], spec))
        Y = TangentGroupElement(GroupElement([[5.0]], spec), AlgebraElement([[7.0]], spec))
        Z = tg_multiply(X, Y)
        assert Z.base.matrix[0, 0] == pytest.approx(10.0, abs=1e-15)
        assert Z.algebra.matrix[0, 0] == pytest.approx(10.0, abs=1e-12)

    def test_frozen_scalar_inverse(self):
        spec = general_linear(1)
        X = TangentGroupElement(GroupElement([[2.0]], spec), AlgebraElement([[3.0]], spec))
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
        zero = AlgebraElement(np.zeros((spec.dim, spec.dim)), spec)
        e = TangentGroupElement(identity_element(spec), zero)
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
        a = sample_tangent_element(spec, 5).base
        X = TangentGroupElement(a, AlgebraElement(np.zeros((3, 3)), spec))
        Z = tg_inverse(X)
        assert relative_residual(Z.base.matrix, np.linalg.inv(a.matrix)) < 1e-12
        assert np.max(np.abs(Z.algebra.matrix)) == 0.0

    def test_spec_mismatch_rejected(self):
        X = tangent_pair(circle(), 1)
        Y = tangent_pair(general_linear(2), 1)
        with pytest.raises(SpecMismatchError):
            tg_multiply(X, Y)
        a = sample_tangent_element(circle(), 2).base
        B = sample_tangent_element(general_linear(2), 2).algebra
        with pytest.raises(SpecMismatchError):
            TangentGroupElement(a, B)


class TestSampling:
    @pytest.mark.parametrize("spec", SPECS, ids=[s.describe() for s in SPECS])
    def test_deterministic_in_seed(self, spec):
        first = sample_tangent_element(spec, 42).base.matrix
        second = sample_tangent_element(spec, 42).base.matrix
        np.testing.assert_array_equal(first, second)
        other = sample_tangent_element(spec, 43).base.matrix
        assert np.max(np.abs(first - other)) > 1e-6

    @pytest.mark.parametrize("spec", SPECS, ids=[s.describe() for s in SPECS])
    def test_samples_satisfy_membership(self, spec):
        for i in range(10):
            a = sample_tangent_element(spec, (29, i)).base
            assert group_membership_residual(a.matrix, spec) < 1e-9
            B = sample_tangent_element(spec, (31, i)).algebra
            assert algebra_membership_residual(B.matrix, spec) < 1e-12

    def test_multiplication_preserves_membership(self):
        spec = special_orthogonal(3)
        a = sample_tangent_element(spec, 1).base
        b = sample_tangent_element(spec, 2).base
        c = group_multiply(a, b)
        assert group_membership_residual(c.matrix, spec) < 1e-12
        assert group_membership_residual(np.linalg.inv(c.matrix), spec) < 1e-12


# Key elements SeedSequence splits into one 32-bit word (0 among them) or
# two (from 2**32 up to just below 2**63).
KEY_ELEMENTS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**63 - 1),
    st.integers(2**63 - 2**20, 2**63 - 1),
)
# Up to six elements, so up to twelve words: past the four-word pool.
KEYS = st.one_of(KEY_ELEMENTS, st.lists(KEY_ELEMENTS, min_size=1, max_size=6).map(tuple))


class TestUniformDraws:
    """The vectorized seeding and stream against numpy's own generators."""

    @settings(max_examples=60, deadline=None)
    @given(keys=st.lists(KEYS, min_size=1, max_size=8), count=st.integers(1, 2 * 16**2))
    @example(keys=[0, (2**32, 1), (2**63 - 1, 0, 5, 7, 2**40, 3), (1, 2, 3, 4, 5)], count=2 * 16**2)
    def test_each_row_is_numpys_stream(self, keys, count):
        draws = _uniform_draws(keys, count)
        assert draws.shape == (len(keys), count)
        for row, key in zip(draws, keys):
            rng = np.random.default_rng(key if isinstance(key, int) else list(key))
            np.testing.assert_array_equal(row, rng.uniform(-1.0, 1.0, count))
            # The circle's scalar draw is the first of the same stream.
            assert row[0] == np.random.default_rng(key).uniform(-1.0, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(
        keys=st.lists(KEYS, min_size=1, max_size=6),
        counts=st.lists(st.integers(0, 3 * 64 + 5), min_size=1, max_size=5),
    )
    def test_a_held_stream_extends_and_slices(self, keys, counts):
        # Increasing counts, then the same decreasing: each draw is numpy's
        # prefix, whether it extends the held stream or slices it.  A tuple
        # of the same keys, taken as it is when already reduced, names the
        # same stream.
        ascending = sorted(counts)
        stream = groups._stream(keys)
        for k, count in enumerate(ascending + ascending[::-1]):
            same = tuple(keys) if k % 2 else keys
            assert groups._stream(same) is stream
            draws = _uniform_draws(same, count)
            assert draws.shape == (len(keys), count)
            assert not draws.flags.writeable
            for row, key in zip(draws, keys):
                rng = np.random.default_rng(key if isinstance(key, int) else list(key))
                np.testing.assert_array_equal(row, rng.uniform(-1.0, 1.0, count))

    def test_a_stream_lives_as_long_as_a_stack_drawn_from_it(self):
        keys = [(59, i) for i in range(7)]
        X = sample_tangent_elements(circle(), keys)
        Y = sample_tangent_elements(general_linear(3), keys)
        assert X._stream is Y._stream is groups._stream(keys)
        ref = weakref.ref(X._stream)
        del X
        assert ref() is not None
        del Y
        assert ref() is None

    def test_keys_are_reduced_like_the_scalar_generator(self):
        keys = [-1, 2**64 + 3, (-5, 2**70), ()]
        expected = [np.random.default_rng(2**63 - 1), np.random.default_rng(3)]
        expected += [np.random.default_rng([2**63 - 5, 2**70 % 2**63])]
        expected += [np.random.default_rng([])]
        draws = _uniform_draws(keys, 5)
        for row, rng in zip(draws, expected):
            np.testing.assert_array_equal(row, rng.uniform(-1.0, 1.0, 5))


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
        B = sample_tangent_element(spec, 7).algebra
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
        a = sample_tangent_element(general_linear(2), 3).base
        log = principal_log(a)
        assert relative_residual(mat_exp(log).matrix, a.matrix) < 1e-10

    def test_log_outside_chart_raises(self):
        a = GroupElement([[-1.0, 0.0], [0.0, -2.0]], general_linear(2))
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
        tangents = sample_tangent_elements(spec, seeds)
        assert tangents.base.matrix.shape == (len(seeds), spec.dim, spec.dim)
        for k, seed in enumerate(seeds):
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

    def test_block_diag_places_rectangular_blocks(self):
        out = block_diag([[1.0, 2.0]], [[3.0], [4.0]])
        np.testing.assert_array_equal(
            out, [[1.0, 2.0, 0.0], [0.0, 0.0, 3.0], [0.0, 0.0, 4.0]]
        )

    @pytest.mark.parametrize(
        "spec", SPECS + [special_linear(3), special_orthogonal(4)], ids=lambda s: s.describe()
    )
    def test_logarithm_and_coordinates_of_a_stack_match_slices_bit_for_bit(self, spec):
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

    @pytest.mark.parametrize("spec", SPECS, ids=[s.describe() for s in SPECS])
    def test_coordinates_are_kept_read_only_on_the_element(self, spec):
        a = sample_tangent_elements(spec, range(8)).base
        coords = group_coordinates(a)
        assert group_coordinates(a) is coords
        np.testing.assert_array_equal(coords, algebra_coordinates(principal_log(a)))
        with pytest.raises(ValueError):
            coords[0] = 0.0

    @pytest.mark.parametrize("spec", SPECS, ids=[s.describe() for s in SPECS])
    def test_drawn_coordinates_are_the_exponent_s(self, spec):
        # Every draw here has |B_0|_F < pi, so no slice takes a logm; a
        # fresh element of the same matrices takes one per slice.
        a = sample_tangent_elements(spec, range(8)).base
        assert np.all(np.linalg.norm(a._exponent, axis=(-2, -1)) < math.pi)
        exponent = AlgebraElement(a._exponent, spec)
        np.testing.assert_array_equal(group_coordinates(a), algebra_coordinates(exponent))
        fresh = group_coordinates(GroupElement(a.matrix, spec))
        assert relative_residual(group_coordinates(a), fresh) <= 1e-14

    @pytest.mark.parametrize(
        "spec", SPECS + [special_linear(3), special_orthogonal(4)], ids=lambda s: s.describe()
    )
    def test_a_stack_across_the_bound_matches_its_slices_bit_for_bit(self, spec):
        # Slices scaled by 3.5 mostly lie past |tB|_F = pi and take their
        # logarithm from the matrix; the others keep their exponent.
        B = sample_tangent_elements(spec, range(8)).algebra.matrix
        scaled = B * np.array([0.5, 3.5] * 4)[:, None, None]
        norms = np.linalg.norm(scaled, axis=(-2, -1))
        assert np.any(norms < math.pi) and np.any(norms >= math.pi)
        a = mat_exp(AlgebraElement(scaled, spec))
        logs, coords = principal_log(a), group_coordinates(a)
        for i in range(8):
            x = mat_exp(AlgebraElement(scaled[i], spec))
            np.testing.assert_array_equal(logs.matrix[i], principal_log(x).matrix)
            np.testing.assert_array_equal(coords[i], group_coordinates(x))

    def test_a_slice_outside_the_bound_gets_the_principal_coordinate(self):
        spec = special_orthogonal(3)
        turn = mat_exp(AlgebraElement(algebra_basis(spec)[0], spec), 4.0)
        coords = group_coordinates(turn)
        np.testing.assert_allclose(coords, [4.0 - 2.0 * math.pi, 0.0, 0.0], atol=1e-12)
        # |2 E|_F = 2 sqrt(2) < pi: the exponent itself.
        inside = mat_exp(AlgebraElement(algebra_basis(spec)[0], spec), 2.0)
        np.testing.assert_array_equal(
            group_coordinates(inside), algebra_coordinates(AlgebraElement(inside._exponent, spec))
        )

    def test_an_exponential_outside_the_chart_still_raises(self):
        # exp of this slice is -I, whose principal logarithm is not real.
        half_turn = np.array([[0.0, 2.0 * math.pi], [-math.pi / 2.0, 0.0]])
        stack = np.stack([0.1 * np.eye(2), half_turn])
        a = mat_exp(AlgebraElement(stack, general_linear(2)))
        with pytest.raises(ChartError):
            principal_log(a)
        inside = mat_exp(AlgebraElement(stack[0], general_linear(2)))
        np.testing.assert_array_equal(principal_log(inside).matrix, stack[0])

    @pytest.mark.parametrize("spec", SPECS, ids=[s.describe() for s in SPECS])
    def test_identity_carries_exact_zero_coordinates(self, spec):
        coords = group_coordinates(identity_element(spec))
        np.testing.assert_array_equal(coords, np.zeros(len(algebra_basis(spec))))
        with pytest.raises(ValueError):
            coords[0] = 1.0

    def test_chart_error_is_raised_on_every_call(self):
        a = GroupElement([[-1.0, 0.0], [0.0, -2.0]], general_linear(2))
        for _ in range(2):
            with pytest.raises(ChartError):
                group_coordinates(a)

    def test_one_slice_outside_the_chart_rejects_the_stack(self):
        spec = special_linear(2)
        outside = np.array([[-2.0, 0.0], [0.0, -0.5]])
        stack = GroupElement(np.stack([np.eye(2), outside]), spec)
        with pytest.raises(ChartError):
            principal_log(stack)

    @pytest.mark.parametrize(
        "spec", [general_linear(3), special_linear(3)], ids=lambda s: s.describe()
    )
    def test_logarithm_does_not_depend_on_the_global_random_state(self, spec):
        # SciPy's logm estimates 1-norms with random probe vectors drawn
        # from numpy's global RNG; on these slices that changed last bits.
        # A fresh element of drawn matrices: it keeps no exponent.
        stack = GroupElement(sample_tangent_elements(spec, range(100)).base.matrix, spec)
        logs = []
        for seed in range(4):
            np.random.seed(seed)
            logs.append(principal_log(stack).matrix)
        for log in logs[1:]:
            np.testing.assert_array_equal(log, logs[0])

    def test_logarithm_leaves_the_global_random_state_alone(self):
        np.random.seed(17)
        expected = np.random.random(4)
        np.random.seed(17)
        spec = general_linear(3)
        principal_log(GroupElement(sample_tangent_elements(spec, range(8)).base.matrix, spec))
        np.testing.assert_array_equal(np.random.random(4), expected)
