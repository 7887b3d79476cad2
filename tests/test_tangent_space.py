import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lieprolong import (
    TangentVector,
    tv_add,
    tv_scale,
    tv_zero,
)


def vec(base, fiber) -> TangentVector:
    return TangentVector(np.array(base, dtype=float), np.array(fiber, dtype=float))


def int_vector(n: int):
    coord = st.integers(min_value=-1000, max_value=1000)
    return st.tuples(
        st.lists(coord, min_size=n, max_size=n), st.lists(coord, min_size=n, max_size=n)
    ).map(lambda pair: vec(pair[0], pair[1]))


int_scalar = st.integers(min_value=-30, max_value=30)


def assert_exact(u: TangentVector, w: TangentVector) -> None:
    np.testing.assert_array_equal(u.base, w.base)
    np.testing.assert_array_equal(u.fiber, w.fiber)


class TestBasicOps:
    def test_add_frozen(self):
        out = tv_add(vec([1, 2], [3, 4]), vec([5, 6], [7, 8]))
        np.testing.assert_array_equal(out.base, [6.0, 8.0])
        np.testing.assert_array_equal(out.fiber, [10.0, 12.0])

    def test_scale_frozen(self):
        out = tv_scale(2.0, vec([1, 0], [0, 3]))
        np.testing.assert_array_equal(out.base, [2.0, 0.0])
        np.testing.assert_array_equal(out.fiber, [0.0, 6.0])

    def test_zero(self):
        z = tv_zero(3)
        np.testing.assert_array_equal(z.base, np.zeros(3))
        np.testing.assert_array_equal(z.fiber, np.zeros(3))

    def test_coordinates_round_trip(self):
        u = vec([1, 2, 3], [4, 5, 6])
        np.testing.assert_array_equal(u.coordinates, [1, 2, 3, 4, 5, 6])
        assert_exact(TangentVector(u.coordinates[:3], u.coordinates[3:]), u)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tv_add(vec([1], [2]), vec([1, 2], [3, 4]))
        with pytest.raises(ValueError):
            TangentVector(np.zeros(2), np.zeros(3))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            vec([np.inf], [0.0])

    def test_vectors_are_read_only(self):
        u = vec([1.0], [2.0])
        with pytest.raises(ValueError):
            u.base[0] = 9.0


class TestVectorSpaceAxioms:
    """The eight axioms, exactly, on integer-valued data.

    Integer coordinates below 2**53 make every sum and product exact in
    doubles, so equality here is bitwise, not approximate.
    """

    @given(int_vector(3), int_vector(3))
    def test_commutativity(self, u, w):
        assert_exact(tv_add(u, w), tv_add(w, u))

    @given(int_vector(3), int_vector(3), int_vector(3))
    def test_associativity(self, u, w, z):
        assert_exact(tv_add(tv_add(u, w), z), tv_add(u, tv_add(w, z)))

    @given(int_vector(2))
    def test_additive_identity(self, u):
        assert_exact(tv_add(u, tv_zero(2)), u)

    @given(int_vector(2))
    def test_additive_inverse(self, u):
        assert_exact(tv_add(u, tv_scale(-1.0, u)), tv_zero(2))

    @given(int_scalar, int_vector(2), int_vector(2))
    def test_scalar_distributes_over_vectors(self, c, u, w):
        assert_exact(tv_scale(c, tv_add(u, w)), tv_add(tv_scale(c, u), tv_scale(c, w)))

    @given(int_scalar, int_scalar, int_vector(2))
    def test_vector_distributes_over_scalars(self, c, d, u):
        assert_exact(tv_scale(c + d, u), tv_add(tv_scale(c, u), tv_scale(d, u)))

    @given(int_scalar, int_scalar, int_vector(2))
    def test_scalar_composition(self, c, d, u):
        assert_exact(tv_scale(c * d, u), tv_scale(c, tv_scale(d, u)))

    @given(int_vector(2))
    def test_unit_scalar(self, u):
        assert_exact(tv_scale(1.0, u), u)

    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=4, max_size=4),
    )
    def test_float_commutativity_is_still_exact(self, c, coords):
        u = TangentVector(coords[:2], coords[2:])
        w = tv_scale(c, u)
        assert_exact(tv_add(u, w), tv_add(w, u))
