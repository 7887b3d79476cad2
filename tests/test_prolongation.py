import math
import warnings

import numpy as np
import pytest
from descriptors import GENERATOR_DESCRIPTORS
from elements import circle_element

from lieprolong import (
    AlgebraElement,
    GroupElement,
    NonFiniteImageError,
    ProlongedMatrix,
    Representation,
    SpecMismatchError,
    TangentGroupElement,
    TangentVector,
    apply_prolonged,
    catalog_entry,
    catalog_names,
    check_action_oracle,
    circle,
    differential_rep,
    finite_difference_differential,
    general_linear,
    identity_element,
    jn_embed,
    load_representation,
    prolong,
    prolonged,
    rep_image,
    relative_residual,
    sample_tangent_element,
    sample_tangent_elements,
    special_orthogonal,
    tangent_action_oracle,
    tg_multiply,
)


def cusp(scale: float) -> Representation:
    """GL(1) with a square-root cusp at the identity: values at h = 1e-6 are
    about 1e-3 * scale and finite, but for a large scale their difference
    quotient, and the images far from the identity, overflow."""

    def apply(a):
        gap = a.matrix - np.eye(1)
        return np.eye(1) + np.sign(gap) * np.sqrt(np.abs(gap)) * scale

    return Representation(general_linear(1), 1, apply, lambda B: B.matrix)


def vec(base, fiber) -> TangentVector:
    return TangentVector(np.array(base, dtype=float), np.array(fiber, dtype=float))


def assert_exact(u: TangentVector, w: TangentVector) -> None:
    np.testing.assert_array_equal(u.base, w.base)
    np.testing.assert_array_equal(u.fiber, w.fiber)


def scalar_pair(a: float, b: float) -> TangentGroupElement:
    spec = general_linear(1)
    return TangentGroupElement(
        GroupElement([[a]], spec), AlgebraElement([[b]], spec)
    )


class TestJnEmbed:
    def test_identity_embeds_to_identity(self):
        spec = general_linear(3)
        zero = AlgebraElement(np.zeros((3, 3)), spec)
        M = jn_embed(TangentGroupElement(identity_element(spec), zero))
        np.testing.assert_array_equal(M.dense(), np.eye(6))

    def test_scalar_frozen(self):
        M = jn_embed(scalar_pair(2.0, 3.0))
        np.testing.assert_array_equal(M.dense(), [[2.0, 0.0], [6.0, 2.0]])

    def test_scalar_product_frozen(self):
        left = jn_embed(scalar_pair(2.0, 3.0))
        right = jn_embed(scalar_pair(5.0, 7.0))
        np.testing.assert_allclose(
            (left @ right).dense(), [[10.0, 0.0], [100.0, 10.0]], atol=1e-12
        )

    @pytest.mark.parametrize("spec", [general_linear(2), special_orthogonal(3), circle()])
    def test_turns_tg_multiplication_into_matrix_multiplication(self, spec):
        for i in range(25):
            X = sample_tangent_element(spec, (61, i))
            Y = sample_tangent_element(spec, (67, i))
            left = jn_embed(tg_multiply(X, Y)).dense()
            right = jn_embed(X).dense() @ jn_embed(Y).dense()
            assert relative_residual(left, right) < 1e-11

    def test_embedding_and_block_product_are_not_validated_again(self, monkeypatch):
        # The pair of acceptance criterion 01: only the two sampled bases and
        # their product are checked for invertibility, once each, and the
        # certificate passes all three without an SVD.
        cond = np.linalg.cond
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return cond(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cond", counted)
        spec = general_linear(3)
        X = sample_tangent_element(spec, (5, 0))
        Y = sample_tangent_element(spec, (5, 1))
        left = jn_embed(tg_multiply(X, Y)).dense()
        right = (jn_embed(X) @ jn_embed(Y)).dense()
        assert relative_residual(left, right) < 1e-11
        assert calls == []


class TestProlongedMatrix:
    def test_top_right_block_is_exactly_zero(self):
        M = ProlongedMatrix([[2.0, 1.0], [0.0, 1.0]], [[3.0, 4.0], [5.0, 6.0]])
        dense = M.dense()
        np.testing.assert_array_equal(dense[:2, 2:], np.zeros((2, 2)))
        np.testing.assert_array_equal(dense[:2, :2], dense[2:, 2:])

    def test_block_product_matches_dense_product(self):
        rng = np.random.default_rng(3)
        A = ProlongedMatrix(rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3), rng.uniform(-1, 1, (3, 3)))
        B = ProlongedMatrix(rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3), rng.uniform(-1, 1, (3, 3)))
        np.testing.assert_allclose((A @ B).dense(), A.dense() @ B.dense(), atol=1e-13)

    def test_singular_diagonal_block_rejected(self):
        with pytest.raises(ValueError):
            ProlongedMatrix([[1.0, 0.0], [0.0, 0.0]], np.zeros((2, 2)))

    def test_mismatched_blocks_rejected(self):
        with pytest.raises(ValueError):
            ProlongedMatrix(np.eye(2), np.zeros((3, 3)))

    def test_blocks_are_read_only(self):
        M = ProlongedMatrix(np.eye(2), np.zeros((2, 2)))
        embedded = jn_embed(sample_tangent_element(general_linear(2), 4))
        for built in (M, embedded, M @ embedded):
            for block in (built.top_left, built.bottom_left):
                with pytest.raises(ValueError):
                    block[0, 0] = 7.0


class TestDifferential:
    def test_circle_generator_frozen(self):
        rep = catalog_entry("circle_rotation").rep
        B = AlgebraElement([[0.0, 1.0], [-1.0, 0.0]], circle())
        np.testing.assert_allclose(
            differential_rep(rep, B), [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12
        )

    def test_identity_representation_differential_is_identity_map(self):
        rep = catalog_entry("gl_identity(2)").rep
        B = AlgebraElement([[0.5, -1.0], [2.0, 0.25]], general_linear(2))
        np.testing.assert_array_equal(differential_rep(rep, B), B.matrix)

    def test_zero_direction_gives_zero(self):
        rep = catalog_entry("so3_standard").rep
        out = differential_rep(rep, AlgebraElement(np.zeros((3, 3)), special_orthogonal(3)))
        assert np.max(np.abs(out)) < 1e-12

    def test_finite_difference_matches_analytic(self):
        for name in ["circle_winding_2", "so3_standard", "sl2_standard"]:
            rep = catalog_entry(name).rep
            for i in range(5):
                B = sample_tangent_element(rep.group, (71, i)).algebra
                numeric = finite_difference_differential(rep, B)
                analytic = differential_rep(rep, B)
                assert np.max(np.abs(numeric - analytic)) < 1e-8

    def test_representation_without_differential_is_rejected(self):
        base = catalog_entry("circle_winding_2").rep
        with pytest.raises(TypeError):
            Representation(base.group, base.target_dim, base.apply)

    def test_overflowing_quotient_raises_non_finite_image_error(self):
        # Values at h = 1e-6 are ~1e303 and finite, but the difference
        # quotient overflows to inf.
        B = AlgebraElement([[1.0]], general_linear(1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteImageError, match="difference quotient"):
                finite_difference_differential(cusp(1e306), B)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_spec_mismatch_rejected(self):
        rep = catalog_entry("circle_rotation").rep
        with pytest.raises(SpecMismatchError):
            differential_rep(rep, AlgebraElement([[1.0]], general_linear(1)))

    def test_overflowing_user_map_is_refused_without_a_warning(self):
        # 2 * 1e308 overflows inside the catalog's own lambda: the finiteness
        # check reports it, and no RuntimeWarning leaks from the user map.
        rep = catalog_entry("circle_winding_2").rep
        B = AlgebraElement(1e308 * np.array([[0.0, 1.0], [-1.0, 0.0]]), circle())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteImageError, match="differential returned"):
                differential_rep(rep, B)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


class TestProlong:
    def test_scalar_identity_rep_frozen(self):
        rep = catalog_entry("gl_identity(1)").rep
        M = prolong(rep, scalar_pair(2.0, 3.0))
        np.testing.assert_array_equal(M.top_left, [[2.0]])
        np.testing.assert_array_equal(M.bottom_left, [[6.0]])

    def test_circle_generator_frozen(self):
        rep = catalog_entry("circle_rotation").rep
        X = TangentGroupElement(
            identity_element(circle()),
            AlgebraElement([[0.0, 1.0], [-1.0, 0.0]], circle()),
        )
        M = prolong(rep, X)
        np.testing.assert_allclose(M.top_left, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(M.bottom_left, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)

    def test_identity_rep_prolongation_is_jn_embed(self):
        rep = catalog_entry("gl_identity(2)").rep
        for i in range(10):
            X = sample_tangent_element(general_linear(2), (73, i))
            M = prolong(rep, X)
            E = jn_embed(X)
            np.testing.assert_array_equal(M.top_left, E.top_left)
            np.testing.assert_array_equal(M.bottom_left, E.bottom_left)

    def test_homomorphism_on_samples(self):
        rep = catalog_entry("so3_standard").rep
        for i in range(20):
            X = sample_tangent_element(rep.group, (79, i))
            Y = sample_tangent_element(rep.group, (83, i))
            left = prolong(rep, tg_multiply(X, Y)).dense()
            right = (prolong(rep, X) @ prolong(rep, Y)).dense()
            assert relative_residual(left, right) < 1e-9

    def test_spec_mismatch_rejected(self):
        rep = catalog_entry("circle_rotation").rep
        with pytest.raises(SpecMismatchError):
            prolong(rep, sample_tangent_element(general_linear(2), 0))

    def test_singular_image_rejected(self):
        # This map is the identity at the identity but collapses a row at a
        # quarter turn, so the image cannot sit on the prolonged diagonal.
        def collapse(a):
            return np.diag([1.0, a.matrix[0, 0]])

        rep = Representation(circle(), 2, collapse, lambda B: 0.0 * B.matrix)
        zero = AlgebraElement(np.zeros((2, 2)), circle())
        X = TangentGroupElement(circle_element(math.pi / 2), zero)
        with pytest.raises(ValueError):
            prolong(rep, X)


class TestTangentVector:
    def test_coordinates_round_trip(self):
        u = vec([1, 2, 3], [4, 5, 6])
        np.testing.assert_array_equal(u.coordinates, [1, 2, 3, 4, 5, 6])
        assert_exact(TangentVector(u.coordinates[:3], u.coordinates[3:]), u)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TangentVector(np.zeros(2), np.zeros(3))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            vec([np.inf], [0.0])

    def test_vectors_are_read_only(self):
        u = vec([1.0], [2.0])
        with pytest.raises(ValueError):
            u.base[0] = 9.0


class TestApplyProlonged:
    def test_circle_action_frozen(self):
        rep = catalog_entry("circle_rotation").rep
        X = TangentGroupElement(
            identity_element(circle()),
            AlgebraElement([[0.0, 1.0], [-1.0, 0.0]], circle()),
        )
        out = apply_prolonged(prolong(rep, X), TangentVector([1.0, 0.0], [0.0, 0.0]))
        np.testing.assert_allclose(out.base, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(out.fiber, [0.0, -1.0], atol=1e-12)

    def test_vertical_vectors_stay_vertical(self):
        rep = catalog_entry("so3_standard").rep
        for i in range(10):
            X = sample_tangent_element(rep.group, (89, i))
            M = prolong(rep, X)
            out = apply_prolonged(M, TangentVector(np.zeros(3), [1.0, -2.0, 0.5]))
            np.testing.assert_array_equal(out.base, np.zeros(3))
            np.testing.assert_allclose(
                out.fiber, M.top_left @ [1.0, -2.0, 0.5], atol=1e-14
            )

    def test_action_is_exactly_linear_on_integer_data(self):
        M = ProlongedMatrix([[2.0, 0.0], [0.0, 3.0]], [[1.0, 2.0], [3.0, 4.0]])
        u = TangentVector([1.0, -2.0], [3.0, 5.0])
        w = TangentVector([4.0, 0.0], [-1.0, 2.0])
        left = apply_prolonged(M, TangentVector(u.base + w.base, u.fiber + w.fiber))
        right = apply_prolonged(M, u).coordinates + apply_prolonged(M, w).coordinates
        np.testing.assert_array_equal(left.coordinates, right)
        scaled = apply_prolonged(M, TangentVector(3.0 * u.base, 3.0 * u.fiber))
        np.testing.assert_array_equal(
            scaled.coordinates, 3.0 * apply_prolonged(M, u).coordinates
        )

    def test_matches_dense_matrix_action(self):
        M = ProlongedMatrix([[2.0, 1.0], [0.0, 1.0]], [[3.0, 4.0], [5.0, 6.0]])
        u = TangentVector([1.0, 2.0], [3.0, 4.0])
        out = apply_prolonged(M, u)
        np.testing.assert_array_equal(out.coordinates, M.dense() @ u.coordinates)

    def test_dimension_mismatch_rejected(self):
        M = ProlongedMatrix(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            apply_prolonged(M, TangentVector([1.0], [2.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_action_is_refused_at_its_slice(self):
        # Finite blocks and vectors; on the second vector L p + R v is
        # 1e308 + 1e308, which overflows.
        M = ProlongedMatrix(np.eye(2), [[1e308, 0.0], [0.0, 1.0]])
        Y = TangentVector([[0.5, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1e308, 0.0]])
        with pytest.raises(NonFiniteImageError, match="prolonged action has") as info:
            apply_prolonged(M, Y)
        assert info.value.position == 1
        out = apply_prolonged(M, TangentVector(Y.base[0], Y.fiber[0]))
        np.testing.assert_array_equal(out.coordinates, M.dense() @ [0.5, 0.0, 0.0, 0.0])
        assert not out.base.flags.writeable and not out.fiber.flags.writeable


class TestActionOracle:
    @pytest.mark.parametrize("name", ["circle_rotation", "gl_identity(2)", "so3_standard"])
    def test_agrees_with_block_formula(self, name):
        rep = catalog_entry(name).rep
        rng = np.random.default_rng(5)
        for i in range(30):
            X = sample_tangent_element(rep.group, (97, i))
            Y = TangentVector(
                rng.uniform(-1, 1, rep.target_dim), rng.uniform(-1, 1, rep.target_dim)
            )
            direct = apply_prolonged(prolong(rep, X), Y)
            oracle = tangent_action_oracle(rep, X, Y)
            assert np.max(np.abs(direct.coordinates - oracle.coordinates)) < 1e-5

    def test_base_component_is_exact(self):
        rep = catalog_entry("circle_rotation").rep
        X = sample_tangent_element(circle(), 7)
        Y = TangentVector([1.0, 2.0], [3.0, 4.0])
        oracle = tangent_action_oracle(rep, X, Y)
        np.testing.assert_allclose(
            oracle.base, rep_image(rep, X.base) @ Y.base, atol=1e-15
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_overflow_on_the_checked_path_names_its_sample(self):
        # The cusp's images, and the products of two of them, overflow in
        # turn across these seeds; each is refused by the homomorphism scan
        # the check reads first, with a replayable seed and sample index,
        # never warned.
        rep = cusp(1.5e308)
        failures = set()
        for seed in range(30):
            with pytest.raises(NonFiniteImageError) as info:
                check_action_oracle(rep, 200, seed)
            prefix = f"homomorphism check, seed {seed}, sample index "
            assert str(info.value).startswith(prefix)
            failures.add(str(info.value).partition(": ")[2])
        assert failures == {
            "apply returned non-finite entries",
            "product rho(a) rho(a') has non-finite entries",
        }

    def test_rejects_mismatches(self):
        rep = catalog_entry("circle_rotation").rep
        X = sample_tangent_element(circle(), 7)
        with pytest.raises(ValueError):
            tangent_action_oracle(rep, X, TangentVector([1.0], [2.0]))
        with pytest.raises(SpecMismatchError):
            tangent_action_oracle(
                rep, sample_tangent_element(general_linear(2), 0), TangentVector([1.0, 0.0], [0.0, 0.0])
            )


class TestProlongedRepresentation:
    def test_wraps_block_images(self):
        rep = catalog_entry("circle_rotation").rep
        lifted = prolonged(rep)
        assert lifted.group == rep.group
        assert lifted.target_dim == 4
        X = sample_tangent_element(circle(), 13)
        np.testing.assert_array_equal(lifted.apply(X), prolong(rep, X).dense())

    def test_identity_validation_still_applies(self):
        spec = general_linear(1)
        with pytest.raises(ValueError):
            Representation(spec, 1, lambda a: 2.0 * np.eye(1), lambda B: B.matrix)


def _rep(name: str) -> Representation:
    if name in GENERATOR_DESCRIPTORS:
        return load_representation(GENERATOR_DESCRIPTORS[name]())
    return catalog_entry(name).rep


class TestStackedEvaluation:
    @pytest.mark.parametrize("name", sorted(catalog_names()) + sorted(GENERATOR_DESCRIPTORS))
    def test_prolong_of_a_stack_matches_single_elements_bit_for_bit(self, name):
        rep = _rep(name)
        seeds = [(83, i) for i in range(6)]
        stack = prolong(rep, sample_tangent_elements(rep.group, seeds)).dense()
        assert stack.shape == (6, 2 * rep.target_dim, 2 * rep.target_dim)
        for k, seed in enumerate(seeds):
            single = prolong(rep, sample_tangent_element(rep.group, seed)).dense()
            np.testing.assert_array_equal(stack[k], single)

    def test_single_element_only_apply_is_rejected_on_a_stack(self):
        # np.kron of a stack is not a stack of Kronecker products; the
        # result's shape gives it away, and it is never looped per slice.
        spec = special_orthogonal(3)
        rep = Representation(
            spec,
            9,
            lambda a: np.kron(a.matrix, a.matrix),
            lambda B: np.zeros(B.matrix.shape[:-2] + (9, 9)),
        )
        a = sample_tangent_element(spec, 0).base
        np.testing.assert_array_equal(rep_image(rep, a), np.kron(a.matrix, a.matrix))
        with pytest.raises(ValueError, match="shape"):
            rep_image(rep, sample_tangent_elements(spec, range(4)).base)

    def test_images_are_validated_once_per_stack(self):
        def wrong_on_stacks(wrong):
            calls = []

            def apply(a):
                calls.append(a.matrix.shape)
                return a.matrix if a.matrix.ndim == 2 else wrong(a.matrix)

            return Representation(circle(), 2, apply, lambda B: B.matrix), calls

        stack = sample_tangent_elements(circle(), range(3)).base
        narrow, calls = wrong_on_stacks(lambda m: m[..., :1])
        calls.clear()
        with pytest.raises(ValueError, match="shape"):
            rep_image(narrow, stack)
        assert calls == [(3, 2, 2)]
        poisoned, _ = wrong_on_stacks(lambda m: m * np.inf)
        with pytest.raises(ValueError, match="non-finite"):
            rep_image(poisoned, stack)

    def test_stacked_singular_diagonal_block_rejected(self):
        with pytest.raises(ValueError):
            ProlongedMatrix(np.stack([np.eye(2), [[1.0, 0.0], [0.0, 0.0]]]), np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("name", ["circle_winding_2", "circle_plus_trivial", "gl_identity(3)"])
    def test_action_and_oracle_on_stacks_match_single_vectors(self, name):
        rep = catalog_entry(name).rep
        n = rep.target_dim
        X = sample_tangent_elements(rep.group, range(4))
        rng = np.random.default_rng(9)
        bases, fibers = rng.uniform(-1, 1, (4, n)), rng.uniform(-1, 1, (4, n))
        Y = TangentVector(bases, fibers)
        direct = apply_prolonged(prolong(rep, X), Y)
        oracle = tangent_action_oracle(rep, X, Y)
        for k in range(4):
            x = sample_tangent_element(rep.group, k)
            y = TangentVector(bases[k], fibers[k])
            np.testing.assert_array_equal(
                direct.coordinates[k], apply_prolonged(prolong(rep, x), y).coordinates
            )
            np.testing.assert_array_equal(
                oracle.coordinates[k], tangent_action_oracle(rep, x, y).coordinates
            )
