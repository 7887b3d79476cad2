"""Matrix Lie groups, their Lie algebras, and tangent-bundle arithmetic.

Everything here is concrete: a group element is an invertible real matrix
together with a :class:`GroupSpec` naming the group it belongs to, and an
algebra element is a matrix satisfying the corresponding linear constraint
(traceless, antisymmetric, ...).  A tangent vector at a group element ``a``
is stored in right-trivialized form as a pair ``[a, B]`` with ``B`` in the
Lie algebra; the collection of all such pairs is itself a group under

    [a, B] * [a', B'] = [a a',  B + a B' a^{-1}]

which is what :func:`tg_multiply` implements.  The correctness of this law
is pinned down by the block embedding in :mod:`lieprolong.prolongation`.

Elements may also be stacks: a matrix of shape ``(S, n, n)`` holds ``S``
elements of the same spec, validated together once.  Multiplication,
inversion, the exponential, the principal logarithm and basis coordinates
take whole stacks and give the same bits as a loop over the slices.
:func:`sample_group_elements` and :func:`sample_tangent_elements` draw
such stacks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, Union

import numpy as np
import scipy.linalg

__all__ = [
    "MEMBERSHIP_TOL",
    "AlgebraElement",
    "ChartError",
    "ExponentOverflowError",
    "GroupElement",
    "GroupKind",
    "GroupSpec",
    "MembershipError",
    "SpecMismatchError",
    "TangentGroupElement",
    "algebra_basis",
    "algebra_coordinates",
    "algebra_element",
    "algebra_from_coordinates",
    "algebra_membership_residual",
    "block_diag",
    "circle",
    "circle_element",
    "general_linear",
    "group_coordinates",
    "group_element",
    "group_membership_residual",
    "group_multiply",
    "identity_element",
    "identity_tangent",
    "mat_exp",
    "principal_log",
    "relative_residual",
    "sample_algebra_element",
    "sample_group_element",
    "sample_group_elements",
    "sample_tangent_element",
    "sample_tangent_elements",
    "special_linear",
    "special_orthogonal",
    "tg_multiply",
    "tg_inverse",
    "zero_algebra",
]

# Absolute bound on the defining residual of a group / algebra element.
MEMBERSHIP_TOL = 1e-9

# exp(709.78) is the largest finite double; stay under it with margin.
_EXP_NORM_LIMIT = 700.0

# Condition-number ceiling beyond which a matrix is treated as singular.
_COND_LIMIT = 1e12

SeedLike = Union[int, Sequence[int], np.random.Generator]


class MembershipError(ValueError):
    """A matrix fails the defining residual of its group or algebra."""


class SpecMismatchError(ValueError):
    """Operands belong to different group specs."""


class ExponentOverflowError(OverflowError):
    """The requested matrix exponential would overflow double precision."""


class ChartError(ValueError):
    """A group element lies outside the principal exponential chart."""


class GroupKind(str, Enum):
    GENERAL_LINEAR = "GeneralLinear"
    SPECIAL_LINEAR = "SpecialLinear"
    SPECIAL_ORTHOGONAL = "SpecialOrthogonal"
    CIRCLE = "Circle"


@dataclass(frozen=True)
class GroupSpec:
    """Names a matrix group: a kind plus the matrix dimension.

    ``dim`` is the size of the square matrices realizing the group.  The
    circle group is realized by 2x2 rotation matrices, so its ``dim`` is
    always 2.
    """

    kind: GroupKind
    dim: int

    def __post_init__(self) -> None:
        if not isinstance(self.kind, GroupKind):
            object.__setattr__(self, "kind", GroupKind(self.kind))
        if self.dim < 1:
            raise ValueError(f"group dimension must be positive, got {self.dim}")
        if self.kind is GroupKind.CIRCLE and self.dim != 2:
            raise ValueError("the circle group is realized by 2x2 rotation matrices")

    def describe(self) -> str:
        return f"{self.kind.value}({self.dim})"


def general_linear(n: int) -> GroupSpec:
    return GroupSpec(GroupKind.GENERAL_LINEAR, n)


def special_linear(n: int) -> GroupSpec:
    return GroupSpec(GroupKind.SPECIAL_LINEAR, n)


def special_orthogonal(n: int) -> GroupSpec:
    return GroupSpec(GroupKind.SPECIAL_ORTHOGONAL, n)


def circle() -> GroupSpec:
    return GroupSpec(GroupKind.CIRCLE, 2)


def _as_square(matrix, dim: int | None = None) -> np.ndarray:
    """A read-only float copy of a square matrix or of a stack of them."""
    out = np.array(matrix, dtype=float)
    if out.ndim < 2 or out.shape[-1] != out.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {out.shape}")
    if dim is not None and out.shape[-1] != dim:
        raise ValueError(f"expected a {dim}x{dim} matrix, got {out.shape[-1]}x{out.shape[-1]}")
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must be finite")
    out.flags.writeable = False
    return out


def relative_residual(actual, reference, axis=None):
    """Max-abs difference scaled by max(1, max-abs of the reference).

    Behaves like an absolute residual for order-one matrices and like a
    relative one for large matrices; safe on blocks that are exactly zero.
    With ``axis`` both maxima are taken over those axes only, giving one
    residual per remaining index (one per slice of a stack).
    """
    actual = np.asarray(actual, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if actual.shape != reference.shape:
        raise ValueError(f"shape mismatch {actual.shape} vs {reference.shape}")
    if axis is not None:
        scale = np.maximum(1.0, np.max(np.abs(reference), axis=axis))
        return np.max(np.abs(actual - reference), axis=axis) / scale
    scale = max(1.0, float(np.max(np.abs(reference))) if reference.size else 0.0)
    diff = float(np.max(np.abs(actual - reference))) if actual.size else 0.0
    return diff / scale


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of square blocks; leading stack axes broadcast."""
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    stack = np.broadcast_shapes(*(b.shape[:-2] for b in blocks))
    total = sum(b.shape[-1] for b in blocks)
    out = np.zeros(stack + (total, total))
    offset = 0
    for b in blocks:
        size = b.shape[-1]
        out[..., offset : offset + size, offset : offset + size] = b
        offset += size
    return out


def group_membership_residual(matrix, spec: GroupSpec) -> float:
    """Defining residual of ``matrix`` as an element of the group ``spec``.

    Zero for the general linear group (invertibility is checked separately),
    ``|det - 1|`` for the special linear group, and the max-abs deviation of
    ``a^T a`` from the identity (plus the determinant residual) for the
    special orthogonal and circle groups.  For a stack, the worst slice.
    """
    m = np.asarray(matrix, dtype=float)
    kind = spec.kind
    if kind is GroupKind.GENERAL_LINEAR:
        return 0.0
    if kind is GroupKind.SPECIAL_LINEAR:
        return float(np.abs(np.linalg.det(m) - 1.0).max())
    if kind in (GroupKind.SPECIAL_ORTHOGONAL, GroupKind.CIRCLE):
        ortho = float(np.max(np.abs(np.swapaxes(m, -1, -2) @ m - np.eye(spec.dim))))
        det = float(np.abs(np.linalg.det(m) - 1.0).max())
        return max(ortho, det)
    raise ValueError(f"unknown group kind {kind!r}")


def algebra_membership_residual(matrix, spec: GroupSpec) -> float:
    """Defining residual of ``matrix`` as a Lie algebra element of ``spec``.

    For a stack, the worst slice.
    """
    m = np.asarray(matrix, dtype=float)
    kind = spec.kind
    if kind is GroupKind.GENERAL_LINEAR:
        return 0.0
    if kind is GroupKind.SPECIAL_LINEAR:
        return float(np.abs(np.trace(m, axis1=-2, axis2=-1)).max())
    if kind in (GroupKind.SPECIAL_ORTHOGONAL, GroupKind.CIRCLE):
        return float(np.max(np.abs(m + np.swapaxes(m, -1, -2))))
    raise ValueError(f"unknown group kind {kind!r}")


def _require_invertible(matrix: np.ndarray) -> None:
    cond = np.linalg.cond(matrix).max()
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise MembershipError(
            f"matrix is singular or too ill-conditioned to invert (cond={cond:.3e})"
        )


@dataclass(frozen=True, eq=False)
class GroupElement:
    """An invertible matrix tagged with the group it belongs to.

    ``matrix`` may also be a stack of shape ``(..., n, n)``; every slice is
    then validated by one array reduction.
    """

    matrix: np.ndarray
    spec: GroupSpec

    def __post_init__(self) -> None:
        m = _as_square(self.matrix, self.spec.dim)
        residual = group_membership_residual(m, self.spec)
        if residual > MEMBERSHIP_TOL:
            raise MembershipError(
                f"matrix is not in {self.spec.describe()}: residual {residual:.3e} "
                f"exceeds {MEMBERSHIP_TOL:.0e}"
            )
        _require_invertible(m)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A matrix, or a stack of matrices, in the Lie algebra of a group spec."""

    matrix: np.ndarray
    spec: GroupSpec

    def __post_init__(self) -> None:
        m = _as_square(self.matrix, self.spec.dim)
        residual = algebra_membership_residual(m, self.spec)
        if residual > MEMBERSHIP_TOL:
            raise MembershipError(
                f"matrix is not in the Lie algebra of {self.spec.describe()}: "
                f"residual {residual:.3e} exceeds {MEMBERSHIP_TOL:.0e}"
            )
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class TangentGroupElement:
    """A right-trivialized tangent vector ``[a, B]`` on a matrix group.

    ``base`` is the group element ``a`` the vector is attached to and
    ``algebra`` is the Lie algebra element ``B`` obtained by right
    translation back to the identity.  The actual tangent direction at
    ``a`` is the matrix ``B @ a``.
    """

    base: GroupElement
    algebra: AlgebraElement

    def __post_init__(self) -> None:
        if self.base.spec != self.algebra.spec:
            raise SpecMismatchError(
                f"base lies in {self.base.spec.describe()} but the fiber is in the "
                f"algebra of {self.algebra.spec.describe()}"
            )

    @property
    def spec(self) -> GroupSpec:
        return self.base.spec


def group_element(matrix, spec: GroupSpec) -> GroupElement:
    return GroupElement(matrix, spec)


def algebra_element(matrix, spec: GroupSpec) -> AlgebraElement:
    return AlgebraElement(matrix, spec)


def identity_element(spec: GroupSpec) -> GroupElement:
    return GroupElement(np.eye(spec.dim), spec)


def zero_algebra(spec: GroupSpec) -> AlgebraElement:
    return AlgebraElement(np.zeros((spec.dim, spec.dim)), spec)


def identity_tangent(spec: GroupSpec) -> TangentGroupElement:
    return TangentGroupElement(identity_element(spec), zero_algebra(spec))


def circle_element(theta: float) -> GroupElement:
    """The circle element at angle ``theta``: exp(theta * [[0,1],[-1,0]])."""
    c, s = math.cos(theta), math.sin(theta)
    return GroupElement(np.array([[c, s], [-s, c]]), circle())


def mat_exp(B: AlgebraElement, t: float = 1.0) -> GroupElement:
    """exp(t * B), landing in the group whose algebra ``B`` belongs to.

    Uses a scaling-and-squaring Pade kernel.  Raises
    :class:`ExponentOverflowError` when ``||t B||`` is large enough that
    the result would overflow double precision.
    """
    if not np.isfinite(t):
        raise ValueError("the scale t must be finite")
    scaled = t * B.matrix
    # An n x n slice's 2-norm is at most n times its largest entry, so the
    # SVDs are only needed near the guard.
    if scaled.size and float(np.max(np.abs(scaled))) * B.spec.dim > _EXP_NORM_LIMIT:
        norm = float(np.max(np.linalg.norm(scaled, 2, axis=(-2, -1))))
        if norm > _EXP_NORM_LIMIT:
            raise ExponentOverflowError(
                f"||tB|| = {norm:.3e} exceeds the overflow guard {_EXP_NORM_LIMIT:.0f}"
            )
    return GroupElement(scipy.linalg.expm(scaled), B.spec)


def group_multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    if a.spec != b.spec:
        raise SpecMismatchError(
            f"cannot multiply elements of {a.spec.describe()} and {b.spec.describe()}"
        )
    return GroupElement(a.matrix @ b.matrix, a.spec)


def tg_multiply(X: TangentGroupElement, Y: TangentGroupElement) -> TangentGroupElement:
    """Group law on tangent pairs: [a, B] * [a', B'] = [a a', B + a B' a^{-1}]."""
    if X.spec != Y.spec:
        raise SpecMismatchError(
            f"cannot multiply tangent elements over {X.spec.describe()} "
            f"and {Y.spec.describe()}"
        )
    a = X.base.matrix
    base = group_multiply(X.base, Y.base)
    fiber = X.algebra.matrix + a @ Y.algebra.matrix @ np.linalg.inv(a)
    return TangentGroupElement(base, AlgebraElement(fiber, X.spec))


def tg_inverse(X: TangentGroupElement) -> TangentGroupElement:
    """Inverse for the tangent group law: [a, B]^{-1} = [a^{-1}, -a^{-1} B a]."""
    a = X.base.matrix
    a_inv = np.linalg.inv(a)
    base = GroupElement(a_inv, X.spec)
    fiber = -(a_inv @ X.algebra.matrix @ a)
    return TangentGroupElement(base, AlgebraElement(fiber, X.spec))


def _rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed) % 2**63)
    return np.random.default_rng([int(s) % 2**63 for s in seed])


def _draw_algebra(spec: GroupSpec, rng: np.random.Generator) -> np.ndarray:
    kind = spec.kind
    if kind is GroupKind.CIRCLE:
        theta = rng.uniform(-1.0, 1.0)
        return theta * np.array([[0.0, 1.0], [-1.0, 0.0]])
    raw = rng.uniform(-1.0, 1.0, (spec.dim, spec.dim))
    if kind is GroupKind.GENERAL_LINEAR:
        return raw
    if kind is GroupKind.SPECIAL_LINEAR:
        return raw - (np.trace(raw) / spec.dim) * np.eye(spec.dim)
    if kind is GroupKind.SPECIAL_ORTHOGONAL:
        return (raw - raw.T) / 2.0
    raise ValueError(f"unknown group kind {kind!r}")


def sample_algebra_element(spec: GroupSpec, seed: SeedLike = 0) -> AlgebraElement:
    """Deterministic random algebra element with raw entries in [-1, 1].

    The uniform draw is projected onto the algebra: antisymmetrized for
    orthogonal kinds, trace-centered for the special linear kind.  Same
    spec and seed always produce the same element.
    """
    return AlgebraElement(_draw_algebra(spec, _rng(seed)), spec)


def sample_group_element(spec: GroupSpec, seed: SeedLike = 0) -> GroupElement:
    """Exponential of a random algebra element; deterministic in the seed."""
    return mat_exp(sample_algebra_element(spec, seed))


def sample_tangent_element(spec: GroupSpec, seed: SeedLike = 0) -> TangentGroupElement:
    """Base drawn first, then the fiber, from one generator per seed."""
    rng = _rng(seed)
    base = sample_group_element(spec, rng)
    fiber = sample_algebra_element(spec, rng)
    return TangentGroupElement(base, fiber)


def sample_group_elements(spec: GroupSpec, seeds: Iterable[SeedLike]) -> GroupElement:
    """Stack of :func:`sample_group_element` over ``seeds``, bit for bit.

    The draws are made per seed; the exponential and every membership,
    overflow and conditioning check run once over the whole stack.
    """
    algebra = np.stack([_draw_algebra(spec, _rng(seed)) for seed in seeds])
    return mat_exp(AlgebraElement(algebra, spec))


def sample_tangent_elements(
    spec: GroupSpec, seeds: Iterable[SeedLike]
) -> TangentGroupElement:
    """Stack of :func:`sample_tangent_element` over ``seeds``, bit for bit."""
    bases, fibers = [], []
    for seed in seeds:
        rng = _rng(seed)
        bases.append(_draw_algebra(spec, rng))
        fibers.append(_draw_algebra(spec, rng))
    base = mat_exp(AlgebraElement(np.stack(bases), spec))
    return TangentGroupElement(base, AlgebraElement(np.stack(fibers), spec))


@functools.lru_cache(maxsize=None)
def algebra_basis(spec: GroupSpec) -> tuple[np.ndarray, ...]:
    """Canonical ordered basis of the Lie algebra of ``spec``.

    General linear: the matrix units E_ij in row-major order.  Special
    linear: off-diagonal units first (row-major), then the traceless
    diagonals E_kk - E_{k+1,k+1}.  Special orthogonal: E_ij - E_ji for
    i < j in lexicographic order.  Circle: the single generator
    [[0, 1], [-1, 0]].
    """
    n = spec.dim
    kind = spec.kind

    def unit(i: int, j: int) -> np.ndarray:
        e = np.zeros((n, n))
        e[i, j] = 1.0
        return e

    basis: list[np.ndarray] = []
    if kind is GroupKind.GENERAL_LINEAR:
        basis = [unit(i, j) for i in range(n) for j in range(n)]
    elif kind is GroupKind.SPECIAL_LINEAR:
        basis = [unit(i, j) for i in range(n) for j in range(n) if i != j]
        for k in range(n - 1):
            basis.append(unit(k, k) - unit(k + 1, k + 1))
    elif kind is GroupKind.SPECIAL_ORTHOGONAL:
        basis = [unit(i, j) - unit(j, i) for i in range(n) for j in range(i + 1, n)]
    elif kind is GroupKind.CIRCLE:
        basis = [np.array([[0.0, 1.0], [-1.0, 0.0]])]
    else:
        raise ValueError(f"unknown group kind {kind!r}")
    for b in basis:
        b.flags.writeable = False
    return tuple(basis)


def _basis_matrix(spec: GroupSpec) -> np.ndarray:
    return np.stack([b.reshape(-1) for b in algebra_basis(spec)], axis=1)


def algebra_coordinates(B: AlgebraElement) -> np.ndarray:
    """Coordinates of ``B`` in the canonical basis of its algebra.

    For a stack of shape ``(..., n, n)`` the result has shape ``(..., k)``;
    one least-squares solve takes every slice as a right-hand side.
    """
    basis = _basis_matrix(B.spec)
    stack = B.matrix.shape[:-2]
    targets = B.matrix.reshape(-1, basis.shape[0]).T
    coords, *_ = np.linalg.lstsq(basis, targets, rcond=None)
    residual = np.max(np.abs(basis @ coords - targets), axis=0, initial=0.0)
    scale = np.maximum(1.0, np.max(np.abs(targets), axis=0, initial=0.0))
    if np.any(residual > 1e-9 * scale):
        raise MembershipError(
            f"matrix does not lie in the span of the algebra basis "
            f"(residual {float(np.max(residual)):.3e})"
        )
    return coords.T.reshape(stack + (basis.shape[1],))


def algebra_from_coordinates(coords, spec: GroupSpec) -> AlgebraElement:
    coords = np.asarray(coords, dtype=float).reshape(-1)
    basis = algebra_basis(spec)
    if coords.shape[0] != len(basis):
        raise ValueError(
            f"{spec.describe()} needs {len(basis)} coordinates, got {coords.shape[0]}"
        )
    matrix = np.tensordot(coords, np.stack(basis), axes=1)
    return AlgebraElement(matrix, spec)


def principal_log(a: GroupElement) -> AlgebraElement:
    """Principal matrix logarithm of ``a`` (one element or a stack), as an
    algebra element.

    The circle group is handled by angle extraction, so the full chart
    (-pi, pi] is available including the boundary.  For other kinds the
    principal logarithm must be real and reconstruct ``a``; elements
    outside that chart raise :class:`ChartError`.
    """
    spec = a.spec
    slices = a.matrix.reshape(-1, spec.dim, spec.dim)
    stack = a.matrix.shape[:-2]
    if spec.kind is GroupKind.CIRCLE:
        # math.atan2 per slice: np.arctan2 can differ in the last bit.
        theta = np.array([math.atan2(m[0, 1], m[0, 0]) for m in slices]).reshape(stack)
        generator = np.array([[0.0, 1.0], [-1.0, 0.0]])
        return AlgebraElement(theta[..., None, None] * generator, spec)
    # logm loops over slices: the oldest supported SciPy takes one matrix.
    log = np.stack([scipy.linalg.logm(m) for m in slices]).reshape(a.matrix.shape)
    if np.max(np.abs(np.imag(log))) > 1e-9:
        raise ChartError(
            "element has no real principal logarithm; supply exponential "
            "coordinates instead"
        )
    log = np.real(log)
    if np.max(relative_residual(scipy.linalg.expm(log), a.matrix, axis=(-2, -1))) > 1e-6:
        raise ChartError("principal logarithm failed to reconstruct the element")
    return AlgebraElement(log, spec)


def group_coordinates(a: GroupElement) -> np.ndarray:
    """Exponential coordinates of ``a`` in the canonical algebra basis,
    shape ``(..., k)`` for a stack."""
    return algebra_coordinates(principal_log(a))
