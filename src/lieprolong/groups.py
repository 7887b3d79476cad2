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
:func:`sample_tangent_elements` draws such stacks, seeding every key in
one vectorized pass that gives numpy's ``default_rng(key)`` streams
(SeedSequence and PCG64) bit for bit; a group or algebra draw is the
``base`` or ``algebra`` of a tangent one.

SciPy is imported inside the functions that call it, so importing the
package or listing the catalog loads none of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, Union

import numpy as np

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
    "algebra_from_coordinates",
    "algebra_membership_residual",
    "block_diag",
    "circle",
    "general_linear",
    "group_coordinates",
    "group_membership_residual",
    "group_multiply",
    "identity_element",
    "mat_exp",
    "principal_log",
    "relative_residual",
    "sample_tangent_element",
    "sample_tangent_elements",
    "special_linear",
    "special_orthogonal",
    "tg_multiply",
    "tg_inverse",
]

# Absolute bound on the defining residual of a group / algebra element.
MEMBERSHIP_TOL = 1e-9

# exp(709.78) is the largest finite double; stay under it with margin.
_EXP_NORM_LIMIT = 700.0

# Condition-number ceiling beyond which a matrix is treated as singular.
_COND_LIMIT = 1e12

SeedLike = Union[int, Sequence[int]]

# The generator of the circle's algebra, also its one basis element.
_CIRCLE_GENERATOR = np.array([[0.0, 1.0], [-1.0, 0.0]])
_CIRCLE_GENERATOR.flags.writeable = False


class MembershipError(ValueError):
    """A matrix fails the defining residual of its group or algebra.
    ``position``, where set, is the first failing slice of a stack."""

    position: Optional[int] = None


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
    scale = np.maximum(1.0, np.max(np.abs(reference), axis=axis, initial=0.0))
    return np.max(np.abs(actual - reference), axis=axis, initial=0.0) / scale


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of (possibly rectangular) blocks.

    Leading stack axes broadcast.
    """
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    stack = np.broadcast_shapes(*(b.shape[:-2] for b in blocks))
    rows = sum(b.shape[-2] for b in blocks)
    cols = sum(b.shape[-1] for b in blocks)
    out = np.zeros(stack + (rows, cols))
    row = col = 0
    for b in blocks:
        m, n = b.shape[-2:]
        out[..., row : row + m, col : col + n] = b
        row += m
        col += n
    return out


def group_membership_residual(matrix, spec: GroupSpec) -> float:
    """Defining residual of ``matrix`` as an element of the group ``spec``.

    Zero for the general linear group (invertibility is checked separately),
    ``|det - 1|`` for the special linear group, and the max-abs deviation of
    ``a^T a`` from the identity (plus the determinant residual) for the
    special orthogonal and circle groups.  For a stack, the worst slice.
    """
    m = np.asarray(matrix, dtype=float)
    if spec.kind is GroupKind.GENERAL_LINEAR:
        return 0.0
    if spec.kind is GroupKind.SPECIAL_LINEAR:
        return float(np.abs(np.linalg.det(m) - 1.0).max())
    ortho = float(np.max(np.abs(np.swapaxes(m, -1, -2) @ m - np.eye(spec.dim))))
    det = float(np.abs(np.linalg.det(m) - 1.0).max())
    return max(ortho, det)


def algebra_membership_residual(matrix, spec: GroupSpec) -> float:
    """Defining residual of ``matrix`` as a Lie algebra element of ``spec``.

    For a stack, the worst slice.
    """
    m = np.asarray(matrix, dtype=float)
    if spec.kind is GroupKind.GENERAL_LINEAR:
        return 0.0
    if spec.kind is GroupKind.SPECIAL_LINEAR:
        return float(np.abs(np.trace(m, axis1=-2, axis2=-1)).max())
    return float(np.max(np.abs(m + np.swapaxes(m, -1, -2))))


def _first_failure(ok: np.ndarray) -> Optional[int]:
    """The first ``False`` of ``ok`` on its last axis; ``None`` for a scalar."""
    return int(np.argwhere(~ok)[:, -1].min()) if ok.ndim else None


def _require_invertible(matrix: np.ndarray) -> np.ndarray:
    """``cond(matrix)`` per slice, refused when any exceeds ``_COND_LIMIT``."""
    cond = np.linalg.cond(matrix)
    ok = cond <= _COND_LIMIT
    if not np.all(ok):
        error = MembershipError(
            f"matrix is singular or too ill-conditioned to invert (cond={np.max(cond):.3e})"
        )
        error.position = _first_failure(ok)
        raise error
    return cond


def _trusted(cls, **fields):
    """A ``cls`` built without its checks, arrays made read-only: only for
    exact constants and results whose operands' validation implies theirs."""
    out = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(out, name, value)
    return out


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

    @functools.cached_property
    def _coordinates(self) -> np.ndarray:
        # The element is immutable, so its logarithm is taken once.  A
        # ChartError is not cached: every access raises it again.
        coords = algebra_coordinates(principal_log(self))
        coords.flags.writeable = False
        return coords


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


def identity_element(spec: GroupSpec) -> GroupElement:
    """The identity, carrying its exponential coordinates (exact zeros)."""
    coords = np.zeros(len(algebra_basis(spec)))
    return _trusted(GroupElement, matrix=np.eye(spec.dim), spec=spec, _coordinates=coords)


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
    import scipy.linalg

    return GroupElement(scipy.linalg.expm(scaled), B.spec)


def group_multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    if a.spec != b.spec:
        raise SpecMismatchError(
            f"cannot multiply elements of {a.spec.describe()} and {b.spec.describe()}"
        )
    return GroupElement(a.matrix @ b.matrix, a.spec)


def tg_multiply(X: TangentGroupElement, Y: TangentGroupElement) -> TangentGroupElement:
    """Group law on tangent pairs: [a, B] * [a', B'] = [a a', B + a B' a^{-1}]."""
    a = X.base.matrix
    base = group_multiply(X.base, Y.base)  # rejects mismatched specs
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
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed) % 2**63)
    return np.random.default_rng([int(s) % 2**63 for s in seed])


# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 (a 128-bit
# LCG with XSL-RR output), whose recipes _uniform_draws runs on whole arrays.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
# Stream positions computed per pass, which bounds the 128-bit temporaries.
_JUMP_BLOCK = 64


def _hashmix(values: np.ndarray, const: int, mult: int):
    """SeedSequence's hash of ``values[..., t]`` as its ``t``-th call from
    the constant ``const``; returns the hashes and the constant after them."""
    consts = [const]
    for _ in range(values.shape[-1]):
        consts.append(consts[-1] * mult & _MASK32)
    table = np.array(consts, np.uint32)
    out = (values ^ table[:-1]) * table[1:]
    return out ^ (out >> 16), consts[-1]


def _mix(x, y):
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> 16)


def _mul128(a, b):
    """``a * b`` mod 2**128 on (hi, lo) pairs of uint64 arrays."""
    (ah, al), (bh, bl) = a, b
    a0, a1, b0, b1 = al & _MASK32, al >> 32, bl & _MASK32, bl >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    high = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return high + ah * bl + al * bh, al * bl


@functools.lru_cache(maxsize=None)
def _jump_table(count: int) -> np.ndarray:
    """PCG64's state at output k < count is ``M**(k+2) s + C(k+3) c`` mod
    2**128, from its seed s and increment c, with M the multiplier and
    ``C(t) = sum_{i<t} M**i``: srandom sets ``M (s + c) + c``, and output k
    takes k + 1 steps more.  The two coefficient rows, as (hi, lo) pairs."""
    powers, sums = [1], [0]
    for _ in range(count + 2):
        sums.append((sums[-1] + powers[-1]) % 2**128)
        powers.append(powers[-1] * _PCG_MULT % 2**128)
    rows = [[[v >> 64 for v in c], [v % 2**64 for v in c]] for c in (powers[2:-1], sums[3:])]
    return np.array(rows, np.uint64)


def _uniform_draws(keys: Sequence[SeedLike], count: int) -> np.ndarray:
    """Row ``r`` is, bit for bit, ``_rng(keys[r]).uniform(-1.0, 1.0, count)``,
    computed for all keys at once."""
    # SeedSequence's entropy: one 32-bit word per key element, two from 2**32.
    entropy = []
    for key in keys:
        row = [int(e) % 2**63 for e in ([key] if isinstance(key, (int, np.integer)) else key)]
        entropy.append([w for e in row for w in ((e & _MASK32, e >> 32) if e >> 32 else (e,))])
    lengths = np.array([len(words) for words in entropy], dtype=int)
    width = max(4, int(lengths.max(initial=0)))
    words = np.array([w + [0] * (width - len(w)) for w in entropy], np.uint32)
    words = words.reshape(len(keys), width)
    # The pool hash's constants depend only on the number of calls.
    pool, const = _hashmix(words[:, :4], _INIT_A, _MULT_A)
    for src in range(4):
        others = [dst for dst in range(4) if dst != src]
        hashed, const = _hashmix(pool[:, [src] * 3], const, _MULT_A)
        pool[:, others] = _mix(pool[:, others], hashed)
    for src in range(4, words.shape[1]):
        hashed, const = _hashmix(words[:, [src] * 4], const, _MULT_A)
        pool = np.where((lengths > src)[:, None], _mix(pool, hashed), pool)
    # generate_state(4, uint64), then PCG64's srandom.
    half = _hashmix(np.tile(pool, 2), _INIT_B, _MULT_B)[0].astype(np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = (half[:, 0::2] | (half[:, 1::2] << 32)).T[:, :, None]
    seed, inc = (seed_hi, seed_lo), ((seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1)
    # The output states from a jump table, a block of positions at a time,
    # then the XSL-RR output.
    powers, sums = _jump_table(count)
    bits = np.empty((len(keys), count), np.uint64)
    for start in range(0, count, _JUMP_BLOCK):
        block = slice(start, start + _JUMP_BLOCK)
        (hi, lo), (add_hi, add_lo) = _mul128(seed, powers[:, block]), _mul128(inc, sums[:, block])
        lo = lo + add_lo
        hi = hi + add_hi + (lo < add_lo)
        x, rot = hi ^ lo, hi >> 58
        bits[:, block] = ((x >> rot) | (x << ((64 - rot) & 63))) >> 11
    return -1.0 + 2.0 * (bits * 2.0**-53)


def _tangent_draw(spec: GroupSpec, draw) -> TangentGroupElement:
    """Tangent elements from ``draw(count)``, which gives ``(..., count)``
    uniform draws: the base's algebra element first, then the fiber."""
    n = spec.dim
    if spec.kind is GroupKind.CIRCLE:
        algebra = draw(2)[..., None, None] * _CIRCLE_GENERATOR
    else:
        draws = draw(2 * n * n)
        algebra = draws.reshape(draws.shape[:-1] + (2, n, n))
    if spec.kind is GroupKind.SPECIAL_LINEAR:
        trace = np.trace(algebra, axis1=-2, axis2=-1)
        algebra = algebra - (trace / n)[..., None, None] * np.eye(n)
    elif spec.kind is GroupKind.SPECIAL_ORTHOGONAL:
        algebra = (algebra - np.swapaxes(algebra, -1, -2)) / 2.0
    base = mat_exp(AlgebraElement(algebra[..., 0, :, :], spec))
    return TangentGroupElement(base, AlgebraElement(algebra[..., 1, :, :], spec))


def sample_tangent_element(spec: GroupSpec, seed: SeedLike = 0) -> TangentGroupElement:
    """Base drawn first, then the fiber, from one generator per seed."""
    return _tangent_draw(spec, functools.partial(_rng(seed).uniform, -1.0, 1.0))


def sample_tangent_elements(
    spec: GroupSpec, seeds: Iterable[SeedLike]
) -> TangentGroupElement:
    """Stack of :func:`sample_tangent_element` over ``seeds``, bit for bit,
    drawn for all seeds at once."""
    return _tangent_draw(spec, functools.partial(_uniform_draws, list(seeds)))


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
    else:
        basis = [_CIRCLE_GENERATOR]
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


def _logm(slices: np.ndarray) -> np.ndarray:
    """``scipy.linalg.logm`` per slice (the oldest supported SciPy takes one
    matrix), the same bits on every call.  Its randomized 1-norm estimator
    draws from numpy's global RNG, which is reseeded before each slice and
    restored afterwards; not safe if other threads use that RNG meanwhile.
    """
    import scipy.linalg

    state = np.random.get_state()
    try:
        logs = []
        for m in slices:
            np.random.seed(0)
            logs.append(scipy.linalg.logm(m))
        return np.stack(logs)
    finally:
        np.random.set_state(state)


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
        return AlgebraElement(theta[..., None, None] * _CIRCLE_GENERATOR, spec)
    log = _logm(slices).reshape(a.matrix.shape)
    if np.max(np.abs(np.imag(log))) > 1e-9:
        raise ChartError(
            "element has no real principal logarithm; supply exponential "
            "coordinates instead"
        )
    log = np.real(log)
    import scipy.linalg

    if np.max(relative_residual(scipy.linalg.expm(log), a.matrix, axis=(-2, -1))) > 1e-6:
        raise ChartError("principal logarithm failed to reconstruct the element")
    return AlgebraElement(log, spec)


def group_coordinates(a: GroupElement) -> np.ndarray:
    """Exponential coordinates of ``a`` in the canonical algebra basis,
    shape ``(..., k)`` for a stack.

    Computed on the first call and kept, read-only, on ``a``.
    """
    return a._coordinates
