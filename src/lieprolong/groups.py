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
``base`` or ``algebra`` of a tangent one.  A stack holds the seeded
streams it was drawn from, with the rows drawn so far, so a draw under
the same keys while it lives, for any group and any count, seeds
nothing again; the streams go with the last stack that holds them.

A group element keeps an upper bound on the condition number of its
slices.  An exponential knows one for free, ``cond(e^A) <= |e^A|
|e^-A| <= e^(2|A|)``, and a product the product of its factors' bounds,
so they pass the invertibility gate without inverting anything while
the bound stays well inside the limit.  An exponential also keeps its
exponent, the principal logarithm of each slice inside ``||tB||_F < pi``,
so the logarithm of a drawn element takes no ``logm``.

SciPy is imported inside the functions that call it, so importing the
package or listing the catalog loads none of it.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence, Union

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

_EPS = float(np.finfo(float).eps)

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
        if self.dim == 1 and self.kind in (GroupKind.SPECIAL_LINEAR, GroupKind.SPECIAL_ORTHOGONAL):
            raise ValueError(f"{self.describe()} is the trivial group, whose Lie algebra is zero")

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
    gap = np.asarray(actual - reference)
    return np.max(np.abs(gap, out=gap), axis=axis, initial=0.0) / scale


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
    """An upper bound on ``cond(matrix)`` per slice, refused when any slice's
    ``cond`` exceeds ``_COND_LIMIT``.

    With ``X`` the computed inverse and ``r`` a bound on the Frobenius norm
    of ``M X - I``, ``cond(M) <= |M|_F |X|_F / (1 - r)`` when ``r < 1``; the
    rounding of the residual, at most ``n u |M|_F |X|_F`` with ``u`` the
    unit roundoff, goes into ``r`` four times over.  A stack whose bounds
    all stay below half the limit, with every ``r`` below 1/2, is accepted
    without an SVD.  Otherwise, or when ``inv`` fails, the exact
    ``np.linalg.cond`` of the whole stack decides and is returned, and the
    error's ``position`` is the first slice it refuses.
    """
    n = matrix.shape[-1]
    with np.errstate(all="ignore"):
        try:
            inverse = np.linalg.inv(matrix)
        except np.linalg.LinAlgError:  # an exactly singular slice
            inverse = None
        if inverse is not None:
            norms = np.sqrt(_sum_squares(matrix) * _sum_squares(inverse))
            residual = np.sqrt(_sum_squares(matrix @ inverse - np.eye(n)))
            residual = residual + (2.0 * n * _EPS) * norms
            bound = norms / (1.0 - residual)
            # An overflowed inverse gives NaN or inf, which fails here too.
            if ((residual < 0.5) & (bound <= _COND_LIMIT / 2)).all():
                return bound
    cond = np.linalg.cond(matrix)
    ok = cond <= _COND_LIMIT
    if not np.all(ok):
        error = MembershipError(
            f"matrix is singular or too ill-conditioned to invert (cond={np.max(cond):.3e})"
        )
        error.position = _first_failure(ok)
        raise error
    return cond


def _sum_squares(matrix: np.ndarray) -> np.ndarray:
    """The squared Frobenius norm of each slice."""
    return np.einsum("...ij,...ij->...", matrix, matrix)


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
    then validated by one array reduction.  The element keeps an upper
    bound on the ``cond`` of every slice, from its invertibility gate.
    """

    matrix: np.ndarray
    spec: GroupSpec

    def __post_init__(self) -> None:
        self._validate(None)

    def _validate(self, cond: Optional[float]) -> None:
        """Membership and finiteness, and invertibility unless ``cond``, a
        known upper bound on the ``cond`` of every slice, stays within half
        the limit; the other half leaves room for rounding in the bound."""
        m = _as_square(self.matrix, self.spec.dim)
        residual = group_membership_residual(m, self.spec)
        if residual > MEMBERSHIP_TOL:
            raise MembershipError(
                f"matrix is not in {self.spec.describe()}: residual {residual:.3e} "
                f"exceeds {MEMBERSHIP_TOL:.0e}"
            )
        if cond is None or not cond <= _COND_LIMIT / 2:
            cond = float(np.max(_require_invertible(m), initial=1.0))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_cond", cond)

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

    def _kept(self, key, compute: Callable[[], object]):
        """``compute()``, taken on the first call with ``key`` and kept on
        this element after: the element is immutable, so what depends only
        on it (and on what ``key`` names) is computed once per element and
        dropped with it."""
        kept = self.__dict__.setdefault("_kept_values", {})
        if key not in kept:
            kept[key] = compute()
        return kept[key]


def _bounded(matrix: np.ndarray, spec: GroupSpec, cond: float) -> GroupElement:
    """A :class:`GroupElement` of ``matrix``, the ``cond`` of whose slices
    is known to be at most ``cond``: validated as any other, except that
    the invertibility gate runs only when the bound exceeds half the limit."""
    out = object.__new__(GroupElement)
    object.__setattr__(out, "matrix", matrix)
    object.__setattr__(out, "spec", spec)
    out._validate(cond)
    return out


def identity_element(spec: GroupSpec) -> GroupElement:
    """The identity, carrying its exponential coordinates (exact zeros)."""
    coords = np.zeros(len(algebra_basis(spec)))
    return _trusted(
        GroupElement, matrix=np.eye(spec.dim), spec=spec, _coordinates=coords, _cond=1.0
    )


def mat_exp(B: AlgebraElement, t: float = 1.0) -> GroupElement:
    """exp(t * B), landing in the group whose algebra ``B`` belongs to.

    Uses a scaling-and-squaring Pade kernel.  Raises
    :class:`ExponentOverflowError` when ``||t B||`` is large enough that
    the result would overflow double precision.  The exponent ``t B`` is
    kept, read-only, on the result: :func:`principal_log` takes it as the
    logarithm of every slice with ``||t B||_F < pi``.
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

    # cond(e^A) <= |e^A| |e^-A| <= e^(2 |A|), and |A|_2 <= |A|_F; the factor
    # 2 covers the rounding of the computed exponential.
    with np.errstate(over="ignore"):
        cond = 2.0 * np.exp(2.0 * np.sqrt(np.max(_sum_squares(scaled), initial=0.0)))
    out = _bounded(scipy.linalg.expm(scaled), B.spec, float(cond))
    scaled.flags.writeable = False
    object.__setattr__(out, "_exponent", scaled)
    return out


def group_multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    if a.spec != b.spec:
        raise SpecMismatchError(
            f"cannot multiply elements of {a.spec.describe()} and {b.spec.describe()}"
        )
    # cond(a b) <= c = cond(a) cond(b).  The computed product lies within
    # d |a| |b| of a b in the 2-norm, d = n^2 eps, so its cond is at most
    # c (1 + d) / (1 - d c), where d c < 1.
    c, d = a._cond * b._cond, a.spec.dim**2 * _EPS
    cond = c * (1.0 + d) / (1.0 - d * c) if d * c < 1.0 else math.inf
    return _bounded(a.matrix @ b.matrix, a.spec, cond)


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
    # SeedSequence reads an integer n as it reads the list [n].
    return np.random.default_rng(list(_normalized([seed])[0]))


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


def _normalized(keys: Iterable[SeedLike]) -> tuple[tuple[int, ...], ...]:
    """Each key as the tuple of its elements mod 2**63, the one reduction of
    every seed and key: keys with equal tuples have equal streams.  Keys
    already in that form, as the checks' keys are, come back as they are,
    copying nothing."""
    if isinstance(keys, tuple) and all(
        type(key) is tuple and all(type(e) is int and 0 <= e < 2**63 for e in key)
        for key in keys
    ):
        return keys
    return tuple(
        (int(key) % 2**63,)
        if isinstance(key, (int, np.integer))
        else tuple(int(e) % 2**63 for e in key)
        for key in keys
    )


def _seed(keys: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """PCG64's seed and increment for each normalized key, computed for all
    keys at once (SeedSequence's pool, ``generate_state(4, uint64)``,
    srandom): a ``(4, len(keys), 1)`` uint64 array of the seed's high and
    low words, then the increment's."""
    # SeedSequence's entropy: one 32-bit word per key element, two from 2**32.
    entropy = [
        [w for e in key for w in ((e & _MASK32, e >> 32) if e >> 32 else (e,))] for key in keys
    ]
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
    half = _hashmix(np.tile(pool, 2), _INIT_B, _MULT_B)[0].astype(np.uint64)
    state = (half[:, 0::2] | (half[:, 1::2] << 32)).T[:, :, None]
    seq_hi, seq_lo = state[2:]
    state[2:] = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
    return state


def _outputs(state: np.ndarray, start: int, stop: int) -> np.ndarray:
    """``Generator.uniform(-1.0, 1.0)`` at positions ``start`` to ``stop - 1``
    of each stream seeded to ``state``: the output states from the jump
    table, a block of positions at a time, then the XSL-RR output."""
    seed, inc = state[:2], state[2:]
    powers, sums = _jump_table(stop)
    bits = np.empty((state.shape[1], stop - start), np.uint64)
    for first in range(start, stop, _JUMP_BLOCK):
        block = slice(first, min(first + _JUMP_BLOCK, stop))
        (hi, lo), (add_hi, add_lo) = _mul128(seed, powers[:, block]), _mul128(inc, sums[:, block])
        lo = lo + add_lo
        hi = hi + add_hi + (lo < add_lo)
        x, rot = hi ^ lo, hi >> 58
        bits[:, first - start : block.stop - start] = ((x >> rot) | (x << ((64 - rot) & 63))) >> 11
    return -1.0 + 2.0 * (bits * 2.0**-53)


class _Stream:
    """The uniform streams of one key set, seeded once and drawn as far as
    asked.  Output ``k`` does not depend on how many are drawn, so the rows
    drawn so far are kept: a longer draw computes only the new positions,
    a shorter one is a slice."""

    __slots__ = ("_state", "_rows", "__weakref__")

    def __init__(self, keys: tuple[tuple[int, ...], ...]):
        self._state = _seed(keys)
        self._rows = np.empty((len(keys), 0))
        self._rows.flags.writeable = False

    def draws(self, count: int) -> np.ndarray:
        """Read-only ``(keys, count)`` draws: row ``r`` is, bit for bit,
        ``_rng(keys[r]).uniform(-1.0, 1.0, count)``."""
        drawn = self._rows.shape[1]
        if count > drawn:
            rows = np.concatenate([self._rows, _outputs(self._state, drawn, count)], axis=1)
            rows.flags.writeable = False
            self._rows = rows
        return self._rows[:, :count]


# The streams by normalized key set, held weakly: only the stacks drawn
# from a stream hold it (sample_tangent_elements keeps it on its stack, and
# checks keep their probes' and conjugator's streams on the stacks they
# sample), so draws under one key set share one seeding while such a stack
# lives, and no stream outlives them.
_STREAMS: "weakref.WeakValueDictionary[tuple, _Stream]" = weakref.WeakValueDictionary()


def _stream(keys: Iterable[SeedLike]) -> _Stream:
    """The streams of ``keys``, seeded now unless a live stack holds them."""
    keys = _normalized(keys)
    stream = _STREAMS.get(keys)
    if stream is None:
        stream = _STREAMS[keys] = _Stream(keys)
    return stream


def _uniform_draws(keys: Iterable[SeedLike], count: int) -> np.ndarray:
    """Row ``r`` is, bit for bit, ``_rng(keys[r]).uniform(-1.0, 1.0, count)``,
    computed for all keys at once; read-only."""
    return _stream(keys).draws(count)


def _tangent_draw(spec: GroupSpec, draw) -> TangentGroupElement:
    """Tangent elements from ``draw(count)``, which gives ``(..., count)``
    uniform draws: the base's algebra element first, then the fiber.  The
    base keeps the exponent ``B_0`` it was drawn as (see :func:`mat_exp`):
    a logarithm of the base, though not always the principal one."""
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
    drawn for all seeds at once.  The stack holds the streams it was drawn
    from, so a draw under the same seeds while it lives seeds nothing."""
    stream = _stream(seeds)
    X = _tangent_draw(spec, stream.draws)
    object.__setattr__(X, "_stream", stream)
    return X


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


def _chart_log(spec: GroupSpec, slices: np.ndarray) -> np.ndarray:
    """The real principal logarithm of each slice of an ``(S, n, n)``
    stack, or :class:`ChartError` if one has none."""
    if spec.kind is GroupKind.CIRCLE:
        # math.atan2 per slice: np.arctan2 can differ in the last bit.
        theta = np.array([math.atan2(m[0, 1], m[0, 0]) for m in slices])
        return theta[:, None, None] * _CIRCLE_GENERATOR
    log = _logm(slices)
    if np.max(np.abs(np.imag(log))) > 1e-9:
        raise ChartError(
            "element has no real principal logarithm; supply exponential "
            "coordinates instead"
        )
    log = np.real(log)
    import scipy.linalg

    if np.max(relative_residual(scipy.linalg.expm(log), slices, axis=(-2, -1))) > 1e-6:
        raise ChartError("principal logarithm failed to reconstruct the element")
    return log


def principal_log(a: GroupElement) -> AlgebraElement:
    """Principal matrix logarithm of ``a`` (one element or a stack), as an
    algebra element.

    A slice of ``mat_exp(B, t)`` with ``||tB||_F < pi`` takes ``tB``: its
    eigenvalues lie in the strip ``|Im z| < pi``, so it is the principal
    logarithm (Higham, Functions of Matrices, 2008, Thm 1.31).  Other
    slices take it from the matrix, so a stack's logarithm is its slices'
    bit for bit.  The circle group is handled by angle extraction, so the
    full chart (-pi, pi] is available including the boundary.  For other
    kinds the principal logarithm must be real and reconstruct the slice;
    elements outside that chart raise :class:`ChartError`.
    """
    n = a.spec.dim
    # An element that is no exponential takes every slice from the matrix.
    log = getattr(a, "_exponent", np.full_like(a.matrix, np.inf)).reshape(-1, n, n).copy()
    todo = np.sqrt(_sum_squares(log)) >= math.pi
    if todo.any():
        log[todo] = _chart_log(a.spec, a.matrix.reshape(-1, n, n)[todo])
    return AlgebraElement(log.reshape(a.matrix.shape), a.spec)


def group_coordinates(a: GroupElement) -> np.ndarray:
    """Exponential coordinates of ``a`` in the canonical algebra basis,
    shape ``(..., k)`` for a stack: those of :func:`principal_log`, so a
    drawn element's are its exponent's wherever ``||B_0||_F < pi``.

    Computed on the first call and kept, read-only, on ``a``.
    """
    return a._coordinates
