"""Prolonging a representation on R^n to one on its tangent bundle.

A representation ``rep`` sends group elements ``a`` to invertible matrices
``R = rep.apply(a)``.  Its prolongation sends the tangent pair ``[a, B]``
to the block matrix

    [[ R,    0 ],
     [ K R,  R ]]        with  K = d(rep)(B),

acting on trivialized tangent coordinates (base, fiber).  The same block
shape with ``rep`` the identity map, :func:`jn_embed`, embeds the tangent
group of GL(n) into GL(2n) and serves as the arithmetic oracle for the
tangent group law.

Two independent ways to compute the action are provided.  The direct one,
:func:`apply_prolonged`, multiplies blocks.  The oracle,
:func:`tangent_action_oracle`, differentiates the curve

    t  |->  rep.apply(exp(t B) a) @ (p + t v)

at t = 0 with a central difference and never looks at the block formula.

Every function here also takes stacked elements (see :mod:`lieprolong.groups`)
and returns stacked results, validated once per stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .groups import (
    AlgebraElement,
    GroupElement,
    GroupSpec,
    MembershipError,
    SpecMismatchError,
    _as_square,
    _first_failure,
    _require_invertible,
    _trusted,
    group_multiply,
    identity_element,
    mat_exp,
    relative_residual,
)
from .tangent_space import TangentVector

__all__ = [
    "NonFiniteImageError",
    "ProlongedMatrix",
    "ProlongedRepresentation",
    "Representation",
    "StepSizeError",
    "apply_prolonged",
    "differential_rep",
    "finite_difference_differential",
    "jn_embed",
    "prolong",
    "prolonged",
    "rep_image",
    "tangent_action_oracle",
]

# A representation must send the identity to the identity this tightly.
IDENTITY_TOL = 1e-12

_FD_STEP = 1e-6


class StepSizeError(FloatingPointError):
    """A finite-difference quotient came out non-finite."""


class NonFiniteImageError(ValueError):
    """Images floating point cannot hold: ``apply`` or ``differential``
    returned non-finite entries, or a prolonged image overflowed or came out
    singular.  ``position`` is the first failing slice on the last stack
    axis (``None`` for a single element)."""

    def __init__(self, message: str, position: Optional[int] = None):
        super().__init__(message)
        self.position = position


@dataclass(frozen=True, eq=False)
class Representation:
    """A matrix representation of a group spec on R^{target_dim}.

    ``apply`` maps a :class:`GroupElement` to its (invertible) image
    matrix.  ``differential`` is required: the analytic derivative at the
    identity, mapping an :class:`AlgebraElement` ``B`` to d/dt exp-image
    of ``tB`` at t = 0.  The central finite difference
    (:func:`finite_difference_differential`) only ever checks it.

    Both take an element whose matrix is ``(n, n)`` or a stack
    ``(..., n, n)`` and return ``(..., target_dim, target_dim)``, as numpy
    broadcasting does: ``lambda a: a.matrix @ a.matrix`` qualifies.  A
    result of any other shape is rejected.
    """

    group: GroupSpec
    target_dim: int
    apply: Callable[[GroupElement], np.ndarray]
    differential: Callable[[AlgebraElement], np.ndarray]
    name: str = ""

    def __post_init__(self) -> None:
        if self.target_dim < 1:
            raise ValueError("target_dim must be positive")
        _require_identity(self.name, rep_image(self, identity_element(self.group)))


def _require_identity(name: str, image: np.ndarray) -> None:
    """Refuse the identity's image when it lies more than ``IDENTITY_TOL``
    from the identity."""
    gap = np.max(np.abs(image - np.eye(len(image))))
    if gap > IDENTITY_TOL:
        raise ValueError(
            f"representation {name or '<anonymous>'} sends the identity to a "
            f"matrix {gap:.3e} away from the identity"
        )


def _evaluate(fn, element, n: int, what: str) -> np.ndarray:
    """``fn`` on one element or a stack, with its ``(..., n, n)`` shape and
    finiteness checked once."""
    stack = element.matrix.shape[:-2]
    out = np.asarray(fn(element), dtype=float)
    if out.shape != stack + (n, n):
        raise ValueError(f"{what} returned shape {out.shape}, expected {stack + (n, n)}")
    return _require_finite(out, f"{what} returned")


def _require_finite(out: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(out)):
        position = _first_failure(np.isfinite(out).all(axis=(-2, -1)))
        raise NonFiniteImageError(f"{what} non-finite entries", position)
    return out


def rep_image(rep: Representation, a: GroupElement) -> np.ndarray:
    """Evaluate ``rep`` at ``a`` (one element or a stack) and validate the
    result's shape and finiteness."""
    if a.spec != rep.group:
        raise SpecMismatchError(
            f"representation is over {rep.group.describe()}, element lies in "
            f"{a.spec.describe()}"
        )
    return _evaluate(rep.apply, a, rep.target_dim, "apply")


@dataclass(frozen=True, eq=False)
class ProlongedMatrix:
    """The lower block-triangular image of a prolonged representation.

    Only the repeated diagonal block and the bottom-left block are stored;
    the top-right block is zero by construction and :meth:`dense` always
    materializes it as exact zeros.  The blocks may be stacks of shape
    ``(..., n, n)``, validated together; products under ``@`` are not.
    """

    top_left: np.ndarray
    bottom_left: np.ndarray

    def __post_init__(self) -> None:
        tl = _as_square(self.top_left)
        bl = _as_square(self.bottom_left)
        if bl.shape != tl.shape:
            raise ValueError(f"block shapes differ: {tl.shape} vs {bl.shape}")
        _require_invertible(tl)
        object.__setattr__(self, "top_left", tl)
        object.__setattr__(self, "bottom_left", bl)

    @property
    def n(self) -> int:
        return self.top_left.shape[-1]

    def dense(self) -> np.ndarray:
        """The full 2n x 2n matrix [[R, 0], [L, R]] (a stack of them for
        stacked blocks)."""
        return _dense(self.top_left, self.bottom_left)

    def __matmul__(self, other: "ProlongedMatrix") -> "ProlongedMatrix":
        if not isinstance(other, ProlongedMatrix):
            return NotImplemented
        return _trusted(
            ProlongedMatrix,
            top_left=self.top_left @ other.top_left,
            bottom_left=self.bottom_left @ other.top_left + self.top_left @ other.bottom_left,
        )


def _dense(R, L) -> np.ndarray:
    """``[[R, 0], [L, R]]`` from blocks of shape ``(..., n, n)``, either of
    which may be the scalar 0: the one layout of a prolonged image in
    tangent coordinates (base, fiber)."""
    shape = np.shape(R) or np.shape(L)
    n = shape[-1]
    out = np.zeros(shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = R
    out[..., n:, :n] = L
    out[..., n:, n:] = R
    return out


def jn_embed(X) -> ProlongedMatrix:
    """Embed the tangent pair [a, B] as [[a, 0], [B a, a]].

    This is the prolongation of the identity representation and the ground
    truth for the tangent group law: the embedding turns tg multiplication
    into plain matrix multiplication.
    """
    a = X.base.matrix  # validated by GroupElement, so not checked again
    return _trusted(ProlongedMatrix, top_left=a, bottom_left=X.algebra.matrix @ a)


def _check_quotient(quotient: np.ndarray) -> np.ndarray:
    """A central-difference quotient, rejected when any entry is non-finite."""
    if not np.all(np.isfinite(quotient)):
        raise StepSizeError(f"difference quotient at step {_FD_STEP:.1e} is non-finite")
    return quotient


def finite_difference_differential(rep: Representation, B: AlgebraElement) -> np.ndarray:
    """Central-difference derivative of t |-> rep.apply(exp(tB)) at t = 0.

    An oracle for ``rep.differential``, never a stand-in for it.
    """
    plus = rep_image(rep, mat_exp(B, _FD_STEP))
    minus = rep_image(rep, mat_exp(B, -_FD_STEP))
    return _check_quotient((plus - minus) / (2.0 * _FD_STEP))


def differential_rep(rep: Representation, B: AlgebraElement) -> np.ndarray:
    """The analytic derivative of ``rep`` at the identity in direction ``B``,
    with its shape and finiteness checked."""
    if B.spec != rep.group:
        raise SpecMismatchError(
            f"representation is over {rep.group.describe()}, algebra element over "
            f"{B.spec.describe()}"
        )
    return _evaluate(rep.differential, B, rep.target_dim, "differential")


def prolong(rep: Representation, X) -> ProlongedMatrix:
    """Image of the tangent pair [a, B] under the prolonged representation.

    R = rep.apply(a) fills both diagonal blocks and K R fills the bottom
    left, with K the differential of ``rep`` in direction B.  This is the
    one place that checks that representation images are invertible.
    """
    R, _, L = _prolong_blocks(rep, X)
    return _trusted(ProlongedMatrix, top_left=np.array(R), bottom_left=L)


def _prolong_blocks(rep: Representation, X):
    """``R``, ``K`` and ``L = K R`` for the tangent pair(s) ``X = [a, B]``,
    with every check of :func:`prolong`.  When ``apply`` returned the base's
    own read-only matrix, as an identity map does, the base's own gate has
    already certified it."""
    R = rep_image(rep, X.base)  # the one spec check: X.algebra shares X.base's spec
    K = _evaluate(rep.differential, X.algebra, rep.target_dim, "differential")
    L = _product_block(K, R)
    if R is not X.base.matrix:
        _condition(R)
    return R, K, L


def _product_block(K: np.ndarray, R: np.ndarray) -> np.ndarray:
    """``K R``, refused when it is not finite: finite images can still
    over- or underflow, as ``K R`` here or as a singular ``R``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _require_finite(K @ R, "prolonged image K R has")


def _condition(R: np.ndarray) -> None:
    """Refuse ``R`` where ``cond(R)`` exceeds the limit, as a prolonged
    image that cannot be inverted."""
    try:
        _require_invertible(R)
    except MembershipError as exc:
        raise NonFiniteImageError(f"prolonged image: {exc}", exc.position) from None


def _matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """matrix @ vector, slice by slice over any leading stack axes."""
    return (matrix @ vector[..., None])[..., 0]


def apply_prolonged(M: ProlongedMatrix, Y: TangentVector) -> TangentVector:
    """Act on a tangent vector: (p, v) |-> (R p, L p + R v)."""
    if Y.dim != M.n:
        raise ValueError(f"vector dimension {Y.dim} does not match block size {M.n}")
    base = _matvec(M.top_left, Y.base)
    fiber = _matvec(M.bottom_left, Y.base) + _matvec(M.top_left, Y.fiber)
    return TangentVector(base, fiber)


def tangent_action_oracle(rep: Representation, X, Y: TangentVector) -> TangentVector:
    """Differentiate the action curve directly, bypassing the block formula.

    The base output is rep.apply(a) @ p.  The fiber output is the central
    difference of t |-> rep.apply(exp(tB) a) @ (p + t v) at t = 0.
    """
    if Y.dim != rep.target_dim:
        raise ValueError(
            f"vector dimension {Y.dim} does not match target dim {rep.target_dim}"
        )
    base = _matvec(rep_image(rep, X.base), Y.base)
    # The curve points exp(t B) a depend on the tangent pair alone, so they
    # are kept on it: every representation checked on one sample stack
    # differentiates through the same points.
    steps = (_FD_STEP, -_FD_STEP)
    points = X._kept(
        ("curve", steps),
        lambda: tuple(group_multiply(mat_exp(X.algebra, t), X.base) for t in steps),
    )
    plus, minus = (
        _matvec(rep_image(rep, at), Y.base + t * Y.fiber) for at, t in zip(points, steps)
    )
    return TangentVector(base, _check_quotient((plus - minus) / (2.0 * _FD_STEP)))


@dataclass(frozen=True, eq=False)
class ProlongedRepresentation:
    """A representation's prolongation, viewed as a map on tangent pairs."""

    base: Representation

    @property
    def group(self) -> GroupSpec:
        return self.base.group

    @property
    def target_dim(self) -> int:
        return 2 * self.base.target_dim

    def apply(self, X) -> np.ndarray:
        return prolong(self.base, X).dense()


def prolonged(rep: Representation) -> ProlongedRepresentation:
    return ProlongedRepresentation(rep)
