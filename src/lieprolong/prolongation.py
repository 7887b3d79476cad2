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
The `prolong` command compares the two at its one element, and acceptance
criterion 03 on every catalog entry.  The sampled checks of
:mod:`lieprolong.rep_algebra` use neither: the block action is the
derivative of the curve whenever ``rep`` is a homomorphism tied to its
differential, which they sample instead.

Both act on :class:`TangentVector`, held here: a point (base, fiber) of the
trivial bundle TR^n, whose stacked coordinates in R^{2n} carry its vector
space structure.

Every function here also takes stacked elements (see :mod:`lieprolong.groups`)
and returns stacked results, validated once per stack.  An overflow in
``apply``, ``differential``, ``K R``, a difference quotient or the
prolonged action is refused as :class:`NonFiniteImageError`, never warned,
and a sampled check names its seed and sample index for each such refusal.
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
    _real,
    _require_invertible,
    _trusted,
    group_multiply,
    identity_element,
    mat_exp,
    relative_residual,
)

__all__ = [
    "NonFiniteImageError",
    "ProlongedMatrix",
    "ProlongedRepresentation",
    "Representation",
    "TangentVector",
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


class NonFiniteImageError(ValueError):
    """Values floating point cannot hold: ``apply`` or ``differential``
    returned non-finite entries, a prolonged image overflowed or came out
    singular, or a difference quotient or prolonged action overflowed.
    ``position`` is the first failing slice on the last stack axis
    (``None`` for a single element)."""

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
        image = rep_image(self, identity_element(self.group))
        gap = np.max(np.abs(image - np.eye(self.target_dim)))
        if gap > IDENTITY_TOL:
            raise ValueError(
                f"representation {self.name or '<anonymous>'} sends the identity to a "
                f"matrix {gap:.3e} away from the identity"
            )


def _evaluate(fn, element, n: int, what: str) -> np.ndarray:
    """``fn`` on one element or a stack, with its ``(..., n, n)`` shape,
    realness and finiteness checked once.  An overflow inside ``fn`` is
    reported by the finiteness check, not warned."""
    stack = element.matrix.shape[:-2]
    with np.errstate(over="ignore", invalid="ignore"):
        out = fn(element)
    if np.iscomplexobj(out):
        raise ValueError(f"{what} returned complex entries")
    out = np.asarray(out, dtype=float)
    if out.shape != stack + (n, n):
        raise ValueError(f"{what} returned shape {out.shape}, expected {stack + (n, n)}")
    return _require_finite(out, f"{what} returned")


def _require_finite(out: np.ndarray, what: str) -> np.ndarray:
    """``out``, a matrix or stack, refused here when any entry is not finite."""
    ok = np.isfinite(out)
    if not ok.all():
        position = _first_failure(ok.all(axis=(-2, -1)))
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


def _require_invertible_image(R: np.ndarray, a: GroupElement, what: str) -> np.ndarray:
    """``R``, the image of ``a``, refused as a :class:`NonFiniteImageError`
    naming ``what`` when a slice is singular or too ill-conditioned to
    invert.  When ``apply`` returned ``a``'s own read-only matrix, as an
    identity map does, ``a``'s own gate has already certified it."""
    if R is not a.matrix:
        try:
            _require_invertible(R)
        except MembershipError as exc:
            raise NonFiniteImageError(f"{what}: {exc}", exc.position) from None
    return R


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


def _quotient(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """The central-difference quotient, refused, not warned, when non-finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        quotient = (plus - minus) / (2.0 * _FD_STEP)
    return _require_finite(quotient, f"difference quotient at step {_FD_STEP:.1e} has")


def finite_difference_differential(rep: Representation, B: AlgebraElement) -> np.ndarray:
    """Central-difference derivative of t |-> rep.apply(exp(tB)) at t = 0.

    An oracle for ``rep.differential``, never a stand-in for it.
    """
    plus = rep_image(rep, mat_exp(B, _FD_STEP))
    minus = rep_image(rep, mat_exp(B, -_FD_STEP))
    return _quotient(plus, minus)


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
    left, with K the differential of ``rep`` in direction B.  Finite images
    can still over- or underflow, as ``K R`` or as a singular ``R``; both
    are refused.
    """
    R = rep_image(rep, X.base)  # the one spec check: X.algebra shares X.base's spec
    K = _evaluate(rep.differential, X.algebra, rep.target_dim, "differential")
    with np.errstate(over="ignore", invalid="ignore"):
        L = _require_finite(K @ R, "prolonged image K R has")
    _require_invertible_image(R, X.base, "prolonged image")
    return _trusted(ProlongedMatrix, top_left=np.array(R), bottom_left=L)


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A point of TR^n: base point plus fiber velocity, same length.

    ``base`` and ``fiber`` may also be stacks of shape ``(..., n)``, one
    tangent vector per leading index.
    """

    base: np.ndarray
    fiber: np.ndarray

    def __post_init__(self) -> None:
        base, fiber = (np.atleast_1d(_real(v, "vector")) for v in (self.base, self.fiber))
        if fiber.shape != base.shape:
            raise ValueError(f"fiber shape {fiber.shape} differs from base shape {base.shape}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fiber", fiber)

    @property
    def dim(self) -> int:
        """Dimension n of the underlying space (the vector lives in R^{2n})."""
        return self.base.shape[-1]

    @property
    def coordinates(self) -> np.ndarray:
        """Trivialized coordinates: base stacked before fiber."""
        return np.concatenate([self.base, self.fiber], axis=-1)


def apply_prolonged(M: ProlongedMatrix, Y: TangentVector) -> TangentVector:
    """Act on a tangent vector: (p, v) |-> (R p, L p + R v)."""
    if Y.dim != M.n:
        raise ValueError(f"vector dimension {Y.dim} does not match block size {M.n}")
    # Vectors are columns here, so each slice is a matrix to _require_finite.
    p, v, R = Y.base[..., None], Y.fiber[..., None], M.top_left
    with np.errstate(over="ignore", invalid="ignore"):
        image = np.concatenate([R @ p, M.bottom_left @ p + R @ v], axis=-2)
    image = _require_finite(image, "prolonged action has")[..., 0]
    return _trusted(TangentVector, base=image[..., : M.n], fiber=image[..., M.n :])


def tangent_action_oracle(rep: Representation, X, Y: TangentVector) -> TangentVector:
    """Differentiate the action curve directly, bypassing the block formula.

    The base output is rep.apply(a) @ p.  The fiber output is the central
    difference of t |-> rep.apply(exp(tB) a) @ (p + t v) at t = 0.
    """
    if Y.dim != rep.target_dim:
        raise ValueError(
            f"vector dimension {Y.dim} does not match target dim {rep.target_dim}"
        )
    steps = (_FD_STEP, -_FD_STEP)
    points = [group_multiply(mat_exp(X.algebra, t), X.base) for t in steps]
    p, v = Y.base[..., None], Y.fiber[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        base = _require_finite(rep_image(rep, X.base) @ p, "prolonged action has")
        plus, minus = (rep_image(rep, at) @ (p + t * v) for at, t in zip(points, steps))
    return _trusted(TangentVector, base=base[..., 0], fiber=_quotient(plus, minus)[..., 0])


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
