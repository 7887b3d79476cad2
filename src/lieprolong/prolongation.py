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
from typing import Callable

import numpy as np

from .groups import (
    AlgebraElement,
    GroupElement,
    GroupSpec,
    SpecMismatchError,
    group_multiply,
    identity_element,
    mat_exp,
    relative_residual,
)
from .tangent_space import TangentVector

__all__ = [
    "DifferentialReport",
    "ProlongedMatrix",
    "ProlongedRepresentation",
    "Representation",
    "StepSizeError",
    "apply_prolonged",
    "differential_rep",
    "differential_report",
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
        gap = float(np.max(np.abs(image - np.eye(self.target_dim))))
        if gap > IDENTITY_TOL:
            raise ValueError(
                f"representation {self.name or '<anonymous>'} sends the identity to a "
                f"matrix {gap:.3e} away from the identity"
            )


def _evaluate(fn, element, n: int, what: str) -> np.ndarray:
    """``fn`` on one element or a stack, with its ``(..., n, n)`` shape and
    finiteness checked once."""
    stack = element.matrix.shape[:-2]
    out = np.asarray(fn(element), dtype=float)
    if out.shape != stack + (n, n):
        raise ValueError(f"{what} returned shape {out.shape}, expected {stack + (n, n)}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{what} returned non-finite entries")
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
    ``(..., n, n)``, validated together.
    """

    top_left: np.ndarray
    bottom_left: np.ndarray

    def __post_init__(self) -> None:
        tl = np.array(self.top_left, dtype=float)
        bl = np.array(self.bottom_left, dtype=float)
        if tl.ndim < 2 or tl.shape[-1] != tl.shape[-2]:
            raise ValueError(f"blocks must be square, got {tl.shape}")
        if bl.shape != tl.shape:
            raise ValueError(f"block shapes differ: {tl.shape} vs {bl.shape}")
        if not (np.all(np.isfinite(tl)) and np.all(np.isfinite(bl))):
            raise ValueError("block entries must be finite")
        cond = np.linalg.cond(tl).max()
        if not np.isfinite(cond) or cond > 1e12:
            raise ValueError("the diagonal block must be invertible")
        tl.flags.writeable = False
        bl.flags.writeable = False
        object.__setattr__(self, "top_left", tl)
        object.__setattr__(self, "bottom_left", bl)

    @property
    def n(self) -> int:
        return self.top_left.shape[-1]

    def dense(self) -> np.ndarray:
        """The full 2n x 2n matrix [[R, 0], [L, R]] (a stack of them for
        stacked blocks)."""
        n = self.n
        out = np.zeros(self.top_left.shape[:-2] + (2 * n, 2 * n))
        out[..., :n, :n] = self.top_left
        out[..., n:, :n] = self.bottom_left
        out[..., n:, n:] = self.top_left
        return out

    def __matmul__(self, other: "ProlongedMatrix") -> "ProlongedMatrix":
        if not isinstance(other, ProlongedMatrix):
            return NotImplemented
        return ProlongedMatrix(
            self.top_left @ other.top_left,
            self.bottom_left @ other.top_left + self.top_left @ other.bottom_left,
        )


def jn_embed(X) -> ProlongedMatrix:
    """Embed the tangent pair [a, B] as [[a, 0], [B a, a]].

    This is the prolongation of the identity representation and the ground
    truth for the tangent group law: the embedding turns tg multiplication
    into plain matrix multiplication.
    """
    a = X.base.matrix
    return ProlongedMatrix(a, X.algebra.matrix @ a)


def finite_difference_differential(
    rep: Representation, B: AlgebraElement, step: float = _FD_STEP
) -> np.ndarray:
    """Central-difference derivative of t |-> rep.apply(exp(tB)) at t = 0.

    An oracle for ``rep.differential``, never a stand-in for it.
    """
    if step <= 0 or not np.isfinite(step):
        raise ValueError("step must be positive and finite")
    plus = rep_image(rep, mat_exp(B, step))
    minus = rep_image(rep, mat_exp(B, -step))
    out = (plus - minus) / (2.0 * step)
    if not np.all(np.isfinite(out)):
        raise StepSizeError(
            f"difference quotient at step {step:.1e} is non-finite; "
            "adjust the step size"
        )
    return out


def differential_rep(rep: Representation, B: AlgebraElement) -> np.ndarray:
    """The analytic derivative of ``rep`` at the identity in direction ``B``,
    with its shape and finiteness checked."""
    if B.spec != rep.group:
        raise SpecMismatchError(
            f"representation is over {rep.group.describe()}, algebra element over "
            f"{B.spec.describe()}"
        )
    return _evaluate(rep.differential, B, rep.target_dim, "differential")


@dataclass(frozen=True, eq=False)
class DifferentialReport:
    """Analytic and numeric derivatives side by side, with their max-abs
    gap as ``discrepancy``."""

    analytic: np.ndarray
    numeric: np.ndarray
    discrepancy: float


def differential_report(rep: Representation, B: AlgebraElement) -> DifferentialReport:
    numeric = finite_difference_differential(rep, B)
    analytic = differential_rep(rep, B)
    return DifferentialReport(analytic, numeric, float(np.max(np.abs(analytic - numeric))))


def prolong(rep: Representation, X) -> ProlongedMatrix:
    """Image of the tangent pair [a, B] under the prolonged representation.

    R = rep.apply(a) fills both diagonal blocks and K R fills the bottom
    left, with K the differential of ``rep`` in direction B.
    """
    if X.spec != rep.group:
        raise SpecMismatchError(
            f"representation is over {rep.group.describe()}, tangent element over "
            f"{X.spec.describe()}"
        )
    R = rep_image(rep, X.base)
    K = differential_rep(rep, X.algebra)
    return ProlongedMatrix(R, K @ R)


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


def tangent_action_oracle(
    rep: Representation, X, Y: TangentVector, step: float = _FD_STEP
) -> TangentVector:
    """Differentiate the action curve directly, bypassing the block formula.

    The base output is rep.apply(a) @ p.  The fiber output is the central
    difference of t |-> rep.apply(exp(tB) a) @ (p + t v) at t = 0.
    """
    if X.spec != rep.group:
        raise SpecMismatchError(
            f"representation is over {rep.group.describe()}, tangent element over "
            f"{X.spec.describe()}"
        )
    if Y.dim != rep.target_dim:
        raise ValueError(
            f"vector dimension {Y.dim} does not match target dim {rep.target_dim}"
        )
    if step <= 0 or not np.isfinite(step):
        raise ValueError("step must be positive and finite")
    B = X.algebra
    base = _matvec(rep_image(rep, X.base), Y.base)

    def curve(t: float) -> np.ndarray:
        at = group_multiply(mat_exp(B, t), X.base)
        return _matvec(rep_image(rep, at), Y.base + t * Y.fiber)

    fiber = (curve(step) - curve(-step)) / (2.0 * step)
    if not np.all(np.isfinite(fiber)):
        raise StepSizeError(
            f"difference quotient at step {step:.1e} is non-finite; "
            "adjust the step size"
        )
    return TangentVector(base, fiber)


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

    @property
    def name(self) -> str:
        return f"prolonged({self.base.name})" if self.base.name else "prolonged"

    def apply(self, X) -> np.ndarray:
        return prolong(self.base, X).dense()


def prolonged(rep: Representation) -> ProlongedRepresentation:
    return ProlongedRepresentation(rep)
