"""The tangent bundle of R^n as a flat vector space.

A tangent vector on R^n is a (base point, fiber velocity) pair.  Because
the bundle is trivial, the pair doubles as global coordinates: stacking
``base`` and ``fiber`` gives a vector in R^{2n}, and addition and scaling
act componentwise on both halves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TangentVector",
    "tv_add",
    "tv_scale",
    "tv_zero",
]


def _as_vector(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    if out.ndim == 0:
        out = out.reshape(1)
    if not np.all(np.isfinite(out)):
        raise ValueError("vector entries must be finite")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A point of TR^n: base point plus fiber velocity, same length.

    ``base`` and ``fiber`` may also be stacks of shape ``(..., n)``, one
    tangent vector per leading index.
    """

    base: np.ndarray
    fiber: np.ndarray

    def __post_init__(self) -> None:
        base = _as_vector(self.base)
        fiber = _as_vector(self.fiber)
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


def tv_add(u: TangentVector, w: TangentVector) -> TangentVector:
    """Componentwise sum on both halves."""
    if u.dim != w.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {w.dim}")
    return TangentVector(u.base + w.base, u.fiber + w.fiber)


def tv_scale(c: float, u: TangentVector) -> TangentVector:
    """Componentwise scaling on both halves."""
    if not np.isfinite(c):
        raise ValueError("the scalar must be finite")
    return TangentVector(c * u.base, c * u.fiber)


def tv_zero(n: int) -> TangentVector:
    return TangentVector(np.zeros(n), np.zeros(n))
