"""The tangent bundle of R^n as a flat vector space.

A tangent vector on R^n is a (base point, fiber velocity) pair.  Because
the bundle is trivial, the pair doubles as global coordinates: stacking
``base`` and ``fiber`` gives a vector in R^{2n}, whose addition and
scaling are the vector space structure of TR^n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import _real

__all__ = ["TangentVector"]


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

