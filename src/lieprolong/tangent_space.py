"""The tangent bundle of R^n as a flat vector space.

A tangent vector on R^n is a (base point, fiber velocity) pair.  Because
the bundle is trivial, the pair doubles as global coordinates: stacking
``base`` and ``fiber`` gives a vector in R^{2n}, and addition and scaling
act componentwise on both halves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import TangentGroupElement

__all__ = [
    "ProductTangent",
    "TangentVector",
    "TVBasis",
    "canonical_basis",
    "pair_tangents",
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

    @classmethod
    def from_coordinates(cls, coords) -> "TangentVector":
        coords = np.asarray(coords, dtype=float).reshape(-1)
        if coords.shape[0] % 2 != 0:
            raise ValueError("trivialized coordinates must have even length")
        n = coords.shape[0] // 2
        return cls(coords[:n], coords[n:])


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


@dataclass(frozen=True, eq=False)
class TVBasis:
    """An ordered basis of TR^n; the coordinate matrix must be invertible."""

    vectors: tuple[TangentVector, ...]

    def __post_init__(self) -> None:
        vectors = tuple(self.vectors)
        if not vectors:
            raise ValueError("a basis needs at least one vector")
        n = vectors[0].dim
        if any(v.dim != n for v in vectors):
            raise ValueError("basis vectors must share a dimension")
        if len(vectors) != 2 * n:
            raise ValueError(f"TR^{n} needs exactly {2 * n} basis vectors")
        matrix = np.stack([v.coordinates for v in vectors])
        cond = np.linalg.cond(matrix)
        if not np.isfinite(cond) or cond > 1e12:
            raise ValueError("basis vectors are not linearly independent")
        object.__setattr__(self, "vectors", vectors)

    @property
    def coordinate_matrix(self) -> np.ndarray:
        """Rows are the trivialized coordinates of the basis vectors."""
        return np.stack([v.coordinates for v in self.vectors])

    def coordinates(self, u: TangentVector) -> np.ndarray:
        """Expand ``u`` in this basis.

        For the canonical basis the coordinate matrix is the identity and
        the expansion is an exact copy of the trivialized coordinates.
        """
        if 2 * u.dim != len(self.vectors):
            raise ValueError(f"expected a vector of TR^{len(self.vectors) // 2}")
        matrix = self.coordinate_matrix
        if np.array_equal(matrix, np.eye(matrix.shape[0])):
            return u.coordinates
        return np.linalg.solve(matrix.T, u.coordinates)

    def combine(self, coords) -> TangentVector:
        """Form the linear combination sum_i coords[i] * vectors[i]."""
        coords = np.asarray(coords, dtype=float).reshape(-1)
        if coords.shape[0] != len(self.vectors):
            raise ValueError(f"expected {len(self.vectors)} coefficients")
        return TangentVector.from_coordinates(self.coordinate_matrix.T @ coords)


def canonical_basis(n: int) -> TVBasis:
    """Base-direction vectors (e_i, 0) followed by fiber directions (0, e_i)."""
    if n < 1:
        raise ValueError("n must be positive")
    eye = np.eye(n)
    zero = np.zeros(n)
    vectors = [TangentVector(eye[i], zero) for i in range(n)]
    vectors += [TangentVector(zero, eye[i]) for i in range(n)]
    return TVBasis(tuple(vectors))


@dataclass(frozen=True, eq=False)
class ProductTangent:
    """A tangent vector on G x R^n, kept as its two projections."""

    group_part: TangentGroupElement
    vector_part: TangentVector


def pair_tangents(X: TangentGroupElement, Y: TangentVector) -> ProductTangent:
    """Package tangent vectors on G and on R^n as one vector on the product."""
    return ProductTangent(X, Y)
