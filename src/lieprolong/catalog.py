"""Built-in representations with their known metadata, and descriptor loading.

Every catalog entry carries what is known about it: whether the
representation is injective, and any invariant subspaces that come with
its construction.  The entries are one table, built once, on first
access, and cached; the direct sums reuse the representations of their
summands' own entries.  The test suite verifies the metadata: each entry
passes a homomorphism check, declared subspaces test invariant, and the
exact faithfulness certificate agrees with ``known_faithful``.

External descriptors are plain JSON documents of generator images; see
:func:`load_representation` for the schema.  A descriptor is rejected at
load time, by two exact tests that sample nothing, if its images do not
define a representation.

SciPy is imported inside the functions that call it, so importing the
package or listing the catalog loads none of it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Mapping, Optional

import numpy as np

from .groups import (
    AlgebraElement,
    GroupElement,
    GroupKind,
    GroupSpec,
    algebra_basis,
    algebra_coordinates,
    circle,
    general_linear,
    group_coordinates,
    special_linear,
    special_orthogonal,
)
from .prolongation import Representation, differential_rep
from .rep_algebra import SubspaceBasis, direct_sum

__all__ = [
    "CatalogEntry",
    "DescriptorError",
    "catalog_entry",
    "catalog_list",
    "catalog_names",
    "load_representation",
    "read_descriptor",
]

class DescriptorError(ValueError):
    """A representation descriptor is malformed or inconsistent.

    ``witness`` holds machine-readable details when the rejection came
    from a failed numerical check.
    """

    def __init__(self, message: str, witness: Optional[dict] = None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """A representation bundled with its known metadata."""

    name: str
    rep: Representation
    notes: str
    known_faithful: bool = True
    known_invariant_subspaces: tuple[SubspaceBasis, ...] = ()


def _identity_map_rep(spec: GroupSpec, name: str) -> Representation:
    return Representation(spec, spec.dim, lambda a: a.matrix, lambda B: B.matrix, name)


def _trivial(n: int) -> Representation:
    eye = np.eye(n)
    return Representation(
        circle(),
        n,
        lambda a: np.broadcast_to(eye, a.matrix.shape[:-2] + (n, n)),
        lambda B: np.zeros(B.matrix.shape[:-2] + (n, n)),
        f"trivial({n})",
    )


def _span(ambient: int, indices: list[int]) -> SubspaceBasis:
    return SubspaceBasis(ambient, np.eye(ambient)[indices])


@lru_cache(maxsize=1)
def _entries() -> tuple[CatalogEntry, ...]:
    def defining(name: str, spec: GroupSpec, notes: str) -> CatalogEntry:
        return CatalogEntry(name, _identity_map_rep(spec, name), notes)

    rotation = _identity_map_rep(circle(), "circle_rotation")
    trivial = {n: _trivial(n) for n in (1, 2)}
    winding = Representation(
        circle(), 2, lambda a: a.matrix @ a.matrix, lambda B: 2.0 * B.matrix, "circle_winding_2"
    )
    return (
        CatalogEntry("circle_rotation", rotation,
                     "rotation action on the plane; no invariant lines over the reals"),
        CatalogEntry("circle_winding_2", winding,
                     "doubles the angle; the half turn maps to the identity",
                     known_faithful=False),
        *(defining(f"gl_identity({n})", general_linear(n),
                   "defining representation of the general linear group") for n in (1, 2, 3)),
        defining("sl2_standard", special_linear(2),
                 "defining representation of the unimodular group on the plane"),
        defining("so3_standard", special_orthogonal(3),
                 "rotations of three-space acting on themselves"),
        *(CatalogEntry(f"trivial({n})", rep,
                       "constant identity map over the circle; every subspace is invariant",
                       known_faithful=False, known_invariant_subspaces=(_span(n, [0]),))
          for n, rep in trivial.items()),
        CatalogEntry("circle_double", direct_sum(rotation, rotation),
                     "two copies of the rotation action; the block subspaces are invariant",
                     known_invariant_subspaces=(_span(4, [0, 1]), _span(4, [2, 3]))),
        CatalogEntry("circle_plus_trivial", direct_sum(rotation, trivial[1]),
                     "rotation block plus a fixed line",
                     known_invariant_subspaces=(_span(3, [0, 1]), _span(3, [2]))),
    )


def catalog_list() -> list[CatalogEntry]:
    """All built-in entries, built on first access and cached after."""
    return list(_entries())


def catalog_names() -> list[str]:
    return [entry.name for entry in _entries()]


def catalog_entry(name: str) -> CatalogEntry:
    for entry in _entries():
        if entry.name == name:
            return entry
    raise KeyError(
        f"no catalog entry named {name!r}; available: {', '.join(catalog_names())}"
    )


# One-parameter subgroups generated by the canonical basis of these kinds
# close up after 2*pi, so generator images must satisfy exp(2*pi*D) = I.
_COMPACT_KINDS = (GroupKind.CIRCLE, GroupKind.SPECIAL_ORTHOGONAL)


def _descriptor_group(document: Mapping[str, Any]) -> GroupSpec:
    group = document.get("group")
    if not isinstance(group, Mapping):
        raise DescriptorError("descriptor needs a 'group' object with kind and dim")
    kind = group.get("kind")
    dim = group.get("dim")
    kinds = sorted(k.value for k in GroupKind)
    if kind not in kinds:
        raise DescriptorError(f"unsupported group kind {kind!r}; expected one of {kinds}")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise DescriptorError(f"group dim must be a positive integer, got {dim!r}")
    try:
        return GroupSpec(kind, dim)
    except ValueError as exc:  # the circle outside dim 2, SL(1) and SO(1)
        raise DescriptorError(str(exc)) from None


def _generator_images(raw: Any, count: int, dim: int) -> list[np.ndarray]:
    if not isinstance(raw, (list, tuple)) or len(raw) != count:
        raise DescriptorError(f"generator_images must be a list of {count} matrices")
    images = []
    for k, rows in enumerate(raw):
        label = f"generator_images[{k}]"
        # Only finite JSON numbers: a float conversion would also take strings
        # such as "0", booleans and NaN, and overflow on an integer past 1e308.
        if not all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max
            for x in np.asarray(rows, dtype=object).ravel()
        ):
            raise DescriptorError(f"{label} is not a matrix of finite numbers")
        image = np.asarray(rows, dtype=float)
        if image.shape != (dim, dim):
            raise DescriptorError(f"{label} has shape {image.shape}, expected ({dim}, {dim})")
        images.append(image)
    return images


def _generator_representation(
    spec: GroupSpec, target_dim: int, images: list[np.ndarray], name: str
) -> Representation:
    flat = np.stack(images).reshape(len(images), -1)

    def combine(coords: np.ndarray) -> np.ndarray:
        # sum_k c_k D_k for coordinates (..., k).  Each slice has the bits of
        # np.tensordot(c, D, axes=1) as long as numpy hands the product to
        # BLAS, which needs contiguous coordinates; its own loop for strided
        # operands rounds differently.
        rows = np.ascontiguousarray(coords)[..., None, :]
        return (rows @ flat).reshape(coords.shape[:-1] + (target_dim, target_dim))

    def apply(a: GroupElement) -> np.ndarray:
        import scipy.linalg

        # An overflowing image is reported by the finiteness check, not warned.
        with np.errstate(over="ignore", invalid="ignore"):
            return scipy.linalg.expm(combine(group_coordinates(a)))

    def differential(B: AlgebraElement) -> np.ndarray:
        return combine(algebra_coordinates(B))

    return Representation(
        group=spec,
        target_dim=target_dim,
        apply=apply,
        differential=differential,
        name=name,
    )


def _reject_inconsistent_generators(
    rep: Representation, spec: GroupSpec, images: list[np.ndarray]
) -> None:
    D = np.stack(images)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(D, axis=(-2, -1))
    # Both tests scale their gaps by these norms, so past a bound they decide
    # nothing: from |2 pi D|_F = 1e8 a loop closing on -I, 2 away from I,
    # would pass.  Below it the products D_i D_j are finite as well.
    k = int(np.argmax(norms))
    if not 2.0 * math.pi * norms[k] < 1e8:
        raise DescriptorError(
            f"generator image {k} is too large to verify: |D|_F = {norms[k]:.3e}",
            witness={"generator_index": k, "norm": float(norms[k])},
        )
    if spec.kind in _COMPACT_KINDS:
        import scipy.linalg

        for k, image in enumerate(images):
            # expm(2 pi D) rounds by about eps * |2 pi D|_F, so the gap from
            # the identity is scaled by that norm.  A NaN gap fails.
            turn = 2.0 * math.pi * image
            with np.errstate(over="ignore", invalid="ignore"):
                gap = np.max(np.abs(scipy.linalg.expm(turn) - np.eye(rep.target_dim)))
            residual = float(gap / max(1.0, 2.0 * math.pi * norms[k]))
            if not residual <= 1e-8:
                raise DescriptorError(
                    f"generator image {k} does not close its one-parameter loop: "
                    f"exp(2*pi*D) differs from the identity by {residual:.3e}",
                    witness={"generator_index": k, "loop_residual": residual},
                )
    basis = np.stack(algebra_basis(spec))
    i, j = np.triu_indices(len(images), 1)
    if len(i):
        # With the loops closed, exp(X) -> exp(d rho(X)) is a homomorphism exactly
        # when d rho keeps the basis brackets (one generator has no pairs).  Each
        # gap is scaled by |D_i|_F |D_j|_F: D_i D_j rounds by m * eps times that.
        brackets = basis[i] @ basis[j] - basis[j] @ basis[i]
        lhs = differential_rep(rep, AlgebraElement(brackets, spec))
        gaps = np.max(np.abs(lhs - (D[i] @ D[j] - D[j] @ D[i])), axis=(-2, -1))
        defects = gaps / np.maximum(1.0, norms[i] * norms[j])
        worst = int(np.argmax(defects))  # the first NaN, if any
        if not defects[worst] <= 1e-12:
            pair, defect = [int(i[worst]), int(j[worst])], float(defects[worst])
            raise DescriptorError(
                f"generator images {pair[0]} and {pair[1]} do not keep their "
                f"bracket: [D_i, D_j] differs from d rho([B_i, B_j]) by {defect:.3e}",
                witness={"generator_pair": pair, "bracket_defect": defect},
            )


_DESCRIPTOR_KEYS = ("name", "group", "target_dim", "map")


def load_representation(document: Mapping[str, Any]) -> Representation:
    """Build a representation from a descriptor document.

    Schema (no other key is accepted)::

        {
          "name": str,                      # optional
          "group": {"kind": str, "dim": int},
          "target_dim": int,
          "map": {"kind": "generators", "generator_images": [matrix, ...]}
        }

    Matrices are nested lists in row-major order, one generator image
    ``D_k`` per element of the canonical algebra basis.  An element is
    evaluated through its exponential coordinates, ``exp(sum c_k D_k)``,
    and the differential is ``sum c_k D_k``.  The load runs two exact
    tests and samples nothing: on compact kinds each loop ``exp(2 pi D_k)``
    must close, and the images must keep the brackets of the basis.  A
    failure, or an image with ``|2 pi D_k|_F >= 1e8``, too large for the
    tests to decide, is rejected with a witness.  Images whose exponential
    overflows are reported by the check that evaluates them there.
    Built-in representations are named with ``--rep <name>``, not through
    a descriptor.
    """
    if not isinstance(document, Mapping):
        raise DescriptorError("descriptor must be a JSON object")
    for key in document:
        if key not in _DESCRIPTOR_KEYS:
            raise DescriptorError(
                f"unknown descriptor key {key!r}; expected only {list(_DESCRIPTOR_KEYS)}"
            )
    spec = _descriptor_group(document)
    target_dim = document.get("target_dim")
    if not isinstance(target_dim, int) or isinstance(target_dim, bool) or target_dim < 1:
        raise DescriptorError(
            f"target_dim must be a positive integer, got {target_dim!r}"
        )
    mapping = document.get("map")
    kind = mapping.get("kind") if isinstance(mapping, Mapping) else None
    if kind == "named":
        raise DescriptorError(
            "a descriptor cannot name a catalog entry; pass the name as --rep <name>"
        )
    if kind != "generators":
        raise DescriptorError(
            f"descriptor needs a 'map' object of kind 'generators', got {kind!r}"
        )
    images = _generator_images(
        mapping.get("generator_images"), len(algebra_basis(spec)), target_dim
    )
    rep = _generator_representation(
        spec, target_dim, images, str(document.get("name", "descriptor"))
    )
    _reject_inconsistent_generators(rep, spec, images)
    return rep


def read_descriptor(path) -> dict:
    """Parse a descriptor file as JSON."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise DescriptorError(f"cannot read descriptor {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"descriptor {path} is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DescriptorError(f"descriptor {path} is not UTF-8 text: {exc}") from None
    if not isinstance(document, dict):
        raise DescriptorError(f"descriptor {path} must contain a JSON object")
    return document
