"""Built-in representations with their known metadata, and descriptor loading.

Every catalog entry carries what is known about it: whether the
representation is injective, a kernel element when it is not, and any
invariant subspaces that come with its construction.  The entries are
built once, on first access, and cached.  The test suite verifies the
metadata: each entry passes a homomorphism check, declared subspaces test
invariant, declared kernel elements actually collide, and entries marked
injective show no sampled collision.

External descriptors are plain JSON documents; see
:func:`load_representation` for the schema.  Descriptor-defined
representations are rejected at load time if their generator images are
inconsistent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Mapping, Optional

import numpy as np
import scipy.linalg

from .groups import (
    AlgebraElement,
    GroupElement,
    GroupKind,
    GroupSpec,
    algebra_basis,
    algebra_coordinates,
    circle,
    circle_element,
    general_linear,
    group_coordinates,
    relative_residual,
    special_linear,
    special_orthogonal,
)
from .prolongation import Representation, finite_difference_differential
from .rep_algebra import SubspaceBasis, check_homomorphism, direct_sum

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
    known_faithful: bool
    kernel_witness: Optional[GroupElement]
    known_invariant_subspaces: tuple[SubspaceBasis, ...]
    notes: str


def _identity_map_rep(spec: GroupSpec, name: str) -> Representation:
    return Representation(spec, spec.dim, lambda a: a.matrix, lambda B: B.matrix, name)


def _circle_rotation() -> CatalogEntry:
    return CatalogEntry(
        name="circle_rotation",
        rep=_identity_map_rep(circle(), "circle_rotation"),
        known_faithful=True,
        kernel_witness=None,
        known_invariant_subspaces=(),
        notes="rotation action on the plane; no invariant lines over the reals",
    )


def _circle_winding_2() -> CatalogEntry:
    rep = Representation(
        circle(),
        2,
        lambda a: a.matrix @ a.matrix,
        lambda B: 2.0 * B.matrix,
        "circle_winding_2",
    )
    return CatalogEntry(
        name="circle_winding_2",
        rep=rep,
        known_faithful=False,
        kernel_witness=circle_element(math.pi),
        known_invariant_subspaces=(),
        notes="doubles the angle; the half turn maps to the identity",
    )


def _gl_identity(n: int) -> CatalogEntry:
    return CatalogEntry(
        name=f"gl_identity({n})",
        rep=_identity_map_rep(general_linear(n), f"gl_identity({n})"),
        known_faithful=True,
        kernel_witness=None,
        known_invariant_subspaces=(),
        notes="defining representation of the general linear group",
    )


def _sl2_standard() -> CatalogEntry:
    return CatalogEntry(
        name="sl2_standard",
        rep=_identity_map_rep(special_linear(2), "sl2_standard"),
        known_faithful=True,
        kernel_witness=None,
        known_invariant_subspaces=(),
        notes="defining representation of the unimodular group on the plane",
    )


def _so3_standard() -> CatalogEntry:
    return CatalogEntry(
        name="so3_standard",
        rep=_identity_map_rep(special_orthogonal(3), "so3_standard"),
        known_faithful=True,
        kernel_witness=None,
        known_invariant_subspaces=(),
        notes="rotations of three-space acting on themselves",
    )


def _trivial(n: int) -> CatalogEntry:
    eye = np.eye(n)
    rep = Representation(
        circle(),
        n,
        lambda a: np.broadcast_to(eye, a.matrix.shape[:-2] + (n, n)),
        lambda B: np.zeros(B.matrix.shape[:-2] + (n, n)),
        f"trivial({n})",
    )
    return CatalogEntry(
        name=f"trivial({n})",
        rep=rep,
        known_faithful=False,
        kernel_witness=circle_element(1.0),
        known_invariant_subspaces=(SubspaceBasis(n, np.eye(n)[:1]),),
        notes="constant identity map over the circle; every subspace is invariant",
    )


def _span(ambient: int, indices: list[int]) -> SubspaceBasis:
    return SubspaceBasis(ambient, np.eye(ambient)[indices])


def _circle_double() -> CatalogEntry:
    rotation = _circle_rotation().rep
    rep = direct_sum(rotation, rotation)
    return CatalogEntry(
        name="circle_double",
        rep=rep,
        known_faithful=True,
        kernel_witness=None,
        known_invariant_subspaces=(_span(4, [0, 1]), _span(4, [2, 3])),
        notes="two copies of the rotation action; the block subspaces are invariant",
    )


def _circle_plus_trivial() -> CatalogEntry:
    rep = direct_sum(_circle_rotation().rep, _trivial(1).rep)
    return CatalogEntry(
        name="circle_plus_trivial",
        rep=rep,
        known_faithful=True,
        kernel_witness=None,
        known_invariant_subspaces=(_span(3, [0, 1]), _span(3, [2])),
        notes="rotation block plus a fixed line",
    )


@lru_cache(maxsize=1)
def _entries() -> tuple[CatalogEntry, ...]:
    return (
        _circle_rotation(),
        _circle_winding_2(),
        _gl_identity(1),
        _gl_identity(2),
        _gl_identity(3),
        _sl2_standard(),
        _so3_standard(),
        _trivial(1),
        _trivial(2),
        _circle_double(),
        _circle_plus_trivial(),
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


_DESCRIPTOR_KINDS = {
    "GeneralLinear": general_linear,
    "SpecialLinear": special_linear,
    "SpecialOrthogonal": special_orthogonal,
    "Circle": lambda n: circle(),
}

# One-parameter subgroups generated by the canonical basis of these kinds
# close up after 2*pi, so generator images must satisfy exp(2*pi*D) = I.
_COMPACT_KINDS = (GroupKind.CIRCLE, GroupKind.SPECIAL_ORTHOGONAL)


def _descriptor_group(document: Mapping[str, Any]) -> GroupSpec:
    group = document.get("group")
    if not isinstance(group, Mapping):
        raise DescriptorError("descriptor needs a 'group' object with kind and dim")
    kind = group.get("kind")
    dim = group.get("dim")
    if kind not in _DESCRIPTOR_KINDS:
        raise DescriptorError(
            f"unsupported group kind {kind!r}; expected one of "
            f"{sorted(_DESCRIPTOR_KINDS)}"
        )
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise DescriptorError(f"group dim must be a positive integer, got {dim!r}")
    if kind == "Circle" and dim != 2:
        raise DescriptorError("circle descriptors must use dim 2")
    return _DESCRIPTOR_KINDS[kind](dim)


def _descriptor_matrices(raw: Any, count: int, dim: int, label: str) -> list[np.ndarray]:
    if not isinstance(raw, (list, tuple)) or len(raw) != count:
        raise DescriptorError(f"{label} must be a list of {count} matrices")
    matrices = []
    for k, rows in enumerate(raw):
        m = np.asarray(rows, dtype=float)
        if m.shape != (dim, dim):
            raise DescriptorError(
                f"{label}[{k}] has shape {m.shape}, expected ({dim}, {dim})"
            )
        if not np.all(np.isfinite(m)):
            raise DescriptorError(f"{label}[{k}] has non-finite entries")
        matrices.append(m)
    return matrices


def _linear_in_coordinates(matrices: list[np.ndarray]):
    """The map from coordinates ``(..., k)`` to ``sum_k c_k M_k``, shape
    ``(..., m, m)``.

    Each slice has the bits of ``np.tensordot(c, M, axes=1)`` as long as
    numpy hands the product to BLAS, which needs contiguous coordinates;
    its own loop for strided operands rounds differently.
    """
    m = matrices[0].shape[0]
    flat = np.stack(matrices).reshape(len(matrices), -1)

    def combine(coords: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(coords)[..., None, :]
        return (rows @ flat).reshape(coords.shape[:-1] + (m, m))

    return combine


def _generator_representation(
    spec: GroupSpec, target_dim: int, images: list[np.ndarray], name: str
) -> Representation:
    combine = _linear_in_coordinates(images)

    def apply(a: GroupElement) -> np.ndarray:
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
    if spec.kind in _COMPACT_KINDS:
        eye = np.eye(rep.target_dim)
        for k, image in enumerate(images):
            loop = scipy.linalg.expm(2.0 * math.pi * image)
            residual = relative_residual(loop, eye)
            if residual > 1e-8:
                raise DescriptorError(
                    f"generator image {k} does not close its one-parameter loop: "
                    f"exp(2*pi*D) differs from the identity by {residual:.3e}",
                    witness={"generator_index": k, "loop_residual": residual},
                )
    try:
        hom = check_homomorphism(rep, 100, 7, 1e-9)
    except ValueError as exc:
        raise DescriptorError(
            f"generator images cannot be evaluated on sampled elements: {exc}",
            witness={"check": "homomorphism", "seed": 7, "samples": 100, "error": str(exc)},
        ) from None
    if not hom.passed:
        raise DescriptorError(
            f"generator images are not a consistent representation: homomorphism "
            f"residual {hom.max_residual:.3e}",
            witness=hom.witness,
        )


def _override_differential(
    rep: Representation, spec: GroupSpec, matrices: list[np.ndarray]
) -> Representation:
    combine = _linear_in_coordinates(matrices)

    def differential(B: AlgebraElement) -> np.ndarray:
        return combine(algebra_coordinates(B))

    candidate = Representation(
        group=rep.group,
        target_dim=rep.target_dim,
        apply=rep.apply,
        differential=differential,
        name=rep.name,
    )
    for k, B in enumerate(algebra_basis(spec)):
        element = AlgebraElement(B, spec)
        numeric = finite_difference_differential(candidate, element)
        gap = float(np.max(np.abs(differential(element) - numeric)))
        if gap > 1e-4:
            raise DescriptorError(
                f"supplied differential disagrees with the map along basis "
                f"direction {k} (gap {gap:.3e})",
                witness={"generator_index": k, "gap": gap},
            )
    return candidate


def load_representation(document: Mapping[str, Any]) -> Representation:
    """Build a representation from a descriptor document.

    Schema::

        {
          "name": str,                      # optional
          "group": {"kind": str, "dim": int},
          "target_dim": int,
          "map": {"kind": "named", "name": str}
              or {"kind": "generators", "generator_images": [matrix, ...]},
          "differential": [matrix, ...]     # optional, canonical basis order
        }

    Matrices are nested lists in row-major order.  Generator images follow
    the canonical algebra basis order of the group kind.  ``named`` maps
    must agree with the catalog entry's group and dimension.  Generator
    maps evaluate elements through their exponential coordinates, are
    checked for consistency on load, and are rejected with a witness when
    the check fails.
    """
    if not isinstance(document, Mapping):
        raise DescriptorError("descriptor must be a JSON object")
    spec = _descriptor_group(document)
    target_dim = document.get("target_dim")
    if not isinstance(target_dim, int) or isinstance(target_dim, bool) or target_dim < 1:
        raise DescriptorError(
            f"target_dim must be a positive integer, got {target_dim!r}"
        )
    mapping = document.get("map")
    if not isinstance(mapping, Mapping) or "kind" not in mapping:
        raise DescriptorError("descriptor needs a 'map' object with a kind")

    if mapping["kind"] == "named":
        name = mapping.get("name")
        try:
            entry = catalog_entry(str(name))
        except KeyError as exc:
            raise DescriptorError(str(exc)) from None
        if entry.rep.group != spec or entry.rep.target_dim != target_dim:
            raise DescriptorError(
                f"catalog entry {name!r} is over {entry.rep.group.describe()} with "
                f"target dim {entry.rep.target_dim}; descriptor says "
                f"{spec.describe()} with target dim {target_dim}"
            )
        rep = entry.rep
    elif mapping["kind"] == "generators":
        count = len(algebra_basis(spec))
        images = _descriptor_matrices(
            mapping.get("generator_images"), count, target_dim, "generator_images"
        )
        rep = _generator_representation(
            spec, target_dim, images, str(document.get("name", "descriptor"))
        )
        _reject_inconsistent_generators(rep, spec, images)
    else:
        raise DescriptorError(
            f"unknown map kind {mapping['kind']!r}; expected 'named' or 'generators'"
        )

    if "differential" in document:
        matrices = _descriptor_matrices(
            document["differential"], len(algebra_basis(spec)), target_dim, "differential"
        )
        rep = _override_differential(rep, spec, matrices)
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
    if not isinstance(document, dict):
        raise DescriptorError(f"descriptor {path} must contain a JSON object")
    return document
