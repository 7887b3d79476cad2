"""What the command line reads to parse, list and refuse, without numpy.

Group kinds and specs, the catalog's rows, and the two input errors that
``lieprolong`` turns into exit status 2 are defined here once;
:mod:`lieprolong.groups` and :mod:`lieprolong.catalog` re-export them.
Nothing here imports numpy, so ``lieprolong catalog``, ``--help`` and
``--version`` run without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional


class ChartError(ValueError):
    """A group element lies outside the principal exponential chart."""


class DescriptorError(ValueError):
    """A representation descriptor is malformed or inconsistent.

    ``witness`` holds machine-readable details when the rejection came
    from a failed numerical check.
    """

    def __init__(self, message: str, witness: Optional[dict] = None):
        super().__init__(message)
        self.witness = witness


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


class CatalogRow(NamedTuple):
    """What the catalog declares about one entry, apart from its map: each
    known invariant subspace is the span of the listed coordinate axes."""

    name: str
    group: GroupSpec
    target_dim: int
    notes: str
    known_faithful: bool = True
    invariant_spans: tuple[tuple[int, ...], ...] = ()


# The built-in entries by name, in catalog order; catalog._entries gives
# each its representation.
CATALOG_ROWS = {
    row.name: row
    for row in (
        CatalogRow("circle_rotation", circle(), 2,
                   "rotation action on the plane; no invariant lines over the reals"),
        CatalogRow("circle_winding_2", circle(), 2,
                   "doubles the angle; the half turn maps to the identity",
                   known_faithful=False),
        *(CatalogRow(f"gl_identity({n})", general_linear(n), n,
                     "defining representation of the general linear group") for n in (1, 2, 3)),
        CatalogRow("sl2_standard", special_linear(2), 2,
                   "defining representation of the unimodular group on the plane"),
        CatalogRow("so3_standard", special_orthogonal(3), 3,
                   "rotations of three-space acting on themselves"),
        *(CatalogRow(f"trivial({n})", circle(), n,
                     "constant identity map over the circle; every subspace is invariant",
                     known_faithful=False, invariant_spans=((0,),)) for n in (1, 2)),
        CatalogRow("circle_double", circle(), 4,
                   "two copies of the rotation action; the block subspaces are invariant",
                   invariant_spans=((0, 1), (2, 3))),
        CatalogRow("circle_plus_trivial", circle(), 3,
                   "rotation block plus a fixed line",
                   invariant_spans=((0, 1), (2,))),
    )
}


def catalog_names() -> list[str]:
    """The names of the built-in entries, read from the rows: this builds
    no representation."""
    return list(CATALOG_ROWS)
