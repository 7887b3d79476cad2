"""Prolong matrix Lie group representations to tangent bundles.

A representation of a matrix group on R^n extends canonically to a
representation of the group's tangent bundle on the tangent bundle of
R^n.  This package computes that extension in explicit block-matrix
form, provides independent oracles for its action, and ships a battery
of sampling-based structural checks: homomorphism tests, and equivalence
and invariant-subspace transfer.  Three claims
are decided exactly from the generator images, without sampling: whether
the prolongation is faithful, the commutant, and reducibility.
"""

__version__ = "0.3.0"

# Each module's __all__ is the one list of its public names.
from . import catalog, groups, prolongation, rep_algebra
from .catalog import *
from .groups import *
from .prolongation import *
from .rep_algebra import *

__all__ = [
    *catalog.__all__,
    *groups.__all__,
    *prolongation.__all__,
    *rep_algebra.__all__,
]
