"""Prolong matrix Lie group representations to tangent bundles.

A representation of a matrix group on R^n extends canonically to a
representation of the group's tangent bundle on the tangent bundle of
R^n.  This package computes that extension in explicit block-matrix
form, provides independent oracles for its action, and ships a battery
of sampling-based structural checks: homomorphism tests, equivalence and
invariant-subspace transfer, commutant and reducibility probes.  Whether
the prolongation is faithful is decided exactly, without sampling.
"""

__version__ = "0.2.0"

# Each module's __all__ is the one list of its public names.
from .catalog import *
from .groups import *
from .prolongation import *
from .rep_algebra import *
from .tangent_space import *
