"""Prolong matrix Lie group representations to tangent bundles.

A representation of a matrix group on R^n extends canonically to a
representation of the group's tangent bundle on the tangent bundle of
R^n.  This package computes that extension in explicit block-matrix
form, provides independent oracles for its action, and ships a battery
of sampling-based structural checks: homomorphism tests, and equivalence
and invariant-subspace transfer.  Three claims
are decided exactly from the generator images, without sampling: whether
the prolongation is faithful, the commutant, and reducibility.

The modules below, and numpy with them, load the first time a public
name, one of the modules or ``__all__`` is read, so ``import lieprolong``
and the command line's ``catalog``, ``--help`` and ``--version`` run
without numpy.
"""

import importlib

__version__ = "0.3.0"

# Each module's __all__ is the one list of its public names.
_MODULES = ("catalog", "groups", "prolongation", "rep_algebra")


def _bind() -> None:
    """Bind every module's public names here, as ``from .m import *`` of
    each in turn would, and ``__all__`` to all of them."""
    namespace, public = globals(), []
    for name in _MODULES:
        module = importlib.import_module(f".{name}", __name__)
        namespace.update((attr, getattr(module, attr)) for attr in module.__all__)
        public += module.__all__
    namespace["__all__"] = public


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    # No other private name is public, so looking one up loads nothing.
    if name == "__all__" or not name.startswith("_"):
        if "__all__" not in globals():
            _bind()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    if "__all__" not in globals():
        _bind()
    return sorted(globals())
