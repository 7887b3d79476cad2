"""Matrix Lie groups, their Lie algebras, and tangent-bundle arithmetic.

Everything here is concrete: a group element is an invertible real matrix
together with a :class:`GroupSpec` naming the group it belongs to, and an
algebra element is a matrix satisfying the corresponding linear constraint
(traceless, antisymmetric, ...).  A tangent vector at a group element ``a``
is stored in right-trivialized form as a pair ``[a, B]`` with ``B`` in the
Lie algebra; the collection of all such pairs is itself a group under

    [a, B] * [a', B'] = [a a',  B + a B' a^{-1}]

which is what :func:`tg_multiply` implements.  The correctness of this law
is pinned down by the block embedding in :mod:`lieprolong.prolongation`.

Elements may also be stacks: a matrix of shape ``(S, n, n)`` holds ``S``
elements of the same spec, validated together once.  Multiplication,
inversion, the exponential, the principal logarithm and basis coordinates
take whole stacks and give the same bits as a loop over the slices.
:func:`sample_tangent_elements` draws such stacks, seeding every key in
one vectorized pass that gives numpy's ``default_rng(key)`` streams
(SeedSequence and PCG64) bit for bit; a group or algebra draw is the
``base`` or ``algebra`` of a tangent one.  A stack holds the seeded
streams it was drawn from, with the rows drawn so far, so a draw under
the same keys while it lives, for any group and any count, seeds
nothing again; the streams go with the last stack that holds them.

A group element keeps an upper bound on the condition number of its
slices.  An exponential knows one for free, ``cond(e^A) <= |e^A|
|e^-A| <= e^(2|A|)``, and a product the product of its factors' bounds,
so they pass the invertibility gate without inverting anything while
the bound stays well inside the limit.  An exponential also keeps its
exponent, the principal logarithm of each slice inside ``||tB||_F < pi``,
so the logarithm of a drawn element is not computed.  Any other slice's
is SciPy's ``logm``, one slice at a time (:func:`_logm`).

Group kinds and specs are defined in :mod:`lieprolong._spec`, which
imports no numpy, so the command line parses and lists without loading
this module.  SciPy is imported inside the functions that call it, so
importing this module or building the catalog loads none of it.  The
exponential loads only SciPy's compiled Pade steps, from their own
extension file, and ``scipy.linalg`` only for what those steps do not
take and for a logarithm taken from a matrix.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
import warnings
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from ._spec import (
    ChartError,
    GroupKind,
    GroupSpec,
    circle,
    general_linear,
    special_linear,
    special_orthogonal,
)

__all__ = [
    "MEMBERSHIP_TOL",
    "AlgebraElement",
    "ChartError",
    "ExponentOverflowError",
    "GroupElement",
    "GroupKind",
    "GroupSpec",
    "MembershipError",
    "SpecMismatchError",
    "TangentGroupElement",
    "algebra_basis",
    "algebra_coordinates",
    "algebra_from_coordinates",
    "algebra_membership_residual",
    "block_diag",
    "circle",
    "general_linear",
    "group_coordinates",
    "group_membership_residual",
    "group_multiply",
    "identity_element",
    "mat_exp",
    "principal_log",
    "relative_residual",
    "sample_tangent_element",
    "sample_tangent_elements",
    "special_linear",
    "special_orthogonal",
    "tg_multiply",
    "tg_inverse",
]

# Absolute bound on the defining residual of a group / algebra element.
MEMBERSHIP_TOL = 1e-9

# exp(709.78) is the largest finite double; stay under it with margin.
_EXP_NORM_LIMIT = 700.0

# Condition-number ceiling beyond which a matrix is treated as singular.
_COND_LIMIT = 1e12

_EPS = float(np.finfo(float).eps)

SeedLike = Union[int, Sequence[int]]

# The generator of the circle's algebra, also its one basis element.
_CIRCLE_GENERATOR = np.array([[0.0, 1.0], [-1.0, 0.0]])
_CIRCLE_GENERATOR.flags.writeable = False


class MembershipError(ValueError):
    """A matrix fails the defining residual of its group or algebra.
    ``position``, where set, is the first failing slice of a stack."""

    position: Optional[int] = None


class SpecMismatchError(ValueError):
    """Operands belong to different group specs."""


class ExponentOverflowError(OverflowError):
    """The requested matrix exponential would overflow double precision."""


def _float(values, what: str) -> np.ndarray:
    """``values`` as a float array, copied only when it is not one, and
    refused when complex rather than cast with a warning."""
    if np.iscomplexobj(values):
        raise ValueError(f"{what} must be real")
    return np.asarray(values, dtype=float)


def _real(values, what: str) -> np.ndarray:
    """A read-only float copy of ``values``, refused when complex or not
    finite: the one rule for every array that enters the package."""
    out = np.array(_float(values, what))
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{what} entries must be finite")
    out.flags.writeable = False
    return out


def _as_square(matrix, dim: int | None = None) -> np.ndarray:
    """A :func:`_real` square matrix or stack of them."""
    out = _real(matrix, "matrix")
    if out.ndim < 2 or out.shape[-1] != out.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {out.shape}")
    if dim is not None and out.shape[-1] != dim:
        raise ValueError(f"expected a {dim}x{dim} matrix, got {out.shape[-1]}x{out.shape[-1]}")
    return out


def relative_residual(actual, reference, axis=None):
    """Max-abs difference scaled by max(1, max-abs of the reference).

    Behaves like an absolute residual for order-one matrices and like a
    relative one for large matrices; safe on blocks that are exactly zero.
    With ``axis`` both maxima are taken over those axes only, giving one
    residual per remaining index (one per slice of a stack).
    """
    actual = _float(actual, "actual")
    reference = _float(reference, "reference")
    if actual.shape != reference.shape:
        raise ValueError(f"shape mismatch {actual.shape} vs {reference.shape}")
    scale = np.maximum(1.0, np.max(np.abs(reference), axis=axis, initial=0.0))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is an infinite residual
        gap = np.asarray(actual - reference)
    return np.max(np.abs(gap, out=gap), axis=axis, initial=0.0) / scale


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of (possibly rectangular) blocks.

    Leading stack axes broadcast.
    """
    blocks = [_float(b, "block") for b in blocks]
    stack = np.broadcast_shapes(*(b.shape[:-2] for b in blocks))
    rows = sum(b.shape[-2] for b in blocks)
    cols = sum(b.shape[-1] for b in blocks)
    out = np.zeros(stack + (rows, cols))
    row = col = 0
    for b in blocks:
        m, n = b.shape[-2:]
        out[..., row : row + m, col : col + n] = b
        row += m
        col += n
    return out


def group_membership_residual(matrix, spec: GroupSpec) -> float:
    """Defining residual of ``matrix`` as an element of the group ``spec``.

    Zero for the general linear group (invertibility is checked separately),
    ``|det - 1|`` for the special linear group, and the max-abs deviation of
    ``a^T a`` from the identity (plus the determinant residual) for the
    special orthogonal and circle groups.  For a stack, the worst slice.
    """
    m = _float(matrix, "matrix")
    if spec.kind is GroupKind.GENERAL_LINEAR:
        return 0.0
    det = float(np.abs(np.linalg.det(m) - 1.0).max(initial=0.0))
    if spec.kind is GroupKind.SPECIAL_LINEAR:
        return det
    ortho = float(np.max(np.abs(np.swapaxes(m, -1, -2) @ m - np.eye(spec.dim)), initial=0.0))
    return max(ortho, det)


def algebra_membership_residual(matrix, spec: GroupSpec) -> float:
    """Defining residual of ``matrix`` as a Lie algebra element of ``spec``.

    For a stack, the worst slice.
    """
    m = _float(matrix, "matrix")
    if spec.kind is GroupKind.GENERAL_LINEAR:
        return 0.0
    if spec.kind is GroupKind.SPECIAL_LINEAR:
        return float(np.abs(np.trace(m, axis1=-2, axis2=-1)).max(initial=0.0))
    return float(np.max(np.abs(m + np.swapaxes(m, -1, -2)), initial=0.0))


def _first_failure(ok: np.ndarray) -> Optional[int]:
    """The first ``False`` of ``ok`` on its last axis; ``None`` for a scalar."""
    return int(np.argwhere(~ok)[:, -1].min()) if ok.ndim else None


def _require_invertible(matrix: np.ndarray) -> np.ndarray:
    """An upper bound on ``cond(matrix)`` per slice, refused when any slice's
    ``cond`` exceeds ``_COND_LIMIT``.

    With ``X`` the computed inverse and ``r`` a bound on the Frobenius norm
    of ``M X - I``, ``cond(M) <= |M|_F |X|_F / (1 - r)`` when ``r < 1``; the
    rounding of the residual, at most ``n u |M|_F |X|_F`` with ``u`` the
    unit roundoff, goes into ``r`` four times over.  A stack whose bounds
    all stay below half the limit, with every ``r`` below 1/2, is accepted
    without an SVD.  Otherwise, or when ``inv`` fails, the exact
    ``np.linalg.cond`` of the whole stack decides and is returned, and the
    error's ``position`` is the first slice it refuses.
    """
    n = matrix.shape[-1]
    with np.errstate(all="ignore"):
        try:
            inverse = np.linalg.inv(matrix)
        except np.linalg.LinAlgError:  # an exactly singular slice
            inverse = None
        if inverse is not None:
            norms = np.sqrt(_sum_squares(matrix) * _sum_squares(inverse))
            residual = np.sqrt(_sum_squares(matrix @ inverse - np.eye(n)))
            residual = residual + (2.0 * n * _EPS) * norms
            bound = norms / (1.0 - residual)
            # An overflowed inverse gives NaN or inf, which fails here too.
            if ((residual < 0.5) & (bound <= _COND_LIMIT / 2)).all():
                return bound
    cond = np.linalg.cond(matrix)
    ok = cond <= _COND_LIMIT
    if not np.all(ok):
        error = MembershipError(
            f"matrix is singular or too ill-conditioned to invert (cond={np.max(cond):.3e})"
        )
        error.position = _first_failure(ok)
        raise error
    return cond


def _sum_squares(matrix: np.ndarray) -> np.ndarray:
    """The squared Frobenius norm of each slice."""
    return np.einsum("...ij,...ij->...", matrix, matrix)


def _trusted(cls, **fields):
    """A ``cls`` built without its checks, arrays made read-only: only for
    exact constants and results whose operands' validation implies theirs."""
    out = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(out, name, value)
    return out


@dataclass(frozen=True, eq=False)
class GroupElement:
    """An invertible matrix tagged with the group it belongs to.

    ``matrix`` may also be a stack of shape ``(..., n, n)``; every slice is
    then validated by one array reduction.  The element keeps an upper
    bound on the ``cond`` of every slice, from its invertibility gate.
    """

    matrix: np.ndarray
    spec: GroupSpec

    def __post_init__(self) -> None:
        self._validate(None)

    def _validate(self, cond: Optional[float]) -> None:
        """Membership and finiteness, and invertibility unless ``cond``, a
        known upper bound on the ``cond`` of every slice, stays within half
        the limit; the other half leaves room for rounding in the bound."""
        m = _as_square(self.matrix, self.spec.dim)
        residual = group_membership_residual(m, self.spec)
        if residual > MEMBERSHIP_TOL:
            raise MembershipError(
                f"matrix is not in {self.spec.describe()}: residual {residual:.3e} "
                f"exceeds {MEMBERSHIP_TOL:.0e}"
            )
        if cond is None or not cond <= _COND_LIMIT / 2:
            cond = float(np.max(_require_invertible(m), initial=1.0))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_cond", cond)

    @functools.cached_property
    def _coordinates(self) -> np.ndarray:
        # The element is immutable, so its logarithm is taken once.  A
        # ChartError is not cached: every access raises it again.
        coords = algebra_coordinates(principal_log(self))
        coords.flags.writeable = False
        return coords


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A matrix, or a stack of matrices, in the Lie algebra of a group spec."""

    matrix: np.ndarray
    spec: GroupSpec

    def __post_init__(self) -> None:
        m = _as_square(self.matrix, self.spec.dim)
        residual = algebra_membership_residual(m, self.spec)
        if residual > MEMBERSHIP_TOL:
            raise MembershipError(
                f"matrix is not in the Lie algebra of {self.spec.describe()}: "
                f"residual {residual:.3e} exceeds {MEMBERSHIP_TOL:.0e}"
            )
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class TangentGroupElement:
    """A right-trivialized tangent vector ``[a, B]`` on a matrix group.

    ``base`` is the group element ``a`` the vector is attached to and
    ``algebra`` is the Lie algebra element ``B`` obtained by right
    translation back to the identity.  The actual tangent direction at
    ``a`` is the matrix ``B @ a``.
    """

    base: GroupElement
    algebra: AlgebraElement

    def __post_init__(self) -> None:
        if self.base.spec != self.algebra.spec:
            raise SpecMismatchError(
                f"base lies in {self.base.spec.describe()} but the fiber is in the "
                f"algebra of {self.algebra.spec.describe()}"
            )

    @property
    def spec(self) -> GroupSpec:
        return self.base.spec

    def _kept(self, key, compute: Callable[[], object]):
        """``compute()``, taken on the first call with ``key`` and kept on
        this element after: the element is immutable, so what depends only
        on it (and on what ``key`` names) is computed once per element and
        dropped with it."""
        kept = self.__dict__.setdefault("_kept_values", {})
        if key not in kept:
            kept[key] = compute()
        return kept[key]


def _bounded(matrix: np.ndarray, spec: GroupSpec, cond: float) -> GroupElement:
    """A :class:`GroupElement` of ``matrix``, the ``cond`` of whose slices
    is known to be at most ``cond``: validated as any other, except that
    the invertibility gate runs only when the bound exceeds half the limit."""
    out = object.__new__(GroupElement)
    object.__setattr__(out, "matrix", matrix)
    object.__setattr__(out, "spec", spec)
    out._validate(cond)
    return out


def identity_element(spec: GroupSpec) -> GroupElement:
    """The identity, carrying its exponential coordinates (exact zeros)."""
    coords = np.zeros(len(algebra_basis(spec)))
    return _trusted(
        GroupElement, matrix=np.eye(spec.dim), spec=spec, _coordinates=coords, _cond=1.0
    )


# The probe stacks of _pade_kernels, two n x n slices each that scale and
# square, and the bits scipy.linalg.expm gives for them (SciPy 1.17 with its
# bundled OpenBLAS on x86-64, as float.hex, slice by slice, row by row).
_PROBE_SLICES = {
    3: [[1.0, 2.0, 0.0], [-3.0, 1.0, 4.0], [0.0, -2.0, 5.0]],
    2: [[1.0, 2.0], [-3.0, 1.0]],
}
_PROBE_BITS = {
    3: """
        0x1.7b859d3999185p+2 -0x1.2b28712a997fcp+3 0x1.78ad0b2d32bf8p+4
        0x1.c0bca9bfe63f9p+3 -0x1.19cba3decc797p+4 0x1.c631a52fcbff7p+4
        0x1.1a81c861e60fcp+4 -0x1.c631a52fcbffbp+3 0x1.c6e7c9b2e595fp+4
        0x1.461782e2e99afp+37 -0x1.016319ea0fbeap+37 0x1.3b69ab0187e79p+38
        0x1.8214a6df179dfp+37 -0x1.30bbd32026348p+37 0x1.75703c190010ep+38
        0x1.d91e80824bdbap+37 -0x1.75703c1900112p+37 0x1.c9a192ca12e49p+38
    """,
    2: """
        -0x1.0be18ced23e00p+1 0x1.6a973f0a37291p+0
        -0x1.0ff16f47a95ecp+1 -0x1.0be18ced23dffp+1
        0x1.11905df7f0b61p+11 0x1.9d25151078a3bp+10
        -0x1.35dbcfcc5a7acp+11 0x1.11905df7f0b61p+11
    """,
}


def _probe_stack(n: int) -> np.ndarray:
    return np.array(_PROBE_SLICES[n]) * [[[1.0]], [[8.0]]]


def _recorded_probe(n: int) -> np.ndarray:
    bits = [float.fromhex(word) for word in _PROBE_BITS[n].split()]
    return np.reshape(bits, (2, n, n))


def _probe_agrees(kernels, n: int, want) -> bool:
    """Whether the kernels give the bits ``want`` on the n x n probe stack."""
    try:
        return np.array_equal(_pade_expm(_probe_stack(n), kernels), want)
    except (TypeError, ValueError):
        return False


class _RefuseScipyLinalg:
    """A meta-path finder that refuses ``scipy.linalg`` and its submodules
    to the thread that made it."""

    def __init__(self) -> None:
        self.thread = threading.get_ident()

    def find_spec(self, fullname, path=None, target=None):
        if threading.get_ident() == self.thread and (fullname + ".").startswith("scipy.linalg."):
            raise ImportError(f"{fullname} is not imported while SciPy's expm kernels load alone")
        return None


def _load_alone(name: str, path: str):
    """The module ``name`` run from the file ``path`` without its parent
    package, or None where it does not load.  While it loads, this thread
    may not import ``scipy.linalg``: an extension whose init imports it, as
    a Cython build that cimports ``scipy.linalg.cython_lapack`` would, would
    import the package around a half-made module of its own.  Its init
    fails instead, leaving nothing in ``sys.modules``, and the caller
    imports ``scipy.linalg`` as usual.  The loaded module is entered in
    ``sys.modules`` under ``name``, so a later import takes the same one."""
    spec = importlib.util.spec_from_file_location(name, path)
    refuse = _RefuseScipyLinalg()
    sys.meta_path.insert(0, refuse)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        return None
    finally:
        sys.meta_path.remove(refuse)
    sys.modules[name] = module
    return module


# Held while the kernels' module is looked up and loaded: the import
# system's per-module lock does not cover a load by file.
_LOADING = threading.Lock()


def _load_pade_kernels():
    """``(pick_pade_structure, pade_UV_calc)`` of SciPy's compiled
    ``scipy.linalg._matfuncs_expm``, loaded from its file alone
    (:func:`_load_alone`), or None where the file is not found or does not
    load so.  The file is found from the spec of the top-level package, so
    neither ``scipy/__init__.py`` nor ``scipy/linalg/__init__.py`` (whose
    array-API layer imports ``numpy.f2py`` and ``numpy.testing``) runs; the
    init of SciPy 1.17's extension imports only numpy's C API."""
    name = "scipy.linalg._matfuncs_expm"
    with _LOADING:
        module = sys.modules.get(name)
        if module is None:
            package = importlib.util.find_spec("scipy")
            paths = [
                os.path.join(directory, "linalg", "_matfuncs_expm" + suffix)
                for directory in (package.submodule_search_locations if package else None) or ()
                for suffix in importlib.machinery.EXTENSION_SUFFIXES
            ]
            path = next((path for path in paths if os.path.isfile(path)), None)
            module = path and _load_alone(name, path)
    if module is None:
        return None
    return getattr(module, "pick_pade_structure", None), getattr(module, "pade_UV_calc", None)


def _recorded_admission(kernels, n: int) -> Optional[int]:
    """The smallest size from which the recorded probes admit ``kernels``,
    as far as an n x n stack asks, or None where the recorded bits settle
    nothing.  None where the kernels do not give the recorded bits of the
    3 x 3 probe, and otherwise 3 for n >= 3.  For n = 2: 3 where SciPy is
    older than 1.12, 2 where it is not and the kernels also give the
    recorded bits of the 2 x 2 probe, None where they do not.  SciPy 1.9 to
    1.11 took 2 x 2 exponentials by a closed form (formula (2.2) of Al-Mohy
    & Higham 2009), not by the kernels, and 1.12 dropped it
    (scipy/scipy#19584).  The version is read from the top-level package,
    and only for n = 2: no larger stack needs it, and a cold command that
    takes no 2 x 2 exponential does not pay for that import."""
    if not _probe_agrees(kernels, 3, _recorded_probe(3)):
        return None
    if n >= 3:
        return 3
    import scipy

    if tuple(int(part) for part in scipy.__version__.split(".")[:2]) < (1, 12):
        return 3
    return 2 if _probe_agrees(kernels, 2, _recorded_probe(2)) else None


@functools.cache
def _pade_kernels(n: int):
    """SciPy's compiled expm steps ``(pick_pade_structure, pade_UV_calc)``
    where they give the bits of ``scipy.linalg.expm`` on n x n stacks, or
    None where they do not; n is 2, or 3 for every size from 3.

    The module is private, so its calling convention is tried on probe
    stacks whose slices scale and square: the 3 x 3 one, and for n = 2 the
    2 x 2 one too.  The kernels loaded on their own
    (:func:`_load_pade_kernels`) are admitted where the recorded bits
    settle it (:func:`_recorded_admission`).  Where the file is missing or
    a recorded probe differs, as a BLAS that rounds otherwise can make it,
    ``scipy.linalg`` is imported and the kernels are compared with its
    ``expm`` on the same probes.
    """
    kernels = _load_pade_kernels()
    smallest = kernels and _recorded_admission(kernels, n)
    if smallest:
        return kernels if smallest <= n else None
    from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure

    kernels = pick_pade_structure, pade_UV_calc
    probes = (3, 2) if n == 2 else (3,)
    agrees = all(_probe_agrees(kernels, m, _scipy_expm(_probe_stack(m))) for m in probes)
    return kernels if agrees else None


@functools.cache
def _off_diagonal(n: int) -> np.ndarray:
    """``(n * n, 2)`` flags of the entries below and above the diagonal of a
    flattened ``n x n`` matrix."""
    below = np.tri(n, k=-1, dtype=bool)
    flags = np.stack([below.ravel(), below.T.ravel()], axis=1)
    flags.flags.writeable = False
    return flags


def _scipy_expm(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm(a)``: the one call of it, for what :func:`_expm`
    does not take itself."""
    import scipy.linalg

    return scipy.linalg.expm(a)


def _pade_expm(flat: np.ndarray, kernels) -> np.ndarray:
    """``_expm`` of a C-contiguous float64 ``(S, n, n)`` stack, n >= 2."""
    pick_pade_structure, pade_UV_calc = kernels
    size, n = len(flat), flat.shape[-1]
    # SciPy's bandwidth test for the whole stack: whether a slice has a
    # nonzero entry below the diagonal, and whether above.  With both it is
    # generic, with neither diagonal, with one triangular.
    bands = ((flat.reshape(size, -1) != 0) @ _off_diagonal(n)).tolist()
    # One scratch block per slice, as SciPy's (5, n, n) is for each.
    work = np.empty((size, 5, n, n))
    work[:, 0] = flat
    squarings = [0] * size
    diagonal, delegated = [], []
    for i, (below, above) in enumerate(bands):
        if below and above:
            m, s = pick_pade_structure(work[i])  # scales work[i] when s > 0
            if m >= 0 and pade_UV_calc(work[i], m) == 0:
                squarings[i] = s
                continue
        elif not (below or above):
            diagonal.append(i)
            continue
        delegated.append(i)
    out = work[:, 0].copy()
    for power in range(max(squarings)):
        squared = [i for i, s in enumerate(squarings) if s > power]
        if len(squared) == size:
            out = out @ out
        else:
            out[squared] = out[squared] @ out[squared]
    if diagonal:
        # SciPy's np.diag(np.exp(np.diag(a))) for each diagonal slice.
        rows, d = np.array(diagonal)[:, None], np.arange(n)
        out[diagonal] = 0.0
        with np.errstate(over="ignore"):
            out[rows, d, d] = np.exp(flat[rows, d, d])
    if delegated:
        out[delegated] = _scipy_expm(flat[delegated])
    return out


def _expm(A) -> np.ndarray:
    """``scipy.linalg.expm(A)``, bit for bit, for a float stack ``(..., n, n)``.

    SciPy walks the slices in Python and wraps ``bandwidth`` in its batch
    machinery on each.  This finds the diagonal and triangular slices of
    the whole stack at once, calls the same compiled steps on each generic
    slice (Al-Mohy & Higham 2009: order and scaling, then the Pade
    approximant) and squares the slices in one stacked product per power,
    which numpy rounds as it does each slice alone.  A 1 x 1 stack is
    ``np.exp``, and a diagonal slice the exponential of its diagonal, as in
    SciPy.  Triangular slices, whose squaring SciPy corrects by its own
    formula, slices a kernel reports an error on, and any input but a
    float64 stack of a size :func:`_pade_kernels` admits, go to SciPy's own
    call, and only they import ``scipy.linalg``.
    """
    a = np.asarray(A)
    if a.dtype != np.float64 or a.ndim < 2 or a.size == 0 or a.shape[-1] != a.shape[-2]:
        return _scipy_expm(a)
    n = a.shape[-1]
    if n == 1:
        with np.errstate(over="ignore"):
            return np.exp(a)
    kernels = _pade_kernels(min(n, 3))
    if kernels is None:
        return _scipy_expm(a)
    return _pade_expm(np.ascontiguousarray(a).reshape(-1, n, n), kernels).reshape(a.shape)


def mat_exp(B: AlgebraElement, t: float = 1.0) -> GroupElement:
    """exp(t * B), landing in the group whose algebra ``B`` belongs to.

    Uses ``_expm``, with the bits of ``scipy.linalg.expm``: SciPy's
    compiled scaling-and-squaring Pade steps on generic slices, and its own
    ``np.exp`` expressions on 1 x 1 and diagonal ones.  Raises
    :class:`ExponentOverflowError` when ``||t B||`` is large enough that
    the result would overflow double precision.  The exponent ``t B`` is
    kept, read-only, on the result: :func:`principal_log` takes it as the
    logarithm of every slice with ``||t B||_F < pi``.
    """
    if np.iscomplexobj(t) or not np.isfinite(t):
        raise ValueError("the scale t must be real and finite")
    scaled = t * B.matrix
    # An n x n slice's 2-norm is at most n times its largest entry, so the
    # SVDs are only needed near the guard.
    if scaled.size and float(np.max(np.abs(scaled))) * B.spec.dim > _EXP_NORM_LIMIT:
        norm = float(np.max(np.linalg.norm(scaled, 2, axis=(-2, -1))))
        if norm > _EXP_NORM_LIMIT:
            raise ExponentOverflowError(
                f"||tB|| = {norm:.3e} exceeds the overflow guard {_EXP_NORM_LIMIT:.0f}"
            )
    # cond(e^A) <= |e^A| |e^-A| <= e^(2 |A|), and |A|_2 <= |A|_F; the factor
    # 2 covers the rounding of the computed exponential.
    with np.errstate(over="ignore"):
        cond = 2.0 * np.exp(2.0 * np.sqrt(np.max(_sum_squares(scaled), initial=0.0)))
    out = _bounded(_expm(scaled), B.spec, float(cond))
    scaled.flags.writeable = False
    object.__setattr__(out, "_exponent", scaled)
    return out


def group_multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    if a.spec != b.spec:
        raise SpecMismatchError(
            f"cannot multiply elements of {a.spec.describe()} and {b.spec.describe()}"
        )
    # cond(a b) <= c = cond(a) cond(b).  The computed product lies within
    # d |a| |b| of a b in the 2-norm, d = n^2 eps, so its cond is at most
    # c (1 + d) / (1 - d c), where d c < 1.
    c, d = a._cond * b._cond, a.spec.dim**2 * _EPS
    cond = c * (1.0 + d) / (1.0 - d * c) if d * c < 1.0 else math.inf
    return _bounded(a.matrix @ b.matrix, a.spec, cond)


def tg_multiply(X: TangentGroupElement, Y: TangentGroupElement) -> TangentGroupElement:
    """Group law on tangent pairs: [a, B] * [a', B'] = [a a', B + a B' a^{-1}]."""
    base = group_multiply(X.base, Y.base)  # rejects mismatched specs
    return TangentGroupElement(base, AlgebraElement(_tg_fiber(X, Y), X.spec))


def _tg_fiber(X: TangentGroupElement, Y: TangentGroupElement) -> np.ndarray:
    """The fiber B + a B' a^{-1} of the product [a, B] * [a', B'], as a matrix."""
    a = X.base.matrix
    return X.algebra.matrix + a @ Y.algebra.matrix @ np.linalg.inv(a)


def tg_inverse(X: TangentGroupElement) -> TangentGroupElement:
    """Inverse for the tangent group law: [a, B]^{-1} = [a^{-1}, -a^{-1} B a]."""
    a = X.base.matrix
    a_inv = np.linalg.inv(a)
    base = GroupElement(a_inv, X.spec)
    fiber = -(a_inv @ X.algebra.matrix @ a)
    return TangentGroupElement(base, AlgebraElement(fiber, X.spec))


def _rng(seed: SeedLike) -> np.random.Generator:
    # SeedSequence reads an integer n as it reads the list [n].
    return np.random.default_rng(list(_normalized([seed])[0]))


# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 (a 128-bit
# LCG with XSL-RR output), whose recipes _Stream runs on whole arrays.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
# Stream positions computed per pass, which bounds the 128-bit temporaries.
_JUMP_BLOCK = 64


def _hashmix(values: np.ndarray, const: int, mult: int):
    """SeedSequence's hash of ``values[..., t]`` as its ``t``-th call from
    the constant ``const``; returns the hashes and the constant after them."""
    consts = [const]
    for _ in range(values.shape[-1]):
        consts.append(consts[-1] * mult & _MASK32)
    table = np.array(consts, np.uint32)
    out = (values ^ table[:-1]) * table[1:]
    return out ^ (out >> 16), consts[-1]


def _mix(x, y):
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> 16)


def _mul128(a, b):
    """``a * b`` mod 2**128 on (hi, lo) pairs of uint64 arrays."""
    (ah, al), (bh, bl) = a, b
    a0, a1, b0, b1 = al & _MASK32, al >> 32, bl & _MASK32, bl >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    high = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return high + ah * bl + al * bh, al * bl


@functools.lru_cache(maxsize=None)
def _jump_table(count: int) -> np.ndarray:
    """PCG64's state at output k < count is ``M**(k+2) s + C(k+3) c`` mod
    2**128, from its seed s and increment c, with M the multiplier and
    ``C(t) = sum_{i<t} M**i``: srandom sets ``M (s + c) + c``, and output k
    takes k + 1 steps more.  The two coefficient rows, as (hi, lo) pairs."""
    powers, sums = [1], [0]
    for _ in range(count + 2):
        sums.append((sums[-1] + powers[-1]) % 2**128)
        powers.append(powers[-1] * _PCG_MULT % 2**128)
    rows = [[[v >> 64 for v in c], [v % 2**64 for v in c]] for c in (powers[2:-1], sums[3:])]
    return np.array(rows, np.uint64)


def _normalized(keys: Iterable[SeedLike]) -> tuple[tuple[int, ...], ...]:
    """Each key as the tuple of its elements mod 2**63, the one reduction of
    every seed and key: keys with equal tuples have equal streams.  Keys
    already in that form, as the checks' keys are, come back as they are,
    copying nothing."""
    if isinstance(keys, tuple) and all(
        type(key) is tuple and all(type(e) is int and 0 <= e < 2**63 for e in key)
        for key in keys
    ):
        return keys
    return tuple(
        (int(key) % 2**63,)
        if isinstance(key, (int, np.integer))
        else tuple(int(e) % 2**63 for e in key)
        for key in keys
    )


def _seed(keys: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """PCG64's seed and increment for each normalized key, computed for all
    keys at once (SeedSequence's pool, ``generate_state(4, uint64)``,
    srandom): a ``(4, len(keys), 1)`` uint64 array of the seed's high and
    low words, then the increment's."""
    # SeedSequence's entropy: one 32-bit word per key element, two from 2**32.
    entropy = [
        [w for e in key for w in ((e & _MASK32, e >> 32) if e >> 32 else (e,))] for key in keys
    ]
    lengths = np.array([len(words) for words in entropy], dtype=int)
    width = max(4, int(lengths.max(initial=0)))
    words = np.array([w + [0] * (width - len(w)) for w in entropy], np.uint32)
    words = words.reshape(len(keys), width)
    # The pool hash's constants depend only on the number of calls.
    pool, const = _hashmix(words[:, :4], _INIT_A, _MULT_A)
    for src in range(4):
        others = [dst for dst in range(4) if dst != src]
        hashed, const = _hashmix(pool[:, [src] * 3], const, _MULT_A)
        pool[:, others] = _mix(pool[:, others], hashed)
    for src in range(4, words.shape[1]):
        hashed, const = _hashmix(words[:, [src] * 4], const, _MULT_A)
        pool = np.where((lengths > src)[:, None], _mix(pool, hashed), pool)
    half = _hashmix(np.tile(pool, 2), _INIT_B, _MULT_B)[0].astype(np.uint64)
    state = (half[:, 0::2] | (half[:, 1::2] << 32)).T[:, :, None]
    seq_hi, seq_lo = state[2:]
    state[2:] = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
    return state


def _outputs(state: np.ndarray, start: int, stop: int) -> np.ndarray:
    """``Generator.uniform(-1.0, 1.0)`` at positions ``start`` to ``stop - 1``
    of each stream seeded to ``state``: the output states from the jump
    table, a block of positions at a time, then the XSL-RR output."""
    seed, inc = state[:2], state[2:]
    powers, sums = _jump_table(stop)
    bits = np.empty((state.shape[1], stop - start), np.uint64)
    for first in range(start, stop, _JUMP_BLOCK):
        block = slice(first, min(first + _JUMP_BLOCK, stop))
        (hi, lo), (add_hi, add_lo) = _mul128(seed, powers[:, block]), _mul128(inc, sums[:, block])
        lo = lo + add_lo
        hi = hi + add_hi + (lo < add_lo)
        x, rot = hi ^ lo, hi >> 58
        bits[:, first - start : block.stop - start] = ((x >> rot) | (x << ((64 - rot) & 63))) >> 11
    return -1.0 + 2.0 * (bits * 2.0**-53)


class _Stream:
    """The uniform streams of one key set, seeded once and drawn as far as
    asked.  Output ``k`` does not depend on how many are drawn, so the rows
    drawn so far are kept: a longer draw computes only the new positions,
    a shorter one is a slice."""

    __slots__ = ("_state", "_rows", "__weakref__")

    def __init__(self, keys: tuple[tuple[int, ...], ...]):
        self._state = _seed(keys)
        self._rows = np.empty((len(keys), 0))
        self._rows.flags.writeable = False

    def draws(self, count: int) -> np.ndarray:
        """Read-only ``(keys, count)`` draws: row ``r`` is, bit for bit,
        ``_rng(keys[r]).uniform(-1.0, 1.0, count)``."""
        drawn = self._rows.shape[1]
        if count > drawn:
            rows = np.concatenate([self._rows, _outputs(self._state, drawn, count)], axis=1)
            rows.flags.writeable = False
            self._rows = rows
        return self._rows[:, :count]


# The streams by normalized key set, held weakly: only the stacks drawn
# from a stream hold it (sample_tangent_elements keeps it on its stack, and
# the action oracle keeps its probes' stream on the stack it probes), so
# draws under one key set share one seeding while such a stack lives, and
# no stream outlives them.
_STREAMS: "weakref.WeakValueDictionary[tuple, _Stream]" = weakref.WeakValueDictionary()


def _stream(keys: Iterable[SeedLike]) -> _Stream:
    """The streams of ``keys``, seeded now unless a live stack holds them."""
    keys = _normalized(keys)
    stream = _STREAMS.get(keys)
    if stream is None:
        stream = _STREAMS[keys] = _Stream(keys)
    return stream


def _tangent_draw(spec: GroupSpec, draw) -> TangentGroupElement:
    """Tangent elements from ``draw(count)``, which gives ``(..., count)``
    uniform draws: the base's algebra element first, then the fiber.  The
    base keeps the exponent ``B_0`` it was drawn as (see :func:`mat_exp`):
    a logarithm of the base, though not always the principal one."""
    n = spec.dim
    if spec.kind is GroupKind.CIRCLE:
        algebra = draw(2)[..., None, None] * _CIRCLE_GENERATOR
    else:
        draws = draw(2 * n * n)
        algebra = draws.reshape(draws.shape[:-1] + (2, n, n))
    if spec.kind is GroupKind.SPECIAL_LINEAR:
        trace = np.trace(algebra, axis1=-2, axis2=-1)
        algebra = algebra - (trace / n)[..., None, None] * np.eye(n)
    elif spec.kind is GroupKind.SPECIAL_ORTHOGONAL:
        algebra = (algebra - np.swapaxes(algebra, -1, -2)) / 2.0
    base = mat_exp(AlgebraElement(algebra[..., 0, :, :], spec))
    return TangentGroupElement(base, AlgebraElement(algebra[..., 1, :, :], spec))


def sample_tangent_element(spec: GroupSpec, seed: SeedLike = 0) -> TangentGroupElement:
    """Base drawn first, then the fiber, from one generator per seed."""
    return _tangent_draw(spec, functools.partial(_rng(seed).uniform, -1.0, 1.0))


def sample_tangent_elements(
    spec: GroupSpec, seeds: Iterable[SeedLike]
) -> TangentGroupElement:
    """Stack of :func:`sample_tangent_element` over ``seeds``, bit for bit,
    drawn for all seeds at once.  The stack holds the streams it was drawn
    from, so a draw under the same seeds while it lives seeds nothing."""
    stream = _stream(seeds)
    X = _tangent_draw(spec, stream.draws)
    object.__setattr__(X, "_stream", stream)
    return X


@functools.lru_cache(maxsize=None)
def algebra_basis(spec: GroupSpec) -> tuple[np.ndarray, ...]:
    """Canonical ordered basis of the Lie algebra of ``spec``.

    General linear: the matrix units E_ij in row-major order.  Special
    linear: off-diagonal units first (row-major), then the traceless
    diagonals E_kk - E_{k+1,k+1}.  Special orthogonal: E_ij - E_ji for
    i < j in lexicographic order.  Circle: the single generator
    [[0, 1], [-1, 0]].
    """
    n = spec.dim
    kind = spec.kind

    def unit(i: int, j: int) -> np.ndarray:
        e = np.zeros((n, n))
        e[i, j] = 1.0
        return e

    basis: list[np.ndarray] = []
    if kind is GroupKind.GENERAL_LINEAR:
        basis = [unit(i, j) for i in range(n) for j in range(n)]
    elif kind is GroupKind.SPECIAL_LINEAR:
        basis = [unit(i, j) for i in range(n) for j in range(n) if i != j]
        for k in range(n - 1):
            basis.append(unit(k, k) - unit(k + 1, k + 1))
    elif kind is GroupKind.SPECIAL_ORTHOGONAL:
        basis = [unit(i, j) - unit(j, i) for i in range(n) for j in range(i + 1, n)]
    else:
        basis = [_CIRCLE_GENERATOR]
    for b in basis:
        b.flags.writeable = False
    return tuple(basis)


def _basis_matrix(spec: GroupSpec) -> np.ndarray:
    return np.stack([b.reshape(-1) for b in algebra_basis(spec)], axis=1)


def algebra_coordinates(B: AlgebraElement) -> np.ndarray:
    """Coordinates of ``B`` in the canonical basis of its algebra.

    For a stack of shape ``(..., n, n)`` the result has shape ``(..., k)``;
    one least-squares solve takes every slice as a right-hand side.
    """
    basis = _basis_matrix(B.spec)
    stack = B.matrix.shape[:-2]
    targets = B.matrix.reshape(-1, basis.shape[0]).T
    coords, *_ = np.linalg.lstsq(basis, targets, rcond=None)
    return coords.T.reshape(stack + (basis.shape[1],))


def algebra_from_coordinates(coords, spec: GroupSpec) -> AlgebraElement:
    coords = _real(coords, "coordinate vector").reshape(-1)
    basis = algebra_basis(spec)
    if coords.shape[0] != len(basis):
        raise ValueError(
            f"{spec.describe()} needs {len(basis)} coordinates, got {coords.shape[0]}"
        )
    matrix = np.tensordot(coords, np.stack(basis), axes=1)
    return AlgebraElement(matrix, spec)


def _logm(slices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The principal logarithm of each slice of a real ``(S, n, n)`` stack,
    complex where a slice has no real one, and the relative residual of
    its real part's exponential against the slice.

    ``scipy.linalg.logm`` per slice (the oldest supported SciPy takes one
    matrix), the same bits on every call.  Its randomized 1-norm estimator
    draws from numpy's global RNG, which is reseeded before each slice and
    restored afterwards; not safe if other threads use that RNG meanwhile.
    Its accuracy warnings are silenced: :func:`_chart_log` refuses a
    logarithm that is complex or fails to reconstruct its slice.
    """
    import scipy.linalg

    state = np.random.get_state()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            logs = []
            for m in slices:
                np.random.seed(0)
                logs.append(scipy.linalg.logm(m))
    finally:
        np.random.set_state(state)
    log = np.stack(logs)
    with np.errstate(all="ignore"):
        rebuilt = _expm(np.real(log))
    return log, relative_residual(rebuilt, slices, axis=(-2, -1))


def _chart_log(spec: GroupSpec, slices: np.ndarray) -> np.ndarray:
    """The real principal logarithm of each slice of an ``(S, n, n)``
    stack, by :func:`_logm`, or :class:`ChartError` if one has none."""
    if spec.kind is GroupKind.CIRCLE:
        # math.atan2 per slice: np.arctan2 can differ in the last bit.
        theta = np.array([math.atan2(m[0, 1], m[0, 0]) for m in slices])
        return theta[:, None, None] * _CIRCLE_GENERATOR
    log, residual = _logm(slices)
    if np.max(np.abs(np.imag(log))) > 1e-9:
        raise ChartError(
            "element has no real principal logarithm; supply exponential "
            "coordinates instead"
        )
    if not np.all(residual <= 1e-6):
        raise ChartError("principal logarithm failed to reconstruct the element")
    return np.real(log)


def principal_log(a: GroupElement) -> AlgebraElement:
    """Principal matrix logarithm of ``a`` (one element or a stack), as an
    algebra element.

    A slice of ``mat_exp(B, t)`` with ``||tB||_F < pi`` takes ``tB``: its
    eigenvalues lie in the strip ``|Im z| < pi``, so it is the principal
    logarithm (Higham, Functions of Matrices, 2008, Thm 1.31).  Other
    slices take SciPy's ``logm`` of the matrix, one at a time, so a stack's
    logarithm is its slices' bit for bit.  The circle group is handled by angle extraction, so the
    full chart (-pi, pi] is available including the boundary.  For other
    kinds the principal logarithm must be real and reconstruct the slice;
    elements outside that chart raise :class:`ChartError`.
    """
    n = a.spec.dim
    # An element that is no exponential takes every slice from the matrix.
    log = getattr(a, "_exponent", np.full_like(a.matrix, np.inf)).reshape(-1, n, n).copy()
    todo = np.sqrt(_sum_squares(log)) >= math.pi
    if todo.any():
        log[todo] = _chart_log(a.spec, a.matrix.reshape(-1, n, n)[todo])
    return AlgebraElement(log.reshape(a.matrix.shape), a.spec)


def group_coordinates(a: GroupElement) -> np.ndarray:
    """Exponential coordinates of ``a`` in the canonical algebra basis,
    shape ``(..., k)`` for a stack: those of :func:`principal_log`, so a
    drawn element's are its exponent's wherever ``||B_0||_F < pi``.

    Computed on the first call and kept, read-only, on ``a``.
    """
    return a._coordinates
