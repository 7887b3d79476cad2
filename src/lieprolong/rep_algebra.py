"""Structural checks on representations and their prolongations.

The checks that test ``apply`` are sampling-based and deterministic:
callers pass an integer seed, each sampled element is derived from (seed,
sample index), and any reported witness carries that provenance so a
failure can be replayed exactly.  Three probes draw nothing and decide
their claim from the generator images ``d rho(B_i)``, since ``exp(g)``
generates the identity component, the part of the group the library
evaluates: :func:`faithfulness_probe` reads the kernel off the
differential and the center of the group, :func:`commutant_basis` solves
the commutation constraints on the generators, and
:func:`reducibility_probe` reads irreducibility or an invariant subspace
off that commutant.

The sampled checks share one driver: samples are drawn as stacks of at
most ``_CHUNK`` elements, the representation is evaluated on the whole
stack, and the check is a reduction over it.  The witness is the first
sample index attaining the worst residual.  A check that scores several
parts of its claim on one stack, as the invariance transfer does, takes the
worst part's residual, and its witness names that part.  A check over
zero samples raises instead of passing.

Claims that hold for any matrices ``R`` and ``K`` in ``[[R, 0], [K R,
R]]`` are not sampled at all.  ``tests/test_acceptance.py`` proves them in
sympy on symbolic blocks: the prolongation is a homomorphism when ``rho``
is and the fiber identity holds (criterion 02), the block action is the
derivative of the action curve when ``rho`` is a homomorphism tied to its
differential (criterion 03), the transfer of an equivalence to the
prolongations (criterion 04), the transfer of an invariant subspace to its
lift and back (criterion 05), the invariance of the fiber directions, and
the prolongation of a :func:`direct_sum` as the sum of the prolongations
(criterion 07).  A check samples what such a proof assumes of the map, and
never forms a prolonged image or a tangent product: two scans
(:class:`_Scans`) hold the hypotheses.  The homomorphism scan scores
``rho(a a')`` against ``rho(a) rho(a')`` and the fiber identity ``d rho(B
+ a B' a^-1) R = d rho(B) R + R d rho(B')`` on sampled pairs; the tie
scan scores ``rho(exp B_0)`` against ``expm(d rho(B_0))``, at the exponent
each sample was drawn from, which ties ``apply`` to ``differential``.
:func:`check_homomorphism` reads the first, :func:`check_equivalence_transfer`
the second, and :func:`check_action_oracle` the base part of the first and
the second.  :func:`check_invariance_transfer` scores ``U`` under ``rho(a)``
and under ``d rho(B)`` at sampled tangent elements, and never forms the
lift: a nonlinear ``d rho`` can keep ``U`` invariant on a basis and not
elsewhere.

Checks return a :class:`CheckReport` with a three-way verdict.  ``FAIL``
always comes with a witness.  ``INCONCLUSIVE`` is reserved for probes
that are allowed to give up, such as :func:`reducibility_probe` when its
commutant is neither a division algebra nor split by a verified kernel,
or :func:`faithfulness_probe` when a positive scalar may lie in the kernel.

SciPy is imported inside the functions that call it, so importing this
module or building the catalog loads none of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .groups import (
    AlgebraElement,
    GroupElement,
    GroupKind,
    GroupSpec,
    SpecMismatchError,
    TangentGroupElement,
    _as_square,
    _expm,
    _normalized,
    _real,
    _require_invertible,
    _stream,
    _tg_fiber,
    algebra_basis,
    algebra_coordinates,
    algebra_from_coordinates,
    block_diag,
    group_multiply,
    identity_element,
    relative_residual,
    sample_tangent_elements,
    special_orthogonal,
)
from .prolongation import (
    NonFiniteImageError,
    ProlongedRepresentation,
    Representation,
    _dense,
    _require_finite,
    _require_invertible_image,
    differential_rep,
    prolong,
    rep_image,
)

__all__ = [
    "CheckReport",
    "SubspaceBasis",
    "Verdict",
    "check_action_oracle",
    "check_equivalence_transfer",
    "check_homomorphism",
    "check_invariance_transfer",
    "commutant_basis",
    "conjugate_representation",
    "direct_sum",
    "faithfulness_probe",
    "is_intertwiner",
    "is_invariant_subspace",
    "prolong_intertwiner",
    "random_conjugator",
    "reducibility_probe",
]

# Relative threshold for rank and nullspace decisions: a singular value
# counts as zero when it is below _RANK_RTOL times the largest one.
_RANK_RTOL = 1e-8

# Eigenvalues of a unit-norm commutant element this close are one cluster.
_EIGEN_CLUSTER = 1e-6

# Samples are drawn and evaluated in stacks of at most this many, which
# bounds the memory a check needs whatever the sample count.  The sample
# memo keeps at most _SAMPLE_MEMO stacks, so it stays bounded too: at most
# 64 x 256 tangent elements, however many samples a run draws.  Over a
# 3 x 3 group an element is 18 floats, 27 with the exponent B_0 its base
# was drawn as, 36 with its base's coordinates, and 58 with the streams it
# was drawn from (4 words of seeded state and 18 draws); what checks keep
# on it adds at most 18 more (the group product with a partner, with its
# coordinates): 10.0 MB in all.
_CHUNK = 256
_SAMPLE_MEMO = 64

# Default tolerance of the homomorphism checks, plain and prolonged, and of
# the action oracle, which samples the same hypotheses.
_HOMOMORPHISM_TOL = 1e-9

RepLike = Union[Representation, ProlongedRepresentation]


class Verdict(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: verdict, worst residual, optional witness."""

    name: str
    verdict: Verdict
    max_residual: float
    witness: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.verdict is Verdict.FAIL and self.witness is None:
            raise ValueError("a failing report must carry a witness")

    @property
    def passed(self) -> bool:
        return self.verdict is Verdict.PASS


def _payload(value):
    """Make a witness value JSON-serializable."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _derive(seed, *indices: int) -> tuple[int, ...]:
    """The key ``(*seed, *indices)``, reduced as every key is."""
    head = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
    return _normalized((head + indices,))[0]


def _keys(seed, indices, *prefix: int) -> tuple[tuple[int, ...], ...]:
    """Per-sample keys ``_derive(seed, *prefix, i)`` for each sample index
    ``i``, which is already reduced."""
    head = _derive(seed, *prefix)
    return tuple(head + (int(i),) for i in indices)


# A stack depends only on its group and its keys, and every element is
# read-only, so checks that draw the same keys (the same check over the
# catalog entries of one group, or checks sharing a seed prefix) share
# one draw within a process, and with it what is kept on the draw: the
# exponential coordinates, the homomorphism scan's group products with
# their coordinates, and the seeded streams of the draw's keys, with the
# rows drawn from them.  Clearing the memo drops them all.  The public
# samplers stay unmemoized: their stacks can be any size.
@functools.lru_cache(maxsize=_SAMPLE_MEMO)
def _tangent_sample(
    spec: GroupSpec, keys: tuple[tuple[int, ...], ...]
) -> TangentGroupElement:
    return sample_tangent_elements(spec, keys)


def _image(rep: RepLike, X: TangentGroupElement) -> np.ndarray:
    """``rep`` at a memoized tangent stack: a prolongation at ``X``, a plain
    representation at ``X.base``, which is bit for bit the group draw under
    the same keys (both exponentiate the first draws of each key)."""
    if isinstance(rep, ProlongedRepresentation):
        return rep.apply(X)
    return rep_image(rep, X.base)


def _algebra_images(rep: RepLike) -> np.ndarray:
    """The images ``D_i = d rho(B_i)`` of the canonical algebra basis, a
    ``(k, m, m)`` stack.  For a prolongation, the 2k images of the basis of
    the tangent algebra, g acting on itself, in :func:`prolong`'s layout:
    ``[[D_i, 0], [0, D_i]]``, then ``[[0, 0], [D_i, 0]]``.

    ``exp(g)`` generates the identity component, the part of the group the
    library evaluates, so a matrix commutes with every image, and a subspace
    is invariant under every image, exactly when the same holds for these.
    """
    base = rep.base if isinstance(rep, ProlongedRepresentation) else rep
    images = differential_rep(base, AlgebraElement(np.stack(algebra_basis(rep.group)), rep.group))
    if isinstance(rep, ProlongedRepresentation):
        return np.concatenate([_dense(images, 0), _dense(0, images)])
    return images


def _require_gate(tol: float, samples: int = 1) -> None:
    """Refuse a check that says nothing: one over no sample, or one whose
    ``tol`` is NaN, infinite or negative, which every residual passes or none
    does."""
    if samples < 1:
        raise ValueError("a sampled check needs at least one sample")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")


def _chunks(samples: int) -> Iterator[np.ndarray]:
    """Sample indices 0..samples-1 in stacks of at most ``_CHUNK``."""
    for start in range(0, samples, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, samples))


def _scan(
    name: str, samples: int, seed, residuals: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Worst residual over all samples and the first index attaining it,
    as 1-D arrays with one entry per part.

    ``residuals(indices)`` returns an array whose last axis runs over
    ``indices``; a leading axis, if any, runs over parts scanned
    independently.  Images that cannot be evaluated raise a
    :class:`NonFiniteImageError` naming the check, the seed and the first
    sample that fails on its own, with that sample's own message, so the
    failure replays.
    """
    worst = index = None
    for indices in _chunks(samples):
        try:
            chunk = residuals(indices)
        except NonFiniteImageError:
            # A stack fails at its first failing evaluation, which need not
            # hold the first failing sample: replay the samples one by one.
            shown = list(seed) if isinstance(seed, tuple) else _payload(seed)
            for i in range(len(indices)):
                try:
                    residuals(indices[i : i + 1])
                except NonFiniteImageError as exc:
                    raise NonFiniteImageError(
                        f"{name} check, seed {shown}, sample index {indices[i]}: {exc}"
                    ) from None
            raise
        k = np.argmax(chunk, axis=-1)
        top = np.take_along_axis(chunk, k[..., None], axis=-1)[..., 0]
        if worst is None:
            worst, index = top, indices[k]
        else:
            better = top > worst
            worst, index = np.where(better, top, worst), np.where(better, indices[k], index)
    return np.ravel(worst), np.ravel(index)


def _verdict(name: str, worst: float, tol: float, witness: dict) -> CheckReport:
    """The one verdict rule: PASS when ``worst`` is below ``tol``, else FAIL
    carrying ``witness``."""
    if worst < tol:
        return CheckReport(name, Verdict.PASS, worst)
    return CheckReport(name, Verdict.FAIL, worst, witness)


def _witness(seed, index, residual) -> dict:
    """Where a sampled check came nearest to failing, in replayable form."""
    return {"seed": _payload(seed), "sample_index": int(index), "residual": float(residual)}


def _worst_part(
    name: str, tol: float, seeds, worst, index, parts: tuple[str, ...] = ()
) -> CheckReport:
    """:func:`_verdict` on the worst of one or more scanned parts: ``worst``
    and ``index`` hold one entry per part, as :func:`_scan` gives them, and
    ``seeds`` the seed each part's indices were drawn under.  With
    ``parts``, the witness names the worst part."""
    k = int(np.argmax(worst))
    witness = _witness(seeds[k], index[k], worst[k])
    if parts:
        witness = {"part": parts[k], **witness}
    return _verdict(name, float(worst[k]), tol, witness)


def _sampled_check(
    name: str,
    samples: int,
    seed,
    tol: float,
    residuals: Callable[[np.ndarray], np.ndarray],
    parts: tuple[str, ...] = (),
) -> CheckReport:
    """:func:`_scan` and :func:`_verdict`.  With ``parts``, ``residuals``
    returns one row per part: the residual is the worst part's, and the
    witness names that ``part``."""
    _require_gate(tol, samples)
    worst, index = _scan(name, samples, seed, residuals)
    return _worst_part(name, tol, [seed] * len(worst), worst, index, parts)


@dataclass(frozen=True, eq=False)
class _Scans:
    """The two scans that the homomorphism, oracle and equivalence rows of
    ``rep`` read, each :func:`_scan`'s worst residual and index per part,
    run once and only when a row reads it: a command keeps one per
    representation it checks, so its rows share them.  A scan that raises
    is not kept.

    - :attr:`homomorphism`, on the pairs ``X = [a, B]`` and ``Y = [a', B']``
      drawn under the keys ``(seed, 2i)`` and ``(seed, 2i + 1)``, with ``R =
      rho(a)`` and ``R' = rho(a')``, scores ``base``, ``rho(a a')`` against
      ``R R'``, and ``fiber``, the fiber identity ``d rho(C) R`` against ``d
      rho(B) R + R d rho(B')``, where ``C = B + a B' a^-1`` is the fiber of
      ``XY``.
    - :attr:`tie` scores ``rho(exp B_0)`` against ``expm(d rho(B_0))`` on
      the stack drawn under the keys ``(seed, 1, i)``, at the exponent each
      base was drawn as: no logarithm is taken.
    """

    rep: Representation
    samples: int
    seed: object

    @property
    def tie_seed(self) -> tuple[int, ...]:
        """The seed of the tie's keys ``(seed, 1, i)``."""
        return _derive(self.seed, 1)

    @functools.cached_property
    def homomorphism(self) -> tuple[np.ndarray, np.ndarray]:
        # The factors pass the invertibility gate that prolong puts on a
        # diagonal block; the product's image is scored, not gated.  Products
        # of images that overflow are refused, as images floating point
        # cannot hold.
        rep, spec, seed = self.rep, self.rep.group, self.seed

        def residuals(indices):
            X = _tangent_sample(spec, _keys(seed, 2 * indices))
            Y = _tangent_sample(spec, _keys(seed, 2 * indices + 1))
            # Kept on X with Y in its key: every representation checked on
            # these stacks takes the same product, and it keeps its
            # logarithm, which a descriptor's apply then takes once.
            product = X._kept(("product", Y), lambda: group_multiply(X.base, Y.base))
            image = rep_image(rep, product)
            R, R2 = (
                _require_invertible_image(rep_image(rep, Z.base), Z.base, "apply image")
                for Z in (X, Y)
            )
            fibers = AlgebraElement(
                np.stack([X.algebra.matrix, Y.algebra.matrix, _tg_fiber(X, Y)]), spec
            )
            K, K2, KC = differential_rep(rep, fibers)
            with np.errstate(over="ignore", invalid="ignore"):
                RR, left, right = R @ R2, KC @ R, K @ R + R @ K2
            _require_finite(RR, "product rho(a) rho(a') has")
            _require_finite(left, "product d rho(C) R has")
            _require_finite(right, "product d rho(B) R + R d rho(B') has")
            return np.stack(
                [
                    relative_residual(image, RR, axis=(-2, -1)),
                    relative_residual(left, right, axis=(-2, -1)),
                ]
            )

        return _scan("homomorphism", self.samples, seed, residuals)

    @functools.cached_property
    def tie(self) -> tuple[np.ndarray, np.ndarray]:
        rep, seed = self.rep, self.tie_seed

        def residuals(indices):
            X = _tangent_sample(rep.group, _keys(seed, indices))
            image = rep_image(rep, X.base)
            with np.errstate(over="ignore", invalid="ignore"):
                tied = _expm(differential_rep(rep, AlgebraElement(X.base._exponent, rep.group)))
            _require_finite(tied, "exponential expm(d rho(B_0)) has")
            return relative_residual(image, tied, axis=(-2, -1))

        return _scan("equivalence_transfer", self.samples, seed, residuals)

    def homomorphism_rows(
        self, tol: float = _HOMOMORPHISM_TOL
    ) -> tuple[CheckReport, CheckReport]:
        """The homomorphism row of ``rep`` and of its prolongation.

        The block defect ``rho~(XY) - rho~(X) rho~(Y)`` of the prolongation
        has the base defect ``D`` on its diagonal and ``d rho(C) D + F R'``
        below it, with ``F`` the fiber identity's defect: block algebra,
        proved in sympy by ``tests/test_acceptance.py``, criterion 02.  So
        the prolonged row is the worse of the ``base`` and ``fiber`` parts,
        and its witness names the part.
        """
        _require_gate(tol, self.samples)
        worst, index = self.homomorphism
        seeds = [self.seed] * 2
        return (
            _worst_part("homomorphism", tol, seeds, worst[:1], index[:1]),
            _worst_part("homomorphism", tol, seeds, worst, index, ("base", "fiber")),
        )

    def oracle_row(self, tol: float = _HOMOMORPHISM_TOL) -> CheckReport:
        """The action oracle row: the worse of ``base``, the homomorphism's
        base part, and ``tie``.  A ``tie`` witness carries the tie's seed."""
        _require_gate(tol, self.samples)
        (base, base_index), (tie, tie_index) = self.homomorphism, self.tie
        return _worst_part(
            "action_oracle",
            tol,
            [self.seed, self.tie_seed],
            [base[0], tie[0]],
            [base_index[0], tie_index[0]],
            ("base", "tie"),
        )

    def equivalence_row(self, tol: float = 1e-9) -> CheckReport:
        """The equivalence row, read off the tie."""
        _require_gate(tol, self.samples)
        worst, index = self.tie
        return _worst_part("equivalence_transfer", tol, [self.tie_seed], worst, index)


def check_homomorphism(
    rep: RepLike,
    samples: int = 200,
    seed: int = 0,
    tol: float = _HOMOMORPHISM_TOL,
) -> CheckReport:
    """Sample pairs and compare the image of the product with the product
    of the images.  Works on plain representations and on prolongations:
    a prolongation's row is the worse of its base's row and the fiber
    identity on the same pairs (:meth:`_Scans.homomorphism_rows`).
    """
    if isinstance(rep, ProlongedRepresentation):
        return _Scans(rep.base, samples, seed).homomorphism_rows(tol)[1]
    return _Scans(rep, samples, seed).homomorphism_rows(tol)[0]


def check_action_oracle(
    rep: Representation,
    samples: int = 200,
    seed: int = 0,
    tol: float = _HOMOMORPHISM_TOL,
) -> CheckReport:
    """The block action ``(p, v) |-> (R p, K R p + R v)`` is the derivative
    at ``t = 0`` of the action curve ``t |-> rho(exp(tB) a) (p + t v)``.

    With the homomorphism ``rho(exp(tB) a) = rho(exp tB) rho(a)`` and the
    tie ``rho(exp tB) = expm(t d rho(B))``, the curve is ``expm(tK) R (p +
    t v)``, whose derivative is the block action: proved in sympy by
    ``tests/test_acceptance.py``, criterion 03, which also compares the two
    sides numerically.  So the check samples the two hypotheses: ``base``,
    the homomorphism's base part under the keys ``(seed, 2i)`` and ``(seed,
    2i + 1)``, and ``tie``, the equivalence row's tie under ``(seed, 1,
    i)``.  The residual is the worse part's, and the witness names it.  The
    default tolerance is the hypotheses' own.
    """
    return _Scans(rep, samples, seed).oracle_row(tol)


def _intertwiner_matrix(A) -> np.ndarray:
    """``A`` as a :func:`_real` matrix, checked to be 2-D."""
    matrix = _real(A, "intertwiner")
    if matrix.ndim != 2:
        raise ValueError(f"an intertwiner must be a matrix, got ndim {matrix.ndim}")
    return matrix


def is_intertwiner(
    A,
    rep1: RepLike,
    rep2: RepLike,
    samples: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckReport:
    """Check A @ rho1(x) = rho2(x) @ A on sampled elements.

    ``A`` must be a real, finite matrix of shape (dim rho2, dim rho1); its rank
    is not checked.  Both representations must live over the same group and at the same
    level (both plain or both prolonged) so that a single sampled element
    can be pushed through each side.
    """
    matrix = _intertwiner_matrix(A)
    if rep1.group != rep2.group:
        raise SpecMismatchError("intertwined representations must share a group")
    if isinstance(rep1, ProlongedRepresentation) != isinstance(
        rep2, ProlongedRepresentation
    ):
        raise SpecMismatchError(
            "cannot intertwine a plain representation with a prolonged one"
        )
    if matrix.shape != (rep2.target_dim, rep1.target_dim):
        raise ValueError(
            f"intertwiner shape {matrix.shape} does not map dim {rep1.target_dim} "
            f"to dim {rep2.target_dim}"
        )

    def residuals(indices):
        X = _tangent_sample(rep1.group, _keys(seed, indices))
        images1, images2 = _image(rep1, X), _image(rep2, X)
        # Finite images can still overflow in these products, which are then
        # refused as images floating point cannot hold.
        with np.errstate(over="ignore", invalid="ignore"):
            left, right = matrix @ images1, images2 @ matrix
        _require_finite(left, "intertwined image A rho1(x) has")
        _require_finite(right, "intertwined image rho2(x) A has")
        return relative_residual(left, right, axis=(-2, -1))

    return _sampled_check("intertwiner", samples, seed, tol, residuals)


def prolong_intertwiner(A) -> np.ndarray:
    """Lift an intertwiner to tangent coordinates: the read-only matrix
    block-diag(A, A).

    The lift is returned regardless of rank; callers asserting an
    equivalence should check that ``A`` has full rank first, for instance
    with ``np.linalg.matrix_rank``.
    """
    matrix = _intertwiner_matrix(A)
    lift = block_diag(matrix, matrix)
    lift.flags.writeable = False
    return lift


def random_conjugator(n: int, seed=0) -> np.ndarray:
    """A deterministic random invertible matrix with moderate conditioning:
    ``expm(U / 2)``, with ``U`` drawn as ``np.random.default_rng(seed)``
    draws it uniformly from (-1, 1).  Its determinant ``e^(tr U / 2)`` is
    positive."""
    draws = _stream([seed]).draws(n * n)
    return _expm(0.5 * draws.reshape(n, n))


def conjugate_representation(rep: Representation, A) -> Representation:
    """The equivalent representation a |-> A rho(a) A^{-1}, for a real
    invertible ``target_dim x target_dim`` matrix ``A``."""
    matrix = _as_square(A, rep.target_dim)
    if matrix.ndim != 2:
        raise ValueError("a conjugator must be one matrix, not a stack")
    _require_invertible(matrix)
    inverse = np.linalg.inv(matrix)
    return Representation(
        group=rep.group,
        target_dim=rep.target_dim,
        apply=lambda a: matrix @ rep.apply(a) @ inverse,
        differential=lambda B: matrix @ rep.differential(B) @ inverse,
        name=f"conj({rep.name})" if rep.name else "conj",
    )


def check_equivalence_transfer(
    rep: Representation,
    samples: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckReport:
    """Equivalent representations have equivalent prolongations.

    The theorem is block algebra, proved once in sympy by
    ``tests/test_acceptance.py``, criterion 04: when ``R_2 = A R A^-1`` and
    ``K_2 = A K A^-1``, block-diag(A, A) intertwines ``[[R, 0], [K R, R]]``
    with ``[[R_2, 0], [K_2 R_2, R_2]]``.  The representation ``rho_2`` with
    generator images ``A D_i A^-1`` takes ``exp(B_0)`` to ``A expm(d
    rho(B_0)) A^-1``, so ``A`` intertwines ``rep`` with ``rho_2`` exactly
    when ``rho(exp B_0) = expm(d rho(B_0))``.  That tie between ``apply``
    and ``differential`` is what the check samples: each sample is drawn
    as ``exp(B_0)`` under the key ``(seed, 1, i)``, and ``rho`` there is
    scored against ``expm(d rho(B_0))``, with no logarithm.  An exponential
    that overflows is refused as a :class:`NonFiniteImageError`.
    """
    return _Scans(rep, samples, seed).equivalence_row(tol)


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Rows spanning a linear subspace of R^{ambient_dim}.

    Vectors must be linearly independent (rank-checked by SVD).  A basis
    with zero rows is allowed and denotes the zero subspace.
    """

    ambient_dim: int
    vectors: np.ndarray

    def __post_init__(self) -> None:
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        v = _real(self.vectors, "basis")
        if v.size == 0:
            v = v.reshape(0, self.ambient_dim)
        if v.ndim == 1:
            v = v.reshape(1, -1)
        if v.ndim != 2 or v.shape[1] != self.ambient_dim:
            raise ValueError(
                f"expected vectors of length {self.ambient_dim}, got shape {v.shape}"
            )
        if v.shape[0] > self.ambient_dim:
            raise ValueError("more vectors than the ambient dimension")
        if v.shape[0] > 0:
            s = np.linalg.svd(v, compute_uv=False)
            if s[0] == 0.0 or np.sum(s > _RANK_RTOL * s[0]) < v.shape[0]:
                raise ValueError("basis vectors are linearly dependent")
        object.__setattr__(self, "vectors", v)

    @property
    def dimension(self) -> int:
        return self.vectors.shape[0]

    def orthonormal(self) -> np.ndarray:
        """Orthonormal rows spanning the same subspace."""
        if self.dimension == 0:
            return self.vectors
        _, _, vh = np.linalg.svd(self.vectors, full_matrices=False)
        return vh


def is_invariant_subspace(
    rep: RepLike,
    U: SubspaceBasis,
    samples: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckReport:
    """Least-squares membership of the images of U's basis in span(U).

    The residual for a sampled element is the :func:`relative_residual` of
    those images' projection onto span(U).  The zero subspace passes
    vacuously, over at least one sample like any other.
    """
    q = U.orthonormal()

    def residuals(indices):
        images = _image(rep, _tangent_sample(rep.group, _keys(seed, indices))) @ q.T
        return _projection_defects(images, q)

    return _subspace_check("invariant_subspace", rep, U, samples, seed, tol, residuals)


def _subspace_check(
    name: str, rep: RepLike, U: SubspaceBasis, samples: int, seed, tol: float, residuals, parts=()
) -> CheckReport:
    """:func:`_sampled_check` of a subspace of ``rep``'s space, refused when
    it lives in another dimension; the zero subspace passes vacuously, over
    at least one sample like any other."""
    _require_gate(tol, samples)
    if U.ambient_dim != rep.target_dim:
        raise ValueError(
            f"subspace lives in R^{U.ambient_dim}, representation acts on "
            f"R^{rep.target_dim}"
        )
    if U.dimension == 0:
        return CheckReport(name, Verdict.PASS, 0.0)
    return _sampled_check(name, samples, seed, tol, residuals, parts)


def _projection_defects(images: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per stacked image block: the :func:`relative_residual` of its columns'
    projection onto span(q's rows), their distance from that span scaled
    by max(1, the block's magnitude)."""
    return relative_residual(q.T @ (q @ images), images, axis=(-2, -1))


def check_invariance_transfer(
    rep: Representation,
    U: SubspaceBasis,
    samples: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckReport:
    """Invariance of U transfers to its lift, and back.

    The lift ``block_diag(U, U)`` is invariant under ``[[R, 0], [K R, R]]``
    when ``R U ⊆ U`` and ``K U ⊆ U``, and for invertible ``R`` only then:
    block algebra, proved in sympy by ``tests/test_acceptance.py``, criterion
    05.  The check samples those two facts on the tangent stack drawn under
    the keys ``(seed, 5, i)``: ``base``, U under ``R = rho(a)``, and
    ``prolonged``, U under ``K = d rho(B)``, the one fact the lift adds.  The
    residual is the worse part's, and a witness names its ``part``; a
    ``base`` witness replays through :func:`is_invariant_subspace`.
    """
    q = U.orthonormal()
    tangent_seed = _derive(seed, 5)

    def residuals(indices):
        X = _tangent_sample(rep.group, _keys(tangent_seed, indices))
        images = rep_image(rep, X.base), differential_rep(rep, X.algebra)
        return np.stack([_projection_defects(image @ q.T, q) for image in images])

    return _subspace_check(
        "invariance_transfer", rep, U, samples, tangent_seed, tol, residuals, ("base", "prolonged")
    )


def commutant_basis(rep: RepLike) -> list[np.ndarray]:
    """Orthonormal basis of the matrices commuting with every image.

    On the identity component a matrix commutes with every image exactly
    when it commutes with the generator images (:func:`_algebra_images`), so
    this is the nullspace of the stacked constraints M D = D M over them,
    reshaped to matrices.  It draws nothing.
    """
    n = rep.target_dim
    eye = np.eye(n)
    images = _algebra_images(rep)
    stacked = np.vstack([np.kron(eye, D.T) - np.kron(D, eye) for D in images])
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    return [vh[j].reshape(n, n) for j in range(vh.shape[0]) if s[j] <= _RANK_RTOL * s[0]]


def _eigen_kernels(M: np.ndarray) -> Iterator[np.ndarray]:
    """Orthonormal rows spanning each proper kernel of a polynomial in ``M``
    (unit 2-norm) at one of its eigenvalues ``mu``: ``M - mu`` when ``mu``
    is real, ``M^2 - 2 Re mu M + |mu|^2`` otherwise.

    Rank is decided against ``|M|^2 = 1``, not against the polynomial's own
    norm, which vanishes when the polynomial does.  A defective eigenvalue
    splits by about sqrt(eps) in floating point, so each is replaced by the
    mean of its cluster.
    """
    n = len(M)
    eigenvalues = np.linalg.eigvals(M)
    for mu in eigenvalues:
        mu = np.mean(eigenvalues[np.abs(eigenvalues - mu) <= _EIGEN_CLUSTER])
        if abs(mu.imag) <= _EIGEN_CLUSTER:
            polynomial = M - mu.real * np.eye(n)
        else:
            polynomial = M @ M - 2.0 * mu.real * M + abs(mu) ** 2 * np.eye(n)
        _, s, vh = np.linalg.svd(polynomial)
        kernel = vh[s <= _RANK_RTOL]
        if 0 < len(kernel) < n:
            yield kernel


def reducibility_probe(rep: RepLike) -> CheckReport:
    """Certify irreducibility or produce an invariant subspace, from the
    commutant of the generator images.  It draws nothing.

    - Irreducible (PASS): the commutant is the reals (dimension 1, type R)
      or the complex numbers (dimension 2, its traceless element squares to
      a negative scalar, type C).  This is Schur's lemma, and it applies
      because every representation the library evaluates is completely
      reducible when its commutant is that small: compact and semisimple
      kinds always are, and on GL(n) a non-semisimple image of the center
      would itself be a non-scalar commutant element.
    - Reducible (PASS): a polynomial in a commutant element commutes with
      every image, so its kernel is invariant.  The first proper kernel of
      one fixed combination ``M`` of the commutant basis
      (:func:`_eigen_kernels`) whose generator defect, scaled as in
      :func:`is_invariant_subspace`, is below 1e-9 is the witness, and that
      defect is the residual.
    - Inconclusive: anything else.  The probe never guesses.
    """
    name = "reducibility_probe"
    commutant = commutant_basis(rep)
    dim, n = len(commutant), rep.target_dim
    irreducible = {"classification": "irreducible", "commutant_dimension": dim}
    if dim == 1:
        return CheckReport(name, Verdict.PASS, 0.0, {**irreducible, "commutant_type": "R"})
    if dim == 2:
        # span{I, J}: a unit traceless J with J^2 = c I, c < 0, has c = -1/n.
        J = max((C - np.trace(C) / n * np.eye(n) for C in commutant), key=np.linalg.norm)
        J = J / np.linalg.norm(J)
        if np.max(np.abs(J @ J + np.eye(n) / n)) <= _RANK_RTOL:
            return CheckReport(name, Verdict.PASS, 0.0, {**irreducible, "commutant_type": "C"})
    # Distinct irrational weights: a generic element of the commutant.
    M = np.tensordot(np.sqrt(np.arange(dim) + 2.0), np.stack(commutant), axes=1)
    images = _algebra_images(rep)
    for kernel in _eigen_kernels(M / np.linalg.norm(M, 2)):
        defect = float(np.max(_projection_defects(images @ kernel.T, kernel), initial=0.0))
        if defect < 1e-9:
            witness = {
                "classification": "reducible",
                "commutant_dimension": dim,
                "invariant_subspace": _payload(kernel),
                "subspace_dimension": len(kernel),
            }
            return CheckReport(name, Verdict.PASS, defect, witness)
    witness = {"classification": "inconclusive", "commutant_dimension": dim}
    return CheckReport(name, Verdict.INCONCLUSIVE, 0.0, witness)


def direct_sum(rep1: Representation, rep2: Representation) -> Representation:
    """Block-diagonal sum of two representations of the same group."""
    if rep1.group != rep2.group:
        raise SpecMismatchError(
            f"direct sum needs a common group, got {rep1.group.describe()} and "
            f"{rep2.group.describe()}"
        )

    def apply(a: GroupElement) -> np.ndarray:
        return block_diag(rep1.apply(a), rep2.apply(a))

    def differential(B: AlgebraElement) -> np.ndarray:
        return block_diag(rep1.differential(B), rep2.differential(B))

    return Representation(
        group=rep1.group,
        target_dim=rep1.target_dim + rep2.target_dim,
        apply=apply,
        differential=differential,
        name=f"{rep1.name or 'rep'}+{rep2.name or 'rep'}",
    )


def faithfulness_probe(rep: Representation, tol: float = 1e-12) -> CheckReport:
    """Decide, without sampling, whether the prolongation is injective.

    ``[[R, 0], [K R, R]] = I`` exactly when ``rho(a) = I`` and
    ``d rho(B) = 0``, so the kernel of the prolongation is the semidirect
    product of ``ker rho`` and ``ker d rho``: the prolongation is faithful
    exactly when ``rho`` is.  Both parts are decided on the identity
    component, the part of the group the library can evaluate:

    - infinitesimal: ``d rho`` on the k canonical basis elements, as k
      vectors of R^{m^2}.  When the least of their k singular values is at
      most ``tol`` times the greatest, its fiber ``B`` spans part of
      ``ker d rho`` and ``[I, B]`` is the witness;
    - central: when ``d rho`` is injective, ``ker rho`` is discrete and
      normal, hence central.  With ``g`` the gcd of the integer weights
      ``|Im eig d rho(T)|``, ``T = sum_k J_{2k,2k+1}`` (n even), the kernel
      holds the turn ``exp(2 pi T / g)`` on the circle and SO(2) when
      ``g > 1``, and ``-I = exp(pi T)`` otherwise when ``g`` is even.  The
      witness is ``exp(X)`` with ``X`` exact, and ``rho`` of it is
      ``expm(d rho(X))``.  On GL(n) a positive scalar may lie in the kernel
      when every eigenvalue of ``d rho(I)`` has zero real part: then the
      probe is INCONCLUSIVE.

    A FAIL is a ``kernel_collision`` naming its ``part``, with the element,
    its exponential coordinates and the fiber's coordinates (what
    ``prolong --a-coords`` and ``--fiber`` take), and the gap of its
    prolonged image from I, which is also the residual.  Every verdict
    reports the rank of ``d rho`` and the margin ``sigma_min / sigma_max``.
    """
    _require_gate(tol)
    spec = rep.group
    images = _algebra_images(rep)
    k, m = len(images), rep.target_dim
    _, s, vh = np.linalg.svd(images.reshape(k, -1).T)
    s = np.pad(s, (0, k - s.size))
    facts = {
        "rank": int(np.sum(s > tol * s[0])),
        "margin": float(s[-1] / s[0]) if s[0] > 0 else 0.0,
        "scope": "identity component",
    }

    def collision(part, element, coordinates, fiber, gap):
        witness = dict(kind="kernel_collision", part=part, element=element.tolist(),
                       coordinates=coordinates.tolist(), fiber=fiber.tolist(), image_gap=gap)
        return CheckReport("faithfulness_probe", Verdict.FAIL, gap, {**witness, **facts})

    if s[-1] <= tol * s[0]:
        basis = np.stack(algebra_basis(spec))
        fiber = AlgebraElement(np.tensordot(vh[-1], basis, axes=1), spec)
        X = TangentGroupElement(identity_element(spec), fiber)
        gap = float(np.max(np.abs(prolong(rep, X).dense() - np.eye(2 * m))))
        return collision("infinitesimal", X.base.matrix, np.zeros(k), vh[-1], gap)

    # The turns exp(theta T), T = sum_k J_{2k,2k+1}, form a circle through
    # the center: all of it on the circle and SO(2), and -I = exp(pi T).
    # rho(exp(theta T)) = I exactly when theta w lies in 2 pi Z for every
    # integer weight w = |Im eig d rho(T)|, which no rounding in expm blurs.
    if spec.dim % 2 == 0:
        T = AlgebraElement(np.kron(np.eye(spec.dim // 2), [[0.0, 1.0], [-1.0, 0.0]]), spec)
        weights = np.rint(np.abs(np.linalg.eigvals(differential_rep(rep, T)).imag))
        g = math.gcd(*weights.astype(int))
        abelian = spec.kind is GroupKind.CIRCLE or spec == special_orthogonal(2)
        if g > 1 and (abelian or g % 2 == 0):
            theta = 2.0 * math.pi / g if abelian else math.pi
            coordinates = theta * np.rint(algebra_coordinates(T))  # exact
            X = algebra_from_coordinates(coordinates, spec)
            image = _expm(differential_rep(rep, X))
            gap = float(np.max(np.abs(image - np.eye(m))))
            element = _expm(X.matrix)
            return collision("central", element, coordinates, np.zeros(k), gap)

    if spec.kind is GroupKind.GENERAL_LINEAR:
        scalar = differential_rep(rep, AlgebraElement(np.eye(spec.dim), spec))
        eigenvalues = np.linalg.eigvals(scalar)
        if np.all(np.abs(eigenvalues.real) <= tol * max(1.0, np.max(np.abs(eigenvalues)))):
            reason = "every eigenvalue of d rho(I) has zero real part: exp(t) I may collide"
            witness = {"reason": reason, **facts}
            return CheckReport("faithfulness_probe", Verdict.INCONCLUSIVE, 0.0, witness)
    return CheckReport("faithfulness_probe", Verdict.PASS, 0.0, facts)
