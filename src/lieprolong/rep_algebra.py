"""Structural checks on representations and their prolongations.

Every check in this module is sampling-based and deterministic: callers
pass an integer seed, each sampled element is derived from (seed, sample
index), and any reported witness carries that provenance so a failure can
be replayed exactly.

The sampled checks share one driver: samples are drawn as stacks of at
most ``_CHUNK`` elements, the representation is evaluated on the whole
stack, and the check is a reduction over it.  The witness is the first
sample index attaining the worst residual.  A check over zero samples
raises instead of passing.

Checks return a :class:`CheckReport` with a three-way verdict.  ``FAIL``
always comes with a witness.  ``INCONCLUSIVE`` is reserved for probes
that are allowed to give up, such as :func:`reducibility_probe` when the
commutant splitting heuristic finds nothing it can certify.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional, Union

import numpy as np
import scipy.linalg

from .groups import (
    AlgebraElement,
    GroupElement,
    SpecMismatchError,
    TangentGroupElement,
    _rng,
    block_diag,
    group_multiply,
    identity_tangent,
    relative_residual,
    sample_group_elements,
    sample_tangent_elements,
    tg_multiply,
    zero_algebra,
)
from .prolongation import (
    ProlongedRepresentation,
    Representation,
    apply_prolonged,
    prolong,
    prolonged,
    rep_image,
    tangent_action_oracle,
)
from .tangent_space import TangentVector

__all__ = [
    "CheckReport",
    "Intertwiner",
    "RANK_RTOL",
    "SubspaceBasis",
    "Verdict",
    "certify_irreducible_lines_2d",
    "check_action_oracle",
    "check_direct_sum_commutation",
    "check_equivalence_transfer",
    "check_homomorphism",
    "check_invariance_transfer",
    "commutant_basis",
    "conjugate_representation",
    "direct_sum",
    "faithfulness_probe",
    "interleave_permutation",
    "is_intertwiner",
    "is_invariant_subspace",
    "prolong_intertwiner",
    "prolong_subspace",
    "random_conjugator",
    "reducibility_probe",
    "vertical_subspace",
]

# Relative threshold for rank and nullspace decisions: a singular value
# counts as zero when it is below RANK_RTOL times the largest one.
RANK_RTOL = 1e-8

# Two inputs, or a group element and the identity, count as distinct when
# they differ by more than this in the max norm.
_DISTINCT_TOL = 1e-9

# Samples are drawn and evaluated in stacks of at most this many, which
# bounds the memory a check needs whatever the sample count.
_CHUNK = 256

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
    if isinstance(seed, (int, np.integer)):
        head: tuple[int, ...] = (int(seed) % 2**63,)
    else:
        head = tuple(int(s) % 2**63 for s in seed)
    return head + tuple(int(i) % 2**63 for i in indices)


def _keys(seed, indices, *prefix: int) -> list[tuple[int, ...]]:
    """Per-sample keys ``_derive(seed, *prefix, i)`` for each index ``i``."""
    head = _derive(seed, *prefix)
    return [head + (int(i) % 2**63,) for i in indices]


def _sample(rep: RepLike, keys):
    if isinstance(rep, ProlongedRepresentation):
        return sample_tangent_elements(rep.group, keys)
    return sample_group_elements(rep.group, keys)


def _image(rep: RepLike, element) -> np.ndarray:
    if isinstance(rep, ProlongedRepresentation):
        return rep.apply(element)
    return rep_image(rep, element)


def _compose(rep: RepLike, x, y):
    if isinstance(rep, ProlongedRepresentation):
        return tg_multiply(x, y)
    return group_multiply(x, y)


def _chunks(samples: int) -> Iterator[np.ndarray]:
    """Sample indices 0..samples-1 in stacks of at most ``_CHUNK``."""
    if samples < 1:
        raise ValueError("a sampled check needs at least one sample")
    for start in range(0, samples, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, samples))


def _scan(
    samples: int, residuals: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Worst residual over all samples and the first index attaining it.

    ``residuals(indices)`` returns an array whose last axis runs over
    ``indices``; leading axes, if any, are scanned independently.
    """
    worst = index = None
    for indices in _chunks(samples):
        chunk = residuals(indices)
        k = np.argmax(chunk, axis=-1)
        top = np.take_along_axis(chunk, k[..., None], axis=-1)[..., 0]
        if worst is None:
            worst, index = top, indices[k]
        else:
            better = top > worst
            worst, index = np.where(better, top, worst), np.where(better, indices[k], index)
    return worst, index


def _sampled_check(
    name: str,
    samples: int,
    seed,
    tol: float,
    residuals: Callable[[np.ndarray], np.ndarray],
) -> CheckReport:
    worst, index = _scan(samples, residuals)
    worst = float(worst)
    if worst < tol:
        return CheckReport(name, Verdict.PASS, worst)
    witness = {"seed": _payload(seed), "sample_index": int(index), "residual": worst}
    return CheckReport(name, Verdict.FAIL, worst, witness)


def check_homomorphism(
    rep: RepLike,
    sample_count: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckReport:
    """Sample pairs and compare the image of the product with the product
    of the images.  Works on plain representations and on prolongations;
    for a prolongation the pairs are tangent elements composed with the
    tangent group law.
    """

    def residuals(indices):
        x = _sample(rep, _keys(seed, 2 * indices))
        y = _sample(rep, _keys(seed, 2 * indices + 1))
        combined = _image(rep, _compose(rep, x, y))
        split = _image(rep, x) @ _image(rep, y)
        return relative_residual(combined, split, axis=(-2, -1))

    return _sampled_check("homomorphism", sample_count, seed, tol, residuals)


def check_action_oracle(
    rep: Representation,
    samples: int = 200,
    seed: int = 0,
    tol: float = 1e-5,
) -> CheckReport:
    """Compare the block-matrix action with the differentiated action curve.

    The two sides share only the representation itself: one goes through
    the prolonged blocks, the other through a central difference of the
    full action.  The default tolerance reflects the finite-difference
    error floor.
    """
    n = rep.target_dim

    def residuals(indices):
        X = sample_tangent_elements(rep.group, _keys(seed, indices, 53))
        keys = _keys(seed, indices, 59)
        draws = np.stack([_rng(key).uniform(-1.0, 1.0, (2, n)) for key in keys])
        Y = TangentVector(draws[:, 0], draws[:, 1])
        direct = apply_prolonged(prolong(rep, X), Y)
        oracle = tangent_action_oracle(rep, X, Y)
        return relative_residual(direct.coordinates, oracle.coordinates, axis=-1)

    return _sampled_check("action_oracle", samples, seed, tol, residuals)


@dataclass(frozen=True, eq=False)
class Intertwiner:
    """A linear map asserted to commute with a pair of representations."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"an intertwiner must be a matrix, got ndim {m.ndim}")
        if not np.all(np.isfinite(m)):
            raise ValueError("intertwiner entries must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def full_rank(self) -> bool:
        s = np.linalg.svd(self.matrix, compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            return False
        return bool(np.sum(s > RANK_RTOL * s[0]) == min(self.matrix.shape))


def _intertwiner_matrix(A) -> np.ndarray:
    if isinstance(A, Intertwiner):
        return A.matrix
    return Intertwiner(A).matrix


def is_intertwiner(
    A,
    rep1: RepLike,
    rep2: RepLike,
    samples: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckReport:
    """Check A @ rho1(x) = rho2(x) @ A on sampled elements.

    Both representations must live over the same group and at the same
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
        x = _sample(rep1, _keys(seed, indices))
        return _intertwining_residuals(matrix, _image(rep1, x), _image(rep2, x))

    return _sampled_check("intertwiner", samples, seed, tol, residuals)


def _intertwining_residuals(A: np.ndarray, images1, images2) -> np.ndarray:
    """Per stacked image: relative residual of A rho1(x) = rho2(x) A."""
    return relative_residual(A @ images1, images2 @ A, axis=(-2, -1))


def prolong_intertwiner(A) -> Intertwiner:
    """Lift an intertwiner to tangent coordinates: block-diag(A, A).

    The lift is returned regardless of rank; callers asserting an
    equivalence should consult :attr:`Intertwiner.full_rank` first.
    """
    matrix = _intertwiner_matrix(A)
    return Intertwiner(scipy.linalg.block_diag(matrix, matrix))


def random_conjugator(n: int, seed=0) -> np.ndarray:
    """A deterministic random invertible matrix with moderate conditioning."""
    rng = _rng(_derive(seed))
    return scipy.linalg.expm(0.5 * rng.uniform(-1.0, 1.0, (n, n)))


def conjugate_representation(rep: Representation, A) -> Representation:
    """The equivalent representation a |-> A rho(a) A^{-1}."""
    matrix = np.asarray(A, dtype=float)
    if matrix.shape != (rep.target_dim, rep.target_dim):
        raise ValueError("conjugator shape does not match the representation")
    inverse = np.linalg.inv(matrix)
    return Representation(
        group=rep.group,
        target_dim=rep.target_dim,
        apply=lambda a: matrix @ rep_image(rep, a) @ inverse,
        differential=lambda B: matrix @ rep.differential(B) @ inverse,
        name=f"conj({rep.name})" if rep.name else "conj",
    )


def check_equivalence_transfer(
    rep: Representation,
    conjugations: int = 20,
    samples: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckReport:
    """Conjugating a representation conjugates its prolongation.

    For random invertible A the lift block-diag(A, A) must intertwine the
    prolongation of ``rep`` with the prolongation of the conjugated
    representation, to the same tolerance.  Every conjugation is tested on
    the same samples, so ``rep`` is sampled and prolonged once per stack;
    each conjugated side is prolonged on its own.
    """
    if conjugations < 1:
        raise ValueError("conjugations must be positive")
    lifts, others = [], []
    for c in range(conjugations):
        A = random_conjugator(rep.target_dim, _derive(seed, 2, c))
        lifted = prolong_intertwiner(A)
        if not lifted.full_rank:
            break
        lifts.append(lifted.matrix)
        others.append(prolonged(conjugate_representation(rep, A)))
    sample_seed = _derive(seed, 1)

    def residuals(indices):
        X = sample_tangent_elements(rep.group, _keys(sample_seed, indices))
        images = prolong(rep, X).dense()
        return np.stack(
            [
                _intertwining_residuals(L, images, other.apply(X))
                for L, other in zip(lifts, others)
            ]
        )

    per_conjugation, indices = _scan(samples, residuals) if lifts else ([0.0], [0])
    c = int(np.argmax(per_conjugation))
    worst = float(per_conjugation[c])
    if len(lifts) < conjugations:
        return CheckReport(
            "equivalence_transfer",
            Verdict.INCONCLUSIVE,
            worst,
            {"conjugation_index": len(lifts), "reason": "conjugator not full rank"},
        )
    if worst < tol:
        return CheckReport("equivalence_transfer", Verdict.PASS, worst)
    witness = {
        "conjugation_index": c,
        "seed": _payload(sample_seed),
        "sample_index": int(indices[c]),
        "residual": worst,
    }
    return CheckReport("equivalence_transfer", Verdict.FAIL, worst, witness)


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
        v = np.array(self.vectors, dtype=float)
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
        if not np.all(np.isfinite(v)):
            raise ValueError("basis entries must be finite")
        if v.shape[0] > 0:
            s = np.linalg.svd(v, compute_uv=False)
            if s[0] == 0.0 or np.sum(s > RANK_RTOL * s[0]) < v.shape[0]:
                raise ValueError("basis vectors are linearly dependent")
        v.flags.writeable = False
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

    The residual for a sampled element is the worst projection defect of
    an image vector, scaled by max(1, its magnitude).  The zero subspace
    passes vacuously.
    """
    if U.ambient_dim != rep.target_dim:
        raise ValueError(
            f"subspace lives in R^{U.ambient_dim}, representation acts on "
            f"R^{rep.target_dim}"
        )
    if U.dimension == 0:
        return CheckReport("invariant_subspace", Verdict.PASS, 0.0)
    q = U.orthonormal()

    def residuals(indices):
        images = _image(rep, _sample(rep, _keys(seed, indices))) @ q.T
        return _projection_defects(images, q)

    return _sampled_check("invariant_subspace", samples, seed, tol, residuals)


def _projection_defects(images: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per stacked image block: distance of its columns from span(q's rows),
    scaled by max(1, the block's magnitude)."""
    defect = images - q.T @ (q @ images)
    scale = np.maximum(1.0, np.max(np.abs(images), axis=(-2, -1)))
    return np.max(np.abs(defect), axis=(-2, -1)) / scale


def prolong_subspace(U: SubspaceBasis) -> SubspaceBasis:
    """Lift span{u_i} to tangent coordinates: span{(u_i, 0)} + span{(0, u_i)}.

    Base-direction vectors come first, in the order of U, then the fiber
    copies in the same order.
    """
    k, n = U.vectors.shape
    lifted = np.zeros((2 * k, 2 * n))
    lifted[:k, :n] = U.vectors
    lifted[k:, n:] = U.vectors
    return SubspaceBasis(2 * n, lifted)


def vertical_subspace(n: int) -> SubspaceBasis:
    """The fiber directions {(0, v)} inside trivialized tangent coordinates."""
    rows = np.zeros((n, 2 * n))
    rows[:, n:] = np.eye(n)
    return SubspaceBasis(2 * n, rows)


def check_invariance_transfer(
    rep: Representation,
    U: SubspaceBasis,
    samples: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckReport:
    """Invariance of U transfers to its lift, and back.

    Three residuals are combined: U under the base representation, the
    lifted subspace under the prolongation, and the base components of
    prolonged images of (u, 0) against span(U), which is the executable
    form of the reverse implication.
    """
    base_report = is_invariant_subspace(rep, U, samples, _derive(seed, 3), tol)
    lifted = prolong_subspace(U)
    lifted_report = is_invariant_subspace(
        prolonged(rep), lifted, samples, _derive(seed, 5), tol
    )
    extraction_worst = 0.0
    extraction_witness = None
    if U.dimension > 0:
        q = U.orthonormal()
        horizontal = np.zeros((2 * U.ambient_dim, U.dimension))
        horizontal[: U.ambient_dim] = q.T

        def residuals(indices):
            X = sample_tangent_elements(rep.group, _keys(seed, indices, 5))
            images = prolong(rep, X).dense() @ horizontal
            return _projection_defects(images[..., : U.ambient_dim, :], q)

        worst, index = _scan(samples, residuals)
        extraction_worst = float(worst)
        extraction_witness = {"sample_index": int(index), "residual": extraction_worst}
    parts = {
        "base": base_report.max_residual,
        "prolonged": lifted_report.max_residual,
        "base_extraction": extraction_worst,
    }
    worst = max(parts.values())
    if worst < tol:
        return CheckReport("invariance_transfer", Verdict.PASS, worst)
    failing = max(parts, key=parts.get)
    detail = {
        "base": base_report.witness,
        "prolonged": lifted_report.witness,
        "base_extraction": extraction_witness,
    }[failing]
    return CheckReport(
        "invariance_transfer",
        Verdict.FAIL,
        worst,
        {"direction": failing, "residuals": parts, **(detail or {})},
    )


def commutant_basis(rep: RepLike, samples: int = 8, seed: int = 0) -> list[np.ndarray]:
    """Orthonormal basis of matrices commuting with all sampled images.

    Stacks the linear constraints M X = X M over sampled images M and
    returns the nullspace, reshaped to matrices.  At least two samples are
    required for the span to be generically meaningful.
    """
    if samples < 2:
        raise ValueError("commutant_basis needs at least 2 generator samples")
    n = rep.target_dim
    eye = np.eye(n)
    images = _image(rep, _sample(rep, _keys(seed, range(samples), 11)))
    stacked = np.vstack([np.kron(eye, m.T) - np.kron(m, eye) for m in images])
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    cutoff = RANK_RTOL * (s[0] if s.size else 0.0)
    return [vh[j].reshape(n, n) for j in range(vh.shape[0]) if s[j] <= cutoff]


def reducibility_probe(
    rep: RepLike,
    samples: int = 8,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckReport:
    """Try to certify irreducibility or produce an invariant subspace.

    Commutant of dimension one certifies irreducibility.  Otherwise a
    random commutant element is symmetrized and its eigenspaces are tested
    for invariance; a verified proper eigenspace certifies reducibility.
    Everything else is inconclusive by design: the commutant can be larger
    than the scalars without yielding a real splitting.
    """
    try:
        commutant = commutant_basis(rep, samples, seed)
    except ValueError as exc:
        return CheckReport(
            "reducibility_probe",
            Verdict.INCONCLUSIVE,
            0.0,
            {"classification": "inconclusive", "reason": str(exc)},
        )
    dim = len(commutant)
    if dim == 0:
        return CheckReport(
            "reducibility_probe",
            Verdict.INCONCLUSIVE,
            0.0,
            {
                "classification": "inconclusive",
                "reason": "numerical commutant came out empty",
            },
        )
    if dim == 1:
        return CheckReport(
            "reducibility_probe",
            Verdict.PASS,
            0.0,
            {"classification": "irreducible", "commutant_dimension": 1},
        )
    n = rep.target_dim
    rng = _rng(_derive(seed, 23))
    element = np.tensordot(rng.normal(size=dim), np.stack(commutant), axes=1)
    symmetric = (element + element.T) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(symmetric)
    gap = RANK_RTOL * max(1.0, float(np.max(np.abs(eigenvalues))))
    clusters: list[list[int]] = [[0]]
    for j in range(1, n):
        if eigenvalues[j] - eigenvalues[j - 1] > gap:
            clusters.append([j])
        else:
            clusters[-1].append(j)
    for cluster in clusters:
        if not 0 < len(cluster) < n:
            continue
        candidate = SubspaceBasis(n, eigenvectors[:, cluster].T)
        verdict = is_invariant_subspace(rep, candidate, 100, _derive(seed, 31), tol)
        if verdict.passed:
            return CheckReport(
                "reducibility_probe",
                Verdict.PASS,
                verdict.max_residual,
                {
                    "classification": "reducible",
                    "commutant_dimension": dim,
                    "invariant_subspace": _payload(candidate.vectors),
                    "subspace_dimension": len(cluster),
                },
            )
    return CheckReport(
        "reducibility_probe",
        Verdict.INCONCLUSIVE,
        0.0,
        {"classification": "inconclusive", "commutant_dimension": dim},
    )


def certify_irreducible_lines_2d(
    rep: RepLike,
    angles: int = 1024,
    samples: int = 32,
    seed: int = 0,
    margin: float = 1e-2,
    tol: float = 1e-9,
) -> CheckReport:
    """Exhaustive sweep over lines through the origin of R^2.

    Only for two-dimensional representations, where every proper invariant
    subspace is a line.  If every line on a fine angular grid is moved off
    itself by some sampled image (by at least ``margin``), irreducibility
    is certified.  If the sweep finds a line that the sampled images
    preserve, that line is re-verified and reported as a reducibility
    witness.
    """
    if rep.target_dim != 2:
        raise ValueError("the line sweep applies to two-dimensional representations only")
    grid = np.linspace(0.0, np.pi, angles, endpoint=False)
    directions = np.stack([np.cos(grid), np.sin(grid)])
    perps = np.stack([-np.sin(grid), np.cos(grid)])
    worst_per_angle = np.zeros(angles)
    for indices in _chunks(samples):
        images = _image(rep, _sample(rep, _keys(seed, indices, 37))) @ directions
        off_line = np.abs(np.sum(perps * images, axis=-2))
        scale = np.maximum(1.0, np.max(np.abs(images), axis=-2))
        worst_per_angle = np.maximum(worst_per_angle, np.max(off_line / scale, axis=0))
    weakest = int(np.argmin(worst_per_angle))
    floor = float(worst_per_angle[weakest])
    if floor > margin:
        return CheckReport(
            "line_sweep",
            Verdict.PASS,
            0.0,
            {
                "classification": "irreducible",
                "min_line_residual": floor,
                "angles": angles,
                "samples": samples,
            },
        )
    candidate = SubspaceBasis(2, directions[:, weakest])
    verdict = is_invariant_subspace(rep, candidate, 200, _derive(seed, 43), tol)
    if verdict.passed:
        return CheckReport(
            "line_sweep",
            Verdict.PASS,
            verdict.max_residual,
            {
                "classification": "reducible",
                "invariant_line_angle": float(grid[weakest]),
                "invariant_subspace": _payload(candidate.vectors),
            },
        )
    return CheckReport(
        "line_sweep",
        Verdict.INCONCLUSIVE,
        0.0,
        {
            "classification": "inconclusive",
            "min_line_residual": floor,
            "angle": float(grid[weakest]),
        },
    )


def direct_sum(rep1: Representation, rep2: Representation) -> Representation:
    """Block-diagonal sum of two representations of the same group."""
    if rep1.group != rep2.group:
        raise SpecMismatchError(
            f"direct sum needs a common group, got {rep1.group.describe()} and "
            f"{rep2.group.describe()}"
        )

    def apply(a: GroupElement) -> np.ndarray:
        return block_diag(rep_image(rep1, a), rep_image(rep2, a))

    def differential(B: AlgebraElement) -> np.ndarray:
        return block_diag(rep1.differential(B), rep2.differential(B))

    return Representation(
        group=rep1.group,
        target_dim=rep1.target_dim + rep2.target_dim,
        apply=apply,
        differential=differential,
        name=f"{rep1.name or 'rep'}+{rep2.name or 'rep'}",
    )


def interleave_permutation(n1: int, n2: int) -> np.ndarray:
    """Gather indices sending (p1, p2, v1, v2) to (p1, v1, p2, v2).

    Conjugating the prolongation of a direct sum by this permutation
    yields the direct sum of the prolongations; see
    :func:`check_direct_sum_commutation`.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("summand dimensions must be positive")
    total = n1 + n2
    return np.concatenate(
        [
            np.arange(n1),
            np.arange(total, total + n1),
            np.arange(n1, total),
            np.arange(total + n1, 2 * total),
        ]
    )


def check_direct_sum_commutation(
    rep1: Representation,
    rep2: Representation,
    samples: int = 200,
    seed: int = 0,
    tol: float = 1e-12,
) -> CheckReport:
    """Prolonging a direct sum equals the direct sum of prolongations.

    The two sides differ only by the coordinate interleaving, so the
    conjugated matrices are compared entry by entry at a tolerance near
    machine precision.  The permutation is applied by index shuffling,
    which is exact.
    """
    summed = direct_sum(rep1, rep2)
    perm = interleave_permutation(rep1.target_dim, rep2.target_dim)

    def residuals(indices):
        X = sample_tangent_elements(rep1.group, _keys(seed, indices, 41))
        joint = prolong(summed, X).dense()[..., perm[:, None], perm]
        split = block_diag(prolong(rep1, X).dense(), prolong(rep2, X).dense())
        return relative_residual(joint, split, axis=(-2, -1))

    return _sampled_check("direct_sum_commutation", samples, seed, tol, residuals)


def faithfulness_probe(
    rep: Representation,
    samples: int = 1000,
    seed: int = 0,
    *,
    kernel_witness: Optional[GroupElement] = None,
    collision_tol: float = 1e-12,
) -> CheckReport:
    """Look for distinct tangent elements with equal prolonged images.

    Sampled images closer than ``collision_tol`` (scaled by the largest
    image entry) in the max norm are found with a k-d tree, in memory
    linear in the sample count.  A declared kernel element (catalog
    metadata for representations known not to be injective) is checked
    instead when given: if the prolonged image of the element lies within
    the same threshold of the identity's, the prolongation collides on it
    and the probe fails with that witness.  A failure here certifies
    non-injectivity of the prolongation; it is the expected outcome for
    non-faithful inputs, not a defect.
    """
    spec = rep.group
    images = []
    inputs = []
    for indices in _chunks(samples):
        X = sample_tangent_elements(spec, _keys(seed, indices, 47))
        count = len(indices)
        images.append(prolong(rep, X).dense().reshape(count, -1))
        inputs.append(
            np.concatenate(
                [X.base.matrix.reshape(count, -1), X.algebra.matrix.reshape(count, -1)],
                axis=1,
            )
        )
    image_array = np.concatenate(images)
    input_array = np.concatenate(inputs)
    scale = max(1.0, float(np.max(np.abs(image_array))))

    if kernel_witness is not None:
        if kernel_witness.spec != spec:
            raise SpecMismatchError("kernel witness lies in a different group")
        witness_tangent = TangentGroupElement(kernel_witness, zero_algebra(spec))
        witness_image = prolong(rep, witness_tangent).dense()
        identity_image = prolong(rep, identity_tangent(spec)).dense()
        gap = float(np.max(np.abs(witness_image - identity_image)))
        element_gap = float(
            np.max(np.abs(kernel_witness.matrix - np.eye(spec.dim)))
        )
        if element_gap > _DISTINCT_TOL and gap <= collision_tol * scale:
            return CheckReport(
                "faithfulness_probe",
                Verdict.FAIL,
                gap,
                {
                    "kind": "kernel_collision",
                    "kernel_element": _payload(kernel_witness.matrix),
                    "image_gap": gap,
                    "note": (
                        "the base representation sends this non-identity element "
                        "to the identity, so the prolongation cannot be injective"
                    ),
                },
            )
        return CheckReport(
            "faithfulness_probe",
            Verdict.INCONCLUSIVE,
            gap,
            {
                "kind": "kernel_witness_mismatch",
                "note": "declared kernel element did not collide; metadata suspect",
                "image_gap": gap,
            },
        )

    if samples < 2:
        return CheckReport(
            "faithfulness_probe",
            Verdict.PASS,
            0.0,
            {"min_image_separation": None, "samples": samples},
        )
    import scipy.spatial  # deferred: nothing else in the package needs it

    tree = scipy.spatial.cKDTree(image_array)
    separation = tree.query(image_array, k=2, p=np.inf)[0][:, 1]
    threshold = collision_tol * scale
    # Pairs (i, j), i < j, in lexicographic order; only points whose nearest
    # neighbour lies within the threshold can start one.
    for i in np.flatnonzero(separation <= threshold):
        for j in sorted(tree.query_ball_point(image_array[i], threshold, p=np.inf)):
            if j <= i:
                continue
            input_gap = float(np.max(np.abs(input_array[i] - input_array[j])))
            if input_gap > _DISTINCT_TOL:
                image_gap = float(np.max(np.abs(image_array[i] - image_array[j])))
                return CheckReport(
                    "faithfulness_probe",
                    Verdict.FAIL,
                    image_gap,
                    {
                        "kind": "random_collision",
                        "seed": _payload(seed),
                        "first_index": int(i),
                        "second_index": int(j),
                        "image_gap": image_gap,
                        "input_gap": input_gap,
                    },
                )
    return CheckReport(
        "faithfulness_probe",
        Verdict.PASS,
        0.0,
        {"min_image_separation": float(np.min(separation)), "samples": samples},
    )
