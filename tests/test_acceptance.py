"""Acceptance suite.

One test per acceptance criterion, each printing a single
``ACCEPTANCE <nn> <label>: PASS/FAIL`` line (run pytest with ``-s`` to see
the lines as they happen; with plain ``-v`` the per-test verdicts carry
the same information).

The faithfulness criterion treats kernel collisions on the known
non-injective catalog entries as the expected outcome: the probe must
FAIL on them with an explicit witness, and that failure is what the
criterion requires.
"""

import functools
import json
import operator
import subprocess
import sys
import time

import numpy as np
import pytest

from lieprolong import (
    SubspaceBasis,
    TangentVector,
    apply_prolonged,
    catalog_entry,
    catalog_list,
    check_equivalence_transfer,
    check_homomorphism,
    check_invariance_transfer,
    commutant_basis,
    direct_sum,
    faithfulness_probe,
    general_linear,
    is_invariant_subspace,
    jn_embed,
    prolong,
    prolonged,
    reducibility_probe,
    relative_residual,
    sample_tangent_element,
    sample_tangent_elements,
    tangent_action_oracle,
    tg_multiply,
)

SEED = 20260815

NON_FAITHFUL = {"circle_winding_2", "trivial(1)", "trivial(2)"}


def record(number: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {label}: {status}{suffix}")
    assert passed, f"acceptance criterion {number} ({label}) failed{suffix}"


def test_criterion_01_jn_embedding_is_a_homomorphism():
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3, 5):
        spec = general_linear(n)
        for i in range(1000):
            X = sample_tangent_element(spec, (SEED, 2 * i))
            Y = sample_tangent_element(spec, (SEED, 2 * i + 1))
            left = jn_embed(tg_multiply(X, Y)).dense()
            right = (jn_embed(X) @ jn_embed(Y)).dense()
            worst = max(worst, relative_residual(left, right))
    elapsed = time.perf_counter() - start
    record(
        1,
        "jn_embedding_homomorphism",
        worst < 1e-9 and elapsed < 5.0,
        f"max residual {worst:.2e}, {elapsed:.1f}s over 4000 pairs",
    )


def total(terms):
    """The sum of a list of matrix expressions."""
    return functools.reduce(operator.add, terms)


def homomorphism_proof(conjugate) -> tuple[bool, bool]:
    """The prolongation is a homomorphism when rho is and the fiber
    identity holds, proved in sympy on symbolic n x n blocks, for the group
    law whose product of X = [a, B] and Y = [a', B'] has the fiber C = B +
    conjugate(a, B').

    With R = rho(a), R' = rho(a'), rho(a a') = R R' + D (D the base
    defect), K = d rho(B), K' = d rho(B') and KC = d rho(C), the block
    defect rho~(XY) - rho~(X) rho~(Y) is [[D, 0], [KC D + F R', D]] with F =
    KC R - K R - R K', whatever the blocks are.  With d rho linear and
    equivariant, d rho(g Y g^-1) = rho(g) d rho(Y) rho(g)^-1, F reduces to
    0 under the tangent group law C = B + a B' a^-1.  Returns whether the
    block identity holds and whether F reduces to 0.  check_homomorphism
    samples the base defect and F on prolonged(rep).
    """
    from sympy import BlockMatrix, MatrixSymbol, ZeroMatrix, block_collapse, symbols

    n = symbols("n", integer=True, positive=True)
    names = ("a", "B", "B'", "R", "R'", "K", "K'", "KC", "D")
    a, B, B2, R, R2, K, K2, KC, D = (MatrixSymbol(name, n, n) for name in names)
    zero = ZeroMatrix(n, n)

    def prolonged_block(R, K):
        return BlockMatrix([[R, zero], [K * R, R]])

    # Products of sums are written out term by term.
    image = [R * R2, D]
    XY = BlockMatrix([[total(image), zero], [total([KC * t for t in image]), total(image)]])
    defect = block_collapse(XY - prolonged_block(R, K) * prolonged_block(R2, K2))
    F = [KC * R, -K * R, -R * K2]
    expected = [D, zero, total([KC * D] + [f * R2 for f in F]), D]
    identity = [defect.blocks[i, j] for i in (0, 1) for j in (0, 1)] == expected

    # The base homomorphism sends a^-1 to R^-1.
    rho, d_rho = {a: R, a.I: R.I}, {B: K, B2: K2}

    def d_rho_of(Y):
        """d rho of a fiber term: B, B', or a conjugate g Y g^-1 of one."""
        if Y in d_rho:
            return d_rho[Y]
        g, inner, g_inverse = Y.args
        assert g_inverse == g.I
        return rho[g] * d_rho_of(inner) * rho[g].I

    # d rho(C) R, by linearity one term of C at a time.
    reduced = total([d_rho_of(Y) * R for Y in (B, conjugate(a, B2))] + F[1:])
    return identity, reduced == zero


def test_criterion_02_prolongation_is_a_homomorphism_on_every_catalog_rep():
    # A proof and a sample.  The sympy proof on symbolic blocks, which fails
    # on the group law with a^-1 B' a in place of a B' a^-1; then, on every
    # catalog entry, the sampled row that reads the proof's two hypotheses.
    start = time.perf_counter()
    identity, proved = homomorphism_proof(lambda a, Y: a * Y * a.I)
    wrong_identity, wrong_law = homomorphism_proof(lambda a, Y: a.I * Y * a)
    elapsed = time.perf_counter() - start
    start = time.perf_counter()
    worst = 0.0
    worst_name = ""
    for entry in catalog_list():
        report = check_homomorphism(prolonged(entry.rep), 1000, SEED, 1e-9)
        assert report.passed, (entry.name, report)
        if report.max_residual > worst:
            worst, worst_name = report.max_residual, entry.name
    sampled = time.perf_counter() - start
    record(
        2,
        "prolongation_homomorphism",
        identity and proved and wrong_identity and not wrong_law and elapsed < 5.0
        and worst < 1e-9 and sampled < 30.0,
        f"sympy proof on symbolic n x n blocks, {elapsed:.2f}s, F != 0 under a^-1 B' a; "
        f"sampled worst {worst:.2e} on {worst_name}, {sampled:.1f}s, 1000 pairs x "
        f"{len(catalog_list())} reps",
    )


def action_proof(tied: bool) -> bool:
    """The block action is the derivative of the action curve, proved in
    sympy on symbolic blocks: n x n matrices R = rho(a) and K = d rho(B),
    and n x 1 vectors p and v.

    By the homomorphism, rho(exp(tB) a) = rho(exp tB) R, and rho(exp tB) =
    I + t V + t^2 H + ..., with V its velocity at t = 0.  The tie
    rho(exp tB) = expm(t K) gives V = K; without it V is any matrix J.  The
    action curve rho(exp(tB) a) (p + t v) is then a power series in t,
    whose value and derivative at t = 0 are its coefficients of 1 and t.
    Returns whether they are the blocks of [[R, 0], [K R, R]] (p, v).
    check_action_oracle samples the homomorphism and the tie.
    """
    from sympy import BlockMatrix, Identity, MatrixSymbol, ZeroMatrix, block_collapse, symbols

    n = symbols("n", integer=True, positive=True)
    R, K, J, H = (MatrixSymbol(name, n, n) for name in "RKJH")
    p, v = MatrixSymbol("p", n, 1), MatrixSymbol("v", n, 1)
    curve, point = [Identity(n), K if tied else J, H], [p, v]

    def coefficient(k):
        return total([curve[i] * R * point[k - i] for i in range(3) if 0 <= k - i < 2])

    action = block_collapse(
        BlockMatrix([[R, ZeroMatrix(n, n)], [K * R, R]]) * BlockMatrix([[p], [v]])
    )
    return [action.blocks[0, 0], action.blocks[1, 0]] == [coefficient(0), coefficient(1)]


def test_criterion_03_block_action_matches_the_differentiated_action():
    # A proof, which fails once the tie is dropped, and the two sides
    # compared numerically: the block action against a central difference of
    # the action curve, on every catalog entry at 1000 sampled triples.
    start = time.perf_counter()
    proved, untied = action_proof(tied=True), action_proof(tied=False)
    elapsed = time.perf_counter() - start
    worst = 0.0
    worst_name = ""
    for entry in catalog_list():
        rep, m = entry.rep, entry.rep.target_dim
        X = sample_tangent_elements(rep.group, [(SEED, 53, i) for i in range(1000)])
        probes = np.random.default_rng(SEED).uniform(-1.0, 1.0, (1000, 2, m))
        Y = TangentVector(probes[:, 0], probes[:, 1])
        direct = apply_prolonged(prolong(rep, X), Y).coordinates
        oracle = tangent_action_oracle(rep, X, Y).coordinates
        residual = float(np.max(relative_residual(direct, oracle, axis=-1)))
        assert residual < 1e-5, (entry.name, residual)
        if residual > worst:
            worst, worst_name = residual, entry.name
    record(
        3,
        "action_oracle_equivalence",
        proved and not untied and elapsed < 5.0 and worst < 1e-5,
        f"sympy proof, {elapsed:.2f}s, fails without the tie; central difference worst "
        f"{worst:.2e} on {worst_name}, 1000 triples per rep",
    )


def test_criterion_04_equivalence_transfers_to_prolongations():
    # A proof, not a sample.  On n x n blocks of symbolic n, an equivalence
    # A with R2 = A R A^-1 and K2 = A K A^-1 lifts to diag(A, A), which
    # intertwines [[R, 0], [K R, R]] with [[R2, 0], [K2 R2, R2]] whatever
    # the blocks are; the lift diag(A, A^T) leaves two blocks unequal.
    # prolong_intertwiner builds diag(A, A) (tests/test_rep_algebra.py pins
    # its block form).  The second representation's images are A rho(x) A^-1
    # at x = exp(B0) when rho(exp B0) = expm(d rho(B0)), the tie that
    # check_equivalence_transfer samples below on every catalog entry.
    start = time.perf_counter()
    from sympy import BlockMatrix, MatrixSymbol, ZeroMatrix, block_collapse, symbols

    n = symbols("n", integer=True, positive=True)
    A, R, K = (MatrixSymbol(name, n, n) for name in "ARK")

    def diag(X, Y):
        return BlockMatrix([[X, ZeroMatrix(n, n)], [ZeroMatrix(n, n), Y]])

    def prolonged_block(R, K):
        return BlockMatrix([[R, ZeroMatrix(n, n)], [K * R, R]])

    def intertwining(lift):
        """The blocks of lift rho1~ and of rho2~ lift, in pairs."""
        left = block_collapse(lift * prolonged_block(R, K))
        right = block_collapse(prolonged_block(A * R * A.I, A * K * A.I) * lift)
        return [(left.blocks[i, j], right.blocks[i, j]) for i in (0, 1) for j in (0, 1)]

    proved = all(left == right for left, right in intertwining(diag(A, A)))
    unequal = sum(left != right for left, right in intertwining(diag(A, A.T)))
    elapsed = time.perf_counter() - start

    worst = 0.0
    for entry in catalog_list():
        report = check_equivalence_transfer(entry.rep, 100, SEED, 1e-9)
        assert report.passed, (entry.name, report)
        worst = max(worst, report.max_residual)
    record(
        4,
        "equivalence_transfer",
        proved and unequal == 2 and elapsed < 5.0 and worst < 1e-9,
        f"sympy proof on symbolic n x n blocks, {elapsed:.2f}s; diag(A, A^T) leaves "
        f"{unequal} blocks unequal; the sampled tie, worst residual {worst:.2e}",
    )


def random_invariant_subspaces(rep, split: int, count: int, seed: int):
    """Invariant subspaces of a direct-sum rep: push a summand subspace
    through random invertible commutant elements."""
    blocks = commutant_basis(rep)
    n = rep.target_dim
    half = [SubspaceBasis(n, np.eye(n)[:split]), SubspaceBasis(n, np.eye(n)[split:])]
    out = []
    rng = np.random.default_rng(seed)
    while len(out) < count:
        coeffs = rng.normal(size=len(blocks))
        C = np.tensordot(coeffs, np.stack(blocks), axes=1)
        if np.linalg.cond(C) > 1e8:
            continue
        base = half[len(out) % 2]
        out.append(SubspaceBasis(n, base.orthonormal() @ C.T))
    return out


def invariance_transfer_proof() -> tuple[bool, bool]:
    """Invariance transfer, proved in sympy on symbolic blocks: R and K
    n x n, U n x k with independent columns, TU = diag(U, U) the lift, its
    base copy of U before its fiber copy.  check_invariance_transfer samples
    the forward hypotheses, R U ⊆ U and K U ⊆ U, and never forms the lift.

    Forward: R U = U M1 and K U = U M2 give M TU = TU [[M1, 0], [M2 M1,
    M1]] for M = [[R, 0], [K R, R]], so TU is invariant.  Back: M TU =
    TU N reads R U = U N11 and K R U = U N21 off its left column.  With R
    invertible, R U has rank k, so the k x k block N11 is invertible, and
    K R U N11^-1 is both K U and U N21 N11^-1: U is invariant under R and
    K.  Each step is a rewrite by one hypothesis.
    """
    from sympy import BlockMatrix, MatrixSymbol, ZeroMatrix, block_collapse, symbols

    n, k = symbols("n k", integer=True, positive=True)
    R, K, U = MatrixSymbol("R", n, n), MatrixSymbol("K", n, n), MatrixSymbol("U", n, k)
    M1, M2 = MatrixSymbol("M1", k, k), MatrixSymbol("M2", k, k)
    N11, N21 = MatrixSymbol("N11", k, k), MatrixSymbol("N21", k, k)

    def prolonged_block(R, K, zero):
        return BlockMatrix([[R, zero], [K * R, R]])

    TU = BlockMatrix([[U, ZeroMatrix(n, k)], [ZeroMatrix(n, k), U]])
    image = block_collapse(prolonged_block(R, K, ZeroMatrix(n, n)) * TU)
    restricted = block_collapse(TU * prolonged_block(M1, M2, ZeroMatrix(k, k)))
    forward = image.subs(R * U, U * M1).subs(K * U, U * M2) == restricted

    N = BlockMatrix([[N11, MatrixSymbol("N12", k, k)], [N21, MatrixSymbol("N22", k, k)]])
    read = block_collapse(TU * N)
    left_column = [image.blocks[0, 0], image.blocks[1, 0], read.blocks[0, 0], read.blocks[1, 0]]
    chain = K * R * U * N11.I
    back = (
        left_column == [R * U, K * R * U, U * N11, U * N21]
        and chain.subs(R * U, U * N11) == K * U
        and chain.subs(K * R * U, U * N21) == U * N21 * N11.I
    )
    return forward, back


def test_criterion_05_invariance_transfers_in_both_directions():
    start = time.perf_counter()
    forward, back = invariance_transfer_proof()
    elapsed = time.perf_counter() - start
    worst = 0.0
    checked = 0
    for entry in catalog_list():
        for U in entry.known_invariant_subspaces:
            report = check_invariance_transfer(entry.rep, U, 200, SEED, 1e-9)
            assert report.passed, (entry.name, report)
            worst = max(worst, report.max_residual)
            checked += 1
    sums = [
        (catalog_entry("circle_double").rep, 2, 13),
        (catalog_entry("circle_plus_trivial").rep, 2, 13),
        (
            direct_sum(
                catalog_entry("gl_identity(2)").rep, catalog_entry("gl_identity(2)").rep
            ),
            2,
            12,
        ),
        (
            direct_sum(
                catalog_entry("so3_standard").rep, catalog_entry("so3_standard").rep
            ),
            3,
            12,
        ),
    ]
    random_checked = 0
    for rep, split, count in sums:
        for k, U in enumerate(random_invariant_subspaces(rep, split, count, SEED + 7)):
            report = check_invariance_transfer(rep, U, 100, (SEED, k), 1e-9)
            assert report.passed, (rep.name, k, report)
            worst = max(worst, report.max_residual)
            random_checked += 1
    record(
        5,
        "invariant_subspace_transfer",
        forward and back and elapsed < 5.0 and worst < 1e-9 and random_checked == 50,
        f"sympy proof both ways on symbolic blocks, {elapsed:.2f}s; {checked} declared + "
        f"{random_checked} random subspaces, worst {worst:.2e}",
    )


def test_criterion_06_vertical_subspace_reproduces_the_reducibility_counterexample():
    rotation = catalog_entry("circle_rotation").rep
    fiber_plane = SubspaceBasis(4, [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    fiber_report = is_invariant_subspace(prolonged(rotation), fiber_plane, 200, SEED, 1e-9)
    assert fiber_report.passed, fiber_report

    # the base representation has no invariant line (its commutant is the
    # complex numbers), so its reducible prolongation is the one-directional
    # counterexample
    probe = reducibility_probe(rotation)
    assert probe.passed and probe.witness["classification"] == "irreducible"
    assert reducibility_probe(prolonged(rotation)).witness["classification"] == "reducible"

    worst = fiber_report.max_residual
    for entry in catalog_list():
        n = entry.rep.target_dim
        fibers = SubspaceBasis(2 * n, np.eye(n, 2 * n, n))
        report = is_invariant_subspace(prolonged(entry.rep), fibers, 200, SEED, 1e-9)
        assert report.passed, (entry.name, report)
        worst = max(worst, report.max_residual)
    record(
        6,
        "vertical_invariance_counterexample",
        worst < 1e-9,
        f"irreducible base, invariant fiber plane; worst residual {worst:.2e}",
    )


def test_criterion_07_prolongation_commutes_with_direct_sums():
    # A proof, not a sample.  On blocks of symbolic sizes n1 and n2, the
    # interleaving (p1, p2, v1, v2) -> (p1, v1, p2, v2) conjugates the
    # prolongation [[R, 0], [K R, R]] of R = diag(R1, R2), K = diag(K1, K2)
    # into the sum of the two prolongations, whatever the four blocks are.
    # direct_sum builds its images as such block diagonals
    # (tests/test_rep_algebra.py::TestDirectSum pins that), so the identity
    # holds for every sum.  The same algebra gives the fiber identity
    # [[R, 0], [K R, R]] (0, v) = (0, R v) behind the vertical_invariance row.
    start = time.perf_counter()
    from sympy import BlockMatrix, Identity, MatrixSymbol, ZeroMatrix, block_collapse, symbols

    n, n1, n2 = symbols("n n1 n2", integer=True, positive=True)
    R1, K1 = MatrixSymbol("R1", n1, n1), MatrixSymbol("K1", n1, n1)
    R2, K2 = MatrixSymbol("R2", n2, n2), MatrixSymbol("K2", n2, n2)

    def zeros(rows, cols):
        return BlockMatrix([[ZeroMatrix(r, c) for c in cols] for r in rows])

    def diag(A, B):
        return BlockMatrix([[A, ZeroMatrix(A.rows, B.cols)], [ZeroMatrix(B.rows, A.cols), B]])

    def prolonged_grid(R, K, zero):
        return [[R, zero], [block_collapse(K * R), R]]

    def flatten(grid):
        """The 4 x 4 blocks of a 2 x 2 grid of 2 x 2 block matrices."""
        return BlockMatrix(
            [[X.blocks[i, j] for X in row for j in (0, 1)] for row in grid for i in (0, 1)]
        )

    joint = prolonged_grid(diag(R1, R2), diag(K1, K2), zeros((n1, n2), (n1, n2)))
    dims, order = (n1, n2, n1, n2), (0, 2, 1, 3)
    P = BlockMatrix(
        [[Identity(dims[c]) if c == r else ZeroMatrix(dims[r], dims[c]) for c in range(4)]
         for r in order]
    )
    shuffled = block_collapse(P * flatten(joint) * P.T)
    split = flatten(
        [
            [BlockMatrix(prolonged_grid(R1, K1, ZeroMatrix(n1, n1))), zeros((n1, n1), (n2, n2))],
            [zeros((n2, n2), (n1, n1)), BlockMatrix(prolonged_grid(R2, K2, ZeroMatrix(n2, n2)))],
        ]
    )
    commutes = shuffled == split

    R, K, v = MatrixSymbol("R", n, n), MatrixSymbol("K", n, n), MatrixSymbol("v", n, 1)
    M = BlockMatrix(prolonged_grid(R, K, ZeroMatrix(n, n)))
    image = block_collapse(M * BlockMatrix([[ZeroMatrix(n, 1)], [v]]))
    vertical = image == BlockMatrix([[ZeroMatrix(n, 1)], [R * v]])

    elapsed = time.perf_counter() - start
    record(
        7,
        "direct_sum_commutation",
        commutes and vertical and elapsed < 5.0,
        f"sympy proof on symbolic n1 x n1 and n2 x n2 blocks, and the fiber identity, "
        f"{elapsed:.2f}s",
    )


def test_criterion_08_faithfulness_holds_or_fails_with_a_documented_witness():
    collisions = []
    for entry in catalog_list():
        report = faithfulness_probe(entry.rep)
        if entry.name in NON_FAITHFUL:
            # expected failure: the certificate finds a kernel element
            assert not entry.known_faithful, entry.name
            assert not report.passed, (entry.name, report)
            assert report.witness["kind"] == "kernel_collision", (entry.name, report)
            collisions.append(entry.name)
        else:
            assert entry.known_faithful, entry.name
            assert report.passed, (entry.name, report)
    record(
        8,
        "faithfulness_divergence",
        sorted(collisions) == sorted(NON_FAITHFUL),
        "faithful reps pass the exact certificate; kernel witnesses collide on "
        + ", ".join(sorted(collisions)),
    )


def test_criterion_09_tangent_space_axioms_hold_exactly():
    # TR^n is a vector space through its trivialized coordinates: sums and
    # multiples are taken there and read back as tangent vectors.
    def tv(coordinates: np.ndarray) -> TangentVector:
        return TangentVector(*np.split(coordinates, 2))

    def tv_add(a: TangentVector, b: TangentVector) -> TangentVector:
        return tv(a.coordinates + b.coordinates)

    def tv_scale(c: float, a: TangentVector) -> TangentVector:
        return tv(c * a.coordinates)

    def tv_zero(n: int) -> TangentVector:
        return tv(np.zeros(2 * n))

    rng = np.random.default_rng(SEED)
    dims = (1, 2, 3, 5)
    failures = 0
    for t in range(1000):
        n = dims[t % len(dims)]
        u, w, z = (
            TangentVector(rng.integers(-1000, 1001, n), rng.integers(-1000, 1001, n))
            for _ in range(3)
        )
        c, d = (int(x) for x in rng.integers(-30, 31, 2))

        def eq(a: TangentVector, b: TangentVector) -> bool:
            return np.array_equal(a.base, b.base) and np.array_equal(a.fiber, b.fiber)

        axioms = (
            eq(tv_add(u, w), tv_add(w, u)),
            eq(tv_add(tv_add(u, w), z), tv_add(u, tv_add(w, z))),
            eq(tv_add(u, tv_zero(n)), u),
            eq(tv_add(u, tv_scale(-1.0, u)), tv_zero(n)),
            eq(tv_scale(c, tv_add(u, w)), tv_add(tv_scale(c, u), tv_scale(c, w))),
            eq(tv_scale(c + d, u), tv_add(tv_scale(c, u), tv_scale(d, u))),
            eq(tv_scale(c * d, u), tv_scale(c, tv_scale(d, u))),
            eq(tv_scale(1.0, u), u),
        )
        if not all(axioms):
            failures += 1
    record(
        9,
        "tangent_space_axioms",
        failures == 0,
        "eight axioms bitwise-exact on 1000 integer-valued triples",
    )


def test_criterion_10_reports_are_deterministic(tmp_path):
    outputs = []
    for run in range(2):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "lieprolong",
                "check",
                "--rep",
                "circle_rotation",
                "--suite",
                "all",
                "--seed",
                "123",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        path = tmp_path / f"run{run}.json"
        path.write_text(proc.stdout)
        outputs.append(path.read_bytes())
    identical = outputs[0] == outputs[1]
    parsed = json.loads(outputs[0])
    record(
        10,
        "byte_identical_reports",
        identical and parsed["config"]["seed"] == 123,
        f"two full-suite runs, {len(outputs[0])} bytes each",
    )
