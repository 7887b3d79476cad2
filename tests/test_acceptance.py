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

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from lieprolong import (
    SubspaceBasis,
    TangentVector,
    catalog_entry,
    catalog_list,
    check_action_oracle,
    check_direct_sum_commutation,
    check_equivalence_transfer,
    check_homomorphism,
    check_invariance_transfer,
    commutant_basis,
    direct_sum,
    faithfulness_probe,
    general_linear,
    is_invariant_subspace,
    jn_embed,
    prolonged,
    reducibility_probe,
    relative_residual,
    sample_tangent_element,
    tg_multiply,
    tv_add,
    tv_scale,
    tv_zero,
    vertical_subspace,
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


def test_criterion_02_prolongation_is_a_homomorphism_on_every_catalog_rep():
    start = time.perf_counter()
    worst = 0.0
    worst_name = ""
    for entry in catalog_list():
        report = check_homomorphism(prolonged(entry.rep), 1000, SEED, 1e-9)
        assert report.passed, (entry.name, report)
        if report.max_residual > worst:
            worst, worst_name = report.max_residual, entry.name
    elapsed = time.perf_counter() - start
    record(
        2,
        "prolongation_homomorphism",
        worst < 1e-9 and elapsed < 30.0,
        f"worst {worst:.2e} on {worst_name}, {elapsed:.1f}s, 1000 pairs x "
        f"{len(catalog_list())} reps",
    )


def test_criterion_03_block_action_matches_the_differentiated_action():
    worst = 0.0
    worst_name = ""
    for entry in catalog_list():
        report = check_action_oracle(entry.rep, 1000, SEED, 1e-5)
        assert report.passed, (entry.name, report)
        if report.max_residual > worst:
            worst, worst_name = report.max_residual, entry.name
    record(
        3,
        "action_oracle_equivalence",
        worst < 1e-5,
        f"worst {worst:.2e} on {worst_name}, 1000 triples per rep",
    )


def test_criterion_04_equivalence_transfers_to_prolongations():
    worst = 0.0
    for entry in catalog_list():
        report = check_equivalence_transfer(entry.rep, 100, SEED, 1e-9)
        assert report.passed, (entry.name, report)
        worst = max(worst, report.max_residual)
    record(
        4,
        "equivalence_transfer",
        worst < 1e-9,
        f"hypothesis and conclusion per rep, worst residual {worst:.2e}",
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


def test_criterion_05_invariance_transfers_in_both_directions():
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
        worst < 1e-9 and random_checked == 50,
        f"{checked} declared + {random_checked} random subspaces, worst {worst:.2e}",
    )


def test_criterion_06_vertical_subspace_reproduces_the_reducibility_counterexample():
    rotation = catalog_entry("circle_rotation").rep
    fiber_plane = SubspaceBasis(4, [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    np.testing.assert_array_equal(fiber_plane.vectors, vertical_subspace(2).vectors)
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
        report = is_invariant_subspace(
            prolonged(entry.rep),
            vertical_subspace(entry.rep.target_dim),
            200,
            SEED,
            1e-9,
        )
        assert report.passed, (entry.name, report)
        worst = max(worst, report.max_residual)
    record(
        6,
        "vertical_invariance_counterexample",
        worst < 1e-9,
        f"irreducible base, invariant fiber plane; worst residual {worst:.2e}",
    )


def test_criterion_07_prolongation_commutes_with_direct_sums():
    pairs = [
        ("circle_rotation", "circle_winding_2"),
        ("circle_rotation", "trivial(1)"),
        ("gl_identity(2)", "gl_identity(2)"),
        ("so3_standard", "so3_standard"),
        ("sl2_standard", "sl2_standard"),
    ]
    worst = 0.0
    for left, right in pairs:
        report = check_direct_sum_commutation(
            catalog_entry(left).rep, catalog_entry(right).rep, 200, SEED, 1e-12
        )
        assert report.passed, (left, right, report)
        worst = max(worst, report.max_residual)
    record(
        7,
        "direct_sum_commutation",
        worst < 1e-12,
        f"{len(pairs)} pairs, 200 samples each, worst {worst:.2e}",
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
