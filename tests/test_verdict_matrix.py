"""What each gate catches: its verdict on broken maps, on valid but hard
representations and on claims beside a map, at 50 samples and seed 3.  One cell
is pinned at 200 samples and seed 0 as well, where that seed hides a failure.

A cell is ``pass``, ``fail`` or ``refused`` (the check raises), or ``-``
where the row makes no claim for the column to check.  The cells are the
library's sampled checks; on a descriptor the check command reports the
load certificate in place of the first four columns.
A cell that differs from what the theory predicts says so, with the
ROADMAP item meant to bring it there.  A change that flips a cell edits it
here and says why in CHANGES.md.
"""

import dataclasses
import functools

import numpy as np
import pytest
from descriptors import gl3_dense_conjugated, so4_dense_conjugated, symmetric_power
from elements import broken_circle_plus_trivial

from lieprolong import (
    ExponentOverflowError,
    NonFiniteImageError,
    Representation,
    SubspaceBasis,
    catalog_entry,
    check_action_oracle,
    check_equivalence_transfer,
    check_homomorphism,
    check_invariance_transfer,
    circle,
    faithfulness_probe,
    is_intertwiner,
    is_invariant_subspace,
    load_representation,
    prolonged,
    special_orthogonal,
)
from lieprolong.catalog import _generator_representation

SAMPLES, SEED = 50, 3


def broken_maps(entry: str) -> dict:
    """Seven maps built on a catalog entry, each broken in one way.

    Scaling d rho is an automorphism of the tangent group, so those
    prolongations are homomorphisms; apply = I and d rho = 0 keep a
    homomorphism as their base.
    """

    def rep(**maps):
        return dataclasses.replace(catalog_entry(entry).rep, **maps)

    def scaled_differential(scale):
        return lambda: rep(differential=lambda B: scale * B.matrix)

    return {
        "apply = a^2": lambda: rep(apply=lambda a: a.matrix @ a.matrix),
        "apply = a^T": lambda: rep(apply=lambda a: np.swapaxes(a.matrix, -1, -2)),
        "apply = I": lambda: rep(
            apply=lambda a: np.broadcast_to(np.eye(a.spec.dim), a.matrix.shape)
        ),
        "d rho = 0": scaled_differential(0.0),
        "d rho x 2": scaled_differential(2.0),
        "d rho x (1 + 1e-3)": scaled_differential(1 + 1e-3),
        "d rho x (1 + 1e-6)": scaled_differential(1 + 1e-6),
    }


def generator_map(spec, images, name):
    """``apply = expm(d rho(log a))`` on the given generator images: a
    descriptor's map, without the load's loop and bracket tests."""
    images = [np.asarray(image, dtype=float) for image in images]
    return lambda: _generator_representation(spec, len(images[0]), images, name)


def spin_half() -> list:
    """so(3) -> su(2) on R^4: L_k |-> q_k / 2, with q_k left multiplication by
    the unit quaternion along L_k's axis.  The brackets hold, but
    exp(2 pi D_k) = -I, so the loops do not close."""
    i = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    j = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    k = [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    # The axes of so(3)'s basis L_01, L_02, L_12 are -e_z, e_y and -e_x.
    return [np.multiply(-0.5, k), np.multiply(0.5, j), np.multiply(-0.5, i)]


def collapse(a):
    """The map of test_prolongation's test_singular_image_rejected, on a
    stack: the identity at the identity, but it collapses a row at a quarter
    turn, and d rho = 0."""
    images = np.zeros(a.matrix.shape)
    images[..., 0, 0] = 1.0
    images[..., 1, 1] = a.matrix[..., 0, 0]
    return images


CIRCLE_GENERATOR = [[0.0, 1.0], [-1.0, 0.0]]

ROWS = {
    **broken_maps("so3_standard"),
    **{f"gl2: {row}": make for row, make in broken_maps("gl_identity(2)").items()},
    "gl3_dense_conjugated": lambda: load_representation(gl3_dense_conjugated()),
    "so4_dense_conjugated": lambda: load_representation(so4_dense_conjugated()),
    "symmetric_power(4)": lambda: load_representation(symmetric_power(4)),
    "symmetric_power(10)": lambda: load_representation(symmetric_power(10)),
    "symmetric_power(20)": lambda: load_representation(symmetric_power(20)),
    "symmetric_power(40)": lambda: load_representation(symmetric_power(40)),
    "circle: weight 3/2": generator_map(circle(), [np.multiply(1.5, CIRCLE_GENERATOR)], "w3/2"),
    "circle: d rho x (1 + 1e-6)": generator_map(
        circle(), [np.multiply(1 + 1e-6, CIRCLE_GENERATOR)], "w1+1e-6"
    ),
    "so3: spin 1/2 on R^4": generator_map(special_orthogonal(3), spin_half(), "spin1/2"),
    "circle: collapse": lambda: Representation(circle(), 2, collapse, lambda B: 0.0 * B.matrix),
    "so3: d rho = B + 1e-7 B^2": lambda: dataclasses.replace(
        catalog_entry("so3_standard").rep,
        differential=lambda B: B.matrix + 1e-7 * B.matrix @ B.matrix,
    ),
    "circle_plus_trivial: d rho + B_01 E_02": broken_circle_plus_trivial,
    "so3: line e_0": lambda: catalog_entry("so3_standard").rep,
    "so3: diag(1, 2, 3)": lambda: catalog_entry("so3_standard").rep,
}

COLUMNS = {
    "homomorphism(base)": lambda rep: check_homomorphism(rep, SAMPLES, SEED),
    "homomorphism(prolonged)": lambda rep: check_homomorphism(prolonged(rep), SAMPLES, SEED),
    "action_oracle": lambda rep: check_action_oracle(rep, SAMPLES, SEED),
    "equivalence_transfer": lambda rep: check_equivalence_transfer(rep, SAMPLES, SEED),
    "faithfulness_probe": faithfulness_probe,
}

# Claims a row makes beside its map, each checked in its own column: false
# ones about a valid representation, and a true one about a broken map's
# apply.  Rows without a claim there have "-".
LINE_E0, LINE_E2 = SubspaceBasis(3, [[1.0, 0.0, 0.0]]), SubspaceBasis(3, [[0.0, 0.0, 1.0]])
CLAIMS = {
    "is_invariant_subspace": {
        "circle_plus_trivial: d rho + B_01 E_02": lambda rep: is_invariant_subspace(
            rep, LINE_E2, SAMPLES, SEED
        ),
        "so3: line e_0": lambda rep: is_invariant_subspace(rep, LINE_E0, SAMPLES, SEED),
    },
    "invariance_transfer": {
        "circle_plus_trivial: d rho + B_01 E_02": lambda rep: check_invariance_transfer(
            rep, LINE_E2, SAMPLES, SEED
        ),
        "so3: line e_0": lambda rep: check_invariance_transfer(rep, LINE_E0, SAMPLES, SEED),
    },
    "is_intertwiner": {
        "so3: diag(1, 2, 3)": lambda rep: is_intertwiner(
            np.diag([1.0, 2.0, 3.0]), rep, rep, SAMPLES, SEED
        ),
    },
}

ALL_COLUMNS = [*COLUMNS, *CLAIMS]

MATRIX = {
    # homomorphism(base), homomorphism(prolonged), action_oracle, equivalence_transfer,
    # faithfulness_probe, is_invariant_subspace, invariance_transfer, is_intertwiner
    #
    # faithfulness_probe reads d rho alone, as a representation's
    # differential: a broken apply leaves its cell at pass, and where d rho
    # keeps no bracket (d rho x c, c != 1, off the circle) its verdict is
    # about no representation.  Such rows should be refused before it runs
    # (item 5(a), the bracket test for every representation).
    "apply = a^2": ("fail", "fail", "fail", "fail", "pass", "-", "-", "-"),
    "apply = a^T": ("fail", "fail", "fail", "fail", "pass", "-", "-", "-"),
    "apply = I": ("pass", "fail", "fail", "fail", "pass", "-", "-", "-"),
    "d rho = 0": ("pass", "pass", "fail", "fail", "fail", "-", "-", "-"),
    "d rho x 2": ("pass", "pass", "fail", "fail", "pass", "-", "-", "-"),
    "d rho x (1 + 1e-3)": ("pass", "pass", "fail", "fail", "pass", "-", "-", "-"),
    # The oracle samples the tie rho(exp B) = expm(d rho(B)) at its own
    # tolerance, 1e-9, and fails at 1.2e-6.
    "d rho x (1 + 1e-6)": ("pass", "pass", "fail", "fail", "pass", "-", "-", "-"),
    # The same seven maps on GL(2), which is neither compact nor semisimple:
    # the cells match SO(3)'s, except that GL(2) holds -I = exp(pi J), and
    # exp(pi d rho(J)) = I at d rho x 2.
    "gl2: apply = a^2": ("fail", "fail", "fail", "fail", "pass", "-", "-", "-"),
    "gl2: apply = a^T": ("fail", "fail", "fail", "fail", "pass", "-", "-", "-"),
    "gl2: apply = I": ("pass", "fail", "fail", "fail", "pass", "-", "-", "-"),
    "gl2: d rho = 0": ("pass", "pass", "fail", "fail", "fail", "-", "-", "-"),
    "gl2: d rho x 2": ("pass", "pass", "fail", "fail", "fail", "-", "-", "-"),
    "gl2: d rho x (1 + 1e-3)": ("pass", "pass", "fail", "fail", "pass", "-", "-", "-"),
    # The oracle fails on the tie at 1.3e-6, as on SO(3).
    "gl2: d rho x (1 + 1e-6)": ("pass", "pass", "fail", "fail", "pass", "-", "-", "-"),
    # Valid: every cell passes.  The max(1, max|reference|) scale ignores
    # cancellation in the conjugated products, and the base row lands at
    # 6.4e-10, just under 1e-9 (the samples' logarithms are their drawn
    # exponents, and each product's is SciPy's logm), the fiber identity at
    # 7.8e-10 and the oracle, base and tie, at 6.4e-10.  The equivalence
    # row forms no product: a descriptor's apply is expm(d rho(B_0)), and
    # it reads 0.  The sampled base row fails on 13 of seeds 0-15, and at
    # 200 samples and seed 0 at 7.3e-9 (item 8, residuals scaled by their
    # operands).  The check command samples none of these rows on a
    # descriptor: it reports the load certificate, 1.8e-16, and passes.
    "gl3_dense_conjugated": ("pass", "pass", "pass", "pass", "pass", "-", "-", "-"),
    "so4_dense_conjugated": ("pass", "pass", "pass", "pass", "pass", "-", "-", "-"),
    "symmetric_power(4)": ("pass", "pass", "pass", "pass", "fail", "-", "-", "-"),
    # Valid: every sampled cell should pass.  cond(Sym^n a) = cond(a)^n, and
    # the homomorphism scan gates each factor image as prolong gates its
    # diagonal block, refusing cond > 1e12 (item 8, evidence in place of
    # refusal).  Sym^10's factors stay under 2.7e9 and its rows pass at
    # 2.3e-11; its product images, which reach 3.9e15, are scored, not
    # gated.  Sym^20's and Sym^40's factors reach 1.7e19 and 7.9e34, and
    # the oracle row, which reads the homomorphism scan, is refused with
    # them.  The equivalence row gates nothing.  The faithfulness cells
    # fail rightly: Sym^n sends -I to (-1)^n = I when n is even.
    "symmetric_power(10)": ("pass", "pass", "pass", "pass", "fail", "-", "-", "-"),
    "symmetric_power(20)": ("refused", "refused", "refused", "pass", "fail", "-", "-", "-"),
    # Valid: every sampled cell should pass, as symmetric_power(10)'s do
    # (item 8).
    "symmetric_power(40)": ("refused", "refused", "refused", "pass", "fail", "-", "-", "-"),
    # Not representations: apply = expm(d rho(log a)) with loops that do not
    # close, weight 3/2 and weight 1 + 1e-6 on the circle, and exp(2 pi D) = -I
    # for spin 1/2.  Every cell should fail.  They pass, since no drawn
    # sample or product of two leaves the principal chart, and only a
    # descriptor's load tests the loops (item 5, generator certificates).
    "circle: weight 3/2": ("pass", "pass", "pass", "pass", "pass", "-", "-", "-"),
    "circle: d rho x (1 + 1e-6)": ("pass", "pass", "pass", "pass", "pass", "-", "-", "-"),
    "so3: spin 1/2 on R^4": ("pass", "pass", "pass", "pass", "pass", "-", "-", "-"),
    # Not a representation: every cell should fail, and does; d rho = 0
    # gives the probe a kernel.
    "circle: collapse": ("fail", "fail", "fail", "fail", "fail", "-", "-", "-"),
    # Not a representation: d rho is not linear.  Every cell should fail.
    # The homomorphism(base) and faithfulness cells read d rho only on the
    # basis or not at all, and pass (item 2, a linearity certificate).  The
    # prolonged homomorphism's fiber identity (1.4e-7) and the tie (1.2e-7),
    # which the equivalence and oracle rows read, fail.
    "so3: d rho = B + 1e-7 B^2": ("pass", "fail", "fail", "fail", "pass", "-", "-", "-"),
    # A broken d rho with a true claim about apply: span(e_2) is invariant
    # under every image, so is_invariant_subspace passes, but d rho(B) sends
    # e_2 out of it.  The plain subspace check cannot see d rho; the
    # invariance transfer scores U under d rho(B) and catches the map.
    "circle_plus_trivial: d rho + B_01 E_02": (
        "pass", "fail", "fail", "fail", "pass", "pass", "fail", "-"
    ),
    # so3_standard with a false claim: the map passes, the claim fails on a
    # sample (item 5(c) adds a generator witness).
    "so3: line e_0": ("pass", "pass", "pass", "pass", "pass", "fail", "fail", "-"),
    "so3: diag(1, 2, 3)": ("pass", "pass", "pass", "pass", "pass", "-", "-", "fail"),
}


@functools.lru_cache(maxsize=None)
def representation(row: str):
    return ROWS[row]()


def verdict(row: str, column: str) -> str:
    check = COLUMNS[column] if column in COLUMNS else CLAIMS[column][row]
    try:
        return check(representation(row)).verdict.value
    except (NonFiniteImageError, ExponentOverflowError):
        return "refused"


def test_the_matrix_covers_every_row_and_column():
    assert list(MATRIX) == list(ROWS)
    for row, cells in MATRIX.items():
        claimed = [column in COLUMNS or row in CLAIMS[column] for column in ALL_COLUMNS]
        assert [cell != "-" for cell in cells] == claimed, row


CELLS = [
    (row, column)
    for row, cells in MATRIX.items()
    for column, cell in zip(ALL_COLUMNS, cells)
    if cell != "-"
]


@pytest.mark.parametrize("row, column", CELLS)
def test_cell(row, column):
    assert verdict(row, column) == MATRIX[row][ALL_COLUMNS.index(column)]


def test_so4_dense_conjugated_oracle_at_the_cli_defaults():
    # A second seed for one cell: at 200 samples and seed 0 a central
    # difference of the action curve fails this valid representation at
    # 1.2e-5.  The oracle reads its two hypotheses, and
    # both pass: the base homomorphism at 2.0e-10 and the tie exactly,
    # since a descriptor's apply is expm(d rho(B_0)).
    rep = representation("so4_dense_conjugated")
    report = check_action_oracle(rep, 200, 0)
    assert report.verdict.value == "pass"
    assert report.max_residual == check_homomorphism(rep, 200, 0).max_residual
    assert 1e-10 < report.max_residual < 1e-9
    assert check_equivalence_transfer(rep, 200, 0).max_residual == 0.0
