"""What each sampled suite catches: its verdict on broken maps and on valid
but hard representations, at 50 samples and seed 3.

A cell is ``pass``, ``fail`` or ``refused`` (the check raises, and the CLI
exits 2).  A cell that differs from what the theory predicts says so, with
the ROADMAP item meant to bring it there.  A change that flips a cell edits
it here and says why in CHANGES.md.
"""

import dataclasses
import functools

import numpy as np
import pytest
from descriptors import gl3_dense_conjugated, so4_dense_conjugated, symmetric_power

from lieprolong import (
    ExponentOverflowError,
    NonFiniteImageError,
    StepSizeError,
    catalog_entry,
    check_action_oracle,
    check_equivalence_transfer,
    check_homomorphism,
    load_representation,
    prolonged,
)

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


ROWS = {
    **broken_maps("so3_standard"),
    **{f"gl2: {row}": make for row, make in broken_maps("gl_identity(2)").items()},
    "gl3_dense_conjugated": lambda: load_representation(gl3_dense_conjugated()),
    "so4_dense_conjugated": lambda: load_representation(so4_dense_conjugated()),
    "symmetric_power(4)": lambda: load_representation(symmetric_power(4)),
    "symmetric_power(10)": lambda: load_representation(symmetric_power(10)),
    "symmetric_power(20)": lambda: load_representation(symmetric_power(20)),
    "symmetric_power(40)": lambda: load_representation(symmetric_power(40)),
}

COLUMNS = {
    "homomorphism(base)": lambda rep: check_homomorphism(rep, SAMPLES, SEED),
    "homomorphism(prolonged)": lambda rep: check_homomorphism(prolonged(rep), SAMPLES, SEED),
    "action_oracle": lambda rep: check_action_oracle(rep, SAMPLES, SEED),
    "equivalence_transfer": lambda rep: check_equivalence_transfer(rep, SAMPLES, SEED),
}

MATRIX = {
    # homomorphism(base), homomorphism(prolonged), action_oracle, equivalence_transfer
    "apply = a^2": ("fail", "fail", "fail", "fail"),
    "apply = a^T": ("fail", "fail", "fail", "fail"),
    "apply = I": ("pass", "fail", "fail", "fail"),
    "d rho = 0": ("pass", "pass", "fail", "fail"),
    "d rho x 2": ("pass", "pass", "fail", "fail"),
    "d rho x (1 + 1e-3)": ("pass", "pass", "fail", "fail"),
    # The oracle should fail: its residual, 9.2e-7, sits under its
    # finite-difference tolerance of 1e-5 (item 6, an exact oracle).
    "d rho x (1 + 1e-6)": ("pass", "pass", "pass", "fail"),
    # The same seven maps on GL(2), which is neither compact nor semisimple:
    # the cells match SO(3)'s.
    "gl2: apply = a^2": ("fail", "fail", "fail", "fail"),
    "gl2: apply = a^T": ("fail", "fail", "fail", "fail"),
    "gl2: apply = I": ("pass", "fail", "fail", "fail"),
    "gl2: d rho = 0": ("pass", "pass", "fail", "fail"),
    "gl2: d rho x 2": ("pass", "pass", "fail", "fail"),
    "gl2: d rho x (1 + 1e-3)": ("pass", "pass", "fail", "fail"),
    # The oracle should fail, as on SO(3) (item 6, an exact oracle).
    "gl2: d rho x (1 + 1e-6)": ("pass", "pass", "pass", "fail"),
    # Valid: every cell should pass.  The max(1, max|reference|) scale
    # ignores cancellation in the conjugated products, and the residuals
    # land at 6.4e-10 (base, just under 1e-9: the samples' logarithms are
    # their drawn exponents) and 1.2e-9 to 8.5e-5 (item 5, residuals
    # scaled by their operands).
    "gl3_dense_conjugated": ("pass", "fail", "fail", "fail"),
    "so4_dense_conjugated": ("pass", "pass", "pass", "pass"),
    "symmetric_power(4)": ("pass", "pass", "pass", "pass"),
    # Valid: every cell should pass.  cond(Sym^n a) = cond(a)^n, and the
    # invertibility gate refuses cond > 1e12 (item 5, evidence in place of
    # refusal).
    "symmetric_power(10)": ("refused", "refused", "pass", "pass"),
    "symmetric_power(20)": ("refused", "refused", "refused", "refused"),
    # Valid: every cell should pass, as for symmetric_power(10) (item 5).
    "symmetric_power(40)": ("refused", "refused", "refused", "refused"),
}


@functools.lru_cache(maxsize=None)
def representation(row: str):
    return ROWS[row]()


def verdict(row: str, column: str) -> str:
    try:
        return COLUMNS[column](representation(row)).verdict.value
    except (NonFiniteImageError, StepSizeError, ExponentOverflowError):
        return "refused"


def test_the_matrix_covers_every_row_and_column():
    assert list(MATRIX) == list(ROWS)
    assert all(len(cells) == len(COLUMNS) for cells in MATRIX.values())


@pytest.mark.parametrize("column", list(COLUMNS))
@pytest.mark.parametrize("row", list(ROWS))
def test_cell(row, column):
    assert verdict(row, column) == MATRIX[row][list(COLUMNS).index(column)]
