"""The package's public names, written out: adding or removing one is a
deliberate edit of this list.  And the one rule every array that enters
through them obeys: real, finite, taken as a read-only float copy."""

import ast
from pathlib import Path

import numpy as np
import pytest

import lieprolong
from lieprolong import (
    AlgebraElement,
    GroupElement,
    MembershipError,
    ProlongedMatrix,
    Representation,
    SubspaceBasis,
    TangentVector,
    algebra_from_coordinates,
    algebra_membership_residual,
    block_diag,
    catalog_entry,
    circle,
    conjugate_representation,
    group_membership_residual,
    is_intertwiner,
    mat_exp,
    prolong_intertwiner,
    relative_residual,
    special_orthogonal,
)

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_API = [
    "AlgebraElement",
    "CatalogEntry",
    "ChartError",
    "CheckReport",
    "DescriptorError",
    "ExponentOverflowError",
    "GroupElement",
    "GroupKind",
    "GroupSpec",
    "MEMBERSHIP_TOL",
    "MembershipError",
    "NonFiniteImageError",
    "ProlongedMatrix",
    "ProlongedRepresentation",
    "Representation",
    "SpecMismatchError",
    "SubspaceBasis",
    "TangentGroupElement",
    "TangentVector",
    "Verdict",
    "algebra_basis",
    "algebra_coordinates",
    "algebra_from_coordinates",
    "algebra_membership_residual",
    "apply_prolonged",
    "block_diag",
    "catalog_entry",
    "catalog_list",
    "catalog_names",
    "check_action_oracle",
    "check_equivalence_transfer",
    "check_homomorphism",
    "check_invariance_transfer",
    "circle",
    "commutant_basis",
    "conjugate_representation",
    "differential_rep",
    "direct_sum",
    "faithfulness_probe",
    "finite_difference_differential",
    "general_linear",
    "group_coordinates",
    "group_membership_residual",
    "group_multiply",
    "identity_element",
    "is_intertwiner",
    "is_invariant_subspace",
    "jn_embed",
    "load_representation",
    "mat_exp",
    "principal_log",
    "prolong",
    "prolong_intertwiner",
    "prolonged",
    "random_conjugator",
    "read_descriptor",
    "reducibility_probe",
    "relative_residual",
    "rep_image",
    "sample_tangent_element",
    "sample_tangent_elements",
    "special_linear",
    "special_orthogonal",
    "tangent_action_oracle",
    "tg_inverse",
    "tg_multiply",
]


def test_public_names_are_pinned():
    assert sorted(lieprolong.__all__) == PUBLIC_API


def test_every_public_name_is_used_outside_the_tests():
    # A public symbol whose only caller is its own unit test is dropped.  A
    # use is a read of the name in the package, where its own def, class or
    # assignment and its __all__ string are not reads, or in a demo.
    read = set()
    for path in [*(ROOT / "src" / "lieprolong").glob("*.py"), *(ROOT / "demos").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(set(lieprolong.__all__) - read) == []


def _rep(name):
    return catalog_entry(name).rep


_J = [[0.0, 1.0], [-1.0, 0.0]]

# Each entry point, called with input that holds the imaginary unit.  A
# cast to float would drop it and read, say, I + 0.5i I as the identity.
COMPLEX_INPUT = {
    "GroupElement": lambda: GroupElement(np.eye(2) * (1 + 0.5j), special_orthogonal(2)),
    "AlgebraElement": lambda: AlgebraElement(np.multiply(1j, _J), circle()),
    "ProlongedMatrix": lambda: ProlongedMatrix(np.eye(2), 1j * np.eye(2)),
    "TangentVector": lambda: TangentVector([1.0, 2.0], [1j, 0.0]),
    "SubspaceBasis": lambda: SubspaceBasis(2, [[1.0, 1j]]),
    "algebra_from_coordinates": lambda: algebra_from_coordinates([1j], circle()),
    "mat_exp": lambda: mat_exp(AlgebraElement(_J, circle()), 1j),
    "is_intertwiner": lambda: is_intertwiner(
        (1 + 1j) * np.eye(2), _rep("circle_rotation"), _rep("circle_rotation"), 5
    ),
    "prolong_intertwiner": lambda: prolong_intertwiner(1j * np.eye(2)),
    "conjugate_representation": lambda: conjugate_representation(
        _rep("so3_standard"), (1 + 1j) * np.eye(3)
    ),
    "apply": lambda: Representation(
        circle(), 2, apply=lambda a: a.matrix + 1e-3j, differential=lambda B: B.matrix
    ),
    "relative_residual": lambda: relative_residual((1 + 1j) * np.eye(2), np.eye(2)),
    "group_membership_residual": lambda: group_membership_residual(
        (1 + 0.5j) * np.eye(2), special_orthogonal(2)
    ),
    "algebra_membership_residual": lambda: algebra_membership_residual(
        1j * np.eye(2), circle()
    ),
    "block_diag": lambda: block_diag(1j * np.eye(2), np.eye(2)),
}


@pytest.mark.parametrize("call", COMPLEX_INPUT.values(), ids=COMPLEX_INPUT.keys())
def test_complex_input_is_refused(call):
    with pytest.raises(ValueError, match="real|complex"):
        call()


@pytest.mark.parametrize(
    "A, error, message",
    [
        (np.diag([1.0, 1.0, 0.0]), MembershipError, "singular or too ill-conditioned"),
        (np.diag([1.0, 1.0, 1e-17]), MembershipError, "singular or too ill-conditioned"),
        (np.eye(2), ValueError, "expected a 3x3 matrix"),
        (np.stack([np.eye(3)] * 2), ValueError, "one matrix, not a stack"),
    ],
    ids=["singular", "ill-conditioned", "wrong size", "stack"],
)
def test_a_conjugator_is_one_invertible_matrix_of_the_right_size(A, error, message):
    with pytest.raises(error, match=message):
        conjugate_representation(_rep("so3_standard"), A)


# Integer and nested-list input, and what each entry point keeps of it.
REAL_INPUT = {
    "GroupElement": (lambda: GroupElement([[0, 1], [-1, 0]], circle()).matrix, _J),
    "AlgebraElement": (lambda: AlgebraElement([[0, 1], [-1, 0]], circle()).matrix, _J),
    "ProlongedMatrix": (lambda: ProlongedMatrix([[2]], [[3]]).dense(), [[2, 0], [3, 2]]),
    "TangentVector": (lambda: TangentVector([1, 2], [3, 4]).coordinates, [1, 2, 3, 4]),
    "SubspaceBasis": (lambda: SubspaceBasis(2, [[1, 2]]).vectors, [[1, 2]]),
    "algebra_from_coordinates": (
        lambda: algebra_from_coordinates([2], circle()).matrix,
        np.multiply(2, _J),
    ),
    "prolong_intertwiner": (lambda: prolong_intertwiner([[1, 2]]), [[1, 2, 0, 0], [0, 0, 1, 2]]),
    "conjugate_representation": (
        lambda: conjugate_representation(_rep("circle_rotation"), [[2, 0], [0, 1]]).apply(
            GroupElement(_J, circle())
        ),
        [[0, 2], [-0.5, 0]],
    ),
}


@pytest.mark.parametrize("call, expected", REAL_INPUT.values(), ids=REAL_INPUT.keys())
def test_integer_and_list_input_keeps_its_bits(call, expected):
    out = call()
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, np.array(expected, dtype=float))
