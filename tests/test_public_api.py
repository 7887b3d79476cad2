"""The package's public names, written out: adding or removing one is a
deliberate edit of this list."""

import ast
from pathlib import Path

import lieprolong

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
    "StepSizeError",
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
    "prolong_subspace",
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
