"""Prolong matrix Lie group representations to tangent bundles.

A representation of a matrix group on R^n extends canonically to a
representation of the group's tangent bundle on the tangent bundle of
R^n.  This package computes that extension in explicit block-matrix
form, provides independent oracles for its action, and ships a battery
of sampling-based structural checks: homomorphism tests, equivalence and
invariant-subspace transfer, commutant and reducibility probes, and a
faithfulness probe that detects non-injective inputs.
"""

__version__ = "0.1.0"

from .catalog import (
    CatalogEntry,
    DescriptorError,
    catalog_entry,
    catalog_list,
    catalog_names,
    load_representation,
    read_descriptor,
)
from .groups import (
    MEMBERSHIP_TOL,
    AlgebraElement,
    ChartError,
    ExponentOverflowError,
    GroupElement,
    GroupKind,
    GroupSpec,
    MembershipError,
    SpecMismatchError,
    TangentGroupElement,
    algebra_basis,
    algebra_coordinates,
    algebra_element,
    algebra_from_coordinates,
    algebra_membership_residual,
    block_diag,
    circle,
    circle_element,
    general_linear,
    group_coordinates,
    group_element,
    group_membership_residual,
    group_multiply,
    identity_element,
    identity_tangent,
    mat_exp,
    principal_log,
    relative_residual,
    sample_algebra_element,
    sample_group_element,
    sample_group_elements,
    sample_tangent_element,
    sample_tangent_elements,
    special_linear,
    special_orthogonal,
    tg_inverse,
    tg_multiply,
    zero_algebra,
)
from .prolongation import (
    DifferentialReport,
    ProlongedMatrix,
    ProlongedRepresentation,
    Representation,
    StepSizeError,
    apply_prolonged,
    differential_rep,
    differential_report,
    finite_difference_differential,
    jn_embed,
    prolong,
    prolonged,
    rep_image,
    tangent_action_oracle,
)
from .rep_algebra import (
    RANK_RTOL,
    CheckReport,
    Intertwiner,
    SubspaceBasis,
    Verdict,
    certify_irreducible_lines_2d,
    check_action_oracle,
    check_direct_sum_commutation,
    check_equivalence_transfer,
    check_homomorphism,
    check_invariance_transfer,
    commutant_basis,
    conjugate_representation,
    direct_sum,
    faithfulness_probe,
    interleave_permutation,
    is_intertwiner,
    is_invariant_subspace,
    prolong_intertwiner,
    prolong_subspace,
    random_conjugator,
    reducibility_probe,
    vertical_subspace,
)
from .tangent_space import (
    TangentVector,
    tv_add,
    tv_scale,
    tv_zero,
)
