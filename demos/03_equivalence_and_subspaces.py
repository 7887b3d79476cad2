"""
Equivalence and invariant subspaces under prolongation
======================================================

Structure of a representation survives prolongation in two ways that can
be checked by sampling.  First, conjugating the representation by an
invertible A conjugates the prolongation by block-diag(A, A).  Second,
an invariant subspace U lifts to the invariant subspace
span{(u, 0)} + span{(0, u)} of the prolongation, and invariance can be
pulled back from the lift as well.

The fiber directions {(0, v)} are invariant for EVERY prolongation.
That single fact means a prolongation is never irreducible, even when
the input representation is: the plane rotation action has no invariant
line, yet its prolongation has an invariant plane.
"""

from lieprolong import (
    SubspaceBasis,
    catalog_entry,
    check_equivalence_transfer,
    check_invariance_transfer,
    is_intertwiner,
    is_invariant_subspace,
    prolong_intertwiner,
    prolonged,
    random_conjugator,
    reducibility_probe,
    conjugate_representation,
    vertical_subspace,
)

rotation = catalog_entry("circle_rotation").rep

# one conjugation by hand
A = random_conjugator(2, seed=5)
other = conjugate_representation(rotation, A)
lifted = prolong_intertwiner(A)
report = is_intertwiner(lifted, prolonged(rotation), prolonged(other), 100, seed=5)
print("lifted conjugator intertwines the prolongations:", report.verdict.value,
      f"(residual {report.max_residual:.2e})")

# the bundled check: rho_2 built from the conjugated generator images,
# hypothesis and conclusion scored on the same samples
print("equivalence transfer:",
      check_equivalence_transfer(rotation, 100, seed=5).verdict.value)

# declared invariant subspaces of a direct sum transfer to the lift
entry = catalog_entry("circle_plus_trivial")
for k, U in enumerate(entry.known_invariant_subspaces):
    report = check_invariance_transfer(entry.rep, U, 100, seed=6)
    print(f"subspace {k} of {entry.name}: {report.verdict.value}"
          f" (residual {report.max_residual:.2e})")

# the reducibility counterexample: the commutant of the rotations is the
# complex numbers, so no line is invariant
probe = reducibility_probe(rotation)
print()
print("rotation rep:", probe.witness["classification"],
      f"(commutant type {probe.witness['commutant_type']})")

fiber_plane = vertical_subspace(2)
report = is_invariant_subspace(prolonged(rotation), fiber_plane, 100, seed=7)
print("fiber plane under the prolongation:", report.verdict.value)

# a line that is NOT invariant fails loudly, with a witness
bad = SubspaceBasis(2, [[1.0, 0.0]])
report = is_invariant_subspace(rotation, bad, 100, seed=7)
print("x-axis under rotations:", report.verdict.value,
      "witness:", report.witness)
