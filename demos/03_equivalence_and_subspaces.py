"""
Equivalence and invariant subspaces under prolongation
======================================================

Structure of a representation survives prolongation in two ways.  First,
conjugating the representation by an invertible A conjugates the
prolongation by block-diag(A, A).  Second, an invariant subspace U lifts
to the invariant subspace span{(u, 0)} + span{(0, u)} of the
prolongation, and invariance can be pulled back from the lift as well.
Both are block algebra, proved in sympy by the acceptance tests; here
they are seen on samples.

The fiber directions {(0, v)} are invariant for EVERY prolongation.
That single fact means a prolongation is never irreducible, even when
the input representation is: the plane rotation action has no invariant
line, yet its prolongation has an invariant plane.
"""

import numpy as np

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
)

rotation = catalog_entry("circle_rotation").rep

# one conjugation by hand
A = random_conjugator(2, seed=5)
other = conjugate_representation(rotation, A)
lifted = prolong_intertwiner(A)
report = is_intertwiner(lifted, prolonged(rotation), prolonged(other), 100, seed=5)
print("lifted conjugator intertwines the prolongations:", report.verdict.value,
      f"(residual {report.max_residual:.2e})")

# the bundled check: the transfer is proved once, so it samples only the
# tie rho(exp B0) = expm(d rho(B0)) that makes A rho(x) A^-1 the image of
# the representation with conjugated generator images
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

# the fiber directions (0, v) of the tangent coordinates (p, v), n = 2
n = rotation.target_dim
fiber_plane = SubspaceBasis(2 * n, np.eye(n, 2 * n, n))
report = is_invariant_subspace(prolonged(rotation), fiber_plane, 100, seed=7)
print("fiber plane under the prolongation:", report.verdict.value)

# a line that is NOT invariant fails loudly, with a witness
bad = SubspaceBasis(2, [[1.0, 0.0]])
report = is_invariant_subspace(rotation, bad, 100, seed=7)
print("x-axis under rotations:", report.verdict.value,
      "witness:", report.witness)
