"""
Direct sums, commutants, and reducibility probes
================================================

Prolongation commutes with direct sums once coordinates are interleaved:
prolonging rep1 + rep2 and conjugating by the permutation that sends
(p1, p2, v1, v2) to (p1, v1, p2, v2) gives exactly the direct sum of the
two prolongations.  Exactly, because permuting indices involves no
arithmetic.

The commutant (matrices commuting with every image) measures how far a
representation is from irreducible.  It is the nullspace of the
commutation constraints on the generator images d rho(B_i), which decide
it exactly on the identity component, so nothing is sampled.  The
reducibility probe reads irreducibility off a commutant that is the reals
or the complex numbers (Schur's lemma), and otherwise turns it into an
invariant subspace that every generator keeps.
"""

import numpy as np

from lieprolong import (
    catalog_entry,
    check_direct_sum_commutation,
    commutant_basis,
    direct_sum,
    interleave_permutation,
    prolong,
    prolonged,
    reducibility_probe,
    sample_tangent_element,
)

rotation = catalog_entry("circle_rotation").rep
winding = catalog_entry("circle_winding_2").rep

# the interleaving for two plane representations
perm = interleave_permutation(2, 2)
print("interleave (2, 2):", perm)

summed = direct_sum(rotation, winding)
X = sample_tangent_element(rotation.group, 9)
joint = prolong(summed, X).dense()[np.ix_(perm, perm)]
split_blocks = prolong(rotation, X).dense(), prolong(winding, X).dense()
split = np.zeros((8, 8))
split[:4, :4], split[4:, 4:] = split_blocks
print("shuffled joint == blockwise split:", np.array_equal(joint, split))

report = check_direct_sum_commutation(rotation, winding, 200, seed=9)
print("commutation check over 200 samples:", report.verdict.value,
      f"(max residual {report.max_residual:.1e})")

# commutant dimensions tell the splitting story
print()
for name in ["gl_identity(2)", "so3_standard", "circle_rotation",
             "circle_plus_trivial", "circle_double", "trivial(2)"]:
    rep = catalog_entry(name).rep
    print(f"commutant dim of {name}: {len(commutant_basis(rep))}")

# scalars or the complex numbers -> irreducible; a larger commutant is
# split into a verified invariant subspace; every prolongation splits
print()
for name in ["gl_identity(2)", "circle_double", "circle_rotation"]:
    rep = catalog_entry(name).rep
    base, lifted = reducibility_probe(rep), reducibility_probe(prolonged(rep))
    print(f"{name}: {base.witness['classification']}, prolonged: "
          f"{lifted.witness['classification']} "
          f"(invariant subspace of dimension {lifted.witness['subspace_dimension']})")
