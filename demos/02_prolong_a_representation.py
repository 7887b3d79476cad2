"""
Prolonging a representation
===========================

A representation R = rep.apply(a) on R^n extends to the tangent bundle:
the tangent pair [a, B] maps to [[R, 0], [K R, R]] with K the derivative
of the representation in direction B.  The extended matrix acts on
(base point, fiber velocity) pairs.  An independent oracle recomputes
the same action by differentiating the curve t -> rep(exp(tB) a)(p + tv)
with a central difference, never touching the block formula.
"""

import numpy as np

from lieprolong import (
    AlgebraElement,
    TangentGroupElement,
    TangentVector,
    apply_prolonged,
    catalog_entry,
    check_action_oracle,
    circle,
    identity_element,
    prolong,
    sample_tangent_element,
    tangent_action_oracle,
)

rotation = catalog_entry("circle_rotation").rep

# Evaluate at the identity with unit fiber speed: the top block is the
# identity and the bottom-left block is the rotation generator.
generator = AlgebraElement([[0.0, 1.0], [-1.0, 0.0]], circle())
X = TangentGroupElement(identity_element(circle()), generator)
M = prolong(rotation, X)
print("R block:\n", M.top_left)
print("K R block:\n", M.bottom_left)

# Push the point (1, 0) with zero velocity through the action: the point
# stays put and picks up the rotational velocity (0, -1).
Y = TangentVector([1.0, 0.0], [0.0, 0.0])
out = apply_prolonged(M, Y)
print("mapped base: ", out.base)
print("mapped fiber:", out.fiber)

# Now a generic tangent pair, checked against the derivative oracle.
X = sample_tangent_element(circle(), 11)
Y = TangentVector([0.3, -0.7], [1.2, 0.4])

direct = apply_prolonged(prolong(rotation, X), Y)
oracle = tangent_action_oracle(rotation, X, Y)
print()
print("block formula:", direct.coordinates)
print("oracle:       ", oracle.coordinates)
print("gap:          ", np.max(np.abs(direct.coordinates - oracle.coordinates)))

# The two agree whenever the representation is a homomorphism whose images
# of exp(tB) are expm(t K): then the curve is expm(tK) R (p + tv), and its
# derivative at t = 0 is the block action.  The sampled check reads those
# two hypotheses instead of differencing, and reports the worse.
print("sampled oracle check:", check_action_oracle(rotation, 100, seed=11).verdict.value)

# The same machinery runs on any representation.  The angle-doubling map
# has an analytic derivative (twice the generator), so its blocks show
# the factor of two.
winding = catalog_entry("circle_winding_2").rep
M2 = prolong(winding, TangentGroupElement(identity_element(circle()), generator))
print()
print("angle-doubling K block:\n", M2.bottom_left)
