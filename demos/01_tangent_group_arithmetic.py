"""
Tangent group arithmetic
========================

A tangent vector to a matrix group at the point a is stored as the pair
[a, B] with B in the Lie algebra (right trivialization).  These pairs
form a group, and embedding [a, B] as the block matrix [[a, 0], [B a, a]]
turns the group law into plain matrix multiplication.  This script walks
through the law, its inverse, and that embedding.
"""

import numpy as np

from lieprolong import (
    AlgebraElement,
    GroupElement,
    TangentGroupElement,
    general_linear,
    jn_embed,
    sample_tangent_element,
    special_orthogonal,
    tg_inverse,
    tg_multiply,
)

# 1x1 matrices first: the numbers stay readable.
spec = general_linear(1)
X = TangentGroupElement(GroupElement([[2.0]], spec), AlgebraElement([[3.0]], spec))
Y = TangentGroupElement(GroupElement([[5.0]], spec), AlgebraElement([[7.0]], spec))

Z = tg_multiply(X, Y)
print("base of X*Y:   ", Z.base.matrix)      # [[10]]  = 2 * 5
print("algebra of X*Y:", Z.algebra.matrix)   # [[10]]  = 3 + 2*7*(1/2)

W = tg_inverse(X)
print("base of X^-1:   ", W.base.matrix)     # [[0.5]]
print("algebra of X^-1:", W.algebra.matrix)  # [[-3]]

# The block embedding makes the same numbers appear as matrix products.
print()
print("embedded X:\n", jn_embed(X).dense())
print("embedded X*Y:\n", jn_embed(Z).dense())
print("product of embeddings:\n", jn_embed(X).dense() @ jn_embed(Y).dense())

# The same law holds inside any of the built-in groups.  Sampling is
# deterministic: a seed pins the element exactly.
so3 = special_orthogonal(3)
A = sample_tangent_element(so3, 1)
B = sample_tangent_element(so3, 2)
C = sample_tangent_element(so3, 3)

left = tg_multiply(tg_multiply(A, B), C)
right = tg_multiply(A, tg_multiply(B, C))
print()
print("associativity gap:",
      np.max(np.abs(left.base.matrix - right.base.matrix)),
      np.max(np.abs(left.algebra.matrix - right.algebra.matrix)))

unit = tg_multiply(A, tg_inverse(A))
print("X * X^-1 base gap from identity:",
      np.max(np.abs(unit.base.matrix - np.eye(3))))
print("X * X^-1 algebra magnitude:", np.max(np.abs(unit.algebra.matrix)))
