"""Generator descriptor documents shared by several test modules."""

import numpy as np

from lieprolong import AlgebraElement, GroupSpec, algebra_basis, algebra_coordinates


def so3_doubled() -> dict:
    """SO(3) acting on R^3 + R^3 through a fixed rotation of R^6."""
    rng = np.random.default_rng(1310)
    q, r = np.linalg.qr(rng.standard_normal((6, 6)))
    q = q * np.sign(np.diag(r))
    images = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        block = np.zeros((6, 6))
        block[i, j] = block[3 + i, 3 + j] = 1.0
        block[j, i] = block[3 + j, 3 + i] = -1.0
        images.append((q @ block @ q.T).tolist())
    return {
        "name": "so3_doubled",
        "group": {"kind": "SpecialOrthogonal", "dim": 3},
        "target_dim": 6,
        "map": {"kind": "generators", "generator_images": images},
    }


def circle_winding() -> dict:
    """The circle acting on the plane at twice the angle."""
    return {
        "name": "circle_winding",
        "group": {"kind": "Circle", "dim": 2},
        "target_dim": 2,
        "map": {"kind": "generators", "generator_images": [[[0.0, 2.0], [-2.0, 0.0]]]},
    }


def sl2_conjugated() -> dict:
    """SL(2) on the plane, conjugated by [[2, 1], [1, 1]]; exact images."""
    return {
        "name": "sl2_conjugated",
        "group": {"kind": "SpecialLinear", "dim": 2},
        "target_dim": 2,
        "map": {
            "kind": "generators",
            "generator_images": [
                [[-2.0, 4.0], [-1.0, 2.0]],
                [[1.0, -1.0], [1.0, -1.0]],
                [[3.0, -4.0], [2.0, -3.0]],
            ],
        },
    }


def gl3_units() -> dict:
    """GL(3) on R^3 with the matrix units E_ij as images: the identity map.

    Kept out of ``GENERATOR_DESCRIPTORS``: the frozen reference package
    takes GL(3) logarithms that depend on numpy's global random state.
    """
    images = []
    for i in range(3):
        for j in range(3):
            unit = np.zeros((3, 3))
            unit[i, j] = 1.0
            images.append(unit.tolist())
    return {
        "name": "gl3_units",
        "group": {"kind": "GeneralLinear", "dim": 3},
        "target_dim": 3,
        "map": {"kind": "generators", "generator_images": images},
    }


def determinant() -> dict:
    """det: GL(2) -> GL(1); its kernel is all of SL(2)."""
    return {
        "name": "determinant",
        "group": {"kind": "GeneralLinear", "dim": 2},
        "target_dim": 1,
        "map": {"kind": "generators", "generator_images": [[[1.0]], [[0.0]], [[0.0]], [[1.0]]]},
    }


def adjoint(kind: str, dim: int) -> dict:
    """The adjoint representation, in the canonical basis of the algebra.

    Its differential is injective on a semisimple algebra, and its kernel
    is the center of the group: -I for SL(2) and SO(4).
    """
    spec = GroupSpec(kind, dim)
    basis = algebra_basis(spec)
    images = []
    for b in basis:
        brackets = [algebra_coordinates(AlgebraElement(b @ c - c @ b, spec)) for c in basis]
        images.append(np.stack(brackets, axis=1).tolist())
    return {
        "name": f"adjoint_{kind}_{dim}",
        "group": {"kind": kind, "dim": dim},
        "target_dim": len(basis),
        "map": {"kind": "generators", "generator_images": images},
    }


def symmetric_power(n: int) -> dict:
    """SL(2) on binary forms of degree n, (g p)(v) = p(g^T v), in the
    monomial basis x^(n-b) y^b.  It sends -I to (-1)^n."""
    images = []
    for X in algebra_basis(GroupSpec("SpecialLinear", 2)):
        D = np.zeros((n + 1, n + 1))
        for b in range(n + 1):
            a = n - b
            D[b, b] = a * X[0, 0] + b * X[1, 1]
            if b < n:
                D[b + 1, b] = a * X[1, 0]
            if b > 0:
                D[b - 1, b] = b * X[0, 1]
        images.append(D.tolist())
    return {
        "name": f"symmetric_power_{n}",
        "group": {"kind": "SpecialLinear", "dim": 2},
        "target_dim": n + 1,
        "map": {"kind": "generators", "generator_images": images},
    }


def so3_repeated_image() -> dict:
    """SO(3) with images (L01, L01, L12): every loop closes, but the images
    do not keep the brackets of the basis."""
    units = [[[0, 1, 0], [-1, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 1], [0, -1, 0]]]
    return {
        "name": "so3_repeated_image",
        "group": {"kind": "SpecialOrthogonal", "dim": 3},
        "target_dim": 3,
        "map": {"kind": "generators", "generator_images": [units[0], units[0], units[1]]},
    }


def gl2_perturbed() -> dict:
    """GL(2) on the plane with the matrix units as images, E_00 scaled by
    1 + 1e-9: its brackets are off by 1e-9."""
    images = []
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2))
            unit[i, j] = 1.0
            images.append(unit.tolist())
    images[0][0][0] = 1.0 + 1e-9
    return {
        "name": "gl2_perturbed",
        "group": {"kind": "GeneralLinear", "dim": 2},
        "target_dim": 2,
        "map": {"kind": "generators", "generator_images": images},
    }


def gl3_dense_conjugated() -> dict:
    """GL(3) on R^3 conjugated by a dense float matrix: a representation
    whose images have entries up to about 7e2, so their products round."""
    P = np.random.default_rng(0).standard_normal((3, 3)) @ np.diag([1.0, 30.0, 900.0])
    P_inv = np.linalg.inv(P)
    images = [(P @ B @ P_inv).tolist() for B in algebra_basis(GroupSpec("GeneralLinear", 3))]
    return {
        "name": "gl3_dense_conjugated",
        "group": {"kind": "GeneralLinear", "dim": 3},
        "target_dim": 3,
        "map": {"kind": "generators", "generator_images": images},
    }


def so4_dense_conjugated() -> dict:
    """SO(4) on R^4 conjugated by N(0,1)^{4x4} diag(1, 10, 100, 1000): a
    representation whose images reach about 4e2, so exp(2 pi D) rounds."""
    P = np.random.default_rng(0).standard_normal((4, 4)) @ np.diag([1.0, 10.0, 100.0, 1000.0])
    P_inv = np.linalg.inv(P)
    images = [(P @ B @ P_inv).tolist() for B in algebra_basis(GroupSpec("SpecialOrthogonal", 4))]
    return {
        "name": "so4_dense_conjugated",
        "group": {"kind": "SpecialOrthogonal", "dim": 4},
        "target_dim": 4,
        "map": {"kind": "generators", "generator_images": images},
    }


def gl1_power(image) -> dict:
    """GL(1) on the line, a |-> exp(image * log a) = a^image: for a large
    image the exponential overflows away from the identity."""
    return {
        "name": "gl1_power",
        "group": {"kind": "GeneralLinear", "dim": 1},
        "target_dim": 1,
        "map": {"kind": "generators", "generator_images": [[[image]]]},
    }


def gl2_det_power(power: float) -> dict:
    """GL(2) on the plane, a |-> diag(det(a)^power, 1): diagonal images
    whose condition number det(a)^|power| nears 1e12 for a power near 14."""
    zero = [[0.0, 0.0], [0.0, 0.0]]
    scalar = [[power, 0.0], [0.0, 0.0]]
    return {
        "name": "gl2_det_power",
        "group": {"kind": "GeneralLinear", "dim": 2},
        "target_dim": 2,
        "map": {"kind": "generators", "generator_images": [scalar, zero, zero, scalar]},
    }


GENERATOR_DESCRIPTORS = {
    "so3_doubled": so3_doubled,
    "circle_winding": circle_winding,
    "sl2_conjugated": sl2_conjugated,
}
