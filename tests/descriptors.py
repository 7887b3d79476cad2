"""Generator descriptor documents shared by several test modules."""

import numpy as np


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


GENERATOR_DESCRIPTORS = {
    "so3_doubled": so3_doubled,
    "circle_winding": circle_winding,
    "sl2_conjugated": sl2_conjugated,
}
