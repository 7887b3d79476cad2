"""Group elements built by hand, shared by several test modules."""

import math

import numpy as np

from lieprolong import GroupElement, circle


def circle_element(theta: float) -> GroupElement:
    """The circle element at angle ``theta``: exp(theta * [[0, 1], [-1, 0]])."""
    c, s = math.cos(theta), math.sin(theta)
    return GroupElement(np.array([[c, s], [-s, c]]), circle())
