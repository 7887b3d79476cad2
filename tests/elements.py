"""Group elements and maps built by hand, shared by several test modules."""

import dataclasses
import math

import numpy as np

from lieprolong import GroupElement, Representation, catalog_entry, circle


def circle_element(theta: float) -> GroupElement:
    """The circle element at angle ``theta``: exp(theta * [[0, 1], [-1, 0]])."""
    c, s = math.cos(theta), math.sin(theta)
    return GroupElement(np.array([[c, s], [-s, c]]), circle())


def broken_circle_plus_trivial() -> Representation:
    """``circle_plus_trivial`` with ``d rho(B) + B_01 E_02`` for its
    differential and ``apply`` left whole: span(e_2) stays invariant under
    every image, but not under the broken ``d rho(B)``, which sends e_2 to
    ``B_01 e_0``."""
    rep = catalog_entry("circle_plus_trivial").rep

    def differential(B):
        out = np.array(rep.differential(B))
        out[..., 0, 2] = B.matrix[..., 0, 1]
        return out

    return dataclasses.replace(rep, differential=differential)
