"""Classical area-preserving maps on the unit torus cell.

These are the classical limits of the quantum coins: a quarter-turn
rotation (dft), the baker transformation, and the kicked Harper map.
Each ``*_map`` takes q and p as arrays or scalars and returns the image
pair; there are no separate scalar versions.  They back ``classical``.

None of the maps takes a boundary-phase argument: the phase
acts only on the quantum side, so its absence here is structural.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "rotation_map",
    "baker_map",
    "harper_map",
    "harper_inverse_map",
]


def _mod1(x):
    # x % 1.0 rounds to exactly 1.0 for tiny negative x; fold that back
    r = x % 1.0
    return np.where(r == 1.0, 0.0, r)


def rotation_map(q, p):
    """Rigid anti-clockwise quarter turn: (q, p) -> (1 - p, q) mod 1."""
    return (1.0 - p) % 1.0, q


def baker_map(q, p):
    """Baker transformation: stretch in q, stack in p.

    (2q, p/2) on the left half q < 1/2, else (2q - 1, (p+1)/2).
    """
    left = q < 0.5
    return np.where(left, 2.0 * q, 2.0 * q - 1.0), np.where(left, 0.5 * p, 0.5 * (p + 1.0))


def harper_map(q, p, g, tau=1.0):
    """Kicked Harper map: q' = q - tau sin(2 pi p), p' = p + tau g sin(2 pi q').

    Area preserving for every g; integrable at g = 0, essentially fully
    chaotic beyond g = 1 (at tau = 1).  Coordinates are kept reduced
    mod 1, so the trigonometric arguments never grow.
    """
    q_next = _mod1(q - tau * np.sin(2.0 * np.pi * p))
    p_next = _mod1(p + tau * g * np.sin(2.0 * np.pi * q_next))
    return q_next, p_next


def harper_inverse_map(q, p, g, tau=1.0):
    """Algebraic inverse of ``harper_map``: undo the kick, then the drift."""
    p_prev = _mod1(p - tau * g * np.sin(2.0 * np.pi * q))
    q_prev = _mod1(q + tau * np.sin(2.0 * np.pi * p_prev))
    return q_prev, p_prev
