"""Tests for the classical single-cell torus maps."""

import inspect

import numpy as np
import pytest

from mapwalk import cellmaps
from mapwalk.cellmaps import rotation_map, baker_map, harper_map, harper_inverse_map


def wrap_dist(a, b):
    """Distance on the circle, wrap-aware."""
    return np.abs(((a - b + 0.5) % 1.0) - 0.5)


def image(cell_map, q, p, *args):
    """Image of the single point (q, p) under a vectorized map, as floats."""
    return tuple(float(x) for x in cell_map(q, p, *args))


@pytest.mark.parametrize("g", [0.0, 0.3, 1.0, 3.7])
def test_harper_fixed_point_at_half_quarter(g):
    # sin(2 pi * 1/4) = 1 shifts q by a full period; sin(2 pi * 1/2) = 0.
    # The residual g * sin(fl(pi)) ~ 1e-16 is unavoidable in floats.
    q, p = image(harper_map, 0.5, 0.25, g, 1.0)
    assert wrap_dist(q, 0.5) < 1e-14
    assert wrap_dist(p, 0.25) < 1e-14


def test_harper_g0_p0_is_fixed():
    for q in (0.0, 0.123, 0.9):
        assert image(harper_map, q, 0.0, 0.0, 1.0) == (q, 0.0)


def test_harper_step_then_inverse_hand_case():
    # g=0: step keeps p=0 and q unchanged (sin 0 = 0), inverse undoes both legs.
    stepped = image(harper_map, 0.3, 0.0, 0.0, 1.0)
    assert stepped == (0.3, 0.0)
    back = image(harper_inverse_map, *stepped, 0.0, 1.0)
    assert back == (0.3, 0.0)


@pytest.mark.parametrize("g", [0.01, 0.05, 0.1, 1.0, 2.0])
def test_harper_inverse_round_trip_1000_points(g):
    rng = np.random.default_rng(901)
    q, p = rng.random(1000), rng.random(1000)
    q2, p2 = harper_map(q, p, g, 1.0)
    qb, pb = harper_inverse_map(q2, p2, g, 1.0)
    assert wrap_dist(qb, q).max() < 1e-12
    assert wrap_dist(pb, p).max() < 1e-12


def test_harper_inverse_fixed_point():
    q, p = image(harper_inverse_map, 0.5, 0.25, 1.0, 1.0)
    assert wrap_dist(q, 0.5) < 1e-14
    assert wrap_dist(p, 0.25) < 1e-14


def test_baker_branches():
    assert image(baker_map, 0.25, 0.5) == (0.5, 0.25)
    assert image(baker_map, 0.75, 0.0) == (0.5, 0.5)


def test_baker_measure_preservation_monte_carlo():
    rng = np.random.default_rng(77)
    q, p = rng.random(10**6), rng.random(10**6)
    q2, _ = baker_map(q, p)
    frac = float(np.mean(q2 < 0.5))
    assert abs(frac - 0.5) < 0.002


def test_rotation_quarter_turn():
    assert image(rotation_map, 0.25, 0.25) == (0.75, 0.25)


def test_rotation_period_four_exact():
    # rng doubles are multiples of 2^-53, for which 1 - x is exact, so the
    # fourfold composition returns bit-identical coordinates.
    rng = np.random.default_rng(5)
    q0, p0 = rng.random(5000), rng.random(5000)
    q, p = q0, p0
    for _ in range(4):
        q, p = rotation_map(q, p)
    assert np.array_equal(q, q0)
    assert np.array_equal(p, p0)


def test_rotation_origin_wraps_to_origin():
    assert image(rotation_map, 0.0, 0.0) == (0.0, 0.0)


@pytest.mark.parametrize("g", [0.05, 1.0, 2.0])
def test_harper_jacobian_determinant_is_one(g):
    # Centered finite differences with wrap-aware deltas; area preservation
    # gives det = 1 everywhere.
    h = 1e-6
    rng = np.random.default_rng(13)
    q, p = rng.random(300), rng.random(300)

    def wrap_delta(a, b):
        return ((a - b + 0.5) % 1.0) - 0.5

    qp, pp = harper_map(q + h, p, g, 1.0)
    qm, pm = harper_map(q - h, p, g, 1.0)
    dq_dq = wrap_delta(qp, qm) / (2 * h)
    dp_dq = wrap_delta(pp, pm) / (2 * h)
    qp, pp = harper_map(q, p + h, g, 1.0)
    qm, pm = harper_map(q, p - h, g, 1.0)
    dq_dp = wrap_delta(qp, qm) / (2 * h)
    dp_dp = wrap_delta(pp, pm) / (2 * h)
    det = dq_dq * dp_dp - dq_dp * dp_dq
    assert np.max(np.abs(det - 1.0)) < 1e-6


def test_classical_steps_have_no_phase_argument():
    # The boundary phase is quantum-only; its absence here is structural.
    assert cellmaps.__all__
    for name in cellmaps.__all__:
        assert "phi" not in inspect.signature(getattr(cellmaps, name)).parameters, name


def test_results_stay_on_torus():
    rng = np.random.default_rng(99)
    q, p = rng.random(1000), rng.random(1000)
    for _ in range(50):
        q, p = harper_map(q, p, 2.0, 1.0)
        assert np.all((0.0 <= q) & (q < 1.0))
        assert np.all((0.0 <= p) & (p < 1.0))
