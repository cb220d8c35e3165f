"""Tests for the site distribution and its summary statistics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mapwalk import observables
from mapwalk.coins import CoinSpec, coin_matrix
from mapwalk.walk import (WalkConfig, build_dense, build_momentum_blocks, momentum_to_site,
                          _apply_blocks)
from mapwalk.observables import (SiteDistribution, WalkTimeSeries,
                                 site_probabilities, msd, site_entropy,
                                 participation_ratio, run_time_series,
                                 trace_site_probabilities, _bundle_site_probs,
                                 _bundle_states, _cone_length, _ring_size)

TOL = 1e-10


def dist(probs, L=None, time=0):
    probs = np.asarray(probs, dtype=float)
    return SiteDistribution(L=L or len(probs), probs=probs, time=time)


def delta(L):
    p = np.zeros(L)
    p[0] = 1.0
    return dist(p)


# default coins at the parameters the walks are run with
RUN_COINS = [
    CoinSpec("dft", 4),
    CoinSpec("harper", 4, g=2.0, phi=0.2),
    CoinSpec("harper", 4, g=0.05),
    CoinSpec("baker", 4),
]


def test_site_probabilities_t0_is_delta():
    blocks = build_momentum_blocks(WalkConfig(L=10, coin=CoinSpec("dft", 2)),
                                   coin_matrix(CoinSpec("dft", 2)))
    d = site_probabilities(blocks, 0)
    assert abs(d.probs[0] - 1.0) < 1e-12
    assert np.all(np.abs(d.probs[1:]) < 1e-12)
    assert d.time == 0


def test_site_probabilities_hadamard_one_step():
    # Hand-derived from both coin starts: each puts weight 1/2 on sites 1
    # and L-1, so the coin average does too.
    blocks = build_momentum_blocks(WalkConfig(L=100, coin=CoinSpec("dft", 2)),
                                   coin_matrix(CoinSpec("dft", 2)))
    d = site_probabilities(blocks, 1)
    assert abs(d.probs[1] - 0.5) < 1e-12
    assert abs(d.probs[99] - 0.5) < 1e-12
    assert np.all(np.abs(np.delete(d.probs, [1, 99])) < 1e-12)


def test_site_probabilities_normalized_late_time():
    coin = CoinSpec("harper", 4, g=1.0)
    blocks = build_momentum_blocks(WalkConfig(L=100, coin=coin), coin_matrix(coin))
    d = site_probabilities(blocks, 40)
    assert abs(d.probs.sum() - 1.0) < TOL


@pytest.mark.parametrize("coin", RUN_COINS)
def test_trace_formula_matches_averaged_amplitudes(coin):
    config = WalkConfig(L=6, coin=coin)
    U = coin_matrix(coin)
    E = build_dense(config, U)
    blocks = build_momentum_blocks(config, U)
    for t in range(11):
        via_trace = trace_site_probabilities(E, 6, coin.M, t)
        via_amps = site_probabilities(blocks, t).probs
        assert np.max(np.abs(via_trace - via_amps)) < TOL


def test_coin_basis_independence_of_distribution():
    # Averaging over any rotated orthonormal coin basis leaves p_l(t)
    # unchanged (trace invariance): seed the bundle with V instead of I.
    coin = CoinSpec("harper", 4, g=2.0, phi=0.2)
    L = 6
    blocks = build_momentum_blocks(WalkConfig(L=L, coin=coin), coin_matrix(coin))
    rng = np.random.default_rng(17)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    V, r = np.linalg.qr(z)
    V = V * np.exp(-1j * np.angle(np.diag(r)))[None, :]

    reference = site_probabilities(blocks, 8).probs
    psi = np.broadcast_to(V.T / np.sqrt(L), (L, 4, 4)).copy()  # rows are the starts
    for _ in range(8):
        psi = _apply_blocks(blocks, psi)
    rotated = (np.abs(momentum_to_site(psi)) ** 2).sum(axis=(1, 2)) / 4
    np.testing.assert_allclose(rotated, reference, atol=TOL)


def test_msd_delta_is_zero():
    assert msd(delta(10)) == 0.0


def test_msd_nearest_neighbours():
    p = np.zeros(10)
    p[1] = p[9] = 0.5
    assert abs(msd(dist(p)) - 1.0) < 1e-15


def test_msd_uniform_l4():
    # cyclic distances on 4 sites are {0, 1, 2, 1}
    assert abs(msd(dist(np.full(4, 0.25))) - 1.5) < 1e-15


def test_entropy_delta_is_zero():
    assert site_entropy(delta(7)) == 0.0


def test_entropy_zero_is_positive_zero():
    # a canonical +0.0, so CSV and JSON print 0 rather than -0
    assert not np.signbit(site_entropy(delta(7)))
    series = run_time_series(WalkConfig(L=10, coin=CoinSpec("dft", 2)), 2)
    assert not np.any(np.signbit(series.entropy))


def test_entropy_uniform_is_one():
    assert abs(site_entropy(dist(np.full(8, 0.125))) - 1.0) < 1e-14


def test_entropy_two_site_half_half():
    p = np.zeros(100)
    p[0] = p[1] = 0.5
    expected = math.log(2) / math.log(100)
    assert abs(site_entropy(dist(p)) - expected) < 1e-14


def test_pr_delta():
    assert abs(participation_ratio(delta(16)) - 1 / 16) < 1e-15


def test_pr_uniform():
    assert abs(participation_ratio(dist(np.full(12, 1 / 12))) - 1.0) < 1e-12


def test_pr_two_site_half_half():
    p = np.zeros(100)
    p[0] = p[1] = 0.5
    assert abs(participation_ratio(dist(p)) - 0.02) < 1e-15


def test_series_msd_growth_and_lethargy():
    small = run_time_series(WalkConfig(L=100, coin=CoinSpec("dft", 2)), 40)
    large = run_time_series(WalkConfig(L=100, coin=CoinSpec("dft", 40)), 40)
    assert np.all(np.diff(small.msd[:11]) >= -1e-12)
    assert small.msd[40] > large.msd[40]


def test_series_harper_entropy_coalescence_once_chaotic():
    cfg = lambda g: WalkConfig(L=100, coin=CoinSpec("harper", 20, g=g))
    e1 = run_time_series(cfg(1.0), 40).entropy
    e2 = run_time_series(cfg(2.0), 40).entropy
    rel = np.abs(e1[20:41] - e2[20:41]) / e2[20:41]
    assert np.max(rel) < 0.15


def test_series_distributions_normalized_and_bounded():
    series = run_time_series(WalkConfig(L=50, coin=CoinSpec("baker", 4)), 30,
                             keep_distributions=True)
    L = 50
    for d in series.distributions:
        assert abs(d.probs.sum() - 1.0) < TOL
    assert np.all(series.entropy >= 0.0) and np.all(series.entropy <= 1.0)
    assert np.all(series.pr >= 1 / L - 1e-12) and np.all(series.pr <= 1.0 + 1e-12)
    bound = np.minimum(series.times, L // 2).astype(float) ** 2
    assert np.all(series.msd <= bound + 1e-9)


def test_series_shares_single_evolution_pass():
    # emitting with and without retained distributions must agree exactly
    config = WalkConfig(L=20, coin=CoinSpec("dft", 4))
    a = run_time_series(config, 15)
    b = run_time_series(config, 15, keep_distributions=True)
    np.testing.assert_array_equal(a.msd, b.msd)
    np.testing.assert_array_equal(a.entropy, b.entropy)
    np.testing.assert_array_equal(a.pr, b.pr)


@pytest.mark.parametrize("coin", [CoinSpec("dft", 4), CoinSpec("harper", 4, g=2.0, phi=0.2),
                                  CoinSpec("baker", 4)])
def test_site_probabilities_matches_series_bit_for_bit(coin):
    # both entry points step the same bundle generator
    config = WalkConfig(L=20, coin=coin)
    blocks = build_momentum_blocks(config, coin_matrix(coin))
    series = run_time_series(config, 12, keep_distributions=True)
    for t in range(13):
        assert np.array_equal(site_probabilities(blocks, t).probs,
                              series.distributions[t].probs), t


def test_series_bit_stable_across_runs():
    config = WalkConfig(L=30, coin=CoinSpec("harper", 6, g=1.0, phi=0.2))
    a = run_time_series(config, 25)
    b = run_time_series(config, 25)
    assert np.array_equal(a.msd, b.msd)
    assert np.array_equal(a.entropy, b.entropy)
    assert np.array_equal(a.pr, b.pr)


def test_site_distribution_validation():
    with pytest.raises(ValueError):
        SiteDistribution(L=4, probs=np.array([0.5, 0.2, 0.1, 0.1]))
    with pytest.raises(ValueError):
        SiteDistribution(L=3, probs=np.full(4, 0.25))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 2, 3])
def test_site_distribution_rejects_non_finite_probabilities(bad, where):
    # every comparison with a NaN is false, so [nan, 0, 0, 1] passed a "< 0 or > 1" check
    probs = np.array([0.0, 0.0, 0.0, 1.0])
    probs[where] = bad
    with pytest.raises(ValueError, match=r"^probabilities must lie in \[0, 1\]$"):
        SiteDistribution(L=4, probs=probs)


def test_time_series_validation():
    with pytest.raises(ValueError):
        WalkTimeSeries(times=np.arange(3), msd=np.zeros(2),
                       entropy=np.zeros(3), pr=np.ones(3))


def test_run_time_series_rejects_bad_tmax():
    with pytest.raises(ValueError):
        run_time_series(WalkConfig(L=10, coin=CoinSpec("dft", 2)), 0)


@pytest.mark.parametrize("t_max", [-1, -3])
def test_run_time_series_rejects_negative_tmax_before_folding(t_max, monkeypatch):
    # the fold of a negative horizon would be a negative "divisor"; nothing is built first
    monkeypatch.setattr(observables, "build_momentum_blocks", None)
    with pytest.raises(ValueError, match=f"^t_max must be >= 1, got {t_max}$"):
        run_time_series(WalkConfig(L=10, coin=CoinSpec("dft", 2)), t_max)


def test_site_probabilities_rejects_negative_time():
    blocks = build_momentum_blocks(WalkConfig(L=10, coin=CoinSpec("dft", 2)),
                                   coin_matrix(CoinSpec("dft", 2)))
    with pytest.raises(ValueError):
        site_probabilities(blocks, -1)


def full_transform_probs(psi):
    """Oracle: all L momenta inverse-transformed, |.|^2 summed over the coin indices."""
    L, M = psi.shape[:2]
    return (np.abs(np.fft.ifft(psi, axis=0)) ** 2).reshape(L, -1).sum(axis=1) / M


CONE_COINS = [CoinSpec("dft", 4), CoinSpec("harper", 4, g=2.0, phi=0.2), CoinSpec("baker", 4)]
# M^2 >= observables._PRODUCT_MIN_COLUMNS (dft M=32 is on it): the cone is one product up to
# 2t + 1 = 97, then FFTs
WIDE_CASES = [(CoinSpec("harper", 40, g=2.0, phi=0.2), L) for L in (9, 101, 128)] + [
    (CoinSpec("dft", 32), L) for L in (9, 101)]
CONE_CASES = ([pytest.param(c, L, id=f"{c.kind}-{L}") for c in CONE_COINS
               for L in (2, 3, 9, 101, 400, 512)]
              + [pytest.param(c, L, id=f"{c.kind}{c.M}-{L}") for c, L in WIDE_CASES])


@pytest.mark.parametrize("coin, L", CONE_CASES)
def test_light_cone_transform_matches_full_transform(coin, L):
    # t runs from 0 to past the step where the cone wraps the ring
    blocks = build_momentum_blocks(WalkConfig(L=L, coin=coin), coin_matrix(coin))
    sites = np.arange(L)
    outside = np.minimum(sites, L - sites)[None, :] > np.arange(L // 2 + 3)[:, None]
    for t, psi in zip(range(L // 2 + 3), _bundle_states(blocks)):
        p = _bundle_site_probs(psi, t=t, L=L)
        np.testing.assert_allclose(p, full_transform_probs(psi), rtol=0, atol=1e-14)
        assert np.all(p[outside[t]] == 0.0)


@pytest.mark.parametrize("M", [2, 32])  # the FFT, then (up to 2t + 1 = 97) the product
@pytest.mark.parametrize("L, t", [(9, 2), (101, 30), (128, 45), (101, 60)])
def test_cone_transform_keeps_each_site_apart_from_its_mirror(M, L, t):
    # coin-averaged walks are mirror symmetric, so only a lopsided bundle tells l from -l;
    # this one is random on the sites -t..t (all of them once the cone wraps) and 0 elsewhere
    rng = np.random.default_rng(L + t)
    amps = np.zeros((L, M, M), dtype=complex)
    cone = np.arange(-t, t + 1) % L
    shape = (2 * t + 1, M, M)
    amps[cone] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2) / M)
    probs = (np.abs(amps) ** 2).reshape(L, -1).sum(axis=1) / M
    got = _bundle_site_probs(np.fft.fft(amps, axis=0), t=t, L=L)
    np.testing.assert_allclose(got, probs, rtol=0, atol=1e-14)


@pytest.mark.parametrize("L", [2, 3, 12, 101, 400, 100003, 720720])
def test_cone_length_is_the_smallest_divisor_covering_the_cone(L):
    # every t on the small rings; on the large ones (a prime, and 720720 with 240 divisors)
    # the t whose cone 2t + 1 falls just below, on or just above a divisor, and a spread
    divisors = [d for d in range(1, L + 1) if L % d == 0]
    ts = range(L) if L <= 400 else {t for d in divisors for t in (d // 2 - 1, d // 2, d // 2 + 1)
                                    if 0 <= t < L} | set(range(0, L, L // 97))
    for t in ts:
        assert _cone_length(L, t) == min(d for d in divisors if d >= min(2 * t + 1, L))


@pytest.mark.parametrize("L", [2, 7, 20, 400])
@pytest.mark.parametrize("coin", RUN_COINS)
def test_series_t0_is_exact(coin, L):
    series = run_time_series(WalkConfig(L=L, coin=coin), 1, keep_distributions=True)
    assert np.array_equal(series.distributions[0].probs, np.eye(L)[0])
    assert (series.msd[0], series.entropy[0], series.pr[0]) == (0.0, 0.0, 1 / L)


def test_series_entropy_never_negative():
    # the run_dft.json walk, continued past the wrap of the ring
    series = run_time_series(WalkConfig(L=20, coin=CoinSpec("dft", 2)), 40)
    assert np.all(series.entropy >= 0.0)


def is_3_smooth(n):
    while n % 2 == 0:
        n //= 2
    while n % 3 == 0:
        n //= 3
    return n == 1


@st.composite
def ring_and_horizon(draw):
    """A ring size L and a t_max whose cone 2 t_max + 1 is just below, on or just above a
    3-smooth ring size or L itself: prime L, powers of two and L with many divisors."""
    L = draw(st.sampled_from([13, 101, 16, 64, 128, 400, 360]))
    n = draw(st.sampled_from([n for n in range(3, min(L, 121) + 1) if is_3_smooth(n) or n == L]))
    return L, max(1, (n - 1) // 2 + draw(st.integers(-1, 1)))


@settings(max_examples=40, deadline=None)
@given(case=ring_and_horizon(), coin=st.sampled_from(CONE_COINS))
@example(case=(400, 30), coin=CONE_COINS[1])  # the ring is 64; at t = 12 the cone needs 32 momenta
@example(case=(101, 30), coin=CONE_COINS[0])  # 64 sites, no divisor of 101
@example(case=(400, 31), coin=CONE_COINS[2])  # the cone is 63: still 64
@example(case=(400, 32), coin=CONE_COINS[1])  # one step more: 65 needs 72
@example(case=(101, 50), coin=CONE_COINS[1])  # the next 3-smooth ring, 108, is past L: all 101
def test_folded_series_matches_the_unfolded_ring(case, coin):
    L, t_max = case
    config, U = WalkConfig(L=L, coin=coin), coin_matrix(coin)
    series = run_time_series(config, t_max, keep_distributions=True, U=U)
    blocks = build_momentum_blocks(config, U)
    for t in range(t_max + 1):
        np.testing.assert_allclose(series.distributions[t].probs,
                                   site_probabilities(blocks, t).probs, rtol=0, atol=1e-13)


@pytest.mark.parametrize("L, t_max, stepped", [(400, 30, 64), (16, 3, 8), (101, 30, 64),
                                               (20, 12, 20), (100003, 200, 432)])
def test_series_steps_only_the_cone_ring(L, t_max, stepped, monkeypatch):
    sectors = []

    def recorder(blocks, psi):
        sectors.append((blocks.L, psi.shape[0]))
        return _apply_blocks(blocks, psi)

    monkeypatch.setattr(observables, "_apply_blocks", recorder)
    run_time_series(WalkConfig(L=L, coin=CoinSpec("dft", 2)), t_max)
    assert _ring_size(L, t_max) == stepped
    assert sectors == [(stepped, stepped)] * t_max


def test_ring_size_is_the_smallest_3_smooth_ring_holding_the_cone():
    smooth = [n for n in range(1, 20000) if is_3_smooth(n)]
    for t_max in range(1, 5000):
        n = min(s for s in smooth if s >= 2 * t_max + 1)
        assert _ring_size(10**9, t_max) == n
        # where that is not below L, the L-ring itself
        assert _ring_size(n, t_max) == _ring_size(n - 1, t_max) + 1 == n
        assert _ring_size(2 * t_max + 1, t_max) == 2 * t_max + 1
