"""Tests for the site distribution and its summary statistics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mapwalk import observables
from mapwalk.coins import CoinSpec, coin_in_position_basis, coin_matrix
from mapwalk.walk import (WalkConfig, build_dense, build_momentum_blocks, momentum_to_site,
                          _apply_blocks)
from mapwalk.observables import (SiteDistribution, WalkTimeSeries,
                                 site_probabilities, msd, site_entropy,
                                 participation_ratio, run_time_series,
                                 trace_site_probabilities, _bundle_site_probs,
                                 _bundle_states)

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
def test_site_probabilities_matches_series(coin):
    # the series steps the light-cone window up to t = 9 and all 20 momenta from t = 10,
    # the oracle all 20 momenta from t = 0: equal to round-off, not bit for bit
    config = WalkConfig(L=20, coin=coin)
    blocks = build_momentum_blocks(config, coin_matrix(coin))
    series = run_time_series(config, 12, keep_distributions=True)
    for t in range(13):
        np.testing.assert_allclose(series.distributions[t].probs,
                                   site_probabilities(blocks, t).probs, rtol=0, atol=1e-13)


@pytest.mark.parametrize("coin", [CoinSpec("dft", 4), CoinSpec("harper", 4, g=2.0, phi=0.2),
                                  CoinSpec("baker", 4)])
def test_site_probabilities_matches_series_bit_for_bit(coin):
    # on the smallest ring, L = 2, the cone wraps at t = 0, and the t = 0 window put on the
    # ring and transformed is exactly the oracle's bundle of identities: from there the series
    # and the oracle take the same momentum steps and the same site transform
    config = WalkConfig(L=2, coin=coin)
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


def test_site_distribution_errors_name_the_time():
    with pytest.raises(ValueError, match=r"^distribution at time 7 sums to 0\.875, expected 1 "):
        SiteDistribution(L=4, probs=np.array([0.5, 0.25, 0.125, 0.0]), time=7)
    with pytest.raises(ValueError, match=r"^probs shape \(4,\) != \(3,\) at time 2$"):
        SiteDistribution(L=3, probs=np.full(4, 0.25), time=2)


@pytest.mark.parametrize("U", [[[1, 1], [0, 1]], np.eye(2) * 1.5, np.array([[1, 0], [0, 1j]]) * 0.999])
def test_run_time_series_rejects_a_non_unitary_coin_first(U, monkeypatch):
    # unchecked, the walk would step until a distribution summed to 1.5, naming neither U nor t
    monkeypatch.setattr(observables, "_apply_blocks", None)
    with pytest.raises(ValueError, match=r"^U: coin matrix not unitary \(defect "):
        run_time_series(WalkConfig(L=10, coin=CoinSpec("dft", 2)), 1, U=U)


def test_run_time_series_takes_a_unitary_coin_as_a_list():
    config = WalkConfig(L=10, coin=CoinSpec("dft", 2))
    U = coin_matrix(config.coin)
    listed = run_time_series(config, 6, U=U.tolist())
    assert np.array_equal(listed.msd, run_time_series(config, 6, U=U).msd)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 2, 3])
def test_site_distribution_rejects_non_finite_probabilities(bad, where):
    # every comparison with a NaN is false, so [nan, 0, 0, 1] passed a "< 0 or > 1" check
    probs = np.array([0.0, 0.0, 0.0, 1.0])
    probs[where] = bad
    with pytest.raises(ValueError, match=r"^probabilities must lie in \[0, 1\] at time 0$"):
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
# wide bundles, of M^2 >= 1024 columns per momentum
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


@pytest.mark.parametrize("M", [2, 32])
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


@pytest.mark.parametrize("M", [2, 8])
@pytest.mark.parametrize("L, t", [(3, 1), (9, 4), (101, 30), (128, 45)])
def test_window_probabilities_keep_each_site_apart_from_its_mirror(M, L, t):
    # a lopsided window: row j is the site -t + 2j, and the ring's other sites are exactly 0
    rng = np.random.default_rng(L + t)
    shape = (t + 1, M, M)
    window = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    window /= np.sqrt(np.sum(np.abs(window) ** 2) / M)
    probs = np.zeros(L)
    probs[np.arange(-t, t + 1, 2) % L] = (np.abs(window) ** 2).reshape(t + 1, -1).sum(axis=1) / M
    got = _bundle_site_probs(window, t=t, L=L)
    np.testing.assert_allclose(got, probs, rtol=0, atol=1e-15)
    assert np.count_nonzero(got) == t + 1


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


def coin_and_partition(kind, M, phi, partition):
    """The coin matrix of a drawn coin, or for the vertical partition its position-basis form."""
    spec = CoinSpec(kind, M, g=2.0 if kind == "harper" else 0.0, phi=phi)
    U = coin_matrix(spec)
    return spec, U if partition == "horizontal" else coin_in_position_basis(U, spec.resolved_phi)


@st.composite
def ring_and_horizon(draw):
    """A ring size L, prime, odd or even (2 and 3 among them), and a t_max just short of,
    at or past (L - 1)/2, the last time whose light cone 2t + 1 fits the ring."""
    L = draw(st.sampled_from([2, 3, 4, 9, 13, 16, 101, 128]))
    return L, max(1, (L - 1) // 2 + draw(st.integers(-2, 3)))


@settings(max_examples=40, deadline=None)
@given(case=ring_and_horizon(), kind=st.sampled_from(["dft", "harper", "baker"]),
       M=st.sampled_from([2, 4]), phi=st.sampled_from([None, 0.0, 0.3]),
       partition=st.sampled_from(["horizontal", "vertical"]))
@example(case=(2, 1), kind="dft", M=2, phi=None, partition="horizontal")  # wraps at once
@example(case=(3, 3), kind="harper", M=4, phi=0.3, partition="vertical")
@example(case=(101, 50), kind="baker", M=4, phi=None, partition="horizontal")  # window to t = 50
@example(case=(128, 66), kind="harper", M=2, phi=0.3, partition="vertical")  # wraps at t = 64
def test_window_series_matches_the_block_oracle(case, kind, M, phi, partition):
    L, t_max = case
    spec, U = coin_and_partition(kind, M, phi, partition)
    config = WalkConfig(L=L, coin=spec)
    series = run_time_series(config, t_max, keep_distributions=True, U=U)
    blocks = build_momentum_blocks(config, U)
    E = build_dense(config, U) if L <= 16 else None
    starts = np.eye(L * M, M, dtype=complex)  # the columns |0, b>, stepped by the dense E
    for t in range(t_max + 1):
        p = series.distributions[t].probs
        np.testing.assert_allclose(p, site_probabilities(blocks, t).probs, rtol=0, atol=1e-13)
        if E is not None:
            dense = (np.abs(starts) ** 2).reshape(L, -1).sum(axis=1) / M
            np.testing.assert_allclose(p, dense, rtol=0, atol=TOL)
            starts = E @ starts


@pytest.mark.parametrize("L, t_max", [(2, 3), (3, 3), (9, 8), (16, 3), (20, 12), (101, 30),
                                      (400, 30), (100003, 200)])
def test_series_steps_the_window_then_all_momenta(L, t_max, monkeypatch):
    # the step from t reads the t + 1 window rows while the cone 2t + 3 it reaches fits the
    # ring, and the L momenta from then on
    sectors = []

    def recorder(blocks, psi, **kwargs):
        sectors.append((blocks.L, psi.shape[0]))
        return _apply_blocks(blocks, psi, **kwargs)

    monkeypatch.setattr(observables, "_apply_blocks", recorder)
    run_time_series(WalkConfig(L=L, coin=CoinSpec("dft", 2)), t_max)
    assert sectors == [(L, t + 1 if 2 * t + 3 <= L else L) for t in range(t_max)]
