"""Tests for the site distribution and its summary statistics."""

import importlib.util
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mapwalk import observables
from mapwalk.classical import (CellMap, CellPartition, PhaseEnsemble, classical_msd_series,
                               phase_portrait)
from mapwalk.coins import CoinSpec, coin_in_position_basis, coin_matrix, twisted_dft
from mapwalk.walk import WalkConfig, build_dense, build_momentum_blocks, _apply_blocks
from mapwalk.observables import (SiteDistribution, WalkTimeSeries, msd, site_entropy,
                                 participation_ratio, run_time_series,
                                 trace_site_probabilities, _bundle_site_probs)
from oracles import block_stack, momentum_site_probs, momentum_to_site, site_probabilities

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


def test_site_probabilities_leaves_the_block_set_unchanged():
    # the oracle builds its stack afresh and caches nothing on the frozen set
    blocks = build_momentum_blocks(WalkConfig(L=9, coin=CoinSpec("dft", 4)),
                                   coin_matrix(CoinSpec("dft", 4)))
    site_probabilities(blocks, 3)
    assert sorted(vars(blocks)) == ["L", "coin"]


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


def test_backward_trace_form_is_the_mirrored_distribution():
    # (1/M) tr(P_l E^{-t} P_0 E^t) is the probability of going from l to 0, by translation
    # invariance p_{-l}(t); this coin's p_l(t) is not mirror symmetric, so the two differ
    spec = CoinSpec("dft", 4, phi=0.3)
    L, M, t = 9, 4, 4
    U = coin_in_position_basis(coin_matrix(spec), spec.resolved_phi)
    E = build_dense(WalkConfig(L=L, coin=spec), U)
    # the diagonal of E^{-t} P_0 E^t at (l, a) is sum_b |<0, b|E^t|l, a>|^2
    Et = np.linalg.matrix_power(E, t)
    backward = (np.abs(Et[:M]) ** 2).sum(axis=0).reshape(L, M).sum(axis=1) / M
    forward = trace_site_probabilities(E, L, M, t)
    np.testing.assert_allclose(backward, forward[-np.arange(L) % L], rtol=0, atol=TOL)
    assert np.max(np.abs(backward - forward)) > 0.01


def test_coin_basis_independence_of_distribution():
    # Averaging over any rotated orthonormal coin basis leaves p_l(t)
    # unchanged (trace invariance): start the columns from V instead of I.
    coin = CoinSpec("harper", 4, g=2.0, phi=0.2)
    L = 6
    blocks = build_momentum_blocks(WalkConfig(L=L, coin=coin), coin_matrix(coin))
    rng = np.random.default_rng(17)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    V, r = np.linalg.qr(z)
    V = V * np.exp(-1j * np.angle(np.diag(r)))[None, :]

    reference = site_probabilities(blocks, 8).probs
    psi = np.linalg.matrix_power(block_stack(blocks), 8) @ (V / np.sqrt(L))  # columns: starts
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
    # emitting with and without retained distributions must agree byte for byte: kept
    # distributions are rows of one matrix (odd L: rows off any 16-byte alignment), others
    # arrays of their own, and the dot products must not care
    for coin in (CoinSpec("dft", 2), CoinSpec("dft", 4), CoinSpec("harper", 4, g=2.0, phi=0.2)):
        for L, t_max in ((20, 15), (101, 60), (1000, 150), (9, 30)):
            config = WalkConfig(L=L, coin=coin)
            a = run_time_series(config, t_max)
            b = run_time_series(config, t_max, keep_distributions=True)
            for name in ("msd", "entropy", "pr"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (coin, L, name)


def test_kept_distributions_are_independent():
    series = run_time_series(WalkConfig(L=12, coin=CoinSpec("dft", 2)), 8, keep_distributions=True)
    before = [d.probs.copy() for d in series.distributions]
    series.distributions[3].probs[:] = 7.0
    for t, d in enumerate(series.distributions):
        assert d.L == 12 and d.time == t
        if t != 3:
            assert d.probs.tobytes() == before[t].tobytes(), t


def test_unkept_series_keeps_memory_of_order_L():
    # kept, the 201 x 100003 distributions take 161 MB; a series that keeps none holds
    # O(L + t_max*M^2): no (L, M) table of momentum phases, 102 MB at M = 64, L = 100000
    for coin, L, t_max in [(CoinSpec("dft", 2), 100003, 200),
                           (CoinSpec("harper", 64, g=2.0), 100000, 10)]:
        tracemalloc.start()
        try:
            run_time_series(WalkConfig(L=L, coin=coin), t_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, (coin, L, peak)


def _thp_always() -> bool:
    """Whether Linux backs every anonymous mapping with transparent huge pages."""
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled", encoding="ascii") as fh:
            return "[always]" in fh.read()
    except OSError:
        return False


@pytest.mark.skipif(importlib.util.find_spec("resource") is None, reason="needs getrusage")
@pytest.mark.skipif(_thp_always(), reason="huge pages keep the whole matrix resident")
def test_kept_series_is_resident_in_proportion_to_its_cone():
    # the 301 x 65536 kept rows span 158 MB, but a row's window writes at most 2t + 1 of its
    # sites, within a page or two at each end; only written pages become resident
    code = """if True:
        import resource, sys
        from mapwalk.coins import CoinSpec
        from mapwalk.observables import run_time_series
        from mapwalk.walk import WalkConfig
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        series = run_time_series(WalkConfig(L=65536, coin=CoinSpec("dft", 2)), 300,
                                 keep_distributions=True)
        grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        print(grown * (1 if sys.platform == "darwin" else 1024))  # macOS counts bytes
    """
    env = {**os.environ, "PYTHONPATH": str(Path(observables.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 32 * 2**20


def test_unkept_series_holds_one_row():
    # a series that keeps none scatters every step into one row and clears the window after the
    # statistics, so it never holds two rows; the first run fills the caches (squared distances)
    L = 2_000_000
    config = WalkConfig(L=L, coin=CoinSpec("dft", 2))
    run_time_series(config, 10)
    tracemalloc.start()
    try:
        run_time_series(config, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * L, peak


@pytest.mark.parametrize("L", [2, 3, 4, 7, 10, 1001, 2_000_000])
def test_squared_distances_build_one_table(L):
    # min(l, L - l)^2 bit for bit, built in the table itself; a build through integer
    # temporaries and a float copy would peak at three tables or more
    build = observables._squared_distances.__wrapped__  # the uncached build
    tracemalloc.start()
    try:
        d = build(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = np.minimum(np.arange(L), L - np.arange(L)).astype(float) ** 2
    assert d.tobytes() == want.tobytes() and not d.flags.writeable
    assert peak < 1.5 * 8 * L + 4096, peak / (8 * L)


@st.composite
def ring_and_time(draw):
    """A ring size L, odd or even, and a time t up to three wraps of the light cone."""
    L = draw(st.integers(2, 64))
    return L, draw(st.integers(0, 3 * L))


@settings(max_examples=200, deadline=None)
@given(case=ring_and_time(), M=st.sampled_from([2, 4]), seed=st.integers(0, 2**32 - 1))
@example(case=(7, 10), M=2, seed=0)  # the sites 4, 6 | 1, 3, 5 | 0, 2: it wraps twice
def test_window_scatter_equals_the_index_scatter(case, M, seed):
    L, t = case
    n = min(t + 1, L // math.gcd(L, 2))
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((n, M, M)) + 1j * rng.standard_normal((n, M, M))
    amps = psi.reshape(n, -1).view(np.float64)
    want = np.zeros(L)
    want[np.arange(-t, 2 * n - t, 2) % L] = np.einsum("ij,ij->i", amps, amps) / M
    got = _bundle_site_probs(psi, t=t, L=L, out=np.zeros(L))
    assert got.tobytes() == want.tobytes()
    for sites, _ in observables._window_slices(L, t, n):  # an unkept series' clear
        got[sites] = 0.0
    assert not got.any()


@st.composite
def spread_distributions(draw):
    """A normalized distribution on L sites: random weights, a random share of them zero."""
    L = draw(st.integers(2, 4096))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.random(L) ** draw(st.floats(0.1, 30.0))
    w[rng.random(L) < draw(st.floats(0.0, 0.99))] = 0.0
    w[draw(st.integers(0, L - 1))] += 1e-3  # never all zero
    return dist(w / w.sum())


def _fsum_statistics(d):
    """msd, entropy and PR summed exactly by math.fsum (the products are rounded)."""
    p = d.probs
    q = p[p > 1e-300].tolist()
    sq = np.minimum(np.arange(d.L), d.L - np.arange(d.L)).astype(float) ** 2
    return (math.fsum((p * sq).tolist()), -math.fsum(x * math.log(x) for x in q) / math.log(d.L),
            1.0 / (d.L * math.fsum((p * p).tolist())))


# fixed examples: 4 eps bounds the tail (the largest of 20,000 random draws was 3.6 eps)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(d=spread_distributions())
def test_statistics_agree_with_an_fsum_oracle(d):
    got = msd(d), site_entropy(d), participation_ratio(d)
    for name, g, want in zip(("msd", "entropy", "pr"), got, _fsum_statistics(d)):
        assert abs(g - want) <= 4 * np.finfo(float).eps * abs(want), (name, g, want)


@settings(max_examples=60, deadline=None)
@given(L=st.integers(2, 4096), data=st.data())
def test_statistics_of_a_delta_are_exact(L, data):
    site = data.draw(st.integers(0, L - 1))
    p = np.zeros(L)
    p[site] = 1.0
    d = dist(p)
    assert msd(d) == min(site, L - site) ** 2
    entropy = site_entropy(d)
    assert entropy == 0.0 and not np.signbit(entropy)
    assert participation_ratio(d) == 1 / L


@pytest.mark.parametrize("coin", [CoinSpec("dft", 4), CoinSpec("harper", 4, g=2.0, phi=0.2),
                                  CoinSpec("baker", 4)])
def test_site_probabilities_matches_series(coin):
    # the series steps the light-cone window, which wraps the ring at t = 0 for L = 2 and at
    # t = 10 for L = 20, the oracle all L momenta: equal to round-off, not bit for bit
    for L in (2, 20):
        config = WalkConfig(L=L, coin=coin)
        blocks = build_momentum_blocks(config, coin_matrix(coin))
        series = run_time_series(config, 12, keep_distributions=True)
        for t in range(13):
            np.testing.assert_allclose(series.distributions[t].probs,
                                       site_probabilities(blocks, t).probs, rtol=0, atol=1e-13)


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
    with pytest.raises(ValueError, match="^probs: must be a numpy array, got list$"):
        SiteDistribution(L=2, probs=[0.5, 0.5])


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
    with pytest.raises(ValueError, match=f"^t_max: must be >= 1, got {t_max}$"):
        run_time_series(WalkConfig(L=10, coin=CoinSpec("dft", 2)), t_max)


def _one_point(L):
    return PhaseEnsemble(cells=np.zeros(1, dtype=np.int64), q=np.zeros(1), p=np.zeros(1), L=L)


def _dft_blocks():
    return build_momentum_blocks(WalkConfig(L=10, coin=CoinSpec("dft", 2)),
                                 coin_matrix(CoinSpec("dft", 2)))


def _dft_dense():
    return build_dense(WalkConfig(L=10, coin=CoinSpec("dft", 2)), coin_matrix(CoinSpec("dft", 2)))


_SERIES = (CellMap("rotation"), CellPartition())
_HARPER = CellMap("harper", g=1.0)


@pytest.mark.parametrize("build, message", [
    (lambda: WalkConfig(L=10.5, coin=CoinSpec("dft", 2)), "L: must be an integer, got 10.5"),
    (lambda: CoinSpec("harper", 4.0), "M: must be an integer, got 4.0"),
    (lambda: _one_point(10.0), "L: must be an integer, got 10.0"),
    (lambda: run_time_series(WalkConfig(L=10, coin=CoinSpec("dft", 2)), 2.5),
     "t_max: must be an integer, got 2.5"),
    (lambda: classical_msd_series(*_SERIES, 10, 2.5, n_points=10),
     "t_max: must be an integer, got 2.5"),
    (lambda: classical_msd_series(*_SERIES, 10.0, 3, n_points=10),
     "L: must be an integer, got 10.0"),
    (lambda: phase_portrait(_HARPER, 2.5, 3), "n_trajectories: must be an integer, got 2.5"),
    (lambda: phase_portrait(_HARPER, 3, 2.5), "n_steps: must be an integer, got 2.5"),
    (lambda: site_probabilities(_dft_blocks(), 2.5), "t: must be an integer, got 2.5"),
    (lambda: trace_site_probabilities(_dft_dense(), 10, 2, 2.5), "t: must be an integer, got 2.5"),
    (lambda: twisted_dft(2.5, 0.0), "N: must be an integer, got 2.5"),
    (lambda: PhaseEnsemble.uniform_fill(4, 2.5), "n_points: must be an integer, got 2.5"),
    (lambda: PhaseEnsemble.uniform_fill(4, 10, seed=1.5), "seed: must be an integer, got 1.5"),
    (lambda: PhaseEnsemble.grid_fill(4, 2.0), "side: must be an integer, got 2.0"),
    (lambda: phase_portrait(_HARPER, 3, 3, seed=1.5), "seed: must be an integer, got 1.5"),
    (lambda: SiteDistribution(L=4.0, probs=np.full(4, 0.25)), "L: must be an integer, got 4.0"),
    (lambda: WalkConfig(L=1, coin=CoinSpec("dft", 2)), "L: must be >= 2, got 1"),
    (lambda: CoinSpec("harper", 0), "M: must be >= 2, got 0"),
    (lambda: _one_point(1), "L: must be >= 2, got 1"),
    (lambda: run_time_series(WalkConfig(L=10, coin=CoinSpec("dft", 2)), 0),
     "t_max: must be >= 1, got 0"),
    (lambda: classical_msd_series(*_SERIES, 10, 0, n_points=10), "t_max: must be >= 1, got 0"),
    (lambda: classical_msd_series(*_SERIES, 1, 3, n_points=10), "L: must be >= 2, got 1"),
    (lambda: phase_portrait(_HARPER, 0, 3), "n_trajectories: must be >= 1, got 0"),
    (lambda: phase_portrait(_HARPER, 3, 0), "n_steps: must be >= 1, got 0"),
    (lambda: site_probabilities(_dft_blocks(), -1), "t: must be >= 0, got -1"),
    (lambda: trace_site_probabilities(_dft_dense(), 10, 2, -1), "t: must be >= 0, got -1"),
    (lambda: twisted_dft(0, 0.0), "N: must be >= 1, got 0"),
    (lambda: PhaseEnsemble.uniform_fill(4, 0), "n_points: must be >= 1, got 0"),
    (lambda: PhaseEnsemble.uniform_fill(4, 10, seed=-1), "seed: must be >= 0, got -1"),
    (lambda: PhaseEnsemble.grid_fill(4, 0), "side: must be >= 1, got 0"),
    (lambda: PhaseEnsemble.grid_fill(4, -2), "side: must be >= 1, got -2"),
    (lambda: phase_portrait(_HARPER, 3, 3, seed=-1), "seed: must be >= 0, got -1"),
    (lambda: SiteDistribution(L=1, probs=np.array([1.0])), "L: must be >= 2, got 1"),
], ids=["WalkConfig.L", "CoinSpec.M", "PhaseEnsemble.L", "run_time_series.t_max",
        "classical_msd_series.t_max", "classical_msd_series.L", "phase_portrait.n_trajectories",
        "phase_portrait.n_steps", "site_probabilities.t", "trace_site_probabilities.t",
        "twisted_dft.N", "uniform_fill.n_points", "uniform_fill.seed", "grid_fill.side",
        "phase_portrait.seed", "SiteDistribution.L",
        "WalkConfig.L=1", "CoinSpec.M=0", "PhaseEnsemble.L=1", "run_time_series.t_max=0",
        "classical_msd_series.t_max=0", "classical_msd_series.L=1",
        "phase_portrait.n_trajectories=0", "phase_portrait.n_steps=0", "site_probabilities.t=-1",
        "trace_site_probabilities.t=-1", "twisted_dft.N=0", "uniform_fill.n_points=0",
        "uniform_fill.seed=-1", "grid_fill.side=0", "grid_fill.side=-2", "phase_portrait.seed=-1",
        "SiteDistribution.L=1"])
def test_sizes_must_be_integers(build, message):
    # a float L = 10.5 would step an 11-site ring under the block phases of a 10.5-site one;
    # every size, count and seed is checked by one rule with one text, the CLI's
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_numpy_integer_sizes_run_the_same_walk():
    config = WalkConfig(L=np.int64(10), coin=CoinSpec("harper", np.int32(4), g=2.0))
    series = run_time_series(config, np.int64(5))
    plain = run_time_series(WalkConfig(L=10, coin=CoinSpec("harper", 4, g=2.0)), 5)
    assert series.msd.tobytes() == plain.msd.tobytes()
    assert len(_one_point(np.int64(10))) == 1


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
    stack = block_stack(blocks)
    psi = np.linalg.matrix_power(stack, 0)
    for t in range(L // 2 + 3):  # psi is E_k^t: one product with the stack per step
        p = momentum_site_probs(psi, t=t, L=L)
        np.testing.assert_allclose(p, full_transform_probs(psi), rtol=0, atol=1e-14)
        assert np.all(p[outside[t]] == 0.0)
        psi = stack @ psi


@pytest.mark.parametrize("M", [2, 32])
@pytest.mark.parametrize("L, t", [(9, 2), (101, 30), (128, 45), (101, 60)])
def test_cone_transform_keeps_each_site_apart_from_its_mirror(M, L, t):
    # most coin-averaged walks are mirror symmetric, so a lopsided bundle tells l from -l;
    # this one is random on the sites -t..t (all of them once the cone wraps) and 0 elsewhere
    rng = np.random.default_rng(L + t)
    amps = np.zeros((L, M, M), dtype=complex)
    cone = np.arange(-t, t + 1) % L
    shape = (2 * t + 1, M, M)
    amps[cone] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2) / M)
    probs = (np.abs(amps) ** 2).reshape(L, -1).sum(axis=1) / M
    got = momentum_site_probs(np.fft.fft(amps, axis=0), t=t, L=L)
    np.testing.assert_allclose(got, probs, rtol=0, atol=1e-14)


@pytest.mark.parametrize("M", [2, 8])
@pytest.mark.parametrize("L, t", [(3, 1), (9, 4), (101, 30), (128, 45), (9, 20), (128, 300)])
def test_window_probabilities_keep_each_site_apart_from_its_mirror(M, L, t):
    # a lopsided window: row j is the site -t + 2j mod L, and the ring's other sites are exactly
    # 0; past the wrap the window has R = L // gcd(L, 2) rows
    rows = min(t + 1, L // math.gcd(L, 2))
    rng = np.random.default_rng(L + t)
    shape = (rows, M, M)
    window = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    window /= np.sqrt(np.sum(np.abs(window) ** 2) / M)
    probs = np.zeros(L)
    probs[(2 * np.arange(rows) - t) % L] = (np.abs(window) ** 2).reshape(rows, -1).sum(axis=1) / M
    got = _bundle_site_probs(window, t=t, L=L, out=np.zeros(L))
    np.testing.assert_allclose(got, probs, rtol=0, atol=1e-15)
    assert np.count_nonzero(got) == rows


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
    """A ring size L, prime, odd or even (2 and 3 among them), and a t_max: for L <= 16 past
    3L, several wraps of the light cone; for larger L just short of, at or past (L - 1)/2, the
    last time whose cone 2t + 1 fits the ring."""
    L = draw(st.sampled_from([2, 3, 4, 9, 13, 16, 101, 128]))
    return L, max(1, (3 * L if L <= 16 else (L - 1) // 2) + draw(st.integers(-2, 3)))


@settings(max_examples=40, deadline=None)
@given(case=ring_and_horizon(), kind=st.sampled_from(["dft", "harper", "baker"]),
       M=st.sampled_from([2, 4]), phi=st.sampled_from([None, 0.0, 0.3]),
       partition=st.sampled_from(["horizontal", "vertical"]))
@example(case=(2, 1), kind="dft", M=2, phi=None, partition="horizontal")  # wraps at once
@example(case=(3, 3), kind="harper", M=4, phi=0.3, partition="vertical")
@example(case=(16, 51), kind="dft", M=4, phi=0.3, partition="vertical")  # three wraps
@example(case=(13, 42), kind="baker", M=2, phi=None, partition="horizontal")
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


@pytest.mark.parametrize("L", [9, 13])
@pytest.mark.parametrize("kind, phi, partition", [("dft", None, "horizontal"),
                                                  ("baker", None, "horizontal"),
                                                  ("harper", 0.2, "vertical")])
def test_window_series_matches_the_block_oracle_after_many_wraps(kind, phi, partition, L):
    # hundreds of wraps of the light cone, where the hypothesis cases stop at 3L + 3
    spec, U = coin_and_partition(kind, 4, phi, partition)
    config = WalkConfig(L=L, coin=spec)
    series = run_time_series(config, 1000, keep_distributions=True, U=U)
    blocks = build_momentum_blocks(config, U)
    for t in (250, 500, 1000):
        np.testing.assert_allclose(series.distributions[t].probs,
                                   site_probabilities(blocks, t).probs, rtol=0, atol=1e-12)


@pytest.mark.parametrize("L, t_max", [(2, 3), (3, 3), (9, 8), (16, 3), (20, 12), (101, 30),
                                      (400, 30), (100003, 200)])
def test_series_steps_the_window_then_all_momenta(L, t_max, monkeypatch):
    # the step from t reads the t + 1 window rows until they fill the R = L // gcd(L, 2) sites
    # of the walk's parity on the ring, and all R of them from then on
    sectors = []

    def recorder(blocks, psi, **kwargs):
        sectors.append((blocks.L, psi.shape[0]))
        return _apply_blocks(blocks, psi, **kwargs)

    monkeypatch.setattr(observables, "_apply_blocks", recorder)
    run_time_series(WalkConfig(L=L, coin=CoinSpec("dft", 2)), t_max)
    assert sectors == [(L, min(t + 1, L // math.gcd(L, 2))) for t in range(t_max)]


@pytest.mark.parametrize("L", [9, 12, 20])
@pytest.mark.parametrize("coin", CONE_COINS + [CoinSpec("dft", 2)])
def test_series_is_exactly_zero_off_the_walks_sites(coin, L):
    # at time t the walk from site 0 is only on the sites -t + 2j mod L, which after the wrap
    # are those of the parity of t on an even ring: no round-off may leak onto the others
    series = run_time_series(WalkConfig(L=L, coin=coin), 3 * L + 1, keep_distributions=True)
    for t, d in enumerate(series.distributions):
        off = np.ones(L, dtype=bool)
        off[(2 * np.arange(L) - t) % L] = False
        assert np.all(d.probs[off] == 0.0), t
