"""Acceptance suite: one test per criterion, printed pass line included.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time

import numpy as np

from mapwalk import cellmaps, classical
from mapwalk.coins import CoinSpec, coin_in_position_basis, coin_matrix, unitarity_defect
from mapwalk.walk import WalkConfig, build_dense, build_momentum_blocks
from mapwalk.observables import run_time_series, trace_site_probabilities
from oracles import momentum_to_site, site_probabilities
from mapwalk.classical import (CellMap, CellPartition, PhaseEnsemble,
                               classical_counterpart, multi_map_step,
                               classical_site_distribution, phase_portrait,
                               classical_msd_series)

import inspect

TOL = 1e-10

M_GRID = (2, 4, 10, 20, 40, 64)
G_GRID = (0.0, 0.05, 1.0, 2.0)
PHI_GRID = (0.0, 0.2, 0.5)

#: distributions retained by the criteria, re-checked by criterion 11
EMITTED = []


def _register(series):
    if series.distributions is not None:
        EMITTED.extend(series.distributions)
    return series


def _coin_specs(M, g, phi):
    return [CoinSpec("dft", M, g=g, tau=1.0, phi=phi),
            CoinSpec("harper", M, g=g, tau=1.0, phi=phi),
            CoinSpec("baker", M, g=g, tau=1.0, phi=phi)]


def _passed(num, slug):
    print(f"ACCEPTANCE {num:02d} {slug}: PASS")


def _forward_dense_probs(E, L, M, t):
    psi = np.zeros((L * M, M), dtype=complex)
    psi[np.arange(M), np.arange(M)] = 1.0
    for _ in range(t):
        psi = E @ psi
    return (np.abs(psi) ** 2).reshape(L, M, M).sum(axis=(1, 2)) / M


def test_criterion_01_unitarity_suite():
    start = time.perf_counter()
    for M in M_GRID:
        for g in G_GRID:
            for phi in PHI_GRID:
                for spec in _coin_specs(M, g, phi):
                    assert unitarity_defect(coin_matrix(spec)) < TOL, spec
    # the walk operator itself, on (L, M) = (10, 4)
    for g in G_GRID:
        for phi in PHI_GRID:
            for spec in _coin_specs(4, g, phi):
                E = build_dense(WalkConfig(L=10, coin=spec), coin_matrix(spec))
                assert np.max(np.abs(E.conj().T @ E - np.eye(40))) < TOL, spec
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"unitarity suite took {elapsed:.1f}s"
    _passed(1, "unitarity-suite")


def test_criterion_02_block_vs_dense_oracle():
    start = time.perf_counter()
    coins = [CoinSpec("dft", 4), CoinSpec("harper", 4, g=2.0, phi=0.2),
             CoinSpec("harper", 4, g=0.05), CoinSpec("baker", 4),
             CoinSpec("dft", 2), CoinSpec("harper", 2, g=2.0, phi=0.2),
             CoinSpec("baker", 2)]
    for coin in coins:
        for L in (6, 8):
            config = WalkConfig(L=L, coin=coin)
            U = coin_matrix(coin)
            E = build_dense(config, U)
            blocks = build_momentum_blocks(config, U)
            for t in range(21):
                dense_p = _forward_dense_probs(E, L, coin.M, t)
                block_p = site_probabilities(blocks, t).probs
                assert np.max(np.abs(dense_p - block_p)) < TOL, (coin, L, t)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s"
    _passed(2, "block-vs-dense-oracle")


def test_criterion_03_trace_formula_equivalence():
    # the vertical-partition DFT coin with phi != 0 has no mirror-symmetric p_l(t), so it tells
    # the forward trace form from its mirror image
    vertical = CoinSpec("dft", 4, phi=0.3)
    for coin, U in [*((c, coin_matrix(c)) for c in [
            CoinSpec("dft", 4), CoinSpec("harper", 4, g=2.0, phi=0.2),
            CoinSpec("harper", 4, g=1.0), CoinSpec("baker", 4)]),
            (vertical, coin_in_position_basis(coin_matrix(vertical), vertical.resolved_phi))]:
        config = WalkConfig(L=6, coin=coin)
        E = build_dense(config, U)
        blocks = build_momentum_blocks(config, U)
        for t in range(11):
            via_trace = trace_site_probabilities(E, 6, 4, t)
            via_amplitudes = site_probabilities(blocks, t).probs
            assert np.max(np.abs(via_trace - via_amplitudes)) < TOL, (coin, t)
    _passed(3, "trace-formula-equivalence")


def test_criterion_04_hadamard_quadratic_diffusion():
    start = time.perf_counter()
    series = _register(run_time_series(WalkConfig(L=100, coin=CoinSpec("dft", 2)),
                                       40, keep_distributions=True))
    ts = series.times[10:41].astype(float)
    exponent = np.polyfit(np.log(ts), np.log(series.msd[10:41]), 1)[0]
    assert 1.85 <= exponent <= 2.05, f"msd exponent {exponent:.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"quadratic-law run took {elapsed:.1f}s"
    _passed(4, "hadamard-quadratic-law")


def test_criterion_05_fourier_lethargy_and_period_four():
    series = {M: _register(run_time_series(WalkConfig(L=100, coin=CoinSpec("dft", M)),
                                           40, keep_distributions=True))
              for M in (2, 10, 40)}
    pr40 = {M: s.pr[40] for M, s in series.items()}
    assert pr40[2] > pr40[10] > pr40[40], pr40

    msd40 = series[40].msd
    # local maxima of the oscillatory early stretch sit at t = 2 mod 4
    for t in (2, 6, 10, 14):
        assert msd40[t] > msd40[t - 1] and msd40[t] >= msd40[t + 1], t
    # second differencing removes the smooth growth; the autocorrelation of
    # what remains peaks at lag 4
    osc = np.diff(msd40, 2)
    osc = osc - osc.mean()
    ac = np.correlate(osc, osc, mode="full")[len(osc) - 1:]
    ac /= ac[0]
    assert int(np.argmax(ac[1:7])) + 1 == 4, ac[1:7]
    _passed(5, "fourier-lethargy-period-4")


def test_criterion_06_rotation_four_step_return():
    ens0 = PhaseEnsemble.uniform_fill(L=25, n_points=100_000, seed=20260809)
    ens = ens0
    for _ in range(4):
        ens = multi_map_step(ens, CellMap("rotation"), CellPartition())
    assert np.array_equal(ens.cells, ens0.cells)
    assert np.array_equal(ens.q, ens0.q)
    assert np.array_equal(ens.p, ens0.p)
    _passed(6, "rotation-period-4-return")


def _binomial_tv(ens, t):
    disp = ((ens.cells + ens.L // 2) % ens.L) - ens.L // 2
    tv = 0.0
    counts = {d: float(np.mean(disp == d)) for d in range(-t, t + 1)}
    for j in range(t + 1):
        d = 2 * j - t
        exact = math.comb(t, j) / 2**t
        tv += abs(counts.pop(d, 0.0) - exact)
    tv += sum(abs(v) for v in counts.values())
    return 0.5 * tv


def test_criterion_07_multibaker_is_bernoulli_walk():
    ens = PhaseEnsemble.uniform_fill(L=101, n_points=10**6, seed=424242)
    for _ in range(10):
        ens = multi_map_step(ens, CellMap("baker"), CellPartition())
    EMITTED.append(classical_site_distribution(ens))
    tv_random = _binomial_tv(ens, 10)
    assert tv_random < 0.01, tv_random

    grid = PhaseEnsemble.grid_fill(L=101, side=1024)
    for _ in range(10):
        grid = multi_map_step(grid, CellMap("baker"), CellPartition())
    EMITTED.append(classical_site_distribution(grid))
    tv_grid = _binomial_tv(grid, 10)
    assert tv_grid == 0.0, tv_grid
    _passed(7, "multibaker-bernoulli")


def test_criterion_08_coin_chaos_effect():
    series = {g: _register(run_time_series(
        WalkConfig(L=100, coin=CoinSpec("harper", 20, g=g)), 40,
        keep_distributions=True)) for g in (0.05, 1.0, 2.0)}
    assert series[2.0].entropy[40] > series[0.05].entropy[40]
    assert series[2.0].pr[40] > series[0.05].pr[40]
    assert series[0.05].msd[40] > series[2.0].msd[40]
    rel = (np.abs(series[1.0].entropy[20:41] - series[2.0].entropy[20:41])
           / series[2.0].entropy[20:41])
    assert np.max(rel) < 0.15, np.max(rel)
    _passed(8, "coin-chaos-effect")


def test_criterion_09_tr_breaking_slows_chaotic_walk():
    start = time.perf_counter()
    series = {}
    for g in (2.0, 0.05):
        for phi in (0.0, 0.2):
            config = WalkConfig(L=100, coin=CoinSpec("harper", 40, g=g, phi=phi))
            series[(g, phi)] = _register(run_time_series(config, 40,
                                                         keep_distributions=True))
    assert series[(2.0, 0.2)].entropy[40] < series[(2.0, 0.0)].entropy[40]
    assert series[(2.0, 0.2)].msd[40] < series[(2.0, 0.0)].msd[40]
    # near-integrable case: breaking the phase has practically no effect;
    # at t=0 both entropies vanish (to fft dust), afterwards compare pointwise
    e_sym = series[(0.05, 0.0)].entropy
    e_brk = series[(0.05, 0.2)].entropy
    assert e_sym[0] < 1e-15 and e_brk[0] < 1e-15
    rel = np.abs(e_sym[1:41] - e_brk[1:41]) / e_sym[1:41]
    assert np.max(rel) < 0.10, np.max(rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"TR-breaking suite took {elapsed:.1f}s"
    _passed(9, "tr-breaking-suppression")


def test_criterion_10_classical_phase_independence():
    # structural: no public classical callable accepts a boundary phase
    public = [getattr(mod, name) for mod in (cellmaps, classical) for name in mod.__all__]
    assert len(public) == len(cellmaps.__all__) + len(classical.__all__) > 10
    for fn in public:
        assert callable(fn), fn
        assert "phi" not in inspect.signature(fn).parameters, fn
    assert "phi" not in CellMap.__dataclass_fields__

    # behavioural: identical classical series for either quantum phase
    sym = classical_counterpart(CoinSpec("harper", 40, g=2.0, phi=0.0))
    brk = classical_counterpart(CoinSpec("harper", 40, g=2.0, phi=0.2))
    assert sym == brk
    a = classical_msd_series(sym, CellPartition(), L=41, t_max=15,
                             n_points=30_000, seed=6)
    b = classical_msd_series(brk, CellPartition(), L=41, t_max=15,
                             n_points=30_000, seed=6)
    assert np.array_equal(a.msd, b.msd)
    assert np.array_equal(a.entropy, b.entropy)
    assert np.array_equal(a.pr, b.pr)
    _passed(10, "classical-phase-independence")


def test_criterion_11_normalization_of_emitted_distributions():
    # a fresh pair of runs in case this criterion executes in isolation
    _register(run_time_series(WalkConfig(L=40, coin=CoinSpec("baker", 4)), 10,
                              keep_distributions=True))
    EMITTED.extend(classical_msd_series(CellMap("baker"), CellPartition(),
                                        L=31, t_max=10, n_points=10_000,
                                        seed=1, keep_distributions=True).distributions)
    assert len(EMITTED) >= 22
    for dist in EMITTED:
        assert abs(float(dist.probs.sum()) - 1.0) < TOL
    _passed(11, "distribution-normalization")


def test_criterion_12_chaotic_phase_space_filling():
    def occupancy(points):
        hist, _, _ = np.histogram2d(points[:, 0], points[:, 1], bins=50,
                                    range=[[0.0, 1.0], [0.0, 1.0]])
        return float(np.mean(hist > 0))

    chaotic = phase_portrait(CellMap("harper", g=2.0), n_trajectories=1,
                             n_steps=100_000, seed=2026)
    occ_chaotic = occupancy(chaotic)
    assert occ_chaotic > 0.95, occ_chaotic

    regular = phase_portrait(CellMap("harper", g=0.01), n_trajectories=100,
                             n_steps=1000, seed=2026)
    occ_regular = occupancy(regular)
    assert occ_regular < 0.95, occ_regular
    _passed(12, "chaotic-phase-space-filling")
