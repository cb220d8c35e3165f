"""Tests for the classical multi-map walk engine."""

import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest

from mapwalk import cellmaps
from mapwalk.cellmaps import baker_map
from mapwalk.coins import CoinSpec
from mapwalk.classical import (BAKER_REDRAW, CellMap, CellPartition, PhaseEnsemble,
                               classical_counterpart, multi_map_step,
                               classical_site_distribution, phase_portrait,
                               classical_msd_series)


def binomial_displacement_pmf(t):
    """Signed displacement of an unbiased t-step walk: P(d = 2j - t)."""
    pmf = {}
    for j in range(t + 1):
        pmf[2 * j - t] = math.comb(t, j) / 2**t
    return pmf


def displacement_distribution(ens, t):
    disp = ((ens.cells + ens.L // 2) % ens.L) - ens.L // 2
    emp = {}
    for d in range(-t, t + 1):
        emp[d] = float(np.mean(disp == d))
    return emp


def test_rotation_multi_map_period_four_bitwise():
    ens0 = PhaseEnsemble.uniform_fill(L=23, n_points=50_000, seed=11)
    ens = ens0
    for _ in range(4):
        ens = multi_map_step(ens, CellMap("rotation"))
    assert np.array_equal(ens.cells, ens0.cells)
    assert np.array_equal(ens.q, ens0.q)
    assert np.array_equal(ens.p, ens0.p)


def test_baker_multi_map_single_point_hand_case():
    # intra-cell image of (0.25, 0.5) is (0.5, 0.25); partition coordinate
    # p = 0.25 < 1/2, so the point moves one cell to the right.
    ens = PhaseEnsemble(cells=np.array([0]), q=np.array([0.25]),
                        p=np.array([0.5]), L=8)
    out = multi_map_step(ens, CellMap("baker"))
    assert out.cells[0] == 1
    assert out.q[0] == 0.5 and out.p[0] == 0.25


def test_baker_image_rounding_to_one_stays_on_the_torus():
    # (p + 1)/2 rounds to 1.0 at p = 1 - 2**-53, which uniform_fill can draw; the image is
    # the torus point 0.0, in the lower half, so the point moves one cell to the right
    q, p = baker_map(0.7, 1 - 2**-53)
    assert (q, p) == (2 * 0.7 - 1, 0.0) and not np.signbit(p)
    ens = PhaseEnsemble(cells=np.array([0]), q=np.array([0.7]), p=np.array([1 - 2**-53]), L=8)
    out = multi_map_step(ens, CellMap("baker"))
    assert out.cells[0] == 1
    assert out.q[0] == 2 * 0.7 - 1 and out.p[0] == 0.0


def test_point_on_threshold_shifts_left():
    # rotation maps (0.5, 0.3) to (0.7, 0.5): partition coordinate exactly
    # 1/2 belongs to the upper half and hops left.
    ens = PhaseEnsemble(cells=np.array([3]), q=np.array([0.5]),
                        p=np.array([0.3]), L=8)
    out = multi_map_step(ens, CellMap("rotation"))
    assert out.cells[0] == 2


def test_vertical_partition_uses_q():
    # baker sends (0.75, 0.2) to (0.5, 0.6): q = 0.5 >= 1/2 shifts left under
    # the vertical splicing, while the horizontal one looks at p = 0.6 (also
    # left); contrast with (0.2, 0.2) -> (0.4, 0.1): vertical right, and
    # horizontal right too, but (0.3, 0.9) -> (0.6, 0.45) splits them.
    ens = PhaseEnsemble(cells=np.array([0]), q=np.array([0.3]),
                        p=np.array([0.9]), L=8)
    out_v = multi_map_step(ens, CellMap("baker"), CellPartition("vertical"))
    out_h = multi_map_step(ens, CellMap("baker"), CellPartition("horizontal"))
    assert out_v.cells[0] == (0 - 1) % 8   # q' = 0.6 >= 1/2
    assert out_h.cells[0] == (0 + 1) % 8   # p' = 0.45 < 1/2


def test_ensemble_size_conserved():
    ens = PhaseEnsemble.uniform_fill(L=5, n_points=137, seed=1)
    for kind in ("rotation", "baker", "harper"):
        out = multi_map_step(ens, CellMap(kind, g=1.0))
        assert len(out) == 137


def test_site_distribution_all_in_cell_zero():
    ens = PhaseEnsemble.uniform_fill(L=9, n_points=100, seed=2)
    d = classical_site_distribution(ens)
    assert d.probs[0] == 1.0
    assert np.all(d.probs[1:] == 0.0)


def test_baker_two_steps_exact_binomial_quarters():
    # dyadic grid: occupancies after 2 steps are exactly C(2,k)/4
    ens = PhaseEnsemble.grid_fill(L=16, side=64)
    for _ in range(2):
        ens = multi_map_step(ens, CellMap("baker"))
    d = classical_site_distribution(ens)
    assert d.probs[0] == 0.5
    assert d.probs[2] == 0.25 and d.probs[16 - 2] == 0.25


def test_baker_ten_steps_binomial_tv_random_fill():
    ens = PhaseEnsemble.uniform_fill(L=101, n_points=10**6, seed=123)
    for _ in range(10):
        ens = multi_map_step(ens, CellMap("baker"))
    emp = displacement_distribution(ens, 10)
    pmf = binomial_displacement_pmf(10)
    tv = 0.5 * sum(abs(emp.get(d, 0.0) - pmf.get(d, 0.0))
                   for d in set(emp) | set(pmf))
    assert tv < 0.01


def test_baker_ten_steps_binomial_exact_dyadic_grid():
    ens = PhaseEnsemble.grid_fill(L=101, side=1024)
    for _ in range(10):
        ens = multi_map_step(ens, CellMap("baker"))
    emp = displacement_distribution(ens, 10)
    pmf = binomial_displacement_pmf(10)
    tv = 0.5 * sum(abs(emp.get(d, 0.0) - pmf.get(d, 0.0))
                   for d in set(emp) | set(pmf))
    assert tv == 0.0


def test_phase_portrait_deterministic_and_on_torus():
    a = phase_portrait(CellMap("harper", g=1.0), 50, 200, seed=4)
    b = phase_portrait(CellMap("harper", g=1.0), 50, 200, seed=4)
    assert np.array_equal(a, b)
    assert a.shape == (50 * 200, 2)
    assert np.all((a >= 0.0) & (a < 1.0))


def test_phase_portrait_rotation_orbits_have_at_most_four_points():
    pts = phase_portrait(CellMap("rotation"), 7, 40, seed=9)
    per_orbit = pts.reshape(40, 7, 2)
    for i in range(7):
        orbit = {(q, p) for q, p in per_orbit[:, i, :]}
        assert len(orbit) <= 4


def test_phase_portrait_near_integrable_orbit_stays_on_torus():
    # marginal case: the orbit near the newborn fixed point is recorded but
    # only torus closure is asserted
    pts = phase_portrait(CellMap("harper", g=0.01), 1, 1000, seed=0)
    assert np.all((pts >= 0.0) & (pts < 1.0))


def test_classical_series_rotation_msd_period_four():
    series = classical_msd_series(CellMap("rotation"), CellPartition(), L=31,
                                  t_max=12, n_points=20_000, seed=3)
    np.testing.assert_array_equal(series.msd[0:9], series.msd[4:13])


def test_classical_series_baker_unit_diffusion_slope():
    series = classical_msd_series(CellMap("baker"), CellPartition(), L=101,
                                  t_max=40, n_points=200_000, seed=8)
    ts = series.times[5:41].astype(float)
    slope = np.polyfit(ts, series.msd[5:41], 1)[0]
    assert abs(slope - 1.0) < 0.05


def test_classical_series_initial_values():
    series = classical_msd_series(CellMap("harper", g=2.0), CellPartition(),
                                  L=25, t_max=3, n_points=1000, seed=0)
    assert series.msd[0] == 0.0
    assert series.entropy[0] == 0.0
    assert series.pr[0] == pytest.approx(1 / 25, abs=1e-15)


def test_classical_series_deterministic_for_seed():
    kwargs = dict(cell_map=CellMap("harper", g=1.0), partition=CellPartition(),
                  L=21, t_max=10, n_points=5000, seed=42)
    a = classical_msd_series(**kwargs)
    b = classical_msd_series(**kwargs)
    assert np.array_equal(a.msd, b.msd)
    assert np.array_equal(a.entropy, b.entropy)
    assert np.array_equal(a.pr, b.pr)


def test_classical_counterpart_drops_quantum_phase():
    # identical classical map regardless of the quantum boundary phase
    with_phase = classical_counterpart(CoinSpec("harper", 8, g=1.5, phi=0.2))
    without = classical_counterpart(CoinSpec("harper", 8, g=1.5, phi=0.0))
    assert with_phase == without == CellMap("harper", g=1.5, tau=1.0)
    assert classical_counterpart(CoinSpec("dft", 4)) == CellMap("rotation")
    assert classical_counterpart(CoinSpec("baker", 4)) == CellMap("baker")
    assert "phi" not in inspect.signature(classical_msd_series).parameters
    assert not any(f == "phi" for f in CellMap.__dataclass_fields__)


def test_validation_errors():
    with pytest.raises(ValueError,
                       match="^kind: must be one of rotation, baker, harper, got 'standard'$"):
        CellMap("standard")
    with pytest.raises(ValueError):
        CellMap("harper", g=-1.0)
    with pytest.raises(ValueError,
                       match="^orientation: must be one of horizontal, vertical, got 'diagonal'$"):
        CellPartition("diagonal")
    with pytest.raises(ValueError):
        PhaseEnsemble(cells=np.array([], dtype=np.int64), q=np.array([]),
                      p=np.array([]), L=4)
    with pytest.raises(ValueError):
        phase_portrait(CellMap("baker"), 0, 10)
    with pytest.raises(ValueError):
        classical_msd_series(CellMap("baker"), CellPartition(), L=10, t_max=0)


@pytest.mark.parametrize("t_max", [0, -1])
def test_classical_series_rejects_t_max_before_the_fill(monkeypatch, t_max):
    def no_fill(*args, **kwargs):
        raise AssertionError("the ensemble was filled")

    monkeypatch.setattr(PhaseEnsemble, "uniform_fill", no_fill)
    with pytest.raises(ValueError, match=f"^t_max: must be >= 1, got {t_max}$"):
        classical_msd_series(CellMap("baker"), CellPartition(), L=10, t_max=t_max,
                             n_points=10**7)


@pytest.mark.parametrize("g, tau, field", [(math.nan, 1.0, "g:"), (math.inf, 1.0, "g:"),
                                           (1.0, math.nan, "tau:"), (1.0, math.inf, "tau:"),
                                           (1e200, 1e200, "tau*g:")])
def test_non_finite_harper_parameters_rejected(g, tau, field):
    with pytest.raises(ValueError, match=f"^{re.escape(field)}"):
        CellMap("harper", g=g, tau=tau)


@pytest.mark.parametrize("cells, q, p", [([0], [math.nan], [0.5]), ([0], [0.5], [math.nan]),
                                         ([0], [1.0], [0.5]), ([0], [0.5], [-0.0 - 1e-300]),
                                         ([4], [0.5], [0.5]), ([-1], [0.5], [0.5])])
def test_ensemble_outside_torus_or_ring_rejected(cells, q, p):
    with pytest.raises(ValueError):
        PhaseEnsemble(cells=np.array(cells), q=np.array(q), p=np.array(p), L=4)


@pytest.mark.parametrize("cells, q, p, field", [
    (np.array([0.5]), np.array([0.2]), np.array([0.3]), "cells"),
    (np.array([True]), np.array([0.2]), np.array([0.3]), "cells"),
    (np.zeros((1, 1), dtype=np.int64), np.array([[0.2]]), np.array([[0.3]]), "cells"),
    (np.array([0]), np.array([[0.2]]), np.array([0.3]), "q"),
    (np.array([0]), np.array([0.2]), np.float64(0.3), "p"),
    (np.array([0]), np.array([0.25 + 0j]), np.array([0.5]), "q"),
    (np.array([0]), np.array([0.25]), np.array([0.5 + 0j]), "p"),
    (np.array([0]), np.array([0]), np.array([0.5]), "q"),
    (np.array([0]), np.array([0.25]), np.array([False]), "p"),
    ([0], np.array([0.25]), np.array([0.5]), "cells"),  # lists have no .min() for the range check
    (np.array([0]), [0.25], np.array([0.5]), "q"),
    (np.array([0]), np.array([0.25]), [0.5], "p"),
])
def test_ensemble_the_walk_cannot_step_rejected_naming_the_field(cells, q, p, field):
    # multi_map_step indexes by the cells and classical_site_distribution counts them,
    # both only for one dimension of integer cells; the Harper map floors q and p, which
    # numpy refuses for complex values
    with pytest.raises(ValueError, match=f"^{field}: "):
        PhaseEnsemble(cells=cells, q=q, p=p, L=4)


@pytest.mark.parametrize("cells, q, p, L, message", [
    ([0, 0], [0.2], [0.3, 0.4], 4, "q, p: lengths 1, 2 != len(cells) = 2"),
    ([], [], [], 4, "cells: the ensemble must contain at least one point"),
    ([0], [0.2], [0.3], 1, "L: must be >= 2, got 1"),
    ([0], [1.0], [0.3], 4, "q, p: must lie on the unit torus [0, 1)"),
    ([0], [0.2], [-0.5], 4, "q, p: must lie on the unit torus [0, 1)"),
    ([4], [0.2], [0.3], 4, "cells: indices must lie in 0..3"),
    ([-1], [0.2], [0.3], 4, "cells: indices must lie in 0..3"),
], ids=["lengths", "empty", "L", "q", "p", "cell above", "cell below"])
def test_ensemble_errors_start_with_their_field(cells, q, p, L, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PhaseEnsemble(cells=np.array(cells, dtype=np.int64), q=np.array(q, dtype=float),
                      p=np.array(p, dtype=float), L=L)


@pytest.mark.parametrize("n_trajectories, n_steps, message", [
    (0, 10, "n_trajectories: must be >= 1, got 0"), (3, -1, "n_steps: must be >= 1, got -1")],
    ids=["n_trajectories", "n_steps"])
def test_phase_portrait_counts_must_be_positive(n_trajectories, n_steps, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        phase_portrait(CellMap("baker"), n_trajectories, n_steps)


@pytest.mark.parametrize("cell_map", [CellMap("harper", g=2.0), CellMap("baker"),
                                      CellMap("rotation")])
@pytest.mark.parametrize("orientation", ["horizontal", "vertical"])
def test_multi_map_step_leaves_input_unchanged(cell_map, orientation):
    ens = PhaseEnsemble.uniform_fill(6, 2 * cellmaps._BLOCK + 5, seed=4)  # two chunks
    ens = multi_map_step(ens, CellMap("baker"))  # spread over the ring, both wraps occur
    before = [a.copy() for a in (ens.cells, ens.q, ens.p)]
    stepped = multi_map_step(ens, cell_map, CellPartition(orientation))
    for a, b in zip((ens.cells, ens.q, ens.p), before):
        assert np.array_equal(a, b)
    # the shift equals the modular rule it replaces, wraps on both ends included
    q, p = cell_map.apply(ens.q, ens.p)
    coord = p if orientation == "horizontal" else q
    assert np.array_equal(stepped.cells, (ens.cells + np.where(coord >= 0.5, -1, 1)) % 6)
    assert stepped.cells.dtype == np.int64


_B = cellmaps._BLOCK


@pytest.mark.parametrize("n", [1, _B - 1, _B, 2 * _B + 5, 2**17 + 3])
@pytest.mark.parametrize("orientation", ["horizontal", "vertical"])
def test_block_shift_equals_the_modular_rule(monkeypatch, driver_calls, n, orientation):
    # the rotation map maps (q, p) to (1 - p, q), so q = 1/2 (horizontal) and p = 1/2
    # (vertical) put the partition coordinate exactly on the threshold
    L = 7
    rng = np.random.default_rng(n)
    q, p = rng.random(n), rng.random(n)
    q[::3] = p[::3] = 0.5
    cells = rng.integers(0, L, n).astype(np.int32)
    cells[::2], cells[1::4] = 0, L - 1  # both ends of the ring, each with both halves
    ens = PhaseEnsemble(cells=cells, q=q, p=p, L=L)
    coord = q if orientation == "horizontal" else (1.0 - p) % 1.0  # p' or q', not driven
    want = (cells + np.where(coord >= 0.5, -1, 1)) % L
    assert want.dtype == np.int64 and (coord == 0.5).any()
    for cpus in (1, 2, 3):
        monkeypatch.setattr(cellmaps, "_usable_cpus", lambda cpus=cpus: cpus)
        stepped = multi_map_step(ens, CellMap("rotation"), CellPartition(orientation))
        assert stepped.cells.dtype == np.int64
        assert stepped.cells.tobytes() == want.tobytes(), cpus
    # two calls per step, the map's and the shift's, each of which runs each of the
    # ceil(n / _B) blocks once, on as many threads as it has CPUs, capped by the blocks
    starts = list(range(0, n, _B))
    assert driver_calls == [(starts, starts, min(cpus, len(starts)) - 1)
                            for cpus in (1, 2, 3) for _ in range(2)]


@pytest.mark.parametrize("dtype", [np.uint64, np.uint8, np.int32])
def test_any_integer_cells_step_like_int64(dtype):
    # uint64 + int64 promotes to float64, which the int64 shift index cannot take in place
    rng = np.random.default_rng(6)
    n = 2 * _B + 5
    ens = PhaseEnsemble(cells=rng.integers(0, 7, n), q=rng.random(n), p=rng.random(n), L=7)
    want = multi_map_step(ens, CellMap("harper", g=2.0)).cells
    cast = PhaseEnsemble(cells=ens.cells.astype(dtype), q=ens.q, p=ens.p, L=7)
    got = multi_map_step(cast, CellMap("harper", g=2.0)).cells
    assert got.dtype == np.int64 and want.dtype == np.int64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
def test_step_allocates_only_its_outputs_and_a_few_blocks(monkeypatch, cpus):
    # q', p' and the cells take 24 bytes a point; the map and the shift each add one scratch
    # block per chunk, freed before the next; a full-size shift index would add 8 bytes a
    # point, 16 blocks here
    monkeypatch.setattr(cellmaps, "_usable_cpus", lambda: cpus)
    n = 16 * _B
    ens = multi_map_step(PhaseEnsemble.uniform_fill(10, n, seed=3), CellMap("baker"))
    tracemalloc.start()
    try:
        multi_map_step(ens, CellMap("harper", g=2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * n + 4 * 8 * _B, (peak - 24 * n) / (8 * _B)


@pytest.mark.parametrize("cell_map", [CellMap("harper", g=2.0), CellMap("baker"),
                                      CellMap("rotation")])
@pytest.mark.parametrize("orientation", ["horizontal", "vertical"])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_in_place_step_equals_the_pure_step(monkeypatch, cell_map, orientation, cpus):
    monkeypatch.setattr(cellmaps, "_usable_cpus", lambda: cpus)
    ens = PhaseEnsemble.uniform_fill(6, 2 * _B + 5, seed=8)
    ens = multi_map_step(ens, CellMap("baker"))  # spread over the ring, both wraps occur
    ens.q[::999], ens.p[1::999] = 0.5, 0.5  # on both thresholds
    partition = CellPartition(orientation)
    want = multi_map_step(ens, cell_map, partition)
    arrays = ens.cells, ens.q, ens.p
    got = multi_map_step(ens, cell_map, partition, in_place=True)
    assert got is ens and all(x is y for x, y in zip((got.cells, got.q, got.p), arrays))
    for x, y in zip((got.cells, got.q, got.p), (want.cells, want.q, want.p)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("dtype", [np.int32, np.uint64, np.uint8])
def test_in_place_step_needs_int64_cells(dtype):
    ens = PhaseEnsemble(cells=np.zeros(5, dtype), q=np.full(5, 0.25), p=np.full(5, 0.75), L=4)
    with pytest.raises(ValueError, match="^cells: "):
        multi_map_step(ens, CellMap("harper", g=2.0), in_place=True)
    assert (ens.q == 0.25).all() and (ens.p == 0.75).all()  # nothing was mapped


def _read_only(x):
    x.setflags(write=False)
    return x


@pytest.mark.parametrize("q, p, got", [
    (np.full(3, 0.25, np.float32), np.full(3, 0.75), "float32, float64"),
    (np.full(3, 0.25), _read_only(np.full(3, 0.75)), "float64, read-only float64"),
])
def test_in_place_step_needs_writeable_q_and_p_of_one_dtype(q, p, got):
    # the maps would write a float64 image into q and p: the error names them, not ``out``
    ens = PhaseEnsemble(cells=np.zeros(3, np.int64), q=q, p=p, L=4)
    with pytest.raises(ValueError) as info:
        multi_map_step(ens, CellMap("harper", g=2.0), in_place=True)
    assert str(info.value) == ("q, p: must be writeable arrays of one float dtype to step in "
                               f"place, got {got}")
    assert (ens.q == 0.25).all() and (ens.p == 0.75).all() and not ens.cells.any()
    assert multi_map_step(ens, CellMap("harper", g=2.0)).q.dtype == np.float64  # pure: fine


def test_in_place_step_needs_q_and_p_apart():
    qp = np.full(3, 0.25)
    ens = PhaseEnsemble(cells=np.zeros(3, np.int64), q=qp, p=qp, L=4)
    with pytest.raises(ValueError) as info:
        multi_map_step(ens, CellMap("baker"), in_place=True)
    assert str(info.value) == "q, p: must share no memory to step in place"
    assert (qp == 0.25).all() and not ens.cells.any()


@pytest.mark.parametrize("kind", ["harper", "baker", "rotation"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_series_holds_one_ensemble(monkeypatch, kind, cpus):
    # the fill takes 24 bytes a point (q, p and the cells) and the steps write over it; the
    # map and the shift add one scratch block per running thread, freed before the next; a
    # second ensemble would add 24 bytes a point; the baker runs past its first redraw of q
    monkeypatch.setattr(cellmaps, "_usable_cpus", lambda: cpus)
    n, cell_map = 16 * _B, CellMap(kind, g=2.0 if kind == "harper" else 0.0)
    t_max = BAKER_REDRAW + 1 if kind == "baker" else 3
    classical_msd_series(cell_map, CellPartition(), L=10, t_max=1, n_points=1)  # imports np.random
    tracemalloc.start()
    try:
        classical_msd_series(cell_map, CellPartition(), L=10, t_max=t_max, n_points=n, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * n + 4 * 8 * _B, peak / n


@pytest.mark.parametrize("kind", ["harper", "baker", "rotation"])
def test_series_constructs_one_ensemble(monkeypatch, kind):
    # the fill is checked once; the in-place steps return it, and re-check nothing; the
    # series gives each distribution its time
    checks, check = [], PhaseEnsemble.__post_init__
    monkeypatch.setattr(PhaseEnsemble, "__post_init__", lambda ens: checks.append(check(ens)))
    series = classical_msd_series(CellMap(kind, g=2.0 if kind == "harper" else 0.0),
                                  CellPartition(), L=10, t_max=BAKER_REDRAW + 2, n_points=100,
                                  keep_distributions=True)
    assert len(checks) == 1
    assert [d.time for d in series.distributions] == list(range(BAKER_REDRAW + 3))


@pytest.mark.parametrize("orientation", ["horizontal", "vertical"])
def test_baker_series_stays_a_bernoulli_walk_past_53_steps(orientation):
    # each baker step doubles q, which holds 53 random bits: without the redraws of q every
    # point shifts the same way from t = 53 on, and msd/t reads about 109 at t = 200; at 10^5
    # points sampling noise alone gives a median total-variation distance of about 0.0074
    t, L = 200, 402
    series = classical_msd_series(CellMap("baker"), CellPartition(orientation), L=L, t_max=t,
                                  n_points=100_000, seed=1, keep_distributions=True)
    assert abs(series.msd[t] / t - 1.0) < 0.03
    probs, pmf = series.distributions[t].probs, binomial_displacement_pmf(t)
    tv = 0.5 * sum(abs(probs[d % L] - pmf.get(d, 0.0)) for d in range(-(L // 2), L - L // 2))
    assert tv < 0.01


def test_baker_portrait_redraws_q_after_every_redraw_step():
    # the rows before the first redraw are the plain orbit; the redraws follow the initial
    # q and p on the portrait's generator, and leave p as it is
    K, n = BAKER_REDRAW, 5
    pts = phase_portrait(CellMap("baker"), n, 2 * K + 2, seed=6).reshape(2 * K + 2, n, 2)
    rng = np.random.default_rng(6)
    q, p = rng.random(n), rng.random(n)
    redraws = [rng.random(n), rng.random(n)]
    for t in range(1, 2 * K + 2):
        q, p = baker_map(q, p)
        if t % K == 0:
            q = redraws[t // K - 1]
        assert pts[t].tobytes() == np.stack([q, p], axis=1).tobytes(), t


def test_default_baker_portrait_has_no_point_at_q_zero():
    # without the redraws of q, 94.8 % of these points would sit at q = 0 exactly
    pts = phase_portrait(CellMap("baker"), 100, 1000)  # the phase-space command's defaults
    assert not (pts[:, 0] == 0.0).any()
