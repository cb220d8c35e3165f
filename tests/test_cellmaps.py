"""Tests for the classical single-cell torus maps."""

import inspect
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mapwalk import cellmaps
from mapwalk.cellmaps import rotation_map, baker_map, harper_map, harper_inverse_map

#: Values where x % 1.0 rounds, folds or keeps a sign: zeros, tiny negatives, integers, 1 - ulp.
EDGE = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, -1e-17, 1 - 2**-53, 0.25,
                 0.5, 0.75, 1.0, 2.0, -1.0, -3.5, 1e6 + 0.3])


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


def reference_mod1(x):
    """The reduction the in-place kernel must reproduce: x % 1.0, then 1.0 folded to 0."""
    r = x % 1.0
    return np.where(r == 1.0, 0.0, r)


def reference_harper(q, p, g, tau):
    q_next = reference_mod1(q - tau * np.sin(2.0 * np.pi * p))
    return q_next, reference_mod1(p + tau * g * np.sin(2.0 * np.pi * q_next))


def reference_harper_inverse(q, p, g, tau):
    p_prev = reference_mod1(p - tau * g * np.sin(2.0 * np.pi * q))
    return reference_mod1(q + tau * np.sin(2.0 * np.pi * p_prev)), p_prev


def assert_bitwise(got, want):
    for x, y in zip(got, want, strict=True):
        assert type(x) is type(y)
        x, y = np.asarray(x), np.asarray(y)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()  # tells -0.0 from 0.0


@settings(max_examples=60, deadline=None)
@given(g=st.floats(0.0, 50.0), tau=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1))
def test_harper_maps_bitwise_equal_reference(g, tau, seed):
    rng = np.random.default_rng(seed)
    q, p = rng.random(300), rng.random(300)
    assert_bitwise(harper_map(q, p, g, tau), reference_harper(q, p, g, tau))
    assert_bitwise(harper_inverse_map(q, p, g, tau), reference_harper_inverse(q, p, g, tau))


@pytest.mark.parametrize("g, tau", [(0.0, 1.0), (1.0, 1.0), (2.3, 0.7), (17.0, 3.0)])
def test_harper_maps_bitwise_on_edge_values(g, tau):
    q, p = (x.ravel() for x in np.meshgrid(EDGE, EDGE))
    assert_bitwise(harper_map(q, p, g, tau), reference_harper(q, p, g, tau))
    assert_bitwise(harper_inverse_map(q, p, g, tau), reference_harper_inverse(q, p, g, tau))
    # the 2-D grid itself, and a scalar against an array, take the n-d path
    qq, pp = np.meshgrid(EDGE, EDGE)
    assert_bitwise(harper_map(qq, pp, g, tau), reference_harper(qq, pp, g, tau))
    assert_bitwise(harper_map(0.3, EDGE, g, tau), reference_harper(0.3, EDGE, g, tau))


def reference_rotation(q, p):
    """The rotation map as first written, with float %."""
    return (1.0 - p) % 1.0, q


def reference_baker(q, p):
    """The baker map as first written, with np.where, and a p' of 1.0 taken mod 1."""
    left = q < 0.5
    p_new = np.where(left, 0.5 * p, 0.5 * (p + 1.0))
    return np.where(left, 2.0 * q, 2.0 * q - 1.0), np.where(p_new == 1.0, 0.0, p_new)


#: Any double that doubles without overflow, or a NaN.
COORDINATE = st.one_of(st.floats(-1e300, 1e300), st.just(np.nan))


def assert_bitwise_any_nan(got, want):
    """``assert_bitwise``, except that a NaN matches a NaN of either sign."""
    for x, y in zip(got, want, strict=True):
        assert type(x) is type(y)
        x, y = np.asarray(x), np.asarray(y)
        assert x.dtype == y.dtype and x.shape == y.shape
        nan = np.isnan(y)
        assert np.array_equal(np.isnan(x), nan)
        assert x[~nan].tobytes() == y[~nan].tobytes()


@settings(max_examples=100, deadline=None)
@given(points=st.lists(st.tuples(COORDINATE, COORDINATE), min_size=1, max_size=40))
def test_rotation_and_baker_bitwise_equal_reference(points):
    q, p = (np.array(x) for x in zip(*points))
    assert_bitwise_any_nan(rotation_map(q, p), reference_rotation(q, p))
    assert not np.shares_memory(rotation_map(q, p)[1], q)  # p' is a new array, not q
    assert_bitwise_any_nan(baker_map(q, p), reference_baker(q, p))


def test_rotation_and_baker_bitwise_on_edge_values():
    q, p = (x.ravel() for x in np.meshgrid(EDGE, EDGE))
    for qs, ps in ((q, p), (q.reshape(16, 16), p.reshape(16, 16))):
        assert_bitwise(rotation_map(qs, ps), reference_rotation(qs, ps))
        assert_bitwise(baker_map(qs, ps), reference_baker(qs, ps))
    for q0, p0 in zip(q, p):  # scalars give 0-d arrays of the same values
        assert np.asarray(rotation_map(q0, p0)[0]).tobytes() == \
            np.asarray(reference_rotation(q0, p0)[0]).tobytes()
        assert_bitwise(baker_map(q0, p0), reference_baker(q0, p0))


@pytest.mark.parametrize("q, p", [(0.3, 0.0), (0.5, 0.25), (-1e-17, 0.0), (-0.0, 0.5), (2, 1)])
def test_harper_maps_bitwise_on_scalars(q, p):
    assert_bitwise(harper_map(q, p, 1.7, 1.0), reference_harper(q, p, 1.7, 1.0))
    assert_bitwise(harper_inverse_map(q, p, 1.7, 1.0), reference_harper_inverse(q, p, 1.7, 1.0))


def test_tiny_negative_folds_to_positive_zero():
    q, p = harper_map(np.array([-1e-17]), np.array([0.0]), 0.0, 1.0)
    assert q[0] == 0.0 and not np.signbit(q[0])
    assert p[0] == 0.0 and not np.signbit(p[0])


def test_chained_steps_bitwise_equal_reference():
    rng = np.random.default_rng(8)
    q, p = rng.random(5000), rng.random(5000)
    want = (q, p)
    for _ in range(15):
        q, p = harper_map(q, p, 2.1, 1.0)
        want = reference_harper(*want, 2.1, 1.0)
    assert_bitwise((q, p), want)


def test_chunked_equals_unchunked(monkeypatch, driver_calls):
    # 2**17 + 3 points on 1, 2, 3 and 5 CPUs: a short last block, and with the default
    # block 5 blocks for 5 CPUs, with half that block 9
    rng = np.random.default_rng(17)
    n = 2**17 + 3
    q, p = rng.random(n), rng.random(n)
    p[::1000] = 1 - 2**-53  # baker's folded 1.0 in every block
    maps = [(harper_map, reference_harper, (2.3, 1.0)),
            (harper_inverse_map, reference_harper_inverse, (2.3, 1.0)),
            (baker_map, reference_baker, ())]
    wants = [reference(q, p, *args) for _, reference, args in maps]
    threads = set()
    for name in ("_harper_kernel", "_baker_kernel"):
        def recording_kernel(*args, kernel=getattr(cellmaps, name)):
            threads.add(threading.get_ident())
            kernel(*args)

        monkeypatch.setattr(cellmaps, name, recording_kernel)
    want_calls = []
    for block in (2**15, 2**14):
        monkeypatch.setattr(cellmaps, "_BLOCK", block)
        starts = list(range(0, n, block))
        for cpus in (1, 2, 3, 5):
            monkeypatch.setattr(cellmaps, "_usable_cpus", lambda cpus=cpus: cpus)
            for (cell_map, _, args), want in zip(maps, wants):
                assert_bitwise(cell_map(q, p, *args), want)
                want_calls.append((starts, starts, min(cpus, len(starts)) - 1))
    # each block runs once, on the caller and one thread per further CPU it may use
    assert driver_calls == want_calls
    assert len(threads) > 1  # the blocks did run on more than one thread


def in_place_targets(kind, q, p):
    """Copies of q and p for a map to write its image over: plain arrays, or the strided
    columns of a portrait-like (n, 2) row."""
    if kind == "inputs":
        return q.copy(), p.copy()
    row = np.empty((len(q), 2))
    row[:, 0], row[:, 1] = q, p
    return row[:, 0], row[:, 1]


IN_PLACE_MAPS = [pytest.param(rotation_map, (), id="rotation"),
                 pytest.param(baker_map, (), id="baker"),
                 pytest.param(harper_map, (2.3, 0.7), id="harper")]


@pytest.mark.parametrize("cell_map, args", IN_PLACE_MAPS)
@pytest.mark.parametrize("kind", ["inputs", "rows"])
def test_in_place_image_equals_the_new_arrays(monkeypatch, cell_map, args, kind):
    # three blocks, the edge grid at the front, NaN, baker's folded 1.0 and both thresholds
    # in every block
    rng = np.random.default_rng(23)
    n = 2 * cellmaps._BLOCK + 5
    q, p = rng.random(n), rng.random(n)
    q[:EDGE.size**2], p[:EDGE.size**2] = (x.ravel() for x in np.meshgrid(EDGE, EDGE))
    q[1000::7001], p[2000::7001] = np.nan, np.nan
    p[3000::5003] = 1 - 2**-53
    q[4000::3001], p[5000::3001] = 0.5, 0.5
    want = cell_map(q, p, *args)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(cellmaps, "_usable_cpus", lambda cpus=cpus: cpus)
        q_in, p_in = in_place_targets(kind, q, p)
        got = cell_map(q_in, p_in, *args, in_place=True)
        assert got[0] is q_in and got[1] is p_in
        assert_bitwise(tuple(np.ascontiguousarray(x) for x in got), want)


@pytest.mark.parametrize("cell_map, args", IN_PLACE_MAPS)
def test_in_place_keeps_nd_shapes(cell_map, args):
    qq, pp = np.meshgrid(EDGE, EDGE)
    want = cell_map(qq, pp, *args)
    for shape in ((16, 16), (2, 8, 16)):
        got = cell_map(qq.reshape(shape).copy(), pp.reshape(shape).copy(), *args, in_place=True)
        assert_bitwise(got, tuple(x.reshape(shape) for x in want))
    assert_bitwise(cell_map(np.array(0.3), np.array(0.75), *args, in_place=True),
                   cell_map(0.3, 0.75, *args))


def refused_in_place(base):
    """(q, p) pairs near q = base[0, :8], p = base[1, :8] that a map must refuse to write its
    image over: each cannot hold the image, or would let one point's image overwrite another
    point's input."""
    q, p = base[0, :8], base[1, :8]
    read_only = q.view()
    read_only.setflags(write=False)
    return {"scalar": (0.3, p), "read-only": (read_only, p), "mixed dtypes": (q.astype(np.float32), p),
            "unequal shapes": (q[:-1], p), "not contiguous": (base[0, :, ::2], base[1, :, ::2]),
            "one array twice": (q, q), "overlapping": (q, base[0, 1:])}


@pytest.mark.parametrize("cell_map, args", IN_PLACE_MAPS)
@pytest.mark.parametrize("case", list(refused_in_place(np.zeros((2, 9, 8)))))
def test_refused_in_place_input_raises_before_it_writes(cell_map, args, case):
    base = np.random.default_rng(4).random((2, 9, 8))
    q, p = refused_in_place(base)[case]
    before = base.copy(), np.copy(q), np.copy(p)
    with pytest.raises(ValueError, match="^q, p: "):
        cell_map(q, p, *args, in_place=True)
    assert_bitwise((base, np.asarray(q), p), before)


@pytest.mark.parametrize("n, cpus, threads", [(0, 4, 1), (1, 4, 1), (2**15 - 1, 4, 1),
                                              (2**15, 4, 1), (2**16 - 1, 4, 2), (2**16, 4, 2),
                                              (2**17 + 3, 5, 5), (2**17 + 3, 3, 3),
                                              (10**6, 2, 2)])
def test_chunk_count_is_usable_cpus_capped_by_whole_blocks(monkeypatch, driver_calls, n, cpus,
                                                           threads):
    # a call runs its ceil(n / _BLOCK) blocks once each, on as many threads as it has CPUs,
    # capped by the blocks; a short last block counts as one
    monkeypatch.setattr(cellmaps, "_usable_cpus", lambda: cpus)
    q = np.full(n, 0.25)
    harper_map(q, q, 2.0)
    baker_map(q, q)
    starts = list(range(0, n, cellmaps._BLOCK))
    assert driver_calls == [(starts, starts, threads - 1)] * 2


@pytest.mark.parametrize("shape", [(0,), (3, 0), (2, 3, 4)])
def test_driven_maps_keep_empty_and_nd_shapes(shape):
    rng = np.random.default_rng(3)
    q, p = rng.random(shape), rng.random(shape)
    for got, want in ((harper_map(q, p, 1.3), reference_harper(q, p, 1.3, 1.0)),
                      (harper_inverse_map(q, p, 1.3), reference_harper_inverse(q, p, 1.3, 1.0)),
                      (baker_map(q, p), reference_baker(q, p))):
        assert_bitwise(got, want)
        assert all(x.shape == shape for x in got)


@pytest.mark.parametrize("state, raises", [("raise", FloatingPointError), ("ignore", None)])
def test_chunks_follow_the_callers_errstate(monkeypatch, state, raises):
    # sin(inf) is invalid; the inf sits in the last chunk, which a pool thread computes
    monkeypatch.setattr(cellmaps, "_usable_cpus", lambda: 2)
    q, p = np.zeros(2 * cellmaps._BLOCK), np.zeros(2 * cellmaps._BLOCK)  # two chunks
    p[-1] = np.inf
    with np.errstate(invalid=state):
        if raises:
            with pytest.raises(raises):
                harper_map(q, p, 1.0, 1.0)
        else:
            assert np.isnan(harper_map(q, p, 1.0, 1.0)[0][-1])


def _map_in_child():
    q = np.random.default_rng(1).random(2 * cellmaps._BLOCK)  # two chunks
    harper_map(q, q, 2.0, 1.0)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_chunked_map_runs_in_a_forked_child(monkeypatch):
    # the parent has run chunked maps on threads before it forks
    monkeypatch.setattr(cellmaps, "_usable_cpus", lambda: 2)
    _map_in_child()
    child = multiprocessing.get_context("fork").Process(target=_map_in_child)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
    assert child.exitcode == 0


def test_parallel_map_returns_results_in_item_order(monkeypatch):
    monkeypatch.setattr(cellmaps, "_usable_cpus", lambda: 3)
    assert cellmaps.parallel_map(lambda x: x * x, range(10)) == [x * x for x in range(10)]
    assert cellmaps.parallel_map(lambda x: x, []) == []


@pytest.mark.parametrize("cpus, items", [(4, [7]), (1, [7, 8, 9])])
def test_parallel_map_without_workers_runs_inline(monkeypatch, cpus, items):
    monkeypatch.setattr(cellmaps, "_usable_cpus", lambda: cpus)
    caller, before = threading.get_ident(), threading.active_count()

    def where(x):
        assert threading.active_count() == before  # no thread was started
        return x, threading.get_ident()

    assert cellmaps.parallel_map(where, items) == [(x, caller) for x in items]


def test_one_block_asks_for_no_cpus_and_starts_no_thread(monkeypatch):
    # a single-item call runs inline before it would make the affinity call
    def no_cpus():
        raise AssertionError("asked for the usable CPUs")

    monkeypatch.setattr(cellmaps, "_usable_cpus", no_cpus)
    before = threading.active_count()
    for n in (0, 1, 100, cellmaps._BLOCK):
        q = np.full(n, 0.25)
        assert_bitwise(harper_map(q, q, 2.0), reference_harper(q, q, 2.0, 1.0))
        assert_bitwise(baker_map(q, q), reference_baker(q, q))
    assert cellmaps.parallel_map(lambda x: -x, [3]) == [-3]
    assert threading.active_count() == before


def test_import_loads_no_executor():
    env = {**os.environ, "PYTHONPATH": str(Path(cellmaps.__file__).parents[1])}
    code = "import sys, mapwalk; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_parallel_map_raises_the_first_failure_in_item_order(monkeypatch):
    monkeypatch.setattr(cellmaps, "_usable_cpus", lambda: 4)
    before = threading.active_count()

    def fail_odd(x):
        if x == 1:
            time.sleep(0.05)  # item 3 fails first in time, item 1 first in order
        if x % 2:
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match="item 1"):
        cellmaps.parallel_map(fail_odd, range(4))
    assert threading.active_count() == before  # no thread outlives the call


def test_parallel_map_takes_no_item_after_a_failure(monkeypatch):
    monkeypatch.setattr(cellmaps, "_usable_cpus", lambda: 2)
    ran = []

    def fail_first(x):
        ran.append(x)
        if x == 1:
            time.sleep(0.2)  # item 0 has failed before this thread could take item 2
        if x == 0:
            raise ValueError("item 0")

    with pytest.raises(ValueError, match="item 0"):
        cellmaps.parallel_map(fail_first, range(10))
    assert set(ran) <= {0, 1}


def test_parallel_map_keeps_every_thread_busy(monkeypatch):
    # while one thread runs the long item 1, the other takes items 2 and 3
    monkeypatch.setattr(cellmaps, "_usable_cpus", lambda: 2)
    finished = []

    def work(x):
        time.sleep(0.5 if x == 1 else 0.01)
        finished.append(x)
        return x

    assert cellmaps.parallel_map(work, range(4)) == [0, 1, 2, 3]
    assert finished == [0, 2, 3, 1]


def test_parallel_map_runs_each_item_once_under_contention(monkeypatch):
    # more threads than cores, switching as often as the interpreter allows
    monkeypatch.setattr(cellmaps, "_usable_cpus", lambda: 8)
    runs, results = [0] * 5000, []

    def count(x):
        runs[x] += 1
        return -x

    def stress():
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results.append(cellmaps.parallel_map(count, range(5000)))
        finally:
            sys.setswitchinterval(interval)

    runner = threading.Thread(target=stress, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "parallel_map did not finish"
    assert results == [[-x for x in range(5000)]]
    assert runs == [1] * 5000  # no item lost or taken twice


def test_nested_parallel_map_finishes(monkeypatch):
    # every call owns its threads, so an inner call never waits on the outer one's
    monkeypatch.setattr(cellmaps, "_usable_cpus", lambda: 2)
    results = []

    def nested():
        results.append(cellmaps.parallel_map(
            lambda i: cellmaps.parallel_map(lambda j: 10 * i + j, range(3)), range(3)))

    runner = threading.Thread(target=nested, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "nested parallel_map deadlocked"
    assert results == [[[10 * i + j for j in range(3)] for i in range(3)]]


def test_nested_parallel_map_stays_within_the_cpus():
    # a thread with four CPUs: an outer call on w threads leaves each 4 // w for its nested calls
    before, peaks, shares = [], [], []

    def inner(_):
        time.sleep(0.01)  # keeps the inner calls' threads alive together
        peaks.append(threading.active_count())

    def outer(_):
        shares.append(cellmaps._usable_cpus())
        cellmaps.parallel_map(inner, range(4))

    def nested():
        cellmaps._cpu_share.set(4)
        before.append(threading.active_count())
        cellmaps.parallel_map(outer, range(4))
        cellmaps.parallel_map(outer, range(2))

    runner = threading.Thread(target=nested, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "nested parallel_map deadlocked"
    assert shares == [1, 1, 1, 1, 2, 2]
    assert max(peaks) <= before[0] + 3  # the calling thread and at most 3 more
    assert threading.active_count() == before[0] - 1  # the runner is gone too
