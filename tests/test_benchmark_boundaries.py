"""The benchmark traces package functions by name; those names must stay bound.

``perfbench/tracing.py`` wraps each ``(owner, attribute)`` of its
``boundaries()`` list in place.  Deleting or renaming one of them breaks
the benchmark run, so this test fails first, naming every missing one.
The traced run reads the wrapped calls' arguments too (their shapes give
the flop counts), so a small walk is also run under the tracer, and so are
small instances of the classical and CLI workloads of ``perfbench/workloads.py``,
each meeting the call counts that workload expects.
"""

import importlib.util
import sys
from pathlib import Path

from mapwalk import observables
from mapwalk.coins import CoinSpec, dft_coin
from mapwalk.walk import WalkConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is created
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_boundary_is_bound():
    boundaries = _load("tracing").boundaries()
    assert boundaries
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in boundaries if attr not in vars(owner)]
    assert missing == []


def test_traced_walk_meets_the_benchmark_call_counts():
    L, M, T = 16, 4, 3
    tracer = _load("tracing").Tracer()
    tracer.install()
    try:
        observables.run_time_series(WalkConfig(L=L, coin=CoinSpec("dft", M)), T,
                                    keep_distributions=True, U=dft_coin(M))
    finally:
        tracer.uninstall()
    expected = {"walk.blocks": 1, "observables.series": 1, "walk.step": T,
                "observables.site_transform": T + 1, "observables.dist_check": T + 1,
                "observables.stats": 3 * (T + 1)}
    assert tracer.call_count_failures(expected) == []
    steps = [span for span in tracer.spans if span.name == "walk.step"]
    # perfbench counts a step as all L momenta, whatever the rows of the window (t + 1 here)
    assert [span.counts["flop"] for span in steps] == [8 * L * M**3] * T


def test_traced_classical_and_cli_workloads_meet_their_call_counts(tmp_path):
    workloads = _load("workloads")
    for wl in (workloads.ClassicalSeries("classical", L=10, t_max=3, n_points=200),
               workloads.CliExport("cli", L=12, t_max=3, sweep_M=(2, 4), n_traj=3, n_steps=5)):
        inputs = wl.setup(workloads.DEFAULT_SEED, tmp_path)
        tracer = _load("tracing").Tracer()
        tracer.install()
        try:
            output = wl.run(inputs)
        finally:
            tracer.uninstall()
        assert tracer.call_count_failures(wl.expected_calls(inputs)) == [], wl.name
        assert wl.check(inputs, output) == [], wl.name
