"""Tests of the benchmark itself: its checks catch wrong results, its trace
counts every boundary call, and it refuses to run without the package.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from mapwalk import coins, observables, walk  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_end_to_end_run_is_correct_and_reports_every_metric():
    code, out = bench("--workload", "quantum-hadamard", "--seed", "3", "--seconds", "0")
    result = last_json(out)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_frac 0" in out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_planted_wrong_result_fails_every_run(name):
    code, out = bench("--workload", name, "--seconds", "0", "--corrupt")
    result = last_json(out)
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] >= 3
    assert "failed_frac 1" in out


def test_traced_run_reports_every_layer_metric_with_expected_counts():
    code, out = bench("--workload", "quantum-hadamard", "--seconds", "0", "--trace", "1")
    result = last_json(out)
    assert code == 0 and result["correct"]
    assert {m["name"] for m in SPEC["per_layer"]} == set(result["metrics"])
    metrics = {name: v["value"] for name, v in result["metrics"].items()}
    t_max = workloads.WORKLOADS["quantum-hadamard"].t_max
    assert metrics["walk.step_calls"] == t_max
    assert metrics["observables.site_transform_calls"] == t_max + 1
    assert metrics["walk.step_gflops_computed"] == pytest.approx(8 * 4096 * 2**3 * t_max / 1e9)
    assert metrics["cli.rows_out"] == 0 and metrics["cellmaps.point_steps"] == 0


def test_call_count_check_flags_a_moved_call_site():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        config = walk.WalkConfig(L=8, coin=coins.CoinSpec("dft", M=2))
        observables.run_time_series(config, 5)
    finally:
        tracer.uninstall()
    assert tracer.call_count_failures({"coins.build": 1, **workloads._walk_calls(5)}) == []
    failures = tracer.call_count_failures(workloads._walk_calls(6))
    assert "trace: walk.step called 5 times, expected 6" in failures
    assert "trace: coins.build called 1 times, expected 0" in failures
    assert observables._apply_blocks is walk._apply_blocks  # wrappers removed


def test_spans_are_not_lost_under_threads():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda x: x, "inner")
    outer = tracer.wrap(lambda x: inner(x), "outer")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert list(pool.map(outer, range(4000))) == list(range(4000))
    finally:
        sys.setswitchinterval(interval)
    assert len(tracer.spans) == 8000
    assert len({s.id for s in tracer.spans}) == 8000
    parents = {s.id: s for s in tracer.spans if s.name == "outer"}
    assert all(parents[s.parent].start <= s.start and s.end <= parents[s.parent].end
               for s in tracer.spans if s.name == "inner")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-export"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
