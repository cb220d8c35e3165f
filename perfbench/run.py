"""mapwalk benchmark: end-to-end metrics per workload, or per-layer metrics traced.

Run from the root of a checkout (the package is imported from ``src``):

    python3 perfbench/run.py --workload quantum-chaotic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each run of a workload is one fresh worker process (``worker.py``), started
only after the previous one has ended (a closed loop with one client); runs
repeat until ``--seconds`` have passed, and at least ``MIN_RUNS`` times.
The package keeps its own thread settings (sweep pool, BLAS); they are
recorded, not changed.

``--trace 0`` reports the end-to-end metrics: medians over the runs of
wall time, throughput, set-up time and peak resident size.  ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics of
the traced ones, plus the tracing overhead against the untraced ones.
Every run's output is checked; a run fails if it crashes, if any check
fails, or if its output differs from the first run of the same seed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
machine included, goes to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Listed here rather than imported from workloads.py, which imports numpy and
# mapwalk: this process only starts workers and must not load the package.
WORKLOADS = ("quantum-chaotic", "quantum-hadamard", "classical-harper", "cli-export")
MIN_RUNS = 3
WORKER_TIMEOUT_S = 120

#: What one unit of throughput counts, per workload.
WORK_UNITS = {
    "quantum-chaotic": "amplitude updates (L*M^2*steps)",
    "quantum-hadamard": "amplitude updates (L*M^2*steps)",
    "classical-harper": "point-steps",
    "cli-export": "MB of output",
}


def spawn(root: Path, workload: str, seed: int, trace: bool, corrupt: bool) -> dict:
    """One closed-loop run in a fresh process; a crash becomes a failed record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--corrupt"] * corrupt
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"trace": trace, "failures": [f"worker timed out after {WORKER_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"trace": trace, "failures": [f"worker exited {proc.returncode}: {tail[0]}"]}
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["trace"] = trace
    where = Path(record["env"]["mapwalk_path"])
    if where != (root / "src" / "mapwalk").resolve():
        record["failures"].append(f"imported mapwalk from {where}, not from this checkout")
    return record


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 corrupt: bool = False) -> dict:
    records: list[dict] = []
    deadline = time.monotonic() + seconds
    while len(records) < (2 if trace else MIN_RUNS) or time.monotonic() < deadline:
        records.append(spawn(root, workload, seed, False, corrupt))
        if trace:
            records.append(spawn(root, workload, seed, True, corrupt))
    digests = [r["digest"] for r in records if "digest" in r]
    for r in records:
        if "digest" in r and r["digest"] != digests[0]:
            r["failures"].append("output differs from the first run of this seed")
    ok = [r for r in records if not r["failures"]]
    plain = [r for r in ok if not r["trace"]]
    traced = [r for r in ok if r["trace"]]
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "attempted": len(records), "failed": len(records) - len(ok),
              "env": next((r["env"] for r in records if "env" in r), None),
              "runs": records, "metrics": None}
    if not plain or (trace and not traced):
        return result
    wall = statistics.median(r["wall_s"] for r in plain)
    if trace:
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_frac"] = statistics.median(r["wall_s"] for r in traced) / wall - 1
    else:
        metrics = {
            "wall_s": wall,
            "throughput": statistics.median(r["work"] / r["wall_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    return result | {"metrics": metrics, "samples": len(plain)}


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def with_units(metrics: dict, units: dict) -> dict:
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def report(result: dict, units: dict) -> None:
    name, failed, attempted = result["workload"], result["failed"], result["attempted"]
    print(f"{name}: seed {result['seed']}, {attempted} runs, {failed} failed, "
          f"failed_frac {failed / attempted:.4g}")
    for r in result["runs"]:
        for msg in r["failures"]:
            print(f"  FAILED: {msg}")
    for metric, value in (result["metrics"] or {}).items():
        note = f"  per {WORK_UNITS[name]}" if metric == "throughput" else ""
        print(f"  {metric:44s} {value:14.6g} {units[metric]}{note}")
    if result["metrics"] and not result["trace"]:
        print(f"  (medians of {result['samples']} untraced runs)")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="mapwalk benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="plant a wrong result in every run before its checks, "
                             "to show that they catch it")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mapwalk" / "__init__.py").is_file():
        print(f"error: {root} has no src/mapwalk; run from the root of a mapwalk checkout",
              file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    commit = git_commit(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(root, name, args.seed, args.seconds, bool(args.trace), args.corrupt)
               for name in names]

    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    for result in results:
        result["git_commit"] = commit
        report(result, units)
        path = out_dir / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
    env = results[0]["env"] or {}
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()) + f", commit={commit}, "
          f"seed={args.seed}")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    complete = all(r["metrics"] is not None for r in results)
    summary = {"correct": failed == 0 and complete, "attempted": attempted, "failed": failed}
    if len(results) == 1:
        summary["metrics"] = with_units(results[0]["metrics"] or {}, units)
    else:
        summary["metrics"] = {r["workload"]: with_units(r["metrics"] or {}, units)
                              for r in results}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
