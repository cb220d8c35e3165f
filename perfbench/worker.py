"""One measured run of one workload, in this fresh process; prints a JSON record.

``run.py`` starts it from the root of a checkout with ``src`` on PYTHONPATH:

    PYTHONPATH=src python3 perfbench/worker.py --workload quantum-chaotic --seed 1

Set-up time starts before ``import mapwalk`` and ends when the workload's
inputs exist; wall time covers the package call alone; the peak resident
size is read right after it, before any check allocates.  Output checks and
the tiny block-versus-dense sanity check run after the timed region.  With
``--trace`` the boundary wrappers of ``tracing.py`` are installed after the
import, and the record carries the per-layer metrics and call-count checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path


def environment() -> dict:
    """Machine and library record kept with every result."""
    import numpy as np

    import mapwalk

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "sweep_pool_workers": min(8, os.cpu_count() or 1),
        "mapwalk": mapwalk.__version__,
        "mapwalk_path": str(Path(mapwalk.__file__).resolve().parent),
    }


def measure(workload: str, seed: int, trace: bool, corrupt: bool, scratch: Path) -> dict:
    t0 = time.perf_counter()
    import mapwalk  # noqa: F401  (set-up includes the package import)

    import workloads

    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[workload]
    inputs = wl.setup(seed, scratch)
    t1 = time.perf_counter()
    output = wl.run(inputs)
    t2 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    record = {"setup_s": t1 - t0, "wall_s": t2 - t1, "peak_rss_mb": peak_rss_mb,
              "work": wl.work(inputs, output), "failures": []}
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.metrics(t1, t2)
        record["failures"] += tracer.call_count_failures(wl.expected_calls(inputs))
    if corrupt:
        wl.corrupt(output)
    record["failures"] += wl.check(inputs, output) + wl.sanity(inputs)
    record["digest"] = wl.digest(output)
    record["env"] = environment()
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    parser.add_argument("--corrupt", action="store_true",
                        help="plant a wrong result before the checks (tests only)")
    args = parser.parse_args(argv)
    out_dir = Path.cwd() / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        record = measure(args.workload, args.seed, args.trace, args.corrupt, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
