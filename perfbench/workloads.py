"""The benchmark workloads: inputs from a seed, one timed call, output checks.

Every workload object offers the same methods, used by ``worker.py``:

- ``setup(seed, scratch)`` builds what a run steps from: the coin, the cell
  map, or the CLI argument lists.  Where the package call builds further
  inputs itself (momentum blocks inside ``run_time_series``, the ensemble
  fill inside ``classical_msd_series``, argument parsing inside
  ``cli.main``), that work is timed as part of the run, not rebuilt here.
- ``run(inputs)`` is the timed call into the package.
- ``work(inputs, output)`` is the amount of work done, for throughput.
- ``check(inputs, output)`` returns a list of failure messages.
- ``sanity(inputs)`` compares the block path with the dense oracle at a
  tiny size and returns failure messages.
- ``digest(output)`` hashes the output; runs of one seed must agree.
- ``expected_calls(inputs)`` gives the calls per traced boundary in one run.
- ``corrupt(output)`` plants a wrong result (used by the benchmark's tests).

The package is reached through module attributes (``observables.run_time_series``,
``coins.coin_matrix``) so that the tracer's wrappers see the benchmark's own calls.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from mapwalk import classical, cli, coins, observables, walk

DEFAULT_SEED = 1
REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Probability allowed on a site the walk cannot reach (odd l + t, or beyond the light cone).
FORBIDDEN_TOL = 1e-12
#: Agreement with the stored reference series and with the dense oracle.
REFERENCE_TOL = 1e-9
ORACLE_TOL = 1e-10
#: Size of the block-versus-dense sanity check, and the times it compares.
SANITY_L, SANITY_M, SANITY_T = 16, 4, 6


def harper_g(seed: int) -> float:
    """Harper kick strength for a seed, from the chaotic window [1.5, 2.5]."""
    return 1.5 + random.Random(seed).random()


def check_series(series: observables.WalkTimeSeries, L: int, t_max: int) -> list[str]:
    """Parity, light cone and msd <= t^2 of a walk started at site 0 (L even)."""
    if series.distributions is None or len(series.distributions) != t_max + 1:
        return ["series: distributions missing or of the wrong length"]
    if not np.array_equal(series.times, np.arange(t_max + 1)):
        return ["series: times are not 0..t_max"]
    sites = np.arange(L)
    cyclic = np.minimum(sites, L - sites)
    worst_parity = worst_cone = 0.0
    failures = []
    for t, dist in enumerate(series.distributions):
        worst_parity = max(worst_parity, float(dist.probs[(sites + t) % 2 == 1].max(initial=0.0)))
        worst_cone = max(worst_cone, float(dist.probs[cyclic > t].max(initial=0.0)))
        if not series.msd[t] <= t * t + FORBIDDEN_TOL:
            failures.append(f"series: msd({t}) = {series.msd[t]!r} exceeds t^2")
    if not worst_parity <= FORBIDDEN_TOL:
        failures.append(f"series: {worst_parity:.3g} probability on odd l + t sites")
    if not worst_cone <= FORBIDDEN_TOL:
        failures.append(f"series: {worst_cone:.3g} probability outside the light cone")
    return failures[:5]


def series_digest(series: observables.WalkTimeSeries) -> str:
    h = hashlib.sha256()
    for arr in (series.msd, series.entropy, series.pr):
        h.update(arr.tobytes())
    for dist in series.distributions or ():
        h.update(dist.probs.tobytes())
    return h.hexdigest()


def compare_reference(name: str, series: observables.WalkTimeSeries) -> list[str]:
    """msd/entropy/pr against the series stored by ``make_reference.py``."""
    ref = json.loads(REFERENCE_PATH.read_text())[name]
    failures = []
    for key in ("msd", "entropy", "pr"):
        got, want = getattr(series, key), np.array(ref[key])
        if got.shape != want.shape:
            failures.append(f"reference: {key} has {got.size} values, reference {want.size}")
            continue
        err = float(np.max(np.abs(got - want)))
        if not err <= REFERENCE_TOL:
            failures.append(f"reference: {key} deviates by {err:.3g}")
    return failures


def block_vs_dense(spec: coins.CoinSpec) -> list[str]:
    """Block-path distributions against build_dense + trace_site_probabilities."""
    config = walk.WalkConfig(L=SANITY_L, coin=spec)
    U = coins.coin_matrix(spec)
    series = observables.run_time_series(config, SANITY_T, keep_distributions=True, U=U)
    E = walk.build_dense(config, U)
    err = max(float(np.max(np.abs(
        series.distributions[t].probs
        - observables.trace_site_probabilities(E, SANITY_L, spec.M, t))))
        for t in range(SANITY_T + 1))
    if not err <= ORACLE_TOL:
        return [f"sanity: block path differs from the dense oracle by {err:.3g}"]
    return []


def _walk_calls(t_max: int, runs: int = 1) -> dict[str, int]:
    """Boundary calls made by ``runs`` calls of run_time_series over t_max steps."""
    return {"walk.blocks": runs, "observables.series": runs, "walk.step": runs * t_max,
            "observables.site_transform": runs * (t_max + 1),
            "observables.dist_check": runs * (t_max + 1),
            "observables.stats": 3 * runs * (t_max + 1)}


class QuantumSeries:
    """``run_time_series`` with every step observed and kept."""

    def __init__(self, name: str, coin: str, M: int, L: int, t_max: int, seeded_reference: bool):
        self.name, self.coin, self.M, self.L, self.t_max = name, coin, M, L, t_max
        # A seed-dependent series is compared with the reference only at the default seed.
        self.seeded_reference = seeded_reference

    def _spec(self, seed: int, M: int) -> coins.CoinSpec:
        return coins.CoinSpec(self.coin, M=M, g=harper_g(seed) if self.coin == "harper" else 0.0)

    def setup(self, seed: int, scratch: Path):
        spec = self._spec(seed, self.M)
        return SimpleNamespace(seed=seed, spec=spec, config=walk.WalkConfig(L=self.L, coin=spec),
                               U=coins.coin_matrix(spec))

    def run(self, inputs):
        return observables.run_time_series(inputs.config, self.t_max,
                                           keep_distributions=True, U=inputs.U)

    def work(self, inputs, output) -> float:
        return float(self.L * self.M * self.M * self.t_max)

    def check(self, inputs, output) -> list[str]:
        failures = check_series(output, self.L, self.t_max)
        if not self.seeded_reference or inputs.seed == DEFAULT_SEED:
            failures += compare_reference(self.name, output)
        return failures

    def sanity(self, inputs) -> list[str]:
        return block_vs_dense(self._spec(inputs.seed, SANITY_M))

    def digest(self, output) -> str:
        return series_digest(output)

    def expected_calls(self, inputs) -> dict[str, int]:
        return {"coins.build": 1, **_walk_calls(self.t_max)}

    def corrupt(self, output) -> None:
        output.distributions[1].probs[0] += 0.25


class ClassicalSeries:
    """``classical_msd_series`` of the Harper multi-map walk from a seeded fill."""

    def __init__(self, name: str, L: int, t_max: int, n_points: int):
        self.name, self.L, self.t_max, self.n_points = name, L, t_max, n_points

    def setup(self, seed: int, scratch: Path):
        return SimpleNamespace(seed=seed, cell_map=classical.CellMap("harper", g=harper_g(seed)),
                               partition=classical.CellPartition())

    def run(self, inputs):
        return classical.classical_msd_series(inputs.cell_map, inputs.partition, self.L,
                                              self.t_max, n_points=self.n_points,
                                              seed=inputs.seed, keep_distributions=True)

    def work(self, inputs, output) -> float:
        return float(self.n_points * self.t_max)

    def check(self, inputs, output) -> list[str]:
        return check_series(output, self.L, self.t_max)

    def sanity(self, inputs) -> list[str]:
        return []  # no block path; bitwise agreement across runs is checked by run.py

    def digest(self, output) -> str:
        return series_digest(output)

    def expected_calls(self, inputs) -> dict[str, int]:
        T = self.t_max
        return {"classical.series": 1, "classical.fill": 1, "classical.step": T,
                "cellmaps.map": T, "classical.dist": T + 1,
                "observables.dist_check": T + 1, "observables.stats": 3 * (T + 1)}

    def corrupt(self, output) -> None:
        output.distributions[1].probs[0] += 0.25


class CliExport:
    """``cli.main`` in process: a distribution-emitting DFT sweep to CSV, then a
    Harper phase-space portrait to JSON."""

    def __init__(self, name: str, L: int, t_max: int, sweep_M: tuple[int, ...], n_traj: int,
                 n_steps: int):
        self.name, self.L, self.t_max, self.sweep_M = name, L, t_max, sweep_M
        self.n_traj, self.n_steps = n_traj, n_steps

    def setup(self, seed: int, scratch: Path):
        g = harper_g(seed)
        csv_path, json_path = scratch / "sweep.csv", scratch / "portrait.json"
        sweep = ["sweep", "--coin", "dft", "--L", str(self.L), "--t-max", str(self.t_max),
                 "--sweep", "M=" + ",".join(map(str, self.sweep_M)), "--emit-distributions",
                 "--out", str(csv_path)]
        portrait = ["phase-space", "--map", "harper", "--g", repr(g),
                    "--n-trajectories", str(self.n_traj), "--n-steps", str(self.n_steps),
                    "--seed", str(seed), "--format", "json", "--out", str(json_path)]
        return SimpleNamespace(seed=seed, g=g, argvs=(sweep, portrait),
                               paths=(csv_path, json_path))

    def run(self, inputs):
        return SimpleNamespace(codes=[cli.main(argv) for argv in inputs.argvs],
                               paths=inputs.paths)

    def work(self, inputs, output) -> float:
        return sum(p.stat().st_size for p in output.paths) / 1e6

    def check(self, inputs, output) -> list[str]:
        if output.codes != [0, 0]:
            return [f"cli: exit codes {output.codes}, expected [0, 0]"]
        return self._check_csv(output.paths[0]) + self._check_json(inputs, output.paths[1])

    def _check_csv(self, path: Path) -> list[str]:
        lines = path.read_text().splitlines()
        header = ["M", "time", "msd", "entropy", "pr"] + [f"p{l}" for l in range(self.L)]
        n_rows = len(self.sweep_M) * (self.t_max + 1)
        if not lines or not lines[0].startswith("# ") or lines[1:2] != [",".join(header)]:
            return ["csv: metadata or header line is wrong"]
        rows = lines[2:]
        if len(rows) != n_rows:
            return [f"csv: {len(rows)} rows, expected {n_rows}"]
        for i, M in enumerate(self.sweep_M):
            config = walk.WalkConfig(L=self.L, coin=coins.CoinSpec("dft", M=M))
            lib = observables.run_time_series(config, self.t_max, keep_distributions=True)
            for t in range(self.t_max + 1):
                cells = rows[i * (self.t_max + 1) + t].split(",")
                if len(cells) != len(header):
                    return [f"csv: row M={M} t={t} has {len(cells)} columns, expected {len(header)}"]
                want = np.concatenate(([M, t, lib.msd[t], lib.entropy[t], lib.pr[t]],
                                       lib.distributions[t].probs))
                if not np.array_equal(np.array(cells, dtype=float), want):
                    return [f"csv: row M={M} t={t} differs from the library series"]
        return []

    def _check_json(self, inputs, path: Path) -> list[str]:
        doc = json.loads(path.read_text())
        records = doc.get("records", [])
        n = self.n_traj * self.n_steps
        if len(records) != n or any(set(r) != {"q", "p"} for r in records):
            return [f"json: {len(records)} records, expected {n} with keys q, p"]
        got = np.array([[r["q"], r["p"]] for r in records])
        want = classical.phase_portrait(classical.CellMap("harper", g=inputs.g),
                                        self.n_traj, self.n_steps, seed=inputs.seed)
        if not np.array_equal(got, want):
            return ["json: portrait differs from the library phase_portrait"]
        return []

    def sanity(self, inputs) -> list[str]:
        return block_vs_dense(coins.CoinSpec("dft", M=SANITY_M))

    def digest(self, output) -> str:
        h = hashlib.sha256()
        for p in output.paths:
            h.update(p.read_bytes())
        return h.hexdigest()

    def expected_calls(self, inputs) -> dict[str, int]:
        combos = len(self.sweep_M)
        calls = _walk_calls(self.t_max, runs=combos)
        # cli.parse: parser build + parse_args per command, settings merge + validation for the sweep
        calls.update({"coins.build": combos, "cli.parse": 6, "cli.command": 1,
                      "cli.combo": combos, "cli.phase_space": 1,
                      "cellmaps.map": self.n_steps - 1, "cli.render": 2, "cli.emit": 2})
        return calls

    def corrupt(self, output) -> None:
        path = output.paths[0]
        lines = path.read_text().splitlines(keepends=True)
        lines[-1] = "9" + lines[-1]
        path.write_text("".join(lines))


WORKLOADS = {wl.name: wl for wl in (
    QuantumSeries("quantum-chaotic", "harper", M=64, L=400, t_max=30, seeded_reference=True),
    QuantumSeries("quantum-hadamard", "dft", M=2, L=4096, t_max=750, seeded_reference=False),
    ClassicalSeries("classical-harper", L=100, t_max=15, n_points=1_000_000),
    CliExport("cli-export", L=1000, t_max=60, sweep_M=(2, 4), n_traj=100, n_steps=400),
)}
