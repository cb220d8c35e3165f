"""Spans and counts at the package's module boundaries, installed from outside.

A module that imports a name with ``from .walk import _apply_blocks`` holds
its own binding, so each boundary function is wrapped in the namespace of
the module that calls it (and, for the benchmark's own calls, in the module
that defines it).  Nothing in the package changes.

Each call of a wrapped function records a span: name, start, end, the span
that was open on the same thread when it started (its parent), and counts
computed from its arguments.  Spans are kept in memory; appending is
guarded by a lock because sweep combinations run in a thread pool.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _step_counts(args, kwargs) -> dict:
    """Computed flop and compulsory bytes of one stacked block product.

    blocks (L, M, M) times psi (L, M) or (L, M, R): 8 flop per complex
    multiply-add; bytes are the blocks and psi read plus the result written.
    """
    blocks, psi = args
    L, M, _ = blocks.shape
    R = psi.shape[2] if psi.ndim == 3 else 1
    return {"flop": 8 * L * M * M * R, "bytes": 16 * (L * M * M + 2 * L * M * R)}


def _transform_counts(args, kwargs) -> dict:
    """Computed flop and compulsory bytes of one bundle site transform.

    psi (L, M, R): a length-L complex FFT per column (5 L log2 L flop),
    |.|^2 (3 flop) and the coin sum (1 flop) per element; bytes are psi read
    and the L probabilities written.
    """
    (psi,) = args
    L, M, R = psi.shape
    return {"flop": M * R * (5 * L * math.log2(L) + 4 * L), "bytes": 16 * L * M * R + 8 * L}


def _point_counts(args, kwargs) -> dict:
    return {"points": len(args[0])}


def _row_counts(args, kwargs) -> dict:
    return {"rows": len(args[2])}


def _emit_counts(args, kwargs) -> dict:
    return {"bytes": len(args[0])}  # the rendered text is ASCII


def boundaries() -> list[tuple]:
    """(owner, attribute, span name, counts function) for every wrapped call site."""
    from mapwalk import classical, cli, coins, observables

    stats = [(mod, fn, "observables.stats", None)
             for mod in (observables, classical)
             for fn in ("msd", "site_entropy", "participation_ratio")]
    return [
        (coins, "coin_matrix", "coins.build", None),
        (observables, "coin_matrix", "coins.build", None),
        (cli, "coin_matrix", "coins.build", None),
        (observables, "build_momentum_blocks", "walk.blocks", None),
        (observables, "_apply_blocks", "walk.step", _step_counts),
        (observables, "run_time_series", "observables.series", None),
        (cli, "run_time_series", "observables.series", None),
        (observables, "_bundle_site_probs", "observables.site_transform", _transform_counts),
        (observables.SiteDistribution, "__post_init__", "observables.dist_check", None),
        *stats,
        (classical, "harper_map", "cellmaps.map", _point_counts),
        (classical, "classical_msd_series", "classical.series", None),
        (classical, "multi_map_step", "classical.step", None),
        (classical, "classical_site_distribution", "classical.dist", None),
        (classical.PhaseEnsemble, "uniform_fill", "classical.fill", None),
        (cli, "_build_parser", "cli.parse", None),
        (cli, "_merge_settings", "cli.parse", None),
        (cli, "_validate_settings", "cli.parse", None),
        (cli, "_run_command", "cli.command", None),
        (cli, "_single_series", "cli.combo", None),
        (cli, "_phase_space_command", "cli.phase_space", None),
        (cli, "_render_csv", "cli.render", _row_counts),
        (cli, "_render_json", "cli.render", _row_counts),
        (cli, "_emit", "cli.emit", _emit_counts),
    ]


class Tracer:
    """Installs the boundary wrappers and turns the recorded spans into metrics."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.names: set[str] = set()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []

    def wrap(self, fn, name: str, counts=None):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(sid, parent, name, start, end, counts(args, kwargs) if counts else {})
                with self._lock:
                    self.spans.append(span)
        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        for owner, attr, name, counts in boundaries():
            self.names.add(name)
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(original.__func__, name, counts))
            elif attr == "_build_parser":
                replacement = self._wrap_parser_factory(original, name)
            else:
                replacement = self.wrap(original, name, counts)
            setattr(owner, attr, replacement)
            self._restore.append((owner, attr, original))

    def _wrap_parser_factory(self, factory, name: str):
        traced_factory = self.wrap(factory, name)

        def build():
            parser = traced_factory()
            parser.parse_args = self.wrap(parser.parse_args, name)
            return parser
        return functools.update_wrapper(build, factory)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def call_count_failures(self, expected: dict[str, int]) -> list[str]:
        """Every wrapped boundary must be called exactly as often as the workload implies."""
        calls = defaultdict(int)
        for s in self.spans:
            calls[s.name] += 1
        return [f"trace: {name} called {calls[name]} times, expected {expected.get(name, 0)}"
                for name in sorted(self.names | set(expected))
                if calls[name] != expected.get(name, 0)]

    def metrics(self, run_start: float, run_end: float) -> dict[str, float]:
        """Per-layer totals over the whole process (set-up included)."""
        by_name = defaultdict(list)
        children = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)
            children[s.parent].append(s)

        def total(name):
            return sum((s.duration for s in by_name[name]), 0.0)

        def count(name, key):
            return sum(s.counts[key] for s in by_name[name])

        def self_time(name):
            return total(name) - sum((c.duration for s in by_name[name] for c in children[s.id]), 0.0)

        steps_ms = sorted(s.duration * 1e3 for s in by_name["walk.step"])
        map_s = total("cellmaps.map")
        workers = min(8, os.cpu_count() or 1)  # the sweep pool size cli.py chooses
        command_s = total("cli.command")
        return {
            "coins.build_s": total("coins.build"),
            "coins.build_calls": len(by_name["coins.build"]),
            "walk.blocks_s": total("walk.blocks"),
            "walk.step_s": total("walk.step"),
            "walk.step_calls": len(steps_ms),
            "walk.step_ms_p50": _percentile(steps_ms, 0.50),
            "walk.step_ms_p99": _percentile(steps_ms, 0.99),
            "walk.step_gflops_computed": count("walk.step", "flop") / 1e9,
            "walk.step_bytes_computed": count("walk.step", "bytes"),
            "observables.site_transform_s": total("observables.site_transform"),
            "observables.site_transform_calls": len(by_name["observables.site_transform"]),
            "observables.site_transform_gflops_computed":
                count("observables.site_transform", "flop") / 1e9,
            "observables.site_transform_bytes_computed": count("observables.site_transform", "bytes"),
            "observables.dist_check_s": total("observables.dist_check"),
            "observables.stats_s": total("observables.stats"),
            "observables.loop_self_s": self_time("observables.series"),
            "cellmaps.map_s": map_s,
            "cellmaps.point_steps": count("cellmaps.map", "points"),
            "cellmaps.point_steps_per_s": count("cellmaps.map", "points") / map_s if map_s else 0.0,
            "classical.step_self_s": self_time("classical.step"),
            "classical.dist_s": total("classical.dist"),
            "classical.fill_s": total("classical.fill"),
            "cli.parse_s": total("cli.parse"),
            "cli.combo_s": total("cli.combo"),
            "cli.sweep_parallel_eff":
                total("cli.combo") / (command_s * workers) if command_s else 0.0,
            "cli.render_s": total("cli.render"),
            "cli.emit_s": total("cli.emit"),
            "cli.bytes_out": count("cli.emit", "bytes"),
            "cli.rows_out": count("cli.render", "rows"),
            "trace.unaccounted_s": (run_end - run_start) - _covered(self.spans, run_start, run_end),
        }


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _covered(spans: list[Span], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by at least one span, on any thread."""
    covered, reach = 0.0, lo
    for start, end in sorted((s.start, s.end) for s in spans):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered
