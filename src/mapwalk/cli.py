"""Command-line experiment runner.

Subcommands
-----------
run
    Evolve one walk (quantum by default, classical with ``--classical``)
    and emit one record per time step with columns time, msd, entropy,
    pr, plus the full site distribution with ``--emit-distributions``.
sweep
    Same as ``run`` with at least one ``--sweep NAME=v1,v2,...`` over a
    parameter the coin or map uses; records carry the swept values as
    leading columns, ordered by sweep value, then time.  Runs execute
    concurrently on up to one thread per usable CPU, the caller's
    included; output assembly is serialized and deterministic.
phase-space
    Iterate seeded trajectories of a classical cell map and emit the
    visited (q, p) pairs, one record per point.

Configuration is a flat ``key = value`` file (``--config``) keyed by the
flag names, command-line flags taking precedence.  Output is CSV or JSON
with the parameters that apply to the run echoed in the metadata, and as
``ignored`` the names of those given that do not; numbers carry full
double precision so downstream comparisons stay exact.  Exit codes:
0 success, 2 configuration error, 1 runtime error (naming the swept values
of a failing sweep combination).  Output files are written atomically; a
failing run leaves no partial file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass
from itertools import product
from types import SimpleNamespace

from .cellmaps import parallel_map
from .coins import COIN_KINDS, CoinSpec, coin_matrix, coin_in_position_basis
from .walk import WalkConfig
from .observables import run_time_series, WalkTimeSeries
from .classical import (MAP_KINDS, CellMap, CellPartition, phase_portrait,
                        classical_msd_series)

__all__ = ["main"]

#: The sweepable parameters that each quantum coin, or each classical map (``--classical``),
#: uses; sweeping any other repeats rows.  The vertical partition adds ``phi`` to every coin.
COIN_SWEEPS = {"dft": ("M", "L"), "baker": ("M", "L", "phi"), "harper": ("M", "L", "g", "phi")}
MAP_SWEEPS = {"rotation": ("L",), "baker": ("L",), "harper": ("L", "g")}
SWEEPABLE = tuple(dict.fromkeys(sum((*COIN_SWEEPS.values(), *MAP_SWEEPS.values()), ())))


class ConfigError(Exception):
    """Invalid configuration; message names the offending field."""


class CombinationError(Exception):
    """A sweep combination failed at run time; message names its swept values."""


@dataclass(frozen=True)
class Field:
    """One setting: flag and config key, type, default, help, and the checks
    no library dataclass owns (the coin, map and walk constructors check the rest)."""

    name: str
    type: type
    default: object
    help: str
    choices: tuple = ()
    minimum: int | None = None

    @property
    def attr(self) -> str:
        return self.name.replace("-", "_")


_TAU = Field("tau", float, 1.0, "kick period (default 1)")
_SEED = Field("seed", int, 0, "RNG seed of classical ensembles and orbits", minimum=0)
_FORMAT = Field("format", str, "csv", "output format (default csv)", ("csv", "json"))
_OUT = Field("out", str, "-", "output path, '-' for stdout (default)")

#: The settings of ``run`` and ``sweep``, in the order the metadata echoes them.
RUN_FIELDS = (
    Field("coin", str, "dft", "quantum coin (default dft)", COIN_KINDS),
    Field("M", int, 2, "coin dimension (even)"),
    Field("L", int, 100, "number of lattice sites"),
    Field("g", float, 0.0, "Harper chaos parameter"),
    _TAU,
    Field("phi", float, None, "boundary phase in [0,1); default 0 (baker: 1/2)"),
    Field("t-max", int, 40, "number of time steps", minimum=1),
    Field("partition", str, "horizontal", "cell splicing orientation (default horizontal)",
          ("horizontal", "vertical")),
    _SEED,
    Field("classical", str, None, "run the classical multi-map walk instead", MAP_KINDS),
    Field("emit-distributions", bool, False, "append the site distribution to each record"),
    Field("n-points", int, 100_000, "classical ensemble size", minimum=1),
    Field("sweep", list, (), f"sweep a parameter ({', '.join(SWEEPABLE)}); repeatable"),
    _FORMAT,
    _OUT,
)

#: The settings of ``phase-space``, in the order the metadata echoes them.
PHASE_SPACE_FIELDS = (
    Field("map", str, "harper", "classical cell map (default harper)", MAP_KINDS),
    Field("g", float, 1.0, "Harper chaos parameter (default 1)"),
    _TAU,
    Field("n-trajectories", int, 100, "number of orbits (default 100)", minimum=1),
    Field("n-steps", int, 1000, "points per orbit (default 1000)", minimum=1),
    _SEED,
    _FORMAT,
    _OUT,
)


_BOOLS = {"true": True, "1": True, "false": False, "0": False}


def _parse_value(f: Field, text: str):
    if f.type is bool:
        return _BOOLS[text.lower()]
    if f.type is list:
        return [_parse_sweep_expr(part) for part in text.split()]
    return f.type(text)


def _parse_config_file(path: str) -> dict:
    """Flat key = value file; '#' starts a comment; keys are the flag names."""
    fields = {f.name: f for f in RUN_FIELDS}
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config: line {lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("_", "-")
        val = val.strip()
        if key not in fields:
            raise ConfigError(f"config: line {lineno}: unknown key {key!r}")
        try:
            value = _parse_value(fields[key], val)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"config: line {lineno}: bad value for {key!r}: {val!r}") from exc
        values[key] = values.get(key, []) + value if fields[key].type is list else value
    return values


def _parse_sweep_expr(expr: str) -> tuple[str, list]:
    """Syntax of NAME=v1,v2,...: values typed as the field, in ascending order."""
    name, sep, vals = expr.partition("=")
    name = name.strip()
    if not sep or name not in SWEEPABLE:
        raise ConfigError(f"sweep: expected NAME=v1,v2,... with NAME in {SWEEPABLE}, got {expr!r}")
    try:
        values = [float(v) for v in vals.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"sweep: non-numeric value in {expr!r}") from exc
    if not values:
        raise ConfigError(f"sweep: no values given in {expr!r}")
    if name in ("M", "L"):
        if not all(v.is_integer() for v in values):
            raise ConfigError(f"sweep: {name} values must be integers, got {expr!r}")
        values = [int(v) for v in values]
    return name, sorted(values)


def _settings(fields: tuple[Field, ...], args: argparse.Namespace,
              file_vals: dict) -> SimpleNamespace:
    """Each field from the command line, else the config file, else its default;
    ``given`` names the fields set by either."""
    s = SimpleNamespace(given=set())
    for f in fields:
        given = getattr(args, f.attr)
        if given is not None or f.name in file_vals:
            s.given.add(f.name)
        if f.type is list:  # sweeps from the file and the command line all apply
            value = file_vals.get(f.name, []) + [_parse_sweep_expr(e) for e in given or ()]
        else:
            value = file_vals.get(f.name, f.default) if given is None else given
        setattr(s, f.attr, value)
    return s


def _check_fields(fields: tuple[Field, ...], s: SimpleNamespace) -> None:
    for f in fields:
        value = getattr(s, f.attr)
        if f.choices and value is not None and value not in f.choices:
            raise ConfigError(f"{f.name}: must be one of {', '.join(f.choices)}, got {value!r}")
        if f.minimum is not None and value < f.minimum:
            raise ConfigError(f"{f.name}: must be >= {f.minimum}, got {value}")


def _merge_settings(args: argparse.Namespace) -> SimpleNamespace:
    file_vals = _parse_config_file(args.config) if args.config else {}
    return _settings(RUN_FIELDS, args, file_vals)


def _map_uses(kind: str) -> tuple[str, ...]:
    """The parameters a classical cell map of this kind uses."""
    return MAP_SWEEPS[kind] + ("tau",) * (kind == "harper")


def _applying(s: SimpleNamespace) -> set[str]:
    """The ``run``/``sweep`` fields that take effect: what the coin uses (or, with
    ``--classical``, the map and its seeded ensemble), and the walk's own settings."""
    if s.classical:
        uses = _map_uses(s.classical) + ("seed", "n-points")
    else:
        uses = (("coin",) + COIN_SWEEPS[s.coin] + ("tau",) * (s.coin == "harper")
                + ("phi",) * (s.partition == "vertical"))
    return {*uses, "t-max", "partition", "classical", "emit-distributions", "sweep"}


def _validate_settings(s: SimpleNamespace) -> list[tuple[tuple, WalkConfig, CellMap | None]]:
    """The single validation point of ``run``/``sweep`` settings: the swept
    values, walk config and (classical) cell map of every sweep combination."""
    _check_fields(RUN_FIELDS, s)
    uses = _applying(s)
    names = [name for name, _ in s.sweep]
    for name, values in s.sweep:
        if names.count(name) > 1:
            raise ConfigError(f"sweep: parameter {name!r} swept more than once")
        if name not in uses:
            what = f"classical {s.classical} map" if s.classical else f"{s.coin} coin"
            raise ConfigError(f"sweep: {name} does not apply to the {what}")
        if len(set(values)) < len(values):
            raise ConfigError(f"sweep: {name} values repeat")
    if s.emit_distributions and "L" in names:
        raise ConfigError("sweep: cannot sweep L together with --emit-distributions "
                          "(column count would vary)")
    runs = []
    for combo in product(*(values for _, values in s.sweep)):
        v = {"M": s.M, "L": s.L, "g": s.g, "phi": s.phi, **dict(zip(names, combo))}
        try:
            coin = CoinSpec(s.coin, M=v["M"], g=v["g"], tau=s.tau, phi=v["phi"])
            config = WalkConfig(L=v["L"], coin=coin)
            cell_map = CellMap(s.classical, g=v["g"], tau=s.tau) if s.classical else None
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        runs.append((combo, config, cell_map))
    return runs


def _single_series(s: SimpleNamespace, config: WalkConfig,
                   cell_map: CellMap | None) -> WalkTimeSeries:
    """One run of a validated sweep combination."""
    if cell_map is not None:
        return classical_msd_series(cell_map, CellPartition(orientation=s.partition), config.L,
                                    s.t_max, n_points=s.n_points, seed=s.seed,
                                    keep_distributions=s.emit_distributions)
    U = coin_matrix(config.coin)
    if s.partition == "vertical":
        U = coin_in_position_basis(U, config.coin.resolved_phi)
    return run_time_series(config, s.t_max, keep_distributions=s.emit_distributions, U=U)


def _fmt(x) -> str:
    return str(x) if isinstance(x, int) else f"{x:.17g}"


def _echoed(fields: tuple[Field, ...], s: SimpleNamespace, applying: set[str]) -> dict:
    """The settings that apply, in table order, then as ``ignored`` the names of
    those given that do not."""
    shown = [f for f in fields if f not in (_FORMAT, _OUT)]
    params = {f.attr: getattr(s, f.attr) for f in shown if f.name in applying}
    ignored = ",".join(f.attr for f in shown if f.name in s.given - applying)
    return {**params, "ignored": ignored} if ignored else params


def _resolved_params(s: SimpleNamespace) -> dict:
    """The settings echoed in the metadata of ``run``/``sweep``."""
    params = _echoed(RUN_FIELDS, s, _applying(s))
    if "phi" in params:
        params["phi"] = "coin-default" if s.phi is None else s.phi
    params["classical"] = s.classical or "no"
    params["sweep"] = " ".join(f"{n}={','.join(_fmt(v) for v in vals)}" for n, vals in s.sweep)
    if not s.sweep:
        del params["sweep"]
    return params


def _series_rows(series: WalkTimeSeries, prefix: list) -> list[list]:
    stats = zip(series.times.tolist(), series.msd.tolist(), series.entropy.tolist(),
                series.pr.tolist())
    rows = [prefix + list(values) for values in stats]
    for row, dist in zip(rows, series.distributions or ()):
        row.extend(dist.probs.tolist())
    return rows


def _run_command(s: SimpleNamespace) -> tuple[dict, list[str], list[list]]:
    runs = _validate_settings(s)

    def series(run: tuple) -> WalkTimeSeries:
        combo, config, cell_map = run
        try:
            return _single_series(s, config, cell_map)
        except (ValueError, OSError, MemoryError) as exc:
            if not s.sweep:
                raise
            values = " ".join(f"{name}={v}" for (name, _), v in zip(s.sweep, combo))
            raise CombinationError(f"{values}: {exc}") from exc

    results = parallel_map(series, runs)
    header = [name for name, _ in s.sweep] + ["time", "msd", "entropy", "pr"]
    if s.emit_distributions:
        header += [f"p{l}" for l in range(s.L)]
    rows: list[list] = []
    for (combo, _, _), series in zip(runs, results):
        rows.extend(_series_rows(series, list(combo)))
    return _resolved_params(s), header, rows


def _phase_space_command(s: SimpleNamespace) -> tuple[dict, list[str], list[list]]:
    _check_fields(PHASE_SPACE_FIELDS, s)
    try:
        cmap = CellMap(s.map, g=s.g, tau=s.tau)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    pts = phase_portrait(cmap, s.n_trajectories, s.n_steps, seed=s.seed)
    params = _echoed(PHASE_SPACE_FIELDS, s,
                     {"map", *_map_uses(s.map), "n-trajectories", "n-steps", "seed"})
    return params, ["q", "p"], pts.tolist()


def _formatted_rows(rows: list[list], specs: dict, template_of) -> list[str]:
    """Each row through one %-template, made by ``template_of`` from the ``specs``
    of its value types and reused for every row of the same types."""
    templates: dict[tuple, str] = {}
    lines = []
    for row in rows:
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = template_of([specs[k] for k in kinds])
        lines.append(template % tuple(row))
    return lines


def _render_csv(params: dict, header: list[str], rows: list[list]) -> str:
    """Rows of Python ints and floats, the floats with 17 significant digits."""
    lines = ["# " + " ".join(f"{k}={v}" for k, v in params.items()), ",".join(header)]
    lines += _formatted_rows(rows, {int: "%d", float: "%.17g"}, ",".join)
    return "\n".join(lines) + "\n"


def _render_json(params: dict, header: list[str], rows: list[list]) -> str:
    """The text of ``json.dumps({"params": ..., "records": ...}, indent=1)`` for
    rows of Python ints and floats, without passing the records through json."""
    head = json.dumps({"params": params, "records": []}, indent=1)
    if not rows:
        return head + "\n"
    keys = [json.dumps(k).replace("%", "%%") for k in header]

    def record(specs: list[str]) -> str:
        return "  {\n" + ",\n".join(f"   {k}: {s}" for k, s in zip(keys, specs)) + "\n  }"

    # %d and %r spell finite ints and floats as json does; a row with NaN or an
    # infinity, which json spells NaN/Infinity, goes through json.dumps cell by cell
    lines = _formatted_rows(rows, {int: "%d", float: "%r"}, record)
    for i, row in enumerate(rows):
        if not math.isfinite(sum(row)):
            lines[i] = record(["%s"] * len(row)) % tuple(map(json.dumps, row))
    return head[:-len("[]\n}")] + "[\n" + ",\n".join(lines) + "\n ]\n}\n"


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        return
    tmp = os.path.join(os.path.dirname(os.path.abspath(out)),
                       f".mapwalk-{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:  # mode 0o666 less the umask, as for out
            fh.write(text)
        if os.path.exists(out):  # an existing file keeps its mode, as with open(out, "w")
            shutil.copymode(out, tmp)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _add_flags(parser: argparse.ArgumentParser, fields: tuple[Field, ...]) -> None:
    for f in fields:
        flag = f"--{f.name}"
        if f.type is bool:
            parser.add_argument(flag, action="store_true", default=None, help=f.help)
        elif f.type is list:
            parser.add_argument(flag, action="append", metavar="NAME=V1,V2,...", help=f.help)
        else:
            parser.add_argument(flag, type=f.type, choices=f.choices or None, help=f.help)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapwalk",
        description="Coined quantum walks with quantized-map coins, and their "
                    "classical multi-map counterparts.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in (("run", "single walk run"),
                               ("sweep", "parameter sweep (requires --sweep)")):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="flat key = value configuration file")
        _add_flags(p, RUN_FIELDS)
    _add_flags(sub.add_parser("phase-space", help="classical phase-space portrait"),
               PHASE_SPACE_FIELDS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "phase-space":
            s = _settings(PHASE_SPACE_FIELDS, args, {})
            params, header, rows = _phase_space_command(s)
        else:
            s = _merge_settings(args)
            if args.command == "sweep" and not s.sweep:
                raise ConfigError("sweep: the sweep subcommand needs at least one --sweep")
            params, header, rows = _run_command(s)
        text = (_render_csv if s.format == "csv" else _render_json)(params, header, rows)
        _emit(text, s.out)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CombinationError, ValueError, OSError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
