"""Tests for the command-line experiment runner."""

import csv
import io
import json
import math
import os
import stat

import numpy as np
import pytest

from mapwalk import cellmaps, cli, coins
from mapwalk.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    return rows[0], rows[1:]


def test_single_run_record_count_and_columns(capsys):
    code, out, _ = run_cli(capsys, "run", "--coin", "dft", "--M", "2",
                           "--L", "100", "--t-max", "40")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["time", "msd", "entropy", "pr"]
    assert len(rows) == 41
    assert all(len(r) == len(header) for r in rows)


def test_fourier_lethargy_sweep_recipe(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--coin", "dft", "--L", "100",
                           "--t-max", "40", "--sweep", "M=2,10,40")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "M"
    assert len(rows) == 3 * 41
    # ordered by sweep value then time
    ms = [int(r[0]) for r in rows]
    assert ms == [2] * 41 + [10] * 41 + [40] * 41
    times = [int(r[1]) for r in rows[:41]]
    assert times == list(range(41))


def test_tr_breaking_cross_sweep_recipe(capsys):
    code, out, _ = run_cli(capsys, "run", "--coin", "harper", "--M", "40",
                           "--L", "100", "--t-max", "40",
                           "--sweep", "g=0.05,2", "--sweep", "phi=0,0.2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:2] == ["g", "phi"]
    assert len(rows) == 4 * 41
    combos = sorted({(float(r[0]), float(r[1])) for r in rows})
    assert combos == [(0.05, 0.0), (0.05, 0.2), (2.0, 0.0), (2.0, 0.2)]


def test_csv_metadata_echoes_parameters(capsys):
    _, out, _ = run_cli(capsys, "run", "--coin", "harper", "--M", "4",
                        "--L", "10", "--g", "1.5", "--t-max", "2")
    meta = [ln for ln in out.splitlines() if ln.startswith("#")]
    assert len(meta) == 1
    for token in ("coin=harper", "M=4", "L=10", "g=1.5", "tau=1.0", "t_max=2",
                  "partition=horizontal"):
        assert token in meta[0]


def metadata(out):
    """The echoed settings of a CSV output, as a dict of strings."""
    return dict(token.split("=", 1) for token in out.splitlines()[0][2:].split(" "))


@pytest.mark.parametrize("argv, echoed, ignored", [
    (["--coin", "dft", "--g", "2", "--tau", "3"], {"coin", "M", "L"}, "g,tau"),
    (["--coin", "dft", "--partition", "vertical", "--seed", "3"], {"coin", "M", "L", "phi"},
     "seed"),
    (["--coin", "baker", "--n-points", "7"], {"coin", "M", "L", "phi"}, "n_points"),
    (["--coin", "harper"], {"coin", "M", "L", "g", "tau", "phi"}, None),
    (["--classical", "rotation", "--coin", "harper", "--M", "8"], {"L", "seed", "n_points"},
     "coin,M"),
    (["--classical", "harper", "--phi", "0.2", "--g", "2"],
     {"L", "g", "tau", "seed", "n_points"}, "phi"),
])
def test_metadata_echoes_only_the_parameters_that_apply(capsys, argv, echoed, ignored):
    code, out, _ = run_cli(capsys, "run", "--L", "10", "--t-max", "1", *argv)
    assert code == 0
    meta = metadata(out)
    always = {"t_max", "partition", "classical", "emit_distributions"}
    assert set(meta) == echoed | always | ({"ignored"} if ignored else set())
    assert meta.get("ignored") == ignored


def test_parameters_ignored_from_the_config_file_are_named(tmp_path, capsys):
    cfg = tmp_path / "walk.cfg"
    cfg.write_text("coin = dft\nseed = 4\nphi = 0.3\n")
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--L", "10", "--t-max", "1",
                           "--g", "1", "--format", "json")
    assert code == 0
    params = json.loads(out)["params"]
    assert params["ignored"] == "g,phi,seed"
    assert not {"g", "phi", "seed"} & set(params)


def test_phase_space_metadata_echoes_only_the_map_parameters(capsys):
    _, out, _ = run_cli(capsys, "phase-space", "--map", "baker", "--g", "2", *_SMALL_PORTRAIT)
    assert metadata(out) == {"map": "baker", "n_trajectories": "2", "n_steps": "3", "seed": "0",
                             "ignored": "g"}
    _, out, _ = run_cli(capsys, "phase-space", "--map", "harper", *_SMALL_PORTRAIT)
    assert metadata(out) == {"map": "harper", "g": "1.0", "tau": "1.0", "n_trajectories": "2",
                             "n_steps": "3", "seed": "0"}


def test_json_mirrors_csv_numbers(capsys):
    args = ["run", "--coin", "dft", "--M", "2", "--L", "10", "--t-max", "5"]
    _, out_csv, _ = run_cli(capsys, *args)
    _, out_json, _ = run_cli(capsys, *args, "--format", "json")
    _, rows = parse_csv(out_csv)
    payload = json.loads(out_json)
    assert payload["params"]["coin"] == "dft"
    assert len(payload["records"]) == len(rows)
    for row, rec in zip(rows, payload["records"]):
        assert int(row[0]) == rec["time"]
        assert float(row[1]) == rec["msd"]
        assert float(row[2]) == rec["entropy"]
        assert float(row[3]) == rec["pr"]


def test_emit_distributions_columns(capsys):
    code, out, _ = run_cli(capsys, "run", "--coin", "dft", "--M", "2",
                           "--L", "8", "--t-max", "3", "--emit-distributions")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["time", "msd", "entropy", "pr"] + [f"p{l}" for l in range(8)]
    for row in rows:
        total = sum(float(x) for x in row[4:])
        assert abs(total - 1.0) < 1e-10


def test_classical_run_rotation_period(capsys):
    code, out, _ = run_cli(capsys, "run", "--classical", "rotation", "--L", "11",
                           "--t-max", "8", "--n-points", "2000", "--seed", "7")
    assert code == 0
    _, rows = parse_csv(out)
    msd = [float(r[1]) for r in rows]
    assert msd[0] == msd[4] == msd[8]
    assert msd[1] == msd[5]


def test_classical_output_deterministic(capsys):
    args = ["run", "--classical", "baker", "--L", "21", "--t-max", "6",
            "--n-points", "5000", "--seed", "3"]
    _, a, _ = run_cli(capsys, *args)
    _, b, _ = run_cli(capsys, *args)
    assert a == b


def test_phase_space_record_count_and_torus(capsys):
    code, out, _ = run_cli(capsys, "phase-space", "--map", "harper", "--g", "1",
                           "--n-trajectories", "100", "--n-steps", "1000",
                           "--seed", "5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["q", "p"]
    assert len(rows) == 100_000
    sample = rows[:: 997]
    assert all(0.0 <= float(q) < 1.0 and 0.0 <= float(p) < 1.0 for q, p in sample)


def test_phase_space_byte_deterministic_and_g_sensitive(capsys):
    args = ["phase-space", "--map", "harper", "--n-trajectories", "5",
            "--n-steps", "50", "--seed", "2"]
    _, a, _ = run_cli(capsys, *args, "--g", "0.01")
    _, b, _ = run_cli(capsys, *args, "--g", "0.01")
    _, c, _ = run_cli(capsys, *args, "--g", "1")
    assert a == b
    assert a != c


def test_config_file_with_cli_override(tmp_path, capsys):
    cfg = tmp_path / "walk.cfg"
    cfg.write_text("coin = dft\nM = 4\nL = 12\nt-max = 3\nformat = csv\n")
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--M", "2")
    assert code == 0
    meta = [ln for ln in out.splitlines() if ln.startswith("#")][0]
    assert "M=2" in meta          # command line wins
    assert "L=12" in meta         # file value kept
    _, rows = parse_csv(out)
    assert len(rows) == 4


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "walk.cfg"
    cfg.write_text("coinn = dft\n")
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert "coinn" in err


def test_invalid_field_exits_2_and_names_field(capsys):
    code, _, err = run_cli(capsys, "run", "--coin", "dft", "--M", "3")
    assert code == 2
    assert "M" in err
    code, _, err = run_cli(capsys, "run", "--coin", "harper", "--g", "-1")
    assert code == 2
    assert "g" in err
    code, _, err = run_cli(capsys, "run", "--phi", "1.5")
    assert code == 2
    assert "phi" in err


def test_bad_sweep_value_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", "--sweep", "M=3,4")
    assert code == 2
    assert "M" in err
    code, _, err = run_cli(capsys, "run", "--sweep", "q=1,2")
    assert code == 2
    assert "sweep" in err
    for sweep in ("M=2,inf", "L=10,nan"):
        code, _, err = run_cli(capsys, "run", "--sweep", sweep)
        assert code == 2
        assert f"sweep: {sweep[0]}" in err


def test_sweep_subcommand_requires_sweep(capsys):
    code, _, err = run_cli(capsys, "sweep", "--coin", "dft")
    assert code == 2
    assert "sweep" in err


def test_sweep_l_with_distributions_rejected(capsys):
    code, _, err = run_cli(capsys, "run", "--sweep", "L=10,20",
                           "--emit-distributions")
    assert code == 2
    assert "sweep" in err


def test_no_partial_file_on_config_error(tmp_path, capsys):
    out_file = tmp_path / "results.csv"
    code, _, _ = run_cli(capsys, "run", "--M", "5", "--out", str(out_file))
    assert code == 2
    assert not out_file.exists()


def test_output_file_written_atomically(tmp_path, capsys):
    out_file = tmp_path / "results.csv"
    code, _, _ = run_cli(capsys, "run", "--coin", "dft", "--M", "2", "--L", "10",
                         "--t-max", "2", "--out", str(out_file))
    assert code == 0
    header, rows = parse_csv(out_file.read_text())
    assert len(rows) == 3
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert not leftovers


@pytest.mark.parametrize("umask, existing, mode", [(0o022, None, 0o644), (0o077, None, 0o600),
                                                   (0o022, 0o600, 0o600)])
def test_output_file_mode_is_that_of_open(tmp_path, capsys, umask, existing, mode):
    # a new file gets 0o666 less the umask, an overwritten one keeps its mode
    out_file = tmp_path / "results.csv"
    if existing is not None:
        out_file.write_text("old\n")
        out_file.chmod(existing)
    old = os.umask(umask)
    try:
        code, _, _ = run_cli(capsys, "run", "--L", "10", "--t-max", "2", "--out", str(out_file))
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(out_file.stat().st_mode) == mode
    assert out_file.read_text().startswith("#")
    assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]


def test_full_precision_round_trip(capsys):
    _, out, _ = run_cli(capsys, "run", "--coin", "harper", "--M", "4",
                        "--L", "10", "--g", "2", "--t-max", "4")
    _, rows = parse_csv(out)
    # re-render the parsed numbers: 17 significant digits round-trip exactly
    for row in rows:
        for cell in row[1:]:
            x = float(cell)
            assert format(x, ".17g") == cell


def test_vertical_partition_accepted_and_close_to_horizontal(capsys):
    # expressing the coin in the conjugate basis is an inessential change:
    # the series differ, but stay the same order of magnitude
    base = ["run", "--coin", "harper", "--M", "8", "--L", "30", "--g", "2",
            "--t-max", "10"]
    _, h, _ = run_cli(capsys, *base)
    _, v, _ = run_cli(capsys, *base, "--partition", "vertical")
    _, rows_h = parse_csv(h)
    _, rows_v = parse_csv(v)
    msd_h = np.array([float(r[1]) for r in rows_h])
    msd_v = np.array([float(r[1]) for r in rows_v])
    assert not np.array_equal(msd_h, msd_v)
    assert msd_v[10] < 4 * msd_h[10] + 1.0
    assert msd_h[10] < 4 * msd_v[10] + 1.0


@pytest.mark.parametrize("line", ["map = harper", "n-trajectories = 5", "n-steps = 5",
                                  "config = other.cfg"])
def test_config_key_of_no_run_field_exits_2(tmp_path, capsys, line):
    # only the flag names of run/sweep are config keys
    cfg = tmp_path / "walk.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert repr(line.split(" = ")[0]) in err


def test_config_value_outside_choices_exits_2(tmp_path, capsys):
    cfg = tmp_path / "walk.cfg"
    cfg.write_text("coin = hadamard\n")
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert "coin:" in err


def test_sweep_repeated_values_exit_2(capsys):
    for sweep in ("M=2,2", "L=10,10.0", "phi=0.2,0,0.2"):
        code, out, err = run_cli(capsys, "sweep", "--coin", "baker", "--L", "10",
                                 "--t-max", "2", "--sweep", sweep)
        assert code == 2, sweep
        assert out == ""
        assert f"sweep: {sweep[0]}" in err


@pytest.mark.parametrize("coin, sweep", [("dft", "phi=0,0.3"), ("dft", "g=0,1"),
                                         ("baker", "g=0,1")])
def test_sweep_of_parameter_the_coin_ignores_exits_2(capsys, coin, sweep):
    code, out, err = run_cli(capsys, "sweep", "--coin", coin, "--L", "10", "--t-max", "2",
                             "--sweep", sweep)
    assert code == 2
    assert out == ""
    assert f"sweep: {sweep.split('=')[0]} does not apply" in err


def test_phi_sweep_applies_to_dft_under_vertical_partition(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--coin", "dft", "--partition", "vertical",
                           "--L", "10", "--t-max", "3", "--sweep", "phi=0,0.3")
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 2 * 4
    msd = {phi: [float(r[2]) for r in rows if float(r[0]) == phi] for phi in (0.0, 0.3)}
    assert len(msd[0.0]) == len(msd[0.3]) == 4
    assert abs(msd[0.0][3] - msd[0.3][3]) > 0.5  # phi rotates the coin: 3 vs 1.24


@pytest.mark.parametrize("kind, sweeps, name", [
    ("baker", ["M=2,4", "phi=0,0.3"], "M"),
    ("rotation", ["phi=0,0.3"], "phi"),
    ("rotation", ["g=0,1"], "g"),
    ("harper", ["M=2,4"], "M"),
])
def test_classical_sweep_of_parameter_the_map_ignores_exits_2(capsys, kind, sweeps, name):
    argv = ["sweep", "--classical", kind, "--L", "10", "--t-max", "2", "--n-points", "50"]
    for sweep in sweeps:
        argv += ["--sweep", sweep]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"sweep: {name} does not apply" in err


def test_applicable_sweeps_still_run(capsys):
    for argv in (["--coin", "baker", "--sweep", "phi=0,0.3"],
                 ["--classical", "harper", "--n-points", "50", "--sweep", "g=0,1"],
                 ["--classical", "rotation", "--n-points", "50", "--sweep", "L=10,12"]):
        code, out, _ = run_cli(capsys, "sweep", "--L", "10", "--t-max", "2", *argv)
        assert code == 0, argv
        assert len(parse_csv(out)[1]) == 2 * 3


@pytest.mark.parametrize("argv", [["run"], ["run", "--classical", "baker"],
                                  ["sweep", "--sweep", "M=2,4"], ["phase-space"]])
def test_negative_seed_exits_2_naming_seed(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "seed:" in err


def test_classical_lattice_size_checked(capsys):
    code, _, err = run_cli(capsys, "run", "--classical", "rotation", "--L", "1")
    assert code == 2
    assert "L:" in err


_SMALL_RUN = ["--M", "4", "--L", "10", "--t-max", "2"]
_SMALL_PORTRAIT = ["--n-trajectories", "2", "--n-steps", "3"]


@pytest.mark.parametrize("argv, field", [
    (["run", "--coin", "harper", *_SMALL_RUN, "--g", "nan"], "g"),
    (["run", "--coin", "harper", *_SMALL_RUN, "--tau", "inf"], "tau"),
    (["run", "--coin", "harper", *_SMALL_RUN, "--g", "1e200", "--tau", "1e200"], "tau*g"),
    (["run", "--coin", "harper", "--M", "64", "--L", "10", "--t-max", "2", "--g", "1e307"],
     "tau*g"),
    (["run", "--classical", "harper", *_SMALL_RUN, "--n-points", "10", "--g", "nan"], "g"),
    (["sweep", "--coin", "harper", *_SMALL_RUN, "--sweep", "g=1,inf"], "g"),
    (["phase-space", "--map", "harper", *_SMALL_PORTRAIT, "--g", "nan"], "g"),
    (["phase-space", "--map", "harper", *_SMALL_PORTRAIT, "--tau", "inf"], "tau"),
    (["phase-space", "--map", "harper", *_SMALL_PORTRAIT, "--g", "1e200", "--tau", "1e200"],
     "tau*g"),
])
def test_non_finite_harper_parameter_exits_2_naming_it(capsys, argv, field):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field}:")


def test_non_unitary_coin_is_a_runtime_error(capsys, monkeypatch):
    monkeypatch.setattr(coins, "_harper_matrix", lambda *args, **kwargs: np.ones((4, 4), complex))
    code, out, err = run_cli(capsys, "run", "--coin", "harper", *_SMALL_RUN)
    assert code == 1
    assert out == ""
    assert err.startswith("runtime error: coin matrix not unitary")


@pytest.mark.parametrize("target, argv", [
    ("classical_msd_series", ["run", "--classical", "baker", "--L", "10", "--t-max", "1",
                              "--n-points", "1000000000000"]),
    ("coin_matrix", ["run", "--coin", "dft", "--M", "2000000", "--L", "10", "--t-max", "1"]),
])
def test_allocation_failure_is_a_runtime_error_leaving_no_file(tmp_path, capsys, monkeypatch,
                                                              target, argv):
    # the failure is simulated: nothing of that size is ever allocated
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

    def fail(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, target, fail)
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out.csv"))
    assert code == 1
    assert out == ""
    assert err == f"runtime error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, failing, label", [
    (["--coin", "dft", "--sweep", "M=2,2000000"], {"M": 2000000}, "M=2000000"),
    (["--coin", "harper", "--M", "4", "--sweep", "g=0.5,2", "--sweep", "phi=0,0.2"],
     {"g": 2.0, "phi": 0.2}, "g=2.0 phi=0.2"),
])
def test_failing_sweep_combination_names_itself_leaving_no_file(tmp_path, capsys, monkeypatch,
                                                                 argv, failing, label):
    # the failure is simulated in one combination; the others run
    message = "Unable to allocate 29.1 TiB for an array with shape (2000000, 2000000)"
    build = cli.coin_matrix

    def fail_one(spec):
        if all(getattr(spec, name) == value for name, value in failing.items()):
            raise MemoryError(message)
        return build(spec)

    monkeypatch.setattr(cli, "coin_matrix", fail_one)
    code, out, err = run_cli(capsys, "sweep", "--L", "10", "--t-max", "1", *argv,
                             "--out", str(tmp_path / "out.csv"))
    assert code == 1
    assert out == ""
    assert err == f"runtime error: {label}: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_classical_sweep_above_chunk_size_matches_single_runs(capsys, monkeypatch):
    # the sweep threads and harper_map's chunk threads run at the same time
    monkeypatch.setattr(cellmaps, "_usable_cpus", lambda: 2)
    argv = ["--classical", "harper", "--L", "20", "--t-max", "4", "--emit-distributions",
            "--n-points", str(cellmaps.CHUNK_POINTS + 1), "--seed", "3"]
    code, out, _ = run_cli(capsys, "sweep", *argv, "--sweep", "g=1.5,2.5")
    assert code == 0
    want = []
    for g in ("1.5", "2.5"):
        code, single, _ = run_cli(capsys, "run", *argv, "--g", g)
        assert code == 0
        want += [f"{g},{line}" for line in single.splitlines()[2:]]
    assert out.splitlines()[2:] == want


EDGE_ROWS = [
    [0, 3, -0.0, 5e-324, 1e-300],
    [-7, 10**20, 0.1, 1e16, 123456789.125],
    [1, 2, math.nan, math.inf, -math.inf],
    [4, 5, 2.5, -1e308, 0.30000000000000004],
]
EDGE_HEADER = ["M", "time", "msd", "entropy", "p%d"]
EDGE_PARAMS = {"coin": "dft", "phi": "coin-default", "g": 0.0, "emit_distributions": False}


@pytest.mark.parametrize("rows", [EDGE_ROWS, EDGE_ROWS[2:3], [], [[0.5, 1], [2, 0.5]]])
def test_render_json_is_json_dumps_indent_1(rows):
    records = [dict(zip(EDGE_HEADER, row)) for row in rows]
    expected = json.dumps({"params": EDGE_PARAMS, "records": records}, indent=1) + "\n"
    assert cli._render_json(EDGE_PARAMS, EDGE_HEADER, rows) == expected


def test_render_csv_spells_ints_and_17_digit_floats():
    text = cli._render_csv({"L": 4}, EDGE_HEADER, EDGE_ROWS + [[0.5, 1], []])
    expected = ["# L=4", ",".join(EDGE_HEADER)] + [
        ",".join(str(x) if isinstance(x, int) else format(x, ".17g") for x in row)
        for row in EDGE_ROWS + [[0.5, 1], []]]
    assert text == "\n".join(expected) + "\n"
