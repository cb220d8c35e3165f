"""Byte-for-byte replay of the README command lines, at reduced sizes.

Each file under ``tests/golden/`` holds the exact standard output of one
``mapwalk`` command below.  Any change to a number, its formatting, the
metadata line or the record order shows up here.  After an intended output
change, rewrite the files with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff: for each file it rewrites, it prints how many numbers
changed and the largest absolute and relative change.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from mapwalk.cli import main

GOLDEN_DIR = Path(__file__).with_name("golden")

COMMANDS = {
    "run_dft.csv": ["run", "--coin", "dft", "--M", "2", "--L", "100", "--t-max", "40"],
    "run_dft.json": ["run", "--coin", "dft", "--M", "2", "--L", "20", "--t-max", "6",
                     "--format", "json"],
    "sweep_dft_M.csv": ["sweep", "--coin", "dft", "--L", "40", "--t-max", "16",
                        "--sweep", "M=2,10,40"],
    "sweep_dft_M.json": ["sweep", "--coin", "dft", "--L", "12", "--t-max", "4",
                         "--sweep", "M=2,4", "--format", "json"],
    "tr_breaking.csv": ["run", "--coin", "harper", "--M", "16", "--L", "40", "--t-max", "16",
                        "--sweep", "g=0.05,2", "--sweep", "phi=0,0.2"],
    "baker_vertical_dists.csv": ["run", "--coin", "baker", "--M", "4", "--L", "12",
                                 "--t-max", "6", "--partition", "vertical",
                                 "--emit-distributions"],
    "harper_phi_dists.json": ["sweep", "--coin", "harper", "--M", "6", "--L", "10", "--g", "2",
                              "--t-max", "4", "--sweep", "phi=0.2,0", "--emit-distributions",
                              "--format", "json"],
    "classical_baker.csv": ["run", "--classical", "baker", "--L", "20", "--t-max", "12",
                            "--n-points", "1000", "--seed", "1"],
    "classical_baker_redrawn.csv": ["run", "--classical", "baker", "--L", "130", "--t-max", "60",
                                    "--n-points", "2000", "--seed", "1",
                                    "--partition", "vertical"],
    "classical_rotation.csv": ["run", "--classical", "rotation", "--L", "11", "--t-max", "8",
                               "--n-points", "200", "--seed", "7"],
    "classical_harper_dists.json": ["run", "--classical", "harper", "--g", "2", "--L", "10",
                                    "--t-max", "5", "--n-points", "300", "--seed", "3",
                                    "--partition", "vertical", "--emit-distributions",
                                    "--format", "json"],
    "classical_harper_g.csv": ["sweep", "--classical", "harper", "--L", "16", "--t-max", "6",
                               "--n-points", "500", "--seed", "2", "--sweep", "g=0.5,2"],
    "config_file.csv": ["run", "--config", str(GOLDEN_DIR / "walk.cfg"), "--M", "4"],
    "portrait_harper.csv": ["phase-space", "--map", "harper", "--g", "0.05",
                            "--n-trajectories", "10", "--n-steps", "30", "--seed", "1"],
    "portrait_baker.json": ["phase-space", "--map", "baker", "--n-trajectories", "3",
                            "--n-steps", "5", "--seed", "4", "--format", "json"],
}


def _stdout_of(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, f"exit code {code} for {argv}"
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name):
    expected = (GOLDEN_DIR / name).read_bytes()
    assert _stdout_of(COMMANDS[name]) == expected


#: A number of the CSV/JSON text, not a digit inside a name such as p12.
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|NaN|Infinity)")


#: Below this both before and after, a change is round-off on a site the walk cannot reach.
ROUND_OFF = 1e-12


def number_changes(old: str, new: str) -> str:
    """How the numbers of a rewritten file moved: how many changed, how many of
    those became exact zeros or stayed round-off, and the largest absolute and
    relative change (relative to the larger magnitude) of the rest."""
    a, b = NUMBER.findall(old), NUMBER.findall(new)
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return "layout changed; numbers not compared"
    pairs = [(float(x), float(y)) for x, y in zip(a, b) if x != y]
    zeroed = sum(y == 0.0 for _, y in pairs)
    tiny = sum(y != 0.0 and max(abs(x), abs(y)) < ROUND_OFF for x, y in pairs)
    rest = [(x, y) for x, y in pairs if max(abs(x), abs(y)) >= ROUND_OFF]
    abs_max = max((abs(y - x) for x, y in rest), default=0.0)
    rel_max = max((abs(y - x) / max(abs(x), abs(y)) for x, y in rest), default=0.0)
    return (f"{len(pairs)} of {len(a)} numbers changed, {zeroed} to exact 0, {tiny} within "
            f"round-off; largest change of the rest {abs_max:.2g} absolute, "
            f"{rel_max:.2g} relative")


def test_number_changes_report():
    old = "# L=4\ntime,p0,p1\n0,7.8e-32,1\n1,0.25,0.75\n2,3e-33,0.5\n"
    new = "# L=4\ntime,p0,p1\n0,0,1\n1,0.25000000000000006,0.75\n2,4e-33,0.5\n"
    assert number_changes(old, new) == (
        "3 of 10 numbers changed, 1 to exact 0, 1 within round-off; largest change of the rest "
        "5.6e-17 absolute, 2.2e-16 relative")
    assert number_changes(old, old.replace("p1", "p1,p2")) == "layout changed; numbers not compared"

if __name__ == "__main__":
    for name, argv in sorted(COMMANDS.items()):
        path = GOLDEN_DIR / name
        old = path.read_text(encoding="utf-8") if path.exists() else ""
        new = _stdout_of(argv)
        if new == old.encode("utf-8"):
            print(f"unchanged {path}")
            continue
        path.write_bytes(new)
        print(f"wrote {path}: {number_changes(old, new.decode('utf-8'))}")

