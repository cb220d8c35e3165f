"""Byte-for-byte replay of the README command lines, at reduced sizes.

Each file under ``tests/golden/`` holds the exact standard output of one
``mapwalk`` command below.  Any change to a number, its formatting, the
metadata line or the record order shows up here.  After an intended output
change, rewrite the files with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

import contextlib
import io
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


if __name__ == "__main__":
    for name, argv in sorted(COMMANDS.items()):
        (GOLDEN_DIR / name).write_bytes(_stdout_of(argv))
        print(f"wrote {GOLDEN_DIR / name}")
