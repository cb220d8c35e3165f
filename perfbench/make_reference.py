"""Write reference.json: msd/entropy/pr of the quantum workloads at the default seed.

The stored series pin the results of the commit that generated them; run
checks compare against them within ``workloads.REFERENCE_TOL``.  Regenerate
only when the physics is meant to change:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json
import tempfile
from pathlib import Path

import workloads


def main() -> None:
    ref = {"seed": workloads.DEFAULT_SEED}
    for name in ("quantum-chaotic", "quantum-hadamard"):
        wl = workloads.WORKLOADS[name]
        with tempfile.TemporaryDirectory() as scratch:
            series = wl.run(wl.setup(workloads.DEFAULT_SEED, Path(scratch)))
        ref[name] = {key: getattr(series, key).tolist() for key in ("msd", "entropy", "pr")}
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
