"""Regenerate the bundled regression scenarios under scenarios/.

Each scenario is a command line run captured with its manifest, so
`python -m ngs <cmd> --out <dir> --verify` can replay the hash and semantic
checks offline. The three runs cover the solver (free cubic at the exactly
solvable mass), the threshold bisection (well model that is negative at the
lower bracket), and the quadratic-form eigenvalue (harmonic potential).

Rebuilding is deterministic: the solver takes no random input, so a rebuild
on the same platform reproduces the committed files byte for byte.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

RUNS = {
    "solve_cubic_free": [
        "solve", "--model", "models/power3_free.json",
        "--mass", "4", "--grid-R", "20", "--grid-n", "2000",
    ],
    "threshold_gaussian_well": [
        "threshold", "--model", "models/gaussian_well_cubic.json",
        "--grid-R", "20", "--grid-n", "2000",
    ],
    "spectrum_harmonic": [
        "spectrum", "--model", "models/harmonic.json",
        "--grid-R", "20", "--grid-n", "2000",
    ],
}


def main() -> int:
    for name, argv in RUNS.items():
        out = SCENARIOS / name
        if out.exists():
            shutil.rmtree(out)
        # relative to ROOT, so manifests do not record the checkout location
        rel = str(out.relative_to(ROOT))
        cmd = [sys.executable, "-m", "ngs", *argv, "--out", rel]
        print("+", " ".join(cmd[2:]))
        subprocess.run(cmd, cwd=ROOT, check=True)
        subprocess.run([*cmd, "--verify"], cwd=ROOT, check=True)
    print(f"\nrebuilt {len(RUNS)} scenarios under {SCENARIOS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
