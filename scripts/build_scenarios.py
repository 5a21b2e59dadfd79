"""Regenerate the bundled regression scenarios under scenarios/.

Each scenario is a command line run captured with its manifest, so the
command with its --out and --verify replays the hash and semantic checks
offline, for example `python -m ngs solve --out scenarios/solve_cubic_free
--verify`; the manifest supplies the model and grid. The three runs cover
the solver (free cubic at the exactly solvable mass), the threshold
bisection (well model that is negative at the lower bracket), and the
quadratic-form eigenvalue (harmonic potential).

Rebuilding is deterministic: the solver takes no random input, so a rebuild
on the same platform reproduces the output files byte for byte. Each
manifest.json differs only in wall_seconds, the run's measured time.

Run it from any directory as `python scripts/build_scenarios.py`; it runs
the package from this checkout's src/ and takes no arguments besides
--help. A scenario's old directory is moved aside until its new run and
--verify succeed, and restored if either fails.
"""

import argparse
import os
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


def _child_env() -> dict:
    """The environment with the checkout's src first on PYTHONPATH."""
    env = os.environ.copy()
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def rebuild(name: str, argv: list, env: dict) -> None:
    """Run one scenario and verify it; on failure the old directory stays."""
    out = SCENARIOS / name
    old = out.with_name(f".{name}.old")
    if old.exists() and not out.exists():
        old.rename(out)       # left behind by an interrupted rebuild
    if old.exists():
        shutil.rmtree(old)
    if out.exists():
        out.rename(old)
    # relative to ROOT, so manifests do not record the checkout location
    rel = str(out.relative_to(ROOT))
    ngs = [sys.executable, "-m", "ngs"]
    cmd = [*ngs, *argv, "--out", rel]
    print("+", " ".join(cmd[2:]))
    try:
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
        # the manifest supplies every other input of the replay
        subprocess.run([*ngs, argv[0], "--out", rel, "--verify"],
                       cwd=ROOT, env=env, check=True)
    except BaseException:
        if out.exists():
            shutil.rmtree(out)
        if old.exists():
            old.rename(out)
        raise
    if old.exists():
        shutil.rmtree(old)


def main(argv=None) -> int:
    argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
    ).parse_args(argv)
    env = _child_env()
    for name, argv in RUNS.items():
        try:
            rebuild(name, argv, env)
        except subprocess.CalledProcessError as exc:
            print(f"scenario {name} failed (exit {exc.returncode}); "
                  f"its previous directory was kept", file=sys.stderr)
            return 1
    print(f"\nrebuilt {len(RUNS)} scenarios under {SCENARIOS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
