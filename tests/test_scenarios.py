"""Replay the bundled regression scenarios and pin their key numbers."""
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import run_cli
from ngs.grids import load_profile

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

REPLAY = {
    "solve_cubic_free": ("solve", "models/power3_free.json",
                         "--mass", "4", "--grid-R", "20", "--grid-n", "2000"),
    "threshold_gaussian_well": ("threshold", "models/gaussian_well_cubic.json",
                                "--grid-R", "20", "--grid-n", "2000"),
    "spectrum_harmonic": ("spectrum", "models/harmonic.json",
                          "--grid-R", "20", "--grid-n", "2000"),
}


# the full command line is still accepted; --out alone is enough, as the
# manifest records the model and grid
@pytest.mark.parametrize("name, full", [
    *(pytest.param(name, True, id=name) for name in sorted(REPLAY)),
    *(pytest.param(name, False, id=f"{name}-out-only") for name in sorted(REPLAY)),
])
def test_scenario_passes_offline_verification(name, full):
    cmd, model, *rest = REPLAY[name]
    flags = ("--model", model, *rest) if full else ()
    proc = run_cli(cmd, *flags, "--out", SCENARIOS / name, "--verify", cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert "verification OK" in proc.stdout


def test_crlf_solve_scenario_loads_and_verifies(tmp_path):
    # profiles written before the one CSV writer end their lines in CRLF
    out = tmp_path / "solve_cubic_free"
    shutil.copytree(SCENARIOS / out.name, out)
    profile = out / "profile.csv"
    profile.write_bytes(profile.read_bytes().replace(b"\n", b"\r\n"))
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["outputs"]["profile.csv"] = hashlib.sha256(profile.read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))
    crlf, lf = load_profile(profile), load_profile(SCENARIOS / out.name / "profile.csv")
    assert np.array_equal(crlf.values, lf.values) and crlf.grid == lf.grid
    proc = run_cli("solve", "--out", out, "--verify")
    assert proc.returncode == 0, proc.stderr


def test_solve_scenario_matches_oracle():
    with open(SCENARIOS / "solve_cubic_free" / "result.json") as fh:
        stored = json.load(fh)
    # g = u^3, a = 4: multiplier 1 and C_4 = -2/3 exactly
    assert abs(stored["lambda"] - 1.0) <= 1e-3
    assert abs(stored["C_a"] + 2.0 / 3.0) <= 1e-3 * (2.0 / 3.0)
    assert stored["converged"]


def test_threshold_scenario_is_below_bracket():
    with open(SCENARIOS / "threshold_gaussian_well" / "threshold.json") as fh:
        stored = json.load(fh)
    assert stored["below_lower_bracket"]
    assert stored["a0"] <= 1e-3
    assert len(stored["evaluations"]) == 2


def test_spectrum_scenario_matches_eigenvalue():
    with open(SCENARIOS / "spectrum_harmonic" / "spectrum.json") as fh:
        stored = json.load(fh)
    assert abs(stored["infimum"] - 1.0) <= 1e-3


def _assert_rebuild_matches(scenario, files, out):
    cmd, model, *rest = REPLAY[scenario]
    proc = run_cli(cmd, "--model", model, *rest, "--out", out, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    for name in files:
        fresh = (out / name).read_bytes()
        committed = (SCENARIOS / scenario / name).read_bytes()
        assert fresh == committed, f"{name} drifted from the committed fixture"


def test_solve_scenario_rebuild_is_deterministic(tmp_path):
    _assert_rebuild_matches("solve_cubic_free",
                            ("result.json", "profile.csv", "trace.csv"),
                            tmp_path / "rebuild")


def test_threshold_scenario_rebuild_is_deterministic(tmp_path):
    # the sign probes must not change with the solver's convergence path
    _assert_rebuild_matches("threshold_gaussian_well", ("threshold.json",),
                            tmp_path / "rebuild")


def test_failed_rebuild_keeps_the_previous_scenario(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "build_scenarios", ROOT / "scripts" / "build_scenarios.py")
    build = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build)
    env = build._child_env()
    monkeypatch.setattr(build, "ROOT", tmp_path)
    monkeypatch.setattr(build, "SCENARIOS", tmp_path / "scenarios")
    kept = tmp_path / "scenarios" / "s"
    kept.mkdir(parents=True)
    (kept / "spectrum.json").write_text("kept")
    with pytest.raises(subprocess.CalledProcessError):
        build.rebuild("s", ["spectrum", "--model", "missing.json"], env)
    assert (kept / "spectrum.json").read_text() == "kept"
    assert sorted(p.name for p in (tmp_path / "scenarios").iterdir()) == ["s"]


def _scenario_files():
    return {(str(p.relative_to(SCENARIOS)), p.stat().st_mtime_ns,
             hashlib.sha256(p.read_bytes()).hexdigest())
            for p in SCENARIOS.rglob("*") if p.is_file()}


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--bogus"], 2)],
                         ids=["help", "unknown"])
def test_build_scenarios_arguments_do_not_rebuild(argv, code):
    # --help prints usage and an unknown argument is a usage error; neither
    # may touch the committed scenarios
    before = _scenario_files()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "build_scenarios.py"), *argv],
        capture_output=True, text=True, cwd=ROOT, env=os.environ.copy(),
    )
    assert proc.returncode == code, proc.stderr
    assert "usage:" in (proc.stdout if code == 0 else proc.stderr)
    assert _scenario_files() == before
