"""End-to-end command-line runs against the bundled model files.

Most runs call ngs.cli.main in this process (helpers.run_cli), which spares
each the interpreter and SciPy start-up. A few run `python -m ngs` in a child
process (run_module): one per exit code 0, 1 and 64, and the numerical
failure, whose stderr must be free of the RuntimeWarnings that pytest
would capture in process.
"""
import contextlib
import hashlib
import io
import json
import math
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from helpers import MODELS_DIR, run_cli
from ngs import cli
from ngs.flow import STATE_COLUMNS


def run_module(*argv):
    """Run `python -m ngs` with argv in a child process."""
    return subprocess.run([sys.executable, "-m", "ngs", *map(str, argv)],
                          capture_output=True, text=True)


SMALL = ("--grid-R", "16", "--grid-n", "400")


def model_with(tmp_path, override):
    """gaussian_well_cubic with the top-level entries of override replaced."""
    model_json = json.loads((MODELS_DIR / "gaussian_well_cubic.json").read_text())
    model = tmp_path / "model.json"
    model.write_text(json.dumps({**model_json, **override}))
    return model


# --- validate ---

def test_validate_cubic_free_model():
    proc = run_module("validate", "--model", MODELS_DIR / "power3_free.json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    g = report["nonlinearity"]
    assert all(g[k] for k in ("G1", "G2", "G3", "G4", "G5"))
    assert g["alpha"] == 4.0
    assert g["small_s_regime"] == "superfast"
    v = report["potential"]
    assert v["V1"] and v["V2"]


def test_validate_writes_report_and_verifies(tmp_path):
    out = tmp_path / "cls"
    proc = run_cli("validate", "--model", MODELS_DIR / "harmonic_cubic.json",
                   "--out", out)
    assert proc.returncode == 0
    assert (out / "classification.json").is_file()
    assert (out / "manifest.json").is_file()
    check = run_cli("validate", "--model", MODELS_DIR / "harmonic_cubic.json",
                    "--out", out, "--verify")
    assert check.returncode == 0
    assert "verification OK" in check.stdout


# --- solve ---

@pytest.fixture(scope="module")
def solve_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve") / "run"
    proc = run_cli("solve", "--model", MODELS_DIR / "power3_free.json",
                   "--mass", "4", "--grid-R", "20", "--grid-n", "1200",
                   "--out", out)
    assert proc.returncode == 0, proc.stderr
    return out


def test_solve_oracle_case_artifacts(solve_dir):
    result = json.loads((solve_dir / "result.json").read_text())
    assert result["converged"] is True
    assert result["reason"] is None
    assert abs(result["lambda"] - 1.0) <= 1e-3
    assert abs(result["mass"] - 4.0) <= 1e-12 * 4.0
    assert {"nehari", "pohozaev"} <= set(result) and "residuals" not in result
    # the starts ran on n/2 and the winner was finished on n: the finish's
    # solves are the iterations, each accepted here, and the trace holds
    # its start and its accepted steps. The finish goes on with the shift
    # the converged winner ended on, so one Newton step is enough
    assert result["start_grid_n"] == 600
    assert (result["iterations"], result["trace_length"]) == (1, 2)
    assert result["iterations"] + result["all_start_solves"][result["start_index"]] <= 1000

    assert (solve_dir / "profile.csv").is_file()
    assert (solve_dir / "profile.json").is_file()
    trace = (solve_dir / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,J"
    assert len(trace) == result["trace_length"] + 1 > 2

    manifest = json.loads((solve_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "solve"
    assert set(manifest["outputs"]) == {
        "result.json", "profile.csv", "profile.json", "trace.csv"
    }


def test_solve_prints_the_solves_on_both_grids(tmp_path):
    # the starts ran on n/2 and the winner's finish on n: the summary line
    # names both, not only the finish's solves that result.json calls
    # iterations
    out = tmp_path / "run"
    proc = run_cli("solve", "--model", MODELS_DIR / "power3_free.json", "--mass", "4",
                   *SMALL, "--out", out)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((out / "result.json").read_text())
    searched = result["all_start_solves"][result["start_index"]]
    assert (f"(converged, {searched} solves on n = 200, then {result['iterations']} "
            f"solves on n = 400)") in proc.stdout


def test_manifest_records_the_parsed_command_line(solve_dir):
    # main(argv) run in process records its own argv, not the host's sys.argv
    manifest = json.loads((solve_dir / "manifest.json").read_text())
    assert manifest["command"] == [
        "solve", "--model", str(MODELS_DIR / "power3_free.json"), "--mass", "4",
        "--grid-R", "20", "--grid-n", "1200", "--out", str(solve_dir)]


def test_manifest_records_the_solver_settings(solve_dir):
    manifest = json.loads((solve_dir / "manifest.json").read_text())
    assert set(manifest["config"]) == {
        "tol_grad", "max_iters", "starts", "stop_energy_below"
    }


def test_solve_verify_roundtrip(solve_dir):
    check = run_cli("solve", "--model", MODELS_DIR / "power3_free.json",
                    "--mass", "4", "--out", solve_dir, "--verify")
    assert check.returncode == 0
    assert "verification OK" in check.stdout


def test_verify_catches_bit_corruption(solve_dir):
    target = solve_dir / "trace.csv"
    original = target.read_bytes()
    try:
        target.write_bytes(original + b"tail\n")
        check = run_cli("solve", "--model", MODELS_DIR / "power3_free.json",
                        "--mass", "4", "--out", solve_dir, "--verify")
        assert check.returncode == 1
        assert "hash mismatch" in check.stderr
    finally:
        target.write_bytes(original)


def test_verify_catches_unlisted_files(solve_dir):
    stray = solve_dir / "extra.txt"
    stray.write_text("not part of the run\n")
    try:
        check = run_cli("solve", "--model", MODELS_DIR / "power3_free.json",
                        "--mass", "4", "--out", solve_dir, "--verify")
        assert check.returncode == 1
        assert "unlisted file extra.txt" in check.stderr
    finally:
        stray.unlink()


def test_verify_catches_semantic_tampering(solve_dir):
    result_path = solve_dir / "result.json"
    manifest_path = solve_dir / "manifest.json"
    result_orig = result_path.read_bytes()
    manifest_orig = manifest_path.read_bytes()
    try:
        doctored = json.loads(result_orig)
        doctored["C_a"] = doctored["C_a"] - 0.1
        result_path.write_text(json.dumps(doctored, indent=2, sort_keys=True) + "\n")
        manifest = json.loads(manifest_orig)
        manifest["outputs"]["result.json"] = hashlib.sha256(
            result_path.read_bytes()
        ).hexdigest()
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        check = run_cli("solve", "--model", MODELS_DIR / "power3_free.json",
                        "--mass", "4", "--out", solve_dir, "--verify")
        assert check.returncode == 1
        assert "evaluates to" in check.stderr
    finally:
        result_path.write_bytes(result_orig)
        manifest_path.write_bytes(manifest_orig)


def test_solve_below_threshold_exits_2(tmp_path):
    out = tmp_path / "sub"
    proc = run_cli("solve", "--model", MODELS_DIR / "quintic_free.json",
                   "--mass", "1", *SMALL, "--out", out)
    assert proc.returncode == 2
    result = json.loads((out / "result.json").read_text())
    assert result["reason"] == "no-minimizer-regime"
    assert abs(result["C_a"]) < 1e-2


def _tabulated_cubic(tmp_path, r_tab, v_tab):
    model_path = tmp_path / "tabulated.json"
    model_path.write_text(json.dumps({
        "N": 1,
        "nonlinearity": {"kind": "power_sum",
                         "terms": [{"coef": 1.0, "sigma": 2.0}]},
        "potential": {"kind": "tabulated",
                      "table": {"r": r_tab.tolist(), "V": v_tab.tolist()}},
    }))
    return model_path


def test_solve_flat_runaway_exits_3(tmp_path):
    # a shallow well 200 wide: at this small mass the minimizer converges with
    # one sign, spread over the whole well, and no window |r - r0| <= 1 holds
    # 5% of its mass, while J < 0
    r_tab = np.arange(0.0, 222.0, 1.0)
    model_path = _tabulated_cubic(tmp_path, r_tab, np.where(r_tab < 200.0, -0.05, 0.0))
    out = tmp_path / "run"
    proc = run_cli("solve", "--model", model_path, "--mass", "0.01",
                   "--grid-R", "220", "--grid-n", "1100", "--out", out)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    result = json.loads((out / "result.json").read_text())
    assert result["reason"] == "vanishing-suspected"
    assert result["residual_norm"] <= 1e-8
    assert result["all_start_reasons"] == [None] * 3
    assert result["C_a"] < -1e-6


def test_solve_sign_changing_finish_keeps_its_reason(tmp_path):
    # a potential sloping to a plateau far out: the single start's finish
    # ends on a field whose minimum is the negative of its peak, which is
    # no ground state, spread or not
    r_tab = np.arange(0.0, 122.0, 1.0)
    v_tab = np.where(r_tab < 1.0, 0.0,
                     np.where(r_tab < 3.0, -(r_tab - 1.0) / 2.0, -1.0))
    out = tmp_path / "run"
    proc = run_cli("solve", "--model", _tabulated_cubic(tmp_path, r_tab, v_tab),
                   "--mass", "0.25", "--grid-R", "120", "--grid-n", "1000",
                   "--max-iters", "80000", "--starts", "1", "--out", out)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert json.loads((out / "result.json").read_text())["reason"] == "sign-change"


def test_solve_out_of_solves_keeps_its_reason(tmp_path):
    # below the quintic's threshold, but every run stops after 3 solves: the
    # spread regime is not reached, so no regime label and no exit 2
    out = tmp_path / "run"
    proc = run_cli("solve", "--model", MODELS_DIR / "quintic_free.json",
                   "--mass", "2.5", "--max-iters", "3", "--out", out)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    result = json.loads((out / "result.json").read_text())
    assert result["reason"] == "max-iters"
    assert result["all_start_reasons"] == ["max-iters"] * 3
    assert result["residual_norm"] > 1e-8


# --- usage errors ---

def test_nonpositive_mass_is_usage_error(tmp_path):
    proc = run_cli("solve", "--model", MODELS_DIR / "power3_free.json",
                   "--mass", "0", "--out", tmp_path / "x")
    assert proc.returncode == 64
    assert "mass" in proc.stderr


def test_unknown_flag_is_usage_error(tmp_path):
    proc = run_module("solve", "--model", MODELS_DIR / "power3_free.json",
                   "--mass", "1", "--out", tmp_path / "x", "--frobnicate")
    assert proc.returncode == 64


@pytest.mark.parametrize("argv", [
    ("spectrum", "--model", MODELS_DIR / "harmonic.json", "--tol", "1"),
    ("validate", "--model", MODELS_DIR / "harmonic.json", "--starts", "2"),
], ids=["spectrum-tol", "validate-starts"])
def test_solver_flags_are_unknown_where_no_solver_runs(tmp_path, argv):
    proc = run_cli(*argv, "--out", tmp_path / "x")
    assert proc.returncode == 64
    assert "unrecognized arguments" in proc.stderr
    assert not (tmp_path / "x").exists()


def test_missing_model_file_is_usage_error(tmp_path):
    proc = run_cli("solve", "--model", tmp_path / "nope.json",
                   "--mass", "1", "--out", tmp_path / "x")
    assert proc.returncode == 64
    assert "cannot read model file" in proc.stderr


def test_malformed_json_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"N": 1,\n  "nonlinearity": }\n')
    proc = run_cli("validate", "--model", bad)
    assert proc.returncode == 64
    assert "line 2" in proc.stderr
    assert "column" in proc.stderr


NAN_TABLE = {"potential": {"kind": "tabulated", "table": {
    "r": list(range(12)), "V": [-1.0, float("nan")] + [0.0] * 10}}}
INFINITE_WELL = {"potential": {"kind": "gaussian_well", "params": [float("inf"), 1.0]}}
INFINITE_COEF = {"nonlinearity": {"kind": "power_sum",
                                  "terms": [{"coef": float("inf"), "sigma": 2.0}]}}


@pytest.mark.parametrize("override,argv", [
    (NAN_TABLE, ("solve", "--mass", "1", *SMALL)),
    (NAN_TABLE, ("validate",)),
    (INFINITE_WELL, ("solve", "--mass", "1", *SMALL)),
    (INFINITE_COEF, ("validate",)),
    (None, ("solve", "--mass", "1", "--grid-R", "inf")),
    (None, ("spectrum", "--grid-R", "inf")),
    (None, ("solve", "--mass", "inf", *SMALL)),
    (None, ("threshold", "--a-hi", "inf", *SMALL)),
    (None, ("solve", "--mass", "1", "--tol", "inf", *SMALL)),
    (None, ("scan", "--a-min", "1", "--a-max", "inf", "--steps", "3", *SMALL)),
    (None, ("solve", "--mass", "1", "--starts", "2050", "--grid-n", "64")),
], ids=["nan-table-solve", "nan-table-validate", "infinite-well-solve",
        "infinite-coefficient-validate", "infinite-radius-solve",
        "infinite-radius-spectrum", "infinite-mass-solve",
        "infinite-bracket-threshold", "infinite-tolerance-solve",
        "infinite-mass-range-scan", "infinite-start-width-solve"])
def test_nonfinite_input_is_usage_error(tmp_path, override, argv):
    model = model_with(tmp_path, override or {})
    proc = run_cli(argv[0], "--model", model, *argv[1:], "--out", tmp_path / "x")
    assert proc.returncode == 64, proc.stdout + proc.stderr
    assert "finite" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_start_with_no_mass_on_the_grid_is_usage_error(tmp_path):
    # the 27th start has width 2^-13: its Gaussian underflows to zero on the grid
    out = tmp_path / "x"
    proc = run_cli("solve", "--model", MODELS_DIR / "power3_free.json",
                   "--mass", "4", "--starts", "27", "--out", out)
    assert proc.returncode == 64, proc.stdout + proc.stderr
    assert "width 0.00012207" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_scan_needs_three_steps(tmp_path):
    proc = run_cli("scan", "--model", MODELS_DIR / "gaussian_well_cubic.json",
                   "--a-min", "1", "--a-max", "2", "--steps", "2",
                   "--out", tmp_path / "x")
    assert proc.returncode == 64
    assert "steps" in proc.stderr


def test_scan_from_a_zero_mass_is_usage_error(tmp_path):
    # curves.scan rejects the mass before any solve, so no --out is made
    out = tmp_path / "x"
    proc = run_cli("scan", "--model", MODELS_DIR / "gaussian_well_cubic.json",
                   "--a-min", "0", "--a-max", "2", "--steps", "3", "--out", out)
    assert proc.returncode == 64
    assert proc.stderr == "ngs: masses must be positive\n"
    assert not out.exists()


# --- scan ---

@pytest.fixture(scope="module")
def scan_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("scan")
    outs = []
    for name in ("one", "two"):
        out = base / name
        proc = run_cli("scan", "--model", MODELS_DIR / "gaussian_well_cubic.json",
                       "--a-min", "0.5", "--a-max", "1.5", "--steps", "3",
                       *SMALL, "--out", out)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    return outs


def test_scan_outputs_and_summary(scan_dirs):
    out = scan_dirs[0]
    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[0] == ",".join(STATE_COLUMNS)
    assert lines[0].startswith("a,C_a,lambda,converged,nehari,pohozaev,")
    assert len(lines) == 4
    assert (out / "subadditivity.csv").read_text().splitlines()[0] == "a,b,gap"
    gp = (out / "curve.gp").read_text()
    assert "curve.csv" in gp
    manifest = json.loads((out / "manifest.json").read_text())
    assert "curve_fingerprint" not in manifest


def test_scan_outputs_are_deterministic(scan_dirs):
    one, two = scan_dirs
    for name in ("curve.csv", "subadditivity.csv"):
        assert (one / name).read_bytes() == (two / name).read_bytes()


def test_scan_verify_spot_check(scan_dirs):
    check = run_cli("scan", "--model", MODELS_DIR / "gaussian_well_cubic.json",
                    "--a-min", "0.5", "--a-max", "1.5", "--steps", "3",
                    "--out", scan_dirs[0], "--verify")
    assert check.returncode == 0
    assert "verification OK" in check.stdout


def test_in_process_calls_leak_no_flag_between_calls(scan_dirs, tmp_path):
    # a plain scan right after a --verify in the same process still
    # recomputes and writes its outputs
    argv = ("scan", "--model", MODELS_DIR / "gaussian_well_cubic.json",
            "--a-min", "0.5", "--a-max", "1.5", "--steps", "3", *SMALL)
    check = run_cli(*argv, "--out", scan_dirs[0], "--verify")
    assert check.returncode == 0
    assert "verification OK" in check.stdout
    out = tmp_path / "again"
    proc = run_cli(*argv, "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert "verification OK" not in proc.stdout
    assert "curve: 3 masses" in proc.stdout
    assert (out / "manifest.json").is_file()
    for name in ("curve.csv", "subadditivity.csv"):
        assert (out / name).read_bytes() == (scan_dirs[0] / name).read_bytes()


@pytest.fixture(scope="module")
def validate_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("validate") / "cls"
    proc = run_cli("validate", "--model", MODELS_DIR / "harmonic_cubic.json", "--out", out)
    assert proc.returncode == 0, proc.stderr
    return out


# argparse resolves an abbreviation before the flag acts, so --verif relaxes
# the required flags just as --verify does
@pytest.mark.parametrize("command, flag", [("scan", "--verify"), ("validate", "--verify"),
                                           ("validate", "--verif")],
                         ids=["scan", "validate", "validate-abbreviated"])
def test_verify_needs_only_out(scan_dirs, validate_dir, command, flag):
    out = scan_dirs[0] if command == "scan" else validate_dir
    check = run_cli(command, "--out", out, flag)
    assert check.returncode == 0, check.stderr
    assert "verification OK: " in check.stdout
    assert f"({command} run)" in check.stdout


def test_verify_without_out_is_usage_error():
    proc = run_cli("validate", "--verify")
    assert proc.returncode == 64
    assert "the following arguments are required: --out" in proc.stderr


def test_verify_relaxes_the_required_flags_of_its_own_run_only(validate_dir, tmp_path):
    # main parses with one parser per process: the flags that a --verify
    # relaxes are required again in the next run, and its help is unchanged
    assert run_cli("validate", "--out", validate_dir, "--verify").returncode == 0
    assert run_cli("solve", "--out", tmp_path / "none", "--verify").returncode == 1
    for _ in range(2):
        proc = run_cli("solve", "--out", tmp_path / "x")
        assert proc.returncode == 64
        assert "the following arguments are required: --model, --mass" in proc.stderr
    fresh = io.StringIO()
    with contextlib.redirect_stdout(fresh), pytest.raises(SystemExit):
        cli._build_parser.__wrapped__().parse_args(["solve", "--help"])
    assert run_cli("solve", "--help").stdout == fresh.getvalue()
    assert not (tmp_path / "x").exists()


def _copy_scan(scan_dir, tmp_path):
    out = tmp_path / "copy"
    shutil.copytree(scan_dir, out)
    return out, json.loads((out / "manifest.json").read_text())


def _verify_scan(out):
    return run_cli("scan", "--model", MODELS_DIR / "gaussian_well_cubic.json",
                   "--a-min", "0.5", "--a-max", "1.5", "--steps", "3",
                   "--out", out, "--verify")


def test_scan_verify_accepts_manifest_with_former_config_keys(scan_dirs, tmp_path):
    out, manifest = _copy_scan(scan_dirs[0], tmp_path)
    # every SolverConfig field of earlier versions, at its default
    manifest["config"] = {
        "dt": 0.01, "tol_grad": 1e-08, "tol_energy": 1e-12, "max_iters": 200000,
        "starts": 3, "seed": 0, "initial_width_scale": 1.0,
        "residual_check_every": 10, "stall_window": 5000,
        "stop_energy_below": None, "vanishing_fraction": 0.05, "deadband": 1e-06,
    }
    # a digest of the curve that scans wrote before; nothing reads it
    manifest["curve_fingerprint"] = "0123456789abcdef"
    (out / "manifest.json").write_text(json.dumps(manifest))
    check = _verify_scan(out)
    assert check.returncode == 0, check.stderr
    assert "verification OK" in check.stdout


def test_scan_verify_reads_a_curve_of_the_six_former_columns(scan_dirs, tmp_path):
    # curve.csv as scans wrote it before one record per state: the columns
    # a, C_a, lambda, converged, nehari, pohozaev alone
    out, manifest = _copy_scan(scan_dirs[0], tmp_path)
    curve = out / "curve.csv"
    curve.write_text("".join(",".join(line.split(",")[:6]) + "\n"
                             for line in curve.read_text().splitlines()))
    assert curve.read_text().splitlines()[0] == "a,C_a,lambda,converged,nehari,pohozaev"
    manifest["outputs"]["curve.csv"] = hashlib.sha256(curve.read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))
    check = _verify_scan(out)
    assert check.returncode == 0, check.stderr
    assert "verification OK" in check.stdout
    # a spot check still compares its C_a: a doctored six-column row fails
    lines = curve.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) - 0.1)
    curve.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    manifest["outputs"]["curve.csv"] = hashlib.sha256(curve.read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))
    check = _verify_scan(out)
    assert check.returncode == 1
    assert "spot check at a = 0.5" in check.stderr


def test_solve_scan_and_threshold_write_one_record(solve_dir, scan_dirs, tmp_path):
    # result.json's keys but the per-start lists, the warnings, the trace
    # length and the stamp, the curve.csv header and a probe's keys are the
    # one field list of flow.State
    result = json.loads((solve_dir / "result.json").read_text())
    extras = {"all_start_energies", "all_start_solves", "all_start_rejected_steps",
              "all_start_reasons", "all_start_residuals", "warnings", "trace_length",
              "model_fingerprint", "grid"}
    header = (scan_dirs[0] / "curve.csv").read_text().splitlines()[0].split(",")
    out = tmp_path / "thr"
    proc = run_cli("threshold", "--model", MODELS_DIR / "gaussian_well_cubic.json",
                   *SMALL, "--out", out)
    assert proc.returncode == 0, proc.stderr
    probes = json.loads((out / "threshold.json").read_text())["evaluations"]
    assert header == list(STATE_COLUMNS)
    assert [key for key in result if key not in extras] == sorted(header)
    assert all(list(probe) == sorted(header) for probe in probes)


@pytest.mark.parametrize("drop", [None, ("config", "tol_grad"), (None, "model"),
                                  (None, "grid")],
                         ids=["truncated", "config-without-tol_grad", "without-model",
                              "without-grid"])
def test_scan_verify_reports_malformed_manifest(scan_dirs, tmp_path, drop):
    out, manifest = _copy_scan(scan_dirs[0], tmp_path)
    if drop is None:
        text = json.dumps(manifest)[:40]
    else:
        section, key = drop
        del (manifest[section] if section else manifest)[key]
        text = json.dumps(manifest)
    (out / "manifest.json").write_text(text)
    check = _verify_scan(out)
    assert check.returncode == 1
    assert check.stderr.startswith("verification failed: ")
    assert "Traceback" not in check.stderr


@pytest.mark.parametrize("key", ["starts", "max_iters"])
def test_scan_verify_reports_a_count_that_is_not_an_integer(scan_dirs, tmp_path, key):
    # a start count of 2.5 used to fail inside the start widths with a
    # TypeError, and a cap of 2.5 solves to replay forever: neither count is
    # ever reached. The config rejects both, so the record cannot be replayed
    out, manifest = _copy_scan(scan_dirs[0], tmp_path)
    manifest["config"][key] = 2.5
    (out / "manifest.json").write_text(json.dumps(manifest))
    check = _verify_scan(out)
    assert check.returncode == 1
    assert check.stderr == ("verification failed: cannot replay the run record: "
                            f"ValueError: {key} must be an integer of at least 1, got 2.5\n")


@pytest.mark.parametrize("model,sign", [
    ("harmonic.json", "sign: nonnegative throughout"),
    ("harmonic_cubic.json", "sign: turns negative by a = 4.66667"),
], ids=["nonnegative", "turns-negative"])
def test_scan_sign_summary(tmp_path, model, sign):
    proc = run_cli("scan", "--model", MODELS_DIR / model, "--a-min", "1",
                   "--a-max", "12", "--steps", "4", *SMALL, "--out", tmp_path / "x")
    assert proc.returncode == 0, proc.stderr
    assert sign in proc.stdout.splitlines()


def test_scan_partial_curve_exits_1(tmp_path):
    # a budget below the 3-5 solves each cold start needs and the 1-2 of
    # its finish: no mass can converge, so none warm-starts the next
    out = tmp_path / "partial"
    proc = run_cli("scan", "--model", MODELS_DIR / "gaussian_well_cubic.json",
                   "--a-min", "0.5", "--a-max", "1.5", "--steps", "3",
                   *SMALL, "--max-iters", "1", "--out", out)
    assert proc.returncode == 1
    assert "partial curve" in proc.stdout
    lines = (out / "curve.csv").read_text().splitlines()[1:]
    assert all(line.split(",")[3] == "false" for line in lines)


# --- threshold and spectrum ---

def test_threshold_cli_trapping_well(tmp_path):
    out = tmp_path / "thr"
    proc = run_cli("threshold", "--model", MODELS_DIR / "gaussian_well_cubic.json",
                   *SMALL, "--out", out)
    assert proc.returncode == 0
    assert "at or below" in proc.stdout
    found = json.loads((out / "threshold.json").read_text())
    assert found["below_lower_bracket"] is True
    check = run_cli("threshold", "--model", MODELS_DIR / "gaussian_well_cubic.json",
                    "--out", out, "--verify")
    assert check.returncode == 0


def test_threshold_cli_bad_bracket_fails(tmp_path):
    proc = run_cli("threshold", "--model", MODELS_DIR / "harmonic_cubic.json",
                   *SMALL, "--a-lo", "0.5", "--a-hi", "1.0",
                   "--out", tmp_path / "thr")
    assert proc.returncode == 1
    assert proc.stderr.startswith("ngs: ")
    assert "enlarge" in proc.stderr


def test_failed_threshold_leaves_no_out_directory(tmp_path):
    out = tmp_path / "d"
    proc = run_cli("threshold", "--model", MODELS_DIR / "harmonic_cubic.json",
                   *SMALL, "--a-lo", "0.5", "--a-hi", "1.0", "--out", out)
    assert proc.returncode == 1
    assert not out.exists()


def test_out_naming_a_file_is_usage_error(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    # the file itself, or an ancestor of a directory still to be made
    for out in (taken, taken / "sub" / "run"):
        proc = run_cli("spectrum", "--model", MODELS_DIR / "harmonic.json",
                       *SMALL, "--out", out)
        assert proc.returncode == 64
        assert f"{taken} exists and is not a directory" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""   # refused before the infimum is computed
    assert taken.read_text() == ""


def test_numerical_failure_exits_1(tmp_path):
    # g = 1e300 u^3 overflows at the start field: its residual is infinite
    model_json = json.loads((MODELS_DIR / "power3_free.json").read_text())
    model_json["nonlinearity"]["terms"][0]["coef"] = 1e300
    model = tmp_path / "model.json"
    model.write_text(json.dumps(model_json))
    out = tmp_path / "x"
    proc = run_module("solve", "--model", model, "--mass", "4", *SMALL, "--out", out)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "degenerate field" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [("solve", "--mass", "1"), ("spectrum",), ("threshold",),
                                  ("validate",)],
                         ids=["solve", "spectrum", "threshold", "validate"])
def test_overflowing_potential_exits_1_without_warning(tmp_path, argv):
    # r^300 leaves the float range beyond r = 10.6, well inside R = 16
    model = model_with(tmp_path, {"potential": {"kind": "power_coercive",
                                                "params": [1.0, 300.0]}})
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        proc = run_cli(argv[0], "--model", model, *argv[1:], *SMALL, "--out", out)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "finite on the grid" in proc.stderr
    assert not out.exists()


# a grid whose cell volumes or face weights leave the float range is a usage
# error (64); one whose -Lap bands overflow is a numerical failure (1)
DEGENERATE_GRIDS = [
    *(("power2_free_3d", argv, R, 64, "leaves the float range") for R in ("1e200", "1e150")
      for argv in (("validate",), ("spectrum",), ("solve", "--mass", "1"))),
    *(("gaussian_well_cubic", argv, "1e-300", 1, "-Laplacian is not finite")
      for argv in (("solve", "--mass", "1"), ("spectrum",), ("threshold",), ("validate",))),
]


@pytest.mark.parametrize("name, argv, R, code, message", DEGENERATE_GRIDS,
                         ids=[f"{argv[0]}-R={R}" for _, argv, R, _, _ in DEGENERATE_GRIDS])
def test_degenerate_grid_exits_without_traceback_or_warning(tmp_path, name, argv, R, code,
                                                            message):
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        proc = run_cli(argv[0], "--model", MODELS_DIR / f"{name}.json", *argv[1:],
                       "--grid-R", R, "--out", out)
    assert proc.returncode == code, proc.stdout + proc.stderr
    assert proc.stderr.startswith("ngs: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr and "finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


# 10^18 nodes or masses ask for 6.9 EiB, which no machine can allocate: the
# request fails at once and nothing is allocated
HUGE = "1000000000000000000"


@pytest.mark.parametrize("argv", [("validate", "--grid-n", HUGE),
                                  ("solve", "--mass", "4", "--grid-n", HUGE),
                                  ("scan", "--a-min", "1", "--a-max", "2", "--steps", HUGE)],
                         ids=["validate", "solve", "scan"])
def test_a_size_past_memory_is_a_usage_error(tmp_path, argv):
    out = tmp_path / "x"
    proc = run_cli(argv[0], "--model", MODELS_DIR / "power3_free.json", *argv[1:],
                   "--out", out)
    assert proc.returncode == 64, proc.stdout + proc.stderr
    assert proc.stderr.startswith("ngs: ") and proc.stderr.count("\n") == 1
    assert "allocate" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def test_validate_reads_an_overflowing_r_dV_as_not_decayed(tmp_path):
    # r^300 is finite up to R = 10.64, but 300 r^300 is not
    model = model_with(tmp_path, {"potential": {"kind": "power_coercive",
                                                "params": [1.0, 300.0]}})
    proc = run_module("validate", "--model", model, "--grid-R", "10.64", "--grid-n", "400")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["potential"] == {
        "V1": True, "V2": True, "coercive": True, "decay_of_dVx": False}


# a consistent bisection record: bracket (2, 2.1), sign change near 2.06
THRESHOLD_RECORD = {
    "bracket": [2.0, 2.1], "deadband": 1e-6, "below_lower_bracket": False,
    "a0": 2.05625, "half_width": 0.00625,
    "evaluations": [
        {"a": a, "J": j, "converged": True, "reason": None}
        for a, j in ((2.1, -0.01), (2.0, 0.0), (2.05, 0.0), (2.075, -0.004),
                     (2.0625, -0.001))
    ],
}


def _verify_threshold_record(out, record):
    out.mkdir()
    (out / "threshold.json").write_text(json.dumps(record))
    digest = hashlib.sha256((out / "threshold.json").read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(
        {"subcommand": "threshold", "outputs": {"threshold.json": digest}}))
    return run_cli("threshold", "--model", MODELS_DIR / "quintic_free.json",
                   "--out", out, "--verify")


@pytest.mark.parametrize("path,value", [
    (("evaluations", 1, "J"), -0.5),   # negative at a_lo, yet not flagged below it
    (("evaluations", 0, "J"), 0.3),    # upper bracket not negative
    (("half_width",), 9.0),            # wider than the bracket
], ids=["negative-lower-bracket", "nonnegative-upper-bracket", "wide-half-width"])
def test_threshold_verify_rejects_impossible_record(tmp_path, path, value):
    assert _verify_threshold_record(tmp_path / "ok", THRESHOLD_RECORD).returncode == 0
    record = json.loads(json.dumps(THRESHOLD_RECORD))
    target = record
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    proc = _verify_threshold_record(tmp_path / "bad", record)
    assert proc.returncode == 1
    assert "bisection replay" in proc.stderr


@pytest.mark.parametrize("key,value", [("bracket", 2.0), ("a0", None)],
                         ids=["bracket-not-a-pair", "without-a0"])
def test_threshold_verify_reports_malformed_record(tmp_path, key, value):
    record = {k: v for k, v in THRESHOLD_RECORD.items() if k != key}
    if value is not None:
        record[key] = value
    proc = _verify_threshold_record(tmp_path / "bad", record)
    assert proc.returncode == 1
    assert proc.stderr.startswith("verification failed: ")
    assert "Traceback" not in proc.stderr


def test_verify_of_a_record_with_a_grid_past_memory_fails_verification(tmp_path):
    # and one whose potential is not finite on its grid: the replay raises
    # MemoryError or NumericalError, and either fails verification in one line
    for key, value, error in (("grid", {"n": int(HUGE)}, "MemoryError"),
                              ("model", {"potential": {"kind": "power_coercive",
                                                       "params": [1.0, 400.0]}},
                               "NumericalError: potential must be finite on the grid")):
        out = tmp_path / key
        shutil.copytree(MODELS_DIR.parent / "scenarios" / "spectrum_harmonic", out)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest[key].update(value)
        (out / "manifest.json").write_text(json.dumps(manifest))
        proc = run_cli("spectrum", "--out", out, "--verify")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert proc.stderr.startswith("verification failed: cannot replay the run record: "
                                      + error)
        assert proc.stderr.count("\n") == 1


def test_spectrum_harmonic(tmp_path):
    out = tmp_path / "spec"
    proc = run_cli("spectrum", "--model", MODELS_DIR / "harmonic.json",
                   "--grid-R", "12", "--grid-n", "400", "--out", out)
    assert proc.returncode == 0
    report = json.loads((out / "spectrum.json").read_text())
    assert abs(report["infimum"] - 1.0) <= 1e-3
    check = run_cli("spectrum", "--model", MODELS_DIR / "harmonic.json",
                    "--out", out, "--verify")
    assert check.returncode == 0


HARMONIC = ("--model", MODELS_DIR / "harmonic.json")


@pytest.mark.parametrize("command,recorded,infimum,flags", [
    ("spectrum", "bogus", 123.0, HARMONIC),    # unknown command, doctored infimum
    ("spectrum", None, 123.0, HARMONIC),       # no command recorded, doctored infimum
    ("validate", "spectrum", None, HARMONIC),  # an intact spectrum record
    ("validate", "spectrum", None, ()),
], ids=["unknown-subcommand", "missing-subcommand", "mismatched-command",
        "mismatched-command-out-only"])
def test_verify_rejects_record_of_another_command(tmp_path, command, recorded,
                                                  infimum, flags):
    out = tmp_path / "spec"
    shutil.copytree(MODELS_DIR.parent / "scenarios" / "spectrum_harmonic", out)
    manifest = json.loads((out / "manifest.json").read_text())
    if infimum is not None:
        report = json.loads((out / "spectrum.json").read_text())
        report["infimum"] = infimum
        (out / "spectrum.json").write_text(json.dumps(report))
        manifest["outputs"]["spectrum.json"] = hashlib.sha256(
            (out / "spectrum.json").read_bytes()).hexdigest()
    if recorded is None:
        del manifest["subcommand"]
    else:
        manifest["subcommand"] = recorded
    (out / "manifest.json").write_text(json.dumps(manifest))
    proc = run_cli(command, *flags, "--out", out, "--verify")
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr.startswith("verification failed: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def _tamper(out, name, edit):
    """Rewrite out/name through edit and record its new hash in the manifest."""
    path = out / name
    path.write_text(edit(path.read_text()))
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["outputs"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))


def _edit_json(change):
    def edit(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)
    return edit


def _lower_first_energy(text):
    # C_a of the first (converged) mass, 0.1 lower than the replay finds
    lines = text.splitlines()
    row = lines[1].split(",")
    row[1] = repr(float(row[1]) - 0.1)
    lines[1] = ",".join(row)
    return "\n".join(lines) + "\n"


def test_verify_reports_missing_output(tmp_path):
    out = tmp_path / "spec"
    shutil.copytree(MODELS_DIR.parent / "scenarios" / "spectrum_harmonic", out)
    (out / "spectrum.json").unlink()
    proc = run_cli("spectrum", "--model", MODELS_DIR / "harmonic.json",
                   "--out", out, "--verify")
    assert proc.returncode == 1, proc.stdout
    assert "missing output file spectrum.json" in proc.stderr


def test_scan_verify_reports_spot_check_mismatch(scan_dirs, tmp_path):
    out, _ = _copy_scan(scan_dirs[0], tmp_path)
    _tamper(out, "curve.csv", _lower_first_energy)
    check = _verify_scan(out)
    assert check.returncode == 1, check.stdout
    assert "verification failed: spot check at a = 0.5: recomputed C = " in check.stderr


def test_spectrum_verify_reports_recomputed_infimum(tmp_path):
    out = tmp_path / "spec"
    shutil.copytree(MODELS_DIR.parent / "scenarios" / "spectrum_harmonic", out)
    _tamper(out, "spectrum.json",
            _edit_json(lambda report: report.update(infimum=report["infimum"] + 0.5)))
    proc = run_cli("spectrum", "--model", MODELS_DIR / "harmonic.json",
                   "--out", out, "--verify")
    assert proc.returncode == 1, proc.stdout
    assert "verification failed: recomputed infimum " in proc.stderr
    assert " vs stored " in proc.stderr


def test_validate_verify_reports_changed_classification(tmp_path):
    out = tmp_path / "cls"
    argv = ("validate", "--model", MODELS_DIR / "harmonic_cubic.json", "--out", out)
    assert run_cli(*argv).returncode == 0
    _tamper(out, "classification.json",
            _edit_json(lambda report: report["nonlinearity"].update(G1=False)))
    proc = run_cli(*argv, "--verify")
    assert proc.returncode == 1, proc.stdout
    assert ("verification failed: classification no longer matches the stored "
            "report") in proc.stderr


TABLE_LENGTH_MISMATCH = {"potential": {"kind": "tabulated", "table": {
    "r": list(range(12)), "V": [-1.0] + [0.0] * 10}}}


@pytest.mark.parametrize("argv", [("validate",), ("spectrum", *SMALL)],
                         ids=["validate", "spectrum"])
def test_table_length_mismatch_is_bad_model_file(tmp_path, argv):
    model = model_with(tmp_path, TABLE_LENGTH_MISMATCH)
    out = tmp_path / "x"
    proc = run_cli(argv[0], "--model", model, *argv[1:], "--out", out)
    assert proc.returncode == 64, proc.stdout + proc.stderr
    assert "bad model file" in proc.stderr
    assert "12 radii but 11 values" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


CUBIC = {"kind": "power_sum", "terms": [{"coef": 1.0, "sigma": 2.0}]}


@pytest.mark.parametrize("override, where", [
    ({"N": math.inf}, "N must be the integer 1, 2 or 3, got inf"),
    ({"N": 1.5}, "N must be the integer 1, 2 or 3, got 1.5"),
    ({"N": True}, "N must be the integer 1, 2 or 3, got True"),
    ({"nonlinearity": None}, "nonlinearity must be a JSON object"),
    ({"nonlinearity": [1, 2]}, "nonlinearity must be a JSON object"),
    ({"potential": None}, "potential must be a JSON object"),
    ({"potential": {"kind": "harmonic", "params": [1.0, 99.0]}},
     "too many params for harmonic: got 2, it takes at most 1"),
    ({"potential": {"kind": "harmonic", "param": [3.0]}}, "potential has unknown key 'param'"),
    ({"potential": {"kind": "harmonic", "params": [3.0], "table": "t.csv"}},
     "potential has unknown key 'table'"),
    ({"nonlinearity": {"kind": "power_sum", "terms": [{"coef": 1.0, "sigma": 2.0, "extra": 5}]}},
     "nonlinearity term has unknown key 'extra'"),
    ({"nonlinearity": {**CUBIC, "termz": []}}, "nonlinearity has unknown key 'termz'"),
    ({"nonlinearity": {**CUBIC, "sigma": 4.0}}, "nonlinearity has unknown key 'sigma'"),
    ({"extra": 5}, "top level has unknown key 'extra'"),
    ({"potential": {"kind": "gaussian_well", "params": "12"}},
     "potential params must be a JSON list, got '12'"),
    ({"potential": {"kind": "harmonic", "params": "2"}},
     "potential params must be a JSON list, got '2'"),
    ({"nonlinearity": {"kind": "power_sum", "terms": {"coef": 1.0, "sigma": 2.0}}},
     "nonlinearity terms must be a JSON list"),
    ({"nonlinearity": {"kind": "power_sum", "terms": [{"coef": True, "sigma": 2.0}]}},
     "coef must be a number, got True"),
    ({"nonlinearity": {"kind": "power_sum", "terms": [{"coef": 1.0, "sigma": "2"}]}},
     "sigma must be a number, got '2'"),
    ({"potential": {"kind": "harmonic", "params": [True]}},
     "potential param must be a number, got True"),
    ({"potential": {"kind": "tabulated", "table": {"r": "01234567", "V": [0.0] * 8}}},
     "table r must be a JSON list, got '01234567'"),
    ({"potential": {"kind": "tabulated", "table": {"r": list(range(8)), "V": [0.0] * 8,
                                                   "v": [-1.0] * 8}}},
     "potential table has unknown key 'v'"),
    ({"potential": {"kind": "tabulated", "table": {"r": list(range(8)),
                                                   "V": [0.0] * 7 + [True]}}},
     "table V must be a number, got True"),
], ids=["N-infinite", "N-fractional", "N-boolean", "nonlinearity-null",
        "nonlinearity-list", "potential-null", "potential-extra-params",
        "potential-key", "table-not-tabulated", "term-key", "nonlinearity-termz",
        "nonlinearity-sigma", "top-level-key", "params-string", "params-one-char",
        "terms-object", "coef-boolean", "sigma-string", "param-boolean",
        "table-string", "table-key", "table-boolean"])
def test_malformed_model_entry_is_bad_model_file(tmp_path, override, where):
    # each is one usage line, never a traceback, and never read as another
    # model (N = 1.5 or true as N = 1, extra params dropped, a misspelt key
    # as its default, a string one character at a time)
    out = tmp_path / "out"
    proc = run_cli("validate", "--model", model_with(tmp_path, override), "--grid-n", "64",
                   "--out", out)
    assert proc.returncode == 64, proc.stdout + proc.stderr
    assert proc.stderr.startswith("ngs: bad model file: ")
    assert proc.stderr.count("\n") == 1 and where in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("table, where", [
    (None, "cannot read potential table"),
    ("", "is empty"),
    ("r,V\n0.0,-1.0\n1.0\n", "line 3"),
    ("r,V\n0.0,-1.0\n1.0,\"" + "x" * 200_000, "field larger than field limit"),
    ("r,V\n0.0,abc\n", "line 2"),
    ("r,V\n0.0,true\n", "line 2"),
], ids=["missing", "empty", "one-column", "overlong-field", "non-numeric", "boolean"])
def test_unreadable_potential_table_is_bad_model_file(tmp_path, table, where):
    model = model_with(tmp_path, {"potential": {"kind": "tabulated", "table": "table.csv"}})
    if table is not None:
        (tmp_path / "table.csv").write_text(table)
    proc = run_cli("validate", "--model", model)
    assert proc.returncode == 64, proc.stdout + proc.stderr
    assert proc.stderr.startswith("ngs: bad model file: ")
    assert "table.csv" in proc.stderr and where in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("edit", [
    lambda text: "",
    lambda text: text.replace("\n", "\n0.5\n", 2),
    lambda text: text + '1.0,"' + "x" * 200_000,
], ids=["empty", "one-column", "overlong-field"])
def test_solve_verify_of_a_truncated_profile_fails_verification(solve_dir, tmp_path, edit):
    out = tmp_path / "run"
    shutil.copytree(solve_dir, out)
    _tamper(out, "profile.csv", edit)
    proc = run_cli("solve", "--out", out, "--verify")
    assert proc.returncode == 1, proc.stdout
    assert "verification failed: cannot replay the run record" in proc.stderr
    assert "Traceback" not in proc.stderr
