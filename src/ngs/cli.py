"""Command-line front end.

Subcommands: solve (one mass), scan (a curve of masses), threshold (sign
change of the curve), spectrum (infimum of the quadratic form), validate
(structural classification of a model file). Every run that writes files
also writes a manifest with content hashes and every input; --verify with
--out alone replays a directory against it instead of recomputing.

Exit codes: 0 success/converged, 1 failure, partial result or numerical
breakdown, 2 converged to the spread no-minimizer regime, 3 vanishing
suspected, 64 usage errors, malformed model files and unallocatable sizes.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .curves import (
    bisect_threshold,
    quadratic_form_infimum,
    read_curve_csv,
    scan,
    subadditivity_check,
    threshold_a0,
    write_curve_csv,
    write_subadditivity_csv,
)
from .energy import discretization, evaluate
from .errors import BracketError, ModelFormatError, NumericalError
from .flow import SolverConfig, minimize
from .grids import RadialGrid, load_profile, save_profile
from .models import classify_V, classify_g, load_model, make_model
from .utils import round_floats, sha256_file, write_csv, write_json

MANIFEST_NAME = "manifest.json"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the documented usage exit code is 64
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(64)


class _Replay(argparse.Action):
    """--verify: the record in --out supplies every input, so only --out is required."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True)
        for action in parser._actions:
            action.required = action.dest == "out"


def _add_common(parser: argparse.ArgumentParser, handler, replay, *,
                needs_out: bool, solver: bool) -> None:
    parser.set_defaults(handler=handler, replay=replay, solver=solver)
    parser.add_argument("--model", required=True, help="model JSON file")
    parser.add_argument("--grid-R", type=float, default=20.0, metavar="X",
                        help="domain radius (default 20)")
    parser.add_argument("--grid-n", type=int, default=2000, metavar="K",
                        help="number of interior grid nodes (default 2000)")
    if solver:
        parser.add_argument("--tol", dest="tol_grad", type=float, default=None,
                            metavar="TOL", help="stationarity residual tolerance")
        parser.add_argument("--max-iters", type=int, default=None,
                            help="cap on the linear solves of each start on the "
                                 "search grid, those past its search tolerance "
                                 "included, and of the finish on n")
        parser.add_argument("--starts", type=int, default=None,
                            help="number of initial profiles, a warm start "
                                 "included: a scan mass or threshold probe "
                                 "that continues an earlier one runs it and "
                                 "starts - 1 Gaussians")
    parser.add_argument("--out", required=needs_out, default=None, metavar="DIR",
                        help="output directory")
    parser.add_argument("--verify", action=_Replay, nargs=0, default=False,
                        help="check an existing output directory against its "
                             "manifest instead of recomputing; needs only --out")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="ngs", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"ngs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("solve",
                       help="minimize at one mass and write the profile")
    _add_common(p, _cmd_solve, _replay_solve, needs_out=True, solver=True)
    p.add_argument("--mass", type=float, required=True, help="constraint value a")

    p = sub.add_parser("scan",
                       help="energy curve over a mass grid")
    _add_common(p, _cmd_scan, _replay_scan, needs_out=True, solver=True)
    p.add_argument("--a-min", type=float, required=True)
    p.add_argument("--a-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True,
                   help="number of masses (at least 3)")

    p = sub.add_parser("threshold",
                       help="bisect for the mass where the curve turns negative")
    _add_common(p, _cmd_threshold, _replay_threshold, needs_out=True, solver=True)
    p.add_argument("--a-lo", type=float, default=1e-3)
    p.add_argument("--a-hi", type=float, default=8.0)

    p = sub.add_parser("spectrum",
                       help="infimum of the kinetic-plus-potential quadratic form")
    _add_common(p, _cmd_spectrum, _replay_spectrum, needs_out=True, solver=False)

    p = sub.add_parser("validate",
                       help="structural classification of a model file")
    _add_common(p, _cmd_validate, _replay_validate, needs_out=False, solver=False)
    parser.required_flags = [(a, a.required) for p in sub.choices.values() for a in p._actions]
    return parser


# the SolverConfig fields that the solver flags set, under the same names;
# a scan replay rebuilds its config from these alone
_CONFIG_FIELDS = ("tol_grad", "max_iters", "starts")


def _hashes(out_dir: Path) -> dict:
    """File name -> SHA-256 of every file in out_dir but the manifest."""
    return {item.name: sha256_file(item) for item in sorted(out_dir.iterdir())
            if item.is_file() and item.name != MANIFEST_NAME}


class _Run:
    """What every computing run shares: model, grid, solver settings, clock, --out.

    The clock runs from the resolved inputs to make_out, which a command
    calls once its results are in, so a failed run leaves no directory.
    """

    def __init__(self, args, model):
        self.args, self.model = args, model
        self.grid = RadialGrid(N=model.N, R=args.grid_R, n=args.grid_n)
        self.config = SolverConfig(**{
            name: getattr(args, name) for name in _CONFIG_FIELDS
            if getattr(args, name) is not None
        }) if args.solver else None
        self.out_dir = None
        self.t0 = time.perf_counter()

    def make_out(self, **extra) -> Path:
        """Stop the clock and make --out; extra goes into the manifest."""
        self.wall = time.perf_counter() - self.t0
        self.extra = extra
        self.out_dir = Path(self.args.out)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir

    def write_record(self, name: str, payload: dict) -> None:
        """Write payload as JSON, stamped with the model fingerprint and grid."""
        write_json(self.out_dir / name, {
            **payload,
            "model_fingerprint": self.model.fingerprint(),
            "grid": dataclasses.asdict(self.grid),
        })

    def write_manifest(self) -> None:
        self.write_record(MANIFEST_NAME, {
            "tool": f"ngs {__version__}",
            "command": self.args.argv,
            "subcommand": self.args.command,
            "model": self.model.to_dict(),
            "config": dataclasses.asdict(self.config) if self.config else None,
            "wall_seconds": round(self.wall, 3),
            "outputs": _hashes(self.out_dir),
            **self.extra,
        })


def _cmd_solve(args, run: _Run) -> int:
    result = minimize(args.mass, run.model, run.grid, run.config)
    out_dir = run.make_out(mass=args.mass)
    run.write_record("result.json", result.to_dict())
    save_profile(result.u, out_dir / "profile.csv")
    write_csv(out_dir / "trace.csv", ("iter", "J"), result.energy_trace)

    tag = "converged" if result.converged else (result.reason or "not converged")
    solves = f"{result.iterations} solves"
    if result.start_grid_n != run.grid.n:
        solves = (f"{result.all_start_solves[result.start_index]} solves on "
                  f"n = {result.start_grid_n}, then {solves} on n = {run.grid.n}")
    print(f"a = {args.mass:.12g}: J = {result.C_a:.12g}, "
          f"lambda = {result.lam:.12g}, residual = {result.residual_norm:.3g} "
          f"({tag}, {solves})")
    for note in result.warnings:
        print(f"note: {note}")
    if result.converged:
        return 0
    if result.reason == "no-minimizer-regime":
        return 2
    if result.reason == "vanishing-suspected":
        return 3
    return 1


def _cmd_scan(args, run: _Run) -> int:
    if not args.a_min < args.a_max < math.inf:
        raise ValueError("--a-min must be below --a-max, both finite")
    if args.steps < 3:
        raise ValueError("--steps must be at least 3")
    masses = np.linspace(args.a_min, args.a_max, args.steps)
    curve = scan(masses, run.model, run.grid, run.config)
    out_dir = run.make_out(masses=masses.tolist())

    write_curve_csv(curve, out_dir / "curve.csv")
    report = subadditivity_check(curve)
    write_subadditivity_csv(report, out_dir / "subadditivity.csv")
    _write_gnuplot_script(out_dir / "curve.gp")

    n_conv = sum(1 for pt in curve.points if pt.converged)
    energies = curve.energies()
    neg = energies < 0
    print(f"curve: {len(curve.points)} masses, {n_conv} converged")
    if neg.all():
        sign = "negative throughout"
    elif not neg.any():
        sign = "nonnegative throughout"
    else:
        first = curve.points[int(np.argmax(neg))].a
        sign = f"turns negative by a = {first:.6g}"
    print(f"sign: {sign}")
    mono = curve.monotone_violations(tol=1e-10)
    print(f"monotone nonincreasing: {'yes' if mono == 0 else f'no ({mono} increases)'}")
    print(f"subadditive: {'yes' if report.ok else f'NO ({len(report.violations)} violations)'} "
          f"({len(report.rows)} testable pairs, {report.strict_count} strictly negative gaps)")
    if curve.partial:
        failed = ", ".join(f"{a:.6g}" for a in curve.failed_masses)
        print(f"partial curve: no convergence at a = {failed}")
        return 1
    return 0


def _cmd_threshold(args, run: _Run) -> int:
    found = threshold_a0(run.model, run.grid, run.config,
                         bracket=(args.a_lo, args.a_hi))
    run.make_out()
    run.write_record("threshold.json", {
        **found._asdict(), "evaluations": [e._asdict() for e in found.evaluations]})
    qualifier = "at or below" if found.below_lower_bracket else "within"
    print(f"a0 = {found.a0:.6g} ({qualifier} the bracket, half-width "
          f"{found.half_width:.3g}, {len(found.evaluations)} evaluations)")
    return 0


def _cmd_spectrum(args, run: _Run) -> int:
    value = quadratic_form_infimum(run.model, run.grid)
    run.make_out()
    bound = run.model.potential.c_ell
    run.write_record("spectrum.json", {"infimum": value, "potential_lower_bound": bound})
    print(f"quadratic form infimum = {value:.12g} (potential lower bound {bound:.12g})")
    return 0


def _classification_payload(model, grid) -> dict:
    discretization(grid, model)   # raises, as every other command does, where no -Lap exists
    return {
        "model_fingerprint": model.fingerprint(),
        "N": model.N,
        "nonlinearity": classify_g(model.nonlinearity)._asdict(),
        "potential": classify_V(model.potential, grid)._asdict(),
    }


def _cmd_validate(args, run: _Run) -> int:
    payload = _classification_payload(run.model, run.grid)
    if args.out:
        write_json(run.make_out() / "classification.json", payload)
    print(json.dumps(round_floats(payload), indent=2, sort_keys=True))
    return 0


def _write_gnuplot_script(path: Path) -> None:
    path.write_text(
        "# gnuplot script for the energy curve in curve.csv\n"
        "set datafile separator ','\n"
        "set xlabel 'a'\n"
        "set ylabel 'C_a'\n"
        "set grid\n"
        "set key left bottom\n"
        "plot 'curve.csv' every ::1 using 1:2 with linespoints title 'C_a', \\\n"
        "     0 with lines dashtype 2 notitle\n"
    )


def _verify_dir(args) -> int:
    """Check --out against its manifest, then run the replay, which yields mismatches."""
    out_dir = Path(args.out)
    manifest_path = out_dir / MANIFEST_NAME
    if not manifest_path.is_file():
        print(f"verification failed: no {MANIFEST_NAME} in {out_dir}",
              file=sys.stderr)
        return 1
    # a truncated, incomplete or unreplayable record fails verification; it is no crash
    try:
        manifest = json.loads(manifest_path.read_text())
        failures = []
        sub = manifest.get("subcommand")
        # a record replays only under the command that wrote it
        if sub != args.command:
            failures.append(f"{MANIFEST_NAME} records a {sub!r} run, "
                            f"not a {args.command!r} run")
        listed, actual = manifest.get("outputs", {}), _hashes(out_dir)
        for name, recorded in listed.items():
            if name not in actual:
                failures.append(f"missing output file {name}")
            elif actual[name] != recorded:
                failures.append(f"hash mismatch for {name}")
        failures.extend(f"unlisted file {name}" for name in actual if name not in listed)

        if not failures:
            failures.extend(args.replay(out_dir, manifest))
    except (OSError, ValueError, KeyError, TypeError, AttributeError, MemoryError,
            NumericalError) as exc:
        failures = [f"cannot replay the run record: {type(exc).__name__}: {exc}"]

    if failures:
        for f in failures:
            print(f"verification failed: {f}", file=sys.stderr)
        return 1
    print(f"verification OK: {len(listed)} files match ({sub} run)")
    return 0


def _recorded_inputs(manifest: dict) -> tuple:
    """The model and grid that a run record was computed on."""
    return make_model(**manifest["model"]), RadialGrid.from_dict(manifest["grid"])


def _replay_solve(out_dir: Path, manifest: dict):
    """Re-evaluate the stored profile against the stored energy."""
    model, _ = _recorded_inputs(manifest)
    stored = json.loads((out_dir / "result.json").read_text())
    # C_a_estimate: the name result.json gave C_a before flow.State
    c = stored["C_a"] if "C_a" in stored else stored["C_a_estimate"]
    j = evaluate(load_profile(out_dir / "profile.csv"), model).J
    if abs(j - c) > max(1e-8, 1e-8 * abs(c)):
        yield f"stored profile evaluates to J = {j:.12g}, result.json says {c:.12g}"


def _replay_scan(out_dir: Path, manifest: dict):
    """Re-minimize the first, middle and last converged masses."""
    model, grid = _recorded_inputs(manifest)
    # rebuilt from the fields the command line sets alone, so manifests
    # that record further (older) config keys still replay
    config = SolverConfig(**{name: manifest["config"][name]
                             for name in _CONFIG_FIELDS})
    usable = [pt for pt in read_curve_csv(out_dir / "curve.csv") if pt.converged]
    for idx in sorted({0, len(usable) // 2, len(usable) - 1} if usable else ()):
        pt = usable[idx]
        res = minimize(pt.a, model, grid, config)
        if abs(res.C_a - pt.C_a) > max(1e-7, 1e-5 * abs(pt.C_a)):
            yield (f"spot check at a = {pt.a:.6g}: recomputed C = "
                   f"{res.C_a:.12g} vs stored {pt.C_a:.12g}")


def _replay_threshold(out_dir: Path, manifest: dict):
    """Re-run the bisection on the recorded probe energies."""
    stored = json.loads((out_dir / "threshold.json").read_text())

    def recorded(a: float) -> float:
        for e in stored["evaluations"]:
            if math.isclose(e["a"], a, rel_tol=1e-9):
                # J: the name a probe gave C_a before flow.State
                return e["C_a"] if "C_a" in e else e["J"]
        raise LookupError(f"no recorded probe at a = {a:.12g}")

    try:
        a0, half_width, below = bisect_threshold(
            recorded, tuple(stored["bracket"]), stored["deadband"])
    except (BracketError, LookupError) as exc:
        yield f"bisection replay failed: {exc}"
        return
    if below != stored["below_lower_bracket"]:
        yield f"bisection replay gives below_lower_bracket = {below}"
    for key, value in (("a0", a0), ("half_width", half_width)):
        if not math.isclose(value, stored[key], rel_tol=1e-9, abs_tol=1e-12):
            yield (f"bisection replay gives {key} = {value:.12g}, "
                   f"stored {stored[key]:.12g}")


def _replay_spectrum(out_dir: Path, manifest: dict):
    """Recompute the infimum of the quadratic form."""
    stored = json.loads((out_dir / "spectrum.json").read_text())
    value = quadratic_form_infimum(*_recorded_inputs(manifest))
    if abs(value - stored["infimum"]) > max(1e-9, 1e-9 * abs(value)):
        yield f"recomputed infimum {value:.12g} vs stored {stored['infimum']:.12g}"


def _replay_validate(out_dir: Path, manifest: dict):
    """Reclassify the model and compare with the stored report."""
    fresh = round_floats(_classification_payload(*_recorded_inputs(manifest)))
    if fresh != json.loads((out_dir / "classification.json").read_text()):
        yield "classification no longer matches the stored report"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()   # one per process, shared by every call
    try:
        args = parser.parse_args(argv)
    finally:   # a --verify relaxes the required flags (_Replay) for its own parse only
        for action, flag in parser.required_flags:
            action.required = flag
    args.argv = argv   # the manifest's record of the command line
    if args.verify:
        return _verify_dir(args)
    try:
        model = load_model(args.model)
        # results go to --out only once computed; a file in the way fails now
        out = Path(args.out or ".")
        nearest = next(p for p in (out, *out.parents) if p.exists())
        if not nearest.is_dir():
            raise ValueError(f"--out {args.out}: {nearest} exists and is not a directory")
        run = _Run(args, model)
        code = args.handler(args, run)
    except ModelFormatError as exc:
        print(f"ngs: bad model file: {exc}", file=sys.stderr)
        return 64
    except (ValueError, MemoryError) as exc:   # MemoryError: a --grid-n or --steps too large
        print(f"ngs: {exc}", file=sys.stderr)
        return 64
    except BracketError as exc:
        print(f"ngs: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"ngs: numerical failure: {exc}", file=sys.stderr)
        return 1
    if run.out_dir is not None:
        run.write_manifest()
    return code


if __name__ == "__main__":
    sys.exit(main())
