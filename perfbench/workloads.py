"""Workloads of the ngs benchmark: inputs from a seed, one pass, checks.

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned. The seed draws only
the inputs (masses, bracket) from the ranges fixed below; the program sees
nothing but those inputs. Every operation is checked against a reference
with the repository's acceptance tolerances, so a faster wrong answer
counts as a failed operation.

The library is called through module attributes (``flow.minimize``, not a
name imported here), so the tracer's rebinding reaches these calls too.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import signal
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
from scipy.linalg import eigh_tridiagonal

import ngs.cli as cli
import ngs.curves as curves
import ngs.energy as energy
import ngs.flow as flow
import ngs.grids as grids
import ngs.models as models
import ngs.oracle as oracle

TOWNES_MASS = math.sqrt(3.0) * math.pi / 2.0
GRID = {"N": 1, "R": 20.0, "n": 2000}


class OpLog:
    """Latency and outcome of every operation, and the unit ids spans carry.

    A unit is what the tracer tags spans with: one per operation, one per
    pass (for work outside any operation) and one per set-up.

    ``mark`` times the reference kernel (see ``calibration.py``): around
    set-up, at both ends of a pass and, in untraced passes, every
    SAMPLE_EVERY_S seconds from a timer signal. The program's work between
    two marks is a segment, scaled by the kernels at its two ends; kernel
    time is left out of every reported time.
    """

    SAMPLE_EVERY_S = 1.0

    def __init__(self, kernel, tracer=None):
        self.kernel = kernel
        self.tracer = tracer
        self.units = 0
        self.samples: list = []     # [start, end, ok, problems]
        self.marks: list = []       # (wall before, wall after, cpu before, cpu after, kernel_s)
        self._sampling = False

    def new_unit(self) -> int:
        unit = self.units
        self.units += 1
        if self.tracer is not None:
            self.tracer.op = unit
        return unit

    def mark(self):
        w0, c0 = perf_counter(), process_time()
        kernel_s = self.kernel.seconds()
        self.marks.append((w0, perf_counter(), c0, process_time(), kernel_s))

    def _sample(self, _signum, _frame):
        self.mark()
        # re-armed only now, so marks never nest and stay in time order
        if self._sampling:
            signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S)

    @contextlib.contextmanager
    def sampling(self):
        """Mark every SAMPLE_EVERY_S seconds of wall time, between bytecodes.

        Python runs the handler in the main thread between bytecodes, so a
        mark can fall inside any call of the program; its kernel time is
        excluded like that of every other mark.
        """
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sampling = True
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S)
        try:
            yield
        finally:
            self._sampling = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def time(self, t0: float, t1: float, cpu=False, scaled=True) -> float:
        """Program time between two instants, segment by segment, kernels left out.

        Instants are on the wall clock, or on the process CPU clock if cpu.
        """
        before, after = (2, 3) if cpu else (0, 1)
        total = 0.0
        for i in range(len(self.marks) - 1):
            lo = max(self.marks[i][after], t0)
            hi = min(self.marks[i + 1][before], t1)
            if hi > lo:
                total += (hi - lo) * (self.kernel.scale(
                    self.marks[i][4], self.marks[i + 1][4]) if scaled else 1.0)
        return total

    def begin(self) -> float:
        self.new_unit()
        return perf_counter()

    def end(self, t0: float, ok=True, problems=()):
        self.samples.append([t0, perf_counter(), ok, list(problems)])

    def run(self, call, check):
        """Time call() as one operation, then check its result outside the timer."""
        t0 = self.begin()
        try:
            result = call()
        except Exception as exc:  # an operation that raises is a failed operation
            self.end(t0, False, [f"raised {exc!r}"])
            traceback.print_exc(file=sys.stderr)
            return
        self.end(t0)
        try:
            problems = check(result)
        except Exception as exc:  # e.g. an output file the command never wrote
            problems = [f"check raised {exc!r}"]
        if problems:
            self.samples[-1][2:4] = [False, problems]


def _close(x, ref, tol):
    return abs(x - ref) <= tol


def _warm_up(model):
    """One short flow run on a coarse grid, so lazy imports happen in set-up."""
    flow.minimize(1.0, model, grids.RadialGrid(1, 20.0, 200),
                  flow.SolverConfig(max_iters=50, starts=1))


def form_infimum_reference(model, grid) -> float:
    """Lowest eigenvalue of the kinetic-plus-potential form, by a dense method.

    The form is the one ``quadratic_form_infimum`` minimizes: the edge-sum
    kinetic energy of ``grids.kinetic`` plus the weighted potential term,
    against the quadrature weights. Symmetrized with W^-1/2 it is a
    tridiagonal eigenproblem that LAPACK solves exactly.
    """
    N, h, r, w = grid.N, grid.h, grid.r, grid.w
    om = grids.SPHERE_MEASURE[N]
    edge = om * (0.5 * (r[:-1] + r[1:])) ** (N - 1) / h
    # origin edge: slope (u_1 - u(0))/h = (u_2 - u_1)/(3h) from the ghost value
    edge[0] += om * (0.5 * h) ** (N - 1) / h / 9.0
    diag = np.zeros(grid.n)
    diag[:-1] += edge
    diag[1:] += edge
    diag[-1] += om * (r[-1] + 0.5 * h) ** (N - 1) / h   # Dirichlet edge at R
    diag += w * model.potential.V(r)
    return float(eigh_tridiagonal(
        diag / w, -edge / np.sqrt(w[:-1] * w[1:]),
        eigvals_only=True, select="i", select_range=(0, 0))[0])


class GroundState:
    """minimize plus identity audit on five converging 1-D problems.

    Why: nearly all time goes to cold three-start flow steps (SuperLU
    solves, g/G, energy), with no bisection and no CLI I/O.
    """

    # (model, centre mass); the seed draws each mass within +-MASS_SPREAD
    CASES = (
        ("power3_free", 4.0),
        ("gaussian_well_cubic", 3.0),
        ("gaussian_well_mixed", 3.0),
        ("harmonic_cubic", 2.0),
        ("gaussian_well_deep", 2.0),
    )
    MASS_SPREAD = 0.05

    def __init__(self, root: Path, seed: int):
        self.root = root
        rng = random.Random(seed)
        self.masses = [a + rng.uniform(-self.MASS_SPREAD, self.MASS_SPREAD)
                       for _, a in self.CASES]

    def inputs(self) -> dict:
        return {name: a for (name, _), a in zip(self.CASES, self.masses)}

    def setup(self):
        grid = grids.RadialGrid(**GRID)
        cases = []
        for (name, _), a in zip(self.CASES, self.masses):
            model = models.load_model(self.root / "models" / f"{name}.json")
            has_potential = not model.potential.is_zero()
            cases.append({
                "name": name, "a": a, "model": model,
                "q_ref": form_infimum_reference(model, grid) if has_potential else None,
            })
        sol = oracle.shoot_Up(3.0, 1, grid)
        power3 = cases[0]
        ref = oracle.scale_solution(
            sol, oracle.lambda_for_mass(3.0, 1, power3["a"], base_mass=sol.mass))
        power3["oracle"] = (ref.lam, ref.energy_I, ref.profile.values)
        _warm_up(cases[0]["model"])
        return {"grid": grid, "cases": cases}

    def run_pass(self, state, log: OpLog):
        log.new_unit()
        grid = state["grid"]
        for case in state["cases"]:
            def call(case=case):
                model = case["model"]
                res = flow.minimize(case["a"], model, grid)
                ids = energy.identity_residuals(res.u, model, res.lam)
                report = energy.evaluate(res.u, model)
                q = (curves.quadratic_form_infimum(model, grid)
                     if case["q_ref"] is not None else None)
                return res, ids, report, q

            log.run(call, lambda out, case=case: self.check(case, grid, *out))

    @staticmethod
    def check(case, grid, res, ids, report, q) -> list:
        a, name = case["a"], case["name"]
        bad = []
        if not res.converged:
            bad.append(f"{name}: not converged ({res.reason})")
        if not _close(grids.mass(res.u), a, 1e-12 * a):
            bad.append(f"{name}: mass {grids.mass(res.u)!r} != {a!r}")
        # acceptance 3: Nehari and Pohozaev identities
        if not abs(ids.nehari) <= 1e-4:
            bad.append(f"{name}: |nehari| {ids.nehari:.3g} > 1e-4")
        poho_tol = max(1e-4, 10.0 * grid.h ** 2)
        if not abs(ids.pohozaev) <= poho_tol:
            bad.append(f"{name}: |pohozaev| {ids.pohozaev:.3g} > {poho_tol:.0e}")
        # the reported energy is the energy of the reported profile
        if not _close(report.J, res.energy, max(1e-8, 1e-8 * abs(res.energy))):
            bad.append(f"{name}: J(u) {report.J!r} != reported {res.energy!r}")
        if "oracle" in case:   # acceptance 1
            lam, c_ref, profile = case["oracle"]
            l2 = math.sqrt(float(grid.w @ (res.u.values - profile) ** 2))
            if not (_close(res.lam, lam, 1e-3)
                    and abs(res.energy - c_ref) <= 1e-3 * abs(c_ref)
                    and l2 <= 1e-3):
                bad.append(f"{name}: oracle mismatch lambda {res.lam!r} vs "
                           f"{lam!r}, C {res.energy!r} vs {c_ref!r}, L2 {l2:.2e}")
        if q is not None:
            if not _close(q, case["q_ref"], 1e-6):
                bad.append(f"{name}: form infimum {q!r} vs exact {case['q_ref']!r}")
            if name == "harmonic_cubic" and not _close(q, 1.0, 1e-3):
                bad.append(f"{name}: harmonic form infimum {q!r} not within 1e-3 of 1")
        return bad


def _cli(argv) -> tuple:
    """Run ngs.cli.main in-process; return (exit code, captured output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


class EnergyCurve:
    """In-process CLI: 12-mass warm-started scan, then ``scan --verify``.

    Why: warm starts make per-mass set-up weigh more, and the write, hash
    and replay path (three cold spot re-minimizations) is on the clock.
    """

    MODEL = "gaussian_well_cubic"
    STEPS = 12
    # masses are c, 2c, ..., 12c with c drawn near 0.5, so that sums of two
    # masses fall on the grid and sub-additivity is testable
    BASE = 0.5
    BASE_SPREAD = 0.01

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.base = self.BASE + random.Random(seed).uniform(
            -self.BASE_SPREAD, self.BASE_SPREAD)
        self.masses = [self.base * k for k in range(1, self.STEPS + 1)]

    def inputs(self) -> dict:
        return {"model": self.MODEL, "a_min": self.masses[0],
                "a_max": self.masses[-1], "steps": self.STEPS}

    def setup(self):
        path = self.root / "models" / f"{self.MODEL}.json"
        model = models.load_model(path)
        # oracle: the potential-free cubic energy E_a; an attractive well
        # must lie strictly below it (acceptance 4)
        grid = grids.RadialGrid(**GRID)
        sol = oracle.shoot_Up(3.0, 1, grid)
        free = []
        for a in self.masses:
            lam = oracle.lambda_for_mass(3.0, 1, a, base_mass=sol.mass)
            wide = grids.RadialGrid(1, GRID["R"] * max(1.0, 1.2 / math.sqrt(lam)),
                                    GRID["n"])
            free.append(oracle.scale_solution(sol, lam, grid=wide).energy_I)
        _warm_up(model)
        scratch = self.root / "perfbench_out"
        scratch.mkdir(exist_ok=True)
        return {"path": path, "free": free, "scratch": scratch}

    def run_pass(self, state, log: OpLog):
        log.new_unit()
        with tempfile.TemporaryDirectory(dir=state["scratch"]) as tmp:
            out = Path(tmp) / "scan"
            argv = ["scan", "--model", str(state["path"]),
                    "--a-min", repr(self.masses[0]), "--a-max", repr(self.masses[-1]),
                    "--steps", str(self.STEPS),
                    "--grid-R", repr(GRID["R"]), "--grid-n", str(GRID["n"]),
                    "--out", str(out)]
            log.run(lambda: _cli(argv),
                    lambda res: self.check_scan(res, out, state["free"]))
            log.run(lambda: _cli(argv + ["--verify"]),
                    lambda res: [] if res[0] == 0 else
                    [f"scan --verify exited {res[0]}: {res[1].strip()}"])

    def check_scan(self, res, out: Path, free) -> list:
        code, text = res
        if code != 0:
            return [f"scan exited {code}: {text.strip()}"]
        with open(out / "curve.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.STEPS:
            return [f"curve has {len(rows)} rows, expected {self.STEPS}"]
        a = [float(row["a"]) for row in rows]
        c = [float(row["C_a"]) for row in rows]
        bad = []
        for k, row in enumerate(rows):
            if row["converged"] != "true":
                bad.append(f"a = {a[k]:.6g} not converged")
            if not _close(a[k], self.masses[k], 1e-9 * self.masses[k]):
                bad.append(f"mass {a[k]!r} != requested {self.masses[k]!r}")
            if not c[k] < free[k]:
                bad.append(f"C({a[k]:.6g}) = {c[k]!r} not below free E = {free[k]!r}")
        for k in range(self.STEPS - 1):
            if c[k + 1] - c[k] > 1e-8:
                bad.append(f"curve rises between a = {a[k]:.6g} and {a[k + 1]:.6g}")
        # masses are (k+1) * base, so a_i + a_j sits at index i + j + 1
        for i in range(self.STEPS):
            for j in range(i, self.STEPS - i - 1):
                gap = c[i + j + 1] - c[i] - c[j]
                if gap > 1e-6:
                    bad.append(f"sub-additivity gap {gap:.3g} at ({a[i]:.6g}, {a[j]:.6g})")
        return bad


class Threshold:
    """threshold_a0 on the mass-critical quintic, default grid and probe cap.

    Why: nearly all time goes to probes that never certify negativity
    (they stop on stall or a no-minimizer label), which ground_state never
    reaches. The bracket is narrow on purpose: its width 0.05 gives one
    bisection step, so each pass makes three probes - the upper end
    (negative within a few steps), the lower end and the midpoint (both
    below the threshold, uncertified) - where the bracket (2.5, 3) makes
    seven and takes three times as long.
    """

    MODEL = "quintic_free"
    LOWER = 2.685
    LOWER_SPREAD = 0.002
    WIDTH = 0.05

    def __init__(self, root: Path, seed: int):
        self.root = root
        lo = self.LOWER + random.Random(seed).uniform(
            -self.LOWER_SPREAD, self.LOWER_SPREAD)
        self.bracket = (lo, lo + self.WIDTH)

    def inputs(self) -> dict:
        return {"model": self.MODEL, "bracket": list(self.bracket)}

    def setup(self):
        model = models.load_model(self.root / "models" / f"{self.MODEL}.json")
        grid = grids.RadialGrid(**GRID)
        # mass-critical: every frequency has the Townes mass sqrt(3) pi / 2
        sol = oracle.shoot_Up(5.0, 1, grid)
        if not _close(sol.mass, TOWNES_MASS, 1e-3):
            raise RuntimeError(f"oracle soliton mass {sol.mass!r} is not the "
                               f"Townes mass {TOWNES_MASS!r}")
        _warm_up(model)
        return {"model": model, "grid": grid}

    def run_pass(self, state, log: OpLog):
        first = len(log.samples)
        inner = curves.minimize

        # each probe is one operation: time the minimize calls that
        # threshold_a0 resolves through its module namespace
        def probe(*args, **kwargs):
            t_probe = log.begin()
            try:
                return inner(*args, **kwargs)
            finally:
                log.end(t_probe)

        curves.minimize = probe
        t0 = log.begin()
        try:
            found = curves.threshold_a0(state["model"], state["grid"],
                                        bracket=self.bracket)
            problems = self.check(found)
        except Exception as exc:  # a raising pass fails all of its probes
            traceback.print_exc(file=sys.stderr)
            problems = [f"raised {exc!r}"]
        finally:
            curves.minimize = inner
        if len(log.samples) == first:   # no probe went through the hook
            log.end(t0)
        if problems:
            for sample in log.samples[first:]:
                sample[2:4] = [False, problems]

    def check(self, found) -> list:
        bad = []
        # acceptance 5
        if found.below_lower_bracket:
            bad.append(f"a0 reported below the bracket {self.bracket}")
        if not abs(found.a0 - TOWNES_MASS) <= 0.05:
            bad.append(f"a0 = {found.a0!r} not within 0.05 of {TOWNES_MASS!r}")
        if not self.bracket[0] <= found.a0 <= self.bracket[1]:
            bad.append(f"a0 = {found.a0!r} outside the bracket {self.bracket}")
        return bad


WORKLOADS = {
    "ground_state": GroundState,
    "energy_curve": EnergyCurve,
    "threshold": Threshold,
}
