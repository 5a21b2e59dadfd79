"""Mass-parametrized energy curves and their structural diagnostics.

Scanning a grid of masses yields the curve a -> C_a = inf J on the mass-a
sphere. The checks here probe what makes that curve useful: monotonicity,
strict negativity past a threshold, sub-additivity against splitting into
two bumps, the location of the threshold mass itself, and the infimum of
the quadratic part of the energy (kinetic plus potential) which controls
the small-mass behavior.
"""
from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .energy import discretization
from .errors import BracketError, NumericalError
from .flow import DEADBAND, STATE_COLUMNS, SolverConfig, State, dstebz, minimize
from .flow import vanishing_diagnostic  # noqa: F401  (re-exported)
from .grids import RadialGrid
from .models import Model
from .utils import read_csv, write_csv


class EnergyCurve(NamedTuple):
    """Scan output: one flow.State per mass, in increasing mass order."""

    points: tuple

    @property
    def partial(self) -> bool:
        return any(not pt.converged for pt in self.points)

    @property
    def failed_masses(self) -> tuple:
        return tuple(pt.a for pt in self.points if not pt.converged)

    def energies(self) -> np.ndarray:
        return np.array([pt.C_a for pt in self.points])

    def monotone_violations(self, tol: float = 0.0) -> int:
        e = self.energies()
        return int(np.sum(np.diff(e) > tol))


def scan(a_values, model: Model, grid: RadialGrid,
         config: SolverConfig | None = None) -> EnergyCurve:
    """Minimize at each mass in a_values and assemble the energy curve.

    Each mass is warm-started from the end profile (rescaled to the new
    mass) of its warm_from, the last mass whose finish converged, as in
    threshold_a0, which keeps the solver on the same branch along the curve.
    """
    a_values = [float(a) for a in a_values]
    if len(a_values) < 3:
        raise ValueError("scan needs at least three masses")
    if any(a <= 0 for a in a_values):
        raise ValueError("masses must be positive")
    if any(b <= a for a, b in zip(a_values, a_values[1:])):
        raise ValueError("masses must be strictly increasing")
    if config is None:
        config = SolverConfig()

    points = []
    prev = warm_from = None
    for a in a_values:
        res = minimize(a, model, grid, config, warm_start=prev)
        points.append(res.state(warm_from))
        if res.finish_converged:
            prev, warm_from = res.u, a
    return EnergyCurve(points=tuple(points))


def write_curve_csv(curve: EnergyCurve, path) -> None:
    write_csv(path, STATE_COLUMNS, curve.points)


def read_curve_csv(path) -> list:
    """Rows of a written curve file, as flow.State records; a file of the six
    columns scans wrote before State (a to pohozaev) reads None in the rest."""
    return [State(*row) for row in zip(*read_csv(path, STATE_COLUMNS, required=6))]


class SubadditivityRow(NamedTuple):
    a: float
    b: float
    gap: float
    all_converged: bool


class SubadditivityReport(NamedTuple):
    """Gaps C(a+b) - C(a) - C(b) over pairs resolvable on the scanned grid."""

    rows: tuple
    tol: float

    @property
    def violations(self) -> tuple:
        return tuple(r for r in self.rows if r.gap > self.tol)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def strict_count(self) -> int:
        return sum(1 for r in self.rows if r.all_converged and r.gap < -self.tol)


def subadditivity_check(curve: EnergyCurve, tol: float = 1e-6) -> SubadditivityReport:
    """Test C(a+b) <= C(a) + C(b) wherever a, b, a+b all lie on the curve.

    Gaps above +tol count as violations. Equality within tol is accepted;
    strict negativity is only meaningful where all three minimizations
    converged, and those pairs are tallied separately.
    """
    pts = curve.points
    a_arr = np.array([pt.a for pt in pts])
    first, second = np.triu_indices(len(pts))
    targets = a_arr[first] + a_arr[second]
    # nearest scanned mass to each sum; of two equally near, the lower
    hi = np.minimum(np.searchsorted(a_arr, targets), len(pts) - 1)
    lo = np.maximum(hi - 1, 0)
    nearest = np.where(np.abs(a_arr[lo] - targets) <= np.abs(a_arr[hi] - targets), lo, hi)
    rows = []
    for i, j, k, target in zip(first.tolist(), second.tolist(), nearest.tolist(),
                               targets.tolist()):
        if math.isclose(a_arr[k], target, rel_tol=1e-9, abs_tol=1e-12):
            gap = pts[k].C_a - pts[i].C_a - pts[j].C_a
            rows.append(SubadditivityRow(
                a=pts[i].a, b=pts[j].a, gap=gap,
                all_converged=(pts[i].converged and pts[j].converged
                               and pts[k].converged),
            ))
    return SubadditivityReport(rows=tuple(rows), tol=tol)


def write_subadditivity_csv(report: SubadditivityReport, path) -> None:
    write_csv(path, ("a", "b", "gap"), ((r.a, r.b, r.gap) for r in report.rows))


class ThresholdResult(NamedTuple):
    """Bisection estimate of the threshold mass; its fields are threshold.json's keys."""

    a0: float
    half_width: float
    below_lower_bracket: bool
    bracket: tuple
    deadband: float
    evaluations: tuple   # one flow.State per probe, in probe order
    note: str


# stopping width of the threshold bisection, relative to the bracket midpoint
THRESHOLD_REL_WIDTH = 1e-2


def bisect_threshold(energy_at, bracket: tuple,
                     deadband: float) -> tuple[float, float, bool]:
    """Bisect for the smallest mass a with energy_at(a) < -deadband.

    Probes the upper bracket first, which must be decisively negative, then
    the lower one; if that is already negative the threshold is at or below
    it. Returns (a0, half_width, below_lower_bracket).
    """
    a_lo, a_hi = bracket
    c_hi = energy_at(a_hi)
    if not c_hi < -10.0 * deadband:
        raise BracketError(
            f"energy at the upper bracket mass {a_hi:g} is {c_hi:.3g}, not "
            f"decisively negative; enlarge the bracket (the curve dives "
            f"below zero only past the threshold mass)"
        )
    if energy_at(a_lo) < -deadband:
        return a_lo, a_lo, True
    lo, hi = a_lo, a_hi
    while (hi - lo) > THRESHOLD_REL_WIDTH * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        if energy_at(mid) < -deadband:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), 0.5 * (hi - lo), False


def threshold_a0(model: Model, grid: RadialGrid,
                 config: SolverConfig | None = None,
                 bracket: tuple = (1e-3, 8.0)) -> ThresholdResult:
    """Bisect for the smallest mass at which the minimal energy is negative.

    Energies above -flow.DEADBAND count as "not yet negative";
    this keeps quadrature noise from steering the bisection. Each probe runs
    a minimization with an early exit once the energy is decisively
    negative (below -15 DEADBAND, in place of config.stop_energy_below),
    since the probe only needs a sign. A probe's energy, converged and
    reason are minimize's: a start that ends below that floor wins over any
    converged start, and every field on the mass sphere bounds the infimum
    from above, so one such field proves the minimum negative.

    Probes continue one another, as scan continues its masses: each probe's
    warm start is the end profile of the nearest earlier probe in mass (the
    lower of two equally near) whose finish converged
    (GroundStateResult.finish_converged); its mass is the probe's warm_from,
    None when no probe qualifies. A probe that ended on the floor, on
    max-iters or on sign-change seeds nothing. config.starts counts the warm
    start, so a warm probe runs it and starts - 1 Gaussians.
    """
    a_lo, a_hi = float(bracket[0]), float(bracket[1])
    if not 0 < a_lo < a_hi < math.inf:
        raise ValueError("bracket must satisfy 0 < a_lo < a_hi, both finite")
    if config is None:
        config = SolverConfig()
    probe_config = dataclasses.replace(config, stop_energy_below=-15.0 * DEADBAND)

    evaluations = []
    seeds = {}   # mass -> end profile, of each probe whose finish converged

    def probe(a: float) -> float:
        warm_from = min(seeds, key=lambda b: (abs(b - a), b), default=None)
        res = minimize(a, model, grid, probe_config, warm_start=seeds.get(warm_from))
        evaluations.append(res.state(warm_from))
        if res.finish_converged:
            seeds[a] = res.u
        return res.energy

    a0, half_width, below = bisect_threshold(probe, (a_lo, a_hi), DEADBAND)
    note = ("energy already negative at the lower bracket; the threshold is "
            "at or below a_lo") if below else ""
    return ThresholdResult(
        a0=a0, half_width=half_width, below_lower_bracket=below,
        bracket=(a_lo, a_hi), deadband=DEADBAND,
        evaluations=tuple(evaluations), note=note,
    )


def quadratic_form_infimum(model: Model, grid: RadialGrid) -> float:
    """Infimum of (|grad u|^2 + int V u^2) / |u|^2 on the grid, exactly.

    The form is the kinetic form of grids.kinetic plus the weighted
    potential term: v^T (K + W V) v over v^T W v. Its infimum, never below
    inf V as K >= 0, is the lowest eigenvalue l1 of -Lap + V = W^-1 (K + W V)
    and of the symmetric tridiagonal T = W^-1/2 (K + W V) W^-1/2.

    The value is LAPACK dstebz's bisection for l1 alone (range 2,
    il = iu = 1, abstol 0, order "E"), as
    scipy.linalg.eigh_tridiagonal(select="i", select_range=(0, 0)) computes
    it, to the bit. A nonzero dstebz info raises NumericalError.

    T's diagonal and off-diagonal are the shared energy.Discretization's d
    and e, and the value is kept on that instance (spectral_floor): a
    second call on an equal (grid, model) while the instance is cached
    returns it without a LAPACK call. A failure is never kept.
    """
    disc = discretization(grid, model)
    if disc.spectral_floor is None:
        _, w, _, _, info = dstebz(disc.d, disc.e, 2, 0.0, 1.0, 1, 1, 0.0, "E")
        if info != 0:
            raise NumericalError(f"LAPACK dstebz failed: info = {info}")
        disc.spectral_floor = float(w[0])
    return disc.spectral_floor
