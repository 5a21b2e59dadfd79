"""Constrained minimizer of J on the mass sphere: a shifted bordered Newton.

A constrained critical point of the discrete J at mass a solves
    F(u, lam) = (-Lap + V + lam) u - g(u) = 0,    w^T u^2 = a,
and, because -Lap is W^-1 K of the kinetic form J uses, a zero of F is an
exact constrained critical point of the reported J. Each start runs
Levenberg-Marquardt steps on this system (Levenberg, Q. Appl. Math. 2,
1944; Moré, "The Levenberg-Marquardt algorithm: implementation and
theory", LNM 630, 1978) from its start field, a Gaussian or the rescaled
warm start. One step solves
    (L + sigma) du + dmu u = -F,    (w u)^T du = 0,
    L = -Lap + V + lam - g'(u),
with one LAPACK dgtsv call for both right-hand sides (bordered_solve), and
rescales u + du to mass a. The shift sigma I, in the w inner product,
turns the Newton step towards the J gradient, so J is a usable merit even
along the slow dilation mode of a mass-critical problem:
- a step whose J is not above the current J beyond 1e-12 (1 + |J|) is
  accepted, and then sigma <- min(sigma / 4, res);
- any other step, or one whose system is singular, is rejected, and then
  sigma <- max(4 sigma, res, 1e-8).
sigma starts at the start field's residual res, or at a shift given (see
below), and falls with it, so near a minimizer the steps are Newton's and
converge quadratically. A start ends once res meets tol_grad, J is below
stop_energy_below, or max_iters solves (accepted plus rejected) have run.
Unless it ran out of solves, its end field, negated if its
largest-magnitude entry is negative (-u is the same state as u), must have
one sign: an entry below -SIGN_REL_TOL times its peak ends it
"sign-change", not converged, whatever the start field was: it has reached
another critical point. For the discrete J, as for the continuum one,
J(|u|) <= J(u), as the kinetic form of |u| is at most that of u on every
face (||a| - |b|| <= |a - b|) and V u^2 and G are even. So if u is a
minimizer, |u| is a nonnegative one, and since -Lap is an M-matrix and
g(0) = 0, a zero node of |u| would zero its neighbours and all of |u|:
|u| > 0, and no face of u changes sign. A non-finite J, residual or
shift, or a trial field of zero or non-finite mass, raises NumericalError.

minimize runs its starts on a coarser search grid and finishes only the
winner on n. The search grid halves n once when n is even and n/2 >= 64,
and a second time when n/2 is even, n/4 >= 64 and the spacing R/(n/4) is
at most SEARCH_SPACING: n/4 = 500 at the default R = 20, n = 2000, and
n/2 on coarser grids. Each start, built on n, is restricted by pair
averages once per level and rescaled to mass a; the winner, among the
starts that converged or ended on the energy floor, is prolonged by linear
interpolation between cell centres once per level, rescaled, and run as
one more start on n, with its own max_iters and the same end test. Its J
and the winner's J on the search grid, r = 2 or 4 times coarser, give
Richardson's estimate (C - C_s)/(r^2 - 1) of the h^2 error (Richardson,
Phil. Trans. R. Soc. A 210, 1911; Brandt, Math. Comp. 31, 1977). As the
search only picks the basin, its starts stop at max(tol_grad, SEARCH_TOL)
(inexact inner solves: Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal.
19, 1982), unless stop_energy_below is set: a probe reads every end, on
the floor or above it. One that stopped above tol_grad goes on to it
there, from its field and shift and within its max_iters, once its end is
read: it wins (C_s is its J), it failed the one-sign test, or its J is
over 1e-6 above the winner's (a disagreement). To the winner choice a
loose start is within 1e-6, not rounding, of the lowest J, so the basin's
first start wins; choice and resumes repeat until none is read. The
finish starts at the shift a converged winner ended on, or else at its
residual, which keeps it off the saddle a sign-changing winner sits on.

Every value the solver reports comes from the one shared
energy.Discretization of (grid, model) (energy.discretization), which
energy.evaluate, the identity functions and the spectrum read too, so they
agree bit for bit. Its d = diag(-Lap) + V, -Lap bands and 2 w give the
step's diagonal before lam - g'(u) + sigma, dgtsv's off-diagonals and the
border row. Each field is evaluated once: the start field and each trial
field, once rescaled, take one Discretization.energy (J and the
nonlinearity with g'), and the start field and each accepted trial one
Discretization.stationarity (multiplier, -F, residual and Nehari defect),
so a rejected trial costs no -Lap u. A run returns its last Stationarity
with its end field; the winner's gives the reported lambda, residual and
identities, so nothing is evaluated after the loop.

The package's two LAPACK routines, dgtsv here and dstebz, which
curves.quadratic_form_infimum calls once per shared Discretization, are
those of SciPy's compiled extension scipy.linalg._flapack, loaded by
_load_flapack alone: importing the packages around it (scipy, and
scipy.linalg's array-API layer and numpy.f2py) would be most of the CLI's
start-up. They are the same Fortran objects as scipy.linalg.lapack's.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import energy as energy_mod
from . import grids
from .errors import NumericalError
from .grids import GridFunction, RadialGrid


def _load_flapack():
    """SciPy's LAPACK extension scipy.linalg._flapack, without scipy.linalg.

    The extension is found in SciPy's linalg directory, which find_spec
    locates without running scipy/__init__, and registered in sys.modules
    under its own name, or taken from there if an import of scipy.linalg
    has loaded it already; either way one instance exists per process, and
    a later "from scipy.linalg import _flapack" (which
    scipy.linalg.lapack runs) resolves to it through sys.modules. Only the
    package attribute scipy.linalg._flapack stays unset when ngs loads the
    extension first, so code outside ngs reaches the routines through
    scipy.linalg.lapack.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    finder = importlib.machinery.FileFinder(
        os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "linalg"),
        (importlib.machinery.ExtensionFileLoader,
         importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"no {name} extension in the installed SciPy")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgtsv, dstebz = _flapack.dgtsv, _flapack.dstebz

# Fixed constants of the solver. They shape how a run is carried out and
# judged, not the problem; no caller needs other values, so they stay out
# of SolverConfig and of the manifests that record it.
# fraction of the t = 0.95 R .. R window whose amplitude triggers the
# boundary-contact diagnostic, relative to the profile maximum
BOUNDARY_REL_TOL = 1e-6
# base of the start widths 1, 2, 1/2, 4, ...: SolverConfig.starts widens them
INITIAL_WIDTH = 1.0
# no entry of a run's end field, negated to a positive peak, may be below
# minus this fraction of the peak, whatever its start field: exponentially
# small tail entries round to either sign, a negative lobe is another
# critical point, never a ground state
SIGN_REL_TOL = 1e-6
# the shift's factor per accepted (divided) or rejected (multiplied) step,
# and its floor after a rejection
SHIFT_FACTOR = 4.0
SHIFT_FLOOR = 1e-8
# below this fraction of a in every window |r - r0| <= VANISHING_RADIUS, the
# profile has spread out
VANISHING_FRACTION = 0.05
VANISHING_RADIUS = 1.0
# energies above -DEADBAND are "not negative" here and in threshold_a0, so
# that quadrature noise cannot decide a sign
DEADBAND = 1e-6
# the widest spacing R/(n/4) on which minimize runs its starts on n/4, a
# lattice guard for the mass-critical quintic: at R = 20, n = 2000 its
# threshold probes read the same signs from n/4 = 500 (spacing 0.04) as from
# n/2, while on n/8 (0.08) a start collapses on the lattice at a = 2.71
SEARCH_SPACING = 0.04
# the residual the searched starts stop at, if above tol_grad: a prolonged
# winner starts near 1e-2 on n whatever it ended on (module docstring)
SEARCH_TOL = 1e-3


@dataclass(frozen=True)
class SolverConfig:
    """Residual tolerance, solve cap and starts of one minimization.

    stop_energy_below ends a start once J is below it, for callers that
    only need the sign of the minimum (curves.threshold_a0).
    """

    tol_grad: float = 1e-8
    max_iters: int = 1_000
    starts: int = 3
    stop_energy_below: float | None = None

    def __post_init__(self):
        if not 0 < self.tol_grad < math.inf:
            raise ValueError("tolerance must be positive and finite")
        # a cap of 2.5 or inf solves is never reached, and 2.5 starts have no widths
        for name in ("max_iters", "starts"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


# a solved state's scalars as result.json, a curve.csv row and a threshold.json
# probe write them, with the type utils.read_csv parses each with (None: an empty
# cell); warm_from is the mass whose end profile the state started from, or None
STATE_COLUMNS = {"a": float, "C_a": float, "lambda": float, "converged": bool,
                 "nehari": float, "pohozaev": float, "reason": str, "residual_norm": float,
                 "iterations": int, "start_index": int, "start_grid_n": int,
                 "C_a_search_grid": float, "C_a_extrapolated": float,
                 "discretization_error_estimate": float, "mass": float,
                 "start_disagreement": bool, "warm_from": float}


class State(NamedTuple("State", [("lam" if name == "lambda" else name, kind)
                                 for name, kind in STATE_COLUMNS.items()])):
    """One record per solved state; its field lambda is lam, a keyword in Python."""

    __slots__ = ()

    def _asdict(self) -> dict:
        return dict(zip(STATE_COLUMNS, self))


class GroundStateResult(NamedTuple("GroundStateResult", [
        *zip(State._fields[:-1], STATE_COLUMNS.values()),   # State's, but warm_from
        # the run on n that gives u: the winner's finish, or the winner itself
        # when the starts ran on n; iterations counts its solves, accepted or not
        ("u", GridFunction),
        ("energy_trace", list),                # (solve, J) of its start and each accepted step
        # the starts, on the search grid of start_grid_n cells
        ("all_start_energies", list),
        ("all_start_solves", list),            # one dgtsv each
        ("all_start_rejected_steps", list),
        ("all_start_reasons", list),           # each start's own end reason, None if it converged
        ("all_start_residuals", list),         # each one's last residual: SEARCH_TOL-loose, or not
        ("warnings", list)])):
    """minimize's result: its State's fields but warm_from, then its run and starts."""

    __slots__ = ()

    @property
    def energy(self) -> float:   # C_a, under the name perfbench reads
        return self.C_a

    @property
    def finish_converged(self) -> bool:
        """The run on n converged, regime-labelled or not: scan and threshold_a0 continue its u."""
        return self.converged or self.reason in ("no-minimizer-regime", "vanishing-suspected")

    def state(self, warm_from: float | None = None) -> State:
        """The record of this state, which started from the end profile of mass warm_from."""
        return State._make((*self[:len(State._fields) - 1], warm_from))

    def to_dict(self) -> dict:
        """result.json: the state, each all_start_ list, the warnings and the trace length."""
        return {**self.state()._asdict(),
                **{name: list(getattr(self, name)) for name in self._fields
                   if name.startswith("all_start_") or name == "warnings"},
                "trace_length": len(self.energy_trace)}


def bordered_solve(bands, u: np.ndarray, c: np.ndarray,
                   rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve [L, u; c^T, 0] [x; mu] = [rhs; 0] for tridiagonal L.

    bands are dgtsv's (sub, diag, sup) of L: its n - 1 sub- and
    superdiagonal entries and its diagonal, which the solve overwrites. One
    solve serves both right-hand sides, L p = rhs and L q = u; the border
    row then gives mu and x = p - mu q, formed in the buffer of q. Raises
    RuntimeError if L or the border is singular.
    """
    sub, diag, sup = bands
    # dgtsv overwrites diag and this Fortran-ordered buffer of ours, not copies
    x, info = dgtsv(sub, diag, sup, np.array((rhs, u)).T,
                    overwrite_d=True, overwrite_b=True)[3:]
    if info > 0:
        raise RuntimeError(f"tridiagonal system is singular: zero pivot at row {info}")
    p, q = x.T
    den = float(c.dot(q))
    if den == 0.0:
        raise RuntimeError("bordered system is singular")
    mu = float(c.dot(p)) / den
    q *= mu
    np.subtract(p, q, out=q)
    return q, mu


@functools.lru_cache(maxsize=16)
def _ball_bounds(grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """Node ranges [lo, hi) of vanishing_diagnostic's windows; shared, so read-only."""
    centers = np.concatenate(([0.0], grid.r))
    lo = np.searchsorted(grid.r, centers - VANISHING_RADIUS, side="left")
    hi = np.searchsorted(grid.r, centers + VANISHING_RADIUS, side="right")
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


def vanishing_diagnostic(u: GridFunction) -> float:
    """Largest mass any window |r - r0| <= VANISHING_RADIUS captures.

    r0 is 0 or a node. For N = 1 a window is an interval and its mirror
    image; for N >= 2 it is a shell, a ball only at r0 = 0. Small values flag
    spreading: the density is everywhere locally thin, the discrete
    signature of a vanishing minimizing sequence.
    """
    cum = np.empty(u.grid.n + 1)   # the running mass, from 0 before the first node
    cum[0] = 0.0
    np.cumsum(u.grid.w * u.values**2, out=cum[1:])
    lo, hi = _ball_bounds(u.grid)
    return float((cum[hi] - cum[lo]).max())


@functools.lru_cache(maxsize=16)
def _gaussian_shape(grid: RadialGrid, width: float) -> tuple[np.ndarray, float]:
    """The unit-peak Gaussian of a width on the grid and its mass; shared, so read-only."""
    vals = np.exp(-grid.r**2 / (2.0 * width * width))
    vals.flags.writeable = False
    return vals, float(grid.w @ (vals * vals))


def gaussian_start(grid: RadialGrid, width: float, a: float) -> GridFunction:
    vals, m = _gaussian_shape(grid, width)
    if not m > 0.0:
        raise ValueError(f"the start of width {width:g} has no mass on the grid: "
                         f"its Gaussian underflows; use fewer starts")
    return GridFunction(grid, vals * math.sqrt(a / m))


def _start_widths(count: int) -> list[float]:
    # 1, 2, 1/2, 4, 1/4, ... times the base width
    out = []
    for i in range(count):
        k = (i + 1) // 2 * (1 if i % 2 == 1 else -1)
        width = INITIAL_WIDTH * 2.0**k if k < 1024 else math.inf   # 2.0**1024 raises
        if not 0.0 < width < math.inf:
            raise ValueError(f"start width 2^{k} is not finite and positive; use fewer starts")
        out.append(width)
    return out


class _StartOutcome(NamedTuple):
    values: np.ndarray
    st: energy_mod.Stationarity   # the run's last, at values
    peak: float                   # max |values|
    converged: bool
    reason: str | None
    solves: int
    rejected: int
    trace: list
    sigma: float                  # the shift the run ended on


def _degenerate() -> NumericalError:
    return NumericalError("the solver reached a degenerate field (non-finite "
                          "energy, residual or mass)")


def _run_start(op: energy_mod.Discretization, v: np.ndarray | None, a: float,
               config: SolverConfig, sigma: float | None = None, prior=None) -> _StartOutcome:
    """Shifted bordered Newton steps from the mass-a field v, or on from prior, a run
    stopped at SEARCH_TOL, with its field, shift, counts and trace; see the module."""
    (sub, _, sup), w, w2 = op.lap, op.w, op.w2
    floor = config.stop_energy_below
    if prior is None:
        # the accepted field's stationarity st gives the step; a trial field gets only its energy
        st = op.stationarity(v, op.energy(v))
        sigma = st.residual if sigma is None else sigma
        trace, solves, rejected = [(0, st.J)], 0, 0
    else:
        v, st, sigma = prior.values, prior.st, prior.sigma
        solves, rejected, trace = prior.solves, prior.rejected, list(prior.trace)
    reason = None
    while True:
        if not (math.isfinite(st.J) and math.isfinite(st.residual) and math.isfinite(sigma)):
            raise _degenerate()
        if st.residual <= config.tol_grad:
            break
        if floor is not None and st.J < floor:
            reason = "energy-floor"
            break
        if solves == config.max_iters:
            reason = "max-iters"
            break
        solves += 1
        diag = op.d + st.lam
        diag -= st.nl.dg
        diag += sigma
        try:
            new, _ = bordered_solve((sub, diag, sup), v, w2 * v, st.neg_defect)
        except RuntimeError:
            trial = None    # a singular system is a rejected step
        else:
            new += v
            raw = float(w.dot(new * new))
            # a finite mass means every entry is finite
            if not (raw > 0.0 and math.isfinite(raw)):
                raise _degenerate()
            new *= math.sqrt(a / raw)
            trial = op.energy(new)
        if trial is not None and trial[0].J <= st.J + 1e-12 * (1.0 + abs(st.J)):
            v, st = new, op.stationarity(new, trial)
            sigma = min(sigma / SHIFT_FACTOR, st.residual)
            trace.append((solves, st.J))
        else:
            rejected += 1
            sigma = max(SHIFT_FACTOR * sigma, st.residual, SHIFT_FLOOR)
    converged = reason is None
    k = int(np.argmax(np.abs(v)))
    peak = abs(float(v[k]))
    if reason in (None, "energy-floor"):
        if v[k] < 0.0:    # -u is u's state: J, lam, res are even, g and F odd
            v, st = -v, st._replace(neg_defect=-st.neg_defect,
                                    nl=st.nl._replace(g=-st.nl.g))
        if v.min() < -SIGN_REL_TOL * peak:
            converged, reason = False, "sign-change"
    return _StartOutcome(values=v, st=st, peak=peak, converged=converged, reason=reason,
                         solves=solves, rejected=rejected, trace=trace, sigma=sigma)


def _winner(outcomes: list, loose: set) -> int:
    """The first start within 1e-12 (1 + |J_min|) of the lowest J of the pool.

    The pool is the starts that converged or ended on the energy floor, or
    every start if none did; the rounding margin keeps rounding noise from
    choosing among starts that reached the same state. For a start in loose,
    stopped at SEARCH_TOL, it is 1e-6, within which converged starts agree.
    """
    pool = [i for i, o in enumerate(outcomes)
            if o.converged or o.reason == "energy-floor"] or range(len(outcomes))
    J_min = min(outcomes[i].st.J for i in pool)
    return next(i for i in pool if outcomes[i].st.J <= J_min + (
        1e-6 if i in loose else 1e-12 * (1.0 + abs(J_min))))


@functools.lru_cache(maxsize=16)
def _search_grid(grid: RadialGrid) -> RadialGrid | None:
    """The grid of n/2 or n/4 cells minimize searches on, or None: n odd or n/2 < 64.

    n/4 when n/2 is even, n/4 >= 64 and R/(n/4) <= SEARCH_SPACING. Cached,
    as _ball_bounds is: building it takes about 50 us at 1000 cells.
    """
    n = grid.n
    if n % 2 or n // 2 < 64:
        return None
    n //= 2
    if n % 2 == 0 and n // 2 >= 64 and grid.R / (n // 2) <= SEARCH_SPACING:
        n //= 2
    return RadialGrid(grid.N, grid.R, n)


def _restrict(values: np.ndarray) -> np.ndarray:
    """Pair averages: coarse cell k is the union of fine cells 2k and 2k + 1."""
    return 0.5 * (values[0::2] + values[1::2])


def _prolong(values: np.ndarray) -> np.ndarray:
    """Linear interpolation from the cell centres of n/2 cells to n cells.

    Fine node 2k, at a quarter coarse cell inside coarse node k, takes
    3/4 c_k + 1/4 c_{k-1}, and node 2k + 1 takes 3/4 c_k + 1/4 c_{k+1}, with
    the grid's boundary conventions as ghosts: c_{-1} = c_0 (even reflection
    at 0) and c_{n/2} = -c_{n/2-1} (the zero on the face at R).
    """
    out = np.empty(2 * len(values))
    out[0] = values[0]
    out[1:-1:2] = 0.75 * values[:-1] + 0.25 * values[1:]
    out[2::2] = 0.75 * values[1:] + 0.25 * values[:-1]
    out[-1] = 0.5 * values[-1]
    return out


def _with_mass(values: np.ndarray, grid: RadialGrid, a: float) -> np.ndarray:
    m = float(grid.w.dot(values * values))
    if not m > 0.0:
        raise ValueError(f"a start has no mass on the grid of {grid.n} cells")
    return values * math.sqrt(a / m)


def minimize(a: float, model, grid: RadialGrid, config: SolverConfig | None = None,
             warm_start: GridFunction | None = None) -> GroundStateResult:
    """Best-of-starts constrained minimization of J at mass a.

    Initial profiles are mass-a Gaussians of staggered widths, optionally
    preceded by a caller-supplied warm start (rescaled to mass a), all built
    on grid. When n is even and n/2 >= 64, each start is restricted to the
    search grid of n/2 cells, or of n/4 where its spacing R/(n/4) is at
    most SEARCH_SPACING (module docstring), by pair averages once per level
    and rescaled to mass a, the starts run there, and the winner is
    prolonged to n, rescaled and run as one more start on n; otherwise the
    starts run on n and the winner is not finished. Searched starts, but a
    probe's, stop at SEARCH_TOL and go on where read (module docstring).
    Each run has config.max_iters solves. The winner is the first start,
    in start order, whose J is within 1e-12 (1 + |J_min|) of the lowest,
    1e-6 if stopped at SEARCH_TOL, among the starts that converged or ended
    below config.stop_energy_below if any did. Never raises on
    non-convergence; inspect converged/reason on the result. Raises
    NumericalError if a start reaches a degenerate field.
    """
    if not 0 < a < math.inf:
        raise ValueError(f"mass must be positive and finite, got {a}")
    if config is None:
        config = SolverConfig()
    op = energy_mod.discretization(grid, model)
    starts: list[np.ndarray] = []
    if warm_start is not None:
        if warm_start.grid != grid:
            raise ValueError("warm start lives on another grid")
        starts.append(_with_mass(warm_start.values, grid, a))
    for width in _start_widths(config.starts - len(starts)):
        starts.append(gaussian_start(grid, width, a).values)
    coarse = _search_grid(grid)
    search, searched, loose = op, starts, config
    if coarse is not None:
        search = energy_mod.discretization(coarse, model)
        if config.stop_energy_below is None:
            loose = replace(config, tol_grad=max(config.tol_grad, SEARCH_TOL))
        # built on n and restricted once per level: a narrow Gaussian with
        # mass on n can underflow where it is sampled at the search grid's nodes
        searched = []
        for v in starts:
            while len(v) > coarse.n:
                v = _restrict(v)
            searched.append(_with_mass(v, coarse, a))

    # an overflow surfaces as a non-finite energy, residual or mass, which
    # raises NumericalError; NumPy need not warn about it too
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes = [_run_start(search, v, a, loose) for v in searched]
        pending = {i for i, o in enumerate(outcomes)
                   if config.tol_grad < o.st.residual <= loose.tol_grad}
        best = _winner(outcomes, pending)
        while read := {i for i in pending if i == best or not outcomes[i].converged
                       or outcomes[i].st.J > outcomes[best].st.J + 1e-6}:
            for i in read:
                outcomes[i] = _run_start(search, None, a, config, prior=outcomes[i])
            pending -= read
            best = _winner(outcomes, pending)
        won = out = outcomes[best]
        if coarse is not None:
            v = won.values
            while len(v) < grid.n:
                v = _prolong(v)
            out = _run_start(op, _with_mass(v, grid, a), a, config,
                             won.sigma if won.converged else None)
    u, st = GridFunction(grid, out.values), out.st

    spread = [o.st.J for o in outcomes if o.converged]
    disagreement = len(spread) > 1 and max(spread) - min(spread) > 1e-6

    warnings = []
    if disagreement:
        warnings.append(
            "converged starts disagree beyond 1e-6; all basin energies reported"
        )
    # the edge zone r >= 0.95 R holds the last node (n >= 64); out has mass a > 0
    edge = out.values[np.searchsorted(grid.r, 0.95 * grid.R):]
    contact = float(np.max(np.abs(edge))) > BOUNDARY_REL_TOL * out.peak
    if contact:
        warnings.append(
            "profile has not decayed near the domain edge; consider a larger R"
        )

    # the regime labels read a converged finish only: one that ran out of
    # solves or changed sign keeps its own reason
    converged = out.converged
    reason = out.reason
    if converged and math.isfinite(model.potential.V_inf):
        vd_frac = vanishing_diagnostic(u) / a
        if vd_frac < VANISHING_FRACTION and st.J < -DEADBAND:
            converged = False
            reason = "vanishing-suspected"
        elif (vd_frac < VANISHING_FRACTION or contact) and st.J >= -DEADBAND:
            converged = False
            reason = "no-minimizer-regime"

    # the search winner's J, if both it and the result converged, and from it
    # Richardson's estimate of C_true - C for an h^2 error; not a bound
    coarse_J = won.st.J if coarse is not None and won.converged and converged else None
    ratio = grid.n // (coarse or grid).n
    estimate = None if coarse_J is None else (st.J - coarse_J) / (ratio * ratio - 1)

    # the winner's last stationarity and nonlinearity give its identities
    return GroundStateResult(
        a=a, C_a=st.J, lam=st.lam, converged=converged, nehari=st.nehari,
        pohozaev=energy_mod.pohozaev_residual(u, model, st.nl),
        reason=reason, residual_norm=st.residual,
        iterations=out.solves, start_index=best, start_grid_n=(coarse or grid).n,
        C_a_search_grid=coarse_J, C_a_extrapolated=None if estimate is None else st.J + estimate,
        discretization_error_estimate=estimate, mass=grids.mass(u),
        start_disagreement=disagreement, u=u, energy_trace=out.trace,
        all_start_energies=[o.st.J for o in outcomes],
        all_start_solves=[o.solves for o in outcomes],
        all_start_rejected_steps=[o.rejected for o in outcomes],
        all_start_reasons=[o.reason for o in outcomes],
        all_start_residuals=[o.st.residual for o in outcomes], warnings=warnings)
