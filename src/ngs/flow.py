"""Constrained gradient-flow minimizer of J on the mass sphere.

The flow is the normalized implicit gradient flow of Bao & Du (SIAM J. Sci.
Comput. 25, 2004). One step solves the linearly implicit system
    (I + dt (-Lap + V + shift)) u+ = u + dt (g(u) + (shift + mu) u)
with shift = max(0, -min V) keeping the operator an M-matrix, and the scalar
mu chosen in closed form so the new iterate has the target mass exactly.
Fixed points of the step are exact constrained critical points of the
discrete J, because -Lap is W^-1 K of the kinetic form J uses; a plain
rescale-after-step variant instead converges to an O(dt)-biased profile,
which is why the multiplier enters inside the solve. The operator
I + dt (-Lap + V + shift) is the same at every step, so each minimize
factors its symmetric form once (LAPACK dpttrf) and each step is one
dpttrs solve for both right-hand sides.

The flow converges only linearly, so it serves only as the globalizer of a
Newton method (after Altmann, Henning & Peterseim, "The J-method for the
Gross-Pitaevskii eigenvalue problem", Numer. Math. 2021). Before its first
flow step and at every residual check a start tries a Newton finish: Newton
steps on F = (-Lap + V + lam) u - g(u) = 0 with the mass w^T u^2 = a, on
the same rows, so its fixed point is the flow's. One step solves the
tridiagonal L = -Lap + V + lam - g'(u), which is indefinite, for -F and u
in one LAPACK dgtsv call, gets the multiplier update by bordering, and
rescales to mass a.
A step counts only if L has no exactly zero pivot and the field stays
finite. The attempt ends the start once the residual meets tol_grad (or J
falls below stop_energy_below), provided that at its endpoint no entry
that was nonnegative in the iterate it began from is below
-SIGN_REL_TOL times the field's peak, and its J is not above that
iterate's J, beyond rounding. Sign and J are judged at the endpoint only,
the one iterate a start keeps: on the way, a wide start may undershoot its
tail by a few percent of the peak, and J may zigzag, as it does along the
slow dilation mode of a mass-critical problem. The sign and energy guards
keep a start from ending on a sign-changing or higher-energy critical
point. If a step fails a guard, NEWTON_MAX_STEPS steps do not reach
tol_grad or the endpoint fails a guard, every iterate of the attempt is
dropped and the flow goes on from where it was, bit for bit, and tries
again only once its residual is below half that of the failed attempt.
The attempt from the start field (a Gaussian or the rescaled warm start)
also ends, as "residual-rise", once a step raises the residual (Deuflhard's
monotonicity test), and its failure sets no halving bar; from flow
iterates, a mass-critical attempt's residual zigzags yet converges. Most
starts finish from their start field in 3-5 Newton steps, the rest at the
first check, at residual 1e-10 or below, well inside tol_grad.

Every value the flow reports (J, multiplier, residual, Nehari) comes from
one energy.Discretization, the same code energy.evaluate and the identity
functions run, so they agree bit for bit. Each iterate, flow or Newton,
evaluates the nonlinearity once (models.NonlinearityModel.evaluate) and,
where a residual is needed, -Lap once (Discretization.stationarity); the
next step reuses both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs

from . import energy as energy_mod
from . import grids
from .errors import NumericalError
from .grids import GridFunction, RadialGrid

# Fixed constants of the flow. They shape how a run is carried out and
# judged, not the problem; no caller needs other values, so they stay out
# of SolverConfig and of the manifests that record it.
# fraction of the t = 0.95 R .. R window whose amplitude triggers the
# boundary-contact diagnostic, relative to the profile maximum
BOUNDARY_REL_TOL = 1e-6
# base of the start widths 1, 2, 1/2, 4, ...: SolverConfig.starts widens them
INITIAL_WIDTH = 1.0
# steps between residual checks, which only decide when to stop
RESIDUAL_CHECK_EVERY = 10
# steps without a residual check that beats the best residual so far by
# 0.1% before a start ends as "stall"; a residual that keeps falling by
# less than 0.1% per check therefore stalls too
STALL_WINDOW = 5000
# the most Newton steps one attempt takes: near the ground state Newton
# converges in a few steps, and a mass-critical start takes 9-11 as J
# zigzags; a longer attempt is going elsewhere
NEWTON_MAX_STEPS = 12
# a Newton attempt may not end with an entry negative that was not at its
# start, beyond this fraction of the end field's peak: exponentially small
# tail entries round to either sign, a negative lobe is another critical point
SIGN_REL_TOL = 1e-6
# the guards that can reject a Newton attempt, as counted in
# GroundStateResult.newton_rejections
NEWTON_GUARDS = ("singular", "non-finite", "residual-rise", "energy-rise", "sign",
                 "out-of-steps")
# below this fraction of a in every ball of radius VANISHING_RADIUS, the
# profile has spread out
VANISHING_FRACTION = 0.05
VANISHING_RADIUS = 1.0
# energies above -DEADBAND are "not negative" here and in threshold_a0, so
# that quadrature noise cannot decide a sign
DEADBAND = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Step, residual tolerance, iteration cap and starts of one minimization.

    stop_energy_below ends a start once J is below it, for callers that
    only need the sign of the minimum (curves.threshold_a0).
    """

    dt: float = 1e-2
    tol_grad: float = 1e-8
    max_iters: int = 200_000
    starts: int = 3
    stop_energy_below: float | None = None

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.tol_grad > 0:
            raise ValueError("tolerance must be positive")
        if self.starts < 1:
            raise ValueError("need at least one start")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class GroundStateResult:
    u: GridFunction
    a: float
    lam: float
    energy: float                    # J[u], the curve-value estimate
    residuals: energy_mod.IdentityResiduals
    energy_trace: list
    converged: bool
    start_index: int
    reason: str | None = None
    iterations: int = 0
    newton_steps: int = 0            # of the iterations, those of the Newton finish
    newton_attempts: int = 0
    newton_rejections: dict = field(default_factory=dict)   # guard -> attempts it ended
    residual_norm: float = math.inf
    all_start_energies: list = field(default_factory=list)
    all_start_iterations: list = field(default_factory=list)
    all_start_newton_attempts: list = field(default_factory=list)
    all_start_newton_steps: list = field(default_factory=list)   # taken, one dgtsv each
    start_disagreement: bool = False
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "mass": grids.mass(self.u),
            "lambda": self.lam,
            "C_a_estimate": self.energy,
            "residuals": self.residuals.to_dict(),
            "converged": self.converged,
            "reason": self.reason,
            "start_index": self.start_index,
            "iterations": self.iterations,
            "newton_steps": self.newton_steps,
            "newton_attempts": self.newton_attempts,
            "newton_rejections": dict(self.newton_rejections),
            "residual_norm": self.residual_norm,
            "all_start_energies": list(self.all_start_energies),
            "all_start_iterations": list(self.all_start_iterations),
            "all_start_newton_attempts": list(self.all_start_newton_attempts),
            "all_start_newton_steps": list(self.all_start_newton_steps),
            "start_disagreement": self.start_disagreement,
            "warnings": list(self.warnings),
            "trace_length": len(self.energy_trace),
        }


class _Workspace:
    """A Discretization plus the factored implicit operator for one (dt, a).

    The implicit operator A = I + dt (-Lap + V + shift) does not change
    between steps. W A = W + dt (K + W (V + shift)) is symmetric positive
    definite and tridiagonal, so it is factored once, by LAPACK dpttrf, and
    every step solves W A x = W rhs for both right-hand sides with one
    dpttrs call.
    """

    def __init__(self, grid: RadialGrid, model, dt: float, a: float):
        self.op = energy_mod.Discretization(grid, model)
        self.dt = dt
        self.a = a
        self.shift = max(0.0, -model.potential.c_ell)
        w = self.op.w
        _, di, up = self.op.lap
        d, e, info = dpttrf(w * (1.0 + dt * (di + self.op.V + self.shift)),
                            dt * (w * up)[:-1])
        if info != 0:
            raise NumericalError(
                "implicit operator lost positivity; dt too large for this potential"
            )
        self.factor = (d, e)
        self.rhs = np.empty((grid.n, 2), order="F")
        self.newton_steps = 0     # Newton steps taken, accepted or not

    def step(self, v: np.ndarray, gv: np.ndarray | None = None) -> np.ndarray:
        """The next flow iterate from v; gv is g(v), if the caller has it."""
        dt = self.dt
        w = self.op.w
        if gv is None:
            gv = self.op.model.nonlinearity.g(v)
        rhs = self.rhs
        np.multiply(w, v + dt * (gv + self.shift * v), out=rhs[:, 0])
        np.multiply(w, v, out=rhs[:, 1])
        v0, q = dpttrs(*self.factor, rhs, overwrite_b=1)[0].T
        q = dt * q
        a2 = float(w @ (q * q))
        a1 = 2.0 * float(w @ (v0 * q))
        a0 = float(w @ (v0 * v0)) - self.a
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc >= 0.0 and a2 > 0.0:
            mu = (-a1 + math.sqrt(disc)) / (2.0 * a2)
            out = v0 + mu * q
        else:
            out = v0
        m = float(w @ (out * out))
        if not m > 0.0 or not math.isfinite(m):
            raise NumericalError("flow step produced a degenerate field")
        return out * math.sqrt(self.a / m)


def solve_tridiagonal(rows, rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with (lower, diag, upper) rows for rhs.

    rhs holds one right-hand side or one per column; LAPACK dgtsv leaves
    rows and rhs unchanged. Raises RuntimeError on an exactly zero pivot.
    """
    lower, diag, upper = rows
    x, info = dgtsv(lower[1:], diag, upper[:-1], rhs)[3:]
    if info > 0:
        raise RuntimeError(f"tridiagonal system is singular: zero pivot at row {info}")
    return x


def bordered_solve(rows, u: np.ndarray, w: np.ndarray,
                   rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve [L, u; 2 (w u)^T, 0] [x; mu] = [rhs; 0] for tridiagonal L.

    L has the (lower, diag, upper) rows. One solve serves both right-hand
    sides, L p = rhs and L q = u; the border row then gives mu and
    x = p - mu q. Raises RuntimeError if L or the border is singular.
    """
    p, q = solve_tridiagonal(rows, np.column_stack((rhs, u))).T
    c = 2.0 * w * u
    den = float(c @ q)
    if den == 0.0:
        raise RuntimeError("bordered system is singular")
    mu = float(c @ p) / den
    return p - mu * q, mu


def flow_step(u: GridFunction, model, dt: float, a: float | None = None) -> GridFunction:
    """One constrained descent step; the returned field has mass a exactly."""
    if a is None:
        a = grids.mass(u)
    ws = _Workspace(u.grid, model, dt, a)
    return u.with_values(ws.step(u.values))


def vanishing_diagnostic(u: GridFunction) -> float:
    """Largest mass any ball of radius VANISHING_RADIUS captures.

    Small values flag spreading: the density is everywhere locally thin,
    the discrete signature of a vanishing minimizing sequence.
    """
    g = u.grid
    dens = g.w * u.values**2
    cum = np.concatenate(([0.0], np.cumsum(dens)))
    centers = np.concatenate(([0.0], g.r))
    lo = np.searchsorted(g.r, centers - VANISHING_RADIUS, side="left")
    hi = np.searchsorted(g.r, centers + VANISHING_RADIUS, side="right")
    return float((cum[hi] - cum[lo]).max())


def gaussian_start(grid: RadialGrid, width: float, a: float) -> GridFunction:
    vals = np.exp(-grid.r**2 / (2.0 * width * width))
    m = float(grid.w @ (vals * vals))
    return GridFunction(grid, vals * math.sqrt(a / m))


def _start_widths(count: int) -> list[float]:
    # 1, 2, 1/2, 4, 1/4, ... times the base width
    out = []
    for i in range(count):
        k = (i + 1) // 2
        out.append(INITIAL_WIDTH * (2.0**k if i % 2 == 1 else 2.0**-k))
    return out


@dataclass
class _StartOutcome:
    values: np.ndarray
    J: float
    lam: float
    residual: float
    converged: bool
    reason: str | None
    iterations: int
    trace: list
    warnings: list
    newton_steps: int
    newton_attempts: int
    newton_steps_taken: int
    newton_rejections: dict


def _keeps_sign(old: np.ndarray, new: np.ndarray) -> bool:
    """No entry that was nonnegative in old is below -SIGN_REL_TOL max|new|."""
    floor = -SIGN_REL_TOL * float(np.max(np.abs(new)))
    return not np.any((new < floor) & (old >= 0.0))


def _newton_finish(ws: _Workspace, v: np.ndarray, J: float, config: SolverConfig,
                   budget: int, rejections: dict, monotone: bool = False):
    """Newton steps on the bordered (u, lam) system from the iterate v.

    Returns (field, J after each step, multiplier, residual) once the
    residual meets tol_grad or J is below stop_energy_below, if that final
    field keeps the sign of v and its J is not above the start's J beyond
    rounding. Returns None if a step is singular or non-finite, the steps
    (at most budget) run out, the final field changed sign ("sign") or
    has risen in J ("energy-rise"), or, if monotone, a step raised the
    residual ("residual-rise"), and then counts the attempt in rejections
    under that guard's name; ws.newton_steps counts every step taken.
    """
    op = ws.op
    nonlinearity = op.model.nonlinearity
    lower, diag, upper = op.lap
    floor = config.stop_energy_below
    v_start, J_start = v, J
    # each iterate's nonlinearity and stationarity are computed once and
    # carried into the step from it
    nl = nonlinearity.evaluate(v, derivative=True)
    lam, defect, res, _ = op.stationarity(v, nl=nl)
    energies = []
    for _ in range(min(NEWTON_MAX_STEPS, budget)):
        ws.newton_steps += 1
        rows = (lower, diag + op.V + lam - nl.dg, upper)
        try:
            du, _ = bordered_solve(rows, v, op.w, -defect)
        except RuntimeError:
            guard = "singular"
            break
        new = v + du
        m = float(op.w @ (new * new))
        # a finite mass means every entry is finite
        if not (m > 0.0 and math.isfinite(m)):
            guard = "non-finite"
            break
        v = new * math.sqrt(ws.a / m)
        nl = nonlinearity.evaluate(v, derivative=True)
        J = op.energy(v, nl.G).J
        energies.append(J)
        res_before = res
        lam, defect, res, _ = op.stationarity(v, nl=nl)
        if res <= config.tol_grad or (floor is not None and J < floor):
            if not _keeps_sign(v_start, v):
                guard = "sign"
            elif J > J_start + 1e-12 * (1.0 + abs(J_start)):
                guard = "energy-rise"
            else:
                return v, energies, lam, res
            break
        if monotone and res > res_before:
            guard = "residual-rise"
            break
    else:
        guard = "out-of-steps"
    rejections[guard] += 1
    return None


def _run_start(ws: _Workspace, v: np.ndarray, config: SolverConfig) -> _StartOutcome:
    op = ws.op
    nonlinearity = op.model.nonlinearity
    # g(v) of the energy evaluation feeds the next step
    nl = nonlinearity.evaluate(v)
    J = op.energy(v, nl.G).J
    trace = [(0, J)]
    stalled_iters = 0
    res_best = math.inf
    res_rejected = math.inf
    newton_steps = 0
    steps_before = ws.newton_steps
    rejections = dict.fromkeys(NEWTON_GUARDS, 0)
    violations = 0
    warnings = []
    converged = False
    reason = None
    J_best = J
    # Newton from the start field itself; a residual rise ends this attempt
    # early, and its failure leaves the flow below exactly as without it
    it = 0
    newton_attempts = 1
    finish = _newton_finish(ws, v, J, config, config.max_iters, rejections, monotone=True)
    if finish is None:
        for it in range(1, config.max_iters + 1):
            v = ws.step(v, nl.g)
            nl = nonlinearity.evaluate(v)
            J_new = op.energy(v, nl.G).J
            trace.append((it, J_new))
            if not math.isfinite(J_new):
                reason = "diverged"
                warnings.append(f"energy became non-finite at iteration {it}")
                break
            # transient O(dt^2) wiggles are normal; sustained excursions above
            # the best energy seen mean the step size is unstable here
            if J_new > J_best + 1e-6 * (1.0 + abs(J_best)):
                violations += 1
                if violations > 25:
                    reason = "descent-violation"
                    warnings.append(
                        f"energy rose {J_new - J_best:.3e} above its running "
                        f"minimum at iteration {it}; aborted (reduce dt)"
                    )
                    J = J_new
                    break
            J = J_new
            J_best = min(J_best, J_new)
            if config.stop_energy_below is not None and J < config.stop_energy_below:
                reason = "energy-floor"
                break
            if it % RESIDUAL_CHECK_EVERY == 0:
                lam, _, res, _ = op.stationarity(v, nl=nl)
                if res <= config.tol_grad:
                    converged = True
                    break
                if res < 0.5 * res_rejected:
                    newton_attempts += 1
                    finish = _newton_finish(ws, v, J, config, config.max_iters - it,
                                            rejections)
                    if finish is not None:
                        break
                    res_rejected = res
                # stall = STALL_WINDOW iterations in which no single check
                # beat the best residual seen by 0.1%; a slow steady decrease
                # below 0.1% per check counts as a stall
                if res < (1.0 - 1e-3) * res_best:
                    stalled_iters = 0
                else:
                    stalled_iters += RESIDUAL_CHECK_EVERY
                res_best = min(res_best, res)
                if stalled_iters >= STALL_WINDOW:
                    reason = "stall"
                    break
        else:
            reason = "max-iters"
    # an accepted Newton finish returned the multiplier and residual of its
    # endpoint; otherwise take them at the flow iterate the start ended on
    if finish is not None:
        v, energies, lam, res = finish
        trace.extend(enumerate(energies, it + 1))
        newton_steps = len(energies)
        it += newton_steps
        J = energies[-1]
        converged = res <= config.tol_grad
        reason = None if converged else "energy-floor"
    elif not converged:
        lam, _, res, _ = op.stationarity(v, nl=nl)
        converged = res <= config.tol_grad
        if converged:
            reason = None
    return _StartOutcome(
        values=v, J=J, lam=lam, residual=res, converged=converged,
        reason=reason, iterations=it, trace=trace, warnings=warnings,
        newton_steps=newton_steps, newton_attempts=newton_attempts,
        newton_steps_taken=ws.newton_steps - steps_before,
        newton_rejections=rejections,
    )


def minimize(a: float, model, grid: RadialGrid, config: SolverConfig | None = None,
             warm_start: GridFunction | None = None) -> GroundStateResult:
    """Best-of-starts constrained minimization of J at mass a.

    Initial profiles are mass-a Gaussians of staggered widths, optionally
    preceded by a caller-supplied warm start (rescaled to mass a). The
    winner is the first start, in start order, whose J is within
    1e-12 (1 + |J_min|) of the lowest, among the converged starts if any
    converged. Never raises on non-convergence; inspect converged/reason on
    the result.
    """
    if not a > 0:
        raise ValueError(f"mass must be positive, got {a}")
    if config is None:
        config = SolverConfig()
    ws = _Workspace(grid, model, config.dt, a)
    starts: list[np.ndarray] = []
    if warm_start is not None:
        if warm_start.grid != grid:
            raise ValueError("warm start lives on another grid")
        m = grids.mass(warm_start)
        if m <= 0:
            raise ValueError("warm start has zero mass")
        starts.append(warm_start.values * math.sqrt(a / m))
    for width in _start_widths(config.starts - len(starts)):
        starts.append(gaussian_start(grid, width, a).values.copy())

    # an overflow surfaces as a non-finite mass or energy, which the flow
    # reports or raises as NumericalError; NumPy need not warn about it too
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes = [_run_start(ws, v.copy(), config) for v in starts]

    converged_idx = [i for i, o in enumerate(outcomes) if o.converged]
    pool = converged_idx or range(len(outcomes))
    best = min(pool, key=lambda i: outcomes[i].J)
    # the first start within rounding of the lowest J wins, so that rounding
    # noise does not choose among starts that reached the same state
    J_min = outcomes[best].J
    best = next((i for i in pool
                 if outcomes[i].J <= J_min + 1e-12 * (1.0 + abs(J_min))), best)
    out = outcomes[best]
    u = GridFunction(grid, out.values)

    residuals = energy_mod.IdentityResiduals(
        nehari=ws.op.stationarity(out.values, out.lam).nehari,
        pohozaev=energy_mod.pohozaev_residual(u, model),
        lagrange_lambda=out.lam,
    )

    all_J = [o.J for o in outcomes]
    disagreement = False
    if len(converged_idx) > 1:
        spread = [outcomes[i].J for i in converged_idx]
        disagreement = bool(max(spread) - min(spread) > 1e-6)

    warnings = list(out.warnings)
    if disagreement:
        warnings.append(
            "converged starts disagree beyond 1e-6; all basin energies reported"
        )
    peak = float(np.max(np.abs(out.values)))
    edge_zone = grid.r >= 0.95 * grid.R
    contact = False
    if peak > 0 and np.any(edge_zone):
        contact = float(np.max(np.abs(out.values[edge_zone]))) > BOUNDARY_REL_TOL * peak
        if contact:
            warnings.append(
                "profile has not decayed near the domain edge; consider a larger R"
            )

    converged = out.converged
    reason = out.reason
    if math.isfinite(model.potential.V_inf):
        vd_frac = vanishing_diagnostic(u) / a
        if vd_frac < VANISHING_FRACTION and out.J < -DEADBAND:
            converged = False
            reason = "vanishing-suspected"
        elif (vd_frac < VANISHING_FRACTION or contact) and out.J >= -DEADBAND:
            converged = False
            reason = "no-minimizer-regime"

    return GroundStateResult(
        u=u,
        a=a,
        lam=out.lam,
        energy=out.J,
        residuals=residuals,
        energy_trace=out.trace,
        converged=converged,
        start_index=best,
        reason=None if converged else reason,
        iterations=out.iterations,
        newton_steps=out.newton_steps,
        newton_attempts=out.newton_attempts,
        newton_rejections=out.newton_rejections,
        residual_norm=out.residual,
        all_start_energies=all_J,
        all_start_iterations=[o.iterations for o in outcomes],
        all_start_newton_attempts=[o.newton_attempts for o in outcomes],
        all_start_newton_steps=[o.newton_steps_taken for o in outcomes],
        start_disagreement=disagreement,
        warnings=warnings,
    )
