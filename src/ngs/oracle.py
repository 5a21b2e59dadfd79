"""Reference solutions for the pure power nonlinearity.

Solves the radial profile equation U'' + (N-1)/r U' = U - U^p. For N = 1 the
profile is the closed-form soliton beta0 sech^(2/(p-1))((p-1) r / 2) and
nothing is integrated. For N >= 2 it is shot from the center value to one
stop, where it crosses zero (overshoot) or turns around while positive
(undershoot), and Brent's method on the signed miss there places the center
value on the separatrix; beyond the matching radius that profile continues
with the exact solution of the linearized far-field equation, so mass
integrals see no blow-up contamination. Scaled copies and the mass/energy
scaling laws they obey follow from the frequency-1 profile analytically.
Only N >= 2 imports SciPy: scipy.integrate, scipy.optimize, scipy.special.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import energy
from .errors import BracketError, MassCriticalError, SupportOverflowError
from .grids import GridFunction, RadialGrid
from .models import Model, NonlinearityModel, PotentialModel

_SERIES_R = 1e-6
# end of the shooting interval, and Brent's tolerance on the center value
# relative to its lower bound
SHOOT_R_MAX = 40.0
SHOOT_REL_TOL = 1e-14
# where the profile has decayed to this fraction of its center value is the
# matching radius: for N >= 2 the shot profile hands over to the exact
# linearized tail there, since past it the neglected nonlinearity is below
# the shooting noise floor; for every N it bounds the residual's stencil
# window and the grid radius a rescale asks for
TAIL_FRAC = 1e-5


def _sobolev_limit(N: int) -> float:
    # largest admissible power for the profile equation
    return math.inf if N <= 2 else (N + 2.0) / (N - 2.0)


class PowerSolution(NamedTuple):
    """A positive decaying radial profile solving -Lap U + lam U = |U|^(p-1) U."""

    p: float
    N: int
    lam: float
    profile: GridFunction
    mass: float
    energy_I: float
    center_value: float
    matching_radius: float
    # stationarity residual measured with 4th-order stencils on profile_fn;
    # the grid operator's own truncation error does not enter this number
    highorder_residual: float
    # the profile as a function of radius, off the grid too: the closed form
    # for N = 1, the dense integrator output and its tail for N >= 2
    profile_fn: object


def _free_model(p: float, N: int) -> Model:
    nl = NonlinearityModel(kind="power_sum", terms=((1.0, p - 1.0),), N=N)
    return Model(N=N, nonlinearity=nl, potential=PotentialModel.zero())


def _integrate_profile(N: int, p: float, b: float, dense: bool):
    """Shoot the profile from center value b to its one stop, and its miss.

    The stop is u u' rising through 0: where u crosses zero (an overshoot)
    or turns while positive (an undershoot). The miss there is u + u', one
    of which is 0: negative for an overshoot, positive for an undershoot,
    and 0.0 if neither happens before SHOOT_R_MAX.
    """
    def rhs(r, y):
        u, du = y
        return [du, u - np.sign(u) * abs(u) ** p - (N - 1) / r * du]

    def stops(r, y):
        return y[0] * y[1]
    stops.terminal = True
    stops.direction = 1

    r0 = _SERIES_R
    y0 = [b + r0 * r0 * (b - b**p) / (2.0 * N), r0 * (b - b**p) / N]
    from scipy.integrate import solve_ivp
    sol = solve_ivp(
        rhs, (r0, SHOOT_R_MAX), y0, method="DOP853", rtol=1e-12, atol=1e-14,
        events=stops, dense_output=dense,
    )
    return float(sol.y_events[0].sum()), sol   # no stop: an empty sum, 0.0


def _stencil_residual(fn, N: int, p: float, lam: float, r_hi: float) -> float:
    """Stationarity residual via 4th-order finite differences on a fine mesh."""
    s = np.linspace(0.05, r_hi, 6001)
    d = s[1] - s[0]
    U = fn(s)
    U2 = (-U[:-4] + 16 * U[1:-3] - 30 * U[2:-2] + 16 * U[3:-1] - U[4:]) / (12 * d * d)
    U1 = (U[:-4] - 8 * U[1:-3] + 8 * U[3:-1] - U[4:]) / (12 * d)
    rc = s[2:-2]
    Uc = U[2:-2]
    res = -U2 - (N - 1) / rc * U1 + lam * Uc - np.abs(Uc) ** (p - 1) * Uc
    wgt = rc ** (N - 1)
    return float(np.sqrt(np.sum(wgt * res * res) / np.sum(wgt * Uc * Uc)))


def shoot_Up(p: float, N: int, grid: RadialGrid) -> PowerSolution:
    """Frequency-1 profile for exponent p in dimension N, sampled on grid."""
    if grid.N != N:
        raise ValueError("grid dimension disagrees with requested dimension")
    if not 1.0 < p < _sobolev_limit(N):
        raise BracketError(
            f"exponent p = {p} outside the admissible range "
            f"(1, {_sobolev_limit(N):g}) for N = {N}"
        )
    # center value of the frictionless (N = 1) separatrix, where the first
    # integral u'^2 = u^2 - 2|u|^(p+1)/(p+1) vanishes: exact for N = 1, and a
    # lower bound whenever the (N-1)/r damping term is present
    beta0 = ((p + 1.0) / 2.0) ** (1.0 / (p - 1.0))
    if N == 1:
        k = (p - 1.0) / 2.0

        def soliton(r):
            # sech(k r) = 2t / (1 + t^2) with t = exp(-k|r|): no overflow
            t = np.exp(-k * np.abs(np.asarray(r, dtype=float)))
            return beta0 * (2.0 * t / (1.0 + t * t)) ** (1.0 / k)

        # U(r_star) = TAIL_FRAC * beta0
        r_star = math.acosh(TAIL_FRAC ** -k) / k
        return _package(p, N, 1.0, soliton, beta0, r_star, grid)

    hi = beta0
    for _ in range(64):
        hi *= 1.3
        if _integrate_profile(N, p, hi, dense=False)[0] < 0:
            break
    else:
        raise BracketError("could not bracket the shooting parameter from above")
    from scipy.optimize import brentq

    def signed_square(b):   # the miss grows like sqrt|b - b*|: this is near linear
        miss = _integrate_profile(N, p, b, dense=False)[0]
        return miss * abs(miss)

    try:
        b = brentq(signed_square, beta0, hi, xtol=SHOOT_REL_TOL * beta0)
    except ValueError as exc:
        raise BracketError("lower shooting bracket unexpectedly overshoots") from exc
    sol = _integrate_profile(N, p, b, dense=True)[1]

    above = np.where(sol.y[0] >= TAIL_FRAC * b)[0]
    r_star = sol.t[above[-1]] if len(above) else sol.t[-1]
    r_star = min(r_star, sol.t[-1] - 1e-9)
    u_star = float(sol.sol(r_star)[0])

    if N == 2:
        from scipy.special import k0
        c = u_star / k0(r_star)

        def tail(r):
            return c * k0(r)
    else:
        def tail(r):
            return u_star * (r_star / r) * np.exp(-(r - r_star))

    def profile_fn(r):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        small = r < _SERIES_R
        mid_zone = (~small) & (r <= r_star)
        big = r > r_star
        out[small] = b + r[small] ** 2 * (b - b**p) / (2.0 * N)
        if mid_zone.any():
            out[mid_zone] = sol.sol(r[mid_zone])[0]
        out[big] = tail(r[big])
        return out

    return _package(p, N, 1.0, profile_fn, b, r_star, grid)


def _package(p, N, lam, profile_fn, center, r_star, grid) -> PowerSolution:
    u = GridFunction(grid, profile_fn(grid.r))
    rep = energy.evaluate(u, _free_model(p, N))
    resid = _stencil_residual(profile_fn, N, p, lam, min(r_star + 5.0, 0.9 * grid.R + 5.0))
    return PowerSolution(
        p=p, N=N, lam=lam, profile=u, mass=rep.mass, energy_I=rep.I,
        center_value=center, matching_radius=r_star,
        highorder_residual=resid, profile_fn=profile_fn,
    )


def scale_solution(sol: PowerSolution, lam: float,
                   grid: RadialGrid | None = None) -> PowerSolution:
    """Rescale a profile to frequency lam * sol.lam.

    The profile maps to lam^(1/(p-1)) U(sqrt(lam) r), so mass picks up the
    factor lam^((4-(p-1)N)/(2(p-1))). Shrinking lam slows the decay by
    1/sqrt(lam); if the profile is no longer negligible at the grid radius
    the rescale is rejected, and a wider grid must be passed instead.
    """
    if not lam > 0:
        raise ValueError("frequency factor must be positive")
    if grid is None:
        grid = sol.profile.grid
    if lam == 1.0 and grid is sol.profile.grid:
        return sol
    base = sol.profile_fn
    p = sol.p
    amp = lam ** (1.0 / (p - 1.0))
    root = math.sqrt(lam)

    def scaled_fn(r):
        return amp * base(root * np.asarray(r, dtype=float))

    center = amp * sol.center_value
    edge = abs(float(scaled_fn(grid.R)))
    if edge > 1e-5 * abs(center):
        raise SupportOverflowError(
            f"rescaled profile has not decayed at the grid radius "
            f"(|U|/|U(0)| = {edge / abs(center):.3g} at R = {grid.R:g}); "
            f"pass a grid with R of order {6.0 / root + sol.matching_radius / root:.0f}"
        )
    return _package(
        p, sol.N, sol.lam * lam, scaled_fn, center, sol.matching_radius / root, grid
    )


def scaling_exponent(p: float, N: int) -> float:
    """Exponent of the mass scaling law mass(lam) = lam^e * mass(1)."""
    return (4.0 - (p - 1.0) * N) / (2.0 * (p - 1.0))


def lambda_for_mass(p: float, N: int, a: float, base_mass: float) -> float:
    """Frequency whose scaled profile has squared norm a.

    Inverts the mass scaling law around the frequency-1 profile, whose
    squared norm is base_mass (the mass of shoot_Up(p, N, grid) on the
    caller's grid). Only that mass is passed, so nothing here can check
    that it belongs to the same (p, N); energy_scaling_check, which holds
    the whole base solution, does.
    """
    if not a > 0:
        raise ValueError("target mass must be positive")
    if abs(p - (1.0 + 4.0 / N)) < 1e-12:
        raise MassCriticalError(
            "mass-critical exponent: every frequency gives the same mass, "
            "no unique lambda exists"
        )
    return (a / base_mass) ** (1.0 / scaling_exponent(p, N))


def energy_scaling_check(p: float, N: int, a1: float, a2: float,
                         base: PowerSolution) -> tuple[float, float]:
    """Measured vs closed-form exponent of the potential-free energy curve.

    Both energies come from scaled copies of base = shoot_Up(p, N, grid) on
    one grid, base's widened for the smaller frequency at base's spacing; the
    closed-form exponent is (2(p+1) - N(p-1)) / (4 - (p-1)N). Raises
    ValueError if base was shot for another (p, N) or a mass is not positive.
    """
    if (base.p, base.N) != (p, N):
        raise ValueError(f"base profile solves (p, N) = ({base.p:g}, {base.N}), "
                         f"not ({p:g}, {N})")
    if a1 == a2:
        raise ValueError("energy-scaling exponent needs two distinct masses")
    if p - 1.0 >= 4.0 / N:
        raise ValueError(
            "energy scaling check applies to mass-subcritical exponents only"
        )
    lams = [lambda_for_mass(p, N, a, base_mass=base.mass) for a in (a1, a2)]
    # slow decay for small frequencies: widen the quadrature grid so the
    # tail is resolved, instead of truncating it
    stretch = max(1.0, 1.2 / math.sqrt(min(lams)))
    base_grid = base.profile.grid
    grid = RadialGrid(N=N, R=base_grid.R * stretch, n=math.ceil(base_grid.n * stretch))
    e1, e2 = (scale_solution(base, lam, grid=grid).energy_I for lam in lams)
    if not (e1 < 0 and e2 < 0):
        raise RuntimeError(
            f"oracle energies must be negative for subcritical powers, got "
            f"{e1:.6g} and {e2:.6g}"
        )
    gamma_measured = math.log(e1 / e2) / math.log(a1 / a2)
    gamma_expected = (2.0 * (p + 1.0) - N * (p - 1.0)) / (4.0 - (p - 1.0) * N)
    return gamma_measured, gamma_expected
