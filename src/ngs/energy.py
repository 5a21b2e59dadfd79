"""Energy functionals, stationarity identities, fiber and dilation maps.

Conventions: the full energy of a field u is
    J[u] = (1/2)|grad u|^2 + (1/2) int V u^2 - int G(u),
its potential-free part is I[u] = (1/2)|grad u|^2 - int G(u), and a
constrained critical point with multiplier lam solves
    -Lap u + (V + lam) u = g(u).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import grids
from .errors import BracketError, SupportOverflowError
from .grids import GridFunction

# admissible range for the fiber-map parameter t, which is also the bracket
# fiber_minimize scans on FIBER_SAMPLES log-spaced points
FIBER_T_MIN = 1e-2
FIBER_T_MAX = 1e2
FIBER_SAMPLES = 41


@dataclass(frozen=True)
class EnergyReport:
    kinetic: float          # (1/2) |grad u|_2^2
    potential_term: float   # (1/2) int V u^2
    nonlinear_term: float   # int G(u)
    J: float
    I: float
    mass: float

    def to_dict(self) -> dict:
        return {
            "kinetic": self.kinetic,
            "potential_term": self.potential_term,
            "nonlinear_term": self.nonlinear_term,
            "J": self.J,
            "I": self.I,
            "mass": self.mass,
        }


@dataclass(frozen=True)
class IdentityResiduals:
    nehari: float
    pohozaev: float
    lagrange_lambda: float

    def to_dict(self) -> dict:
        return {
            "nehari": self.nehari,
            "pohozaev": self.pohozaev,
            "lambda": self.lagrange_lambda,
        }


class Stationarity(NamedTuple):
    """Multiplier, defect vector, residual and Nehari defect of one field."""

    lam: float
    defect: np.ndarray
    residual: float
    nehari: float


class Discretization:
    """The discrete functionals of one model on one grid, on node arrays.

    Built once per (grid, model) from the grid's quadrature weights W, the
    rows of the discrete -Laplacian W^-1 K and V at the nodes. J, Pohozaev
    and the spectrum use the kinetic form u^T K u of the grid; the defect,
    multiplier, residual and Nehari use -Lap = W^-1 K of the same K, so a
    zero of the defect is an exact constrained critical point of J. The
    flow holds one instance for its per-step work; the GridFunction
    functions below wrap a fresh one, so both report bit-identical values.
    """

    def __init__(self, grid: grids.RadialGrid, model):
        if grid.N != model.N:
            raise ValueError("grid dimension disagrees with model dimension")
        self.grid = grid
        self.model = model
        self.w = grid.w
        self.V = model.potential.V(grid.r)
        self.lap = grids.laplacian_tridiagonal(grid)

    def apply_lap(self, v: np.ndarray) -> np.ndarray:
        """The discrete -Laplacian of v."""
        return grids.tridiagonal_apply(self.lap, v)

    def energy(self, v: np.ndarray, G: np.ndarray | None = None) -> EnergyReport:
        """J of v, its parts and the mass; G is G(v), if the caller has it."""
        if G is None:
            G = self.model.nonlinearity.G(v)
        usq = v * v
        kin = 0.5 * grids.kinetic_values(self.grid, v)
        pot = 0.5 * float(self.w @ (self.V * usq))
        nonlin = float(self.w @ G)
        I = kin - nonlin
        return EnergyReport(kinetic=kin, potential_term=pot, nonlinear_term=nonlin,
                            J=I + pot, I=I, mass=float(self.w @ usq))

    def stationarity(self, v: np.ndarray, lam: float | None = None,
                     nl=None) -> Stationarity:
        """The multiplier (unless lam is given), defect, residual and Nehari of v.

        The defect is -Lap v + (V + lam) v - g(v), the residual its weighted
        L2 norm relative to ||v||, and the Nehari defect
        |grad v|^2 + int (V + lam) v^2 - int g(v) v, with |grad v|^2 taken as
        <v, -Lap v>_w from the one -Lap v the defect needs. The multiplier
        zeroes that Nehari defect, so it is exactly the least-squares
        minimizer of the residual over lam. nl holds the nonlinearity's
        values at v (models.NonlinearValues), if the caller has them.
        """
        if nl is None:
            nl = self.model.nonlinearity.evaluate(v)
        usq = v * v
        m = float(self.w @ usq)
        if m <= 0.0:
            raise ValueError("stationarity needs a field with positive mass")
        lap_v = self.apply_lap(v)
        quad = float(self.w @ (v * lap_v)) + float(self.w @ (self.V * usq))
        gu = float(self.w @ nl.gs)
        if lam is None:
            lam = (gu - quad) / m
        defect = lap_v + (self.V + lam) * v - nl.g
        res = float(np.sqrt((self.w @ (defect * defect)) / m))
        return Stationarity(lam, defect, res, quad + lam * m - gu)


def evaluate(u: GridFunction, model) -> EnergyReport:
    """All functional values of u under the given model."""
    if np.isnan(u.values).any():
        raise ValueError("field contains NaN")
    return Discretization(u.grid, model).energy(u.values)


def lagrange_multiplier(u: GridFunction, model) -> float:
    """The lam solving |grad u|^2 + int (V + lam) u^2 = int g(u) u.

    See Discretization.stationarity.
    """
    return Discretization(u.grid, model).stationarity(u.values).lam


def euler_lagrange_residual(u: GridFunction, model, lam: float) -> float:
    """Weighted L2 norm of -Lap u + (V + lam) u - g(u), relative to ||u||."""
    return Discretization(u.grid, model).stationarity(u.values, lam).residual


def nehari_residual(u: GridFunction, model, lam: float) -> float:
    """Signed defect of |grad u|^2 + int (V + lam) u^2 - int g(u) u.

    At lam = lagrange_multiplier(u) the defect is zero for every u by
    construction, so it then checks only the arithmetic. Evidence of
    stationarity comes from the residual and the Pohozaev identity, or from
    the defect at a lam found independently of u (an oracle's, say).
    """
    return Discretization(u.grid, model).stationarity(u.values, lam).nehari


def pohozaev_residual(u: GridFunction, model) -> float:
    """Signed defect of the multiplier-free stationarity identity.

    P(u) = |grad u|^2 - (1/2) int <grad V, x> u^2 + N int [G(u) - g(u)u/2],
    exactly the t-derivative of the discrete fiber energy at t = 1, which is
    how it is computed.
    """
    return fiber_energy_derivative(u, 1.0, model)


def identity_residuals(u: GridFunction, model, lam: float | None = None) -> IdentityResiduals:
    st = Discretization(u.grid, model).stationarity(u.values, lam)
    return IdentityResiduals(
        nehari=st.nehari,
        pohozaev=pohozaev_residual(u, model),
        lagrange_lambda=st.lam,
    )


# --- fiber map u_t(x) = t^(N/2) u(tx) and mass-multiplying dilation ---


def _check_t(t: float):
    if not (FIBER_T_MIN <= t <= FIBER_T_MAX):
        raise ValueError(f"fiber parameter {t} outside [{FIBER_T_MIN}, {FIBER_T_MAX}]")


def fiber_energy(u: GridFunction, t: float, model) -> float:
    """J[u_t] evaluated analytically in t on the original grid."""
    _check_t(t)
    return _fiber_energy_cached(u, t, model, grids.kinetic(u))


def _fiber_energy_cached(u, t, model, kin) -> float:
    g = u.grid
    N = g.N
    usq = u.values * u.values
    val = 0.5 * t * t * kin
    val += 0.5 * grids.integrate(g, model.potential.V(g.r / t) * usq)
    scaled = t ** (0.5 * N) * u.values
    val -= t ** (-N) * grids.integrate(g, model.nonlinearity.G(scaled))
    return val


def fiber_energy_derivative(u: GridFunction, t: float, model) -> float:
    """Exact t-derivative of the discrete fiber energy."""
    _check_t(t)
    g = u.grid
    N = g.N
    val = t * grids.kinetic(u)
    usq = u.values * u.values
    val -= grids.integrate(g, model.potential.dV_dot_x(g.r / t) * usq) / (2.0 * t)
    scaled = t ** (0.5 * N) * u.values
    gv = model.nonlinearity.G(scaled) - 0.5 * model.nonlinearity.g_times_s(scaled)
    val += N * t ** (-N - 1.0) * grids.integrate(g, gv)
    return val


def fiber_map(u: GridFunction, t: float) -> GridFunction:
    """Resample t^(N/2) u(t r) onto the grid of u, then restore the mass.

    The analytic map preserves mass; cubic resampling does not quite, so the
    result is renormalized to the exact discrete mass of u.
    """
    _check_t(t)
    g = u.grid
    out = GridFunction(g, t ** (0.5 * g.N) * grids.even_extension(u)(t * g.r))
    m_new = grids.mass(out)
    if m_new <= 0.0:
        raise ValueError("fiber map produced a vanishing field")
    return out.with_values(out.values * np.sqrt(grids.mass(u) / m_new))


def fiber_minimize(u: GridFunction, model) -> tuple[float, float]:
    """Locate the interior minimum of t -> J[u_t].

    Scans a log-spaced bracket (ties resolved toward smaller t), then
    refines with a bounded scalar minimizer. Raises BracketError when no
    interior minimum exists in the bracket, which is the discrete signature
    of the spreading limit dominating the energy. The SciPy minimizer is
    imported on first call, so that ngs start-up stays at numpy plus
    scipy.linalg.
    """
    from scipy.optimize import minimize_scalar

    if grids.mass(u) <= 0.0:
        raise ValueError("fiber minimization needs a nonzero field")
    kin = grids.kinetic(u)
    ts = np.geomspace(FIBER_T_MIN, FIBER_T_MAX, FIBER_SAMPLES)
    js = np.array([_fiber_energy_cached(u, t, model, kin) for t in ts])
    i = int(np.argmin(js))
    if i == 0 or i == FIBER_SAMPLES - 1:
        raise BracketError(
            "no interior fiber minimum in the bracket: the energy does not "
            "dip below its spreading limit for this field"
        )
    res = minimize_scalar(
        lambda t: _fiber_energy_cached(u, t, model, kin),
        bounds=(ts[i - 1], ts[i + 1]),
        method="bounded",
        options={"xatol": 1e-10},
    )
    t0 = float(res.x)
    return t0, float(res.fun)


def dilate(u: GridFunction, tau: float) -> GridFunction:
    """Mass-multiplying stretch u(r / tau^(1/N)); mass becomes tau * mass(u).

    Requires tau >= 1 and a profile that has decayed below 1e-8 at the
    radius that lands on the boundary after stretching.
    """
    if tau < 1.0:
        raise ValueError(f"dilation factor must be >= 1, got {tau}")
    g = u.grid
    if tau == 1.0:
        return u
    stretch = tau ** (1.0 / g.N)
    profile = grids.even_extension(u)
    edge = abs(float(profile(g.R / stretch)))
    if edge > 1e-8:
        raise SupportOverflowError(
            f"dilated support leaves the domain: |u| = {edge:.3g} at the "
            f"preimage of R"
        )
    out = GridFunction(g, profile(g.r / stretch))
    target = tau * grids.mass(u)
    m_new = grids.mass(out)
    if m_new <= 0.0:
        raise ValueError("dilation produced a vanishing field")
    return out.with_values(out.values * np.sqrt(target / m_new))
