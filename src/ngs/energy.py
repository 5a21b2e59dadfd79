"""Energy functionals, stationarity identities and the fiber map.

Conventions: the full energy of a field u is
    J[u] = (1/2)|grad u|^2 + (1/2) int V u^2 - int G(u),
its potential-free part is I[u] = (1/2)|grad u|^2 - int G(u), and a
constrained critical point with multiplier lam solves
    -Lap u + (V + lam) u = g(u).
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import grids
from .errors import BracketError, NumericalError
from .grids import GridFunction
from .models import NonlinearValues

# admissible range for the fiber-map parameter t, which is also the bracket
# fiber_minimize scans on FIBER_SAMPLES log-spaced points
FIBER_T_MIN = 1e-2
FIBER_T_MAX = 1e2
FIBER_SAMPLES = 41


class EnergyReport(NamedTuple):
    """J of one field, its parts and its mass."""

    kinetic: float          # (1/2) |grad u|_2^2
    potential_term: float   # (1/2) int V u^2
    nonlinear_term: float   # int G(u)
    J: float
    I: float
    mass: float


class IdentityResiduals(NamedTuple):
    nehari: float
    pohozaev: float
    lagrange_lambda: float


class Stationarity(NamedTuple):
    """Multiplier, -F, residual, Nehari defect, J and nonlinearity of one field."""

    lam: float
    neg_defect: np.ndarray   # -F = g(v) - (-Lap + V + lam) v, the Newton right-hand side
    residual: float
    nehari: float
    J: float
    nl: NonlinearValues      # from Discretization.energy


class Discretization:
    """The discrete functionals of one model on one grid, on node arrays.

    Built once per (grid, model) from the grid's quadrature weights W, the
    discrete -Laplacian W^-1 K as LAPACK's bands lap = (sub, diag, sup) and
    V at the nodes. J, Pohozaev and the spectrum use the kinetic form
    u^T K u of the grid; the defect, multiplier, residual and Nehari use
    -Lap = W^-1 K of the same K, so a zero of the defect is an exact
    constrained critical point of J. d and e are the diagonal and
    off-diagonal of the symmetric tridiagonal W^1/2 (-Lap + V) W^-1/2:
    d = diag(-Lap) + V is also the solver's step diagonal before its
    shifts, and sub, sup and w2 = 2 W are its dgtsv bands and border
    weights. zero_potential records whether V is zero at every node, where
    energy and stationarity skip the passes over V. V, the Pohozaev weight
    r V'(r), the bands, d, e and w2 are read-only, so that one instance
    per (grid, model) value can be shared: discretization() returns it, and
    the solver, the spectrum and the GridFunction functions below all read
    that one instance, so they report bit-identical values. spectral_floor
    is None until curves.quadratic_form_infimum computes the lowest
    eigenvalue of that tridiagonal with one dstebz call, which it then
    keeps, so the floor is computed at most once per instance and leaves
    the cache with it. A potential, band, d or e that is not finite at
    every node raises NumericalError; r V'(r), which only the Pohozaev
    defect reads, may be.
    """

    def __init__(self, grid: grids.RadialGrid, model):
        if grid.N != model.N:
            raise ValueError("grid dimension disagrees with model dimension")
        self.grid = grid
        self.model = model
        self.w = grid.w
        self.V = model.potential.V_on(grid)
        with np.errstate(all="ignore"):   # tested below
            self.xdV = model.potential.dV_dot_x(grid.r)
            self.lap = sub, diag, sup = grids.laplacian_tridiagonal(grid)
            self.d = diag + self.V
            self.e = -np.sqrt(sup * sub)
        if not all(np.isfinite(arr).all() for arr in (*self.lap, self.d, self.e)):
            raise NumericalError("the discrete -Laplacian is not finite on the grid")
        self.w2 = 2.0 * self.w
        for arr in (self.V, self.xdV, *self.lap, self.d, self.e, self.w2):
            arr.flags.writeable = False
        self.zero_potential = not self.V.any()
        self.spectral_floor: float | None = None

    def energy(self, v: np.ndarray) -> tuple[EnergyReport, NonlinearValues, float]:
        """J of v and its parts, the nonlinearity at v with g', and w^T (V v^2).

        With V zero at every node w^T (V v^2) is 0.0, the bits w^T (v^2 0)
        has, without forming v^2 V.
        """
        usq = v * v
        m = float(self.w.dot(usq))
        vm = 0.0 if self.zero_potential else float(self.w.dot(usq * self.V))
        nl = self.model.nonlinearity.evaluate(v)
        kin = 0.5 * grids.kinetic_values(self.grid, v)
        nonlin = float(self.w.dot(nl.G))
        I = kin - nonlin
        return EnergyReport(kin, 0.5 * vm, nonlin, I + 0.5 * vm, I, m), nl, vm

    def stationarity(self, v: np.ndarray, e: tuple, lam: float | None = None) -> Stationarity:
        """The multiplier (unless lam is given), -F, residual and Nehari of v.

        e is energy(v), whose J and nonlinearity the record carries. The
        defect F is -Lap v + (V + lam) v - g(v), the residual its weighted
        L2 norm relative to ||v||, and the Nehari defect
        |grad v|^2 + int (V + lam) v^2 - int g(v) v, with |grad v|^2 taken as
        <v, -Lap v>_w from the one -Lap v the defect needs. The multiplier
        zeroes that Nehari defect, so it is exactly the least-squares
        minimizer of the residual over lam. -F is formed directly as
        g(v) - ((V + lam) v + (-Lap v)), the exact negation of F; with V
        zero at every node (V + lam) v is lam v, the same bits.
        """
        report, nl, vm = e
        m = report.mass
        if m <= 0.0:
            raise ValueError("stationarity needs a field with positive mass")
        lap_v = grids.tridiagonal_apply(self.lap, v)
        tmp = v * lap_v
        quad = float(self.w.dot(tmp)) + vm
        gu = float(self.w.dot(nl.gs))
        if lam is None:
            lam = (gu - quad) / m
        if self.zero_potential:
            neg_f = lam * v
        else:
            neg_f = self.V + lam
            neg_f *= v
        neg_f += lap_v
        np.subtract(nl.g, neg_f, out=neg_f)
        np.multiply(neg_f, neg_f, out=tmp)
        res = math.sqrt(self.w.dot(tmp) / m)
        return Stationarity(lam, neg_f, res, quad + lam * m - gu, report.J, nl)


# a minimize uses two entries, its grid and the n/2 or n/4 grid of its
# search, so five models over both keep their operators and spectral floors
@functools.lru_cache(maxsize=16)
def discretization(grid: grids.RadialGrid, model) -> Discretization:
    """The one shared, read-only Discretization of a (grid, model) value."""
    return Discretization(grid, model)


def evaluate(u: GridFunction, model) -> EnergyReport:
    """All functional values of u under the given model."""
    if np.isnan(u.values).any():
        raise ValueError("field contains NaN")
    return discretization(u.grid, model).energy(u.values)[0]


def _stationarity(u: GridFunction, model, lam: float | None) -> Stationarity:
    """Discretization.stationarity of u."""
    op = discretization(u.grid, model)
    return op.stationarity(u.values, op.energy(u.values), lam)


def lagrange_multiplier(u: GridFunction, model) -> float:
    """The lam solving |grad u|^2 + int (V + lam) u^2 = int g(u) u.

    See Discretization.stationarity.
    """
    return _stationarity(u, model, None).lam


def euler_lagrange_residual(u: GridFunction, model, lam: float) -> float:
    """Weighted L2 norm of -Lap u + (V + lam) u - g(u), relative to ||u||."""
    return _stationarity(u, model, lam).residual


def nehari_residual(u: GridFunction, model, lam: float) -> float:
    """Signed defect of |grad u|^2 + int (V + lam) u^2 - int g(u) u.

    At lam = lagrange_multiplier(u) the defect is zero for every u by
    construction, so it then checks only the arithmetic. Evidence of
    stationarity comes from the residual and the Pohozaev identity, or from
    the defect at a lam found independently of u (an oracle's, say).
    """
    return _stationarity(u, model, lam).nehari


def pohozaev_residual(u: GridFunction, model, nl=None) -> float:
    """Signed defect of the multiplier-free stationarity identity.

    P(u) = |grad u|^2 - (1/2) int <grad V, x> u^2 + N int [G(u) - g(u)u/2],
    exactly the t-derivative of the discrete fiber energy at t = 1, which is
    how it is computed, with the shared Discretization's r V'(r). nl holds
    the nonlinearity's values at u, if the caller has them.
    """
    return fiber_energy_derivative(u, 1.0, model, nl, discretization(u.grid, model).xdV)


def identity_residuals(u: GridFunction, model, lam: float | None = None) -> IdentityResiduals:
    """Nehari and Pohozaev defects of u from one evaluation of the nonlinearity."""
    st = _stationarity(u, model, lam)
    return IdentityResiduals(
        nehari=st.nehari,
        pohozaev=pohozaev_residual(u, model, st.nl),
        lagrange_lambda=st.lam,
    )


# --- fiber map u_t(x) = t^(N/2) u(tx) ---


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


def fiber_energy_derivative(u: GridFunction, t: float, model, nl=None, xdV=None) -> float:
    """Exact t-derivative of the discrete fiber energy; nl is the nonlinearity
    at t^(N/2) u and xdV is <grad V, x> at r / t, if the caller has them."""
    _check_t(t)
    g = u.grid
    N = g.N
    val = t * grids.kinetic(u)
    usq = u.values * u.values
    xdV = model.potential.dV_dot_x(g.r / t) if xdV is None else xdV
    val -= grids.integrate(g, xdV * usq) / (2.0 * t)
    if nl is None:
        nl = model.nonlinearity.evaluate(t ** (0.5 * N) * u.values)
    val += N * t ** (-N - 1.0) * grids.integrate(g, nl.G - 0.5 * nl.gs)
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
    imported on first call, and scipy.optimize brings in scipy.linalg with
    it, so neither is part of ngs start-up.
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
