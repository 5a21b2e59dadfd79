"""Radial grids, quadrature, the kinetic form and the discrete radial Laplacian.

Fields live on interior nodes r_j = j*h, j = 1..n, with h = R/(n+1).
Boundary conventions: even reflection at r = 0 (zero slope), hard zero at
r = R. Dimension N = 1 uses the symmetric full-line convention, so all
integrals match integrals over the whole real line.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# surface measure of the unit sphere; the N = 1 entry is 2 because a radius
# pairs the points {-r, +r} under the full-line convention
SPHERE_MEASURE = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}

# Per-dimension constants for the interpolation bound
# |u|_{2+4/N}^{2+4/N} <= C(N) |grad u|_2^2 |u|_2^{4/N}.
# Upper bounds on the sharp constants, computed from the shooting profiles
# at the mass-critical exponent (scripts/gn_constants.py) and rounded up.
GN_DEFAULT = {1: 0.4053, 2: 0.1710, 3: 0.1045}


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid with shell-volume quadrature and kinetic edge weights.

    The weight of node j is the exact volume of the shell
    [r_j - h/2, r_j + h/2] (end cells absorb the stubs at 0 and R), so the
    weights sum to the exact ball volume and midpoint quadrature keeps its
    second-order accuracy for profiles with zero slope at the origin.

    The edge weights define the kinetic form
        |grad u|^2 = sum_j edge_weights[j] (u_{j+1} - u_j)^2 + edge_weight_R u_n^2,
    a midpoint sum of shell measure times squared slope over every edge.
    The last edge runs to the Dirichlet zero at R. The origin edge has slope
    (u_1 - u(0))/h = (u_2 - u_1)/(3h) through the even-reflection ghost
    value (see even_extension), so it folds into the first interior edge
    with a factor 1/9.
    """

    N: int
    R: float
    n: int

    def __post_init__(self):
        if self.N not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2, or 3, got {self.N}")
        if not 0 < self.R < np.inf:
            raise ValueError("domain radius must be positive and finite")
        if self.n < 64:
            raise ValueError(f"need at least 64 interior nodes, got {self.n}")
        h = self.R / (self.n + 1)
        r = h * np.arange(1, self.n + 1)
        lo = r - 0.5 * h
        hi = r + 0.5 * h
        lo[0] = 0.0
        hi[-1] = self.R
        om = SPHERE_MEASURE[self.N]
        w = (om / self.N) * (hi**self.N - lo**self.N)
        edge = om * (0.5 * (r[:-1] + r[1:])) ** (self.N - 1) / h
        edge[0] += om * (0.5 * h) ** (self.N - 1) / h / 9.0
        edge_R = om * (r[-1] + 0.5 * h) ** (self.N - 1) / h
        for name, val in (("h", h), ("r", r), ("w", w), ("edge_weights", edge),
                          ("edge_weight_R", edge_R)):
            object.__setattr__(self, name, val)
        for arr in (self.r, self.w, self.edge_weights):
            arr.flags.writeable = False

    def ball_volume(self) -> float:
        return SPHERE_MEASURE[self.N] / self.N * self.R**self.N

    def descriptor(self) -> dict:
        return {"N": self.N, "R": self.R, "n": self.n}


class GridFunction:
    """Immutable field sampled on a RadialGrid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: RadialGrid, values):
        values = np.array(values, dtype=float)
        if values.shape != (grid.n,):
            raise ValueError(
                f"expected {grid.n} node values, got shape {values.shape}"
            )
        values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("GridFunction is immutable")

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.grid, values)


def _check_same_grid(grid: RadialGrid, values: np.ndarray):
    if values.shape != (grid.n,):
        raise ValueError(
            f"grid has {grid.n} nodes but field has shape {values.shape}"
        )


def integrate(grid: RadialGrid, values) -> float:
    """Quadrature of a node-wise integrand over the ball (full space for N=1)."""
    values = np.asarray(values, dtype=float)
    _check_same_grid(grid, values)
    return float(grid.w @ values)


def mass(u: GridFunction) -> float:
    """Squared L2 norm of u."""
    return float(u.grid.w @ (u.values * u.values))


def kinetic_values(grid: RadialGrid, values: np.ndarray) -> float:
    """The kinetic form of RadialGrid on a node array; exactly nonnegative."""
    dv = np.diff(values)
    return float(grid.edge_weights @ (dv * dv)
                 + grid.edge_weight_R * values[-1] * values[-1])


def kinetic(u: GridFunction) -> float:
    """Squared L2 norm of the gradient: the edge-sum form of RadialGrid.

    Agrees with the quadratic form <u, -Lap u> of laplacian_apply to O(h^2).
    """
    return kinetic_values(u.grid, u.values)


def laplacian_tridiagonal(grid: RadialGrid):
    """Rows of the discrete -Laplacian: (lower, diag, upper) coefficient arrays.

    Interior rows discretize -u'' - (N-1)/r u' with second-order central
    differences. The first row folds in the even-reflection ghost value at
    the origin, which for every N reduces to the consistent coefficient
    (2N/3)/h^2 on (u_1 - u_2). Sign pattern is an M-matrix: diag > 0,
    off-diagonals <= 0.
    """
    n = grid.n
    h = grid.h
    inv = 1.0 / (h * h)
    c = (grid.N - 1) / (2.0 * h * grid.r)
    lower = -inv + c
    diag = np.full(n, 2.0 * inv)
    upper = -inv - c
    diag[0] = 2.0 * grid.N / 3.0 * inv
    upper[0] = -2.0 * grid.N / 3.0 * inv
    lower[0] = 0.0
    return lower, diag, upper


def tridiagonal_apply(rows, values: np.ndarray) -> np.ndarray:
    """Product of the matrix with (lower, diag, upper) rows and a node array."""
    lower, diag, upper = rows
    out = diag * values
    out[:-1] += upper[:-1] * values[1:]
    out[1:] += lower[1:] * values[:-1]
    return out


def laplacian_apply(u: GridFunction) -> GridFunction:
    """Apply the discrete -Laplacian (with the radial first-order term)."""
    return u.with_values(tridiagonal_apply(laplacian_tridiagonal(u.grid), u.values))


def even_extension(u: GridFunction):
    """u as a function of radius: even at the origin, zero from R on.

    A cubic spline through the nodes, the hard zero at R and the ghost value
    u(0) = (4 u_1 - u_2)/3 of the quadratic even extension through the first
    two nodes, clamped to zero slope at the origin. The SciPy spline is
    imported on first call, so that ngs start-up stays at numpy plus
    scipy.linalg.
    """
    from scipy.interpolate import CubicSpline

    g = u.grid
    x = np.concatenate(([0.0], g.r, [g.R]))
    y = np.concatenate(([(4.0 * u.values[0] - u.values[1]) / 3.0], u.values, [0.0]))
    spline = CubicSpline(x, y, bc_type=((1, 0.0), (2, 0.0)))

    def fn(r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= g.R, spline(np.minimum(r, g.R)), 0.0)

    return fn


@dataclass(frozen=True)
class GNReport:
    """Interpolation-inequality monitor output."""

    lhs: float
    ratio: float
    exceeds: bool


def gn_check(u: GridFunction, constant: float | None = None) -> GNReport:
    """Check |u|_{2+4/N}^{2+4/N} against C(N) |grad u|_2^2 |u|_2^{4/N}.

    Returns the left-hand side and its ratio to the bound; the exceeds flag
    is raised when the ratio passes 1. A sanity monitor, not a sharp-constant
    estimator.
    """
    N = u.grid.N
    m = mass(u)
    if m == 0.0:
        raise ValueError("interpolation check needs a nonzero field")
    if constant is None:
        constant = GN_DEFAULT[N]
    q = 2.0 + 4.0 / N
    lhs = integrate(u.grid, np.abs(u.values) ** q)
    rhs = constant * kinetic(u) * m ** (2.0 / N)
    ratio = lhs / rhs
    return GNReport(lhs=lhs, ratio=ratio, exceeds=ratio > 1.0)


def save_profile(u: GridFunction, path) -> list[Path]:
    """Write the profile as CSV "r,u" plus a JSON sidecar with grid metadata.

    Returns the paths written (CSV first). The sidecar shares the CSV stem.
    """
    path = Path(path)
    side = path.with_suffix(".json")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "u"])
        for rj, vj in zip(u.grid.r, u.values):
            writer.writerow([f"{rj:.12g}", f"{vj:.12g}"])
    with open(side, "w") as fh:
        json.dump(u.grid.descriptor(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [path, side]


def load_profile(path) -> GridFunction:
    path = Path(path)
    side = path.with_suffix(".json")
    with open(side) as fh:
        meta = json.load(fh)
    grid = RadialGrid(N=int(meta["N"]), R=float(meta["R"]), n=int(meta["n"]))
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [col.strip() for col in header[:2]] != ["r", "u"]:
            raise ValueError(f"expected profile header 'r,u', got {header!r}")
        for row in reader:
            rows.append((float(row[0]), float(row[1])))
    if len(rows) != grid.n:
        raise ValueError(
            f"profile has {len(rows)} rows but sidecar grid expects {grid.n}"
        )
    r_file = np.array([row[0] for row in rows])
    if not np.allclose(r_file, grid.r, rtol=1e-10, atol=1e-12):
        raise ValueError("profile radii disagree with the sidecar grid")
    return GridFunction(grid, [row[1] for row in rows])
