"""Radial grids, quadrature and the one discrete kinetic form with its -Laplacian.

The grid is cell-centred: n cells of width h = R/n between the faces jh,
j = 0..n, with fields at the cell centres r_j = (j - 1/2) h. Boundary
conventions: even reflection at r = 0 (no flux through the face at 0), hard
zero at r = R. Dimension N = 1 uses the symmetric full-line convention, so
all integrals match integrals over the whole real line; mirrored about 0 the
N = 1 grid is the plain uniform grid of the line.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .utils import read_csv, write_csv

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
    """Cell-centred radial grid with shell-volume quadrature and face weights.

    The weight of node j is the exact volume of its cell, the shell between
    the faces (j - 1)h and jh, so the weights sum to the exact ball volume.

    The face weights |S^{N-1}| (jh)^{N-1} / h define the kinetic form
        |grad u|^2 = sum_j edge_weights[j] (u_{j+1} - u_j)^2 + edge_weight_R u_n^2,
    shell measure times squared slope, summed over the interior faces. The
    Dirichlet zero sits on the face at R, half a cell beyond the last node,
    so the slope there is u_n / (h/2) over half a cell: edge_weight_R is
    2 |S^{N-1}| R^{N-1} / h. No flux crosses the face at the origin. A
    radius, cell volume or face weight off the float range raises ValueError.
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
            raise ValueError(f"need at least 64 nodes, got {self.n}")
        h = self.R / self.n
        faces = np.linspace(0.0, self.R, self.n + 1)
        om = SPHERE_MEASURE[self.N]
        with np.errstate(all="ignore"):   # tested below
            r = 0.5 * (faces[:-1] + faces[1:])
            w = (om / self.N) * np.diff(faces**self.N)
            edge = om * faces[1:-1] ** (self.N - 1) / h
        # a finite w bounds R^N and so R^(N-1), on which float ** would raise
        finite = np.isfinite(r[-1]) and np.isfinite(w).all() and np.isfinite(edge).all()
        edge_R = 2.0 * om * self.R ** (self.N - 1) / h if finite else math.inf
        if not (edge_R < math.inf and (w > 0).all()):
            raise ValueError(f"the grid R = {self.R:g}, n = {self.n}, N = {self.N} leaves "
                             "the float range: its cell volumes and face weights must "
                             "be finite and positive")
        for name, val in (("h", h), ("r", r), ("w", w), ("edge_weights", edge),
                          ("edge_weight_R", edge_R)):
            object.__setattr__(self, name, val)
        for arr in (self.r, self.w, self.edge_weights):
            arr.flags.writeable = False

    @classmethod
    def from_dict(cls, fields) -> "RadialGrid":
        """The grid that dataclasses.asdict wrote: a profile sidecar or a manifest's."""
        return cls(N=int(fields["N"]), R=float(fields["R"]), n=int(fields["n"]))


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


def integrate(grid: RadialGrid, values) -> float:
    """Quadrature of a node-wise integrand over the ball (full space for N=1)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n,):
        raise ValueError(
            f"grid has {grid.n} nodes but field has shape {values.shape}"
        )
    return float(grid.w @ values)


def mass(u: GridFunction) -> float:
    """Squared L2 norm of u."""
    return float(u.grid.w @ (u.values * u.values))


def kinetic_values(grid: RadialGrid, values: np.ndarray) -> float:
    """The kinetic form of RadialGrid on a node array; exactly nonnegative."""
    dv = values[1:] - values[:-1]
    dv *= dv
    last = float(values[-1])
    return float(grid.edge_weights.dot(dv)) + grid.edge_weight_R * last * last


def kinetic(u: GridFunction) -> float:
    """Squared L2 norm of the gradient: the kinetic form of RadialGrid."""
    return kinetic_values(u.grid, u.values)


def laplacian_tridiagonal(grid: RadialGrid):
    """The discrete -Laplacian W^-1 K as LAPACK's bands (sub, diag, sup).

    sub and sup are its n - 1 entries below and above the diagonal. K is the
    symmetric stiffness of the kinetic form (u^T K u = kinetic) and W the
    cell volumes, so <u, -Lap v>_w = u^T K v: the operator is the gradient
    of the kinetic form and W-symmetric. Row j is the flux balance of cell
    j. Sign pattern is an M-matrix: diag > 0, off-diagonals <= 0.
    """
    # no flux through the face at 0; the Dirichlet face at R is diagonal only
    sub = -grid.edge_weights / grid.w[1:]
    sup = -grid.edge_weights / grid.w[:-1]
    diag = np.concatenate(([0.0], -sub))
    diag[:-1] -= sup
    diag[-1] += grid.edge_weight_R / grid.w[-1]
    return sub, diag, sup


def tridiagonal_apply(bands, values: np.ndarray) -> np.ndarray:
    """Product of the matrix with bands (sub, diag, sup) and a node array."""
    sub, diag, sup = bands
    out = diag * values
    tmp = sup * values[1:]
    out[:-1] += tmp
    np.multiply(sub, values[:-1], out=tmp)
    out[1:] += tmp
    return out


def even_extension(u: GridFunction):
    """u as a function of radius: even at the origin, zero from R on.

    A cubic spline through the nodes, the hard zero at R and the value
    u(0) = (9 u_1 - u_2)/8 of the quadratic even extension through the first
    two nodes, clamped to zero slope at the origin. The SciPy spline is
    imported on first call, and scipy.interpolate brings in scipy.linalg
    with it, so neither is part of ngs start-up.
    """
    from scipy.interpolate import CubicSpline

    g = u.grid
    x = np.concatenate(([0.0], g.r, [g.R]))
    y = np.concatenate(([(9.0 * u.values[0] - u.values[1]) / 8.0], u.values, [0.0]))
    spline = CubicSpline(x, y, bc_type=((1, 0.0), (2, 0.0)))

    def fn(r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= g.R, spline(np.minimum(r, g.R)), 0.0)

    return fn


class GNReport(NamedTuple):
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


PROFILE_COLUMNS = {"r": float, "u": float}


def save_profile(u: GridFunction, path) -> list[Path]:
    """Write the profile as CSV "r,u" plus a JSON sidecar with grid metadata.

    Returns the paths written (CSV first). The sidecar shares the CSV stem
    and keeps R exactly, so it is written by json.dump and not rounded.
    """
    path = Path(path)
    side = path.with_suffix(".json")
    write_csv(path, PROFILE_COLUMNS, zip(u.grid.r.tolist(), u.values.tolist()))
    with open(side, "w") as fh:
        json.dump(dataclasses.asdict(u.grid), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [path, side]


def load_profile(path) -> GridFunction:
    path = Path(path)
    with open(path.with_suffix(".json")) as fh:
        grid = RadialGrid.from_dict(json.load(fh))
    r_file, values = map(np.array, read_csv(path, PROFILE_COLUMNS))
    if len(values) != grid.n:
        raise ValueError(f"profile has {len(values)} rows but sidecar grid expects {grid.n}")
    if not np.allclose(r_file, grid.r, rtol=1e-10, atol=1e-12):
        raise ValueError("profile radii disagree with the sidecar grid")
    return GridFunction(grid, values)
