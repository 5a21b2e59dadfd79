"""Shared builders for the test suite."""
import contextlib
import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ngs import cli
from ngs.curves import EnergyCurve, SubadditivityRow
from ngs.energy import evaluate
from ngs.errors import SupportOverflowError
from ngs.grids import GridFunction, RadialGrid, even_extension, mass
from ngs.models import Model, make_model

MODELS_DIR = Path(__file__).resolve().parents[1] / "models"

ZERO_G = {"kind": "zero", "terms": []}
ZERO_V = {"kind": "zero", "params": []}


def power_g(*terms) -> dict:
    return {
        "kind": "power_sum",
        "terms": [{"coef": float(c), "sigma": float(s)} for c, s in terms],
    }


def harmonic_v(k: float = 1.0) -> dict:
    return {"kind": "harmonic", "params": [k]}


def well_v(depth: float = 1.0, width: float = 1.0) -> dict:
    return {"kind": "gaussian_well", "params": [depth, width]}


def free_power(N: int, sigma: float, coef: float = 1.0) -> Model:
    return make_model(N, power_g((coef, sigma)), ZERO_V)


def bumps(grid: RadialGrid, rng: np.random.Generator,
          n_bumps: int | None = None, r_span: float = 3.0) -> GridFunction:
    """Random smooth even field: mirrored gaussian bumps, decayed well inside R."""
    if n_bumps is None:
        n_bumps = int(rng.integers(1, 4))
    vals = np.zeros_like(grid.r)
    for _ in range(n_bumps):
        c = rng.uniform(0.0, r_span)
        w = rng.uniform(0.6, 2.0)
        amp = rng.uniform(0.3, 1.0)
        vals += amp * (np.exp(-(((grid.r - c) / w) ** 2))
                       + np.exp(-(((grid.r + c) / w) ** 2)))
    return GridFunction(grid, vals)


def crank_negative(u: GridFunction, model: Model,
                   rng: np.random.Generator | None = None) -> GridFunction:
    """Scale the amplitude until the energy is strictly negative.

    Superquadratic G guarantees J(s u) -> -inf as s grows, so doubling
    terminates. An optional extra factor randomizes how deep past the sign
    change the returned field sits.
    """
    s = 1.0
    for _ in range(60):
        if evaluate(u.with_values(s * u.values), model).J < -1e-6:
            break
        s *= 1.3
    else:
        raise AssertionError("could not reach negative energy by scaling")
    if rng is not None:
        s *= rng.uniform(1.0, 1.5)
    return u.with_values(s * u.values)


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
    profile = even_extension(u)
    edge = abs(float(profile(g.R / stretch)))
    if edge > 1e-8:
        raise SupportOverflowError(
            f"dilated support leaves the domain: |u| = {edge:.3g} at the "
            f"preimage of R"
        )
    out = GridFunction(g, profile(g.r / stretch))
    target = tau * mass(u)
    m_new = mass(out)
    if m_new <= 0.0:
        raise ValueError("dilation produced a vanishing field")
    return out.with_values(out.values * np.sqrt(target / m_new))


def subadditivity_rows_by_scan(curve: EnergyCurve) -> tuple:
    """Sub-additivity rows by the exhaustive rule: for each pair (i <= j),
    the first mass of least distance to a_i + a_j, kept if it matches."""
    pts = curve.points
    a_arr = np.array([pt.a for pt in pts])
    rows = []
    for i in range(len(pts)):
        for j in range(i, len(pts)):
            target = pts[i].a + pts[j].a
            k = int(np.argmin(np.abs(a_arr - target)))
            if not math.isclose(a_arr[k], target, rel_tol=1e-9, abs_tol=1e-12):
                continue
            rows.append(SubadditivityRow(
                a=pts[i].a, b=pts[j].a,
                gap=pts[k].C_a - pts[i].C_a - pts[j].C_a,
                all_converged=(pts[i].converged and pts[j].converged
                               and pts[k].converged),
            ))
    return tuple(rows)


def read_csv_row_by_row(path, columns: dict) -> list[list]:
    """utils.read_csv's rows as a plain row-by-row reader gives them, with
    each cell's type: the reference for its column-wise conversion."""
    parse = {float: float, int: int, str: str,
             bool: lambda cell: {"true": True, "false": False}[cell]}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader)[:len(columns)] == list(columns)
        return [[(cell, type(cell)) for cell in
                 (parse[kind](text) if text else None
                  for kind, text in zip(columns.values(), row))]
                for row in reader if row]


def run_cli(*argv, cwd=None):
    """Run ngs.cli.main(argv) in process, with the result shape of subprocess.run.

    Output goes to the returned stdout and stderr. The exit code is what the
    interpreter makes of main's return value or SystemExit: an int is the
    code, a message is printed and gives 1. The working directory is
    restored afterwards.
    """
    argv = [str(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    saved = os.getcwd()
    try:
        if cwd is not None:
            os.chdir(cwd)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
                if code is not None and not isinstance(code, int):
                    print(code, file=sys.stderr)
                    code = 1
    finally:
        os.chdir(saved)
    return subprocess.CompletedProcess(argv, code or 0, out.getvalue(), err.getvalue())


# acceptance summary lines, printed by the conftest terminal hook
ACCEPTANCE_LINES: list[str] = []


def record(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
