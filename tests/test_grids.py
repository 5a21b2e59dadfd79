"""Discretization layer: quadrature, Laplacian, gradient norm, interpolation bound."""
import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import MODELS_DIR, bumps, free_power, read_csv_row_by_row
from ngs import utils
from ngs.energy import euler_lagrange_residual, evaluate
from ngs.flow import minimize
from ngs.grids import (
    PROFILE_COLUMNS,
    SPHERE_MEASURE,
    GridFunction,
    RadialGrid,
    gn_check,
    integrate,
    kinetic,
    kinetic_values,
    laplacian_tridiagonal,
    load_profile,
    mass,
    neg_laplacian,
    save_profile,
)
from ngs.models import load_model
from ngs.utils import read_csv


def gaussian(grid, scale=1.0):
    return GridFunction(grid, scale * np.exp(-0.5 * grid.r**2))


def normalized_gaussian(grid):
    # unit full-line mass in 1d
    return GridFunction(grid, math.pi ** (-0.25) * np.exp(-0.5 * grid.r**2))


def neg_lap(grid, values):
    """-Lap of a node array from its face fluxes, as Discretization.stationarity forms it."""
    return neg_laplacian(grid, values, kinetic_values(grid, values)[1])


# --- construction ---

def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RadialGrid(4, 10.0, 128)
    with pytest.raises(ValueError):
        RadialGrid(1, -1.0, 128)
    with pytest.raises(ValueError):
        RadialGrid(1, 10.0, 63)


@pytest.mark.parametrize("N, R", [(3, 1e200), (3, 1e150), (3, 1e-300), (2, 1.7e308),
                                  (1, 1.7e308), (1, 1e-310)])
def test_grid_off_the_float_range_is_rejected_without_warning(N, R):
    # a cell volume or face weight that overflows, or a cell volume that
    # underflows to 0, is refused before any operator is built
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="leaves the float range"):
            RadialGrid(N, R, 2000)


@pytest.mark.parametrize("N, R", [(1, 1e-300), (1, 1e154), (3, 1e-100), (3, 1e100)])
def test_grid_near_the_float_range_keeps_float_weights(N, R):
    g = RadialGrid(N, R, 2000)
    assert type(g.h) is float and type(g.edge_weight_R) is float
    assert np.isfinite(g.w).all() and (g.w > 0).all() and np.isfinite(g.edge_weights).all()


@pytest.mark.parametrize("N", [1, 2, 3])
def test_weights_sum_to_ball_volume(N):
    # shell weights are exact cell volumes, so the sum telescopes
    g = RadialGrid(N, 7.5, 128)
    volume = SPHERE_MEASURE[N] / N * 7.5**N
    assert math.isclose(float(np.sum(g.w)), volume, rel_tol=1e-13)


def test_grid_function_shape_checked():
    g = RadialGrid(1, 10.0, 128)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(127))
    with pytest.raises(ValueError):
        integrate(g, np.zeros(64))


def test_grid_function_immutable():
    g = RadialGrid(1, 10.0, 128)
    u = gaussian(g)
    with pytest.raises(AttributeError):
        u.values = np.zeros(g.n)
    with pytest.raises(ValueError):
        u.values[0] = 1.0


# --- quadrature ---

def test_normalized_gaussian_mass(grid12):
    u = normalized_gaussian(grid12)
    assert abs(mass(u) - 1.0) <= 1e-6


def test_normalized_gaussian_kinetic(grid12):
    u = normalized_gaussian(grid12)
    assert abs(kinetic(u) - 0.5) <= 1e-4


def test_integrate_zero_is_zero():
    g = RadialGrid(2, 8.0, 128)
    assert integrate(g, np.zeros(g.n)) == 0.0


def test_quadrature_refinement_at_least_second_order():
    errs_m, errs_k, hs = [], [], []
    for n in (128, 256, 512):
        g = RadialGrid(1, 12.0, n)
        u = normalized_gaussian(g)
        errs_m.append(abs(mass(u) - 1.0))
        errs_k.append(abs(kinetic(u) - 0.5))
        hs.append(g.h)
    # kinetic error is h^2-dominated; every N = 1 cell is a midpoint cell of
    # the full line, where the midpoint rule integrates a gaussian to
    # rounding, so the mass error has no slope to fit
    slope_k = np.polyfit(np.log(hs), np.log(errs_k), 1)[0]
    assert 1.8 <= slope_k <= 2.2, (slope_k, errs_k)
    assert max(errs_m) <= 1e-13, errs_m


# --- laplacian ---

def test_laplacian_of_affine_segment_vanishes():
    g = RadialGrid(1, 10.0, 256)
    # tent peaked at r=3, gone by r=6; affine pieces have zero second difference
    vals = np.clip(1.0 - np.abs(g.r - 3.0) / 3.0, 0.0, None)
    lu = neg_lap(g, vals)
    interior = (g.r > 0.5) & (np.abs(g.r - 3.0) > 0.2) & (np.abs(g.r - 6.0) > 0.2) \
        & (g.r < 9.0)
    assert np.max(np.abs(lu[interior])) <= 1e-10


@pytest.mark.parametrize("N,factor", [(1, 1.0), (2, 2.0), (3, 3.0)])
def test_laplacian_gaussian_second_order(N, factor):
    # -lap e^{-r^2/2} = (N - r^2) e^{-r^2/2}; the max runs over every cell,
    # the first one included
    errs, hs = [], []
    for n in (256, 512, 1024):
        g = RadialGrid(N, 12.0, n)
        u = gaussian(g)
        exact = (factor - g.r**2) * np.exp(-0.5 * g.r**2)
        errs.append(np.max(np.abs(neg_lap(g, u.values) - exact)))
        hs.append(g.h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert errs[-1] <= 1e-3
    assert 1.7 <= slope <= 2.3, (slope, errs)


def test_laplacian_is_linear():
    g = RadialGrid(2, 9.0, 200)
    rng = np.random.default_rng(3)
    u, v = bumps(g, rng), bumps(g, rng)
    a, b = 2.5, -1.25
    lhs = neg_lap(g, a * u.values + b * v.values)
    rhs = a * neg_lap(g, u.values) + b * neg_lap(g, v.values)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_kinetic_matches_laplacian_quadratic_form(N):
    # -Lap is W^-1 K of the kinetic form, so <u, -Lap u>_w is |grad u|^2
    # up to rounding at every resolution. Its bands (sub, diag, sup) have
    # LAPACK's lengths (n - 1, n, n - 1), W sub and W sup are the one
    # symmetric off-diagonal of K, and the face-flux -Lap u is the product
    # with the dense matrix of the bands
    for n in (256, 512):
        g = RadialGrid(N, 12.0, n)
        u = gaussian(g)
        sub, diag, sup = laplacian_tridiagonal(g)
        assert (len(sub), len(diag), len(sup)) == (n - 1, n, n - 1)
        np.testing.assert_allclose(g.w[1:] * sub, g.w[:-1] * sup, rtol=1e-14)
        lap_u = neg_lap(g, u.values)
        dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        np.testing.assert_allclose(lap_u, dense @ u.values,
                                   rtol=0, atol=1e-12 * np.max(np.abs(lap_u)))
        qf = integrate(g, u.values * lap_u)
        assert abs(kinetic(u) - qf) <= 1e-12 * kinetic(u)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_face_flux_laplacian_is_the_band_product_on_random_fields(N):
    # on seeded random fields of random scale: -Lap v from the face fluxes
    # equals the product with the bands dgtsv and dstebz read to 1e-13 of
    # its size, <v, -Lap v>_w is twice the energy's kinetic part, the kinetic
    # form, to rounding, and that form is nonnegative, on a constant field too
    rng = np.random.default_rng(N)
    model = free_power(N, 1.0)
    for n in (64, 201, 500):
        g = RadialGrid(N, 10.0, n)
        sub, diag, sup = laplacian_tridiagonal(g)
        dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        for v in (*(rng.standard_normal(n) * 10.0 ** rng.uniform(-50, 50) for _ in range(4)),
                  np.full(n, rng.uniform(-1.0, 1.0))):
            kin, flux = kinetic_values(g, v)
            lap_v = neg_laplacian(g, v, flux)
            ref = dense @ v
            assert np.max(np.abs(lap_v - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert kin >= 0.0
            assert kin == 2.0 * evaluate(GridFunction(g, v), model).kinetic
            assert abs(float((g.w * v) @ lap_v) - kin) <= 1e-12 * kin


# --- interpolation-inequality monitor ---

def test_gn_gaussian_with_loose_constant(grid12):
    rep = gn_check(normalized_gaussian(grid12), constant=2.0)
    assert rep.ratio < 1.0
    assert not rep.exceeds


def test_gn_ratio_invariant_under_mass_preserving_rescale(grid12):
    # t^{N/2} u(t r) leaves both sides of the bound unchanged
    base = lambda t: GridFunction(  # noqa: E731
        grid12, math.sqrt(t) * np.exp(-0.5 * (t * grid12.r) ** 2))
    r1 = gn_check(base(1.0)).ratio
    for t in (0.5, 2.0):
        rt = gn_check(base(t)).ratio
        assert abs(rt - r1) <= 5e-5 * r1


@pytest.mark.parametrize("N", [1, 2, 3])
def test_gn_default_bound_holds_on_random_ensemble(N):
    g = RadialGrid(N, 10.0, 256)
    rng = np.random.default_rng(11)
    draws = 100 if N == 1 else 25
    for _ in range(draws):
        rep = gn_check(bumps(g, rng))
        assert rep.ratio < 1.0
        assert not rep.exceeds


def test_gn_rejects_zero_field():
    g = RadialGrid(1, 10.0, 128)
    with pytest.raises(ValueError):
        gn_check(GridFunction(g, np.zeros(g.n)))


# --- persistence ---

def test_profile_roundtrip(tmp_path):
    g = RadialGrid(3, 9.0, 200)
    u = gaussian(g, scale=1.7)
    paths = save_profile(u, tmp_path / "prof.csv")
    assert (tmp_path / "prof.csv").exists()
    assert (tmp_path / "prof.json").exists()
    assert len(paths) == 2
    v = load_profile(tmp_path / "prof.csv")
    assert v.grid.N == 3 and v.grid.n == 200
    assert math.isclose(v.grid.R, 9.0, rel_tol=1e-12)
    assert np.max(np.abs(v.values - u.values)) <= 1e-11 * np.max(np.abs(u.values))


def test_a_saved_solution_replays_its_residual(tmp_path):
    # profiles hold round-trip digits, so a solution read back has the run's
    # own residual, bit for bit; from 12 digits it read 4.5e-8 > tol_grad
    model = load_model(MODELS_DIR / "power3_free.json")
    res = minimize(4.0, model, RadialGrid(1, 20.0, 2000))
    save_profile(res.u, tmp_path / "prof.csv")
    u = load_profile(tmp_path / "prof.csv")
    assert u.values.tobytes() == res.u.values.tobytes()
    assert euler_lagrange_residual(u, model, res.lam) == res.residual_norm


def test_scenario_profile_reads_as_row_by_row():
    # utils.read_csv returns one list per column; the cells and their types
    # are those a plain row-by-row reader gives, by column
    path = MODELS_DIR.parent / "scenarios" / "solve_cubic_free" / "profile.csv"
    cols = read_csv(path, PROFILE_COLUMNS)
    assert [len(col) for col in cols] == [2000, 2000]
    assert [[(c, type(c)) for c in col] for col in cols] == \
        list(map(list, zip(*read_csv_row_by_row(path, PROFILE_COLUMNS))))
    values = load_profile(path).values
    assert values.tolist() == cols[1]


@pytest.mark.parametrize("edit, where", [
    (lambda lines: lines[:2] + ["0.5,abc"] + lines[3:], "line 3: could not convert"),
    (lambda lines: lines[:3] + ["0.5"] + lines[4:], "line 4: expected r,u"),
    (lambda lines: lines[:4] + ["0.5,"] + lines[5:], "line 5: could not convert"),
    (lambda lines: ["r,v"] + lines[1:], "line 1: expected header r,u"),
    (lambda lines: lines + ['1.0,"' + "x" * 200_000], "line 202: field larger"),
], ids=["non-numeric", "one-column", "empty-cell", "header", "overlong-field"])
def test_malformed_profile_names_file_and_line(tmp_path, edit, where):
    path = save_profile(gaussian(RadialGrid(1, 9.0, 200)), tmp_path / "prof.csv")[0]
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=f"prof.csv {where}"):
        load_profile(path)


def test_a_malformed_file_is_read_once(tmp_path, monkeypatch):
    # the row that fails is named from the one pass, not from a second read
    path = save_profile(gaussian(RadialGrid(1, 9.0, 200)), tmp_path / "prof.csv")[0]
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + ["0.5,abc"] + lines[3:]) + "\n")
    readers, reader = [], csv.reader
    monkeypatch.setattr(utils.csv, "reader", lambda *a: readers.append(a) or reader(*a))
    with pytest.raises(ValueError, match="prof.csv line 3: could not convert"):
        read_csv(path, PROFILE_COLUMNS)
    assert len(readers) == 1


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(), min_size=1, max_size=6))
@example([0.0, -0.0, 5e-324, -2.2250738585072e-308, math.inf, -math.inf, math.nan])
def test_csv_cells_are_round_trip_floats_words_and_empty(tmp_path_factory, xs):
    # write_csv hands floats to csv, which prints a Python float and a NumPy
    # float64 alike as repr(float(x)), the shortest digits that read back to
    # x; a bool or NumPy bool reads true or false, None an empty cell
    path = tmp_path_factory.getbasetemp() / "cells.csv"
    utils.write_csv(path, ("x", "x64", "pos", "pos_np", "none", "k"),
                    ((x, np.float64(x), x > 0, np.bool_(x > 0), None, k)
                     for k, x in enumerate(xs)))
    rows = "".join(f"{x!r},{x!r},{str(x > 0).lower()},{str(x > 0).lower()},,{k}\n"
                   for k, x in enumerate(xs))
    assert path.read_text() == "x,x64,pos,pos_np,none,k\n" + rows


# --- property tests ---

@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6), st.floats(0.1, 10.0))
def test_mass_is_nonnegative_and_quadratic(seed, c):
    g = RadialGrid(1, 8.0, 96)
    u = bumps(g, np.random.default_rng(seed))
    m = mass(u)
    assert m >= 0.0
    assert math.isclose(mass(u.with_values(c * u.values)), c * c * m,
                        rel_tol=1e-12, abs_tol=1e-300)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6))
def test_kinetic_is_nonnegative(seed):
    g = RadialGrid(3, 8.0, 96)
    assert kinetic(bumps(g, np.random.default_rng(seed))) >= 0.0
