"""The sign-off suite: ten numbered criteria, one pass/fail line each.

Every test here prints an ACCEPTANCE line through helpers.record, so the
terminal summary shows the whole gate at a glance. Tolerances are stated
inline; fixtures are shared so the full file stays in the minutes range.
"""
import math

import numpy as np
import pytest

from helpers import (
    MODELS_DIR,
    ZERO_G,
    ZERO_V,
    bumps,
    free_power,
    harmonic_v,
    power_g,
    record,
    well_v,
)
from ngs.curves import quadratic_form_infimum, scan, subadditivity_check, threshold_a0
from ngs.energy import (
    evaluate,
    fiber_energy_derivative,
    fiber_map,
    fiber_minimize,
    pohozaev_residual,
)
from ngs.flow import SolverConfig, minimize
from ngs.grids import RadialGrid, mass
from ngs.grids import kinetic as grids_kinetic
from ngs.models import load_model, make_model
from ngs.oracle import lambda_for_mass, scale_solution, scaling_exponent, shoot_Up

POTENTIALS = {
    "zero": ZERO_V,
    "harmonic": harmonic_v(1.0),
    "well": well_v(depth=1.0, width=1.0),
}
NONLINEARITIES = {
    "sigma1": power_g((1.0, 1.0)),
    "sigma2": power_g((1.0, 2.0)),
    "mix": power_g((0.5, 1.0), (1.0, 2.5)),
}
MASSES = (1.0, 2.0, 4.0)


@pytest.fixture(scope="module")
def matrix(grid20):
    """27 ground-state runs: 3 potentials x 3 nonlinearities x 3 masses."""
    out = {}
    for vname, vdict in POTENTIALS.items():
        for gname, gdict in NONLINEARITIES.items():
            model = make_model(1, gdict, vdict)
            for a in MASSES:
                out[(vname, gname, a)] = (model, minimize(a, model, grid20))
    return out


@pytest.fixture(scope="module")
def well_curves(grid20):
    """Trapped curve over 12 masses plus its V := 0 reference curve."""
    model = load_model(MODELS_DIR / "gaussian_well_cubic.json")
    masses = [0.5 * k for k in range(1, 13)]
    trapped = scan(masses, model, grid20)
    free = scan(masses, model.with_zero_potential(), grid20)
    return trapped, free


def test_criterion_1_oracle_equivalence(matrix, grid20, sech_sol):
    _, res = matrix[("zero", "sigma2", 4.0)]
    lam_err = abs(res.lam - 1.0)
    ref = math.sqrt(2.0) / np.cosh(grid20.r)
    l2 = math.sqrt(float(grid20.w @ (res.u.values - ref) ** 2))
    oracle_E = scale_solution(
        sech_sol, lambda_for_mass(3.0, 1, 4.0, base_mass=sech_sol.mass)
    ).energy_I
    rel_c = abs(res.energy - oracle_E) / abs(oracle_E)
    ok = res.converged and lam_err <= 1e-3 and l2 <= 1e-3 and rel_c <= 1e-3
    record(1, ok, f"lambda err {lam_err:.2e} (tol 1e-3), L2 dist {l2:.2e} "
                  f"(tol 1e-3), rel energy err {rel_c:.2e} (tol 1e-3)")
    assert ok


def test_criterion_2_scaling_laws(n3_sol):
    lams = np.array([1.0, 2.0, 4.0, 8.0])
    details = []
    ok = True
    for N, p in ((1, 3.0), (1, 2.0), (3, 3.0)):
        grid = RadialGrid(N, 20.0, 2000)
        # the N = 3 shooting does not depend on the grid: the session's
        # profile, resampled here, is the one shoot_Up would return
        base = (scale_solution(n3_sol, 1.0, grid=grid) if N == 3
                else shoot_Up(p, N, grid))
        masses = [scale_solution(base, lam).mass for lam in lams]
        slope = np.polyfit(np.log(lams), np.log(masses), 1)[0]
        expected = scaling_exponent(p, N)
        ok = ok and abs(slope - expected) <= 1e-2
        details.append(f"(N={N},p={p:g}): {slope:+.6f} vs {expected:+g}")
    critical = shoot_Up(5.0, 1, RadialGrid(1, 20.0, 2000))
    cmasses = [scale_solution(critical, lam).mass for lam in lams]
    cslope = np.polyfit(np.log(lams), np.log(cmasses), 1)[0]
    ok = ok and abs(cslope) <= 1e-3
    details.append(f"critical p=5: {cslope:+.2e} (tol 1e-3)")
    record(2, ok, "; ".join(details))
    assert ok


def test_criterion_3_identity_suite(matrix, grid20):
    poho_tol = max(1e-4, 10.0 * grid20.h**2)
    worst_n = worst_p = worst_m = 0.0
    n_conv = 0
    ok = True
    for (vname, gname, a), (_, res) in matrix.items():
        if not res.converged:
            ok = False
            continue
        n_conv += 1
        worst_n = max(worst_n, abs(res.nehari))
        worst_p = max(worst_p, abs(res.pohozaev))
        worst_m = max(worst_m, abs(mass(res.u) - a) / a)
    ok = ok and n_conv == 27 and worst_n <= 1e-4 and worst_p <= poho_tol \
        and worst_m <= 1e-12
    record(3, ok, f"{n_conv}/27 converged; worst |nehari| {worst_n:.2e} "
                  f"(tol 1e-4), worst |pohozaev| {worst_p:.2e} "
                  f"(tol {poho_tol:.0e}), worst mass rel err {worst_m:.1e} "
                  f"(tol 1e-12)")
    assert ok


def test_criterion_4_curve_structure(well_curves):
    trapped, free = well_curves
    mono = trapped.monotone_violations(1e-8)
    report = subadditivity_check(trapped, tol=1e-6)
    attained_rows = [r for r in report.rows if r.all_converged]
    strict = all(r.gap < 0 for r in attained_rows)
    below = all(
        c.C_a < e.C_a
        for c, e in zip(trapped.points, free.points)
        if e.converged and e.C_a < 0
    )
    n_compared = sum(1 for e in free.points if e.converged and e.C_a < 0)
    ok = (not trapped.partial and mono == 0 and report.ok and strict
          and len(attained_rows) == len(report.rows) and below and n_compared == 12)
    worst_gap = max((r.gap for r in report.rows), default=float("nan"))
    record(4, ok, f"12-mass well scan: {mono} monotonicity violations "
                  f"(slack 1e-8); {len(report.rows)} subadditive pairs, all "
                  f"gaps <= 1e-6, max gap {worst_gap:.2e}, strict at every "
                  f"attained pair; C_a < E_a at {n_compared}/12 attained masses")
    assert ok


def test_criterion_5_thresholds(grid20):
    details = []
    # (i) single power at the critical exponent: finite limsup at zero
    quintic = load_model(MODELS_DIR / "quintic_free.json")
    lo = threshold_a0(quintic, grid20)
    pos = (not lo.below_lower_bracket) and lo.a0 - lo.half_width > 0
    townes = math.sqrt(3.0) * math.pi / 2.0
    pos = pos and abs(lo.a0 - townes) <= 0.05
    details.append(f"finite_limsup: a0 = {lo.a0:.4f} +- {lo.half_width:.4f} > 0")
    # (ii) superfast nonlinearity: negative energy at any mass
    well = load_model(MODELS_DIR / "gaussian_well_cubic.json")
    hi = threshold_a0(well, grid20)
    fast = hi.below_lower_bracket and hi.a0 <= 1e-3
    details.append(f"superfast: a0 <= {hi.a0:.0e}")
    # (iii) deep well: negative quadratic form forces a0 = 0 even with
    # a finite-limsup nonlinearity
    deep = make_model(1, power_g((1.0, 4.0)), well_v(depth=5.0, width=1.0))
    q = quadratic_form_infimum(deep, grid20)
    dp = threshold_a0(deep, grid20)
    spectral = q < 0 and dp.below_lower_bracket and dp.a0 <= 1e-3
    details.append(f"deep well: form infimum {q:.3f} < 0, a0 <= {dp.a0:.0e}")
    ok = pos and fast and spectral
    record(5, ok, "; ".join(details))
    assert ok


def test_criterion_6_coercive_compactness(grid20):
    model = load_model(MODELS_DIR / "harmonic_cubic.json")
    details = []
    ok = True
    # with stop_energy_below set the search reads every end, so no start
    # stops at flow.SEARCH_TOL: each one ends at tol_grad, and the spread
    # compares all of them
    config = SolverConfig(stop_energy_below=-math.inf)
    for a in (0.1, 1.0, 10.0):
        res = minimize(a, model, grid20, config)
        tight = sum(r <= config.tol_grad for r in res.all_start_residuals)
        spread = max(res.all_start_energies) - min(res.all_start_energies)
        ok = (ok and res.converged and not res.start_disagreement
              and tight == config.starts and spread <= 1e-6)
        # the starts reach one state: below 1e-12 the spread is rounding
        # noise, which any change of rounding moves, so it prints as a bound
        shown = "< 1e-12" if spread < 1e-12 else f"{spread:.1e}"
        details.append(f"a={a:g}: J={res.C_a:.6f} spread {shown}, "
                       f"{tight} of {config.starts} starts at tol_grad")
    linear = make_model(1, ZERO_G, harmonic_v(1.0))
    lres = minimize(1.0, linear, grid20)
    eig_err = abs(-lres.lam - 1.0)
    ok = ok and lres.converged and eig_err <= 1e-3
    details.append(f"g=0 eigenvalue err {eig_err:.1e} (tol 1e-3)")
    record(6, ok, "; ".join(details))
    assert ok


def test_criterion_7_fiber_geometry(grid20):
    model = free_power(1, 2.0)
    rng = np.random.default_rng(12)
    worst_d = worst_p = 0.0
    n_checked = 0
    attempts = 0
    while n_checked < 50:
        attempts += 1
        assert attempts < 1000
        u = bumps(grid20, rng)
        u = u.with_values(2.0 * u.values / math.sqrt(mass(u)))
        # pure cubic fiber: J(t) = kinetic * (t^2/2 - t0 t) with
        # t0 = (int u^4/4) / kinetic, so J[u] < 0 iff t0 > 1/2. Keep
        # draws whose minimum already sits at O(1) scale; amplifying the
        # rest would inflate the absolute residuals being bounded here.
        k = float(grids_kinetic(u))
        p4 = float(grid20.w @ (u.values**4 / 4.0))
        if not 0.6 < p4 / k < 2.5:
            continue
        assert evaluate(u, model).J < 0.0
        t0, _ = fiber_minimize(u, model)
        n_checked += 1
        worst_d = max(worst_d, abs(fiber_energy_derivative(u, t0, model)))
        worst_p = max(worst_p, abs(pohozaev_residual(fiber_map(u, t0), model)))
    ok = n_checked == 50 and worst_d <= 1e-6 and worst_p <= 1e-3
    record(7, ok, f"50 profiles with J < 0: worst |dJ/dt(t0)| {worst_d:.2e} "
                  f"(tol 1e-6), worst Pohozaev at u_t0 {worst_p:.2e} (tol 1e-3)")
    assert ok


def test_criterion_8_multiplier_sign(matrix):
    checked = 0
    ok = True
    for (vname, gname, a), (model, res) in matrix.items():
        if not math.isfinite(model.potential.V_inf):
            continue
        if not (res.converged and res.energy < -1e-6):
            continue
        checked += 1
        ok = ok and res.lam > 0
    ok = ok and checked >= 18
    record(8, ok, f"{checked} attained minimizers with C_a < 0 under finite "
                  f"V_inf; lambda > 0 in every one")
    assert ok


def test_criterion_9_refinement_order(matrix, grid20):
    _, coarse = matrix[("zero", "sigma2", 4.0)]
    fine_grid = RadialGrid(1, 20.0, 4000)
    fine = minimize(4.0, free_power(1, 2.0), fine_grid)
    exact = -2.0 / 3.0
    e_coarse = abs(coarse.energy - exact)
    e_fine = abs(fine.energy - exact)
    order = math.log2(e_coarse / e_fine)
    ok = fine.converged and 1.8 <= order <= 2.2
    record(9, ok, f"|C - exact|: {e_coarse:.2e} at n=2000, {e_fine:.2e} at "
                  f"n=4000; measured order {order:.3f} (window [1.8, 2.2])")
    assert ok


def test_criterion_10_richardson_extrapolation(grid20):
    # the starts run on n/4, so the winner's converged J there and the
    # finished J on n give (C - C_s)/15, Richardson's estimate of the h^2
    # error, with no extra solve
    res = minimize(4.0, load_model(MODELS_DIR / "power3_free.json"), grid20)
    d = res.to_dict()
    exact = -2.0 / 3.0
    err = abs(d["C_a_extrapolated"] - exact)
    ok = res.converged and d["start_grid_n"] == 500 and err <= 1e-8
    record(10, ok, f"power3_free a=4: |C_extrapolated - exact| {err:.2e} at n=2000 "
                   f"(tol 1e-8), raw |C - exact| {abs(res.energy - exact):.2e}, "
                   f"estimate {d['discretization_error_estimate']:.3e}")
    assert ok
