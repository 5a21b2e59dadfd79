"""Reference oracle for the potential-free power equation, plus scaling laws."""
import hashlib
import math

import numpy as np
import pytest

from helpers import free_power
from ngs import oracle
from ngs.energy import evaluate, nehari_residual, pohozaev_residual
from ngs.errors import BracketError, MassCriticalError, SupportOverflowError
from ngs.flow import minimize
from ngs.grids import RadialGrid
from ngs.oracle import (
    _integrate_profile,
    energy_scaling_check,
    lambda_for_mass,
    scale_solution,
    scaling_exponent,
    shoot_Up,
)

# --- frequency-1 profiles ---

def test_cubic_line_soliton(sech_sol):
    assert abs(sech_sol.center_value - math.sqrt(2.0)) <= 1e-4
    assert abs(sech_sol.mass - 4.0) <= 1e-3
    r = sech_sol.profile.grid.r
    ref = math.sqrt(2.0) / np.cosh(r)
    assert np.max(np.abs(sech_sol.profile.values - ref)) <= 1e-6


def test_quadratic_line_profile(sech2_sol):
    assert abs(sech2_sol.center_value - 1.5) <= 1e-4
    assert abs(sech2_sol.mass - 6.0) <= 1e-3


def _line_soliton(p, lam, r):
    # beta0 lam^(1/(p-1)) sech^(2/(p-1))((p-1) sqrt(lam) r / 2); cosh overflows
    # to inf far out, where the profile is 0
    beta0 = ((p + 1.0) / 2.0) ** (1.0 / (p - 1.0))
    amp = lam ** (1.0 / (p - 1.0))
    with np.errstate(over="ignore"):
        return amp * beta0 / np.cosh((p - 1.0) * math.sqrt(lam) * r / 2.0) ** (2.0 / (p - 1.0))


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 5.0])
def test_line_center_is_first_integral_value(p, monkeypatch):
    # the N = 1 center is beta0 = ((p+1)/2)^(1/(p-1)), where the first integral
    # u'^2 = u^2 - 2|u|^(p+1)/(p+1) vanishes, and the profile is the closed-form
    # sech: neither the profile nor a rescale of it integrates anything
    beta0 = ((p + 1.0) / 2.0) ** (1.0 / (p - 1.0))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _integrate_profile(*args, **kwargs)

    monkeypatch.setattr(oracle, "_integrate_profile", counted)
    sol = shoot_Up(p, 1, RadialGrid(1, 20.0, 2000))
    scale_solution(sol, 2.0)
    assert calls == []
    assert sol.center_value == beta0
    r = sol.profile.grid.r
    assert np.max(np.abs(sol.profile.values - _line_soliton(p, 1.0, r))) \
        <= 4 * np.spacing(beta0)
    # the integrator agrees that beta0 is the separatrix: its miss is
    # negative (an overshoot) just above and positive (an undershoot) below
    assert _integrate_profile(1, p, beta0 * (1 + 1e-12), dense=False)[0] < 0
    assert _integrate_profile(1, p, beta0 * (1 - 1e-12), dense=False)[0] > 0


@pytest.mark.parametrize("p", [2.0, 3.0, 5.0])
def test_scaled_line_soliton_is_the_closed_form_on_a_wide_grid(p):
    # at r = 1000 the argument of cosh is far past its overflow; the oracle
    # evaluates the sech through exp(-x) and must raise no floating-point error
    base = shoot_Up(p, 1, RadialGrid(1, 20.0, 2000))
    wide = RadialGrid(1, 1000.0, 20000)
    lam = 4.0
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        scaled = scale_solution(base, lam, grid=wide)
    ref = _line_soliton(p, lam, wide.r)
    assert scaled.lam == lam
    assert scaled.center_value == lam ** (1.0 / (p - 1.0)) * base.center_value
    assert np.max(np.abs(scaled.profile.values - ref)) <= 8 * np.spacing(scaled.center_value)
    assert scaled.profile.values[-1] == 0.0
    assert scaled.highorder_residual <= 1e-6


def test_line_matching_radius_is_where_the_tail_starts():
    # U(r*) = TAIL_FRAC * beta0, which sets the stencil window and the
    # grid-radius hint of SupportOverflowError
    sol = shoot_Up(3.0, 1, RadialGrid(1, 20.0, 2000))
    u_star = float(sol.profile_fn(sol.matching_radius))
    assert math.isclose(u_star, oracle.TAIL_FRAC * sol.center_value, rel_tol=1e-12)


def test_three_d_profile_is_pinned(n3_sol):
    # the center value and profile bytes of Brent's search on the signed
    # miss; the bisection it replaced gave OLD_CENTER, to 1e-14 relative
    OLD_CENTER = float.fromhex("0x1.1597c27ee4ceep+2")
    assert n3_sol.center_value.hex() == "0x1.1597c27ee4ceap+2"
    assert abs(n3_sol.center_value - OLD_CENTER) <= 1e-14 * OLD_CENTER
    digest = hashlib.sha256(n3_sol.profile.values.tobytes()).hexdigest()
    assert digest == "6339de8d15fb8b44cc7b5fbf391775831101693d7dc1367da2ad14ba054a7f9a"


@pytest.mark.parametrize("p,N", [(3.0, 2), (3.0, 3), (7.0 / 3.0, 3)],
                         ids=["p3-N2", "p3-N3", "p7/3-N3"])
def test_three_d_separatrix_is_certified(p, N, monkeypatch):
    # one stop event and Brent's method on the signed miss take at most 32
    # integrations; the integrator overshoots just above the center value
    # and undershoots just below
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _integrate_profile(*args, **kwargs)

    monkeypatch.setattr(oracle, "_integrate_profile", counted)
    b = shoot_Up(p, N, RadialGrid(N, 20.0, 400)).center_value
    assert len(calls) <= 32
    assert _integrate_profile(N, p, b * (1 + 1e-12), dense=False)[0] < 0
    assert _integrate_profile(N, p, b * (1 - 1e-12), dense=False)[0] > 0


def test_overshooting_lower_bracket_is_a_bracket_error(monkeypatch):
    # beta0 bounds the N >= 2 center value from below; were it to overshoot,
    # Brent's method would find no sign change, and the search says so
    monkeypatch.setattr(oracle, "_integrate_profile", lambda N, p, b, dense: (-1.0, None))
    with pytest.raises(BracketError, match="lower shooting bracket unexpectedly overshoots"):
        shoot_Up(3.0, 3, RadialGrid(3, 10.0, 200))


def test_three_d_profile_shape(n3_sol):
    vals = n3_sol.profile.values
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)


def test_stationarity_identities(sech_sol, sech2_sol, n3_sol):
    for sol in (sech_sol, sech2_sol, n3_sol):
        model = free_power(sol.N, sol.p - 1.0)
        assert abs(nehari_residual(sol.profile, model, sol.lam)) <= 1e-4
        assert abs(pohozaev_residual(sol.profile, model)) <= 1e-4


def test_highorder_residual_certifies_solutions(sech_sol, sech2_sol, n3_sol):
    for sol in (sech_sol, sech2_sol, n3_sol):
        assert sol.highorder_residual <= 1e-6


def test_exponent_range_enforced():
    g3 = RadialGrid(3, 10.0, 200)
    with pytest.raises(BracketError):
        shoot_Up(6.0, 3, g3)
    with pytest.raises(BracketError):
        shoot_Up(1.0, 1, RadialGrid(1, 10.0, 200))
    with pytest.raises(ValueError):
        shoot_Up(3.0, 3, RadialGrid(1, 10.0, 200))


# --- frequency rescaling ---

def test_scale_identity(sech_sol):
    assert scale_solution(sech_sol, 1.0) is sech_sol


def test_scale_mass_law(sech_sol):
    assert abs(scale_solution(sech_sol, 4.0).mass - 8.0) <= 1e-3


def test_scale_composition(sech_sol):
    once = scale_solution(scale_solution(sech_sol, 2.0), 3.0)
    direct = scale_solution(sech_sol, 6.0)
    assert np.max(np.abs(once.profile.values - direct.profile.values)) <= 1e-6
    assert abs(once.lam - direct.lam) <= 1e-12


def test_scale_rejects_unresolved_tails(sech_sol):
    with pytest.raises(SupportOverflowError):
        scale_solution(sech_sol, 1e-4)


def test_critical_mass_frequency_invariant():
    grid = RadialGrid(1, 20.0, 2000)
    sol = shoot_Up(5.0, 1, grid)
    wide = RadialGrid(1, 40.0, 4000)
    for lam in (0.25, 4.0):
        scaled = scale_solution(sol, lam, grid=wide)
        assert abs(scaled.mass - sol.mass) <= 1e-5 * sol.mass


# --- scaling exponents ---

def test_scaling_exponent_values():
    assert scaling_exponent(3.0, 1) == 0.5
    assert scaling_exponent(2.0, 1) == 1.5
    assert scaling_exponent(3.0, 3) == -0.5
    assert scaling_exponent(5.0, 1) == 0.0
    assert abs(scaling_exponent(1.0 + 4.0 / 3.0, 3)) <= 1e-12


def test_lambda_for_mass_inverts_scaling(sech_sol):
    assert abs(lambda_for_mass(3.0, 1, 4.0, base_mass=sech_sol.mass) - 1.0) <= 1e-3
    lam8 = lambda_for_mass(3.0, 1, 8.0, base_mass=sech_sol.mass)
    assert abs(lam8 - 4.0) <= 1e-3 * 4.0
    assert lambda_for_mass(3.0, 1, sech_sol.mass, base_mass=sech_sol.mass) == 1.0


def test_lambda_for_mass_critical_is_an_error():
    with pytest.raises(MassCriticalError):
        lambda_for_mass(5.0, 1, 2.0, base_mass=1.0)
    with pytest.raises(ValueError):
        lambda_for_mass(3.0, 1, -1.0, base_mass=1.0)


def test_energy_curve_exponent(sech_sol):
    measured, expected = energy_scaling_check(3.0, 1, 2.0, 6.0, base=sech_sol)
    assert expected == 3.0
    assert abs(measured - expected) <= 1e-2


def test_energy_scaling_check_input_validation(sech_sol, n3_sol):
    with pytest.raises(ValueError):
        energy_scaling_check(3.0, 1, 2.0, 2.0, base=sech_sol)
    with pytest.raises(ValueError):
        energy_scaling_check(3.0, 3, 2.0, 4.0, base=n3_sol)


def test_energy_scaling_check_rejects_a_base_of_another_power(sech_sol, sech2_sol):
    # a p = 3 base scaled as if it solved p = 2 gave the exponent 1.0
    with pytest.raises(ValueError, match="base profile"):
        energy_scaling_check(2.0, 1, 2.0, 6.0, base=sech_sol)
    measured, expected = energy_scaling_check(2.0, 1, 2.0, 6.0, base=sech2_sol)
    assert abs(expected - 5.0 / 3.0) <= 1e-12
    assert abs(measured - expected) <= 1e-2


def test_energy_scaling_check_measures_the_quadrature(sech2_sol):
    # both p = 2 masses need a wider grid; widened with the same node count,
    # both sampled the base profile at the same points and the energies were
    # exact powers of each other (measured 5/3 to the last digit)
    measured, expected = energy_scaling_check(2.0, 1, 2.0, 6.0, base=sech2_sol)
    assert 0.0 < abs(measured - 5.0 / 3.0) <= 1e-5


def test_strict_binding_inequality(sech_sol):
    # E_{2a} < 2 E_a for the subcritical free problem
    lam2 = lambda_for_mass(3.0, 1, 2.0, base_mass=sech_sol.mass)
    lam4 = lambda_for_mass(3.0, 1, 4.0, base_mass=sech_sol.mass)
    wide = RadialGrid(1, 40.0, 4000)
    e2 = scale_solution(sech_sol, lam2, grid=wide).energy_I
    e4 = scale_solution(sech_sol, lam4).energy_I
    assert e4 < 2.0 * e2 < 0.0


# --- cross-validation against the descent solver ---

@pytest.mark.parametrize("p,N,a", [(3.0, 1, 4.0), (2.0, 1, 6.0)])
def test_descent_matches_oracle_energy_1d(p, N, a):
    grid = RadialGrid(N, 20.0, 1000)
    sol = shoot_Up(p, N, grid)
    lam = lambda_for_mass(p, N, a, base_mass=sol.mass)
    oracle_E = scale_solution(sol, lam).energy_I
    res = minimize(a, free_power(sol.N, sol.p - 1.0), grid)
    assert res.converged
    tol = max(1e-3, 10.0 * grid.h**2)
    assert abs(res.energy - oracle_E) <= tol * abs(oracle_E)


def test_descent_matches_oracle_energy_3d():
    grid = RadialGrid(3, 20.0, 1000)
    sol = shoot_Up(2.0, 3, grid)
    res = minimize(sol.mass, free_power(sol.N, sol.p - 1.0), grid)
    assert res.converged
    tol = max(1e-3, 10.0 * grid.h**2)
    assert abs(res.energy - sol.energy_I) <= tol * abs(sol.energy_I)
    rep = evaluate(res.u, free_power(sol.N, sol.p - 1.0))
    assert math.isclose(rep.J, rep.I, rel_tol=1e-15)
