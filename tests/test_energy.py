"""Functionals, stationarity identities, fiber and dilation maps."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (MODELS_DIR, ZERO_V, bumps, crank_negative, dilate, free_power,
                     harmonic_v, power_g)
from ngs.energy import (
    discretization,
    euler_lagrange_residual,
    evaluate,
    fiber_energy,
    fiber_energy_derivative,
    fiber_map,
    fiber_minimize,
    lagrange_multiplier,
    nehari_residual,
    pohozaev_residual,
)
from ngs.errors import BracketError, SupportOverflowError
from ngs.grids import GridFunction, RadialGrid, integrate, kinetic, mass
from ngs.models import load_model, make_model


@pytest.fixture(scope="module")
def free_cubic():
    return free_power(1, 2.0)


@pytest.fixture(scope="module")
def harmonic_linear():
    return make_model(1, {"kind": "zero", "terms": []}, harmonic_v(1.0))


def unit_gaussian(grid):
    return GridFunction(grid, math.pi ** (-0.25) * np.exp(-0.5 * grid.r**2))


def sech_field(grid):
    return GridFunction(grid, math.sqrt(2.0) / np.cosh(grid.r))


# --- evaluate ---

def test_evaluate_zero_field(grid12, free_cubic):
    rep = evaluate(GridFunction(grid12, np.zeros(grid12.n)), free_cubic)
    assert rep.J == rep.I == rep.kinetic == rep.mass == 0.0
    assert rep.potential_term == rep.nonlinear_term == 0.0


def test_evaluate_gaussian_free(grid12):
    linear = make_model(1, {"kind": "zero", "terms": []}, ZERO_V)
    rep = evaluate(unit_gaussian(grid12), linear)
    assert abs(rep.J - 0.25) <= 1e-4
    assert rep.J == rep.I
    assert rep.nonlinear_term == 0.0


def test_evaluate_gaussian_harmonic(grid12, harmonic_linear):
    rep = evaluate(unit_gaussian(grid12), harmonic_linear)
    assert abs(rep.potential_term - 0.25) <= 1e-4
    assert abs(rep.J - 0.5) <= 1e-4
    assert rep.J == rep.I + rep.potential_term


def test_evaluate_rejects_nan(grid12, free_cubic):
    vals = np.zeros(grid12.n)
    vals[5] = math.nan
    with pytest.raises(ValueError):
        evaluate(GridFunction(grid12, vals), free_cubic)


def test_energy_decomposition_exact_on_random_fields(free_cubic):
    g = RadialGrid(1, 10.0, 256)
    rng = np.random.default_rng(5)
    well = make_model(1, power_g((1.0, 2.0)), {"kind": "gaussian_well", "params": [2.0, 1.0]})
    for _ in range(20):
        u = bumps(g, rng)
        rep = evaluate(u, well)
        assert rep.J == rep.I + rep.potential_term
        # lower form bound: the potential never dips under its minimum
        assert rep.J >= rep.I + well.potential.c_ell * rep.mass / 2.0 - 1e-12


# --- euler-lagrange residual and multiplier ---

def test_sech_solves_free_cubic(free_cubic):
    g = RadialGrid(1, 20.0, 4000)
    u = sech_field(g)
    assert euler_lagrange_residual(u, free_cubic, 1.0) <= 1e-3
    assert abs(lagrange_multiplier(u, free_cubic) - 1.0) <= 1e-3
    assert abs(pohozaev_residual(u, free_cubic)) <= 1e-3
    assert abs(nehari_residual(u, free_cubic, 1.0)) <= 1e-3


def test_wrong_multiplier_raises_residual(free_cubic):
    g = RadialGrid(1, 20.0, 4000)
    u = sech_field(g)
    r_good = euler_lagrange_residual(u, free_cubic, 1.0)
    r_off = euler_lagrange_residual(u, free_cubic, 2.0)
    # shifting lambda by 1 adds u to the residual vector, norm ~ |u|/|u| = 1
    assert r_off >= 0.9
    assert r_off > 100 * r_good


def test_harmonic_ground_eigenpair(grid12, harmonic_linear):
    u = unit_gaussian(grid12)
    assert euler_lagrange_residual(u, harmonic_linear, -1.0) <= 1e-3
    assert abs(lagrange_multiplier(u, harmonic_linear) + 1.0) <= 1e-3


def test_multiplier_scale_invariant_for_linear_models(grid12, harmonic_linear):
    u = unit_gaussian(grid12)
    lam = lagrange_multiplier(u, harmonic_linear)
    lam_scaled = lagrange_multiplier(u.with_values(3.7 * u.values), harmonic_linear)
    assert math.isclose(lam, lam_scaled, rel_tol=1e-12)


def test_multiplier_minimizes_residual(free_cubic):
    g = RadialGrid(1, 12.0, 400)
    u = bumps(g, np.random.default_rng(9))
    lam = lagrange_multiplier(u, free_cubic)
    best = euler_lagrange_residual(u, free_cubic, lam)
    for delta in (1e-3, 1e-1, 1.0):
        assert euler_lagrange_residual(u, free_cubic, lam + delta) >= best
        assert euler_lagrange_residual(u, free_cubic, lam - delta) >= best


def test_pohozaev_generic_gaussian_not_stationary(grid12, free_cubic):
    u = unit_gaussian(grid12)
    u = u.with_values(2.0 * u.values)
    assert abs(pohozaev_residual(u, free_cubic)) > 1e-3


def test_pohozaev_reduces_to_kinetic_without_g_and_V(grid12):
    linear = make_model(1, {"kind": "zero", "terms": []}, ZERO_V)
    u = unit_gaussian(grid12)
    assert pohozaev_residual(u, linear) == kinetic(u)


@pytest.mark.parametrize("name", ["gaussian_well_cubic", "gaussian_well_mixed",
                                  "gaussian_well_deep", "harmonic_cubic", "tabulated_well"])
def test_pohozaev_reads_the_shared_weight_to_the_bit(grid12, name):
    # r V'(r) is evaluated once per operator; the t = 1 fiber derivative,
    # which evaluates it afresh, agrees with it bit for bit
    model = load_model(MODELS_DIR / f"{name}.json")
    u = bumps(grid12, np.random.default_rng(7))
    assert pohozaev_residual(u, model) == fiber_energy_derivative(u, 1.0, model)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.9).filter(
           lambda sigma: not sigma.is_integer())), min_size=1, max_size=2),
       st.sampled_from([1, 2, 3]), st.floats(0.1, 5.0), st.floats(0.3, 3.0))
def test_energy_integral_of_G_is_the_quadrature_of_the_G_array(terms, N, amp, width):
    # the energy divides each term's one dot by sigma + 2 after it; the
    # quadrature of G divides before, node by node: the sums agree to rounding
    model = make_model(N, power_g(*terms), ZERO_V)
    grid = RadialGrid(N, 12.0, 300)
    v = amp * np.exp(-grid.r**2 / (2.0 * width * width))
    got = discretization(grid, model).energy(v)[0].nonlinear_term
    assert math.isclose(got, integrate(grid, model.nonlinearity.G(v)), rel_tol=1e-14)


def test_least_squares_multiplier_zeroes_nehari(grid12, free_cubic):
    # by construction: the multiplier is solved from that very identity
    u = bumps(grid12, np.random.default_rng(2))
    lam = lagrange_multiplier(u, free_cubic)
    assert abs(nehari_residual(u, free_cubic, lam)) <= 1e-12


# --- fiber map ---

def test_fiber_energy_identity_at_t1(grid12, free_cubic):
    u = sech_field(grid12)
    assert math.isclose(fiber_energy(u, 1.0, free_cubic),
                        evaluate(u, free_cubic).J, rel_tol=1e-13)


def test_fiber_energy_spreading_limit(grid12, free_cubic):
    u = unit_gaussian(grid12)
    assert abs(fiber_energy(u, 1e-2, free_cubic)) <= 1e-2


def test_fiber_energy_blows_up_at_large_t(grid12, free_cubic):
    u = unit_gaussian(grid12)
    assert fiber_energy(u, 8.0, free_cubic) > evaluate(u, free_cubic).J


def test_fiber_t_bounds_enforced(grid12, free_cubic):
    u = unit_gaussian(grid12)
    with pytest.raises(ValueError):
        fiber_energy(u, 1e-3, free_cubic)
    with pytest.raises(ValueError):
        fiber_map(u, 200.0)


def test_fiber_map_preserves_mass(grid12):
    u = unit_gaussian(grid12)
    for t in (0.3, 1.7, 5.0):
        assert math.isclose(mass(fiber_map(u, t)), mass(u), rel_tol=1e-13)


def test_fiber_minimum_at_stationary_point(sech_sol):
    # profiles already on the stationarity manifold pin t0 = 1
    model = free_power(sech_sol.N, sech_sol.p - 1.0)
    t0, j0 = fiber_minimize(sech_sol.profile, model)
    assert abs(t0 - 1.0) <= 1e-3
    assert j0 <= evaluate(sech_sol.profile, model).J + 1e-12


def test_fiber_minimum_improves_energy(grid12, free_cubic):
    vals = 2.0 * np.exp(-0.5 * grid12.r**2)
    u = GridFunction(grid12, vals)
    u = u.with_values(u.values * math.sqrt(4.0 / mass(u)))
    t0, j0 = fiber_minimize(u, free_cubic)
    assert j0 <= evaluate(u, free_cubic).J + 1e-12
    assert abs(fiber_energy_derivative(u, t0, free_cubic)) <= 1e-6


def test_fiber_minimize_composes_with_fiber_map(grid12, free_cubic):
    u = crank_negative(unit_gaussian(grid12), free_cubic)
    t0, _ = fiber_minimize(u, free_cubic)
    t0_half, _ = fiber_minimize(fiber_map(u, 2.0), free_cubic)
    assert abs(t0_half - t0 / 2.0) <= 1e-3 * t0


def test_fiber_minimize_signals_spreading_dominance(grid12, free_cubic):
    u = unit_gaussian(grid12)
    tiny = u.with_values(1e-3 * u.values)
    with pytest.raises(BracketError):
        fiber_minimize(tiny, free_cubic)


# --- dilation ---

def test_dilate_identity(grid12):
    u = unit_gaussian(grid12)
    assert dilate(u, 1.0) is u


def test_dilate_multiplies_mass(grid12):
    u = GridFunction(grid12, np.exp(-grid12.r**2))
    assert math.isclose(mass(dilate(u, 2.0)), 2.0 * mass(u), rel_tol=1e-6)


@pytest.mark.parametrize("N", [1, 3])
def test_dilate_scaling_exponents(N):
    # tau = 8 stretches 1d supports by 8, so the domain must be generous
    g = RadialGrid(N, 40.0, 2048)
    u = GridFunction(g, np.exp(-g.r**2))
    taus = [1.0, 2.0, 4.0, 8.0]
    masses = [mass(dilate(u, t)) for t in taus]
    kins = [kinetic(dilate(u, t)) for t in taus]
    s_mass = np.polyfit(np.log(taus), np.log(masses), 1)[0]
    s_kin = np.polyfit(np.log(taus), np.log(kins), 1)[0]
    assert abs(s_mass - 1.0) <= 1e-6
    expected = (N - 2.0) / N
    assert abs(s_kin - expected) <= 1e-4 * max(1.0, abs(expected))


def test_dilate_kinetic_ratio_1d(grid12):
    u = GridFunction(grid12, np.exp(-grid12.r**2))
    ratio = kinetic(dilate(u, 2.0)) / kinetic(u)
    assert abs(ratio - 0.5) <= 1e-4


def test_dilate_rejects_shrink_and_overflow(grid12):
    u = unit_gaussian(grid12)
    with pytest.raises(ValueError):
        dilate(u, 0.5)
    wide = GridFunction(grid12, np.exp(-0.05 * grid12.r**2))
    with pytest.raises(SupportOverflowError):
        dilate(wide, 8.0)
