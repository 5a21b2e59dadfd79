"""Constrained minimizer: step mechanics, convergence, failure reporting."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from helpers import MODELS_DIR, ZERO_G, bumps, free_power, harmonic_v, power_g, well_v
from ngs import curves, energy, flow, grids
from ngs.energy import (
    Discretization,
    euler_lagrange_residual,
    evaluate,
    lagrange_multiplier,
    nehari_residual,
    pohozaev_residual,
)
from ngs.flow import SolverConfig, bordered_solve, gaussian_start, minimize
from ngs.grids import GridFunction, RadialGrid, kinetic, mass
from ngs.models import NonlinearityModel, PotentialModel, load_model, make_model


@pytest.fixture(scope="module")
def small_grid():
    return RadialGrid(1, 16.0, 400)


@pytest.fixture(scope="module")
def well_cubic():
    return make_model(1, power_g((1.0, 2.0)), well_v(depth=1.0, width=1.0))


@pytest.fixture(scope="module")
def well_solution(small_grid, well_cubic):
    res = minimize(1.0, well_cubic, small_grid)
    assert res.converged
    return res


@pytest.fixture(scope="module")
def cubic_free_solution(small_grid):
    # g = u^3 without potential at the exactly solvable mass a = 4
    model = free_power(1, 2.0)
    res = minimize(4.0, model, small_grid)
    assert res.converged
    return res, model


# --- configuration ---

def test_config_rejects_bad_fields():
    with pytest.raises(ValueError):
        SolverConfig(tol_grad=0.0)
    with pytest.raises(ValueError):
        SolverConfig(starts=0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=-1)


@pytest.mark.parametrize("field", [{"max_iters": 2.5}, {"max_iters": math.inf},
                                   {"starts": 2.5}],
                         ids=["max_iters-2.5", "max_iters-inf", "starts-2.5"])
def test_config_rejects_counts_that_are_not_integers(field):
    # no solve count equals a cap of 2.5 or inf, so a run that misses
    # tol_grad (tol_grad = 1e-15 on power3_free a = 4, R = 20, n = 400)
    # never stopped; 2.5 starts failed inside the start widths
    with pytest.raises(ValueError, match="must be an integer of at least 1"):
        SolverConfig(**field)
    assert SolverConfig(max_iters=np.int64(5), starts=np.int32(2)).max_iters == 5


def test_default_solve_cap_ends_a_stalled_start():
    # on R = 1e-3 the -Lap entries reach 1.2e10 (1.6e13 at n = 2000), so the
    # residual stalls at its rounding floor above tol_grad; the default cap
    # ends every start after 1 000 solves, not after minutes
    res = minimize(4.0, free_power(1, 2.0), RadialGrid(1, 1e-3, 64))
    assert res.all_start_solves == [SolverConfig().max_iters] * 3 == [1000] * 3
    assert res.all_start_reasons == ["max-iters"] * 3


# --- single step mechanics ---

def test_converged_profile_is_a_fixed_point(well_solution, well_cubic):
    # a converged profile, as a start on its own grid, ends unmoved with no
    # solve (minimize would restrict it to the half grid first)
    u = well_solution.u
    out = flow._run_start(energy.discretization(u.grid, well_cubic), u.values, 1.0,
                          SolverConfig())
    assert out.converged
    assert out.solves == 0
    rel = float(np.max(np.abs(out.values - u.values)) / np.max(np.abs(u.values)))
    assert rel <= 1e-14


def test_steps_hold_mass_to_machine_precision(small_grid, well_cubic):
    op = Discretization(small_grid, well_cubic)
    v = gaussian_start(small_grid, 1.3, a=2.0).values
    for k in range(1, 4):
        out = flow._run_start(op, v, 2.0, SolverConfig(max_iters=k))
        assert out.solves == k
        assert abs(float(small_grid.w @ out.values**2) - 2.0) <= 1e-12 * 2.0


@settings(deadline=None, max_examples=30)
@given(st.sampled_from([1, 2, 3]), st.integers(64, 128), st.integers(0, 10**6))
def test_step_matches_dense_shifted_bordered_solve(N, n, seed):
    # the first step solves [L + res, v; 2 (w v)^T, 0] [du; mu] = [-F; 0]
    # with L = -Lap + V + lam - g'(v), then rescales v + du to mass a;
    # compare it with a dense solve. For N = 3 the weights W span many
    # orders of magnitude
    grid = RadialGrid(N, 10.0, n)
    model = make_model(N, power_g((1.0, 1.0)), well_v(depth=2.0, width=1.5))
    a = 2.0
    op = Discretization(grid, model)
    v = bumps(grid, np.random.default_rng(seed)).values
    v = v * math.sqrt(a / float(grid.w @ (v * v)))
    st = op.stationarity(v, op.energy(v))
    sub, diag, sup = op.lap
    dense = np.zeros((n + 1, n + 1))
    dense[:n, :n] = (np.diag(diag + op.V + st.lam - st.nl.dg + st.residual)
                     + np.diag(sub, -1) + np.diag(sup, 1))
    dense[:n, n] = v
    dense[n, :n] = 2.0 * grid.w * v
    ref = v + np.linalg.solve(dense, np.append(st.neg_defect, 0.0))[:n]
    ref *= math.sqrt(a / float(grid.w @ (ref * ref)))
    out = flow._run_start(op, v, a, SolverConfig(max_iters=1))
    assert (out.solves, out.rejected) == (1, 0)
    assert np.max(np.abs(out.values - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert out.trace[1] == (1, evaluate(GridFunction(grid, out.values), model).J)


# --- linear limit ---

def test_linear_harmonic_ground_state():
    grid = RadialGrid(1, 12.0, 400)
    model = make_model(1, ZERO_G, harmonic_v(1.0))
    res = minimize(1.0, model, grid)
    assert res.converged
    assert abs(res.lam + 1.0) <= 1e-3
    assert abs(res.energy - 0.5) <= 1e-3
    # profile should be the gaussian eigenfunction
    ref = np.pi ** (-0.25) * np.exp(-0.5 * grid.r**2)
    dist = math.sqrt(float(grid.w @ (res.u.values - ref) ** 2))
    assert dist <= 1e-3


# --- descent bookkeeping ---

def test_energy_trace_monotone_after_burn_in(well_solution):
    trace = well_solution.energy_trace
    assert trace[0][0] == 0
    tail = [(i, J) for i, J in trace if i >= 10]
    for (_, a), (_, b) in zip(tail, tail[1:]):
        assert b <= a + 1e-9 * (1.0 + abs(a))


@pytest.mark.parametrize("name, N, a, config", [
    ("gaussian_well_mixed", 1, 3.0, SolverConfig()),
    ("power2_free_3d", 3, 20.0, SolverConfig()),
    ("quintic_free", 1, 2.71, SolverConfig(stop_energy_below=-15.0 * flow.DEADBAND)),
], ids=["gaussian_well_mixed-3.0", "power2_free_3d-20.0", "quintic_free-2.71-probe"])
def test_accepted_steps_never_raise_J(name, N, a, config):
    # the trace holds the start and every accepted step, indexed by solve
    grid = RadialGrid(N, 20.0, 2000)
    op = Discretization(grid, load_model(MODELS_DIR / f"{name}.json"))
    for width in flow._start_widths(3):
        out = flow._run_start(op, gaussian_start(grid, width, a).values, a, config)
        assert len(out.trace) == out.solves - out.rejected + 1
        solves, J = zip(*out.trace)
        assert solves[0] == 0 and all(np.diff(solves) >= 1) and solves[-1] <= out.solves
        for x, y in zip(J, J[1:]):
            assert y <= x + 1e-12 * (1.0 + abs(x))


@pytest.mark.parametrize("name, N, a, most", [("power2_free_3d", 3, 20.0, 15),
                                              ("gaussian_well_mixed", 1, 3.0, 10)],
                         ids=["power2_free_3d-20.0", "gaussian_well_mixed-3.0"])
def test_every_start_converges_in_a_few_solves(name, N, a, most):
    res = minimize(a, load_model(MODELS_DIR / f"{name}.json"), RadialGrid(N, 20.0, 2000))
    assert res.converged
    assert len(res.all_start_solves) == 3
    assert max(res.all_start_solves) <= most
    _assert_one_basin(res, 1e-12 * abs(res.energy))


def _assert_one_basin(res, tie):
    """Every start reached the winner's state on the search grid.

    A start that went on to tol_grad ties with the winner's J within tie; one
    left at SEARCH_TOL has a residual at most that and a J at most 1e-6 above.
    """
    J_star = res.all_start_energies[res.start_index]
    assert res.all_start_residuals[res.start_index] <= SolverConfig().tol_grad
    for J, residual in zip(res.all_start_energies, res.all_start_residuals):
        if residual <= SolverConfig().tol_grad:
            assert abs(J - J_star) <= tie
        else:
            assert residual <= flow.SEARCH_TOL
            assert J_star <= J <= J_star + 1e-6


def test_iteration_budget_reports_not_raises(small_grid, well_cubic):
    # below the 4-5 solves each start, from its Gaussian, needs, and the 1-2
    # the finish on n needs from the prolonged winner
    cfg = SolverConfig(max_iters=1)
    res = minimize(1.0, well_cubic, small_grid, config=cfg)
    assert not res.converged
    assert res.reason == "max-iters"


def test_starts_agree_on_well_problem(small_grid, well_cubic):
    res = minimize(1.0, well_cubic, small_grid, config=SolverConfig(starts=3))
    assert res.converged
    assert len(res.all_start_energies) == 3
    spread = max(res.all_start_energies) - min(res.all_start_energies)
    assert spread <= 1e-6
    assert not res.start_disagreement


def test_warm_start_cuts_iterations(small_grid, well_cubic, well_solution):
    warm = minimize(1.2, well_cubic, small_grid, warm_start=well_solution.u)
    cold = minimize(1.2, well_cubic, small_grid)
    assert warm.converged and cold.converged
    assert abs(warm.energy - cold.energy) <= 1e-6 * (1.0 + abs(cold.energy))
    assert warm.iterations <= cold.iterations


def test_result_serialization_keys(well_solution):
    d = well_solution.to_dict()
    for key in ("a", "mass", "lambda", "C_a", "nehari", "pohozaev", "converged",
                "reason", "iterations", "residual_norm", "all_start_energies",
                "all_start_solves", "all_start_rejected_steps", "all_start_reasons",
                "all_start_residuals", "trace_length"):
        assert key in d
    assert "residuals" not in d
    assert d["converged"] is True
    assert d["reason"] is None


# --- regimes without minimizers ---

def test_mass_subcritical_threshold_regime_flagged(small_grid):
    # quintic on the line: no negative-energy profile below the soliton mass
    model = free_power(1, 4.0)
    res = minimize(1.0, model, small_grid)
    assert not res.converged
    assert res.reason == "no-minimizer-regime"
    assert abs(res.energy) < 1e-2


def test_rejects_nonpositive_mass(small_grid, well_cubic):
    with pytest.raises(ValueError):
        minimize(0.0, well_cubic, small_grid)
    with pytest.raises(ValueError):
        minimize(-2.0, well_cubic, small_grid)


def test_rejects_warm_start_on_other_grid(small_grid, well_cubic):
    # other n, and the same n on another R: node values at other radii
    for other in (RadialGrid(1, 16.0, 800), RadialGrid(1, 40.0, 400)):
        warm = gaussian_start(other, 1.0, a=1.0)
        with pytest.raises(ValueError):
            minimize(1.0, well_cubic, small_grid, warm_start=warm)


def test_nehari_pohozaev_hold_at_convergence(well_solution, well_cubic,
                                            cubic_free_solution, small_grid):
    # the two-term model covers the sum over terms of the nonlinearity
    mixed = load_model(MODELS_DIR / "gaussian_well_mixed.json")
    mixed_solution = (minimize(3.0, mixed, small_grid), mixed)
    assert mixed_solution[0].converged
    for res, model in ((well_solution, well_cubic), cubic_free_solution, mixed_solution):
        assert abs(res.residuals.nehari) <= 1e-4
        assert abs(res.residuals.pohozaev) <= 1e-3
        # the reported energy and multiplier are those of the reported
        # profile, bit for bit
        assert res.energy == evaluate(res.u, model).J
        assert res.lam == lagrange_multiplier(res.u, model)
        # the identities minimize reads off the winner's last stationarity
        # are those the identity functions compute afresh, bit for bit
        assert res.residuals.nehari == nehari_residual(res.u, model, res.lam)
        assert res.residuals.pohozaev == pohozaev_residual(res.u, model)


def test_unit_costs_of_minimize(monkeypatch, small_grid, grid20):
    # one dgtsv call per solve, accepted or rejected, one -Lap v per start
    # field and per accepted step, and one nonlinearity evaluation per start
    # field and per trial field of a non-singular solve
    # (NonlinearityModel.evaluate), counting the finish on n as one more
    # start whose accepted steps are its trace. A start that goes on from
    # SEARCH_TOL is one more run but reuses its end field's evaluation, and
    # nothing is evaluated again after the loop. No positive definite factor
    # is made: flow loads no routine for one. The quintic probe, whose
    # starts run to tol_grad, rejects 12 of its 58 solves, so a -Lap v per
    # trial, not per accepted step, would show there; power3_free rejects none
    assert not hasattr(flow, "dpttrs") and not hasattr(flow, "dpttrf")
    counts = dict.fromkeys(("dgtsv", "tridiagonal_apply", "evaluate", "singular",
                            "_run_start"), 0)
    for owner, name in ((flow, "dgtsv"), (grids, "tridiagonal_apply"),
                        (NonlinearityModel, "evaluate"), (flow, "_run_start")):
        def spy(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            out = _fn(*args, **kwargs)
            if _name == "dgtsv" and out[-1] > 0:
                counts["singular"] += 1
            return out
        monkeypatch.setattr(owner, name, spy)
    for name, a, grid, config, runs in (
            ("power3_free", 4.0, small_grid, SolverConfig(), 5),
            ("quintic_free", 2.71, grid20, QUINTIC_PROBE, 4)):
        counts.update(dict.fromkeys(counts, 0))
        res = minimize(a, load_model(MODELS_DIR / f"{name}.json"), grid, config)
        assert res.iterations > 0
        solves = sum(res.all_start_solves) + res.iterations
        starts = len(res.all_start_solves) + 1
        # the starts, the finish and each start that went on to tol_grad
        assert counts["_run_start"] == runs
        assert counts["dgtsv"] == solves
        accepted = (sum(res.all_start_solves) - sum(res.all_start_rejected_steps)
                    + len(res.energy_trace) - 1)
        assert counts["tridiagonal_apply"] == starts + accepted
        assert counts["evaluate"] == starts + solves - counts["singular"]
        if name == "power3_free":
            assert res.converged
        else:
            assert (solves, sum(res.all_start_rejected_steps)) == (58, 12)
            assert (counts["tridiagonal_apply"], counts["evaluate"]) == (50, 62)


# --- one shared operator per (grid, model) ---

def test_scan_and_threshold_build_the_operator_and_start_shapes_once(monkeypatch,
                                                                     small_grid):
    # a warm 12-mass scan and a threshold bisection on one (grid, model):
    # one -Lap and one V at the nodes on the grid and on the half grid of
    # the search, and one Gaussian per start width, built on the grid
    counts = dict.fromkeys(("laplacian_tridiagonal", "V_on"), 0)
    for owner, name in ((grids, "laplacian_tridiagonal"), (PotentialModel, "V_on")):
        def spy(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    energy.discretization.cache_clear()
    flow._gaussian_shape.cache_clear()
    model = load_model(MODELS_DIR / "gaussian_well_cubic.json")
    curve = curves.scan(np.linspace(0.5, 6.0, 12), model, small_grid)
    found = curves.threshold_a0(model, small_grid)
    assert not curve.partial and found.evaluations
    assert counts == {"laplacian_tridiagonal": 2, "V_on": 2}
    shapes = flow._gaussian_shape.cache_info()
    assert shapes.misses == len(flow._start_widths(SolverConfig().starts)) == 3
    assert shapes.hits > 0


def test_five_models_on_one_grid_build_one_operator_each(monkeypatch, small_grid):
    # perfbench's ground_state pass cycles through five models on one grid;
    # the operator cache holds all five on the grid and on the half grid
    # of the search, so a second round builds no -Lap
    built = []

    def spy(grid, _fn=grids.laplacian_tridiagonal):
        built.append(grid)
        return _fn(grid)

    monkeypatch.setattr(grids, "laplacian_tridiagonal", spy)
    energy.discretization.cache_clear()
    cases = [(load_model(MODELS_DIR / f"{name}.json"), a) for name, a in (
        ("power3_free", 4.0), ("gaussian_well_cubic", 3.0), ("gaussian_well_mixed", 3.0),
        ("harmonic_cubic", 2.0), ("gaussian_well_deep", 2.0))]
    for _ in range(2):
        for model, a in cases:
            assert minimize(a, model, small_grid).converged
    assert sorted(grid.n for grid in built) == [200] * 5 + [400] * 5
    assert energy.discretization.cache_info().misses == 10


def test_shared_operator_and_start_shapes_are_read_only(small_grid, well_cubic):
    op = energy.discretization(small_grid, well_cubic)
    shape, _ = flow._gaussian_shape(small_grid, 1.0)
    for arr in (op.V, op.xdV, *op.lap, op.d, op.e, shape):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_operator_is_shared_by_value_of_grid_and_model(small_grid):
    path = MODELS_DIR / "gaussian_well_cubic.json"
    op = energy.discretization(small_grid, load_model(path))
    assert energy.discretization(RadialGrid(1, 16.0, 400), load_model(path)) is op
    assert energy.discretization(RadialGrid(1, 16.0, 800), load_model(path)) is not op
    assert energy.discretization(small_grid, load_model(MODELS_DIR / "harmonic_cubic.json")) \
        is not op
    # a tabulated potential compares and hashes by its table's values
    table = MODELS_DIR / "tabulated_well.json"
    assert energy.discretization(small_grid, load_model(table)) \
        is energy.discretization(small_grid, load_model(table))


@pytest.mark.parametrize("name, a", [("gaussian_well_mixed", 3.0), ("quintic_free", 2.7)])
def test_minimize_on_a_cold_and_a_warm_cache_agree_to_the_bit(small_grid, name, a):
    model = load_model(MODELS_DIR / f"{name}.json")
    energy.discretization.cache_clear()
    flow._gaussian_shape.cache_clear()
    cold = minimize(a, model, small_grid)
    warm = minimize(a, model, small_grid)
    assert energy.discretization.cache_info().hits >= 1
    assert cold.u.values.tobytes() == warm.u.values.tobytes()
    assert (cold.energy, cold.lam) == (warm.energy, warm.lam)
    assert cold.all_start_energies == warm.all_start_energies
    assert cold.all_start_solves == warm.all_start_solves


# --- shifted bordered Newton ---

def test_exactly_singular_tridiagonal_is_a_singular_newton_attempt():
    # two equal rows: elimination meets an exactly zero pivot in row 2
    bands = (np.array([1.0, 0.0]), np.ones(3), np.array([1.0, 0.0]))
    with pytest.raises(RuntimeError, match="singular"):
        bordered_solve(bands, np.ones(3), np.full(3, 2.0), np.ones(3))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.integers(2, 40))
def test_bordered_solve_matches_dense_solve(seed, n):
    rng = np.random.default_rng(seed)
    lower, upper = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    diag = np.abs(lower) + np.abs(upper) + rng.uniform(0.1, 2.0, n)
    u, w = rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 2.0, n)
    rhs = rng.normal(size=n)
    # the solve overwrites the diagonal it is given
    x, mu = bordered_solve((lower[1:], diag.copy(), upper[:-1]), u, 2.0 * w * u, rhs)
    dense = np.zeros((n + 1, n + 1))
    dense[:n, :n] = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    dense[:n, n] = u
    dense[n, :n] = 2.0 * w * u
    ref = np.linalg.solve(dense, np.append(rhs, 0.0))
    err = np.max(np.abs(np.append(x, mu) - ref))
    assert err <= 1e-10 * np.max(np.abs(ref))


def test_newton_finish_converges_free_cubic(cubic_free_solution):
    res, model = cubic_free_solution
    assert res.converged
    assert res.residual_norm <= SolverConfig().tol_grad
    _assert_one_basin(res, 1e-12)
    tail = [J for i, J in res.energy_trace if i >= 10]
    for a, b in zip(tail, tail[1:]):
        assert b <= a + 1e-9 * (1.0 + abs(a))
    d = res.to_dict()
    rejected = res.all_start_rejected_steps[res.start_index]
    assert d["trace_length"] == res.iterations - rejected + 1
    assert res.energy == evaluate(res.u, model).J


def test_newton_finishes_a_cold_start_within_a_few_checks(cubic_free_solution):
    # the shift falls with the residual, so a Gaussian start converges in a
    # few solves instead of hundreds of linear flow steps
    res, _ = cubic_free_solution
    assert res.converged
    # the winner's search on n/2 and its finish on n
    assert res.all_start_solves[res.start_index] + res.iterations <= 10
    assert res.iterations <= 2
    assert res.residual_norm <= SolverConfig().tol_grad
    # every start, not only the winner
    assert len(res.all_start_solves) == SolverConfig().starts
    assert max(res.all_start_solves) <= 10
    assert res.to_dict()["all_start_solves"] == res.all_start_solves


@pytest.mark.parametrize("name, a", [("gaussian_well_cubic", 3.0), ("power3_free", 4.0)])
def test_converged_profile_is_a_critical_point_of_reported_J(small_grid, name, a):
    # J'(u) phi + lam <u, phi>_w = 0 in every direction phi, with the kinetic
    # part u^T K phi taken from the reported kinetic form by polarization
    model = load_model(MODELS_DIR / f"{name}.json")
    res = minimize(a, model, small_grid)
    assert res.converged
    u = res.u
    grad = ((model.potential.V(small_grid.r) + res.lam) * u.values
            - model.nonlinearity.g(u.values))
    rng = np.random.default_rng(5)
    for _ in range(5):
        phi = bumps(small_grid, rng)
        kin = 0.25 * (kinetic(u.with_values(u.values + phi.values))
                      - kinetic(u.with_values(u.values - phi.values)))
        dJ = kin + float(small_grid.w @ (grad * phi.values))
        assert abs(dJ) <= 1e-7 * math.sqrt(mass(u) * mass(phi)), dJ


def test_tied_starts_report_the_first(grid20):
    # starts that reach one state tie in J to rounding; the first of them
    # wins, whichever is lowest in the last bit
    res = minimize(3.0, load_model(MODELS_DIR / "gaussian_well_mixed.json"), grid20)
    assert res.converged
    assert res.start_index == 0
    assert (res.all_start_solves[0], res.iterations) == (4, 2)
    res = minimize(4.0, load_model(MODELS_DIR / "power3_free.json"), grid20)
    assert res.converged
    assert res.start_index == 0


def _spy_on_resumed(monkeypatch) -> list:
    """The J of each run minimize takes on from SEARCH_TOL, where it stopped."""
    loose = []

    def spy(op, v, a, config, sigma=None, prior=None, _fn=flow._run_start):
        if prior is not None:
            loose.append(prior.st.J)
        return _fn(op, v, a, config, sigma, prior)
    monkeypatch.setattr(flow, "_run_start", spy)
    return loose


def test_starts_in_two_basins_still_disagree(monkeypatch, grid20):
    # a warm start in the ring well at r = 8 and a width-1 Gaussian in the
    # deeper central well reach two states. The Gaussian's is lower and wins;
    # the warm start's J at SEARCH_TOL is far above it, so that start goes
    # on to tol_grad too, and the warning names the two converged energies
    r = np.linspace(0.0, 30.0, 3001)
    V = -1.2 * np.exp(-r**2) - np.exp(-(r - 8.0) ** 2)
    model = make_model(1, power_g((1.0, 2.0)),
                       {"kind": "tabulated", "table": {"r": r.tolist(), "V": V.tolist()}})
    loose = _spy_on_resumed(monkeypatch)
    warm = GridFunction(grid20, np.exp(-(grid20.r - 8.0) ** 2))
    res = minimize(3.0, model, grid20, SolverConfig(starts=2), warm_start=warm)
    assert res.converged and res.start_index == 1
    J = res.all_start_energies
    assert J[1] < J[0] - 0.5
    assert len(loose) == 2
    assert max(res.all_start_residuals) <= SolverConfig().tol_grad
    assert res.start_disagreement
    assert "converged starts disagree beyond 1e-6; all basin energies reported" in res.warnings


def test_a_loose_end_that_changes_sign_goes_on(grid20):
    # the ground state with a lobe of -1e-5 times its peak at r = 12 meets
    # SEARCH_TOL on the search grid with no solve (residual 8.3e-4), lobe
    # and all, and a J within 1e-6 of the ground state's: that end fails the
    # one-sign test, so the start goes on to tol_grad, converges and wins
    model = load_model(MODELS_DIR / "gaussian_well_cubic.json")
    u = minimize(3.0, model, grid20).u.values
    v = u - 1e-5 * u.max() * np.exp(-(grid20.r - 12.0) ** 2)
    res = minimize(3.0, model, grid20, SolverConfig(starts=2),
                   warm_start=GridFunction(grid20, v))
    assert res.all_start_reasons == [None, None]
    assert res.start_index == 0 and res.all_start_solves[0] > 0
    assert max(res.all_start_residuals) <= SolverConfig().tol_grad


def test_loose_starts_in_one_basin_do_not_disagree(monkeypatch):
    # at SEARCH_TOL two of power2_free_3d's starts at a = 20 sit 9.4e-5 and
    # 1.4e-4 above the winner's J, beyond the warning's 1e-6: they go on to
    # tol_grad, tie with the winner and raise no warning
    loose = _spy_on_resumed(monkeypatch)
    res = minimize(20.0, load_model(MODELS_DIR / "power2_free_3d.json"),
                   RadialGrid(3, 20.0, 2000))
    assert res.converged and not res.start_disagreement
    assert not any("disagree" in w for w in res.warnings)
    J_star = res.all_start_energies[res.start_index]
    assert sum(J > J_star + 1e-6 for J in loose) == 2
    _assert_one_basin(res, 1e-12 * abs(J_star))


@pytest.mark.parametrize("name, a", [("power3_free", 4.0), ("gaussian_well_cubic", 3.0),
                                     ("harmonic_cubic", 2.0)],
                         ids=["power3_free-4.0", "gaussian_well_cubic-3.0",
                              "harmonic_cubic-2.0"])
def test_wide_start_converges_at_its_first_newton_attempt(small_grid, name, a):
    # a start makes one run of shifted Newton steps, with no flow step and
    # no second attempt: from a width-2 Gaussian every step is accepted
    op = Discretization(small_grid, load_model(MODELS_DIR / f"{name}.json"))
    out = flow._run_start(op, gaussian_start(small_grid, 2.0, a).values, a, SolverConfig())
    assert out.converged
    assert out.reason is None
    assert out.rejected == 0
    assert out.solves <= 6


def test_sign_guard_is_relative_to_the_field(small_grid, well_cubic):
    # the end field alone decides: tail entries rounded negative far below
    # its peak pass, a negative lobe does not, whatever the start field
    op = Discretization(small_grid, well_cubic)
    start = gaussian_start(small_grid, 1.0, 1.0).values
    tail = start.copy()
    tail[-5:] = -1e-40
    lobe = start.copy()
    lobe[30:35] = -1e-3 * lobe.max()
    for v, reason in [(tail, "energy-floor"), (lobe, "sign-change")]:
        v *= math.sqrt(1.0 / float(small_grid.w @ (v * v)))
        out = flow._run_start(op, v, 1.0, SolverConfig(stop_energy_below=math.inf))
        assert (out.solves, out.reason, out.converged) == (0, reason, False)


def _harmonic_modes(grid, model, count):
    """The lowest eigenvalues of -Lap + V and their eigenvectors, mass 1, first entry > 0."""
    op = Discretization(grid, model)
    sub, diag, sup = op.lap
    # -Lap + V is W^-1 K + V, similar to a symmetric tridiagonal by W^1/2
    lam, y = eigh_tridiagonal(diag + op.V, -np.sqrt(sub * sup),
                              select="i", select_range=(0, count - 1))
    psi = y / np.sqrt(grid.w)[:, None]
    psi *= np.sign(psi[0]) / np.sqrt(grid.w @ (psi * psi))
    return lam, psi.T


def test_sign_changing_newton_endpoint_is_rejected(small_grid, grid20):
    # in the linear harmonic trap the third eigenvector is a critical point
    # that changes sign: the steps end where they start, and it is no
    # ground state
    model = load_model(MODELS_DIR / "harmonic.json")
    lam, psi = _harmonic_modes(small_grid, model, 3)
    out = flow._run_start(Discretization(small_grid, model), psi[2], 1.0, SolverConfig())
    assert out.st.residual <= SolverConfig().tol_grad
    assert abs(2.0 * out.st.J - lam[2]) <= 1e-9
    assert not out.converged
    assert out.reason == "sign-change"
    # as a warm start it loses to the Gaussians, which reach the ground state
    res = minimize(1.0, model, small_grid, warm_start=GridFunction(small_grid, psi[2]))
    assert res.converged
    assert res.start_index > 0
    assert abs(2.0 * res.energy - lam[0]) <= 1e-9
    # the second eigenvector with its largest lobe positive ends on itself,
    # at J = lambda_2 / 2, five times C_a: its negative lobe makes it a sign
    # change, not a converged minimum
    lam, psi = _harmonic_modes(grid20, model, 2)
    v = psi[1] * np.sign(psi[1][np.argmax(np.abs(psi[1]))])
    out = flow._run_start(Discretization(grid20, model), v, 1.0, SolverConfig())
    assert out.solves == 0 and out.st.residual <= SolverConfig().tol_grad
    assert abs(2.0 * out.st.J - lam[1]) <= 1e-9
    assert (out.reason, out.converged) == ("sign-change", False)
    # alone as minimize's warm start, it is a sign change on the search
    # grid too; the finish on n, from that prolonged field, leaves the
    # saddle and converges to the ground state, never to lambda_2 / 2
    res = minimize(1.0, model, grid20, SolverConfig(starts=1),
                   warm_start=GridFunction(grid20, v))
    assert res.start_grid_n == 500
    assert res.all_start_reasons == ["sign-change"]
    assert res.converged and res.iterations == 38
    assert abs(2.0 * res.energy - lam[0]) <= 1e-9
    assert abs(2.0 * res.energy - lam[1]) > 1.0


@pytest.mark.parametrize("a, reasons", [(3.0, [None, None, None]),
                                        (1.0, [None, None, "sign-change"])])
def test_start_that_ends_on_the_negated_state_is_converged(a, reasons):
    # at a = 3 starts 0 and 2 end within 6e-11 of -u*, the state start 1
    # reaches; J, lambda, the residual and both identities are even in u, so
    # they converged. At a = 1 start 2 ends on a state that changes sign
    # (J = 0.1068 against 0.0094)
    model = load_model(MODELS_DIR / "power2_free_3d.json")
    res = minimize(a, model, RadialGrid(3, 20.0, 2000))
    assert res.all_start_reasons == reasons
    assert res.reason == "no-minimizer-regime"
    assert res.start_index == 0
    peak = res.u.values[np.argmax(np.abs(res.u.values))]
    assert peak > 0.0
    assert res.u.values.min() >= -flow.SIGN_REL_TOL * peak
    assert res.residuals.pohozaev == pohozaev_residual(res.u, model)


def test_gaussian_start_sign_test_matches_keeps_sign(small_grid, well_cubic):
    # a warm start with negative tail entries ends where it starts (its J is
    # below the stop energy), on the half grid and on n: its end field is
    # below the floor, so it is a sign change, whatever its start field was
    v = gaussian_start(small_grid, 1.0, 1.0).values.copy()
    v[-20:] = -1e-3 * v.max()
    v *= math.sqrt(1.0 / float(small_grid.w @ (v * v)))
    res = minimize(1.0, well_cubic, small_grid,
                   SolverConfig(starts=1, stop_energy_below=math.inf),
                   warm_start=GridFunction(small_grid, v))
    assert res.all_start_reasons == ["sign-change"] and res.iterations == 0
    assert res.reason == "sign-change" and not res.converged
    assert res.u.values.min() < -flow.SIGN_REL_TOL * np.max(np.abs(res.u.values))
    # a Gaussian start that ends on a sign-changing state (J = 0.1068 against
    # 0.0094, see above) has an end field below the floor
    grid = RadialGrid(3, 20.0, 2000)
    op = energy.discretization(grid, load_model(MODELS_DIR / "power2_free_3d.json"))
    start = gaussian_start(grid, flow._start_widths(3)[2], 1.0).values
    out = flow._run_start(op, start, 1.0, SolverConfig())
    assert out.reason == "sign-change" and not out.converged
    assert out.peak == float(np.max(np.abs(out.values)))
    assert out.values.min() < -flow.SIGN_REL_TOL * out.peak


def test_newton_attempts_and_rejections_are_reported(cubic_free_solution, grid20):
    res, _ = cubic_free_solution
    d = res.to_dict()
    assert d["all_start_solves"] == res.all_start_solves
    assert d["all_start_reasons"] == res.all_start_reasons == [None, None, None]
    assert d["all_start_rejected_steps"] == res.all_start_rejected_steps == [0, 0, 0]
    assert not any(key.startswith(("newton", "all_start_newton")) for key in d)
    # below its threshold the quintic rejects steps on the way, each still a solve
    res = minimize(2.71, free_power(1, 4.0), grid20, QUINTIC_PROBE)
    rejected, solves = res.all_start_rejected_steps, res.all_start_solves
    assert sum(rejected) > 0
    assert all(0 <= r < s for r, s in zip(rejected, solves))
    # the finish on n takes two solves, both accepted, so its trace holds
    # its start and those steps
    assert (res.iterations, len(res.energy_trace)) == (2, 3)


def test_rejected_initial_attempt_leaves_the_start_bit_for_bit(monkeypatch, small_grid,
                                                              well_cubic):
    # with every solve meeting a zero pivot, each step is rejected, not an
    # error, and the start ends on its own field, energy and residual
    monkeypatch.setattr(flow, "dgtsv", lambda *args, **kwargs: (None, None, None, None, 2))
    op = Discretization(small_grid, well_cubic)
    v = gaussian_start(small_grid, 1.0, 1.0).values
    out = flow._run_start(op, v, 1.0, SolverConfig(max_iters=3))
    assert (out.solves, out.rejected, out.reason) == (3, 3, "max-iters")
    assert np.array_equal(out.values, v)
    u = GridFunction(small_grid, v)
    assert out.trace == [(0, evaluate(u, well_cubic).J)]
    assert out.st.residual == euler_lagrange_residual(u, well_cubic,
                                                      lagrange_multiplier(u, well_cubic))


# --- starts on the search grid, one finish on n ---

def test_prolongation_interpolates_between_cell_centres():
    # exact for a + b r at the interior nodes; the end nodes take the even
    # reflection at 0 (c_-1 = c_0) and the zero on the face at R
    # (c_n/2 = -c_n/2-1)
    grid = RadialGrid(1, 20.0, 400)
    half = flow._search_grid(grid)
    coarse = 0.7 - 0.3 * half.r
    fine = flow._prolong(coarse)
    assert fine.shape == (400,)
    assert np.max(np.abs(fine[1:-1] - (0.7 - 0.3 * grid.r[1:-1]))) <= 1e-13
    assert fine[0] == coarse[0]
    assert fine[-1] == 0.5 * coarse[-1]
    # pair averages undo it on a linear field, away from the two ghosts
    assert np.max(np.abs(flow._restrict(fine)[1:-1] - coarse[1:-1])) <= 1e-13


@pytest.mark.parametrize("R, n, searched", [(20.0, 2000, 500), (20.0, 4000, 1000),
                                             (20.0, 1000, 500), (16.0, 400, 200),
                                             (20.0, 128, 64), (20.0, 2001, 2001),
                                             (20.0, 127, 127)])
def test_starts_run_on_the_search_grid(R, n, searched):
    # n/4 where R/(n/4) <= SEARCH_SPACING (20/500 is 0.04 in floating point),
    # else n/2 when n is even and n/2 >= 64 (R = 20, n = 1000: the quarter's
    # spacing 0.08 is refused), else n
    res = minimize(4.0, load_model(MODELS_DIR / "power3_free.json"), RadialGrid(1, R, n))
    assert res.converged
    assert res.u.grid.n == n
    d = res.to_dict()
    assert d["start_grid_n"] == res.start_grid_n == searched
    estimates = (d["C_a_search_grid"], d["C_a_extrapolated"], d["discretization_error_estimate"])
    if searched == n:
        assert estimates == (None, None, None)
    else:
        coarse, extrapolated, estimate = estimates
        r = n // searched
        assert estimate == (res.energy - coarse) / (r * r - 1)
        assert extrapolated == res.energy + estimate


@pytest.mark.parametrize("a, kept", [(8.0, False), (20.0, True)])
def test_richardson_fields_need_a_converged_result(a, kept):
    # at a = 8 the finish converges on B_20, but J >= 0 and the state is
    # relabelled no-minimizer-regime: it gets no h^2 error bar; at a = 20
    # the state converges and keeps it
    res = minimize(a, load_model(MODELS_DIR / "power2_free_3d.json"),
                   RadialGrid(3, 20.0, 2000))
    assert res.converged == kept
    assert res.reason == (None if kept else "no-minimizer-regime")
    d = res.to_dict()
    estimates = (d["C_a_search_grid"], d["C_a_extrapolated"], d["discretization_error_estimate"])
    if kept:
        assert None not in estimates
    else:
        assert estimates == (None, None, None)


def test_warm_start_with_no_mass_on_the_half_grid_is_rejected(small_grid, well_cubic):
    # its pair averages cancel, so its restriction cannot be rescaled to mass a
    v = np.where(np.arange(small_grid.n) % 2, -1.0, 1.0)
    with pytest.raises(ValueError, match="no mass on the grid of 200 cells"):
        minimize(1.0, well_cubic, small_grid, warm_start=GridFunction(small_grid, v))


@pytest.mark.parametrize("max_iters, solves, reasons, reason",
                         [(2, [2, 2, 2], ["max-iters"] * 3, "max-iters"),
                          (3, [3, 3, 3], ["max-iters"] * 3, None),
                          (4, [4, 4, 4], ["max-iters"] * 3, None),
                          (5, [5, 3, 5], [None] * 3, None),
                          (6, [5, 3, 5], [None] * 3, None)], ids=["2", "3", "4", "5", "6"])
def test_each_run_has_its_own_solve_cap(max_iters, solves, reasons, reason):
    # at n = 256 the starts reach SEARCH_TOL on n/2 after 3, 3 and 5 solves,
    # and the winner, start 0, reaches tol_grad after 5; the finish takes 2
    # on n. The cap counts a start's solves past SEARCH_TOL too: at 3 start
    # 0 meets SEARCH_TOL on its last solve, at 4 it runs out on its way on
    # and start 1, the next winner, after it. The finish has its own cap
    res = minimize(4.0, load_model(MODELS_DIR / "power3_free.json"),
                   RadialGrid(1, 20.0, 256), SolverConfig(max_iters=max_iters))
    assert res.start_grid_n == 128
    assert res.all_start_solves == solves
    assert res.all_start_reasons == reasons
    assert res.iterations == 2
    assert res.reason == reason and res.converged == (reason is None)
    assert (res.to_dict()["C_a_extrapolated"] is None) == (max_iters < 5)


def test_the_finish_has_its_own_solve_cap():
    # no start reaches tol_grad = 1e-15 in 20 solves on n/2; the prolonged
    # winner still has 20 solves on n, and reaches the rounding floor there
    res = minimize(1.0, load_model(MODELS_DIR / "gaussian_well_cubic.json"),
                   RadialGrid(1, 20.0, 400), SolverConfig(tol_grad=1e-15, max_iters=20))
    assert res.start_grid_n == 200
    assert res.all_start_reasons == ["max-iters"] * 3
    assert res.all_start_solves == [20] * 3
    assert res.iterations == 20 and res.reason == "max-iters"
    assert res.residual_norm <= 1e-12


def test_a_start_below_the_energy_floor_wins_over_a_converged_one():
    # at this mass and resolution one quintic start converges above the
    # probe's floor on the half grid and two stop below it: the lowest of
    # those wins, its finish on n stays below the floor, and the probe
    # reads minimize's negative J
    model = free_power(1, 4.0)
    grid = RadialGrid(1, 20.0, 400)
    a = 2.715
    res = minimize(a, model, grid, QUINTIC_PROBE)
    reasons, J = res.all_start_reasons, res.all_start_energies
    assert reasons == ["energy-floor", None, "energy-floor"]
    assert J[1] > 0 > J[0] > J[2]
    assert res.start_index == 2
    assert res.reason == "energy-floor" and res.energy < QUINTIC_PROBE.stop_energy_below
    found = curves.threshold_a0(model, grid, bracket=(2.70, a))
    assert found.evaluations[0] == res.state()
    assert found.evaluations[0].warm_from is None


# --- Newton on the mass-critical quintic, below the soliton mass ---

QUINTIC_SUB_A = 2.685      # just below sqrt(3) pi / 2 = 2.7207
QUINTIC_PROBE = SolverConfig(stop_energy_below=-15.0 * flow.DEADBAND)


def test_subthreshold_quintic_starts_reach_one_local_minimizer(grid20):
    model = free_power(1, 4.0)
    res = minimize(QUINTIC_SUB_A, model, grid20, QUINTIC_PROBE)
    # the minimum is positive, so boundary contact still labels the regime
    assert res.reason == "no-minimizer-regime"
    assert res.residual_norm <= QUINTIC_PROBE.tol_grad
    J = res.all_start_energies
    assert max(J) - min(J) <= 1e-12 * abs(min(J))

    # second-order condition: L = -Lap + V + lam - g'(u) has one negative
    # eigenvalue and <u, L^-1 u>_w < 0, so the tangent Morse index is 0
    op = Discretization(grid20, model)
    u = res.u.values
    sub, diag, sup = op.lap
    diag = diag + op.V + res.lam - model.nonlinearity.evaluate(u).dg
    negative = eigvalsh_tridiagonal(diag, -np.sqrt(sub * sup),
                                    select="v", select_range=(-np.inf, 0.0))
    assert len(negative) == 1
    L = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
    q = np.linalg.solve(L, u)
    assert 2.0 * float((op.w * u) @ q) < 0.0


def test_quintic_probe_signs_across_the_threshold(grid20):
    # the probes search on n/4 = 500 cells (spacing 0.04): no start may
    # collapse on that lattice below sqrt(3) pi / 2 = 2.7207 and read a
    # negative J, and above it the probes still certify negativity
    model = free_power(1, 4.0)
    signs = ""
    for a in (2.712, 2.7145, 2.717, 2.7195, 2.722, 2.7245, 2.727):
        res = minimize(a, model, grid20, QUINTIC_PROBE)
        assert res.start_grid_n == 500
        signs += "-" if res.energy < -flow.DEADBAND else "+"
    assert signs == "++++---"


@pytest.mark.parametrize("name, N, a, config", [
    ("power3_free", 1, 4.0, SolverConfig()),
    ("quintic_free", 1, 2.71, QUINTIC_PROBE),
    ("power2_free_3d", 3, 20.0, SolverConfig()),
], ids=["power3_free", "quintic_free-probe", "power2_free_3d"])
def test_zero_potential_path_is_the_general_path_to_the_bit(monkeypatch, name, N, a, config):
    # with V zero at every node the masses skip w^T (V u^2) and the defect
    # forms lam u for (V + lam) u; forcing the general path changes no bit
    grid = RadialGrid(N, 20.0, 2000)
    model = load_model(MODELS_DIR / f"{name}.json")
    op = energy.discretization(grid, model)
    assert op.zero_potential
    fast = minimize(a, model, grid, config)
    monkeypatch.setattr(op, "zero_potential", False)
    general = minimize(a, model, grid, config)
    assert sum(general.all_start_solves) > 0
    for field in flow.GroundStateResult._fields:
        if field == "u":
            assert fast.u.values.tobytes() == general.u.values.tobytes()
            assert fast.u.grid == general.u.grid
        else:
            assert getattr(fast, field) == getattr(general, field), field
