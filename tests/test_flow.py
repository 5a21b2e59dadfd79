"""Constrained descent: step mechanics, convergence, failure reporting."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from helpers import (MODELS_DIR, ZERO_G, ZERO_V, bumps, free_power, harmonic_v, power_g,
                     well_v)
from ngs import flow, grids
from ngs.curves import THRESHOLD_PROBE_MAX_ITERS
from ngs.energy import evaluate, lagrange_multiplier
from ngs.flow import (RESIDUAL_CHECK_EVERY, SolverConfig, bordered_solve, flow_step,
                      gaussian_start, minimize)
from ngs.grids import GridFunction, RadialGrid, kinetic, mass
from ngs.models import load_model, make_model


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
        SolverConfig(dt=0.0)
    with pytest.raises(ValueError):
        SolverConfig(starts=0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=-1)


# --- single step mechanics ---

def test_converged_profile_is_a_fixed_point(well_solution, well_cubic):
    u = well_solution.u
    v = flow_step(u, well_cubic, dt=1e-2)
    rel = float(np.max(np.abs(v.values - u.values)) / np.max(np.abs(u.values)))
    assert rel <= 1e-5


def test_step_spreads_positivity(small_grid, well_cubic):
    # nonnegative data with dead zones: the implicit solve fills them in
    vals = np.abs(np.sin(small_grid.r)) * np.exp(-0.3 * small_grid.r**2)
    u = GridFunction(small_grid, vals)
    u = u.with_values(u.values / math.sqrt(mass(u)))
    v = flow_step(u, well_cubic, dt=1e-2, a=1.0)
    assert np.all(v.values > 0)


def test_steps_hold_mass_to_machine_precision(small_grid, well_cubic):
    u = gaussian_start(small_grid, 1.3, a=2.0)
    for _ in range(50):
        u = flow_step(u, well_cubic, dt=1e-2, a=2.0)
        assert abs(mass(u) - 2.0) <= 1e-12 * 2.0


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


def test_iteration_budget_reports_not_raises(small_grid, well_cubic):
    # below RESIDUAL_CHECK_EVERY, so no residual check (and no Newton
    # finish from a flow iterate) can end the run first, and below the three
    # Newton steps each start's first attempt, from its Gaussian, needs
    cfg = SolverConfig(max_iters=2)
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
    for key in ("a", "mass", "lambda", "C_a_estimate", "residuals", "converged",
                "reason", "iterations", "residual_norm", "all_start_energies"):
        assert key in d
    assert set(d["residuals"]) == {"nehari", "pohozaev", "lambda"}
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


@settings(deadline=None, max_examples=30)
@given(st.sampled_from([1, 2, 3]), st.integers(64, 128), st.integers(0, 10**6))
def test_flow_step_matches_dense_implicit_solve(N, n, seed):
    # the step solves the symmetrized system W A x = W rhs; compare it with a
    # dense solve of A = I + dt (-Lap + V + shift) itself. A well makes
    # shift > 0, and for N = 3 the weights W span many orders of magnitude
    grid = RadialGrid(N, 10.0, n)
    model = make_model(N, power_g((1.0, 1.0)), well_v(depth=2.0, width=1.5))
    dt, a = 0.05, 2.0
    ws = flow._Workspace(grid, model, dt, a)
    assert ws.shift > 0.0
    v = bumps(grid, np.random.default_rng(seed)).values
    v = v * math.sqrt(a / float(grid.w @ (v * v)))
    lower, diag, upper = ws.op.lap
    A = np.eye(n) + dt * (np.diag(diag + ws.op.V + ws.shift)
                          + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1))
    gv = model.nonlinearity.g(v)
    v0 = np.linalg.solve(A, v + dt * (gv + ws.shift * v))
    q = dt * np.linalg.solve(A, v)
    # the multiplier mu of the step puts v0 + mu q on the mass sphere
    a2, a1 = float(grid.w @ (q * q)), 2.0 * float(grid.w @ (v0 * q))
    a0 = float(grid.w @ (v0 * v0)) - a
    ref = v0 + (-a1 + math.sqrt(a1 * a1 - 4.0 * a2 * a0)) / (2.0 * a2) * q
    ref *= math.sqrt(a / float(grid.w @ (ref * ref)))
    out = ws.step(v)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(ws.step(v, gv), out)


def test_unit_costs_of_minimize(monkeypatch, small_grid):
    # one factorization per minimize, one two-column solve per flow step,
    # one bordered solve per Newton step and one -Lap v per evaluated iterate
    counts = dict.fromkeys(("dpttrf", "dpttrs", "dgtsv", "tridiagonal_apply"), 0)
    for module, name in ((flow, "dpttrf"), (flow, "dpttrs"), (flow, "dgtsv"),
                         (grids, "tridiagonal_apply")):
        def spy(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    outcomes = []
    run_start = flow._run_start

    def record(*args):
        outcomes.append(run_start(*args))
        return outcomes[-1]

    monkeypatch.setattr(flow, "_run_start", record)
    res = minimize(4.0, load_model(MODELS_DIR / "power3_free.json"), small_grid)
    assert res.converged
    # every start ends on an accepted Newton finish, made from its Gaussian
    # or at a residual check after its last flow step
    assert all(o.converged and o.newton_steps >= 1 for o in outcomes)
    flow_steps = [o.iterations - o.newton_steps for o in outcomes]
    assert all(f % RESIDUAL_CHECK_EVERY == 0 for f in flow_steps)
    # the result counts every Newton step taken, in rejected attempts too
    newton_steps = sum(res.all_start_newton_steps)
    assert newton_steps > sum(o.newton_steps for o in outcomes)
    assert res.all_start_newton_attempts == [o.newton_attempts for o in outcomes]
    assert counts["dpttrf"] == 1
    assert counts["dpttrs"] == sum(flow_steps)
    assert counts["dgtsv"] == newton_steps
    # -Lap v once per residual check, once per Newton iterate (the start of
    # each attempt and the end of each step), once for the reported Nehari
    checks = sum(flow_steps) // RESIDUAL_CHECK_EVERY
    attempts = sum(res.all_start_newton_attempts)
    assert counts["tridiagonal_apply"] == checks + newton_steps + attempts + 1


# --- Newton finish ---

@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.integers(2, 40), st.sampled_from([None, 1, 2]))
def test_solve_tridiagonal_matches_dense_solve(seed, n, columns):
    rng = np.random.default_rng(seed)
    lower, upper = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    diag = np.abs(lower) + np.abs(upper) + rng.uniform(0.1, 2.0, n)
    rows = (lower.copy(), diag.copy(), upper.copy())
    rhs = rng.normal(size=n if columns is None else (n, columns))
    x = flow.solve_tridiagonal(rows, rhs)
    dense = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    ref = np.linalg.solve(dense, rhs)
    assert x.shape == rhs.shape
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))
    # the rows are shared with the Discretization and must not be overwritten
    assert all(np.array_equal(a, b) for a, b in zip(rows, (lower, diag, upper)))


def test_exactly_singular_tridiagonal_is_a_singular_newton_attempt(small_grid):
    # two equal rows: elimination meets an exactly zero pivot in row 2
    rows = (np.array([0.0, 1.0, 0.0]), np.ones(3), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(RuntimeError, match="singular"):
        flow.solve_tridiagonal(rows, np.ones(3))
    # with no stencil, no potential and g = 0, L = -Lap + V + lam - g'(u) = 0
    ws = flow._Workspace(small_grid, make_model(1, ZERO_G, ZERO_V), 1e-2, 1.0)
    ws.op.lap = (np.zeros(small_grid.n),) * 3
    v = gaussian_start(small_grid, 1.0, 1.0).values
    rejections = dict.fromkeys(flow.NEWTON_GUARDS, 0)
    assert flow._newton_finish(ws, v, 0.0, SolverConfig(), 10, rejections) is None
    assert rejections == {g: int(g == "singular") for g in flow.NEWTON_GUARDS}


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.integers(2, 40))
def test_bordered_solve_matches_dense_solve(seed, n):
    rng = np.random.default_rng(seed)
    lower, upper = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    diag = np.abs(lower) + np.abs(upper) + rng.uniform(0.1, 2.0, n)
    u, w = rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 2.0, n)
    rhs = rng.normal(size=n)
    x, mu = bordered_solve((lower, diag, upper), u, w, rhs)
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
    assert res.newton_steps >= 1
    spread = max(res.all_start_energies) - min(res.all_start_energies)
    assert spread <= 1e-12
    tail = [J for i, J in res.energy_trace if i >= 10]
    for a, b in zip(tail, tail[1:]):
        assert b <= a + 1e-9 * (1.0 + abs(a))
    d = res.to_dict()
    assert d["trace_length"] == res.iterations + 1
    assert d["newton_steps"] == res.newton_steps
    assert res.energy == evaluate(res.u, model).J


def test_newton_finishes_a_cold_start_within_a_few_checks(cubic_free_solution):
    # the flow only globalizes: Newton takes over at an early residual check
    # instead of after hundreds of linear flow steps
    res, _ = cubic_free_solution
    assert res.converged
    assert res.iterations <= 5 * RESIDUAL_CHECK_EVERY
    assert res.residual_norm <= SolverConfig().tol_grad
    # every start, not only the winner
    assert len(res.all_start_iterations) == SolverConfig().starts
    assert res.iterations == res.all_start_iterations[res.start_index]
    assert max(res.all_start_iterations) <= 5 * RESIDUAL_CHECK_EVERY
    assert res.to_dict()["all_start_iterations"] == res.all_start_iterations


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
    assert res.iterations == 4
    res = minimize(4.0, load_model(MODELS_DIR / "power3_free.json"), grid20)
    assert res.converged
    assert res.start_index == 0


@pytest.mark.parametrize("name, a, rises", [("power3_free", 4.0, 1),
                                            ("gaussian_well_cubic", 3.0, 1),
                                            ("harmonic_cubic", 2.0, 0)],
                         ids=["power3_free-4.0", "gaussian_well_cubic-3.0",
                              "harmonic_cubic-2.0"])
def test_wide_start_converges_at_its_first_newton_attempt(small_grid, name, a, rises):
    # on its way from a width-2 Gaussian, Newton undershoots the tail by a
    # few percent of the peak; only the endpoint is held to the sign guard.
    # The attempt from the Gaussian itself either converges or ends on a
    # residual rise; then the attempt from the first flow iterate converges
    ws = flow._Workspace(small_grid, load_model(MODELS_DIR / f"{name}.json"), 1e-2, a)
    v = gaussian_start(small_grid, 2.0, a).values.copy()
    out = flow._run_start(ws, v, SolverConfig())
    assert out.converged
    assert out.iterations <= 2 * RESIDUAL_CHECK_EVERY
    assert out.newton_attempts == 1 + rises
    assert out.newton_rejections == {g: rises * (g == "residual-rise")
                                     for g in flow.NEWTON_GUARDS}


def test_sign_guard_is_relative_to_the_field():
    old = np.exp(-np.linspace(0.0, 10.0, 50) ** 2)
    tail = old.copy()
    tail[-5:] = -1e-40
    assert flow._keeps_sign(old, tail)
    lobe = old.copy()
    lobe[30:35] = -1e-3 * old.max()
    assert not flow._keeps_sign(old, lobe)
    # an entry that was already negative may stay so
    assert flow._keeps_sign(lobe, lobe)


def test_sign_changing_newton_endpoint_is_rejected(small_grid):
    # in the linear harmonic trap Newton from |psi_2| converges to the
    # sign-changing eigenvector psi_2 itself: the endpoint must not be kept
    ws = flow._Workspace(small_grid, load_model(MODELS_DIR / "harmonic.json"), 1e-2, 1.0)
    op = ws.op
    lower, diag, upper = op.lap
    A = np.diag(diag + op.V) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    eigvals, eigvecs = np.linalg.eig(A)
    v = np.abs(eigvecs[:, np.argsort(eigvals.real)[1]].real)
    v *= math.sqrt(1.0 / float(op.w @ (v * v)))
    rejections = dict.fromkeys(flow.NEWTON_GUARDS, 0)
    assert flow._newton_finish(ws, v, op.energy(v).J, SolverConfig(), 10**6,
                               rejections) is None
    assert rejections == {g: int(g == "sign") for g in flow.NEWTON_GUARDS}


def test_newton_attempts_and_rejections_are_reported(cubic_free_solution, monkeypatch,
                                                    small_grid, well_cubic):
    res, _ = cubic_free_solution
    assert res.newton_attempts >= 1
    assert tuple(res.newton_rejections) == flow.NEWTON_GUARDS
    accepted = 1 if res.newton_steps else 0
    assert sum(res.newton_rejections.values()) == res.newton_attempts - accepted
    d = res.to_dict()
    assert d["newton_attempts"] == res.newton_attempts
    assert d["newton_rejections"] == res.newton_rejections

    def singular(*args):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(flow, "bordered_solve", singular)
    rejected = minimize(1.0, well_cubic, small_grid, SolverConfig(starts=1))
    assert rejected.newton_steps == 0
    assert rejected.newton_attempts >= 2
    assert rejected.newton_rejections == {
        guard: rejected.newton_attempts if guard == "singular" else 0
        for guard in flow.NEWTON_GUARDS
    }


def test_failed_newton_attempts_leave_the_flow_bit_for_bit(monkeypatch, small_grid,
                                                          well_cubic):
    cfg = SolverConfig(starts=1)
    monkeypatch.setattr(flow, "_newton_finish", lambda *args, **kwargs: None)
    plain = minimize(1.0, well_cubic, small_grid, cfg)
    monkeypatch.undo()
    attempts = []

    def singular(*args):
        attempts.append(args)
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(flow, "bordered_solve", singular)
    rejected = minimize(1.0, well_cubic, small_grid, cfg)
    assert len(attempts) >= 2
    assert rejected.newton_steps == plain.newton_steps == 0
    assert rejected.iterations == plain.iterations
    assert rejected.energy_trace == plain.energy_trace
    assert np.array_equal(rejected.u.values, plain.u.values)
    assert rejected.residual_norm == plain.residual_norm


def _no_initial_attempt(monkeypatch):
    """Make _run_start skip the Newton attempt from the start field."""
    finish = flow._newton_finish
    monkeypatch.setattr(flow, "_newton_finish",
                        lambda *args, monotone=False: None if monotone else finish(*args))


def test_rejected_initial_attempt_leaves_the_start_bit_for_bit(monkeypatch, small_grid):
    # the width-2 power3_free start's attempt from its Gaussian ends on a
    # residual rise; the start then runs as one that never made the attempt
    ws = flow._Workspace(small_grid, load_model(MODELS_DIR / "power3_free.json"),
                         1e-2, 4.0)
    v = gaussian_start(small_grid, 2.0, 4.0).values
    tried = flow._run_start(ws, v.copy(), SolverConfig())
    assert tried.converged
    assert tried.newton_rejections["residual-rise"] == 1
    _no_initial_attempt(monkeypatch)
    plain = flow._run_start(ws, v.copy(), SolverConfig())
    assert tried.trace == plain.trace
    assert tried.iterations == plain.iterations
    assert np.array_equal(tried.values, plain.values)
    assert tried.residual == plain.residual


# --- Newton on the mass-critical quintic, below the soliton mass ---

QUINTIC_SUB_A = 2.685      # just below sqrt(3) pi / 2 = 2.7207
QUINTIC_PROBE = SolverConfig(max_iters=THRESHOLD_PROBE_MAX_ITERS,
                             stop_energy_below=-15.0 * flow.DEADBAND)


def test_newton_attempt_is_judged_by_its_endpoint(grid20):
    # J zigzags along the slow dilation mode on the way to the minimum, so
    # only the endpoint of an attempt is held against the energy it began at
    ws = flow._Workspace(grid20, free_power(1, 4.0), QUINTIC_PROBE.dt, QUINTIC_SUB_A)
    v = gaussian_start(grid20, 1.0, QUINTIC_SUB_A).values.copy()
    for _ in range(100):
        v = ws.step(v)
    J_start = ws.op.energy(v).J
    rejections = dict.fromkeys(flow.NEWTON_GUARDS, 0)
    finish = flow._newton_finish(ws, v, J_start, QUINTIC_PROBE, 10**6, rejections)
    assert finish is not None
    _, energies, _, res = finish
    assert res <= QUINTIC_PROBE.tol_grad
    assert energies[-1] <= J_start
    assert np.any(np.diff(energies) > 0)
    assert len(energies) <= flow.NEWTON_MAX_STEPS
    assert not any(rejections.values())

    # the same path from a start claimed to lie at J = 0 ends above it
    finish = flow._newton_finish(ws, v, 0.0, QUINTIC_PROBE, 10**6, rejections)
    assert finish is None
    assert rejections == {g: int(g == "energy-rise") for g in flow.NEWTON_GUARDS}


def test_subthreshold_quintic_initial_attempts_end_on_a_residual_rise(monkeypatch,
                                                                     grid20):
    # from each start's Gaussian the residual rises within two Newton
    # steps, and the probe then runs as it would without those attempts
    model = free_power(1, 4.0)
    ws = flow._Workspace(grid20, model, QUINTIC_PROBE.dt, QUINTIC_SUB_A)
    for width in flow._start_widths(QUINTIC_PROBE.starts):
        v = gaussian_start(grid20, width, QUINTIC_SUB_A).values
        rejections = dict.fromkeys(flow.NEWTON_GUARDS, 0)
        taken = ws.newton_steps
        assert flow._newton_finish(ws, v, ws.op.energy(v).J, QUINTIC_PROBE, 10**6,
                                   rejections, monotone=True) is None
        assert rejections == {g: int(g == "residual-rise") for g in flow.NEWTON_GUARDS}
        assert ws.newton_steps - taken <= 2
    tried = minimize(QUINTIC_SUB_A, model, grid20, QUINTIC_PROBE)
    _no_initial_attempt(monkeypatch)
    plain = minimize(QUINTIC_SUB_A, model, grid20, QUINTIC_PROBE)
    assert tried.all_start_energies == plain.all_start_energies
    assert tried.all_start_iterations == plain.all_start_iterations
    assert tried.reason == plain.reason == "no-minimizer-regime"


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
    op = flow._Workspace(grid20, model, QUINTIC_PROBE.dt, QUINTIC_SUB_A).op
    u = res.u.values
    lower, diag, upper = op.lap
    diag = diag + op.V + res.lam - model.nonlinearity.dg(u)
    negative = eigvalsh_tridiagonal(diag, -np.sqrt(lower[1:] * upper[:-1]),
                                    select="v", select_range=(-np.inf, 0.0))
    assert len(negative) == 1
    q = flow.solve_tridiagonal((lower, diag, upper), u)
    assert 2.0 * float((op.w * u) @ q) < 0.0
