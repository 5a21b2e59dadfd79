"""Energy-curve scans, subadditivity, thresholds, and the spectral floor."""
import math

import numpy as np
import pytest
import scipy.linalg

from helpers import (
    MODELS_DIR,
    ZERO_G,
    dilate,
    free_power,
    harmonic_v,
    power_g,
    read_csv_row_by_row,
    subadditivity_rows_by_scan,
    well_v,
)
from ngs.curves import (
    EnergyCurve,
    quadratic_form_infimum,
    read_curve_csv,
    scan,
    subadditivity_check,
    threshold_a0,
    vanishing_diagnostic,
    write_curve_csv,
    write_subadditivity_csv,
)
from ngs import curves, energy, flow
from ngs.energy import Discretization
from ngs.errors import BracketError, NumericalError
from ngs.flow import DEADBAND, STATE_COLUMNS, SolverConfig, State, minimize
from ngs.grids import GridFunction, RadialGrid, kinetic, mass
from ngs.models import load_model, make_model
from ngs.utils import read_csv


@pytest.fixture(scope="module")
def small_grid():
    return RadialGrid(1, 16.0, 400)


@pytest.fixture(scope="module")
def well_cubic():
    return make_model(1, power_g((1.0, 2.0)), well_v(depth=1.0, width=1.0))


@pytest.fixture(scope="module")
def free_curve():
    # exact curve for the cubic line problem: C(a) = -a^3/96
    grid = RadialGrid(1, 20.0, 800)
    return scan([2.0, 4.0, 8.0], free_power(1, 2.0), grid)


# --- vanishing diagnostic ---

def test_diagnostic_captures_compact_support(small_grid):
    vals = np.where(small_grid.r <= 1.0, 1.0 - small_grid.r, 0.0)
    u = GridFunction(small_grid, vals)
    assert math.isclose(vanishing_diagnostic(u), mass(u), rel_tol=1e-12)


def test_cached_ball_bounds_match_a_fresh_search():
    # the bounds, and the first node of minimize's edge zone r >= 0.95 R, are
    # cached per grid; R = 16, n = 400 has 1/h = 25, so ball edges fall on
    # node radii up to rounding
    shapes = ((1, 16.0, 400), (2, 20.0, 1000), (3, 12.5, 333), (1, 16.0, 400 * 2))
    for _ in range(2):    # the second round reads the cache
        for N, R, n in shapes:
            grid = RadialGrid(N, R, n)
            centers = np.concatenate(([0.0], grid.r))
            lo, hi, edge = flow._ball_bounds(grid)
            assert edge == np.searchsorted(grid.r, 0.95 * grid.R)
            assert np.array_equal(lo, np.searchsorted(
                grid.r, centers - flow.VANISHING_RADIUS, side="left"))
            assert np.array_equal(hi, np.searchsorted(
                grid.r, centers + flow.VANISHING_RADIUS, side="right"))
            assert not (lo.flags.writeable or hi.flags.writeable)


def test_diagnostic_decreases_under_spreading():
    # stretch at fixed mass: local capture must drop toward zero
    grid = RadialGrid(1, 60.0, 1500)
    u = GridFunction(grid, np.exp(-2.0 * grid.r**2))
    fracs = []
    for tau in (1.0, 4.0, 16.0):
        v = dilate(u, tau)
        fixed_mass = v.with_values(v.values / math.sqrt(tau))
        assert math.isclose(mass(fixed_mass), mass(u), rel_tol=1e-6)
        fracs.append(vanishing_diagnostic(fixed_mass))
    assert fracs[2] < fracs[1] < fracs[0]


def test_diagnostic_bounded_by_mass(small_grid):
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.0, 1.0, small_grid.n)
    u = GridFunction(small_grid, vals)
    assert 0.0 < vanishing_diagnostic(u) <= mass(u) * (1.0 + 1e-12)


def test_minimizer_stays_localized(small_grid, well_cubic):
    res = minimize(1.0, well_cubic, small_grid)
    assert res.converged
    assert vanishing_diagnostic(res.u) >= 0.05 * 1.0


# --- scans ---

def test_scan_input_validation(small_grid, well_cubic):
    with pytest.raises(ValueError):
        scan([1.0, 2.0], well_cubic, small_grid)
    with pytest.raises(ValueError):
        scan([-1.0, 1.0, 2.0], well_cubic, small_grid)
    with pytest.raises(ValueError):
        scan([1.0, 3.0, 2.0], well_cubic, small_grid)


def test_free_curve_matches_closed_form(free_curve):
    for pt in free_curve.points:
        assert pt.converged
        exact = -pt.a**3 / 96.0
        assert abs(pt.C_a - exact) <= 1e-3 * abs(exact)
    assert not free_curve.partial


def test_free_curve_cubic_homogeneity(free_curve):
    c4 = free_curve.points[1].C_a
    c8 = free_curve.points[2].C_a
    assert abs(c8 / c4 - 8.0) <= 2e-2


def test_free_curve_monotone(free_curve):
    assert free_curve.monotone_violations(1e-8) == 0


def test_free_curve_strictly_subadditive(free_curve):
    report = subadditivity_check(free_curve)
    assert report.ok
    assert len(report.rows) == 2
    gaps = sorted(r.gap for r in report.rows)
    # (4,4) -> 8 and (2,2) -> 4; exact gaps -4 and -1/2
    assert abs(gaps[0] + 4.0) <= 2e-2
    assert abs(gaps[1] + 0.5) <= 5e-3
    assert report.strict_count == 2
    assert report.violations == ()


def test_doubling_beats_splitting(free_curve):
    c2, c4, c8 = (pt.C_a for pt in free_curve.points)
    assert c4 < 2.0 * c2
    assert c8 < 2.0 * c4


def _point(a: float, C_a: float, converged: bool) -> State:
    """A state of mass a, energy C_a and the converged flag; None in every other field."""
    return State(*[None] * len(State._fields))._replace(a=a, C_a=C_a, converged=converged)


def test_synthetic_flat_curve_has_zero_gaps():
    pts = tuple(_point(float(a), 0.0, True) for a in (1, 2, 3, 4))
    curve = EnergyCurve(points=pts)
    report = subadditivity_check(curve)
    assert report.ok
    assert len(report.rows) == 4
    assert all(r.gap == 0.0 for r in report.rows)
    assert report.strict_count == 0


def _synthetic_curve(masses, rng) -> EnergyCurve:
    return EnergyCurve(points=tuple(
        _point(float(a), float(rng.normal()), bool(rng.random() < 0.8))
        for a in masses
    ))


def test_subadditivity_pairs_match_the_exhaustive_rule():
    rng = np.random.default_rng(7)
    # linspace masses: many sums miss a scanned mass by a few ulp
    masses = np.linspace(0.1, 1.2, 12)
    off_by_ulps = [a + b for a in masses for b in masses
                   if a + b not in masses
                   and np.min(np.abs(masses - (a + b))) <= 4 * np.spacing(a + b)]
    assert off_by_ulps
    for grid in (masses, np.linspace(0.5, 6.0, 12), np.linspace(0.3, 3.6, 23)):
        curve = _synthetic_curve(grid, rng)
        rows = subadditivity_check(curve).rows
        assert rows == subadditivity_rows_by_scan(curve)
        assert len(rows) > 0


def test_subadditivity_with_no_matching_sums_has_no_rows():
    rng = np.random.default_rng(8)
    # sums fall between the masses or past the last one
    for masses in (1.0 + 0.9 * np.sqrt(np.arange(12.0)) / math.sqrt(11.0),
                   np.geomspace(1.0, 50.0, 12) + 0.01 * np.arange(12.0)):
        curve = _synthetic_curve(masses, rng)
        assert subadditivity_rows_by_scan(curve) == ()
        assert subadditivity_check(curve).rows == ()


def test_curve_csv_roundtrip(free_curve, tmp_path):
    path = tmp_path / "curve.csv"
    write_curve_csv(free_curve, path)
    points = read_curve_csv(path)
    assert len(points) == 3
    for orig, back in zip(free_curve.points, points):
        assert math.isclose(orig.C_a, back.C_a, rel_tol=1e-11)
        assert math.isclose(orig.lam, back.lam, rel_tol=1e-11)
        assert back.converged


def test_curve_csv_roundtrip_keeps_an_unconverged_row(free_curve, tmp_path):
    first, middle, last = free_curve.points
    curve = EnergyCurve((first, middle._replace(converged=False), last))
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    assert path.read_text().splitlines()[2].split(",")[3] == "false"
    assert [pt.converged for pt in read_curve_csv(path)] == [True, False, True]
    cols = read_csv(path, STATE_COLUMNS, required=6)
    assert [[(c, type(c)) for c in col] for col in cols] == \
        list(map(list, zip(*read_csv_row_by_row(path, STATE_COLUMNS))))
    assert read_curve_csv(path) == [State(*row) for row in zip(*cols)]


def test_curve_csv_reads_back_the_states_with_their_none_cells(free_curve, tmp_path):
    first, middle, last = free_curve.points
    assert first.warm_from is None and first.reason is None
    failed = last._replace(converged=False, reason="max-iters", C_a_search_grid=None,
                           C_a_extrapolated=None, discretization_error_estimate=None)
    curve = EnergyCurve((first, middle, failed))
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    assert read_curve_csv(path) == list(curve.points)
    assert path.read_text().splitlines()[1].endswith(",")   # warm_from None: an empty cell


def test_subadditivity_csv_format(free_curve, tmp_path):
    path = tmp_path / "sub.csv"
    write_subadditivity_csv(subadditivity_check(free_curve), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,b,gap"
    assert len(lines) == 3
    a, b, gap = (float(x) for x in lines[1].split(","))
    assert (a, b) == (2.0, 2.0)
    assert gap < 0


# --- threshold bisection ---

def test_threshold_below_bracket_for_trapping_well(small_grid, well_cubic):
    out = threshold_a0(well_cubic, small_grid)
    assert out.below_lower_bracket
    assert out.a0 == out.bracket[0]
    assert len(out.evaluations) == 2
    assert out.note != ""


def test_threshold_needs_negative_upper_energy(small_grid):
    model = make_model(1, power_g((1.0, 2.0)), harmonic_v(1.0))
    with pytest.raises(BracketError, match="enlarge"):
        threshold_a0(model, small_grid, bracket=(0.5, 1.0))


def test_threshold_brackets_quintic_soliton_mass(small_grid):
    # line quintic: the curve leaves zero at the soliton mass sqrt(3) pi / 2
    out = threshold_a0(free_power(1, 4.0), small_grid, bracket=(1e-3, 6.0))
    assert not out.below_lower_bracket
    assert 2.5 <= out.a0 <= 3.0
    assert out.half_width <= 0.02 * out.a0
    first_a = out.evaluations[0].a
    assert first_a == 6.0
    signs = {e.a: (e.C_a < -out.deadband) for e in out.evaluations}
    assert signs[6.0] and not signs[1e-3]


def test_threshold_probe_keeps_the_lowest_start(grid20):
    # at this mass every quintic start stops below the probe's floor on the
    # half grid; minimize finishes the lowest on n, where it is still below,
    # and the probe records minimize's J and label: a field that proves the
    # minimum negative
    model = free_power(1, 4.0)
    a = 2.720640427521
    probe = SolverConfig(stop_energy_below=-15.0 * DEADBAND)
    res = minimize(a, model, grid20, probe)
    assert res.all_start_reasons == ["energy-floor"] * 3
    assert res.all_start_energies[res.start_index] == min(res.all_start_energies)
    assert res.reason == "energy-floor" and res.energy < -15.0 * DEADBAND
    out = threshold_a0(model, grid20, bracket=(2.70, a))
    assert out.evaluations[0] == res.state()
    assert out.evaluations[0].warm_from is None


def _spy_on_probes(monkeypatch):
    """(a, warm_start, result) of each minimize that threshold_a0 calls."""
    calls = []
    inner = curves.minimize

    def spy(a, *args, warm_start=None, **kwargs):
        res = inner(a, *args, warm_start=warm_start, **kwargs)
        calls.append((a, warm_start, res))
        return res

    monkeypatch.setattr(curves, "minimize", spy)
    return calls


def test_threshold_probe_continues_from_the_nearest_converged_probe(grid20):
    # the upper end stops on the floor and the lower end reaches the spread
    # state: the midpoint starts from the lower end's profile
    out = threshold_a0(free_power(1, 4.0), grid20, bracket=(2.685, 2.735))
    warm = [e.warm_from for e in out.evaluations]
    assert [e.a for e in out.evaluations] == [2.735, 2.685, 2.71]
    assert out.evaluations[0].reason == "energy-floor"
    assert out.evaluations[1].reason == "no-minimizer-regime"
    assert warm == [None, None, 2.685]


def test_threshold_probe_on_the_floor_seeds_nothing(grid20, monkeypatch):
    # the midpoint 2.708 rounds nearer the upper end, which ends on the
    # floor; it starts from the lower end's profile all the same
    calls = _spy_on_probes(monkeypatch)
    out = threshold_a0(free_power(1, 4.0), grid20, bracket=(2.683, 2.733))
    (a_hi, cold_hi, hi), (a_lo, cold_lo, lo), (mid, warm, _) = calls
    assert cold_hi is None and cold_lo is None
    assert hi.reason == "energy-floor" and lo.reason == "no-minimizer-regime"
    assert abs(a_hi - mid) < abs(mid - a_lo)
    assert warm is lo.u
    assert out.evaluations[2].warm_from == a_lo
    # on every bracket, a seed is the profile of a probe that did not stop
    # on the floor
    calls.clear()
    threshold_a0(free_power(1, 4.0), grid20, bracket=(2.5, 3.0))
    seeds = [warm for _, warm, _ in calls if warm is not None]
    assert seeds and all(
        any(warm is res.u and res.reason != "energy-floor" for _, _, res in calls)
        for warm in seeds)


def test_scan_continues_from_a_labelled_finish_as_threshold_does(grid20, monkeypatch):
    # below the quintic's threshold every mass converges on n to the spread
    # state, labelled no-minimizer-regime: each continues the last, as a
    # threshold probe would, and records that mass as its warm_from
    calls = _spy_on_probes(monkeypatch)
    curve = scan([2.5, 2.55, 2.6, 2.65], free_power(1, 4.0), grid20)
    assert [pt.reason for pt in curve.points] == ["no-minimizer-regime"] * 4
    assert calls[0][1] is None
    assert all(warm is res.u for (_, warm, _), (_, _, res) in zip(calls[1:], calls))
    assert [pt.warm_from for pt in curve.points] == [None, 2.5, 2.55, 2.6]


def test_scan_records_the_mass_each_state_continued(free_curve):
    assert [pt.warm_from for pt in free_curve.points] == [None, 2.0, 4.0]


def test_threshold_warm_probe_with_one_start_runs_the_warm_start_alone(grid20, monkeypatch):
    calls = _spy_on_probes(monkeypatch)
    out = threshold_a0(free_power(1, 4.0), grid20, SolverConfig(starts=1),
                       bracket=(2.685, 2.735))
    assert [e.warm_from for e in out.evaluations] == [None, None, 2.685]
    assert [len(res.all_start_solves) for _, _, res in calls] == [1, 1, 1]
    # the midpoint's one start is the lower end's profile, not the width-1
    # Gaussian, which takes 18 solves to the state the profile reaches in 5
    mid, warm, res = calls[2]
    assert warm is calls[1][2].u
    cold = minimize(mid, free_power(1, 4.0), grid20,
                    SolverConfig(starts=1, stop_energy_below=-15.0 * DEADBAND))
    assert res.all_start_solves[0] < cold.all_start_solves[0]


def test_threshold_bracket_validation(small_grid, well_cubic):
    with pytest.raises(ValueError):
        threshold_a0(well_cubic, small_grid, bracket=(2.0, 1.0))
    with pytest.raises(ValueError):
        threshold_a0(well_cubic, small_grid, bracket=(0.0, 1.0))


# --- quadratic form infimum ---

def test_spectral_floor_free_matches_dirichlet_gap():
    for R in (12.0, 24.0):
        grid = RadialGrid(1, R, 400)
        model = make_model(1, ZERO_G, {"kind": "zero", "params": []})
        q = quadratic_form_infimum(model, grid)
        assert abs(q - (math.pi / (2.0 * R)) ** 2) <= 1e-3 * (math.pi / (2.0 * R)) ** 2


def test_spectral_floor_shrinks_with_domain():
    model = make_model(1, ZERO_G, {"kind": "zero", "params": []})
    q12 = quadratic_form_infimum(model, RadialGrid(1, 12.0, 400))
    q24 = quadratic_form_infimum(model, RadialGrid(1, 24.0, 800))
    assert q24 < q12


def test_spectral_floor_harmonic():
    grid = RadialGrid(1, 12.0, 400)
    model = make_model(1, ZERO_G, harmonic_v(1.0))
    assert abs(quadratic_form_infimum(model, grid) - 1.0) <= 1e-3


def test_spectral_floor_deep_well_binds():
    grid = RadialGrid(1, 16.0, 400)
    model = make_model(1, ZERO_G, well_v(depth=4.0, width=1.0))
    q = quadratic_form_infimum(model, grid)
    assert q < -2.0
    assert q >= model.potential.c_ell


@pytest.mark.parametrize("potential", [harmonic_v(1.0), well_v(depth=4.0, width=1.0)])
def test_spectral_floor_is_exact_generalized_eigenvalue(potential):
    # K by polarization of the kinetic form on unit vectors; the infimum is
    # the lowest eigenvalue of K + W V against the quadrature weights W
    grid = RadialGrid(1, 12.0, 128)
    model = make_model(1, ZERO_G, potential)

    def kin(v):
        return kinetic(GridFunction(grid, v))

    unit = np.eye(grid.n)
    K = np.diag([kin(e) for e in unit])
    for i in range(grid.n):
        for j in range(i + 1, grid.n):
            K[i, j] = K[j, i] = 0.5 * (kin(unit[i] + unit[j]) - K[i, i] - K[j, j])
    A = K + np.diag(grid.w * model.potential.V(grid.r))
    exact = scipy.linalg.eigh(A, np.diag(grid.w), eigvals_only=True)[0]
    assert abs(quadratic_form_infimum(model, grid) - exact) <= 1e-10


BUNDLED_WITH_POTENTIAL = ["harmonic", "gaussian_well_deep", "gaussian_well_cubic",
                          "harmonic_cubic", "tabulated_well"]


def _tridiagonal(model, grid):
    # the diagonal and off-diagonal of the T quadratic_form_infimum builds
    disc = Discretization(grid, model)
    sub, diag, sup = disc.lap
    return diag + disc.V, -np.sqrt(sup * sub)


def _eigh_tridiagonal_floor(model, grid):
    return scipy.linalg.eigh_tridiagonal(*_tridiagonal(model, grid), eigvals_only=True,
                                         select="i", select_range=(0, 0))[0]


def _spy(monkeypatch, owner, name, fn=None):
    """Replace owner.<name> by fn, flow's LAPACK routine by default, and
    return the list its calls are appended to."""
    calls = []
    fn = getattr(flow, name) if fn is None else fn

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _spectrum_case(case):
    """(model, grid): a bundled model on R = 20, n = 2000, the depth-3 well
    in N = 2 or 3 on R = 20, n = 2000, or gaussian_well_deep on the coarse
    R = 1e4, n = 64 grid."""
    if case in ("N=2 well", "N=3 well"):
        N = int(case[2])
        return make_model(N, ZERO_G, well_v(depth=3.0, width=1.0)), RadialGrid(N, 20.0, 2000)
    if case == "coarse":
        return load_model(MODELS_DIR / "gaussian_well_deep.json"), RadialGrid(1, 1e4, 64)
    return load_model(MODELS_DIR / f"{case}.json"), RadialGrid(1, 20.0, 2000)


@pytest.mark.parametrize("case", [*BUNDLED_WITH_POTENTIAL, "N=2 well", "N=3 well", "coarse"])
def test_spectral_floor_is_scipy_eigh_tridiagonal_to_the_bit(case, monkeypatch):
    # the one dstebz call eigh_tridiagonal makes, and no tridiagonal solve;
    # a kept floor would skip it
    energy.discretization.cache_clear()
    solves, calls = _spy(monkeypatch, flow, "dgtsv"), _spy(monkeypatch, curves, "dstebz")
    model, grid = _spectrum_case(case)
    assert quadratic_form_infimum(model, grid) == _eigh_tridiagonal_floor(model, grid)
    assert len(calls) == 1 and not solves


def test_spectral_floor_raises_on_lapack_failure(small_grid, well_cubic, monkeypatch):
    energy.discretization.cache_clear()
    calls = _spy(monkeypatch, curves, "dstebz", lambda *args: (0, np.zeros(1), None, None, 3))
    with pytest.raises(NumericalError, match="info = 3"):
        quadratic_form_infimum(well_cubic, small_grid)
    assert len(calls) == 1


def test_spectral_floor_failure_is_never_kept(small_grid, well_cubic, monkeypatch):
    # every call on the failing (grid, model) calls dstebz again and raises
    energy.discretization.cache_clear()
    calls = _spy(monkeypatch, curves, "dstebz", lambda *args: (0, np.zeros(1), None, None, 3))
    for count in (1, 2, 3):
        with pytest.raises(NumericalError, match="info = 3"):
            quadratic_form_infimum(well_cubic, small_grid)
        assert len(calls) == count
    assert energy.discretization(small_grid, well_cubic).spectral_floor is None


@pytest.mark.parametrize("name", ["gaussian_well_deep", "tabulated_well"])
def test_spectral_floor_is_certified_once_per_grid_and_model(name, grid20, monkeypatch):
    # the floor is kept on the shared Discretization: a second call, also
    # with an equal model loaded apart, makes no LAPACK call and returns the
    # same float; once the cache is cleared it is computed again
    energy.discretization.cache_clear()
    solves, calls = _spy(monkeypatch, flow, "dgtsv"), _spy(monkeypatch, curves, "dstebz")
    path = MODELS_DIR / f"{name}.json"
    first = quadratic_form_infimum(load_model(path), grid20)
    assert len(calls) == 1 and not solves
    again = quadratic_form_infimum(load_model(path), grid20)
    assert again == first and type(again) is float
    assert len(calls) == 1 and not solves
    assert energy.discretization(grid20, load_model(path)).spectral_floor == first
    energy.discretization.cache_clear()
    assert quadratic_form_infimum(load_model(path), grid20) == first
    assert len(calls) == 2 and not solves


def test_spectral_floor_never_undershoots_potential_floor(small_grid, well_cubic):
    q = quadratic_form_infimum(well_cubic, small_grid)
    assert q >= well_cubic.potential.c_ell
    assert q < 0.0


# --- comparison with the free curve ---

def test_trapped_curve_beats_free_curve_plus_escape_cost(small_grid):
    # V -> 1 at infinity: the escape cost per unit mass is V_inf / 2
    r_tab = np.arange(0.0, 16.25, 0.25)
    v_tab = 1.0 - np.exp(-(r_tab**2))
    model = make_model(
        1, power_g((1.0, 2.0)),
        {"kind": "tabulated", "table": {"r": r_tab.tolist(), "V": v_tab.tolist()}},
    )
    assert model.potential.V_inf == pytest.approx(1.0, abs=1e-6)
    res = minimize(2.0, model, small_grid)
    assert res.converged
    free_E = -(2.0**3) / 96.0
    assert res.energy < free_E + 0.5 * model.potential.V_inf * 2.0
