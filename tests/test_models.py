"""Model schema, growth-hypothesis classifiers, potential classifiers."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import MODELS_DIR, ZERO_G, ZERO_V, harmonic_v, power_g, well_v
from ngs.curves import quadratic_form_infimum
from ngs.energy import discretization
from ngs.errors import ModelFormatError
from ngs.grids import RadialGrid
from ngs.models import (
    NonlinearityModel,
    PotentialModel,
    classify_V,
    classify_g,
    load_model,
    make_model,
)


@pytest.fixture(scope="module")
def grid():
    return RadialGrid(1, 20.0, 256)


# --- nonlinearity construction ---

def test_power_sum_requires_terms():
    with pytest.raises(ValueError):
        NonlinearityModel(kind="power_sum", terms=(), N=1)


def test_exponents_must_be_positive():
    with pytest.raises(ValueError):
        NonlinearityModel(kind="power_sum", terms=((1.0, 0.0),), N=1)
    with pytest.raises(ValueError):
        NonlinearityModel(kind="power_sum", terms=((1.0, -2.0),), N=1)


def test_zero_kind_carries_no_terms():
    with pytest.raises(ValueError):
        NonlinearityModel(kind="zero", terms=((1.0, 2.0),), N=1)
    z = NonlinearityModel(kind="zero", terms=(), N=1)
    assert z.is_zero()
    assert np.all(z.g(np.linspace(0, 5, 7)) == 0.0)


def test_unknown_kinds_rejected():
    with pytest.raises(ValueError):
        NonlinearityModel(kind="cubic", terms=((1.0, 2.0),), N=1)
    with pytest.raises(ValueError):
        PotentialModel(kind="coulomb", params=(1.0,))


def test_g_is_odd_and_vanishes_at_zero():
    m = NonlinearityModel(kind="power_sum", terms=((0.5, 1.0), (1.0, 2.5)), N=1)
    s = np.linspace(-3, 3, 41)
    assert np.allclose(m.g(-s), -m.g(s))
    assert m.g(0.0) == 0.0
    assert m.G(0.0) == 0.0


def test_dg_is_the_derivative_of_g():
    m = NonlinearityModel(kind="power_sum", terms=((0.5, 1.0), (1.0, 2.5)), N=1)
    s = np.linspace(-3, 3, 41)
    h = 1e-6
    w = np.ones_like(s)
    dg = m.evaluate(s, w).dg
    assert np.allclose(dg, (m.g(s + h) - m.g(s - h)) / (2 * h), rtol=1e-6, atol=1e-5)
    zero = NonlinearityModel(kind="zero", terms=(), N=1)
    assert np.array_equal(zero.evaluate(s, w).dg, np.zeros_like(s))


# --- growth classification ---

def test_classify_single_subcritical_term():
    c = classify_g(NonlinearityModel(kind="power_sum", terms=((1.0, 1.0),), N=1))
    assert c.G1 and c.G2 and c.G3 and c.G4 and c.G5
    assert c.alpha == 3.0
    assert c.small_s_regime == "superfast"


@pytest.mark.parametrize("N", [1, 2, 3])
def test_classify_critical_exponent_fails_decay(N):
    sigma = 4.0 / N
    c = classify_g(NonlinearityModel(kind="power_sum", terms=((1.0, sigma),), N=N))
    assert not c.G3
    assert c.small_s_regime == "finite_limsup"


def test_classify_cubic_term():
    c = classify_g(NonlinearityModel(kind="power_sum", terms=((1.0, 2.0),), N=1))
    assert c.G1 and c.G2 and c.G3 and c.G4 and c.G5
    assert c.alpha == 4.0
    assert c.small_s_regime == "superfast"


def test_classify_zero_nonlinearity():
    c = classify_g(NonlinearityModel(kind="zero", terms=(), N=1))
    assert not c.G4
    assert c.alpha is None


def test_nonlinearity_rejects_bad_dimension():
    # so classify_g, which reads N from the model, never sees one
    with pytest.raises(ValueError, match="dimension"):
        NonlinearityModel(kind="power_sum", terms=((1.0, 1.0),), N=4)


term_lists = st.lists(
    st.tuples(st.floats(0.01, 5.0), st.floats(0.05, 3.9)),
    min_size=1, max_size=3,
)


# integer exponents take the product path of evaluate, the others pow
fused_term_lists = st.lists(
    st.tuples(st.floats(0.01, 5.0),
              st.one_of(st.floats(0.05, 3.9), st.sampled_from([1.0, 2.0, 2.5, 3.0, 4.0]))),
    min_size=1, max_size=2,
)


@settings(deadline=None, max_examples=60)
@given(st.one_of(st.just(()), fused_term_lists),
       st.lists(st.one_of(st.floats(-50.0, 50.0),
                          st.sampled_from([0.0, -0.0, 1e-200, -1e-200, 1e10, -1e10])),
                min_size=1, max_size=40))
def test_fused_evaluation_is_bitwise_the_separate_methods(terms, values):
    # one power per term serves g, g' and the weighted sums of G and g s; g
    # must be the method's bits, and the sums those of the methods' arrays:
    # to rounding, as each term's sum is divided by sigma + 2 after the dot,
    # and bit for bit for g s of one term, whose array is that term's
    m = NonlinearityModel(kind="power_sum" if terms else "zero", terms=tuple(terms), N=1)
    s = np.array(values)
    w = np.linspace(0.5, 2.0, len(s))
    fused = m.evaluate(s, w)
    assert fused.g.tobytes() == m.g(s).tobytes()
    assert math.isclose(fused.int_gs, float(w @ m.g_times_s(s)), rel_tol=1e-13)
    assert math.isclose(fused.int_G, float(w @ m.G(s)), rel_tol=1e-13)
    if len(terms) == 1:
        assert fused.int_gs == float(w @ m.g_times_s(s))
    # and the methods are the closed forms, to rounding
    gs = sum((c * np.abs(s) ** (sigma + 2.0) for c, sigma in terms), np.zeros_like(s))
    G = sum((c * np.abs(s) ** (sigma + 2.0) / (sigma + 2.0) for c, sigma in terms),
            np.zeros_like(s))
    assert np.allclose(m.g_times_s(s), gs, rtol=1e-13, atol=1e-300)
    assert np.allclose(m.G(s), G, rtol=1e-13, atol=1e-300)
    dg = sum((c * (sigma + 1.0) * np.abs(s) ** sigma for c, sigma in terms),
             np.zeros_like(s))
    assert np.allclose(fused.dg, dg, rtol=1e-13, atol=1e-300)


@settings(deadline=None, max_examples=60)
@given(term_lists)
def test_lower_growth_bound_holds_pointwise(terms):
    # g(s) s >= alpha G(s) with alpha = 2 + min sigma, exact for power sums
    m = NonlinearityModel(kind="power_sum", terms=tuple(terms), N=1)
    c = classify_g(m)
    s = np.linspace(0.0, 10.0, 200)
    gap = m.g_times_s(s) - c.alpha * m.G(s)
    assert np.all(gap >= -1e-10 * np.maximum(1.0, np.abs(m.G(s))))


@settings(deadline=None, max_examples=40)
@given(term_lists, st.floats(0.01, 100.0), st.integers(1, 3))
def test_classification_invariant_under_coefficient_rescale(terms, c, N):
    m1 = NonlinearityModel(kind="power_sum", terms=tuple(terms), N=N)
    m2 = NonlinearityModel(
        kind="power_sum", terms=tuple((c * co, s) for co, s in terms), N=N)
    c1, c2 = classify_g(m1), classify_g(m2)
    assert (c1.G1, c1.G2, c1.G3, c1.G4, c1.G5) == (c2.G1, c2.G2, c2.G3, c2.G4, c2.G5)
    assert c1.alpha == c2.alpha
    assert c1.small_s_regime == c2.small_s_regime


# --- potential classification ---

def test_classify_zero_potential(grid):
    p = PotentialModel.zero()
    c = classify_V(p, grid)
    assert c.V1 and c.V2 and c.decay_of_dVx
    assert p.V_inf == 0.0 and p.c_ell == 0.0
    assert not p.coercive


def test_classify_harmonic(grid):
    p = PotentialModel(kind="harmonic", params=(1.0,))
    c = classify_V(p, grid)
    assert p.coercive and c.coercive
    assert not c.decay_of_dVx
    assert math.isinf(p.V_inf)


def test_classify_gaussian_well(grid):
    p = PotentialModel(kind="gaussian_well", params=(1.0, 1.0))
    c = classify_V(p, grid)
    assert c.V1 and c.V2 and c.decay_of_dVx
    assert p.V_inf == 0.0
    assert p.c_ell == -1.0
    assert p.V(0.0) == -1.0


def test_potential_bounds_sampled(grid):
    for p in (PotentialModel(kind="gaussian_well", params=(2.0, 1.5)),
              PotentialModel(kind="harmonic", params=(0.5,))):
        vals = p.V(grid.r)
        assert np.all(vals >= p.c_ell - 1e-12)
        if math.isfinite(p.V_inf):
            assert np.all(vals <= p.V_inf + 1e-12)


# --- power-law coercive potentials ---

def power_v(c: float, k: float) -> dict:
    return {"kind": "power_coercive", "params": [c, k]}


def test_power_coercive_values_and_limits(grid):
    p = make_model(1, ZERO_G, power_v(0.5, 3.0)).potential
    assert np.array_equal(p.V(grid.r), 0.5 * grid.r**3.0)
    assert np.array_equal(p.dV_dot_x(grid.r), 0.5 * 3.0 * grid.r**3.0)
    assert p.coercive and classify_V(p, grid).coercive
    assert p.V_inf == math.inf
    assert p.c_ell == 0.0


@pytest.mark.parametrize("params", [[1.0], [0.0, 2.0], [1.0, 0.5]],
                         ids=["one-parameter", "zero-strength", "exponent-below-1"])
def test_power_coercive_parameter_validation(params):
    with pytest.raises(ValueError):
        make_model(1, ZERO_G, {"kind": "power_coercive", "params": params})


def test_power_coercive_quadratic_is_harmonic():
    grid = RadialGrid(1, 20.0, 2000)
    power = make_model(1, ZERO_G, power_v(1.0, 2.0))
    harmonic = make_model(1, ZERO_G, harmonic_v(1.0))
    assert np.array_equal(power.potential.V(grid.r), harmonic.potential.V(grid.r))
    assert np.array_equal(power.potential.dV_dot_x(grid.r),
                          harmonic.potential.dV_dot_x(grid.r))
    assert quadratic_form_infimum(power, grid) == quadratic_form_infimum(harmonic, grid)


# --- tabulated potentials ---

def tab_dict(r, v):
    return {"kind": "tabulated", "table": {"r": list(r), "V": list(v)}}


def test_tabulated_needs_enough_samples():
    r = np.linspace(0, 5, 7)
    with pytest.raises(ValueError):
        make_model(1, ZERO_G, tab_dict(r, -np.exp(-r)))


def test_tabulated_radii_validated():
    v = [0.0] * 10
    with pytest.raises(ValueError):
        make_model(1, ZERO_G, tab_dict(np.linspace(1, 5, 10), v))
    bad = list(np.linspace(0, 5, 10))
    bad[4] = bad[3]
    with pytest.raises(ValueError):
        make_model(1, ZERO_G, tab_dict(bad, v))


def test_tabulated_interpolation_and_limits():
    r = np.linspace(0.0, 25.0, 251)
    m = make_model(1, ZERO_G, tab_dict(r, -np.exp(-(r**2))))
    p = m.potential
    assert np.allclose(p.V(r), -np.exp(-(r**2)))
    assert abs(p.V_inf) <= 1e-12          # mean over the settled tail
    assert p.c_ell == -1.0
    assert p.tail_settled()
    mid = 0.5 * (r[3] + r[4])             # piecewise linear between samples
    expect = 0.5 * (-np.exp(-r[3] ** 2) - np.exp(-r[4] ** 2))
    assert math.isclose(float(p.V(mid)), expect, rel_tol=1e-12)


@pytest.mark.parametrize("potential", [
    {"kind": "zero", "params": [1.0]},
    {"kind": "harmonic", "params": [1.0, 99.0]},
    {"kind": "gaussian_well", "params": [1.0, 1.0, 2.0]},
    {"kind": "power_coercive", "params": [1.0, 2.0, 3.0]},
    {**tab_dict(np.linspace(0, 5, 10), [0.0] * 10), "params": [1.0]},
], ids=["zero", "harmonic", "gaussian_well", "power_coercive", "tabulated"])
def test_extra_potential_params_are_rejected(potential):
    # a param the kind does not take is an error, not dropped: a run's
    # manifest records the params it ran with, which must be the file's
    with pytest.raises(ValueError, match="too many params for "):
        make_model(1, ZERO_G, potential)


def test_tabulated_unsettled_tail_flagged(grid):
    r = np.linspace(0.0, 20.0, 41)
    m = make_model(1, ZERO_G, tab_dict(r, -1.0 + 0.3 * np.sin(r)))
    assert not m.potential.tail_settled()
    assert not classify_V(m.potential, grid).V1


# --- files and fingerprints ---

def test_bundled_models_load_and_roundtrip():
    for path in sorted(MODELS_DIR.glob("*.json")):
        m = load_model(path)
        d = m.to_dict()
        again = make_model(d["N"], d["nonlinearity"], d["potential"])
        assert again.fingerprint() == m.fingerprint(), path.name


def test_malformed_json_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"N": 1,\n  "nonlinearity": {,}\n}\n')
    with pytest.raises(ModelFormatError) as exc:
        load_model(p)
    assert exc.value.line == 2
    assert exc.value.column is not None
    assert "line 2" in str(exc.value)


def test_missing_key_reported(tmp_path):
    p = tmp_path / "partial.json"
    p.write_text(json.dumps({"N": 1, "nonlinearity": ZERO_V}))
    with pytest.raises(ModelFormatError):
        load_model(p)


def test_tabulated_csv_resolved_relative_to_model(tmp_path):
    r = np.linspace(0.0, 10.0, 21)
    csv = "r,V\n" + "\n".join(f"{x},{-np.exp(-x):.12g}" for x in r)
    (tmp_path / "table.csv").write_text(csv + "\n")
    (tmp_path / "m.json").write_text(json.dumps({
        "N": 1,
        "nonlinearity": power_g((1.0, 2.0)),
        "potential": {"kind": "tabulated", "table": "table.csv"},
    }))
    m = load_model(tmp_path / "m.json")
    assert m.potential.kind == "tabulated"
    assert math.isclose(float(m.potential.V(0.0)), -1.0, rel_tol=1e-12)


def test_tabulated_models_loaded_apart_share_one_discretization():
    a, b = (load_model(MODELS_DIR / "tabulated_well.json") for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    grid = RadialGrid(a.N, 20.0, 256)
    assert discretization(grid, a) is discretization(grid, b)


def test_fingerprint_separates_potentials():
    a = make_model(1, power_g((1.0, 2.0)), ZERO_V)
    b = make_model(1, power_g((1.0, 2.0)), well_v())
    assert a.fingerprint() != b.fingerprint()
    assert b.with_zero_potential().fingerprint() == a.fingerprint()


def test_harmonic_and_well_parameter_validation():
    with pytest.raises(ValueError):
        make_model(1, ZERO_G, harmonic_v(-1.0))
    with pytest.raises(ValueError):
        make_model(1, ZERO_G, well_v(-2.0))
    with pytest.raises(ValueError):
        make_model(1, ZERO_G, {"kind": "gaussian_well", "params": []})
