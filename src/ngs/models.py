"""Model definitions: power-sum nonlinearities, radial potentials, classifiers.

A model couples a nonlinearity g with a radial potential V in dimension N.
Nonlinearities are finite sums g(s) = sum_i coef_i |s|^sigma_i s with exact
antiderivative G(s) = sum_i coef_i |s|^(sigma_i+2)/(sigma_i+2); limits needed
by the hypothesis classifiers are decidable for this family, which is why
general continuous g is not supported.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ModelFormatError, NumericalError
from .grids import RadialGrid
from .utils import read_csv

# relative tolerance for declaring a tabulated potential settled at its tail
TAIL_TOL = 1e-3

# largest |<grad V, x>| on the outer 10% of the grid that still counts as decayed
DVX_DECAY_TOL = 1e-6


def _abs_power(s: np.ndarray, sigma: float) -> np.ndarray:
    """|s|^sigma; for integer sigma products of s*s (and |s|), faster than pow."""
    if not float(sigma).is_integer():
        return np.abs(s) ** sigma
    half, odd = divmod(int(sigma), 2)
    p = np.abs(s) if odd else None
    s2 = s * s if half else None
    for _ in range(half):
        p = s2 if p is None else p * s2
    return p


class NonlinearValues(NamedTuple):
    """A nonlinearity at the nodes: g, G, g(s) s and g'."""

    g: np.ndarray
    G: np.ndarray
    gs: np.ndarray
    dg: np.ndarray


@dataclass(frozen=True)
class NonlinearityModel:
    """g(s) = sum coef_i |s|^sigma_i s, or identically zero."""

    kind: str
    terms: tuple[tuple[float, float], ...]
    N: int

    def __post_init__(self):
        if self.kind not in ("power_sum", "zero"):
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if self.N not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2, or 3, got {self.N}")
        if self.kind == "zero":
            if self.terms:
                raise ValueError("zero nonlinearity cannot carry terms")
            return
        if not self.terms:
            raise ValueError("power_sum needs at least one term")
        for coef, sigma in self.terms:
            if not 0 < coef < math.inf:
                raise ValueError(f"coefficients must be positive and finite, got {coef}")
            if not 0 < sigma < math.inf:
                raise ValueError(f"exponents must be positive and finite, got {sigma}")
            if self.N >= 3 and sigma >= 4.0 / (self.N - 2):
                raise ValueError(
                    f"exponent {sigma} reaches the energy-critical rate "
                    f"{4.0 / (self.N - 2):g} in dimension {self.N}"
                )

    def evaluate(self, s) -> NonlinearValues:
        """g(s), G(s), g(s) s and g'(s), from one power per term.

        Per term, p = coef |s|^sigma gives g = p s, g s = p s^2,
        G = p s^2 / (sigma + 2) and g' = (sigma + 1) p. The methods g, G
        and g_times_s return these same arrays, bit for bit.
        """
        s = np.asarray(s, dtype=float)
        if not self.terms:   # one shared zero array, read-only, in all four fields
            zero = np.zeros_like(s)
            zero.flags.writeable = False
            return NonlinearValues(zero, zero, zero, zero)
        g = G = gs = dg = None
        for coef, sigma in self.terms:
            p = _abs_power(s, sigma)   # a fresh array, scaled in place
            if coef != 1.0:
                p *= coef
            ps = p * s
            pss = ps * s
            Gs = pss / (sigma + 2.0)
            g = ps if g is None else g + ps
            G = Gs if G is None else G + Gs
            gs = pss if gs is None else gs + pss
            p *= sigma + 1.0
            dg = p if dg is None else dg + p
        return NonlinearValues(g, G, gs, dg)

    def g(self, s):
        return self.evaluate(s).g

    def G(self, s):
        """Exact antiderivative of g with G(0) = 0."""
        return self.evaluate(s).G

    def g_times_s(self, s):
        return self.evaluate(s).gs

    def is_zero(self) -> bool:
        return self.kind == "zero" or not self.terms

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "terms": [{"coef": c, "sigma": s} for c, s in self.terms],
        }


# each kind and the most params it takes
_POTENTIAL_KINDS = {"zero": 0, "harmonic": 1, "gaussian_well": 2, "power_coercive": 2,
                    "tabulated": 0}


@dataclass(frozen=True)
class PotentialModel:
    """Radial potential with its analytic radial-derivative data.

    dV_dot_x(r) is the value of <grad V(x), x> at |x| = r, i.e. r V'(r).
    V_inf is the limit (or sup) at infinity, math.inf for coercive kinds.
    c_ell is the global minimum value.
    """

    kind: str
    params: tuple[float, ...]
    table_r: tuple[float, ...] = ()
    table_v: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in _POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if len(self.params) > _POTENTIAL_KINDS[self.kind]:
            raise ValueError(f"too many params for {self.kind}: got {len(self.params)}, "
                             f"it takes at most {_POTENTIAL_KINDS[self.kind]}")
        if self.kind == "harmonic":
            k = self.params[0] if self.params else 1.0
            if not k > 0:
                raise ValueError("harmonic strength must be positive")
            object.__setattr__(self, "params", (float(k),))
        elif self.kind == "gaussian_well":
            if not self.params:
                raise ValueError("gaussian_well needs a depth parameter")
            depth = float(self.params[0])
            width = float(self.params[1]) if len(self.params) > 1 else 1.0
            if not depth > 0 or not width > 0:
                raise ValueError("gaussian_well depth and width must be positive")
            object.__setattr__(self, "params", (depth, width))
        elif self.kind == "power_coercive":
            if len(self.params) < 2:
                raise ValueError("power_coercive needs (strength, exponent)")
            c, k = float(self.params[0]), float(self.params[1])
            if not c > 0 or not k >= 1:
                raise ValueError("need strength > 0 and exponent >= 1")
            object.__setattr__(self, "params", (c, k))
        elif self.kind == "tabulated":
            if len(self.table_r) < 8:
                raise ValueError(
                    f"tabulated potential needs at least 8 samples, got {len(self.table_r)}"
                )
            if len(self.table_v) != len(self.table_r):
                raise ValueError(
                    f"tabulated potential has {len(self.table_r)} radii but "
                    f"{len(self.table_v)} values"
                )
            rr = np.asarray(self.table_r)
            if rr[0] != 0.0:
                raise ValueError("tabulated radii must start at 0")
            if not (np.all(np.isfinite(rr)) and np.all(np.isfinite(self.table_v))):
                raise ValueError("tabulated radii and values must be finite")
            if np.any(np.diff(rr) <= 0):
                raise ValueError("tabulated radii must be strictly increasing")
            object.__setattr__(self, "params", ())
        else:
            object.__setattr__(self, "params", ())
        if not np.all(np.isfinite(self.params)):
            raise ValueError("potential parameters must be finite")

    # --- evaluation ---

    def V(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(r)
        if self.kind == "harmonic":
            return self.params[0] * r * r
        if self.kind == "gaussian_well":
            d, w = self.params
            return -d * np.exp(-((r / w) ** 2))
        if self.kind == "power_coercive":
            c, k = self.params
            return c * r**k
        return np.interp(r, self.table_r, self.table_v)

    def V_on(self, grid: RadialGrid) -> np.ndarray:
        """V at the grid's nodes; NumericalError unless every value is finite."""
        # an overflow is reported below, as the one error it causes
        with np.errstate(over="ignore"):
            vals = self.V(grid.r)
        if not np.all(np.isfinite(vals)):
            raise NumericalError("potential must be finite on the grid")
        return vals

    def dV_dot_x(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(r)
        if self.kind == "harmonic":
            return 2.0 * self.params[0] * r * r
        if self.kind == "gaussian_well":
            d, w = self.params
            return (2.0 * d / w**2) * r * r * np.exp(-((r / w) ** 2))
        if self.kind == "power_coercive":
            c, k = self.params
            return c * k * r**k
        # one-sided differences: the slope of the table segment containing r
        rr = np.asarray(self.table_r)
        vv = np.asarray(self.table_v)
        slopes = np.diff(vv) / np.diff(rr)
        idx = np.clip(np.searchsorted(rr, r, side="right") - 1, 0, len(slopes) - 1)
        return r * slopes[idx]

    # --- summary data ---

    @property
    def coercive(self) -> bool:
        return self.kind in ("harmonic", "power_coercive")

    @property
    def V_inf(self) -> float:
        if self.coercive:
            return math.inf
        if self.kind in ("zero", "gaussian_well"):
            return 0.0
        tail = self._tail_window()
        return float(np.mean(tail))

    @property
    def c_ell(self) -> float:
        if self.kind in ("zero", "harmonic", "power_coercive"):
            return 0.0
        if self.kind == "gaussian_well":
            return -self.params[0]
        return float(np.min(self.table_v))

    def _tail_window(self):
        k = max(1, len(self.table_v) // 10)
        return np.asarray(self.table_v[-k:])

    def tail_settled(self) -> bool:
        """Whether the declared limit at infinity is trustworthy."""
        if self.kind != "tabulated":
            return True
        tail = self._tail_window()
        spread = float(np.max(tail) - np.min(tail))
        return spread <= TAIL_TOL * max(1.0, abs(self.V_inf))

    def is_zero(self) -> bool:
        return self.kind == "zero"

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "params": list(self.params)}
        if self.kind == "tabulated":
            out["table"] = {"r": list(self.table_r), "V": list(self.table_v)}
        return out

    @classmethod
    def zero(cls) -> "PotentialModel":
        return cls(kind="zero", params=())


@dataclass(frozen=True)
class Model:
    """Dimension, nonlinearity, and potential bundled with a content hash."""

    N: int
    nonlinearity: NonlinearityModel
    potential: PotentialModel

    def __post_init__(self):
        if self.N != self.nonlinearity.N:
            raise ValueError("nonlinearity dimension disagrees with model dimension")

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "nonlinearity": self.nonlinearity.to_dict(),
            "potential": self.potential.to_dict(),
        }

    def fingerprint(self) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def with_zero_potential(self) -> "Model":
        """Same nonlinearity with V forced to zero (reference energy curve)."""
        return Model(N=self.N, nonlinearity=self.nonlinearity,
                     potential=PotentialModel.zero())


def _section(name: str, section, keys: tuple[str, ...]) -> dict:
    """section, if it is a JSON object with no key outside keys."""
    if not isinstance(section, dict):
        raise ModelFormatError(f"{name} must be a JSON object")
    unknown = [key for key in section if key not in keys]
    if unknown:
        raise ModelFormatError(f"{name} has unknown key {unknown[0]!r}")
    return section


def _list(name: str, values) -> list:
    if not isinstance(values, list):
        raise ModelFormatError(f"{name} must be a JSON list, got {values!r}")
    return values


def _number(name: str, x) -> float:
    """x as a float, if it is a number: a string or a bool is not, an np.float64 is."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ModelFormatError(f"{name} must be a number, got {x!r}")
    return float(x)


def make_model(N: int, nonlinearity: dict, potential: dict, base_dir=None) -> Model:
    if isinstance(N, bool) or N not in (1, 2, 3):   # 1.5 or true is no dimension
        raise ModelFormatError(f"N must be the integer 1, 2 or 3, got {N!r}")
    N = int(N)
    _section("nonlinearity", nonlinearity, ("kind", "terms"))
    kind = _section("potential", potential, ("kind", "params", "table"))["kind"]
    if "table" in potential and kind != "tabulated":
        raise ModelFormatError("potential has unknown key 'table': only tabulated takes one")
    terms = [_section("nonlinearity term", t, ("coef", "sigma"))
             for t in _list("nonlinearity terms", nonlinearity.get("terms", []))]
    nl = NonlinearityModel(kind=nonlinearity["kind"], N=N, terms=tuple(
        (_number("coef", t["coef"]), _number("sigma", t["sigma"])) for t in terms))
    params = tuple(_number("potential param", x)
                   for x in _list("potential params", potential.get("params", [])))
    if kind == "tabulated":
        table = potential.get("table")
        if isinstance(table, dict):
            _section("potential table", table, ("r", "V"))
            tr, tv = ([_number(f"table {key}", x) for x in _list(f"table {key}", table[key])]
                      for key in ("r", "V"))
        elif table is not None:   # a CSV file, relative to the model file
            path = Path(base_dir or "", table)
            try:
                tr, tv = read_csv(path, {"r": float, "V": float})
            except OSError as exc:
                raise ModelFormatError(f"cannot read potential table {path}: {exc}") from exc
            except ValueError as exc:
                raise ModelFormatError(f"potential table {exc}") from exc
        else:
            raise ModelFormatError("tabulated potential needs a 'table' entry")
        pot = PotentialModel(kind=kind, params=params, table_r=tuple(map(float, tr)),
                             table_v=tuple(map(float, tv)))
    else:
        pot = PotentialModel(kind=kind, params=params)
    return Model(N=N, nonlinearity=nl, potential=pot)


def load_model(path) -> Model:
    """Parse a model file; malformed JSON reports line and column."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"malformed model JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from exc
    try:
        _section("top level", data, ("N", "nonlinearity", "potential"))
        return make_model(
            N=data["N"],
            nonlinearity=data["nonlinearity"],
            potential=data["potential"],
            base_dir=path.parent,
        )
    except KeyError as exc:
        raise ModelFormatError(f"model file missing required key {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"invalid model data: {exc}") from exc


# --- hypothesis classifiers ---


class GClassification(NamedTuple):
    """Growth-hypothesis flags for a nonlinearity in dimension N.

    Fields are named after the paper's hypotheses; they are validate's keys.
    G1: valid construction (odd, continuous, vanishing at 0)
    G2: superlinear at the origin (g(s)/s -> 0), true for positive exponents
    G3: strictly mass-subcritical growth at infinity (every sigma < 4/N)
    G4: sign condition (nonempty sum, all coefficients positive)
    G5: Ambrosetti-Rabinowitz-type lower bound g(s)s >= alpha G(s) with the
        reported alpha = 2 + min sigma (the largest exponent that works for
        the whole sum)
    small_s_regime: behavior of g(s)/s^(1+4/N) as s -> 0; "superfast" when
        the ratio blows up (min sigma < 4/N), "finite_limsup" otherwise
    """

    G1: bool
    G2: bool
    G3: bool
    G4: bool
    G5: bool
    alpha: float | None
    small_s_regime: str


def classify_g(model: NonlinearityModel) -> GClassification:
    if model.is_zero():
        return GClassification(
            G1=True, G2=True, G3=True, G4=False, G5=False,
            alpha=None, small_s_regime="indeterminate",
        )
    sigmas = [s for _, s in model.terms]
    crit = 4.0 / model.N
    sigma_min = min(sigmas)
    g3 = max(sigmas) < crit
    regime = "superfast" if sigma_min < crit else "finite_limsup"
    return GClassification(
        G1=True,
        G2=True,
        G3=g3,
        G4=all(c > 0 for c, _ in model.terms),
        G5=True,
        alpha=2.0 + sigma_min,
        small_s_regime=regime,
    )


class VClassification(NamedTuple):
    """Potential-hypothesis flags, sampled on a grid.

    Fields are named after the paper's hypotheses; they are validate's keys.
    V1: the value at infinity is well defined (settled tail for tables) and
        bounds the sampled potential from above
    V2: the minimum is attained at the origin and matches c_ell
    decay_of_dVx: <grad V, x> is negligible on the outer 10% of the grid
    """

    V1: bool
    V2: bool
    decay_of_dVx: bool
    coercive: bool


def classify_V(model: PotentialModel, grid: RadialGrid) -> VClassification:
    vals = model.V_on(grid)
    v_inf = model.V_inf
    c_ell = model.c_ell
    scale = max(1.0, abs(c_ell))
    upper_ok = True if math.isinf(v_inf) else bool(
        np.all(vals <= v_inf + TAIL_TOL * max(1.0, abs(v_inf)))
    )
    v1 = model.tail_settled() and upper_ok
    v0 = float(model.V(0.0))
    v2 = bool(np.all(vals >= c_ell - 1e-12 * scale)) and abs(v0 - c_ell) <= 1e-9 * scale
    outer = grid.r >= 0.9 * grid.R
    with np.errstate(over="ignore"):   # an infinite |r V'| has not decayed
        decay = bool(np.max(np.abs(model.dV_dot_x(grid.r[outer]))) < DVX_DECAY_TOL)
    return VClassification(
        V1=v1, V2=v2, decay_of_dVx=decay, coercive=model.coercive
    )
