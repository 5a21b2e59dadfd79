"""Locate the mass threshold a0 where the energy curve turns negative.

Three regimes, one per bundled model family:

  * quintic_free: single power at the mass-critical exponent, so small-mass
    energies stay nonnegative and a0 is a genuine positive threshold (the
    bisection lands near the critical soliton mass sqrt(3) pi / 2).
  * gaussian_well_cubic: the cubic term dominates at small amplitude faster
    than the quadratic scaling can pay for it, so the curve is negative at
    every probed mass and the bisection reports below_lower_bracket.
  * a deep gaussian well with a slow power: the potential alone makes the
    quadratic form negative, which forces the curve negative at all masses
    regardless of the nonlinearity.

Each run prints the classifier verdict next to the measured threshold so the
structural prediction and the bisection can be compared directly.
"""

import math
from pathlib import Path

from ngs.curves import quadratic_form_infimum, threshold_a0
from ngs.grids import RadialGrid
from ngs.models import classify_g, load_model, make_model

ROOT = Path(__file__).resolve().parent.parent
GRID_N = 2000

DEEP_WELL = {
    "N": 1,
    "nonlinearity": {"kind": "power_sum",
                     "terms": [{"coef": 1.0, "sigma": 4.0}]},
    "potential": {"kind": "gaussian_well", "params": [5.0, 1.0]},
}


def study(name: str, model, grid: RadialGrid) -> None:
    regime = classify_g(model.nonlinearity).small_s_regime
    q = quadratic_form_infimum(model, grid)
    found = threshold_a0(model, grid)
    print(f"{name}: small-s regime {regime}, form infimum {q:+.4f}")
    if found.below_lower_bracket:
        print(f"  a0 <= {found.a0:g} (negative already at the lower bracket, "
              f"{len(found.evaluations)} probe energies)")
    else:
        print(f"  a0 = {found.a0:.4f} +- {found.half_width:.4f} "
              f"({len(found.evaluations)} probe energies)")
    if found.note:
        print(f"  note: {found.note}")


def main() -> None:
    grid = RadialGrid(N=1, R=20.0, n=GRID_N)

    study("quintic_free", load_model(ROOT / "models" / "quintic_free.json"), grid)
    townes = math.sqrt(3.0) * math.pi / 2.0
    print(f"  critical soliton mass for comparison: {townes:.4f}\n")

    study("gaussian_well_cubic",
          load_model(ROOT / "models" / "gaussian_well_cubic.json"), grid)
    print()

    deep = make_model(N=DEEP_WELL["N"], nonlinearity=DEEP_WELL["nonlinearity"],
                      potential=DEEP_WELL["potential"])
    study("deep_well_slow_power", deep, grid)


if __name__ == "__main__":
    main()
