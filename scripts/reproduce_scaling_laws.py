"""Fit the power-case scaling laws against the reference oracle.

For g = |u|^(p-1) u without a potential, dilating the lam = 1 profile gives the
whole solution branch, and the constraint mass follows a clean power law

    mass(lam) = lam^gamma * mass(1),    gamma = (4 - (p-1) N) / (2 (p-1)).

The script builds the base profile for a few (N, p) pairs, rescales it across
a dyadic ladder of multipliers, and fits the log-log slope. For the
mass-subcritical cases it also measures the exponent of the potential-free
energy curve, E(a) ~ a^((2(p+1) - N(p-1)) / (4 - (p-1)N)), from two masses
(oracle.energy_scaling_check). At the mass critical exponent p = 1 + 4/N the
branch mass is constant and the fitted slope should collapse to zero.
"""

import numpy as np

from ngs.grids import RadialGrid
from ngs.oracle import energy_scaling_check, scale_solution, scaling_exponent, shoot_Up

LAMBDAS = (1.0, 2.0, 4.0, 8.0)
CASES = ((1, 3.0), (1, 2.0), (3, 3.0))
# the two masses of the energy-exponent measurement
ENERGY_MASSES = (2.0, 6.0)


def fitted_slope(base, grid: RadialGrid) -> float:
    masses = [scale_solution(base, lam, grid=grid).mass for lam in LAMBDAS]
    return float(np.polyfit(np.log(LAMBDAS), np.log(masses), 1)[0])


def main() -> None:
    print(f"{'N':>2} {'p':>5} {'mass slope':>12} {'predicted':>12} {'abs err':>10}"
          f" {'energy exp':>12} {'predicted':>12} {'abs err':>10}")
    for N, p in CASES:
        grid = RadialGrid(N=N, R=20.0, n=2000)
        base = shoot_Up(p, N, grid)
        slope = fitted_slope(base, grid)
        want = scaling_exponent(p, N)
        line = (f"{N:>2} {p:>5.2f} {slope:>+12.6f} {want:>+12.6f} "
                f"{abs(slope - want):>10.2e}")
        if p - 1.0 < 4.0 / N:
            measured, expected = energy_scaling_check(p, N, *ENERGY_MASSES, base=base)
            line += f" {measured:>+12.6f} {expected:>+12.6f} {abs(measured - expected):>10.2e}"
        else:
            line += f" {'(supercritical)':>36}"
        print(line)

    # critical case: mass is a dilation invariant, so the ladder is flat
    grid = RadialGrid(N=1, R=30.0, n=3000)
    slope = fitted_slope(shoot_Up(5.0, 1, grid), grid)
    print(f"\ncritical p = 5, N = 1: fitted slope {slope:+.2e} (exact 0)")


if __name__ == "__main__":
    main()
