"""Compute the sharp interpolation constants backing grids.GN_DEFAULT.

The bound |u|_q^q <= C(N) |grad u|_2^2 |u|_2^(4/N) with q = 2 + 4/N is
saturated by the positive radial solution of -Lap Q + Q = Q^(q-1), so the
sharp constant is the ratio evaluated at the oracle profile. In 1d it has
the closed form 4/pi^2, which makes a direct accuracy check possible.

The constants bundled in grids.GN_DEFAULT are these ratios rounded UP in the
fourth decimal, so gn_check stays a valid (slightly slack) upper bound. The
script recomputes the ratios and confirms the rounding. It also prints the
mass a* = (q / (2 C))^(N/2) where the kinetic coefficient in the small-mass
energy bound changes sign; at the critical exponent this is exactly the
soliton mass, which is what the threshold bisection measures.
"""

import math

import numpy as np

from ngs.grids import (GN_DEFAULT, GridFunction, RadialGrid, gn_check,
                       integrate, kinetic, mass)
from ngs.oracle import shoot_Up


def sharp_ratio(N: int, grid: RadialGrid) -> tuple:
    q = 2.0 + 4.0 / N
    sol = shoot_Up(1.0 + 4.0 / N, N, grid)
    Q = sol.profile
    lhs = integrate(grid, np.abs(Q.values) ** q)
    ratio = lhs / (kinetic(Q) * mass(Q) ** (2.0 / N))
    return ratio, mass(Q)


def main() -> None:
    print(f"{'N':>2} {'q':>6} {'sharp C':>12} {'bundled':>9} "
          f"{'a* from C':>12} {'soliton mass':>13}")
    for N in (1, 2, 3):
        grid = RadialGrid(N=N, R=24.0, n=2400)
        q = 2.0 + 4.0 / N
        ratio, soliton_mass = sharp_ratio(N, grid)
        bundled = GN_DEFAULT[N]
        a_star = (q / (2.0 * bundled)) ** (N / 2.0)
        print(f"{N:>2} {q:>6.3f} {ratio:>12.8f} {bundled:>9.4f} "
              f"{a_star:>12.4f} {soliton_mass:>13.4f}")
        assert ratio <= bundled <= ratio + 1e-4, "rounding drifted"

    print(f"\n1d closed form 4/pi^2 = {4.0 / math.pi**2:.8f}")

    # the bundled constants must dominate generic fields, not just solitons
    rng = np.random.default_rng(7)
    grid = RadialGrid(N=1, R=24.0, n=2400)
    worst = 0.0
    for _ in range(200):
        vals = np.exp(-((grid.r - rng.uniform(0, 3)) / rng.uniform(0.5, 2)) ** 2)
        u = GridFunction(grid, vals * rng.uniform(0.2, 3.0))
        worst = max(worst, gn_check(u).ratio)
    print(f"max ratio over 200 random gaussians: {worst:.6f} (must stay < 1)")


if __name__ == "__main__":
    main()
