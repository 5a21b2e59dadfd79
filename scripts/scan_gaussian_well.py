"""Scan the energy curve of the bundled gaussian well model and audit its shape.

Runs the constrained minimizer over a mass ladder, prints the curve next to
the potential-free curve at the same masses, and summarizes the structural
checks that matter for attainment: monotonicity, strict sub-additivity, and
the pointwise gap to the free curve. Writes the same CSV artifacts as the
command line scan so the output can be fed to gnuplot.
"""

import argparse
from pathlib import Path

import numpy as np

from ngs.curves import scan, subadditivity_check, write_curve_csv, write_subadditivity_csv
from ngs.flow import SolverConfig
from ngs.grids import RadialGrid
from ngs.models import load_model

ROOT = Path(__file__).resolve().parent.parent
MODEL = ROOT / "models" / "gaussian_well_cubic.json"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--a-min", type=float, default=0.5)
    ap.add_argument("--a-max", type=float, default=6.0)
    ap.add_argument("--steps", type=int, default=12)
    ap.add_argument("--grid-n", type=int, default=800)
    ap.add_argument("--out", type=Path, default=None,
                    help="directory for curve.csv and subadditivity.csv")
    args = ap.parse_args()

    model = load_model(MODEL)
    grid = RadialGrid(N=model.N, R=20.0, n=args.grid_n)
    config = SolverConfig()
    masses = np.linspace(args.a_min, args.a_max, args.steps)

    trapped = scan(masses, model, grid, config)
    free = scan(masses, model.with_zero_potential(), grid, config)

    print(f"{'a':>6} {'C_a':>14} {'E_a (V=0)':>14} {'gap':>12} {'lambda':>12}")
    for pc, pe in zip(trapped.points, free.points):
        print(f"{pc.a:>6.3f} {pc.C_a:>14.8f} {pe.C_a:>14.8f} "
              f"{pc.C_a - pe.C_a:>12.4e} {pc.lam:>12.6f}")

    diffs = np.diff([pt.C_a for pt in trapped.points])
    report = subadditivity_check(trapped)
    print(f"\nnonincreasing: {bool(np.all(diffs <= 1e-8))} "
          f"(max forward difference {diffs.max():+.2e})")
    if report.rows:
        print(f"subadditivity: {len(report.rows)} pairs, "
              f"max gap {max(r.gap for r in report.rows):+.4e}, "
              f"strict at {report.strict_count}")
    else:
        print("subadditivity: no compatible pairs on this mass ladder")
    below = sum(pc.C_a < pe.C_a for pc, pe in
                zip(trapped.points, free.points))
    print(f"trapping: C_a < E_a at {below}/{len(trapped.points)} masses")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        write_curve_csv(trapped, args.out / "curve.csv")
        write_subadditivity_csv(report, args.out / "subadditivity.csv")
        print(f"\nwrote {args.out}/curve.csv and {args.out}/subadditivity.csv")


if __name__ == "__main__":
    main()
