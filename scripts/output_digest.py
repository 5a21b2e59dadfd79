"""Hash the solver's outputs on fixed cases, in a parent revision and in this checkout.

    python3 scripts/output_digest.py --parent <rev> [--tolerances]

The parent is unpacked with `git archive <rev>` into a temporary directory,
as bench_pairs.py does; the change is this checkout's working tree as it
stands. Each tree runs the same fixed cases in a child interpreter that
imports ngs from that tree's src/ and reads that tree's models/:

* minimize on the five models of perfbench's ground_state workload at their
  centre masses (R = 20, n = 2000);
* on each of those five winners: energy.evaluate, identity_residuals,
  pohozaev_residual and lagrange_multiplier, euler_lagrange_residual and
  nehari_residual at the winner's lambda, and the shared Discretization's
  d and e;
* off a minimizer, on the Gaussian start of width 2 and mass 3 on R = 20,
  n = 2000, for gaussian_well_mixed (N = 1) and power2_free_3d (N = 3,
  V = 0): energy.evaluate, identity_residuals at lambda = None and at 0.5,
  euler_lagrange_residual and nehari_residual at 0.5, and energy.evaluate
  of the zero field;
* the shared Discretization's energy(v) on the width-1 Gaussian start of
  mass 3 (R = 20, n = 2000) of every bundled model: its EnergyReport, all
  four NonlinearValues arrays (g, G, g s, g') and w^T (V v^2), which covers
  the non-integer exponent of gaussian_well_mixed, the quintic's subnormal
  tail and the zero nonlinearity of harmonic;
* quintic_free probes at a = 2.685, 2.71 and 2.735 with the threshold
  probe's config (stop_energy_below = -15 DEADBAND);
* minimize on power2_free_3d at a = 20 and at a = 3 (N = 3), and on
  tabulated_well at a = 3; at a = 3 a start that stops at flow.SEARCH_TOL
  fails the one-sign test there and goes on to tol_grad, where it converges;
* minimize on power3_free at a = 4 on n = 2001 (R = 20): odd n, so its
  starts run on n with no finish;
* minimize on power3_free at a = 4 on n = 1000 (R = 20): the quarter
  grid's spacing 0.08 is above flow.SEARCH_SPACING, so its starts run on
  n/2;
* a 12-mass scan of gaussian_well_cubic from 0.5 to 6;
* threshold_a0 on quintic_free over (2.685, 2.735) and over the default
  bracket, and on gaussian_well_cubic over the default bracket;
* quadratic_form_infimum on the four ground_state models with a potential,
  and on the depth-3, width-1 Gaussian well with g = 0 in N = 2 and N = 3;
* oracle.shoot_Up for (p, N) = (3, 2) and (7/3, 3) (R = 20, n = 400), its
  record without profile_fn, which is a function;
* the two read paths: grids.load_profile of the solve_cubic_free
  scenario's profile.csv, and load_model of tabulated_well (its
  fingerprint, its table, and its Discretization's V on R = 20, n = 2000).

A case's fields are the leaves of what its call returns, each named by
its path (for example evaluations[2].C_a or u.values): an array is one
field, and so is every float, int, bool, string and None. A record, a
dataclass or a NamedTuple, names its fields as a dict does, so its digest
does not depend on which of the two declares it; a field or dict key in
RENAMED_FIELDS, and a whole path in RENAMED_PATHS, is named by its new name
in both trees, so a rename alone makes no case differ. A case's digest is
one SHA-256 over every field's path and value: a float as float.hex, an
array's dtype, shape and bytes.
The script prints each case's digest for both trees, exits 0 when all
agree and 1, naming each case that differs, when any does.

With --tolerances it also prints, for each case, every field that moved:
its worst absolute and worst relative change from parent to change; an
array's worst entry counts. A relative change is
|change - parent| / |parent|, inf where the parent reads 0 and the change
does not. Fields that are not numbers (strings, flags, None) and fields
present on one side only print as differing, without a size. A case whose
fields all agree prints one line.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GROUND_STATE = (("power3_free", 4.0), ("gaussian_well_cubic", 3.0),
                ("gaussian_well_mixed", 3.0), ("harmonic_cubic", 2.0),
                ("gaussian_well_deep", 2.0))
# record fields and dict keys renamed since earlier revisions: old name -> new
# name. The curve points' energy and the threshold probes' J are flow.State's
# C_a; GroundStateResult.energy (a field before C_a) and EnergyReport.J read C_a too
RENAMED_FIELDS = {"energy_half_grid": "C_a_search_grid",
                  "energy_search_grid": "C_a_search_grid", "energy": "C_a", "J": "C_a"}
# leaf paths renamed since earlier revisions: GroundStateResult's residuals
# record became its nehari and pohozaev fields (its lagrange_lambda is lam)
RENAMED_PATHS = {"residuals.nehari": "nehari", "residuals.pohozaev": "pohozaev"}


def _unpack(rev: str, dest: Path) -> None:
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                       stdout=archive)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(dest, filter="data")


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _leaves(obj, path: str, out: dict) -> None:
    """Add each leaf of obj to out under its path, recursing into containers and records.

    An array is one leaf; a float, int, bool, string or None is one leaf, a
    NumPy scalar as the Python one. A record, a dataclass or a NamedTuple,
    names its leaves by field, as a dict does by key.
    """
    import numpy as np

    if isinstance(obj, np.ndarray):
        out[path] = obj
    elif isinstance(obj, (np.floating, np.integer, np.bool_)):
        out[path] = obj.item()
    elif obj is None or isinstance(obj, (bool, int, float, str)):
        out[path] = obj
    elif isinstance(obj, dict):
        for key in sorted(obj):
            _leaves(obj[key], _join(path, RENAMED_FIELDS.get(key, key)), out)
    elif dataclasses.is_dataclass(obj) or hasattr(obj, "_fields"):
        # before the plain tuples, which a NamedTuple also is
        names = (obj._fields if hasattr(obj, "_fields")
                 else [f.name for f in dataclasses.fields(obj)])
        for name in names:
            _leaves(getattr(obj, name), _join(path, RENAMED_FIELDS.get(name, name)), out)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _leaves(item, f"{path}[{i}]", out)
    elif hasattr(obj, "grid") and hasattr(obj, "values"):   # a GridFunction
        _leaves(obj.grid, _join(path, "grid"), out)
        _leaves(obj.values, _join(path, "values"), out)
    else:
        raise TypeError(f"cannot walk a {type(obj).__name__}")


def _digest(leaves: dict) -> str:
    """SHA-256 over each leaf's path and value: float.hex, an array's dtype,
    shape and bytes, and the type and repr of anything else."""
    import numpy as np

    h = hashlib.sha256()
    for path, leaf in leaves.items():
        h.update(f"{path}=".encode())
        if isinstance(leaf, np.ndarray):
            h.update(f"array {leaf.dtype.str} {leaf.shape}:".encode())
            h.update(np.ascontiguousarray(leaf).tobytes())
        elif isinstance(leaf, float):
            h.update(b"f" + leaf.hex().encode())
        else:
            h.update(f"{type(leaf).__name__} {leaf!r};".encode())
    return h.hexdigest()


def _change(parent, change) -> tuple[float, float] | None:
    """(worst absolute, worst relative) change between two numeric leaves.

    None when either leaf is not a number or a list of numbers of the
    other's length; NaN against NaN is no change, against a number inf.
    """
    def numbers(leaf):
        items = leaf if isinstance(leaf, list) else [leaf]
        if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in items):
            return items
        return None

    p, c = numbers(parent), numbers(change)
    if p is None or c is None or len(p) != len(c) or (
            isinstance(parent, list) != isinstance(change, list)):
        return None
    worst_abs = worst_rel = 0.0
    for x, y in zip(p, c):
        if x == y or (x != x and y != y):
            continue
        diff = abs(y - x)
        if diff != diff:
            diff = math.inf
        worst_abs = max(worst_abs, diff)
        worst_rel = max(worst_rel, diff / abs(x) if x not in (0, math.inf, -math.inf)
                        else math.inf)
    return worst_abs, worst_rel


def _print_tolerances(parent: dict, change: dict) -> None:
    """Each case's moved fields with their worst changes, or one line if none moved."""
    for case, fields in parent.items():
        other = change.get(case, {})
        moved = []
        for path in [*fields, *(p for p in other if p not in fields)]:
            if path not in fields or path not in other:
                moved.append(f"  {path}: {'change' if path in fields else 'parent'} lacks it")
            elif fields[path] != other[path]:
                sizes = _change(fields[path], other[path])
                moved.append(f"  {path}: differs" if sizes is None else
                             f"  {path}: abs {sizes[0]:.3g} rel {sizes[1]:.3g}")
        if moved:
            print(f"{case}: {len(moved)} of {len(fields)} fields moved")
            print("\n".join(moved))
        else:
            print(f"{case}: all {len(fields)} fields identical")


def _cases(models_dir: Path) -> dict:
    """Name -> zero-argument call, for the ngs package importable here."""
    import numpy as np

    from ngs import curves, energy, flow, grids, oracle
    from ngs.grids import RadialGrid
    from ngs.models import load_model, make_model

    def model(name):
        return load_model(models_dir / f"{name}.json")

    def identities(name, a):
        m = model(name)
        res = flow.minimize(a, m, grid)
        u, lam = res.u, res.lam
        op = energy.discretization(grid, m)
        return {"evaluate": energy.evaluate(u, m),
                "identity_residuals": energy.identity_residuals(u, m),
                "pohozaev_residual": energy.pohozaev_residual(u, m),
                "lagrange_multiplier": energy.lagrange_multiplier(u, m),
                "euler_lagrange_residual": energy.euler_lagrange_residual(u, m, lam),
                "nehari_residual": energy.nehari_residual(u, m, lam),
                "d": op.d, "e": op.e}

    def off_minimizer():
        out = {}
        for name in ("gaussian_well_mixed", "power2_free_3d"):
            m = model(name)
            u = flow.gaussian_start(RadialGrid(m.N, 20.0, 2000), 2.0, 3.0)
            out[name] = {"evaluate": energy.evaluate(u, m),
                         "identity_residuals": energy.identity_residuals(u, m),
                         "identity_residuals 0.5": energy.identity_residuals(u, m, 0.5),
                         "euler_lagrange_residual": energy.euler_lagrange_residual(u, m, 0.5),
                         "nehari_residual": energy.nehari_residual(u, m, 0.5),
                         "evaluate zero": energy.evaluate(u.with_values(0.0 * u.values), m)}
        return out

    def energy_on_starts():
        out = {}
        for path in sorted(models_dir.glob("*.json")):
            m = load_model(path)
            g = RadialGrid(m.N, 20.0, 2000)
            v = flow.gaussian_start(g, 1.0, 3.0).values
            out[path.stem] = energy.discretization(g, m).energy(v)
        return out

    grid = RadialGrid(1, 20.0, 2000)
    probe = flow.SolverConfig(stop_energy_below=-15.0 * flow.DEADBAND)
    cases = {}
    for name, a in GROUND_STATE:
        cases[f"minimize {name} a={a:g}"] = (
            lambda name=name, a=a: flow.minimize(a, model(name), grid))
    for name, a in GROUND_STATE:
        cases[f"identities {name} a={a:g}"] = lambda name=name, a=a: identities(name, a)
    cases["identities off a minimizer"] = off_minimizer
    cases["Discretization.energy on every model's width-1 start"] = energy_on_starts
    for a in (2.685, 2.71, 2.735):
        cases[f"minimize quintic_free a={a:g} probe"] = (
            lambda a=a: flow.minimize(a, model("quintic_free"), grid, probe))
    for a in (20.0, 3.0):
        cases[f"minimize power2_free_3d a={a:g}"] = lambda a=a: flow.minimize(
            a, model("power2_free_3d"), RadialGrid(3, 20.0, 2000))
    cases["minimize power3_free a=4 n=2001"] = lambda: flow.minimize(
        4.0, model("power3_free"), RadialGrid(1, 20.0, 2001))
    cases["minimize power3_free a=4 n=1000"] = lambda: flow.minimize(
        4.0, model("power3_free"), RadialGrid(1, 20.0, 1000))
    tabulated = model("tabulated_well")
    cases["minimize tabulated_well a=3"] = lambda: flow.minimize(
        3.0, tabulated, RadialGrid(tabulated.N, 20.0, 2000))
    cases["scan gaussian_well_cubic 0.5..6 x12"] = lambda: curves.scan(
        np.linspace(0.5, 6.0, 12), model("gaussian_well_cubic"), grid)
    cases["threshold_a0 quintic_free (2.685, 2.735)"] = lambda: curves.threshold_a0(
        model("quintic_free"), grid, bracket=(2.685, 2.735))
    cases["threshold_a0 quintic_free default bracket"] = lambda: curves.threshold_a0(
        model("quintic_free"), grid)
    cases["threshold_a0 gaussian_well_cubic default bracket"] = (
        lambda: curves.threshold_a0(model("gaussian_well_cubic"), grid))
    for name, _ in GROUND_STATE[1:]:
        cases[f"quadratic_form_infimum {name}"] = (
            lambda name=name: curves.quadratic_form_infimum(model(name), grid))
    for N in (2, 3):
        well = make_model(N, {"kind": "zero", "terms": []},
                          {"kind": "gaussian_well", "params": [3.0, 1.0]})
        cases[f"quadratic_form_infimum N={N} well"] = (
            lambda well=well, N=N: curves.quadratic_form_infimum(well, RadialGrid(N, 20.0, 2000)))
    for p, N in ((3.0, 2), (7.0 / 3.0, 3)):
        cases[f"shoot_Up p={p:.4g} N={N}"] = lambda p=p, N=N: oracle.shoot_Up(
            p, N, RadialGrid(N, 20.0, 400))._replace(profile_fn=None)
    cases["load_profile solve_cubic_free"] = lambda: grids.load_profile(
        models_dir.parent / "scenarios" / "solve_cubic_free" / "profile.csv")

    def read_tabulated():
        m = model("tabulated_well")
        return {"fingerprint": m.fingerprint(), "table": (m.potential.table_r, m.potential.table_v),
                "V": energy.discretization(RadialGrid(m.N, 20.0, 2000), m).V}

    cases["load_model tabulated_well"] = read_tabulated
    return cases


def digests(models_dir: Path, leaves: bool = False) -> dict:
    """{"digests": case -> SHA-256 hex digest of what the case returns,
    "leaves": case -> its leaves by path, arrays as lists, if leaves is set}."""
    out = {"digests": {}, "leaves": {}}
    for name, call in _cases(models_dir).items():
        found = {}
        _leaves(call(), "", found)
        found = {RENAMED_PATHS.get(path, path): leaf for path, leaf in found.items()}
        out["digests"][name] = _digest(found)
        if leaves:
            out["leaves"][name] = {path: getattr(leaf, "tolist", lambda: leaf)()
                                   for path, leaf in found.items()}
    return out


def _digests_in(tree: Path, leaves: bool) -> dict:
    """digests() run by a child interpreter that imports ngs from tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, __file__, "--child", str(tree / "models")]
    proc = subprocess.run(argv + ["--tolerances"] * leaves,
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"output_digest: the cases failed in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--parent", help="the revision to compare this checkout with")
    group.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--tolerances", action="store_true",
                        help="also print each moved field's worst absolute and "
                             "relative change")
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(digests(args.child, args.tolerances)))
        return 0

    with tempfile.TemporaryDirectory(prefix="output_digest-") as tmp:
        _unpack(args.parent, Path(tmp))
        parent_out = _digests_in(Path(tmp), args.tolerances)
    change_out = _digests_in(ROOT, args.tolerances)
    if args.tolerances:
        _print_tolerances(parent_out["leaves"], change_out["leaves"])
    parent, change = parent_out["digests"], change_out["digests"]
    differ = [name for name in parent if parent[name] != change.get(name)]
    for name in parent:
        verdict = "differs" if name in differ else "same"
        print(f"{name}: parent {parent[name][:16]} change {change.get(name, '-')[:16]} {verdict}")
    if differ:
        print(f"{len(differ)} of {len(parent)} cases differ: {', '.join(differ)}",
              file=sys.stderr)
        return 1
    print(f"all {len(parent)} cases identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
