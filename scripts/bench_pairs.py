"""Run perfbench on a parent revision and on this checkout, in alternated pairs.

    python3 scripts/bench_pairs.py --parent <rev> --out BENCH_<n>.json \\
        [--claim threshold:wall_s:10]

<rev> is the commit the change is based on: HEAD while the change is
uncommitted, HEAD~1 once it is one commit on top. The parent is unpacked
with `git archive <rev>` into a temporary directory; the change is this
checkout's working tree as it stands. The script refuses to run when the
working tree's tracked files equal <rev>, since it would then compare a
tree with itself. For every workload of BENCHMARK.json and seeds 1..10 the
script runs the command that BENCHMARK.json declares, with
`--workload W --seed S --seconds T --trace 0` (T is its `run_seconds`, 15),
once from each tree: odd seeds parent first, even seeds change first, so a
drift in host load falls on both sides alike. It then runs one
`--trace 1` pass per tree and workload at seed 11 and keeps the per-layer
metrics.

The output file holds the host, both revisions and source digests, the
claim and whether it holds, per workload and side the median and quartiles
of every end-to-end metric, `fail_frac`, how many pairs the change won on
`wall_s`, and every run. Every end-to-end metric of BENCHMARK.json is
better when lower. The claim rule: the change wins at least 9 of the 10
pairs on the metric, the gap between the medians exceeds the parent's
interquartile range, and the parent's median is at least the claimed
factor times the change's.

perfbench itself is only run, never changed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_KEYS = ("nproc", "cpus_allowed", "python", "numpy", "scipy", "blas", "blas_threads")
RUN_COLUMNS = ("seed", "attempted", "failed")
PAIRS = 10
# pairs the change must win for a claimed gain
PAIRS_TO_WIN = 9
TRACE_SEED = 11


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _unpack(rev: str, dest: Path) -> None:
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                       stdout=archive)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(dest, filter="data")


def _run(command: list, tree: Path, workload: str, seed: int, seconds: float,
         trace: int) -> dict:
    """One perfbench run from tree: its environment line and its final JSON."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(argv)} in {tree} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[len("environment "):]) for line in lines
               if line.startswith("environment "))
    out = json.loads(lines[-1])
    out["environment"] = env
    return out


def _quartiles(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4),
            "q1": round(q1, 4), "q3": round(q3, 4)}


def _summary(runs: list, metrics: list) -> dict:
    out = {name: _quartiles([r["metrics"][name]["value"] for r in runs])
           for name in metrics}
    out["fail_frac"] = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
    out["runs"] = {
        "columns": [*RUN_COLUMNS, *metrics],
        "rows": [[r["seed"], r["attempted"], r["failed"],
                  *(round(r["metrics"][name]["value"], 4) for name in metrics)]
                 for r in runs],
    }
    return out


def _pairs_won(parent_runs: list, change_runs: list, metric: str) -> int:
    return sum(c["metrics"][metric]["value"] < p["metrics"][metric]["value"]
               for p, c in zip(parent_runs, change_runs))


def _claim(workload: str, metric: str, factor: float, entry: dict, won: int) -> dict:
    parent, change = entry["parent"][metric], entry["change"][metric]
    gap = parent["median"] - change["median"]
    iqr = parent["q3"] - parent["q1"]
    ratio = parent["median"] / change["median"]
    return {
        "workload": workload,
        "metric": metric,
        "target": f"at least {factor:g}x lower",
        "rule": f"change wins >= {PAIRS_TO_WIN} of {PAIRS} pairs and the median gap "
                "exceeds the parent's interquartile range",
        "pairs_won": won,
        "median_gap": round(gap, 4),
        "parent_iqr": round(iqr, 4),
        "factor": round(ratio, 2),
        "met": bool(won >= PAIRS_TO_WIN and gap > iqr and ratio >= factor),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="the commit the change is based on (HEAD~1 once committed)")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC:FACTOR",
                        help="the gain claimed, e.g. threshold:wall_s:10")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    claim = None
    if args.claim is not None:
        c_workload, c_metric, c_factor = args.claim.split(":")
        if c_workload not in workloads or c_metric not in metrics:
            parser.error(f"--claim names a workload or end-to-end metric not in "
                         f"BENCHMARK.json: {args.claim}")
    parent_rev = _git("rev-parse", "--verify", args.parent + "^{commit}")
    if not _git("diff", "--name-only", parent_rev):
        parser.error(f"the working tree equals {args.parent}; pass the commit the "
                     "change is based on (HEAD~1 once the change is committed)")
    head = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        _unpack(parent_rev, trees["parent"])
        env = {}
        report = {}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for seed in range(1, PAIRS + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    out = _run(command, trees[side], workload, seed, seconds, 0)
                    env[side] = out["environment"]
                    runs[side].append({"seed": seed, **out})
                    print(f"{workload} seed {seed} {side}: wall_s "
                          f"{out['metrics']['wall_s']['value']:.4g}, "
                          f"{out['failed']}/{out['attempted']} failed", file=sys.stderr)
            report[workload] = {
                "seeds": list(range(1, PAIRS + 1)),
                "pairs": PAIRS,
                "wall_s_pairs_won_by_change": _pairs_won(
                    runs["parent"], runs["change"], "wall_s"),
                "parent": _summary(runs["parent"], metrics),
                "change": _summary(runs["change"], metrics),
            }
            if args.claim is not None and workload == c_workload:
                claim = _claim(workload, c_metric, float(c_factor), report[workload],
                               _pairs_won(runs["parent"], runs["change"], c_metric))
            traced = {}
            for side in ("parent", "change"):
                out = _run(command, trees[side], workload, TRACE_SEED, seconds, 1)
                traced[side] = {
                    **{name: out["metrics"][name]["value"] for name in layers
                       if name in out["metrics"]},
                    "correct": out["correct"],
                }
                print(f"{workload} traced seed {TRACE_SEED} {side}: "
                      f"correct {out['correct']}", file=sys.stderr)
            report[workload][f"traced_seed{TRACE_SEED}_per_pass"] = traced

    result = {
        "what": "perfbench end-to-end metrics of the parent commit and of this change, "
                "run alternately on one host (odd seeds parent first), "
                f"--seconds {seconds:g}",
        "command": " ".join(command) + " --workload <name> --seed <seed> "
                   f"--seconds {seconds:g} --trace <0|1>",
        "host": {k: env["change"][k] for k in HOST_KEYS},
        "parent": {"git_revision": parent_rev,
                   "source_sha256": env["parent"]["source_sha256"]},
        "change": {"git_revision": head + (" plus uncommitted changes" if dirty else ""),
                   "source_sha256": env["change"]["source_sha256"]},
        "claim": claim,
        "workloads": report,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    if claim is not None:
        print(f"claim: {json.dumps(claim)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
