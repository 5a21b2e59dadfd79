"""Benchmark of the ngs solver, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ground_state --seed 1 --seconds 15 --trace 0

It imports ``ngs`` from ``src/`` of the checkout, sets up the workload
(see ``workloads.py``), then runs passes over it in one process until
``--seconds`` have elapsed (at least one pass). Every operation is checked
against a reference. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, measured with no wrappers.
* ``--trace 1``: untraced and traced passes alternate (at least two
  traced); the per-layer metrics come from the traced passes, their counts
  must repeat exactly between passes, and ``trace_overhead_frac`` compares
  the wall time of the two kinds.

Times are normalized to the host's current speed (see ``calibration.py``).
A reference kernel is timed around set-up, at both ends of every pass and,
in untraced passes, every second from a timer signal; each stretch of
program work between two kernels is scaled by them.
The raw times are kept in the result file. The environment record and the
full result go to ``perfbench_out/``; traced runs also write their spans
there.
"""
from __future__ import annotations

import os

# pin BLAS and OpenMP pools of this process to one thread before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / "perfbench_out"
WORKLOADS = ("ground_state", "energy_curve", "threshold")
# set-up is repeated and its median reported, so one slow repeat does not
# move setup_s
SETUP_REPEATS = 3
MIN_TRACED_PASSES = 2


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("us_per_solve"):
        return "us"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("iterations_per_mass"):
        return "iterations"
    return "count"


def _percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _git_revision(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "ngs").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _environment(load_before) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_revision": _git_revision(ROOT),
        "source_sha256": _source_digest(ROOT),
    }


def _run_pass(workload, state, log, traced: bool) -> dict:
    """One pass between two kernel marks; its clock readings, units and samples."""
    first_unit, first_sample = log.units, len(log.samples)
    log.mark()
    start = log.marks[-1]
    if traced:
        # no kernel marks inside spans the tracer times
        workload.run_pass(state, log)
    else:
        with log.sampling():
            workload.run_pass(state, log)
    log.mark()
    end = log.marks[-1]
    return {
        "wall": (start[1], end[0]),
        "cpu": (start[3], end[2]),
        "units": set(range(first_unit, log.units)),
        "samples": log.samples[first_sample:],
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "ngs" / "__init__.py").is_file():
        print(f"perfbench: no ngs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()

    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import ngs.cli  # noqa: F401  (imports every ngs module)
    import_s = perf_counter() - t0

    sys.path.insert(0, str(BENCH))
    import calibration
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    log = workloads.OpLog(calibration.Kernel(), tracer)

    log.mark()
    setup_times = []
    setup_layers = None
    if tracer is None:
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            state = workload.setup()
            setup_times.append(perf_counter() - t0)
    else:
        setup_unit = log.new_unit()
        tracer.install()
        try:
            state = workload.setup()
        finally:
            tracer.uninstall()
        setup_layers = tracer.layer_metrics({setup_unit})
    log.mark()
    setup_scale = log.kernel.scale(log.marks[-2][4], log.marks[-1][4])

    plain, traced = [], []
    start = perf_counter()
    while True:
        plain.append(_run_pass(workload, state, log, traced=False))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(_run_pass(workload, state, log, traced=True))
            finally:
                tracer.uninstall()
        elapsed = perf_counter() - start
        if elapsed >= args.seconds and (tracer is None or len(traced) >= MIN_TRACED_PASSES):
            break
    for p in plain + traced:
        p["wall_s"] = log.time(*p["wall"])
        p["cpu_s"] = log.time(*p["cpu"], cpu=True)
        p["wall_raw_s"] = log.time(*p["wall"], scaled=False)

    samples = [s for p in plain + traced for s in p["samples"]]
    failures = [s[3] for s in samples if not s[2]]
    problems = [msg for f in failures for msg in f]
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": workload.inputs(),
        "passes": len(plain), "traced_passes": len(traced),
        "kernel_reference_s": calibration.REFERENCE_S,
        "setup_scale": setup_scale,
        "pass_wall_raw_s": [p["wall_raw_s"] for p in plain],
        "pass_wall_s": [p["wall_s"] for p in plain],
        "kernel_s": [m[4] for m in log.marks],
    }

    if tracer is None:
        latencies = [log.time(s[0], s[1]) for p in plain for s in p["samples"]]
        n = len(latencies)
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times)) * setup_scale,
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "op_p50_s": _percentile(latencies, 50),
            "op_p90_s": _percentile(latencies, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result.update({
            "import_raw_s": import_s,
            "setup_repeats_raw_s": setup_times,
            "op_samples": n,
            # the highest percentile with at least ten samples beyond it
            "op_supported_percentile": int(100 * (1 - 10 / n)) if n >= 20 else None,
        })
    else:
        per_pass = []
        for p in traced:
            layers = tracer.layer_metrics(p["units"])
            scale = p["wall_s"] / p["wall_raw_s"]
            per_pass.append({name: value * scale if _unit(name) in ("s", "us")
                             else value for name, value in layers.items()})
        mismatched = sorted(
            name for name in per_pass[0]
            if tracing.is_count(name)
            and any(m[name] != per_pass[0][name] for m in per_pass[1:]))
        problems += [f"traced count {name} differs between passes: "
                     f"{[m[name] for m in per_pass]}" for name in mismatched]
        metrics = {
            name: (per_pass[0][name] if tracing.is_count(name)
                   else statistics.median(m[name] for m in per_pass))
            for name in per_pass[0]
        }
        metrics["oracle.shoot_Up.calls"] = setup_layers["oracle.shoot_Up.calls"]
        metrics["oracle.shoot_Up.s"] = setup_layers["oracle.shoot_Up.s"] * setup_scale
        metrics["trace_overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in plain) - 1.0)
        result["traced_pass_wall_s"] = [p["wall_s"] for p in traced]
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    units = {name: _unit(name) for name in metrics}
    attempted = len(samples)
    failed = len(failures)
    correct = failed == 0 and not problems
    result.update({
        "environment": _environment(load_before),
        "fail_frac": failed / attempted,
        "problems": problems,
        "metrics": metrics,
    })
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n")

    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for msg in problems[:20]:
        print(f"FAILED {msg}")
    print(f"{args.workload}: {attempted} operations, {failed} failed "
          f"(fail_frac {failed / attempted:.4g}), {len(plain)} passes"
          + (f" + {len(traced)} traced" if traced else "")
          + f"; raw pass wall median {statistics.median(result['pass_wall_raw_s']):.4g} s")
    if tracer is None:
        print(f"operation latency over {n} samples; highest percentile with "
              f">= 10 samples beyond it: {result['op_supported_percentile']}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
