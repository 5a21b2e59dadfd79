"""Outside-in tracing of the ngs layers for the benchmark's traced runs.

The tracer wraps public functions of the ngs modules by rebinding every
name under which an ngs module holds them (``ngs.curves.minimize`` as well
as ``ngs.flow.minimize``), plus SuperLU's ``splu`` where ``flow`` and
``curves`` reach it. Nothing inside the program changes; ``uninstall``
restores every binding.

Two kinds of record are kept in memory:

* spans ``(name, start, end, parent, op, info)`` for calls that happen a
  few times per operation (``minimize``, factorizations, energy and
  identity evaluations, curve functions, CLI commands, file I/O);
* leaf tallies ``(parent span, name) -> [calls, seconds]`` for calls made
  once or more per flow step (SuperLU ``solve``, ``g``, ``G``,
  ``g_times_s``, ``V``, ``kinetic``, ``laplacian_tridiagonal``). A span for
  each of those would cost more than the call itself on the hot path and
  hold millions of records per run, so they are folded into the span that
  caused them. Self time of a span is its duration minus its child spans
  and its leaf tallies.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

SPAN_FUNCTIONS = (
    ("ngs.flow", "minimize"),
    ("ngs.models", "load_model"),
    ("ngs.grids", "save_profile"),
    ("ngs.grids", "load_profile"),
    ("ngs.energy", "evaluate"),
    ("ngs.energy", "identity_residuals"),
    ("ngs.energy", "nehari_residual"),
    ("ngs.energy", "pohozaev_residual"),
    ("ngs.energy", "lagrange_multiplier"),
    ("ngs.energy", "euler_lagrange_residual"),
    ("ngs.curves", "scan"),
    ("ngs.curves", "threshold_a0"),
    ("ngs.curves", "subadditivity_check"),
    ("ngs.curves", "vanishing_diagnostic"),
    ("ngs.curves", "quadratic_form_infimum"),
    ("ngs.curves", "write_curve_csv"),
    ("ngs.curves", "read_curve_csv"),
    ("ngs.curves", "write_subadditivity_csv"),
    ("ngs.oracle", "shoot_Up"),
    ("ngs.cli", "main"),
    ("ngs.utils", "sha256_file"),
)
LEAF_FUNCTIONS = (
    ("ngs.grids", "kinetic"),
    ("ngs.grids", "laplacian_tridiagonal"),
)
LEAF_METHODS = (
    ("ngs.models", "NonlinearityModel", "g"),
    ("ngs.models", "NonlinearityModel", "G"),
    ("ngs.models", "NonlinearityModel", "g_times_s"),
    ("ngs.models", "PotentialModel", "V"),
)
IDENTITY_SPANS = frozenset(
    "energy." + name for name in (
        "identity_residuals", "nehari_residual", "pohozaev_residual",
        "lagrange_multiplier", "euler_lagrange_residual",
    )
)
CURVE_IO_SPANS = frozenset(
    ("curves.write_curve_csv", "curves.read_curve_csv",
     "curves.write_subadditivity_csv")
)
FLOW_REASONS = (
    "stall", "max-iters", "energy-floor", "no-minimizer-regime",
    "vanishing-suspected", "descent-violation", "diverged",
)
# a probe whose "not negative" verdict came from running out of budget or
# from a no-minimizer label rather than from a converged nonnegative energy
UNCERTIFIED_REASONS = frozenset(("stall", "max-iters", "no-minimizer-regime"))


def _short(module_name: str) -> str:
    return module_name.partition(".")[2] or module_name


def _minimize_info(args, kwargs, result) -> dict:
    return {
        "a": float(args[0]) if args else float(kwargs["a"]),
        "iterations": int(result.iterations),
        "starts": len(result.all_start_energies),
        "converged": bool(result.converged),
        "reason": result.reason,
        "energy": float(result.energy),
    }


def _cli_info(args, kwargs, result) -> dict:
    argv = args[0] if args else kwargs.get("argv")
    return {"verify": bool(argv) and "--verify" in argv, "exit": result}


INFO = {"flow.minimize": _minimize_info, "cli.main": _cli_info}


class _LU:
    """SuperLU factor whose ``solve`` is tallied; other attributes pass through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _ModuleView:
    """Stand-in for ``scipy.sparse.linalg`` inside one ngs module."""

    def __init__(self, module, splu):
        self._module = module
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.leaves: dict = {}
        self.op = -1
        self._stack: list = []
        self._undo: list = []

    # --- recording ---

    def _span(self, name, fn):
        spans, stack, info_of = self.spans, self._stack, INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if info_of is not None:
                rec[5] = info_of(args, kwargs, result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        leaves, stack = self.leaves, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                key = (stack[-1] if stack else -1, name)
                tally = leaves.get(key)
                if tally is None:
                    leaves[key] = [1, dt]
                else:
                    tally[0] += 1
                    tally[1] += dt

        return wrapper

    def _splu(self, prefix, splu):
        factorize = self._span(prefix + ".splu", splu)
        leaf = self._leaf

        @functools.wraps(splu)
        def wrapper(*args, **kwargs):
            lu = factorize(*args, **kwargs)
            return _LU(lu, leaf(prefix + ".solve", lu.solve))

        return wrapper

    # --- installation ---

    def _rebind(self, original, replacement):
        for mod in _ngs_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, replacement)

    def install(self):
        import scipy.sparse.linalg as spla

        for mod_name, attr in SPAN_FUNCTIONS:
            fn = getattr(sys.modules[mod_name], attr)
            self._rebind(fn, self._span(f"{_short(mod_name)}.{attr}", fn))
        for mod_name, attr in LEAF_FUNCTIONS:
            fn = getattr(sys.modules[mod_name], attr)
            self._rebind(fn, self._leaf(f"{_short(mod_name)}.{attr}", fn))
        for mod_name, cls_name, attr in LEAF_METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            fn = cls.__dict__[attr]
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self._leaf(f"{_short(mod_name)}.{attr}", fn))
        for mod in _ngs_modules():
            prefix = _short(mod.__name__) + ".linsolve"
            for key, value in list(vars(mod).items()):
                if value is spla:
                    view = _ModuleView(spla, self._splu(prefix, spla.splu))
                    self._undo.append((mod, key, value))
                    setattr(mod, key, view)
                elif value is spla.splu:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, self._splu(prefix, spla.splu))

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def write(self, path):
        """Spans as JSON lines, then the leaf tallies."""
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, op, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "op": op,
                                     "info": info}) + "\n")
            for (parent, name), (calls, secs) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "parent": parent,
                                     "calls": calls, "s": secs}) + "\n")

    # --- analysis ---

    def layer_metrics(self, ops: set) -> dict:
        """Per-layer metrics over the spans of the given operation ids."""
        spans = self.spans
        keep = [i for i, s in enumerate(spans) if s[4] in ops]
        kept = set(keep)
        child_s = {i: 0.0 for i in keep}
        for i in keep:
            parent = spans[i][3]
            if parent in child_s:
                child_s[parent] += spans[i][2] - spans[i][1]
        leaf_calls: dict = {}
        leaf_s: dict = {}
        for (parent, name), (calls, secs) in self.leaves.items():
            if parent not in kept:
                continue
            leaf_calls[name] = leaf_calls.get(name, 0) + calls
            leaf_s[name] = leaf_s.get(name, 0.0) + secs
            child_s[parent] += secs

        def dur(i):
            return spans[i][2] - spans[i][1]

        def named(name):
            return [i for i in keep if spans[i][0] == name]

        def total(name):
            return sum(dur(i) for i in named(name))

        def self_s(name):
            return sum(dur(i) - child_s[i] for i in named(name))

        m: dict = {}
        solves = leaf_calls.get("flow.linsolve.solve", 0)
        m["flow.linsolve.solves"] = solves
        m["flow.linsolve.factorizations"] = len(named("flow.linsolve.splu"))
        m["flow.linsolve.us_per_solve"] = (
            1e6 * leaf_s["flow.linsolve.solve"] / solves if solves else 0.0)
        m["curves.linsolve.solves"] = leaf_calls.get("curves.linsolve.solve", 0)

        mins = named("flow.minimize")
        infos = [spans[i][5] for i in mins]
        m["flow.minimize.calls"] = len(mins)
        m["flow.minimize.s"] = total("flow.minimize")
        m["flow.minimize.self_s"] = self_s("flow.minimize")
        m["flow.starts"] = sum(x["starts"] for x in infos)
        iterations = sum(x["iterations"] for x in infos)
        m["flow.iterations"] = iterations
        m["flow.unconverged"] = sum(1 for x in infos if not x["converged"])
        for reason in FLOW_REASONS:
            m["flow.reason." + reason] = sum(
                1 for x in infos if x["reason"] == reason)
        # every flow step makes two SuperLU solves, so solves / 2 counts the
        # steps of all starts; winning-start iterations over that is the
        # share of steps that ended up in a reported result
        m["flow.useful_frac"] = iterations / (solves / 2) if solves else 0.0

        for name in ("g", "G", "g_times_s", "V"):
            m[f"models.{name}.calls"] = leaf_calls.get("models." + name, 0)
        m["models.g.s"] = leaf_s.get("models.g", 0.0)
        m["models.G.s"] = leaf_s.get("models.G", 0.0)

        m["grids.laplacian_tridiagonal.calls"] = leaf_calls.get(
            "grids.laplacian_tridiagonal", 0)
        m["grids.kinetic.calls"] = leaf_calls.get("grids.kinetic", 0)
        m["grids.io.s"] = total("grids.save_profile") + total("grids.load_profile")

        m["energy.evaluate.s"] = total("energy.evaluate")
        m["energy.identity.s"] = sum(
            dur(i) for i in keep
            if spans[i][0] in IDENTITY_SPANS
            and (spans[i][3] < 0 or spans[spans[i][3]][0] not in IDENTITY_SPANS))

        thresholds = set(named("curves.threshold_a0"))
        probes = [i for i in mins if spans[i][3] in thresholds]
        uncertified = [
            i for i in probes
            if spans[i][5]["reason"] in UNCERTIFIED_REASONS
            and spans[i][5]["energy"] >= -1e-6
        ]
        m["curves.threshold.probes"] = len(probes)
        m["curves.threshold.uncertified_probes"] = len(uncertified)
        m["curves.threshold.uncertified_s"] = sum(dur(i) for i in uncertified)
        m["curves.threshold.probe_p50_s"] = (
            statistics.median(dur(i) for i in probes) if probes else 0.0)

        scans = set(named("curves.scan"))
        scanned = [spans[i][5] for i in mins if spans[i][3] in scans]
        m["curves.scan.s"] = total("curves.scan")
        m["curves.scan.iterations_per_mass"] = (
            sum(x["iterations"] for x in scanned) / len(scanned) if scanned else 0.0)
        m["curves.subadditivity_check.s"] = total("curves.subadditivity_check")
        m["curves.vanishing_diagnostic.calls"] = len(named("curves.vanishing_diagnostic"))
        m["curves.vanishing_diagnostic.s"] = total("curves.vanishing_diagnostic")
        m["curves.quadratic_form_infimum.calls"] = len(named("curves.quadratic_form_infimum"))
        m["curves.quadratic_form_infimum.s"] = total("curves.quadratic_form_infimum")
        m["curves.io.s"] = sum(total(name) for name in CURVE_IO_SPANS)

        m["oracle.shoot_Up.calls"] = len(named("oracle.shoot_Up"))
        m["oracle.shoot_Up.s"] = total("oracle.shoot_Up")

        m["cli.main.calls"] = len(named("cli.main"))
        m["cli.main.self_s"] = self_s("cli.main")
        m["cli.verify.s"] = sum(
            dur(i) for i in named("cli.main") if spans[i][5]["verify"])
        m["utils.sha256_file.s"] = total("utils.sha256_file")
        return m


COUNT_SUFFIXES = (".calls", ".solves", ".factorizations", ".probes",
                  ".uncertified_probes", ".starts", ".iterations",
                  ".unconverged")


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES) or name.startswith("flow.reason.")


def _ngs_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ngs" or name.startswith("ngs."))]
