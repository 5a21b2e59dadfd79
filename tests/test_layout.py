"""Architecture checks on the package source, by static analysis alone.

The import graph of src/ngs must be acyclic, imports inside functions
included, and every module-level import must be used. An import kept only
to re-export a name carries "# noqa: F401" on its line. No module imports
scipy.sparse: every linear system of the package is tridiagonal, solved by
LAPACK dgtsv in flow.bordered_solve. Importing the CLI, or running the N = 1
oracle, loads no SciPy module but the LAPACK extension, which flow loads
alone (not even the scipy package), and no process-pool machinery: every
command runs in one process. Every module-level public function, method and
property is named in code outside the tests (a docstring or a comment does
not count), so no helper lives in the package for the tests alone. A
dataclass defines __post_init__; a record that validates nothing is a
NamedTuple.
"""
import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ngs"
TREES = {path.stem: (path.read_text(), ast.parse(path.read_text(), str(path)))
         for path in sorted(SRC.glob("*.py"))}


def _package_imports(tree) -> set:
    """Modules of the package that a module imports, anywhere in its body."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                parts = node.module.split(".") if node.module else []
            elif (node.module or "").split(".")[0] == "ngs":
                parts = node.module.split(".")[1:]
            else:
                continue
            if parts:
                out.add(parts[0])
            else:
                # "from . import x": a module, or a name of the package itself
                out.update(a.name if a.name in TREES else "__init__"
                           for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "ngs":
                    out.add(parts[1] if len(parts) > 1 else "__init__")
    return out


def _find_cycle(graph: dict) -> list | None:
    state = dict.fromkeys(graph, 0)  # 0 unseen, 1 on the path, 2 done
    path = []

    def visit(node):
        state[node] = 1
        path.append(node)
        for nxt in sorted(graph[node]):
            if state[nxt] == 1:
                return path[path.index(nxt):] + [nxt]
            if state[nxt] == 0:
                found = visit(nxt)
                if found:
                    return found
        path.pop()
        state[node] = 2
        return None

    for node in sorted(graph):
        if state[node] == 0:
            found = visit(node)
            if found:
                return found
    return None


def test_package_import_graph_has_no_cycle():
    graph = {name: _package_imports(tree) for name, (_, tree) in TREES.items()}
    assert set().union(*graph.values()) <= set(graph)
    cycle = _find_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_unused_module_level_import(module):
    source, tree = TREES[module]
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"line {node.lineno}: {bound}")
    assert not unused, f"unused imports in {module}.py: {unused}"


def _imported_modules(tree) -> set:
    """Absolute names of the modules a module imports, anywhere in its body."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module)
            out.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
    return out


def test_no_module_imports_scipy_sparse():
    offenders = sorted(
        f"{name}: {mod}" for name, (_, tree) in TREES.items()
        for mod in _imported_modules(tree)
        if mod == "scipy.sparse" or mod.startswith("scipy.sparse.")
    )
    assert not offenders, f"scipy.sparse imported: {offenders}"


def test_only_utils_reads_and_writes_csv():
    # every CSV record goes through utils.write_csv and utils.read_csv
    importers = sorted(name for name, (_, tree) in TREES.items()
                       if "csv" in _imported_modules(tree))
    assert importers == ["utils"]


def _is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass"
            or isinstance(target, ast.Attribute) and target.attr == "dataclass")


def test_every_dataclass_validates_in_post_init():
    # a dataclass is kept for a value whose __post_init__ checks or
    # normalizes its fields; a record that validates nothing is a NamedTuple
    plain = sorted(
        f"{name}.{node.name}" for name, (_, tree) in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(map(_is_dataclass_decorator, node.decorator_list))
        and not any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                    for item in node.body))
    assert not plain, f"dataclasses without __post_init__ (make them NamedTuples): {plain}"


def test_cli_import_skips_unused_scipy_subpackages():
    # of SciPy only the LAPACK extension, not even the scipy package: after
    # importing the CLI, and after the N = 1 oracle's closed form too
    for run in ("import ngs.cli",
                "import ngs.cli; from ngs import grids, oracle; "
                "oracle.shoot_Up(3.0, 1, grids.RadialGrid(1, 20.0, 2000))"):
        code = (
            f"import sys; {run}; "
            "print(' '.join(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy' and m != 'scipy.linalg._flapack' "
            "or m in ('multiprocessing', 'concurrent.futures.process')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=SRC.parent, capture_output=True,
            text=True, check=True,
        ).stdout.split()
        assert out == [], f"{run} loaded {out}"


def test_scipy_linalg_imported_after_the_cli_shares_its_lapack():
    # ngs loads scipy.linalg._flapack by itself; a later scipy.linalg import
    # must take that one instance from sys.modules and still work
    code = (
        "import numpy as np; import ngs.cli, ngs.flow; "
        "import scipy.linalg.lapack, scipy.integrate; "
        "from scipy.linalg import eigh_tridiagonal; "
        "assert scipy.linalg.lapack.dgtsv is ngs.flow.dgtsv; "
        "assert scipy.linalg.lapack.dstebz is ngs.flow.dstebz; "
        "w = eigh_tridiagonal(np.full(3, 2.0), np.full(2, -1.0), eigvals_only=True); "
        "assert np.allclose(w, 2.0 - np.sqrt(2.0) * np.array([1.0, 0.0, -1.0]))"
    )
    subprocess.run([sys.executable, "-c", code], cwd=SRC.parent, check=True)


# public functions that only the tests call, by choice
TEST_ONLY_FUNCTIONS = {
    "energy.fiber_energy",      # acceptance 7's fiber API, which ROADMAP keeps
    "energy.fiber_map",         # acceptance 7's fiber API, which ROADMAP keeps
    "energy.fiber_minimize",    # acceptance 7's fiber API, which ROADMAP keeps
}


def _docstrings(tree) -> set:
    """The docstring nodes of a module and of its classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.add(first.value)
    return out


def _names_in_code(tree, skip=None) -> set:
    """Identifiers a module names in code, outside the subtree skip.

    Counted: names, attributes, imported names and the words of string
    constants other than docstrings. Not counted: docstrings and comments.
    """
    docstrings = _docstrings(tree)
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip or node in docstrings:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
            if node.asname:
                out.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"[A-Za-z_]\w*", node.value))
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_public_function_is_named_outside_the_tests():
    # named in code of the package other than in its own def, of scripts/
    # or of perfbench/ (whose tracer names functions in strings)
    outside = set().union(*(
        _names_in_code(ast.parse(path.read_text(), str(path)))
        for folder in ("scripts", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))))
    in_module = {module: _names_in_code(tree) for module, (_, tree) in TREES.items()}
    defined, unnamed = set(), []
    for module, (_, tree) in TREES.items():
        elsewhere = outside.union(*(names for other, names in in_module.items()
                                    if other != module))
        # module-level functions, and the methods and properties of classes
        public = [(f"{module}.{node.name}", node) for node in tree.body
                  if isinstance(node, ast.FunctionDef)]
        public += [(f"{module}.{cls.name}.{node.name}", node) for cls in tree.body
                   if isinstance(cls, ast.ClassDef) for node in cls.body
                   if isinstance(node, ast.FunctionDef)]
        for qualified, node in public:
            if node.name.startswith("_"):
                continue
            defined.add(qualified)
            named = elsewhere | _names_in_code(tree, skip=node)
            if node.name not in named and qualified not in TEST_ONLY_FUNCTIONS:
                unnamed.append(qualified)
    assert TEST_ONLY_FUNCTIONS <= defined
    assert not unnamed, f"public functions or methods only the tests name: {unnamed}"


def _reason_literals(tree) -> set:
    """The strings a module assigns to a name reason, alone or in a tuple, or passes as reason=."""
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs += zip(target.elts, node.value.elts)
                else:
                    pairs.append((target, node.value))
        elif isinstance(node, ast.keyword) and node.arg == "reason":
            pairs.append((ast.Name("reason"), node.value))
    return {value.value for target, value in pairs
            if isinstance(target, ast.Name) and target.id == "reason"
            and isinstance(value, ast.Constant) and isinstance(value.value, str)}


def _compared_strings(tree) -> set:
    """The string constants a module compares with, alone or in a tuple, list or set."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                items = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) \
                    else [operand]
                out.update(item.value for item in items
                           if isinstance(item, ast.Constant) and isinstance(item.value, str))
    return out


def test_every_reason_is_a_row_of_the_table():
    # flow.REASONS is the one map from an end reason to its exit code and
    # continuation: every reason the package assigns has its row, every row
    # but None's is assigned, and cli and curves compare with no reason
    from ngs.flow import REASONS

    assigned = set().union(*(_reason_literals(tree) for _, tree in TREES.values()))
    assert assigned == set(REASONS) - {None}
    for module in ("cli", "curves"):
        compared = _compared_strings(TREES[module][1]) & set(REASONS)
        assert not compared, f"{module}.py compares with reasons {compared}"
