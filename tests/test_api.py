"""The names the benchmark (perfbench/), its own tests and the demos take
from fusedhecke stay available, so that trimming the public API cannot
silently break a benchmark run, its --trace 1 mode, `pytest perfbench` or a
demo.  Reads those files, edits none.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import fusedhecke

ROOT = Path(__file__).resolve().parents[1]
MODULES = {info.name for info in pkgutil.iter_modules(fusedhecke.__path__)}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _names_taken(tree: ast.Module, alias: str | None) -> set:
    """Names imported from fusedhecke, plus attributes read off `alias`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fusedhecke":
            names.update(a.name for a in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == alias):
            names.add(node.attr)
    return names


def _missing(names) -> list:
    """The names that `from fusedhecke import name` would not find: a
    submodule is found whether or not it has been imported yet."""
    return sorted(n for n in names if not hasattr(fusedhecke, n) and n not in MODULES)


def test_workload_names_are_exported():
    names = _names_taken(_tree(ROOT / "perfbench" / "workloads.py"), "fh")
    assert "verify_braided_ybe" in names
    assert _missing(names) == []


def test_demo_names_are_exported():
    names = set()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        names |= _names_taken(_tree(demo), None)
    assert names
    assert _missing(names) == []


def test_traced_caches_are_lru_cached():
    tree = _tree(ROOT / "perfbench" / "tracing.py")
    cached = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "CACHED" for t in node.targets)
    )
    assert cached
    for qualname in cached:
        layer, attr = qualname.split(".")
        module = importlib.import_module(f"fusedhecke.{layer}")
        getattr(module, attr).cache_info()


def test_benchmark_test_names_exist():
    """The module functions perfbench/test_perfbench.py reads off a fusedhecke
    module (hecke.multiply) or names as a span ("hecke.left_mul_generator")."""
    names = set()
    for node in ast.walk(_tree(ROOT / "perfbench" / "test_perfbench.py")):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in MODULES):
            names.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            head, _, attr = node.value.partition(".")
            if head in MODULES and attr.isidentifier():
                names.add(node.value)
    assert {"hecke.multiply", "hecke.left_mul_generator"} <= names
    missing = []
    for name in sorted(names):
        module, _, attr = name.partition(".")
        if not hasattr(importlib.import_module(f"fusedhecke.{module}"), attr):
            missing.append(name)
    assert missing == []


def test_fused_and_tensorrep_leave_numerator_arithmetic_to_hecke():
    """fused.py and tensorrep.py take no gcd or lcm and build no Fraction
    from a numerator and a denominator: scaled vectors enter and leave
    Fraction form through hecke only."""
    for name in ("fused.py", "tensorrep.py"):
        for node in ast.walk(_tree(ROOT / "src" / "fusedhecke" / name)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                assert not {a.name for a in node.names} & {"gcd", "lcm"}, (name, node.lineno)
            elif isinstance(node, ast.Attribute):
                assert node.attr not in ("gcd", "lcm"), (name, node.lineno)
            elif isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if callee == "Fraction":
                    assert len(node.args) + len(node.keywords) < 2, (name, node.lineno)
