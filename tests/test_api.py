"""The names the benchmark (perfbench/) and the demos take from fusedhecke
stay available, so that trimming the public API cannot silently break a
benchmark run, its --trace 1 mode or a demo.  Reads those files, edits none.
"""

import ast
import importlib
from pathlib import Path

import fusedhecke

ROOT = Path(__file__).resolve().parents[1]


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


def test_workload_names_are_exported():
    names = _names_taken(_tree(ROOT / "perfbench" / "workloads.py"), "fh")
    assert "verify_braided_ybe" in names
    assert sorted(n for n in names if not hasattr(fusedhecke, n)) == []


def test_demo_names_are_exported():
    names = set()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        names |= _names_taken(_tree(demo), None)
    assert names
    assert sorted(n for n in names if not hasattr(fusedhecke, n)) == []


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
