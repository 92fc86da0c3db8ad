"""The names the benchmark (perfbench/), its own tests and the demos take
from fusedhecke stay available, so that trimming the public API cannot
silently break a benchmark run, its --trace 1 mode, `pytest perfbench` or a
demo.  Reads those files, edits none.
"""

import ast
import importlib
import importlib.util
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


def _callee(node: ast.Call) -> str | None:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


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


def _exported() -> list:
    """The names fusedhecke/__init__.py imports from its modules."""
    return [alias.asname or alias.name
            for node in _tree(ROOT / "src" / "fusedhecke" / "__init__.py").body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _references(tree: ast.Module) -> set:
    """The names and attributes a module reads, strings not included, each
    outside the function or class of the same name."""
    found = set()

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, inside | {child.name})
                continue
            if isinstance(child, ast.Name) and child.id not in inside:
                found.add(child.id)
            elif isinstance(child, ast.Attribute) and child.attr not in inside:
                found.add(child.attr)
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_export_has_a_use_outside_the_tests():
    """Each exported name, and each function or class defined at the top of
    a module of src/fusedhecke, is read in src/ outside its own definition,
    in demos/ or in perfbench/: no library name lives only for the tests.  A
    metric string such as "hecke.right_mul_generator.calls" is no use."""
    exported = _exported()
    assert exported and len(exported) == len(set(exported))
    defined = {node.name for path in sorted((ROOT / "src" / "fusedhecke").glob("*.py"))
               for node in _tree(path).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    assert {"projector_P", "_Baxterisation"} <= defined
    used = set()
    for folder in ("src/fusedhecke", "demos", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            used |= _references(_tree(path))
    assert sorted((set(exported) | defined) - used) == []


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


def _decorator_name(node) -> str | None:
    """lru_cache for @lru_cache, @lru_cache(...) and @functools.lru_cache(...)."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_no_cache_keys_on_a_raw_q():
    """Every cache whose key holds q is made by qnumbers._cached_on_q, which
    parses q before the lookup: no lru_cache sits directly on a function
    with a parameter q, and only _cached_on_q decides whether a key is typed."""
    typed = set()
    for path in sorted((ROOT / "src" / "fusedhecke").glob("*.py")):
        for top in ast.walk(_tree(path)):
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = {a.arg for a in top.args.posonlyargs + top.args.args + top.args.kwonlyargs}
            if "q" in params:
                names = {_decorator_name(d) for d in top.decorator_list}
                assert "lru_cache" not in names, (path.name, top.name)
            for node in top.decorator_list + top.body:
                if any(isinstance(n, ast.keyword) and n.arg == "typed" for n in ast.walk(node)):
                    typed.add((path.name, top.name))
    assert typed == {("qnumbers.py", "_cached_on_q")}


def _module_caches() -> dict:
    """{(module, function): decorator} of each top-level cached function of src/."""
    found = {}
    for path in sorted((ROOT / "src" / "fusedhecke").glob("*.py")):
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for d in node.decorator_list:
                    if _decorator_name(d) in ("lru_cache", "_cached_on_q"):
                        found[path.stem, node.name] = _decorator_name(d)
    return found


# one call per q-keyed cache, with a q spelled as an int
Q_KEYED_CALLS = {
    ("hecke", "symmetriser_sum"): (1, 2, 3, 2),
    ("fused", "_blocks_product"): (3, 2, ((1, 2),)),
    ("fused", "partial_braiding_mixed"): (1, 2, 1, 2),
    ("tensorrep", "w_basis"): (2, 2, 2),
    ("tensorrep", "_sigma_columns"): (1, 1, 2, 2),
    ("tensorrep", "sigma_matrix"): (1, 1, 2, 2),
}


def test_every_cache_clears_through_the_benchmark():
    """Every top-level cache of src/ exposes cache_info and cache_clear, and
    perfbench's tracing.clear_caches() empties each q-keyed one, so each
    set-up of the benchmark starts from empty caches."""
    caches = _module_caches()
    assert {name for name, d in caches.items() if d == "_cached_on_q"} == set(Q_KEYED_CALLS)
    for module, name in caches:
        fn = getattr(importlib.import_module(f"fusedhecke.{module}"), name)
        assert callable(fn.cache_info) and callable(fn.cache_clear), (module, name)
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    cached = {}
    for (module, name), args in Q_KEYED_CALLS.items():
        cached[module, name] = getattr(importlib.import_module(f"fusedhecke.{module}"), name)
        cached[module, name](*args)
        assert cached[module, name].cache_info().currsize >= 1, (module, name)
    tracing.clear_caches()
    assert {key: fn.cache_info().currsize for key, fn in cached.items()} == dict.fromkeys(
        Q_KEYED_CALLS, 0)


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
                if _callee(node) == "Fraction":
                    assert len(node.args) + len(node.keywords) < 2, (name, node.lineno)


def test_fused_multiplies_elements_only_in_the_direct_oracle():
    """Every element and verdict of fused comes from one chain of hecke's
    scaled passes; hecke.multiply, the standard-basis product of two
    elements, is called only by _verify_ybe, for method="direct"."""
    callers = {
        top.name
        for top in _tree(ROOT / "src" / "fusedhecke" / "fused.py").body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and _callee(node) == "multiply"
    }
    assert callers == {"_verify_ybe"}


def test_src_builds_no_element_per_baxterised_factor():
    """The baxterised factors sigma_i + c run as hecke._scaled_affine passes;
    the element-level x * (sigma_i + c) lives in tests/oracles.py only."""
    for path in sorted((ROOT / "src" / "fusedhecke").glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert node.name != "mul_r_check_right", (path.name, node.lineno)


def test_every_R_factor_runs_on_one_crossing_word_chain():
    """fused has one chain builder: _braid_right zips a crossing word with
    one constant per letter, which gives sigma_p, the under-crossings and
    the k x ell grid of the factorised R alike, so it is the only function
    of fused.py that calls hecke._scaled_affine; hecke keeps no separate
    generator pass beside _scaled_affine at c = 0."""
    callers = {
        top.name
        for top in _tree(ROOT / "src" / "fusedhecke" / "fused.py").body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and _callee(node) == "_scaled_affine"
    }
    assert callers == {"_braid_right"}
    defined = {
        node.name
        for path in sorted((ROOT / "src" / "fusedhecke").glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert not defined & {"_mul_grid_right", "_scaled_generator"}


def test_matrix_ybe_applies_each_R_once_per_side():
    """The matrix YBE starts each side at the whole identity block of
    W^(tensor 3) and applies each R to it in one pass: neither
    _verify_matrix_ybe nor _apply_pair holds a for or while statement
    (comprehensions are allowed)."""
    tree = _tree(ROOT / "src" / "fusedhecke" / "tensorrep.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name in ("_verify_matrix_ybe", "_apply_pair")}
    assert len(functions) == 2
    for name, function in functions.items():
        loops = [node.lineno for node in ast.walk(function)
                 if isinstance(node, (ast.For, ast.AsyncFor, ast.While))]
        assert loops == [], name


def _raising_functions(accepts) -> set:
    """(file, innermost function) of each raise in src/ of a call that
    accepts takes, such as DomainError("...")."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (where[0], child.name))
                continue
            if (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                    and accepts(child.exc)):
                found.add(where)
            visit(child, where)

    for path in sorted((ROOT / "src" / "fusedhecke").glob("*.py")):
        visit(_tree(path), (path.name, None))
    return found


def _message_text(call: ast.Call) -> str:
    """The literal text of the call's first argument, a string or an
    f-string, with the formatted fields left out."""
    arg = call.args[0] if call.args else None
    parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
    return "".join(p.value for p in parts
                   if isinstance(p, ast.Constant) and isinstance(p.value, str))


def test_each_input_rule_is_checked_in_one_function():
    """q = 0 is rejected by qnumbers.as_q alone, a braiding order outside
    0..k by fused._check_order alone, and every chain's intervals are
    checked where it starts, in fused._start."""
    q_zero = _raising_functions(
        lambda c: _callee(c) == "ParameterError" and _message_text(c) == "q must be nonzero")
    assert q_zero == {("qnumbers.py", "as_q")}
    order = _raising_functions(
        lambda c: _callee(c) == "DomainError" and _message_text(c).startswith("braiding order"))
    assert order == {("fused.py", "_check_order")}
    start = next(node for node in _tree(ROOT / "src" / "fusedhecke" / "fused.py").body
                 if isinstance(node, ast.FunctionDef) and node.name == "_start")
    assert any(isinstance(node, ast.Call) and _callee(node) == "_check_interval"
               for node in ast.walk(start))


def test_every_pole_is_a_pole_error():
    """Every pole of the coefficients and of the grid factors, multiplicative
    and additive, is a zero of the one bracket h, raised as PoleError by
    hecke._Baxterisation.denominator alone, so that one `except PoleError`
    catches them all; verify_mixed_ybe only re-raises it with the name of
    its factor in front.  No other raise reports a pole (a vanishing
    factor)."""
    reports_pole = lambda c: any(w in _message_text(c) for w in ("pole", "vanishes"))
    assert _raising_functions(reports_pole) == {("hecke.py", "denominator")}
    assert _raising_functions(lambda c: _callee(c) == "PoleError") == {
        ("hecke.py", "denominator"), ("fused.py", "verify_mixed_ybe")}


def _divides_by_one_minus(node) -> bool:
    """node is x / (1 - y) with 1/q inside x: the shape of the multiplicative
    baxterised constant -(q - 1/q)/(1 - u q^(2s))."""
    def is_inverse_q(n):
        return (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div)
                and isinstance(n.left, ast.Constant) and n.left.value == 1
                and isinstance(n.right, ast.Name) and n.right.id == "q")

    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Sub)
            and isinstance(node.right.left, ast.Constant) and node.right.left.value == 1
            and any(is_inverse_q(n) for n in ast.walk(node.left)))


def test_one_function_computes_the_baxterised_constant():
    """One Baxterisation formula over one bracket serves both paths.  Of
    hecke._Baxterisation, constant alone divides by the bracket for a grid
    constant, and coefficients alone for the expansion coefficients, whose
    argument-free part (numerators) it alone reads; the (q, u) path and the
    q = 1 path are the two constructions of the class.  symmetriser_product
    reads the constant at argument 1, every fused grid through _grid, and
    baxter_coefficients and classical_coefficients are calls of coefficients
    without a loop of their own.  No inline form of the multiplicative
    constant -(q - 1/q)/(1 - u q^(2s)) is left.  reference_data's
    hand-entered closed forms are independent references, not library
    constants, and are left out."""
    inline, calls, functions, constructions = set(), {}, {}, []
    for path in sorted((ROOT / "src" / "fusedhecke").glob("*.py")):
        if path.name == "reference_data.py":
            continue
        tree = _tree(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node) == "_Baxterisation":
                constructions.append(path.name)
        for top in ast.walk(tree):
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert top.name not in ("_r_check_constant", "_grid_constant",
                                        "_baxterised_constant", "_additive_constant"), path.name
                functions[path.name, top.name] = top
                if any(_divides_by_one_minus(n) for n in ast.walk(top)):
                    inline.add((path.name, top.name))
                for node in ast.walk(top):
                    if isinstance(node, ast.Call):
                        calls.setdefault(_callee(node), set()).add((path.name, top.name))
    assert inline == set()
    assert constructions == ["hecke.py", "hecke.py"]
    assert calls["denominator"] == {("hecke.py", "constant"), ("hecke.py", "coefficients")}
    assert calls["numerators"] == {("hecke.py", "coefficients")}
    assert {("hecke.py", "symmetriser_product"), ("fused.py", "_grid")} <= calls["constant"]
    for name in ("baxter_coefficients", "classical_coefficients"):
        assert ("fused.py", name) in calls["coefficients"]
        loops = [node.lineno for node in ast.walk(functions["fused.py", name])
                 if isinstance(node, (ast.For, ast.While, ast.comprehension))]
        assert loops == [], name


def test_minimality_is_checked_at_every_k():
    """minimal_polynomial_check compares nothing with k: no size cutoff
    decides whether the drop-one subproducts are checked."""
    function = next(node for node in _tree(ROOT / "src" / "fusedhecke" / "fused.py").body
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "minimal_polynomial_check")
    on_k = [node.lineno for node in ast.walk(function) if isinstance(node, ast.Compare)
            and any(isinstance(n, ast.Name) and n.id == "k"
                    or isinstance(n, ast.Attribute) and n.attr == "k"
                    for n in ast.walk(node))]
    assert on_k == []
