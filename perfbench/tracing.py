"""Span tracer that wraps the public functions of the fusedhecke modules
from outside the package.

Each public function of a layer module is replaced by a wrapper, both in the
module that defines it and in every fusedhecke module that imported it by
name.  Module globals are looked up at call time, so calls made inside the
package (``multiply`` -> ``left_mul_generator``) are caught as well.  Spans
live in flat in-memory arrays and are written out once, when the run ends.
"""

from __future__ import annotations

import array
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("permutations", "qnumbers", "hecke", "fused", "linalg", "tensorrep", "cli")

# Called once per element term or matrix entry: a span each would cost more
# than the call it measures, so their time stays with the caller.
UNTRACED = {"qnumbers.as_fraction", "qnumbers.format_rational"}

CACHED = (
    "permutations.reduced_word",
    "hecke.symmetriser_sum",
    "fused.projector_P",
    "fused.partial_braiding",
    "fused.partial_braiding_mixed",
    "tensorrep.sigma_matrix",
    "tensorrep.w_basis",
)

COUNTERS = (
    "hecke.right_mul_generator.terms_in",
    "hecke.multiply.terms_out",
    "hecke.peak_terms",
    "linalg.matmul.useful",
    "linalg.matmul.attempted",
    "linalg.solve_exact.rows",
    "linalg.solve_exact.cols",
    "tensorrep.R.nnz",
    "tensorrep.R.entries",
)


def matmul_work(a, b) -> tuple[int, int]:
    """(useful, attempted) scalar products of ``linalg.matmul(a, b)``.

    The product skips zero entries of the left factor but multiplies the
    whole matching row of the right factor, so each nonzero a[i, j] attempts
    b.shape[1] products, of which nnz(b[j, :]) have both factors nonzero.
    """
    nz_a = np.asarray(a != 0, dtype=bool)
    nz_b = np.asarray(b != 0, dtype=bool)
    useful = int(nz_a.sum(axis=0) @ nz_b.sum(axis=1))
    return useful, int(nz_a.sum()) * b.shape[1]


def _probe_right_mul(c, args, out):
    c["hecke.right_mul_generator.terms_in"] += len(args[0].terms)


def _probe_multiply(c, args, out):
    c["hecke.multiply.terms_out"] += len(out.terms)


def _probe_matmul(c, args, out):
    useful, attempted = matmul_work(args[0], args[1])
    c["linalg.matmul.useful"] += useful
    c["linalg.matmul.attempted"] += attempted


def _probe_solve(c, args, out):
    rows, cols = args[0].shape
    c["linalg.solve_exact.rows"] += rows
    c["linalg.solve_exact.cols"] += cols


def _probe_fused_R(c, args, out):
    c["tensorrep.R.nnz"] += int(np.count_nonzero(out != 0))
    c["tensorrep.R.entries"] += out.size


PROBES = {
    "hecke.right_mul_generator": _probe_right_mul,
    "hecke.multiply": _probe_multiply,
    "linalg.matmul": _probe_matmul,
    "linalg.solve_exact": _probe_solve,
    "tensorrep.fused_R_matrix": _probe_fused_R,
}


def self_times(start, end, parent) -> np.ndarray:
    """Self time of each span: its duration minus the durations of the spans
    whose parent it is.  ``parent`` is -1 for a root span."""
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - child


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span and
    request id, plus the counters the probes add at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.name = array.array("i")
        self.req = array.array("i")
        self.request = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.cache = {name: [0, 0] for name in CACHED}  # hits, misses while installed
        self._cache_at_install: dict[str, tuple[int, int]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.req.append(self.request)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str, request: int | None = None):
        if request is not None:
            self.request = request
        idx = self._open(self._id(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def _wrap(self, qualname: str, fn):
        name_id = self._id(qualname)
        probe = PROBES.get(qualname)
        peak = qualname.split(".")[0] in ("hecke", "fused")
        start, end, stack, clock = self.start, self.end, self._stack, time.perf_counter
        counters, open_ = self.counters, self._open
        element_type = sys.modules["fusedhecke.hecke"].HeckeElement

        def traced(*args, **kwargs):
            idx = open_(name_id)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if probe is not None:
                    probe(counters, args, out)
                if peak and isinstance(out, element_type):
                    if len(out.terms) > counters["hecke.peak_terms"]:
                        counters["hecke.peak_terms"] = len(out.terms)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            return out

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self):
        """Wrap every public function of the layer modules, everywhere
        fusedhecke holds a reference to it.  Cache hits and misses count
        while the wrappers are installed."""
        import fusedhecke.cli  # noqa: F401  (the cli layer is not imported by the package)

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"fusedhecke.{layer}"]
            for attr, obj in vars(mod).items():
                qualname = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or qualname in UNTRACED
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(qualname, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "fusedhecke" and not modname.startswith("fusedhecke."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))
        self._cache_at_install = cache_snapshot()

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()
        for name, (hits, misses) in cache_snapshot().items():
            self.cache[name][0] += hits - self._cache_at_install[name][0]
            self.cache[name][1] += misses - self._cache_at_install[name][1]

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function span counts and self times, the counters, and the
        cache hits and misses while installed."""
        selfs = self_times(self.start, self.end, self.parent)
        durations = np.asarray(self.end) - np.asarray(self.start)
        ids = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, int)
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=selfs, minlength=len(self.names))
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(self_s[i]) for i, n in enumerate(self.names)},
            "counters": dict(self.counters),
            "cache": {n: list(v) for n, v in self.cache.items()},
            "main_s": durations[ids == self._ids["cli.main"]].tolist()
            if "cli.main" in self._ids else [],
        }

    def dump(self, path: Path):
        """Write the spans (binary arrays) and the summary (JSON) next to
        each other: ``path.bin`` and ``path.json``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.start, self.end, self.parent, self.name, self.req):
                arr.tofile(fh)
        meta = {"spans": len(self.start), "names": self.names, "summary": self.summary()}
        path.with_suffix(".json").write_text(json.dumps(meta))


def cache_snapshot() -> dict[str, tuple[int, int]]:
    """(hits, misses) of each cached fusedhecke function, read through
    ``cache_info()`` so the wrappers stay transparent."""
    out = {}
    for qualname in CACHED:
        layer, attr = qualname.split(".")
        info = getattr(sys.modules[f"fusedhecke.{layer}"], attr).cache_info()
        out[qualname] = (info.hits, info.misses)
    return out


def clear_caches():
    """Empty every lru_cache in the package, so that a set-up repeats the
    same work each time."""
    for modname, mod in list(sys.modules.items()):
        if modname == "fusedhecke" or modname.startswith("fusedhecke."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)) and not isinstance(obj, type):
                    obj.cache_clear()


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of several traced processes."""
    out = {"calls": {}, "self_s": {}, "counters": dict.fromkeys(COUNTERS, 0),
           "cache": {}, "main_s": []}
    for s in summaries:
        for key in ("calls", "self_s"):
            for n, v in s[key].items():
                out[key][n] = out[key].get(n, 0) + v
        for n, v in s["counters"].items():
            if n == "hecke.peak_terms":
                out["counters"][n] = max(out["counters"][n], v)
            else:
                out["counters"][n] += v
        for n, (h, m) in s["cache"].items():
            old = out["cache"].get(n, (0, 0))
            out["cache"][n] = (old[0] + h, old[1] + m)
        out["main_s"].extend(s["main_s"])
    return out


CLI_COMMANDS = ("qnum", "compute-r", "compute-sigma", "verify-ybe", "verify-algebra",
                "reproduce-paper")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "permutations.reduced_word.hit_ratio": "ratio",
    "hecke.right_mul_generator.calls": "count",
    "hecke.right_mul_generator.self_s": "s",
    "hecke.right_mul_generator.terms_in": "count",
    "hecke.left_mul_generator.calls": "count",
    "hecke.left_mul_generator.self_s": "s",
    "hecke.multiply.calls": "count",
    "hecke.multiply.self_s": "s",
    "hecke.multiply.terms_out": "count",
    "hecke.mul_element_right.calls": "count",
    "hecke.mul_element_right.self_s": "s",
    "hecke.peak_terms": "count",
    "hecke.symmetriser_sum.hit_ratio": "ratio",
    "fused.element_diff.self_s": "s",
    "fused.projector_P.hit_ratio": "ratio",
    "fused.partial_braiding.hit_ratio": "ratio",
    "fused.partial_braiding_mixed.hit_ratio": "ratio",
    "linalg.matmul.calls": "count",
    "linalg.matmul.self_s": "s",
    "linalg.matmul.useful_ratio": "ratio",
    "linalg.kron.self_s": "s",
    "linalg.first_matrix_diff.self_s": "s",
    "linalg.solve_exact.calls": "count",
    "linalg.solve_exact.self_s": "s",
    "linalg.solve_exact.rows": "count",
    "linalg.solve_exact.cols": "count",
    "linalg.rank.self_s": "s",
    "tensorrep.sigma_matrix.calls": "count",
    "tensorrep.sigma_matrix.self_s": "s",
    "tensorrep.sigma_matrix.hit_ratio": "ratio",
    "tensorrep.w_basis.self_s": "s",
    "tensorrep.fused_R_matrix.self_s": "s",
    "tensorrep.R.nnz_ratio": "ratio",
    "tensorrep.verify_matrix_ybe.self_s": "s",
    "tensorrep.matrix_to_obj.self_s": "s",
    "tensorrep.matrix_to_csv.self_s": "s",
    "cli.interpreter_s": "s",
    **{f"cli.{cmd}.p50_s": "s" for cmd in CLI_COMMANDS},
    "trace_overhead_frac": "ratio",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(s: dict, extra: dict) -> dict:
    """The per-layer metrics from a (merged) summary.  ``extra`` holds the
    ones measured outside the spans: ``cli.interpreter_s``, the
    ``cli.<command>.p50_s`` medians and ``trace_overhead_frac``."""
    values = {}
    for name in PER_LAYER:
        head, _, field = name.rpartition(".")
        if name in extra:
            values[name] = extra[name]
        elif head in LAYERS and field == "self_s":
            values[name] = sum(v for n, v in s["self_s"].items() if n.startswith(head + "."))
        elif field == "self_s":
            values[name] = s["self_s"].get(head, 0.0)
        elif field == "calls":
            values[name] = s["calls"].get(head, 0)
        elif field == "hit_ratio":
            hits, misses = s["cache"].get(head, (0, 0))
            values[name] = _ratio(hits, hits + misses)
        elif name == "linalg.matmul.useful_ratio":
            c = s["counters"]
            values[name] = _ratio(c["linalg.matmul.useful"], c["linalg.matmul.attempted"])
        elif name == "tensorrep.R.nnz_ratio":
            c = s["counters"]
            values[name] = _ratio(c["tensorrep.R.nnz"], c["tensorrep.R.entries"])
        else:
            values[name] = s["counters"][name]
    return values
