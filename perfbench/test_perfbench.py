"""Tests of the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fusedhecke import linalg  # noqa: E402

COUNT_UNITS = ("count", "ratio")


def test_tail_percentile_leaves_ten_samples_beyond():
    assert [run.tail_percentile(n) for n in (11, 20, 33, 100, 1000)] == [9, 50, 69, 90, 99]
    for n in range(11, 300):
        values = list(range(n))
        tail = run.tail_value(values)
        assert sum(v > tail for v in values) >= 10
        # one percentile higher leaves fewer than ten
        p = run.tail_percentile(n) + 1
        rank = -(-p * n // 100)
        assert n - rank < 10


def test_tail_of_ten_or_fewer_samples_is_the_maximum():
    assert run.tail_percentile(10) == 100
    assert run.tail_value([3.0, 1.0, 2.0]) == 3.0


def test_self_time_is_span_minus_children():
    # root [0, 10] with children a [1, 4] and b [5, 6]; a has child c [2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_tracer_self_time_of_nested_spans():
    tracer = tracing.Tracer()
    with tracer.span("outer", 0):
        with tracer.span("inner"):
            pass
    s = tracer.summary()
    outer = tracer.end[0] - tracer.start[0]
    inner = tracer.end[1] - tracer.start[1]
    assert s["calls"] == {"outer": 1, "inner": 1}
    assert s["self_s"]["outer"] == pytest.approx(outer - inner)
    assert list(tracer.req) == [0, 0] and list(tracer.parent) == [-1, 0]


def test_matmul_useful_ratio_on_sparse_pair():
    a = linalg.fmat([[1, 0, 2], [0, 0, 0], [0, 3, 0]])
    b = linalg.fmat([[1, 1, 0], [0, 0, 0], [0, 0, 4]])
    # a's nonzeros (0,0), (0,2), (2,1) each multiply a whole row of b: 9
    # products, of which row 0 gives 2, row 2 gives 1 and row 1 gives none
    assert tracing.matmul_work(a, b) == (3, 9)
    useful = attempted = 0
    for i in range(3):
        for j in range(3):
            if a[i, j]:
                attempted += b.shape[1]
                useful += sum(1 for x in b[j] if x)
    assert (useful, attempted) == (3, 9)
    assert np.array_equal(linalg.matmul(a, b), np.dot(a, b))


def test_wrappers_catch_internal_calls_and_keep_cache_info():
    from fusedhecke import hecke

    plain = hecke.multiply
    tracer = tracing.Tracer()
    tracer.install()
    try:
        g = hecke.generator(1, 3, F(2))
        hecke.multiply(g, g)
        assert hecke.symmetriser_sum.cache_info().maxsize is None
    finally:
        tracer.uninstall()
    assert hecke.multiply is plain
    calls = tracer.summary()["calls"]
    assert calls["hecke.multiply"] == 1
    assert calls["permutations.reduced_word"] == 1  # called from inside multiply
    assert calls["hecke.left_mul_generator"] == 1


def _counts(rows) -> dict:
    return {name: value for name, value, unit, _ in rows if unit in COUNT_UNITS
            and name != "trace_overhead_frac"}


def _small(name: str, keep: tuple[int, ...]):
    wl = workloads.WORKLOADS[name]
    return dataclasses.replace(wl, once=(), classes=tuple(wl.classes[i] for i in keep),
                               warm=lambda: None)


@pytest.mark.parametrize("name, keep", [
    ("algebra", (2, 3, 4, 13, 26)),
    ("matrix_warm", (0, 1)),
    ("cli_cold", (0, 7, 19)),
])
def test_traced_counters_repeat_exactly(name, keep):
    wl = _small(name, keep)
    first, second = [], []
    counts = []
    for failures in (first, second):
        _, rows = run.traced(wl, random.Random(7), 7, failures)
        counts.append(_counts(rows))
    assert not first and not second
    assert counts[0] == counts[1]
    assert set(counts[0]) == {n for n, u in tracing.PER_LAYER.items()
                              if u in COUNT_UNITS and n != "trace_overhead_frac"}


def test_same_seed_same_requests():
    for wl in workloads.WORKLOADS.values():
        a = wl.requests(random.Random(3), 2)
        b = wl.requests(random.Random(3), 2)
        assert [(r.cls, r.argv) for r in a] == [(r.cls, r.argv) for r in b]


def test_manifest_matches_the_code():
    manifest = json.loads((HERE / "manifest.json").read_text())
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.PER_LAYER)
    assert [m["unit"] for m in bench["per_layer"]] == list(tracing.PER_LAYER.values())
    for name, wl in workloads.WORKLOADS.items():
        entry = manifest["workloads"][name]
        reqs = wl.requests(random.Random(1), run.cycles_for(bench["run_seconds"], entry))
        assert entry["requests_per_run"] == len(reqs)
        assert entry["tail_percentile"] == run.tail_percentile(len(reqs))
        assert entry["request_classes"] == sorted({r.cls for r in reqs})
