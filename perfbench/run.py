"""Benchmark of fusedhecke's exact verifications.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics of one workload with tracing
off.  ``--trace 1`` sets up once, runs the once requests and one cycle with
each request run untraced and then (or first) with every public function of
the library wrapped, and reports the per-layer metrics.  Every output is checked after the timed loop; the last
line of standard output is one JSON object, and the exit status is 0 only
when every request gave a correct result.  Workloads, percentiles and the
baseline are described in ``perfbench/manifest.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
INTERPRETER_REPS = 5
# cli_cold also times a fresh-interpreter import before every IMPORT_EVERY-th
# request, outside the timed requests: set-up samples spread over the whole
# run, since the machine's speed changes within seconds.
IMPORT_EVERY = 4


def tail_percentile(n: int) -> int:
    """The highest whole percentile that leaves at least ten of n samples
    beyond it, taking the sample of nearest rank ceil(p n / 100).  With ten
    samples or fewer no percentile does, and the maximum is reported."""
    return 100 * (n - 10) // n if n > 10 else 100


def tail_value(values) -> float:
    ordered = sorted(values)
    p = tail_percentile(len(ordered))
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def cycles_for(seconds: float, nominal: dict) -> int:
    """Whole cycles that fill ``seconds`` at the workload's nominal cycle
    time, so that a run's request list depends on the seed and ``seconds``
    only, not on the speed of the machine."""
    return max(1, round((seconds - nominal["once_s"]) / nominal["cycle_s"]))


def run_pass(wl, requests, tracer=None, trace_dir: Path | None = None, first: int = 0):
    """The closed loop: each request goes out when the previous one has
    returned.  Returns [(request, output, error, latency)]; outputs are
    checked afterwards, outside the timed loop.  ``first`` is
    the request id of ``requests[0]``."""
    from workloads import spawn

    records = []
    for idx, req in enumerate(requests, first):
        t0 = time.perf_counter()
        out = err = None
        try:
            if not wl.in_process:
                out = spawn(req.argv, trace_dir and trace_dir / f"child-{idx:03d}", idx)
            elif tracer is not None:
                with tracer.span(f"request.{req.cls}", idx):
                    out = req.run()
            else:
                out = req.run()
        except Exception as exc:  # a failed request is counted, and the loop goes on
            err = f"{type(exc).__name__}: {exc}"
        records.append((req, out, err, time.perf_counter() - t0))
    return records


def check(records) -> list[str]:
    failures = []
    for idx, (req, out, err, _) in enumerate(records):
        if err is None:
            try:
                err = req.check(out)
            except Exception as exc:  # a check that cannot run fails the request
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append(f"request {idx} {req.cls}: {err}")
    return failures


def throughput(records, failures: int) -> float:
    """Correct requests per second of the timed loop, whose time is the
    sum of the request latencies: a mean over the whole loop, which the
    machine's changes of speed move far less than a median would."""
    return (len(records) - failures) / sum(r[3] for r in records)


def measure_setup(wl) -> list[float]:
    """Import (in a fresh interpreter) plus cache warm-up, from empty
    caches, ``setup_reps`` times."""
    from tracing import clear_caches
    from workloads import import_seconds

    totals = []
    for _ in range(wl.setup_reps):
        imported = import_seconds()
        clear_caches()
        t0 = time.perf_counter()
        wl.warm()
        totals.append(imported + time.perf_counter() - t0)
    return totals


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(wl, rng, seconds, nominal, failures_out):
    setups = measure_setup(wl)
    wrong = wl.setup_check()
    if wrong:
        failures_out.append(f"setup: {wrong}")
    requests = wl.requests(rng, cycles_for(seconds, nominal))
    if wl.in_process:
        records = run_pass(wl, requests)
    else:
        from workloads import import_seconds

        records = []
        for i in range(0, len(requests), IMPORT_EVERY):
            setups.append(import_seconds())
            records += run_pass(wl, requests[i:i + IMPORT_EVERY], first=i)
    failures = check(records)
    failures_out.extend(failures)
    lat = [r[3] for r in records]
    n = len(records)
    rows = [
        ("throughput_rps", throughput(records, len(failures)), "req/s",
         f"n={n} requests, loop {sum(lat):.2f} s"),
        ("latency_p50_s", statistics.median(lat), "s", f"n={n}"),
        ("latency_tail_s", tail_value(lat), "s", f"p{tail_percentile(n)}, n={n}"),
        ("setup_s", statistics.median(setups), "s", f"median of n={len(setups)} set-ups"),
        ("failed_frac", len(failures) / n, "ratio", f"{len(failures)} of n={n} attempted"),
        ("peak_rss_mb", peak_rss_mb(wl), "MB",
         "n=1 process" if wl.in_process else f"largest of n={n + len(setups)} children"),
    ]
    return n, rows


def traced(wl, rng, seed, failures_out):
    """One cycle (and the once requests), each request run untraced and
    traced back to back, in alternating order, so that a burst of load
    from elsewhere on the machine hits both members of a pair.  In process,
    an untraced pass runs first, because it also fills caches that set-up
    leaves cold (such as reduced_word's)."""
    import tracing
    from workloads import interpreter_seconds

    tracing.clear_caches()
    wl.warm()
    requests = wl.requests(rng, 1)
    first = run_pass(wl, requests) if wl.in_process else []

    trace_dir = OUT / f"{wl.name}-seed{seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    tracer = tracing.Tracer()
    plain, spanned = [], []
    for idx, req in enumerate(requests):
        for with_spans in (False, True) if idx % 2 == 0 else (True, False):
            if not with_spans:
                plain += run_pass(wl, [req], first=idx)
                continue
            tracer.install()
            try:
                spanned += run_pass(wl, [req], tracer, trace_dir, idx)
            finally:
                tracer.uninstall()

    bad_plain, bad_spanned = check(plain), check(spanned)
    failures_out.extend(check(first) + bad_plain + bad_spanned)
    if wl.in_process:
        tracer.dump(trace_dir / "trace")
        summary, main_s = tracer.summary(), {}
    else:
        summaries, main_s = [], {}
        for idx, (req, *_rest) in enumerate(spanned):
            dumped = trace_dir / f"child-{idx:03d}.json"
            if not dumped.is_file():  # the child died before writing; already a failure
                continue
            meta = json.loads(dumped.read_text())
            summaries.append(meta["summary"])
            main_s.setdefault(req.argv[0], []).extend(meta["summary"]["main_s"])
        summary = tracing.merge(summaries)
    plain_rps = throughput(plain, len(bad_plain))
    extra = {
        "cli.interpreter_s": statistics.median(
            interpreter_seconds() for _ in range(INTERPRETER_REPS)),
        "trace_overhead_frac":
            (plain_rps - throughput(spanned, len(bad_spanned))) / plain_rps,
    }
    for cmd in tracing.CLI_COMMANDS:
        extra[f"cli.{cmd}.p50_s"] = statistics.median(main_s[cmd]) if cmd in main_s else 0.0
    values = tracing.layer_metrics(summary, extra)
    rows = [(name, values[name], unit, "") for name, unit in tracing.PER_LAYER.items()]
    return len(first) + len(plain) + len(spanned), rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fusedhecke" / "__init__.py").is_file():
        print(f"error: no fusedhecke sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    manifest = json.loads((HERE / "manifest.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    failures: list[str] = []
    if args.trace:
        attempted, rows = traced(wl, rng, args.seed, failures)
    else:
        nominal = manifest["workloads"][wl.name]
        attempted, rows = end_to_end(wl, rng, args.seconds, nominal, failures)

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"# {wl.name} seed={args.seed} trace={args.trace}")
    for name, value, unit, note in rows:
        print(f"{name:40s} {value:>14.6g} {unit:6s} {note}")
    reported = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows
                if name != "failed_frac"}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": reported}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
