"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out FILE]
                                [--against FILE]

Runs ``run.py --trace 0`` once per workload and seed, one run at a time, and
prints for each end-to-end metric its median, quartiles and quartile spread
(q3 - q1) / median, next to the bound in BENCHMARK.json.  With ``--against``
it also reports how far each median moved from those of an earlier output,
in the metric's worse direction, which is how a held-out seed set is
compared with the seeds a change was written on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median), quartiles as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse_by(new: float, old: float, better: str) -> float:
    """Share of ``old`` by which ``new`` is worse (negative when better)."""
    return (old - new) / old if better == "higher" else (new - old) / old


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    old = json.loads(args.against.read_text()) if args.against else {}

    runs: dict[str, list[dict]] = {}
    ok = True
    for wl in names:
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - t0
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{wl} seed {seed}: run failed\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.setdefault(wl, []).append(values | {"seed": seed, "wall_s": wall})
            shown = " ".join(f"{k}={v:.4g}" for k, v in values.items())
            print(f"{wl} seed {seed}: {shown} failed={result['failed']}/{result['attempted']}"
                  f" wall={wall:.1f}s", flush=True)

    summary = {}
    for wl, rows in runs.items():
        summary[wl] = {"seeds": [r["seed"] for r in rows], "wall_s": [r["wall_s"] for r in rows]}
        for name, spec in metrics.items():
            values = [r[name] for r in rows]
            med, q1, q3, rel = spread(values)
            summary[wl][name] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                                 "values": values}
            line = f"{wl:18s} {name:16s} median {med:10.4g}  q1 {q1:10.4g}  q3 {q3:10.4g}" \
                   f"  spread {rel:6.3f} / bound {spec['bound']}"
            if name != "setup_s" and rel > spec["bound"]:
                line += "  SPREAD ABOVE BOUND"
                ok = False
            if wl in old:
                moved = worse_by(med, old[wl][name]["median"], spec["better"])
                line += f"  worse by {moved:+.3f} vs --against"
                if moved > spec["bound"]:
                    line += "  OUTSIDE BOUND"
                    ok = False
            print(line)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
