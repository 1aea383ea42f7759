"""Repeat the benchmark over seeds and summarise it.

    python3 perfbench/reference.py [--runs N] [--write]

For each workload: N untraced runs with seeds 1..N, then one traced run with
seed 1, each lasting BENCHMARK.json's `run_seconds`.  Prints, per end-to-end
metric, the median, quartiles and spread (quartile distance over median, the
figure BENCHMARK.json's bounds are checked against) with its unit and sample
counts; `error_rate` and, for cli_session, the request percentiles are printed
beside them.  With --runs 1
this is the one command that shows every end-to-end figure of every workload.

--write stores the figures in perfbench/reference.json, the committed
baseline a later change is compared with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(workload: str, runs: int, seconds: float) -> dict:
    results = [bench.run(workload, seed, seconds, False) for seed in range(1, runs + 1)]
    traced = bench.run(workload, 1, seconds, True)
    out: dict = {"runs": runs, "failed": sum(r["failed"] for r in results + [traced]), "end_to_end": {}}
    for name in results[0]["end_to_end"]:
        rows = [r["end_to_end"][name] for r in results if name in r["end_to_end"]]
        values = [row[0] for row in rows]
        q1, med, q3 = quartiles(values)
        out["end_to_end"][name] = {
            "unit": rows[0][1],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values),
            "samples_per_run": statistics.median(row[2] for row in rows),
            "how": rows[0][3],
            "values": values,
        }
    layer = traced["per_layer"]
    out["traced_self_s"] = {name: layer[f"{name}.self_s"][0] for name in LAYERS + ("bench",)}
    out["traced_wall_s"] = layer["trace.wall_s"][0]
    out["trace_overhead_s"] = layer["trace.overhead_s"][0]
    out["sizes"] = {k: v[0] for k, v in layer.items() if k.startswith(("size.", "cache."))}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    table = {}
    for workload in workloads.WORKLOADS:
        table[workload] = s = summarise(workload, args.runs, seconds)
        print(f"{workload}: {s['runs']} runs, {s['failed']} failed requests")
        for name, m in s["end_to_end"].items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:.2f}" + ("  TOO NOISY" if m["spread"] > bound / 3 else "")
            print(
                f"  {name:<15} median {m['median']:>11.5f} {m['unit']:<5} q1 {m['q1']:>11.5f} q3 {m['q3']:>11.5f}"
                f"  spread {m['spread']:.4f}  runs={m['n']} samples/run={m['samples_per_run']:g}{flag}"
            )
            print("      runs: " + " ".join(f"{v:.4g}" for v in m["values"]))
        selfs = "  ".join(f"{k} {v:.3f}" for k, v in s["traced_self_s"].items())
        print(f"  traced self s: {selfs}  (traced wall {s['traced_wall_s']:.3f}, overhead {s['trace_overhead_s']:.3f})")
        sys.stdout.flush()
    if args.write:
        doc = {
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
            "seconds": seconds,
            "workloads": table,
        }
        with open(os.path.join(HERE, "reference.json"), "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
