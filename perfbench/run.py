"""Benchmark of fockspectra: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
A single closed-loop client sends one request at a time.  The run repeats
passes over the seeded request list (run.py's workloads module) until `--seconds`
are spent, then prints a readable summary and, as the last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`:

* `--trace 0`: the end-to-end metrics of BENCHMARK.json, from untraced passes;
* `--trace 1`: the per-layer metrics, from traced passes, plus the overhead
  of tracing against one untraced pass of the same run.

Every output is checked against the digest recorded at the seed commit
(digests.json); a non-zero exit, an exception or a mismatch fails the request.

Times in the JSON line are scaled to the reference machine speed by each
worker's own speed samples (speed.py); the summary also prints them raw.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES = 15
CHILD_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402


class Pass:
    """Results of one pass over the request list."""

    def __init__(self) -> None:
        self.wall_ns = 0
        self.bookkeeping_ns = 0  # workers' own speed top-up and trace summary
        # per worker process: time from spawn to exit less its bookkeeping,
        # and from spawn to import done; scaled to the reference speed and raw
        self.request_ns: list[float] = []
        self.raw_request_ns: list[int] = []
        self.setup_ns: list[float] = []
        self.raw_setup_ns: list[int] = []
        self.maxrss_kb: list[int] = []
        self.latency_ns: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.traces: list[dict] = []


def spawn(mode: str, args, trace: bool, stdin: bytes = b""):
    """Start child.py and wait for it.

    Returns (wall ns, exit code, stdout, report or None, other stderr, spawn time ns)."""
    env = dict(os.environ, PERFBENCH_TRACE="1" if trace else "0")
    cmd = [sys.executable, "-E", "-s", CHILD, mode, *args]
    start = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, input=stdin, capture_output=True, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.monotonic_ns() - start, None, b"", None, "timed out", start
    wall = time.monotonic_ns() - start
    err = proc.stderr.decode(errors="replace")
    report = None
    head, sep, tail = err.rpartition(workloads.REPORT_PREFIX)
    if sep:
        report = json.loads(tail)
        err = head
    return wall, proc.returncode, proc.stdout, report, err.strip(), start


def _record_child(p: Pass, start: int, wall: int, report) -> float:
    """Adds one worker's figures to the pass; returns the worker's speed scale."""
    if report is None:  # a failed worker: its time stays unscaled
        p.request_ns.append(wall)
        p.raw_request_ns.append(wall)
        return 1.0
    own = report["calibration_ns"] + report.get("trace", {}).get("summary_ns", 0)
    work, setup = wall - own, report["import_ns"] - start
    scale = speed.factor(report["speed_ns"])
    p.bookkeeping_ns += own
    p.request_ns.append(work * scale)
    p.raw_request_ns.append(work)
    p.setup_ns.append(setup * scale)
    p.raw_setup_ns.append(setup)
    p.maxrss_kb.append(report["maxrss_kb"])
    if "trace" in report:
        # span time must fit between import done and the child's own bookkeeping
        report["trace"]["span_room_ns"] = work - setup
        p.traces.append(report["trace"])
    return scale


def run_pass(workload: str, reqs: list, trace: bool, reference: dict) -> Pass:
    p = Pass()
    p.attempted = len(reqs)
    outputs = []  # checked after the pass, outside every timed span
    t0 = time.monotonic_ns()
    if workload == "cli_session":
        (d, ell), _ = workloads.FLAGSHIP
        keep = [i for i, r in enumerate(reqs) if r == ("cli", ("spectrum", str(d), str(ell), "--json"))]
        job = json.dumps({"requests": [list(r[1]) for r in reqs], "keep": keep}).encode()
        wall, code, _, report, err, start = spawn("session", (), trace, job)
        p.wall_ns = time.monotonic_ns() - t0
        scale = _record_child(p, start, wall, report)
        if report is None:
            p.failures += [f"{workloads.key(r)}: session exited {code}: {err[-300:]}" for r in reqs]
            return p
        session = report["session"]
        p.latency_ns = [ns * scale for ns in session["latency_ns"]]
        for i, req in enumerate(reqs):
            outputs.append((req, session["codes"][i], session["digests"][i], session["kept"].get(str(i)), ""))
    else:
        for mode, args in reqs:
            wall, code, out, report, err, start = spawn(mode, args, trace)
            _record_child(p, start, wall, report)
            outputs.append(((mode, args), code, out, None, err))
        p.wall_ns = time.monotonic_ns() - t0
    for req, code, out, kept, err in outputs:
        p.digests.append(workloads.digest(out.decode()) if isinstance(out, bytes) else out)
        problem = check(req, code, p.digests[-1], out, kept, reference)
        if problem or (code == 0 and err and workload != "cli_session"):
            p.failures.append(f"{workloads.key(req)}: {problem or err[-300:]}")
    return p


def check(req, code, got: str, out, kept, reference: dict) -> str:
    """Empty when the request succeeded with the recorded output digest."""
    if code != 0:
        return f"exit {code}"
    want = reference.get(workloads.key(req))
    if got != want:
        return f"output digest {got} != recorded {want}"
    (d, ell), spectrum = workloads.FLAGSHIP
    if req[0] == "api" and req[1][:2] == (str(d), str(ell)):
        values = sorted(int(line.split()[0]) for line in out.decode().splitlines()[:-1])
        if tuple(values) != spectrum:
            return f"flagship spectrum {values}"
    if kept is not None and tuple(json.loads(kept)["result"]["eigenvalues"]) != spectrum:
        return "flagship spectrum differs from the paper"
    return ""


def percentile(values: list, q: float):
    """The q-quantile (0 < q < 1) when at least ten samples lie above it, else None."""
    if len(values) * (1 - q) < 10:
        return None
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 1000) - 1]


def run(workload: str, seed: int, seconds: float, trace: bool, reqs=None) -> dict:
    """One run; `reqs` replaces the seeded request list (the self-test's tiny inputs)."""
    with open(os.path.join(HERE, "digests.json")) as f:
        reference = json.load(f)
    reqs = reqs if reqs is not None else workloads.requests(workload, seed)
    deadline = time.monotonic_ns() + int(seconds * 1e9)
    probes = Pass()
    for _ in range(SETUP_PROBES):
        wall, _, _, report, _, start = spawn("probe", (), False)
        _record_child(probes, start, wall, report)
    plain: list[Pass] = []
    traced: list[Pass] = []
    while True:
        plain.append(run_pass(workload, reqs, False, reference))
        typical = statistics.median(p.wall_ns for p in plain)
        if trace or time.monotonic_ns() + typical > deadline:
            break
    while trace:
        traced.append(run_pass(workload, reqs, True, reference))
        if time.monotonic_ns() + statistics.median(p.wall_ns for p in traced) > deadline:
            break
    passes = plain + traced
    result = {
        "workload": workload,
        "seed": seed,
        "requests_per_pass": len(reqs),
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": sum(p.attempted for p in passes),
        "failures": [f for p in passes for f in p.failures],
        "digests": [p.digests for p in passes],
    }
    result["failed"] = len(result["failures"])
    result["end_to_end"] = end_to_end(plain, [probes] + plain)
    if trace:
        result["per_layer"] = per_layer(traced, pass_ns(traced, "request_ns") - pass_ns(plain, "request_ns"))
        result["span_room"] = [(t["roots_ns"], t["span_room_ns"]) for p in traced for t in p.traces]
    return result


def pass_ns(passes: list[Pass], attr: str) -> float:
    """Time of one pass: each worker's median over the passes, summed.  A
    burst of machine noise shorter than a pass is voted out without
    discarding the whole pass."""
    return sum(map(statistics.median, zip(*(getattr(p, attr) for p in passes))))


def end_to_end(plain: list[Pass], started: list[Pass]) -> dict:
    """name -> (value, unit, samples, how); request percentiles only where ten samples lie beyond.

    `started` holds every untraced process of the run, set-up probes included."""
    setup_ns = [s for p in started for s in p.setup_ns]
    raw_setup_ns = [s for p in started for s in p.raw_setup_ns]
    wall_ns = pass_ns(plain, "request_ns")
    raw_wall_ns = pass_ns(plain, "raw_request_ns")
    out = {
        "wall_s": (wall_ns / 1e9, "s", len(plain), "one pass at reference speed, each worker's median over passes"),
        "setup_s": (statistics.median(setup_ns) / 1e9, "s", len(setup_ns), "median spawn to import done, reference speed"),
        "raw_wall_s": (raw_wall_ns / 1e9, "s", len(plain), "wall_s unscaled"),
        "raw_setup_s": (statistics.median(raw_setup_ns) / 1e9, "s", len(raw_setup_ns), "setup_s unscaled"),
        "peak_rss_mb": (
            max(r for p in plain for r in p.maxrss_kb) / 1024,
            "MB",
            sum(len(p.maxrss_kb) for p in plain),
            "max over worker processes",
        ),
    }
    attempted = sum(p.attempted for p in plain)
    out["error_rate"] = (sum(len(p.failures) for p in plain) / attempted, "ratio", attempted, "failed / attempted")
    latencies = [ns / 1e6 for p in plain for ns in p.latency_ns]
    for name, q in (("request_p50_ms", 0.5), ("request_p99_ms", 0.99)):
        value = percentile(latencies, q) if latencies else None
        if value is not None:
            out[name] = (value, "ms", len(latencies), "in-process cli.main latency, reference speed")
    return out


def per_layer(traced: list[Pass], overhead_ns: float) -> dict:
    """Per-layer metrics, averaged per traced pass.  Layer self times plus
    bench.self_s (process start, import, harness: time outside every span)
    add up to trace.wall_s, unscaled.  trace.overhead_s is the traced pass
    minus the untraced one, both at reference speed.  cache.* are left out
    when the program has no functools caches."""
    n = len(traced)
    funcs: dict[str, list[int]] = {}
    roots = hits = misses = dim_sum = nonzeros = bits = 0
    cached = False
    for p in traced:
        for t in p.traces:
            for name, (calls, incl, self_ns) in t["functions"].items():
                row = funcs.setdefault(name, [0, 0, 0])
                row[0] += calls
                row[1] += incl
                row[2] += self_ns
            roots += t["roots_ns"]
            if t["cache_hits"] is not None:
                cached = True
                hits += t["cache_hits"]
                misses += t["cache_misses"]
            dim_sum += t["dim_sum"]
            nonzeros += t["gbasis_nonzeros"]
            bits = max(bits, t["max_coeff_bits"])
    # the workers' own end-of-process bookkeeping is not the program's time
    wall = statistics.mean(p.wall_ns - p.bookkeeping_ns for p in traced)
    out: dict[str, tuple] = {}
    layers: dict[str, list[int]] = {}
    for name, (calls, incl, self_ns) in sorted(funcs.items()):
        layer = layers.setdefault(name.split(".", 1)[0], [0, 0])
        layer[0] += calls
        layer[1] += self_ns
        out[f"{name}.calls"] = (calls / n, "count")
        out[f"{name}.s"] = (incl / n / 1e9, "s")
        out[f"{name}.self_s"] = (self_ns / n / 1e9, "s")
    for layer in LAYERS:
        calls, self_ns = layers.get(layer, (0, 0))
        out[f"{layer}.calls"] = (calls / n, "count")
        out[f"{layer}.self_s"] = (self_ns / n / 1e9, "s")
    out["bench.self_s"] = ((wall - roots / n) / 1e9, "s")
    out["trace.wall_s"] = (wall / 1e9, "s")
    out["trace.overhead_s"] = (overhead_ns / 1e9, "s")
    if cached:
        out["cache.hits"] = (hits / n, "count")
        out["cache.misses"] = (misses / n, "count")
        out["cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["size.dim_sum"] = (dim_sum / n, "count")
    out["size.gbasis_nonzeros"] = (nonzeros / n, "count")
    out["size.max_coeff_bits"] = (bits, "bits")
    return out


def declared(kind: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)[kind]


def result_line(result: dict, trace: bool) -> dict:
    """The last output line: the metrics BENCHMARK.json declares for this mode.

    A declared per-layer metric the program no longer has (a function that
    was removed or renamed, caches that went) is left out, not reported as 0."""
    measured = result["per_layer"] if trace else result["end_to_end"]
    metrics = {}
    for m in declared("per_layer" if trace else "end_to_end"):
        if m["name"] in measured or not trace:
            metrics[m["name"]] = {"value": measured[m["name"]][0], "unit": m["unit"]}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def summary_lines(result: dict) -> list[str]:
    lines = [
        f"{result['workload']} seed {result['seed']}: {result['passes']} untraced and "
        f"{result['traced_passes']} traced passes of {result['requests_per_pass']} requests, "
        f"{result['attempted']} attempted, {result['failed']} failed"
    ]
    lines += [f"  FAILED {f}" for f in result["failures"][:20]]
    for name, (value, unit, n, how) in result["end_to_end"].items():
        lines.append(f"  {name:<16} {value:>14.6f} {unit:<6} n={n:<5} {how}")
    layer = result.get("per_layer", {})
    top = sorted((k for k in layer if k.count(".") == 2 and k.endswith(".self_s")), key=lambda k: -layer[k][0])
    for name in top[:15]:
        calls = layer[name.replace(".self_s", ".calls")][0]
        lines.append(f"  {name:<48} {layer[name][0]:>10.4f} s  calls={calls:.0f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fockspectra", "__init__.py")):
        print(f"no fockspectra sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(summary_lines(result)))
    print(json.dumps(result_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
