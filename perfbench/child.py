"""Worker process of the benchmark.

It starts, imports `fockspectra` (and its CLI) from the checkout's `src/`,
does one kind of work, and reports to the parent on the last line of stderr,
after REPORT_PREFIX.  The parent times it from spawn to exit.

    python3 perfbench/child.py probe            import only: one set-up sample
    python3 perfbench/child.py cli ARGV...      one `fockspectra ARGV...` call
    python3 perfbench/child.py api D ELL        orthogonal_eigenbasis(D, ELL), then
                                                char_poly_check(D, ELL); results on stdout
    python3 perfbench/child.py session          {"requests": [argv, ...], "keep": [i, ...]}
                                                on stdin; each argv through cli.main in
                                                this process with stdout captured

Every worker samples the machine's speed while it runs (speed.py); the
samples join the report.  With PERFBENCH_TRACE=1 in the environment the
tracer is installed after the import and its summary joins the report.
"""

import time
import sys
import os

import speed  # the script's directory is on sys.path

SAMPLER = speed.Sampler() if __name__ == "__main__" else None

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import fockspectra  # noqa: E402
import fockspectra.cli  # noqa: E402

IMPORT_NS = time.monotonic_ns()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

from workloads import REPORT_PREFIX, digest  # noqa: E402


def peak_rss_kb() -> int:
    """Peak resident set of this process image.  Not ru_maxrss: Linux carries
    that across exec, so a child can report its parent's size."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def call_cli(argv) -> int:
    try:
        return fockspectra.cli.main(argv)
    except SystemExit as e:  # argparse rejects its input this way
        return e.code if isinstance(e.code, int) else 2


def api_text(d: int, ell: int) -> str:
    basis = fockspectra.spectral.orthogonal_eigenbasis(d, ell)
    certified = fockspectra.spectral.char_poly_check(d, ell)
    lines = [f"{f.eigenvalue} {f.norm_squared} {f.polynomial}" for f in basis]
    lines.append(f"char_poly_check {certified}")
    return "\n".join(lines)


def run_session(tracer, job: dict) -> dict:
    keep = set(job["keep"])
    latencies, codes, digests, kept = [], [], [], {}
    for i, argv in enumerate(job["requests"]):
        if tracer is not None:
            tracer.start_request(i)
        buf = io.StringIO()
        start = time.perf_counter_ns()
        with contextlib.redirect_stdout(buf):
            try:
                code = call_cli(argv)
            except Exception as e:  # a failed request, counted by the parent
                code = f"{type(e).__name__}: {e}"
        latencies.append(time.perf_counter_ns() - start)
        codes.append(code)
        out = buf.getvalue()
        digests.append(digest(out))
        if i in keep:
            kept[str(i)] = out
    return {"latency_ns": latencies, "codes": codes, "digests": digests, "kept": kept}


def main() -> int:
    if os.path.dirname(os.path.abspath(fockspectra.__file__)) != os.path.join(SRC, "fockspectra"):
        print(f"fockspectra was imported from {fockspectra.__file__}, not {SRC}", file=sys.stderr)
        return 3
    report: dict = {"import_ns": IMPORT_NS}
    tracer = None
    if os.environ.get("PERFBENCH_TRACE") == "1":
        import tracer as tracer_module

        tracer = tracer_module.install()
    mode, args = sys.argv[1], sys.argv[2:]
    code = 0
    if mode == "cli":
        code = call_cli(args)
    elif mode == "api":
        print(api_text(int(args[0]), int(args[1])))
    elif mode == "session":
        report["session"] = run_session(tracer, json.loads(sys.stdin.read()))
    elif mode != "probe":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    # the parent takes the top-up out of the worker's time
    report["calibration_ns"] = SAMPLER.stop()
    report["speed_ns"] = SAMPLER.samples
    report["maxrss_kb"] = peak_rss_kb()
    if tracer is not None:
        # the parent takes this bookkeeping out of the traced pass's wall time
        start = time.monotonic_ns()
        report["trace"] = tracer.summary()
        report["trace"]["summary_ns"] = time.monotonic_ns() - start
    sys.stderr.write(REPORT_PREFIX + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
