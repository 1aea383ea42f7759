"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

For every workload it checks that
* each metric BENCHMARK.json declares is measured, under its declared unit;
* traced and untraced passes produce byte-identical outputs (the same
  digests, which must also match the recorded ones);
* call counts, size.* and cache.* repeat exactly across two traced runs;
* self times are not double counted: no function's self time exceeds its
  inclusive time, bench.self_s (traced time outside every span) is not
  negative, and each worker's spans fit between its import and its exit.
Exits 1 with the first failed check.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402


def require(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)


def exact_counts(layer: dict) -> dict:
    return {k: v for k, v in layer.items() if k.endswith(".calls") or k.startswith(("size.", "cache."))}


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        declared = json.load(f)
    measured_layer: dict[str, str] = {}
    for workload, tiny in workloads.TINY.items():
        plain = bench.run(workload, 1, 0, False, tiny)
        first = bench.run(workload, 1, 0, True, tiny)
        second = bench.run(workload, 1, 0, True, tiny)
        for result in (plain, first, second):
            require(result["failed"] == 0, f"{workload}: {result['failures'][:3]}")
        for m in declared["end_to_end"]:
            got = plain["end_to_end"].get(m["name"])
            require(got is not None and got[1] == m["unit"], f"{workload}: {m['name']} measured as {got}")
        digests = plain["digests"] + first["digests"] + second["digests"]
        require(all(d == digests[0] for d in digests), f"{workload}: traced and untraced outputs differ")
        require(
            exact_counts(first["per_layer"]) == exact_counts(second["per_layer"]),
            f"{workload}: counts differ between two traced runs",
        )
        layer = first["per_layer"]
        for name, (self_s, _) in layer.items():
            inclusive = layer.get(name.removesuffix(".self_s") + ".s")
            if name.endswith(".self_s") and inclusive is not None:
                require(self_s <= inclusive[0], f"{workload}: {name} {self_s} exceeds inclusive {inclusive[0]}")
        require(layer["bench.self_s"][0] >= 0, f"{workload}: bench.self_s {layer['bench.self_s'][0]} < 0")
        for roots_ns, room_ns in first["span_room"]:
            require(roots_ns <= room_ns, f"{workload}: spans cover {roots_ns} ns of a worker's {room_ns} ns")
        measured_layer.update({name: value[1] for name, value in layer.items()})
        print(f"ok {workload}")
    for m in declared["per_layer"]:
        got = measured_layer.get(m["name"])
        require(got == m["unit"], f"per-layer {m['name']} measured with unit {got}, declared {m['unit']}")
    print("ok per-layer names and units")
    return 0


if __name__ == "__main__":
    sys.exit(main())
