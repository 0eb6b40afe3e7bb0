"""Self-test of the benchmark at a tiny size (n=2, dmax=2).

Run from the repository root::

    python3 perfbench/selftest.py

For a pool run (scan, 2 workers) and a one-process run (verify --check
all), plain and traced, it checks that no run failed, that every metric
named in BENCHMARK.json is reported with its unit, and that in every
traced run the per-layer self times plus ``other.self_s`` add up to the
traced wall time (plus the time pool workers ran side by side).
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import layers  # noqa: E402
import run  # noqa: E402

ARGVS = (["scan", "--n", "2", "--dmax", "2", "--workers", "2",
          "--output", "json"],
         ["verify", "--check", "all", "--n", "2", "--dmax", "2",
          "--output", "json"])


def check(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {0: [(m["name"], m["unit"]) for m in bench["end_to_end"]],
                1: [(m["name"], m["unit"]) for m in bench["per_layer"]]}
    check(declared[0] == list(run.END_TO_END),
          "BENCHMARK.json end_to_end differs from run.END_TO_END")
    check(declared[1] == list(layers.PER_LAYER),
          "BENCHMARK.json per_layer differs from layers.PER_LAYER")
    stamp = run.environment(0)
    for argv in ARGVS:
        for trace in (0, 1):
            label = f"selftest-{argv[0]}"
            loop, metrics, doc = run.bench_one(label, argv, None, 0, trace,
                                               stamp)
            check(loop.failed == 0, f"{argv} trace={trace}: {loop.failures}")
            for name, unit in declared[trace]:
                check(name in metrics, f"{name} missing")
                check(metrics[name]["unit"] == unit, f"{name} has no unit {unit}")
            if trace:
                result = doc["result"]
                tolerance = 1e-9 * max(1.0, result["metrics"]["trace.wall_s"])
                check(result["identity_error_s"] <= tolerance,
                      f"self times do not add up: off by "
                      f"{result['identity_error_s']} s")
                if argv[0] == "scan":
                    check(metrics["cli.pool.tasks"]["value"] > 0,
                          "no spans came back from the pool workers")
    print("selftest ok")


if __name__ == "__main__":
    main()
