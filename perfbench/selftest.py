"""Self-test of the benchmark at tiny sizes (1-2 items a workload).

Usage (from the root of a radarlink checkout):

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced.  Checks that each
metric BENCHMARK.json names is emitted with its unit, that every output
check passed and that tracing leaves every output byte-identical.  Runs
the sweep-jobs2 config with --jobs 1 and --jobs 2 and checks that the
two results CSVs are byte-identical.  Prints
the structural counts of the traced runs.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import SIZES, run

COUNTS = (
    "detection.correlate_calls",
    "channel.channel_taps_calls_per_vehicle",
    "beamtraining.sinr_calls",
    "neural.train_calls",
    "scenario.pool_busy_frac",
    "trace.overhead_frac",
)


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    traced = {}
    for workload in SIZES:
        for trace in (False, True):
            result, record = run(root, workload, seed=1, seconds=0, trace=trace, tiny=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{workload} trace={int(trace)}"
            if not result["correct"]:
                failures.append(f"{label}: {result['failed']} of {result['attempted']} items failed")
            if got != wanted[trace]:
                diff = set(got.items()) ^ set(wanted[trace].items())
                failures.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(diff)}")
            if trace:
                traced[workload] = result["metrics"]
                pairs = {}
                for c in record["commands"]:
                    if c["round"] > 0:
                        pairs.setdefault(c["traced"], []).append(c["digests"])
                if pairs[False] != pairs[True]:
                    failures.append(f"{label}: traced outputs differ from untraced ones")
            print(f"{label}: {result['attempted']} items, correct={result['correct']}")

    digests = []
    for jobs in (1, 2):
        result, record = run(root, "sweep-jobs2", seed=1, seconds=0, trace=False,
                             tiny=True, jobs=jobs)
        digests.append([c["digests"].get("results.csv") for c in record["commands"]])
        print(f"sweep-jobs2 --jobs {jobs}: results.csv {digests[-1]}")
    if digests[0] != digests[1] or None in digests[0]:
        failures.append(f"jobs=1 and jobs=2 results differ: {digests}")

    print("\n" + "".ljust(40) + "".join(w.ljust(13) for w in traced))
    for name in COUNTS:
        print(name.ljust(40) + "".join(f"{traced[w][name]['value']:<13.4g}" for w in traced))
    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
