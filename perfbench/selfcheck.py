"""Quick self-check of the benchmark itself, at tiny sizes.

    python3 perfbench/selfcheck.py

For every workload, at a fiftieth of the trials (at least 100) and 2
verify draws, it checks that:

1. every metric BENCHMARK.json lists is computed, with its unit, and no
   other; end-to-end values are positive;
2. the counts (trials, gen_pairs/substream calls, evaluations, checks,
   ``*_ok_frac``, stdout bytes) repeat exactly across two traced passes
   with one seed;
3. a second seed also passes every correctness check.

Exits 1 and names each problem if any check fails.
"""

from __future__ import annotations

import math
import sys

import run
import tracing
import workloads

SEEDS = (1, 2)


def is_count(name: str, unit: str) -> bool:
    return unit in ("count", "bytes") or name.endswith("_ok_frac")


def check_workload(workload: str, units: dict) -> list[str]:
    problems = []
    # Passes alternate untraced/traced, so four passes give two traced ones.
    result = run.measure(workload, SEEDS[0], 0, True, tiny=True,
                         setup_samples=1, min_passes=4)
    for kind in ("end_to_end", "per_layer"):
        computed = set(result[kind])
        listed = set(units[kind])
        if computed != listed:
            problems.append(
                f"{kind}: missing {sorted(listed - computed)}, "
                f"unlisted {sorted(computed - listed)}"
            )
    for name, value in result["end_to_end"].items():
        if not (math.isfinite(value) and value > 0):
            problems.append(f"end_to_end {name} = {value}")
    lines = "\n".join(run.summary_lines(workload, result, trace=True))
    report_names = ["setup_s", "wall_s", "ops_per_s", "trials_per_s",
                    "time_to_2pct_s", "peak_rss_mb", "fail_frac"]
    if workload == "literal_and_verify":
        report_names.append("checks_per_s")
    problems += [f"summary lacks {n}" for n in report_names if n not in lines]

    tracer = result["tracer"]
    covered = tracing.child_coverage(tracer.spans)
    first, second = (
        tracing.pass_layer_metrics(tracer.spans, covered, p.pass_id, p.records)
        for p in result["passes"] if p.traced
    )
    for name, unit in units["per_layer"].items():
        if is_count(name, unit) and first.get(name) != second.get(name):
            problems.append(f"count {name}: {first.get(name)} vs {second.get(name)}")

    for seed, res in ((SEEDS[0], result),
                      (SEEDS[1], run.measure(workload, SEEDS[1], 0, False, tiny=True,
                                             setup_samples=1))):
        if res["failed"] or not res["attempted"]:
            problems.append(
                f"seed {seed}: {res['failed']}/{res['attempted']} operations failed"
            )
    return problems


def main() -> int:
    units = run.load_units()
    failed = False
    for workload in workloads.WORKLOADS:
        problems = check_workload(workload, units)
        failed |= bool(problems)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
