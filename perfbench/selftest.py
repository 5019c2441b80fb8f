"""Self-test of the benchmark itself, not of quiverfold.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Checks three things, each in fresh worker processes:

1. Two traced runs of every workload with the same seed give identical
   counts (every per-layer metric whose unit is ``count`` or ``B``: the
   ``*.calls``, ``*.words``, ``*.states`` and ``*.distinct`` metrics and
   the rest).
2. Every workload passes all of its correctness checks on another seed.
3. The tracer's counts agree with the known figures of the unscaled
   criterion-2 plan (tests/test_acceptance.py) at seed 11: 32,269 words,
   490 distinct states, 373,319 sign calls on 8 distinct values.

Takes about two minutes on 2 cores.  Exits 0 when all checks pass.
Traces go to perfbench/out/selftest-*.json.
"""

from __future__ import annotations

import sys

from run import OUT, run_worker
from workloads import WORKLOADS

SEED, OTHER_SEED = 7, 1234
CRITERION2 = {
    "unfolding.words": 32269,
    "unfolding.states": 490,
    "chebring.sign.calls": 373319,
    "chebring.sign.distinct": 8,
}


def counts(report: dict) -> dict:
    units = report["layer_units"]
    return {k: v for k, v in report["layer_metrics"].items() if units[k] in ("count", "B")}


def traced(workload: str, seed: int, tag: str) -> dict:
    report = run_worker(workload, seed, OUT / f"selftest-{workload}-{tag}.json")
    if "layer_metrics" not in report:
        raise SystemExit(f"selftest: traced {workload} run failed")
    return report


def main() -> int:
    OUT.mkdir(exist_ok=True)
    problems = []
    for workload in WORKLOADS:
        first = counts(traced(workload, SEED, "a"))
        second = counts(traced(workload, SEED, "b"))
        differ = sorted(k for k in first if first[k] != second.get(k))
        print(f"repeat  {workload}: {len(first)} counts, {len(differ)} differ")
        if differ:
            problems.append(f"{workload}: counts differ between runs: {differ}")

        report = run_worker(workload, OTHER_SEED)
        bad = [job["name"] for job in report["jobs"] if not job["ok"]]
        print(f"seed    {workload}: {len(report['jobs'])} jobs at seed {OTHER_SEED}, "
              f"{len(bad)} failed")
        if bad or "work_rounds" not in report:
            problems.append(f"{workload}: failed at seed {OTHER_SEED}: {bad}")

    got = traced("criterion-2", 11, "seed11")["layer_metrics"]
    for name, expected in CRITERION2.items():
        print(f"crit-2  {name} = {got[name]} (expected {expected})")
        if got[name] != expected:
            problems.append(f"criterion-2 {name} = {got[name]}, expected {expected}")

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
