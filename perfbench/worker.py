"""One benchmark repetition: set-up, one job and its checks, in this process.

``run.py`` starts a fresh interpreter for every repetition, because the
library keeps state for the life of a process: the ``lru_cache``s on
``minimal_poly``, ``cyclotomic``, ``reg_rep`` and ``_basis_product``, the
root systems in ``rootsys._ROOT_CACHE``, and the isolating intervals in
``chebring._ROOT_CONTEXTS``, which every sign call refines further.  A CLI
user pays for filling them on every invocation.

Usage: python3 perfbench/worker.py --workload NAME --seed N
                                   [--trace-out PATH | --setup-only]

Prints one JSON object as its last line of output.  With ``--trace-out``
the run is traced (see tracer.py) and the trace is written to PATH.  With
``--setup-only`` it stops after set-up and reports only ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    sys.path.insert(0, str(SRC))
    import reference
    import workloads

    plans = {**workloads.WORKLOADS, **workloads.SELFTEST_PLANS}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(plans))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    setup, run, check, _ = plans[args.workload]
    # One CPU for the repetition and its counter (see reference.py): the
    # host's vCPUs change speed independently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    tracer = None
    counter = reference.Counter()
    try:
        t0 = time.perf_counter()
        import quiverfold

        if not Path(quiverfold.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"quiverfold imported from {quiverfold.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if args.trace_out:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            state = tracer.call("bench.setup", setup, args.seed)
        else:
            state = setup(args.seed)
        t1 = time.perf_counter()
        if args.setup_only:
            print(json.dumps({"workload": args.workload, "seed": args.seed,
                              "setup_s": t1 - t0, "jobs": []}))
            return 0
        counter.start()
        rounds = counter.rounds()
        t2 = time.perf_counter()
        if tracer is not None:
            results = tracer.call("bench.job", run, state, args.seed)
        else:
            results = run(state, args.seed)
        t3 = time.perf_counter()
        rounds = counter.rounds() - rounds
    finally:
        counter.stop()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    jobs = check(state, args.seed, results)
    out_bytes = 0
    if args.workload == "category":
        out_bytes = sum(len(out.encode()) for _, _, out in results)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": t1 - t0,
        "work_rounds": rounds,
        "shared_wall_s": t3 - t2,
        "peak_rss_mb": peak_kib / 1024,
        "jobs": jobs,
    }
    if tracer is not None:
        metrics = tracer.layer_metrics(out_bytes)
        report["layer_metrics"] = {k: v for k, (v, _) in metrics.items()}
        report["layer_units"] = {k: unit for k, (_, unit) in metrics.items()}
        report["wrapped"] = tracer.wrapped
        tracer.dump(args.trace_out, {"report": report})
    print(json.dumps(report))
    return 0 if all(job["ok"] for job in jobs) else 1


if __name__ == "__main__":
    sys.exit(main())
