"""quiverfold benchmark: end-to-end metrics per workload, or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: unfold, cube-tree, cube-random, category (see README.md).

The run repeats the workload's fixed-size job, each repetition in a fresh
single-threaded interpreter (worker.py) that shares one CPU with a reference
counter (reference.py), one after another, for about S seconds and at least
MIN_REPS repetitions.  After each, SETUP_REPS more interpreters do the
set-up only.  Every job's output is checked; a failed check makes
``correct`` false and the exit code 1.

``--trace 0`` reports the medians over repetitions of work_rounds, setup_s
and peak_rss_mb.  ``--trace 1`` runs the same untraced repetitions, then one
traced repetition, and reports the per-layer metrics of the traced one plus
trace.overhead (traced work_rounds over the untraced median).  The trace itself
goes to perfbench/out/.

The second-to-last line of output is the run's metadata; the last line is
the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_REPS = 3
# Set-up only repetitions after each full one: set-up takes a tenth of a
# second, so a median over a run's few full repetitions alone is too noisy.
SETUP_REPS = 3
# A repetition takes a few seconds; stop starting new ones well before the
# 180 s a run may take, and kill one that hangs.
START_LIMIT_S = 120
REP_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from workloads import SELFTEST_PLANS, WORKLOADS  # noqa: E402  (needs the path above)


def run_worker(workload: str, seed: int, trace_out: Path | None = None,
               setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if setup_only:
        cmd.append("--setup-only")
    # Fixed hash seed: set iteration order, and so the traced counts, repeat.
    # Bytecode caching on, whatever the caller's environment says: setup_s
    # then measures an import from .pyc files, as an installed CLI does.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    jobs = 1 if setup_only else {**WORKLOADS, **SELFTEST_PLANS}[workload][3]
    failed = {"jobs": [{"name": "worker", "ok": False, "detail": "no report"}] * jobs}
    # Its own process group, so that the worker and its reference counter
    # can be killed together.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, process_group=0)
    try:
        stdout, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        print(f"perfbench: {workload} repetition timed out", file=sys.stderr)
        return failed
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(stderr[-2000:])
        print(f"perfbench: {workload} repetition exited {proc.returncode}", file=sys.stderr)
        return failed
    for job in report["jobs"]:
        if not job["ok"]:
            print(f"perfbench: FAILED {job['name']}: {job['detail']}", file=sys.stderr)
    return report


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, reps: int) -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "src_lines": lines,
        "src_files": len(files),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": reps,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "quiverfold" / "__init__.py").is_file():
        print(f"perfbench: no quiverfold sources in {ROOT / 'src'}", file=sys.stderr)
        return 2

    reports = []
    setups = []
    start = time.perf_counter()
    elapsed = 0.0
    # End as close to --seconds as whole repetitions allow.
    while len(reports) < MIN_REPS or elapsed + elapsed / len(reports) / 2 < args.seconds:
        if elapsed > START_LIMIT_S:
            break
        reports.append(run_worker(args.workload, args.seed))
        setups += [run_worker(args.workload, args.seed, setup_only=True)
                   for _ in range(SETUP_REPS)]
        elapsed = time.perf_counter() - start
    timed = [r for r in reports if "work_rounds" in r]

    traced = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        traced = run_worker(args.workload, args.seed, trace_path)
        reports.append(traced)

    jobs = [job for r in reports + setups for job in r["jobs"]]
    failed = sum(not job["ok"] for job in jobs)
    setup_s = [r["setup_s"] for r in timed + setups if "setup_s" in r]
    correct = (failed == 0 and len(timed) == len(reports) - bool(traced)
               and len(setup_s) == len(timed) + len(setups))
    if not correct or (traced is not None and "layer_metrics" not in traced):
        correct = False
        metrics = {}
    elif traced is not None:
        metrics = {
            name: {"value": value, "unit": traced["layer_units"][name]}
            for name, value in traced["layer_metrics"].items()
        }
        overhead = traced["work_rounds"] / statistics.median(r["work_rounds"] for r in timed)
        metrics["trace.overhead"] = {"value": overhead, "unit": "x"}
    else:
        metrics = {
            "work_rounds": {"value": statistics.median(r["work_rounds"] for r in timed),
                            "unit": "rounds"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in timed),
                            "unit": "MB"},
        }

    meta = metadata(args, len(timed))
    if traced is not None and trace_path.is_file():
        data = json.loads(trace_path.read_text())
        data["meta"] = meta
        data["metrics"] = metrics
        trace_path.write_text(json.dumps(data))
        meta["trace_file"] = trace_path.relative_to(ROOT).as_posix()
    print(json.dumps({"meta": meta, "failed_frac": failed / len(jobs),
                      "work_rounds_all": [r["work_rounds"] for r in timed],
                      "shared_wall_s_all": [r["shared_wall_s"] for r in timed]}))
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
