"""The benchmark's workloads: fixed-size verification jobs and their checks.

Each workload has three parts:

* ``setup(seed)`` imports quiverfold and builds the specs, walkers and
  categories the jobs need.  The worker times it as ``setup_s``.
* ``run(state, seed)`` makes the library or CLI calls.  The worker times it
  as ``work_rounds`` (see reference.py).
* ``check(state, seed, results)`` turns the results into jobs.  A job is one
  library verification call or one CLI command; its check does not depend
  on the seed (``passed``, closed-form word counts, tilting counts, CLI
  stdout digests).

No module-level import of quiverfold here: the import is part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

DIGESTS_FILE = Path(__file__).resolve().parent / "cli_digests.json"

# Criterion 2 of tests/test_acceptance.py, scaled down: all five foldings,
# every word of length <= 5 plus 40 random length-20 words each.
UNFOLD_PLAN = (("F4E6", None), ("I2m", 5), ("I2m", 6), ("H3", None), ("H4", None))
UNFOLD_SIZE = {"depth": 5, "random_words": 20, "random_length": 20}
# The unscaled criterion-2 plan; only the self-test runs it (seed 11).
CRITERION2_SIZE = {"depth": 6, "random_words": 200, "random_length": 20}

# Criteria 8-10 scaled down: exhaustive word trees, all four checks.
CUBE_TREE_PLAN = (("H4", None, 4), ("I2", 3, 8))
# Criteria 8-10 random part: roots check per step, full check per walk end.
CUBE_RANDOM_PLAN = (("H4", None), ("I2", 3))
CUBE_RANDOM_WALKS = 60
CUBE_RANDOM_LENGTH = 30

CATEGORY_KINDS = (("H4",), ("H3",), ("I2", "3"), ("I2", "4"))
CATEGORY_COMMANDS = (
    ("tilting", "enumerate"),
    ("tilting", "graph", "--format", "json"),
    ("ar", "build", "--tables"),
    ("fold", "dims", "--format", "csv"),
    ("verify", "all", "--depth", "1", "--random", "0"),
)
# Per kind: folded rank, tilting objects (= clusters of H4, H3, I2(2n+1)),
# and indecomposable modules of the unfolded quiver (E8, D6, A6, A8).
CATEGORY_EXPECTED = {
    ("H4",): (4, 280, 120),
    ("H3",): (3, 32, 30),
    ("I2", "3"): (2, 9, 21),
    ("I2", "4"): (2, 11, 36),
}


def tree_words(mprime: int, depth: int, walks: int = 0, length: int = 0) -> int:
    """Words one prefix-tree walk covers: 1 + sum_{l=1..depth} m'^l + walks*length."""
    return sum(mprime ** level for level in range(depth + 1)) + walks * length


def _job(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _label(kind, n) -> str:
    return kind if n is None else f"{kind}({n})"


# -- unfold --------------------------------------------------------------------


def _unfold_setup(seed):
    from quiverfold.unfolding import standard_folding

    return [(kind, n, standard_folding(kind, n)) for kind, n in UNFOLD_PLAN]


def _unfold_runner(size):
    def run(specs, seed):
        from quiverfold.unfolding import check_weighted_unfolding

        return [check_weighted_unfolding(spec, seed=seed, **size) for _, _, spec in specs]

    return run


def _unfold_checker(size):
    def check(specs, seed, reports):
        jobs = []
        for (kind, n, spec), report in zip(specs, reports):
            expected = tree_words(
                spec.B.n, size["depth"], size["random_words"], size["random_length"]
            )
            ok = report.passed and report.words_checked == expected
            jobs.append(_job(
                f"unfold {_label(kind, n)}", ok,
                f"passed={report.passed} words={report.words_checked} expected={expected}",
            ))
        return jobs

    return check


# -- cube-tree and cube-random -------------------------------------------------


def _cube_setup(plan):
    def setup(seed):
        from quiverfold.tropical import TropicalWalker
        from quiverfold.unfolding import standard_folding

        walkers = []
        for entry in plan:
            kind, n = entry[0], entry[1]
            walkers.append((entry, TropicalWalker(standard_folding(kind, n))))
        return walkers

    return setup


def _cube_tree_run(walkers, seed):
    return [walker.verify_cube(depth=entry[2]) for entry, walker in walkers]


def _cube_random_run(walkers, seed):
    return [
        walker.verify_cube(
            depth=0,
            random_words=CUBE_RANDOM_WALKS,
            random_length=CUBE_RANDOM_LENGTH,
            seed=seed,
        )
        for _, walker in walkers
    ]


def _cube_check(walkers, expected_words, reports):
    jobs = []
    for (entry, walker), report, expected in zip(walkers, reports, expected_words):
        ok = report.passed and report.vertices_checked == expected
        jobs.append(_job(
            f"cube {_label(entry[0], entry[1])}", ok,
            f"passed={report.passed} words={report.vertices_checked} expected={expected}"
            + (f" first={report.failures[0]!r}" if report.failures else ""),
        ))
    return jobs


def _cube_tree_check(walkers, seed, reports):
    expected = [tree_words(w.mprime, entry[2]) for entry, w in walkers]
    return _cube_check(walkers, expected, reports)


def _cube_random_check(walkers, seed, reports):
    expected = [
        tree_words(w.mprime, 0, CUBE_RANDOM_WALKS, CUBE_RANDOM_LENGTH) for _, w in walkers
    ]
    return _cube_check(walkers, expected, reports)


# -- category ------------------------------------------------------------------


def category_argvs():
    return [list(cmd) + _kind_args(kind) for kind in CATEGORY_KINDS for cmd in CATEGORY_COMMANDS]


def _kind_args(kind) -> list:
    return ["--kind", kind[0]] + (["--n", kind[1]] if len(kind) > 1 else [])


def _category_setup(seed):
    from quiverfold.cli import main
    from quiverfold.clustercat import ClusterCategory
    from quiverfold.unfolding import standard_folding

    for kind in CATEGORY_KINDS:
        n = int(kind[1]) if len(kind) > 1 else None
        ClusterCategory(standard_folding(kind[0], n))
    return main


def _category_run(main, seed):
    outputs = []
    for argv in category_argvs():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        outputs.append((argv, code, buf.getvalue()))
    return outputs


def _category_check(main, seed, outputs):
    digests = json.loads(DIGESTS_FILE.read_text())
    jobs = []
    for argv, code, out in outputs:
        name = " ".join(argv)
        kind = tuple(argv[argv.index("--kind") + 1:][::2])
        rank, tilts, modules = CATEGORY_EXPECTED[kind]
        digest = hashlib.sha256(out.encode()).hexdigest()
        problems = []
        if code != 0:
            problems.append(f"exit={code}")
        if digest != digests.get(name):
            problems.append(f"sha256={digest}")
        problems += _category_content(argv, out, rank, tilts, modules)
        jobs.append(_job(f"cli {name}", not problems, " ".join(problems) or "ok"))
    return jobs


def _category_content(argv, out, rank, tilts, modules) -> list:
    """Closed-form checks on one command's output, independent of the digest."""
    try:
        if argv[:2] == ["tilting", "enumerate"]:
            data = json.loads(out)
            got = (data["count"], len(data["objects"]))
            return [] if got == (tilts, tilts) else [f"tilting={got}"]
        if argv[:2] == ["tilting", "graph"]:
            data = json.loads(out)
            # the exchange graph is rank-regular: every object has rank neighbours
            got = (len(data["nodes"]), len(data["edges"]))
            return [] if got == (tilts, tilts * rank // 2) else [f"graph={got}"]
        if argv[:2] == ["ar", "build"]:
            data = json.loads(out)
            got = (len(data["modules"]), len(data["hom"]), len(data["ext"]))
            return [] if got == (modules,) * 3 else [f"ar={got}"]
        if argv[:2] == ["fold", "dims"]:
            got = len(out.splitlines()) - 1
            return [] if got == modules else [f"rows={got}"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable {type(exc).__name__}"]
    lines = out.splitlines()
    problems = [line for line in lines if not line.startswith("PASS ")]
    words = tree_words(rank, 1)
    for token in (f"words={words} ", f"vertices={words} ", f"count={tilts}"):
        if not any(token in line + " " for line in lines):
            problems.append(f"missing {token.strip()}")
    return problems


# -- table ---------------------------------------------------------------------

# name -> (setup, run, check, number of jobs)
WORKLOADS = {
    "unfold": (
        _unfold_setup, _unfold_runner(UNFOLD_SIZE), _unfold_checker(UNFOLD_SIZE),
        len(UNFOLD_PLAN),
    ),
    "cube-tree": (
        _cube_setup(CUBE_TREE_PLAN), _cube_tree_run, _cube_tree_check, len(CUBE_TREE_PLAN),
    ),
    "cube-random": (
        _cube_setup(CUBE_RANDOM_PLAN), _cube_random_run, _cube_random_check,
        len(CUBE_RANDOM_PLAN),
    ),
    "category": (
        _category_setup, _category_run, _category_check,
        len(CATEGORY_KINDS) * len(CATEGORY_COMMANDS),
    ),
}

# Plans the worker runs only for the self-test, never as a benchmark workload.
SELFTEST_PLANS = {
    "criterion-2": (
        _unfold_setup, _unfold_runner(CRITERION2_SIZE), _unfold_checker(CRITERION2_SIZE),
        len(UNFOLD_PLAN),
    ),
}
