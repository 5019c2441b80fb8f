"""Outside-in tracing of quiverfold for the benchmark's traced run.

``install`` wraps, from outside the library, the public functions and
methods of every quiverfold module.  A function imported into several
modules (``mutate_entries`` lives in ``exchange`` and is imported into
``unfolding`` and ``tropical``) gets one wrapper, bound under every name.
Nothing in ``src/`` changes, and the untraced run never imports this file.

Three kinds of wrapper:

* span: coarse layer boundaries.  Every call is kept in memory as a record
  ``[group, parent span, start, end, child seconds, nested]``.
* leaf: hot calls (sign, mutation, helpers).  Aggregated per parent span
  into calls, time and self time.
* count: ``AlgReal`` construction, counted per parent span, not timed.

Self time is a call's time minus the time of the wrapped calls directly
inside it.  A group's total time counts only its outermost calls, so
recursion (``det_laplace``) and aliased groups (``repcat.hom_ext``) are not
counted twice.  ``layer_metrics`` turns the records into the per-layer
metrics; ``dump`` writes everything out at the end.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time

MODULES = ("chebring", "exchange", "unfolding", "rootsys", "repcat", "clustercat",
           "tropical", "cli")

# Layer boundaries, called at most a few thousand times per job.
SPANS = frozenset({
    "unfolding.standard_folding",
    "unfolding.check_weighted_unfolding",
    "rootsys.generate_roots",
    "repcat.ARQuiver.__init__",
    "repcat.FoldedCategory.__init__",
    "repcat.FoldedCategory.verify_folding_theorem",
    "repcat.hom_ext_tables",
    "clustercat.ClusterCategory.__init__",
    "clustercat.ClusterCategory.compatibility",
    "clustercat.ClusterCategory.enumerate_tilting",
    "clustercat.ClusterCategory.exchange_graph",
    "tropical.TropicalWalker.__init__",
    "tropical.TropicalWalker.verify_cube",
    "tropical.TropicalWalker.check_vertex",
    "tropical.enumerate_seeds",
    "cli.main",
    "cli.cmd_ring",
    "cli.cmd_mutate",
    "cli.cmd_unfold",
    "cli.cmd_ar",
    "cli.cmd_fold",
    "cli.cmd_tropical",
    "cli.cmd_tilting",
    "cli.cmd_verify",
})
# Constructed millions of times: counted, not timed.
COUNTS = frozenset({"chebring.AlgReal.__init__"})
# Not wrapped: one-line dispatchers and accessors called per matrix entry,
# whose wrapper would cost more than their body.  Their time stays in the
# self time of the caller.
SKIP = frozenset({"exchange.sgn", "chebring.AlgReal.is_zero", "chebring.ChebElem.is_zero"})
# Private helpers wrapped because a check kind needs them.
PRIVATE = frozenset({"tropical._mat_mul_int"})
# Functions reported as one group.
ALIASES = {
    "repcat.ARQuiver.hom_row": "repcat.hom_ext",
    "repcat.ARQuiver.hom": "repcat.hom_ext",
    "repcat.ARQuiver.ext": "repcat.hom_ext",
    "repcat.hom_ext_tables": "repcat.hom_ext",
    "unfolding.conditions_hold": "unfolding.conditions",
    "unfolding.check_conditions": "unfolding.conditions",
}
# Direct children of a check_vertex span, by the check kind that calls them.
# Neighbour steps belong to the cube check.
CHECK_KINDS = {
    "chebring.AlgReal.sign": "roots",
    "rootsys.RootSet.is_root": "roots",
    "tropical.matrix_d_F": "cube",
    "tropical.invert_integer": "cube",
    "tropical.invert_ring_unimodular": "cube",
    "tropical.transpose": "cube",
    "tropical.mat_mul": "cube",
    "tropical.TropicalWalker.step": "cube",
    "tropical.TropicalWalker.c_block": "blocks",
    "tropical.TropicalWalker.block_element": "blocks",
    "tropical._mat_mul_int": "blocks",
    "chebring.ChebElem.sign_coherent": "blocks",
    "tropical.det_laplace": "dets",
    "tropical.det_cheb": "dets",
    "chebring.sigma": "dets",
    "chebring.ChebElem.one": "dets",
}


class Tracer:
    def __init__(self):
        self.spans = []          # [group, parent, start, end, child_s, nested]
        self.leaves = {}         # (parent span, group) -> [calls, outer_s, self_s, direct_s]
        self.counts = {}         # (parent span, group) -> calls
        self.sign_values = set()
        self.unfold_states = set()
        self.tropical_states = set()
        self.unfold_words = 0
        self.tropical_words = 0
        self.wrapped = 0
        self._frames = [[0.0, True]]   # [child seconds, is a span]
        self._span_ids = [-1]
        self._active = {}
        self._probe_table = self._probes()

    # -- probes: work counts taken outside the timed region ------------------
    def _probes(self):
        def sign(args):
            self.sign_values.add((args[0].m, args[0].coeffs))

        def conditions(args):
            self.unfold_states.add((args[0], args[1].entries))

        def vertex(args):
            self.tropical_states.add((args[1], args[2]))

        def unfold_report(report):
            self.unfold_words += report.words_checked

        def cube_report(report):
            self.tropical_words += report.vertices_checked

        return {
            "chebring.AlgReal.sign": (sign, None),
            "unfolding.conditions_hold": (conditions, None),
            "tropical.TropicalWalker.check_vertex": (vertex, None),
            "unfolding.check_weighted_unfolding": (None, unfold_report),
            "tropical.TropicalWalker.verify_cube": (None, cube_report),
        }

    # -- wrappers ------------------------------------------------------------
    def _span(self, group, fn, before=None, after=None):
        spans, frames, ids, active = self.spans, self._frames, self._span_ids, self._active
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                before(args)
            depth = active.get(group, 0)
            active[group] = depth + 1
            frame = [0.0, True]
            rec = [group, ids[-1], 0.0, 0.0, 0.0, depth > 0]
            ids.append(len(spans))
            spans.append(rec)
            frames.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                frames.pop()
                ids.pop()
                active[group] = depth
                rec[2], rec[3], rec[4] = t0, t1, frame[0]
                frames[-1][0] += t1 - t0
            if after is not None:
                after(result)
            return result

        return span

    def _leaf(self, group, fn, before=None):
        leaves, frames, ids, active = self.leaves, self._frames, self._span_ids, self._active
        perf = time.perf_counter

        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            if before is not None:
                before(args)
            depth = active.get(group, 0)
            active[group] = depth + 1
            frame = [0.0, False]
            frames.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                frames.pop()
                active[group] = depth
                parent = frames[-1]
                parent[0] += dt
                key = (ids[-1], group)
                rec = leaves.get(key)
                if rec is None:
                    rec = leaves[key] = [0, 0.0, 0.0, 0.0]
                rec[0] += 1
                rec[2] += dt - frame[0]
                if not depth:
                    rec[1] += dt
                if parent[1]:
                    rec[3] += dt

        return leaf

    def _count(self, group, fn):
        counts, ids = self.counts, self._span_ids

        @functools.wraps(fn)
        def count(*args, **kwargs):
            key = (ids[-1], group)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return count

    def call(self, name, fn, *args):
        """Run benchmark code, such as the set-up or the job, as a span."""
        return self._span(name, fn)(*args)

    def wrap(self, qualname, fn):
        group = ALIASES.get(qualname, qualname)
        before, after = self._probe_table.get(qualname, (None, None))
        self.wrapped += 1
        if qualname in COUNTS:
            return self._count(group, fn)
        if qualname in SPANS:
            return self._span(group, fn, before, after)
        return self._leaf(group, fn, before)

    # -- results -------------------------------------------------------------
    def groups(self) -> dict:
        """Per group: calls, total seconds (outermost calls) and self seconds."""
        out = {}

        def entry(group):
            return out.setdefault(group, {"calls": 0, "s": 0.0, "self_s": 0.0})

        for group, _, t0, t1, child, nested in self.spans:
            g = entry(group)
            g["calls"] += 1
            g["self_s"] += t1 - t0 - child
            if not nested:
                g["s"] += t1 - t0
        for (_, group), (calls, outer, self_s, _) in self.leaves.items():
            g = entry(group)
            g["calls"] += calls
            g["s"] += outer
            g["self_s"] += self_s
        for (_, group), calls in self.counts.items():
            entry(group)["calls"] += calls
        return out

    def layer_metrics(self, out_bytes: int) -> dict:
        """The per-layer metrics of BENCHMARK.json, except trace.overhead."""
        groups = self.groups()

        def calls(group):
            return groups.get(group, {}).get("calls", 0)

        def total(group):
            return groups.get(group, {}).get("s", 0.0)

        def self_s(group):
            return groups.get(group, {}).get("self_s", 0.0)

        kinds = {"roots": 0.0, "cube": 0.0, "blocks": 0.0, "dets": 0.0}
        steps, step_s = 0, 0.0
        vertex_spans = {i for i, rec in enumerate(self.spans)
                        if rec[0] == "tropical.TropicalWalker.check_vertex"}
        walk_spans = {i for i, rec in enumerate(self.spans)
                      if rec[0] == "tropical.TropicalWalker.verify_cube"}
        for (parent, group), (n, _, _, direct) in self.leaves.items():
            if parent in vertex_spans and group in CHECK_KINDS:
                kinds[CHECK_KINDS[group]] += direct
            elif parent in walk_spans and group == "tropical.TropicalWalker.step":
                steps += n
                step_s += direct

        s, count = "s", "count"
        return {
            "chebring.sign.calls": (calls("chebring.AlgReal.sign"), count),
            "chebring.sign.distinct": (len(self.sign_values), count),
            "chebring.sign.s": (total("chebring.AlgReal.sign"), s),
            "chebring.algreal.made": (calls("chebring.AlgReal.__init__"), count),
            "chebring.sigma.calls": (calls("chebring.sigma"), count),
            "chebring.sigma.s": (total("chebring.sigma"), s),
            "exchange.mutate.calls": (calls("exchange.mutate_entries"), count),
            "exchange.mutate.s": (self_s("exchange.mutate_entries"), s),
            "unfolding.words": (self.unfold_words, count),
            "unfolding.states": (len(self.unfold_states), count),
            "unfolding.conditions.calls": (calls("unfolding.conditions"), count),
            "unfolding.conditions.s": (total("unfolding.conditions"), s),
            "rootsys.is_root.calls": (calls("rootsys.RootSet.is_root"), count),
            "rootsys.is_root.s": (total("rootsys.RootSet.is_root"), s),
            "rootsys.build.s": (total("rootsys.generate_roots"), s),
            "tropical.words": (self.tropical_words, count),
            "tropical.states": (len(self.tropical_states), count),
            "tropical.check_vertex.calls": (calls("tropical.TropicalWalker.check_vertex"), count),
            "tropical.check.roots.s": (kinds["roots"], s),
            "tropical.check.cube.s": (kinds["cube"], s),
            "tropical.check.blocks.s": (kinds["blocks"], s),
            "tropical.check.dets.s": (kinds["dets"], s),
            "tropical.step.calls": (steps, count),
            "tropical.step.s": (step_s, s),
            "repcat.knit.s": (total("repcat.ARQuiver.__init__"), s),
            "repcat.fold.s": (total("repcat.FoldedCategory.__init__"), s),
            "repcat.hom_ext.s": (total("repcat.hom_ext"), s),
            "clustercat.enumerate.s": (total("clustercat.ClusterCategory.enumerate_tilting"), s),
            "clustercat.complements.calls": (calls("clustercat.ClusterCategory.complements"), count),
            "clustercat.complements.s": (total("clustercat.ClusterCategory.complements"), s),
            "clustercat.g_matrices.s": (total("clustercat.ClusterCategory.tilting_G_matrices"), s),
            "clustercat.g_vector_folded.calls": (
                calls("clustercat.ClusterCategory.g_vector_folded"), count),
            "clustercat.exchange_graph.s": (total("clustercat.ClusterCategory.exchange_graph"), s),
            "cli.main.calls": (calls("cli.main"), count),
            "cli.self.s": (sum((g["self_s"] for name, g in groups.items()
                                if name.startswith("cli.")), 0.0), s),
            "cli.out_bytes": (out_bytes, "B"),
        }

    def dump(self, path, extra: dict) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        data = dict(extra)
        data["groups"] = self.groups()
        data["spans"] = [
            {"group": g, "parent": p, "start": t0 - origin, "s": t1 - t0,
             "self_s": t1 - t0 - child}
            for g, p, t0, t1, child, _ in self.spans
        ]
        data["leaves"] = [
            {"parent": p, "group": g, "calls": n, "s": outer, "self_s": own}
            for (p, g), (n, outer, own, _) in sorted(self.leaves.items())
        ]
        data["counts"] = [
            {"parent": p, "group": g, "calls": n} for (p, g), n in sorted(self.counts.items())
        ]
        with open(path, "w") as fh:
            json.dump(data, fh)


def _targets(modules):
    """(qualified name, namespace, attribute, function) for everything to wrap."""
    found = []
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            qual = f"{short}.{name}"
            defined_here = getattr(obj, "__module__", None) == mod.__name__
            if not defined_here or qual in SKIP:
                continue
            if inspect.isclass(obj):
                if not name.startswith("_"):
                    found += _class_targets(short, obj)
            elif callable(obj) and (not name.startswith("_") or qual in PRIVATE):
                found.append((qual, mod, name, obj))
    return found


def _class_targets(short, cls):
    found = []
    for name, attr in vars(cls).items():
        qual = f"{short}.{cls.__name__}.{name}"
        if qual in SKIP:
            continue
        if name == "__init__":
            if dataclasses.is_dataclass(cls):
                continue
        elif name.startswith("_"):
            continue
        if isinstance(attr, staticmethod) or inspect.isfunction(attr):
            found.append((qual, cls, name, attr))
    return found


def install(tracer: Tracer) -> None:
    """Wrap every binding of every traced function, in every quiverfold module."""
    package = importlib.import_module("quiverfold")
    modules = [importlib.import_module(f"quiverfold.{name}") for name in MODULES]
    replaced = {}
    for qual, owner, name, obj in _targets(modules):
        if isinstance(obj, staticmethod):
            setattr(owner, name, staticmethod(tracer.wrap(qual, obj.__func__)))
        elif inspect.isclass(owner):
            setattr(owner, name, tracer.wrap(qual, obj))
        else:
            replaced[id(obj)] = (obj, tracer.wrap(qual, obj))
    for namespace in modules + [package]:
        for name, obj in list(vars(namespace).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(namespace, name, hit[1])
