"""Command-line front end: exact mutation, unfolding checks, AR quivers,
tropical walks, tilting enumeration and the combined verification suite.

All output is deterministic for a fixed argument vector: randomized checks
draw from one seeded generator per subcommand and the seed is echoed into
the report; JSON is emitted with sorted keys and no timestamps, by one
writer (``_json``) whose bytes are those of ``json.dumps(..., sort_keys=True,
indent=2)``.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import sys
from json.encoder import c_make_encoder, encode_basestring_ascii

from .chebring import AlgReal, ChebElem, cheb_mul, minimal_poly, reg_rep, sigma
from .clustercat import ClusterCategory, coxeter_catalan
from .exchange import ExchangeMatrix, coeff_rows
from .repcat import FoldedCategory, folded_type_name, hom_ext_tables
from .tropical import (
    CHECKS, TropicalWalker, check_set, enumerate_seeds, g_matrix, matrix_d_F,
)
from .unfolding import check_weighted_unfolding, standard_folding


def _ring_json(x):
    """``json.dumps`` ``default``: a ring value as its ``to_json()``."""
    if type(x) is AlgReal or type(x) is ChebElem:
        return x.to_json()
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


# The leaf types of a scalar container; a container whose members are all of
# these types is written by the C encoder in one call.
_SCALARS = frozenset((int, str, float, bool, type(None)))


def _json(data) -> str:
    """``json.dumps(data, sort_keys=True, indent=2)``, with ring values as ``to_json()``.

    CPython's C encoder does not indent, so ``json.dumps`` writes indented
    output in pure Python, one node at a time.  This writer produces the
    same bytes faster.  A scalar container (a list or tuple of only ints,
    strs, floats, bools and None, or a dict with str keys and such values)
    is written by one call of json's C encoder (``c_make_encoder``, made
    with the arguments ``json.JSONEncoder.encode`` would pass it for
    sort_keys=True, check_circular=False and no indent; ``encode`` itself
    where CPython has no C encoder): with the item separator ",\n" plus
    the indent, only the brackets need a newline and indent, so ``text[0] +
    "\n" + inner + text[1:-1] + "\n" + ind + text[-1]`` is the indented
    text.  One encoder is made per indent and call.  Other lists, tuples
    and str-keyed dicts are written here member by member; ints, strs,
    None and the bools as constants.  Every other node (a lone float, a
    dict with a non-str key) goes to ``json.dumps``, so json's own rules
    still decide it.  An
    ``AlgReal`` or ``ChebElem`` is written as its ``to_json()``, once per
    representation and indent: the memo key is (type, m or n, coeffs,
    indent), not the value, because ``AlgReal(m, (1,)) == 1`` but is
    written as a dict.
    """
    memo = {}
    encoders = {}

    def scalars(x, inner):
        encode = encoders.get(inner)
        if encode is None:
            if c_make_encoder is None:
                encode = json.JSONEncoder(
                    separators=(",\n" + inner, ": "), sort_keys=True, check_circular=False
                ).encode
            else:
                chunks = c_make_encoder(
                    None, None, encode_basestring_ascii, None, ": ", ",\n" + inner, True, False, True
                )
                encode = lambda y: "".join(chunks(y, 0))
            encoders[inner] = encode
        return encode(x)

    def write(x, ind):
        t = type(x)
        if t is int:
            return int.__repr__(x)
        if t is str:
            return encode_basestring_ascii(x)
        if x is None:
            return "null"
        if t is bool:
            return "true" if x else "false"
        if t is list or t is tuple:
            if not x:
                return "[]"
            inner = ind + "  "
            if _SCALARS.issuperset(map(type, x)):
                text = scalars(x, inner)
                return f"[\n{inner}{text[1:-1]}\n{ind}]"
            body = [write(v, inner) for v in x]
            return f"[\n{inner}" + f",\n{inner}".join(body) + f"\n{ind}]"
        if t is dict and all(type(k) is str for k in x):
            if not x:
                return "{}"
            inner = ind + "  "
            if _SCALARS.issuperset(map(type, x.values())):
                text = scalars(x, inner)
                return f"{{\n{inner}{text[1:-1]}\n{ind}}}"
            body = [f"{encode_basestring_ascii(k)}: {write(x[k], inner)}" for k in sorted(x)]
            return f"{{\n{inner}" + f",\n{inner}".join(body) + f"\n{ind}}}"
        if t is AlgReal or t is ChebElem:
            key = (t, x.m if t is AlgReal else x.n, x.coeffs, ind)
            text = memo.get(key)
            if text is None:
                text = memo[key] = write(x.to_json(), ind)
            return text
        # json never writes a raw newline inside a string, so re-indenting
        # its lines is exact
        text = json.dumps(x, sort_keys=True, indent=2, default=_ring_json)
        return text.replace("\n", "\n" + ind)

    return write(data, "")


def _float_texts(precision: int):
    """A function giving ``f"{float(c):.{precision}g}"``, each distinct value converted once.

    The memo is keyed by value: ``AlgReal(m, (1,)) == 1``, and both are 1.0.
    """
    memo = {}

    def text(c):
        out = memo.get(c)
        if out is None:
            out = memo[c] = f"{float(c):.{precision}g}"
        return out

    return text


class UsageError(Exception):
    """An argument value that argparse accepts but the command cannot use.

    ``main`` reports it on one line of stderr and exits with 2.
    """


def _emit(args, text: str) -> None:
    """Write ``text`` to stdout, or to the ``--out`` file that ``main`` opened."""
    text = text if text.endswith("\n") else text + "\n"
    (args.out or sys.stdout).write(text)


def _from_args(build, *args):
    """``build(*args)`` on values from the command line; a ValueError is a usage error."""
    try:
        return build(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _int_list(text: str) -> tuple:
    """Parse a comma-separated list of integers (``--a``, ``--b``)."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from None


def _vertex_list(text: str) -> tuple:
    """Parse ``--at``: comma-separated vertex indices; empty entries are skipped."""
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated vertex list: {text!r}") from None


def _spec_from(args):
    if args.kind in ("H3", "H4", "F4E6"):
        if args.n is not None:
            raise UsageError("--n applies only to --kind I2 and I2m")
        return standard_folding(args.kind)
    if args.kind == "I2":
        if args.n is None:
            raise UsageError("--kind I2 requires --n")
        return _from_args(standard_folding, "I2", args.n)
    if args.kind == "I2m":
        if args.n is None:
            raise UsageError("--kind I2m requires --n (the dihedral order m)")
        return _from_args(standard_folding, "I2m", args.n)
    raise UsageError(f"unknown kind {args.kind!r}")


def _words(args) -> dict:
    """``--depth``, ``--random``, ``--length`` and ``--seed``, as the word verifiers name them."""
    return {"depth": args.depth, "random_words": args.random, "random_length": args.length, "seed": args.seed}


# -- subcommand handlers ------------------------------------------------------


def cmd_ring(args) -> int:
    op = args.ring_op
    if op == "minpoly":
        data = {"m": args.m, "coeffs": list(_from_args(minimal_poly, args.m))}
    elif op == "regrep":
        matrix = _from_args(reg_rep, args.k, args.n)
        data = {"n": args.n, "k": args.k, "matrix": [list(r) for r in matrix]}
    elif op == "mul":
        a = _from_args(ChebElem, args.n, args.a)
        b = _from_args(ChebElem, args.n, args.b)
        prod = cheb_mul(a, b)
        data = {
            "product": prod.to_json(),
            "value": float(sigma(prod)),
        }
    else:  # sigma
        a = _from_args(ChebElem, args.n, args.a)
        data = {"image": sigma(a).to_json(), "value": float(sigma(a))}
    _emit(args, _json(data))
    return 0


def cmd_mutate(args) -> int:
    try:
        with open(args.matrix) as fh:
            out = ExchangeMatrix.from_json(json.load(fh))
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read --matrix {args.matrix}: {exc}") from None
    for k in args.at:
        try:
            out = out.mutate(k)
        except IndexError as exc:
            raise UsageError(str(exc)) from None
    _emit(args, _json(out.to_json()))
    return 0


def cmd_unfold(args) -> int:
    spec = _spec_from(args)
    if args.unfold_op == "build":
        _emit(args, _json(spec.to_json()))
        return 0
    report = check_weighted_unfolding(spec, **_words(args))
    _emit(args, _json(report.to_json()))
    return 0 if report.passed else 1


def cmd_ar(args) -> int:
    spec = _spec_from(args)
    cat = FoldedCategory(spec)
    if args.format == "dot":
        _emit(args, cat.ar_dot())
        return 0
    data = {
        "modules": [
            {
                "id": mod.ident,
                "dim": list(mod.dim),
                "orbit": mod.orbit,
                "slice": mod.slice,
                "projective_at": mod.proj_vertex,
                "injective_at": mod.inj_vertex,
                "projection": cat.dimproj[mod.ident],
            }
            for mod in cat.ar.modules
        ],
        "arrows": [list(a) for a in cat.ar.ar_arrows],
    }
    if args.tables:
        hom, ext = hom_ext_tables(cat.ar)
        data["hom"] = [list(row) for row in hom]
        data["ext"] = [list(row) for row in ext]
    _emit(args, _json(data))
    return 0


def cmd_fold(args) -> int:
    spec = _spec_from(args)
    cat = FoldedCategory(spec)
    if args.format == "csv":
        text = _float_texts(args.precision)
        lines = ["id,dim,projection"]
        for mod in cat.ar.modules:
            dim = "".join(str(c) for c in mod.dim)
            proj = ";".join(map(text, cat.dimproj[mod.ident]))
            lines.append(f"{mod.ident},{dim},{proj}")
        _emit(args, "\n".join(lines))
        return 0
    data = {
        "generators": list(cat.generators),
        "projections": {str(mod.ident): cat.dimproj[mod.ident] for mod in cat.ar.modules},
    }
    _emit(args, _json(data))
    return 0


def cmd_tropical(args) -> int:
    spec = _spec_from(args)
    if args.trop_op == "enumerate":
        result = _from_args(enumerate_seeds, spec.B, args.cap)
        if args.format == "csv":
            text = _float_texts(args.precision)
            lines = ["seed,word,vector,column,entries"]
            for idx, seed in enumerate(result.seeds):
                word = "".join(map(str, seed.word))
                gcols = tuple(zip(*g_matrix(seed).entries))
                for j, col in enumerate(seed.c_vectors()):
                    lines.append(f"{idx},{word},c,{j}," + ";".join(map(text, col)))
                for j, col in enumerate(gcols):
                    lines.append(f"{idx},{word},g,{j}," + ";".join(map(text, col)))
            _emit(args, "\n".join(lines))
        else:
            data = {
                "complete": result.complete,
                "count": result.count,
                "seeds": [s.to_json() for s in result.seeds],
            }
            _emit(args, _json(data))
        return 0
    walker = TropicalWalker(spec, checks=args.verify)
    report = walker.verify_cube(**_words(args))
    _emit(args, _json(report.to_json()))
    return 0 if report.passed else 1


def cmd_tilting(args) -> int:
    spec = _spec_from(args)
    cc = ClusterCategory(spec)
    if args.tilt_op == "graph":
        nodes, edges = cc.exchange_graph()
        keys = {key: f"t{i}" for i, key in enumerate(sorted(nodes, key=sorted))}
        if args.format == "dot":
            lines = ["graph tilting_exchange {"]
            for key, name in keys.items():
                label = "|".join(cc.describe(x) for x in sorted(key))
                lines.append(f'  {name} [label="{label}"];')
            for edge in sorted(edges, key=lambda e: sorted(sorted(k) for k in e)):
                a, b = sorted(edge, key=sorted)
                lines.append(f"  {keys[a]} -- {keys[b]};")
            lines.append("}")
            _emit(args, "\n".join(lines))
        else:
            data = {
                "nodes": {name: sorted(key) for key, name in keys.items()},
                "edges": sorted(
                    sorted((keys[a], keys[b])) for a, b in (tuple(e) for e in edges)
                ),
            }
            _emit(args, _json(data))
        return 0
    tilts = cc.enumerate_tilting()
    data = {
        "count": len(tilts),
        "objects": [
            {
                "summands": list(t),
                "labels": [cc.describe(x) for x in t],
                "G_folded": cc.folded_G_matrix(t),
            }
            for t in tilts
        ],
    }
    _emit(args, _json(data))
    return 0


def G_projection_verdicts(cc: ClusterCategory, summands) -> tuple:
    """For each summand, whether its columns of the two G matrices agree under d_F.

    A tilting object's integer G has at unfolded vertex v the g-vector of
    the member of the summand over F(v) whose Chebyshev index is v's
    position in its block; column j of its folded G is summand j's folded
    g-vector (``ClusterCategory.folded_G_matrix``).  Of the integer G,
    ``matrix_d_F`` reads only the g-vector of summand j's index-0 member.
    Neither column depends on j, so an object's G projects exactly when each
    summand's columns do, and each summand is decided once.  Only the
    index-0 member's g-vector is computed, read off the Euler form
    (``ClusterCategory.g_vector``).
    """
    lifted = [cc.g_vector(cc.iso_sets[g][0]) for g in summands]
    projected = matrix_d_F(cc.spec, tuple(zip(*lifted)), {}, range(len(lifted)))
    folded = coeff_rows(cc.folded_G_matrix(summands))
    return tuple(map(operator.eq, zip(*projected), zip(*folded)))


def roots_of_unity_hold(cat: FoldedCategory) -> bool:
    """Whether the tau-orbits of vertices 0 and 2n - 1 project onto roots of unity, exactly.

    With m = 2n + 1, theta = pi/m and g = 2cos(theta), the plane embedding
    sends (v0, v1) to (v0 - v1 g/2, v1 sin theta): the point at angle
    k theta exactly when 2 v0 - v1 g = 2cos(k theta) and v1 = u_k =
    sin(k theta)/sin(theta), that is, when (v0, v1) = (u_{k+1}, u_k).  As
    u_0 = 0, u_1 = 1 and u_{k+1} = g u_k - u_{k-1}, each comparison is in
    Z[g].  Read from its injective back, vertex 0's orbit lies at the
    angles 2p theta and vertex 2n - 1's at (2p + 1) theta, all below pi.
    """
    ar, g, u = cat.ar, AlgReal.generator(cat.m), [0, 1]
    while len(u) <= cat.m:
        u.append(g * u[-1] - u[-2])
    for vertex, odd in ((0, 0), (2 * cat.n - 1, 1)):
        top = ar.modules[ar.inj_module[vertex]]
        for p in range(top.slice + 1):
            k = 2 * p + odd
            if cat.dimproj[ar.grid[(top.orbit, top.slice - p)]] != (u[k + 1], u[k]):
                return False
    return True


# -- verify all ---------------------------------------------------------------


class _Unbuilt(Exception):
    """A shared object of ``verify all`` whose build failed, in the claim the argument names."""


# The verifier's own signals that a statement does not hold.
_VERDICT_ERRORS = (AssertionError, ArithmeticError)


class _VerifyContext:
    """What the claims of ``verify all`` share: the arguments, the folding, and
    the objects of ``_SHARED``, each built once, on first ``get``.  A build
    that raises one of ``_VERDICT_ERRORS`` is kept with the ``claim`` that
    asked, and every later ``get`` of it raises ``_Unbuilt`` naming that claim.
    """

    def __init__(self, args, spec):
        self.args, self.spec, self.claim = args, spec, None
        self._built, self._failed_in = {}, {}

    def get(self, name: str):
        if name in self._failed_in:
            raise _Unbuilt(self._failed_in[name])
        if name not in self._built:
            try:
                self._built[name] = _SHARED[name](self)
            except _VERDICT_ERRORS:
                self._failed_in[name] = self.claim
                raise
        return self._built[name]


# the ClusterCategory's ``mc`` is its FoldedCategory
_SHARED = {
    "category": lambda ctx: ClusterCategory(ctx.spec),
    "walker": lambda ctx: TropicalWalker(ctx.spec),
    "tilts": lambda ctx: ctx.get("category").enumerate_tilting(),
}


def _unfolding_conditions(ctx):
    report = check_weighted_unfolding(ctx.spec, **_words(ctx.args))
    return report.passed, f"words={report.words_checked} seed={ctx.args.seed}"


def _projected_dimensions(ctx):
    folding = ctx.get("category").mc.verify_folding_theorem()
    return folding["passed"], f"roots={folding['weight_one_row_roots']}/{folding['positive_roots']}"


def _tropical_cube(ctx):
    walk = ctx.get("walker").verify_cube(**_words(ctx.args))
    return walk.passed, f"vertices={walk.vertices_checked} seed={ctx.args.seed}"


def _tilting_count(ctx):
    count = len(ctx.get("tilts"))
    expected = coxeter_catalan(folded_type_name(ctx.spec))
    return count == expected, f"count={count}" + ("" if count == expected else f" expected={expected}")


def _two_complements(ctx):
    cc, found = ctx.get("category"), {}  # almost complete object -> its complements
    for t in ctx.get("tilts"):
        for k in range(len(t)):
            rest = t[:k] + t[k + 1:]
            comps = found.get(rest)
            if comps is None:
                comps = found[rest] = cc.complements(rest)
            if len(comps) != 2 or t[k] not in comps:
                return False, ""
    return True, ""


def _G_projection(ctx):
    summands = sorted({g for t in ctx.get("tilts") for g in t})
    return all(G_projection_verdicts(ctx.get("category"), summands)), ""


_CATEGORY_KINDS = ("H3", "H4", "I2")

# (name, the --kind values it applies to, the claim), in the order printed
VERIFY_CLAIMS = (
    ("weighted-unfolding-conditions", ("H3", "H4", "I2", "I2m", "F4E6"), _unfolding_conditions),
    ("projected-dimension-theorem", _CATEGORY_KINDS, _projected_dimensions),
    ("root-of-unity-projection", ("I2",), lambda ctx: (roots_of_unity_hold(ctx.get("category").mc), "")),
    ("tropical-cube-and-blocks", _CATEGORY_KINDS, _tropical_cube),
    ("tilting-enumeration", _CATEGORY_KINDS, _tilting_count),
    ("two-complements", _CATEGORY_KINDS, _two_complements),
    ("tilting-G-matrix-projection", _CATEGORY_KINDS, _G_projection),
)


def cmd_verify(args) -> int:
    """One PASS or FAIL line per claim of ``VERIFY_CLAIMS`` that applies to ``--kind``.

    A claim that raises one of ``_VERDICT_ERRORS`` fails with the
    exception's message, and one that needs an object whose build failed
    fails naming the claim it failed in; the next claim runs either way.
    Any other exception propagates.
    """
    ctx = _VerifyContext(args, _spec_from(args))
    lines = []
    for name, kinds, claim in VERIFY_CLAIMS:
        if args.kind not in kinds:
            continue
        ctx.claim = name
        try:
            ok, detail = claim(ctx)
        except _Unbuilt as exc:
            ok, detail = False, f"unchecked: {exc} failed"
        except _VERDICT_ERRORS as exc:
            ok, detail = False, str(exc) or type(exc).__name__
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}{(' ' + detail) if detail else ''}")
    _emit(args, "\n".join(lines))
    return 1 if any(line.startswith("FAIL") for line in lines) else 0


# -- argument parsing -----------------------------------------------------------


def _count(text: str) -> int:
    """Parse an integer >= 0 (``--depth``, ``--random``, ``--length``, ``--cap``, ``--precision``)."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not an integer >= 0: {text!r}")


def _check_names(text: str) -> frozenset:
    """Parse ``--verify``: comma-separated names from ``tropical.CHECKS``."""
    try:
        return check_set(text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Each subcommand's ``func`` default is its handler; the handlers look up
    the module's names (``open``, ``standard_folding``, ...) when they run.
    """
    parser = argparse.ArgumentParser(
        prog="quiverfold",
        description="Exact mutation, unfolding and tropical seed patterns "
        "for quivers of types H4, H3 and I2(2n+1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, kinds=("H3", "H4", "I2", "I2m", "F4E6")):
        p.add_argument("--kind", required=True, choices=kinds)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--out", default=None)

    ring = sub.add_parser("ring", help="Chebyshev ring arithmetic")
    ring.set_defaults(func=cmd_ring)
    ring_sub = ring.add_subparsers(dest="ring_op", required=True)
    ring_minpoly = ring_sub.add_parser("minpoly")
    ring_minpoly.add_argument("--m", type=int, required=True)
    ring_minpoly.add_argument("--out", default=None)
    ring_regrep = ring_sub.add_parser("regrep")
    ring_regrep.add_argument("--n", type=int, required=True)
    ring_regrep.add_argument("--k", type=int, required=True)
    ring_regrep.add_argument("--out", default=None)
    for name in ("mul", "sigma"):
        p = ring_sub.add_parser(name)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--a", required=True, type=_int_list)
        if name == "mul":
            p.add_argument("--b", required=True, type=_int_list)
        p.add_argument("--out", default=None)

    mut = sub.add_parser("mutate", help="mutate an exchange matrix from JSON")
    mut.set_defaults(func=cmd_mutate)
    mut.add_argument("--matrix", required=True)
    mut.add_argument("--at", required=True, type=_vertex_list,
                     help="comma-separated vertex indices")
    mut.add_argument("--out", default=None)

    unf = sub.add_parser("unfold", help="build or verify weighted unfoldings")
    unf.set_defaults(func=cmd_unfold)
    unf_sub = unf.add_subparsers(dest="unfold_op", required=True)
    for name in ("build", "verify"):
        p = unf_sub.add_parser(name)
        add_common(p)
        if name == "verify":
            p.add_argument("--depth", type=_count, default=5)
            p.add_argument("--random", type=_count, default=50)
            p.add_argument("--length", type=_count, default=20)
            p.add_argument("--seed", type=int, default=0)

    ar = sub.add_parser("ar", help="Auslander-Reiten quiver")
    ar.set_defaults(func=cmd_ar)
    ar_sub = ar.add_subparsers(dest="ar_op", required=True)
    ar_build = ar_sub.add_parser("build")
    add_common(ar_build, kinds=("H3", "H4", "I2"))
    ar_build.add_argument("--format", choices=("json", "dot"), default="json")
    ar_build.add_argument("--tables", action="store_true", help="include hom/ext tables")

    fold = sub.add_parser("fold", help="projected dimension vectors")
    fold.set_defaults(func=cmd_fold)
    fold_sub = fold.add_subparsers(dest="fold_op", required=True)
    fold_dims = fold_sub.add_parser("dims")
    add_common(fold_dims, kinds=("H3", "H4", "I2"))
    fold_dims.add_argument("--format", choices=("json", "csv"), default="json")
    fold_dims.add_argument("--precision", type=_count, default=12)

    trop = sub.add_parser("tropical", help="tropical y-seed walks")
    trop.set_defaults(func=cmd_tropical)
    trop_sub = trop.add_subparsers(dest="trop_op", required=True)
    trop_walk = trop_sub.add_parser("walk")

    def add_common_tropical(p):
        p.add_argument("--kind", "--type", dest="kind", required=True,
                       choices=("H3", "H4", "I2"))
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--out", default=None)

    add_common_tropical(trop_walk)
    trop_walk.add_argument("--depth", type=_count, default=5)
    trop_walk.add_argument("--random", type=_count, default=0)
    trop_walk.add_argument("--length", type=_count, default=30)
    trop_walk.add_argument("--seed", type=int, default=0)
    trop_walk.add_argument("--verify", type=_check_names, default=",".join(CHECKS))
    trop_enum = trop_sub.add_parser("enumerate")
    add_common_tropical(trop_enum)
    trop_enum.add_argument("--cap", type=_count, default=20000)
    trop_enum.add_argument("--format", choices=("json", "csv"), default="json")
    trop_enum.add_argument("--precision", type=_count, default=12)

    tilt = sub.add_parser("tilting", help="tilting objects of the cluster category")
    tilt.set_defaults(func=cmd_tilting)
    tilt_sub = tilt.add_subparsers(dest="tilt_op", required=True)
    for name in ("enumerate", "graph"):
        p = tilt_sub.add_parser(name)
        add_common(p, kinds=("H3", "H4", "I2"))
        if name == "graph":
            p.add_argument("--format", choices=("json", "dot"), default="dot")

    ver = sub.add_parser("verify", help="run the theorem verification suite")
    ver.set_defaults(func=cmd_verify)
    ver_sub = ver.add_subparsers(dest="verify_op", required=True)
    ver_all = ver_sub.add_parser("all")
    add_common(ver_all)
    ver_all.add_argument("--depth", type=_count, default=5)
    ver_all.add_argument("--random", type=_count, default=50)
    ver_all.add_argument("--length", type=_count, default=20)
    ver_all.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    """Run one command; exit 2 on a usage error.

    An ``--out`` file is opened before the command does any work, as a
    shell redirection would be, so a path that cannot be written is
    reported at once; it is closed however the command ends.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        path = getattr(args, "out", None)
        if not path:
            args.out = None
            return args.func(args)
        try:
            args.out = open(path, "w")
        except OSError as exc:
            raise UsageError(f"cannot write --out {path}: {exc}") from None
        with args.out:
            return args.func(args)
    except UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
