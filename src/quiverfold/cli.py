"""Command-line front end: exact mutation, unfolding checks, AR quivers,
tropical walks, tilting enumeration and the combined verification suite.

All output is deterministic for a fixed argument vector: randomized checks
draw from one seeded generator per subcommand and the seed is echoed into
the report; JSON is emitted with sorted keys and no timestamps.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from .chebring import AlgReal, ChebElem, cheb_mul, minimal_poly, reg_rep, sigma
from .clustercat import ClusterCategory
from .exchange import ExchangeMatrix, to_quiver, quiver_dot
from .repcat import FoldedCategory
from .rootsys import e_F_float, root_system
from .tropical import CHECKS, TropicalWalker, check_set, enumerate_seeds, g_matrix, Seed
from .unfolding import check_weighted_unfolding, standard_folding


@dataclass
class RunConfig:
    command: str
    kind: str | None = None
    n: int | None = None
    depth: int = 5
    random_words: int = 50
    random_length: int = 20
    seed: int = 0
    fmt: str = "json"
    precision: int = 12
    cap: int = 20000
    out: str | None = None
    extra: dict = field(default_factory=dict)


def _emit(config: RunConfig, text: str) -> None:
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2)


class UsageError(Exception):
    """An argument value that argparse accepts but the command cannot use.

    ``main`` reports it on one line of stderr and exits with 2.
    """


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


def _spec_from(config: RunConfig):
    if config.kind in ("H3", "H4", "F4E6"):
        return standard_folding(config.kind)
    if config.kind == "I2":
        if config.n is None:
            raise UsageError("--kind I2 requires --n")
        return _from_args(standard_folding, "I2", config.n)
    if config.kind == "I2m":
        if config.n is None:
            raise UsageError("--kind I2m requires --n (the dihedral order m)")
        return _from_args(standard_folding, "I2m", config.n)
    raise UsageError(f"unknown kind {config.kind!r}")


def _enc_value(x):
    if isinstance(x, AlgReal):
        return x.to_json()
    if isinstance(x, ChebElem):
        return x.to_json()
    return x


def _enc_matrix(rows):
    return [[_enc_value(x) for x in row] for row in rows]


# -- subcommand handlers ------------------------------------------------------


def cmd_ring(config: RunConfig) -> int:
    op = config.extra["ring_op"]
    if op == "minpoly":
        data = {"m": config.n, "coeffs": list(_from_args(minimal_poly, config.n))}
    elif op == "regrep":
        k = config.extra["k"]
        matrix = _from_args(reg_rep, k, config.n)
        data = {"n": config.n, "k": k, "matrix": [list(r) for r in matrix]}
    elif op == "mul":
        a = _from_args(ChebElem, config.n, config.extra["a"])
        b = _from_args(ChebElem, config.n, config.extra["b"])
        prod = cheb_mul(a, b)
        data = {
            "product": prod.to_json(),
            "value": float(sigma(prod)),
        }
    else:  # sigma
        a = _from_args(ChebElem, config.n, config.extra["a"])
        data = {"image": sigma(a).to_json(), "value": float(sigma(a))}
    _emit(config, _json(data))
    return 0


def cmd_mutate(config: RunConfig) -> int:
    path = config.extra["matrix"]
    try:
        with open(path) as fh:
            matrix = ExchangeMatrix.from_json(json.load(fh))
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read --matrix {path}: {exc}") from None
    out = matrix
    for k in config.extra["at"]:
        try:
            out = out.mutate(k)
        except IndexError as exc:
            raise UsageError(str(exc)) from None
    _emit(config, _json(out.to_json()))
    return 0


def cmd_unfold(config: RunConfig) -> int:
    spec = _spec_from(config)
    if config.extra["unfold_op"] == "build":
        _emit(config, _json(spec.to_json()))
        return 0
    report = check_weighted_unfolding(
        spec,
        depth=config.depth,
        random_words=config.random_words,
        random_length=config.random_length,
        seed=config.seed,
    )
    _emit(config, _json(report.to_json()))
    return 0 if report.passed else 1


def cmd_ar(config: RunConfig) -> int:
    spec = _spec_from(config)
    cat = FoldedCategory(spec)
    if config.fmt == "dot":
        _emit(config, cat.ar_dot())
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
                "projection": [_enc_value(c) for c in cat.dimproj[mod.ident]],
            }
            for mod in cat.ar.modules
        ],
        "arrows": [list(a) for a in cat.ar.ar_arrows],
    }
    if config.extra.get("tables"):
        from .repcat import hom_ext_tables

        hom, ext = hom_ext_tables(cat.ar)
        data["hom"] = [list(row) for row in hom]
        data["ext"] = [list(row) for row in ext]
    _emit(config, _json(data))
    return 0


def cmd_fold(config: RunConfig) -> int:
    spec = _spec_from(config)
    cat = FoldedCategory(spec)
    if config.fmt == "csv":
        lines = ["id,dim,projection"]
        for mod in cat.ar.modules:
            dim = "".join(str(c) for c in mod.dim)
            proj = ";".join(f"{float(c):.{config.precision}g}" for c in cat.dimproj[mod.ident])
            lines.append(f"{mod.ident},{dim},{proj}")
        _emit(config, "\n".join(lines))
        return 0
    data = {
        "generators": list(cat.generators),
        "projections": {
            str(mod.ident): [_enc_value(c) for c in cat.dimproj[mod.ident]]
            for mod in cat.ar.modules
        },
    }
    _emit(config, _json(data))
    return 0


def cmd_tropical(config: RunConfig) -> int:
    spec = _spec_from(config)
    if config.extra["trop_op"] == "enumerate":
        result = enumerate_seeds(spec.B, cap=config.cap)
        if config.fmt == "csv":
            lines = ["seed,word,vector,column,entries"]
            for idx, seed in enumerate(result.seeds):
                word = "".join(map(str, seed.word))
                gcols = tuple(zip(*g_matrix(seed).entries))
                for j, col in enumerate(seed.c_vectors()):
                    vals = ";".join(f"{float(c):.{config.precision}g}" for c in col)
                    lines.append(f"{idx},{word},c,{j},{vals}")
                for j, col in enumerate(gcols):
                    vals = ";".join(f"{float(c):.{config.precision}g}" for c in col)
                    lines.append(f"{idx},{word},g,{j},{vals}")
            _emit(config, "\n".join(lines))
        else:
            data = {
                "complete": result.complete,
                "count": result.count,
                "seeds": [s.to_json() for s in result.seeds],
            }
            _emit(config, _json(data))
        return 0
    walker = TropicalWalker(spec, checks=config.extra["verify"])
    report = walker.verify_cube(
        depth=config.depth,
        random_words=config.random_words,
        random_length=config.random_length,
        seed=config.seed,
    )
    _emit(config, _json(report.to_json()))
    return 0 if report.passed else 1


def cmd_tilting(config: RunConfig) -> int:
    spec = _spec_from(config)
    cc = ClusterCategory(spec)
    if config.extra["tilt_op"] == "graph":
        nodes, edges = cc.exchange_graph()
        keys = {key: f"t{i}" for i, key in enumerate(sorted(nodes, key=sorted))}
        if config.fmt == "dot":
            lines = ["graph tilting_exchange {"]
            for key, name in keys.items():
                label = "|".join(cc.describe(x) for x in sorted(key))
                lines.append(f'  {name} [label="{label}"];')
            for edge in sorted(edges, key=lambda e: sorted(sorted(k) for k in e)):
                a, b = sorted(edge, key=sorted)
                lines.append(f"  {keys[a]} -- {keys[b]};")
            lines.append("}")
            _emit(config, "\n".join(lines))
        else:
            data = {
                "nodes": {name: sorted(key) for key, name in keys.items()},
                "edges": sorted(
                    sorted((keys[a], keys[b])) for a, b in (tuple(e) for e in edges)
                ),
            }
            _emit(config, _json(data))
        return 0
    tilts = cc.enumerate_tilting()
    data = {
        "count": len(tilts),
        "objects": [
            {
                "summands": list(t),
                "labels": [cc.describe(x) for x in t],
                "G_folded": _enc_matrix(cc.tilting_G_matrices(t)[1]),
            }
            for t in tilts
        ],
    }
    _emit(config, _json(data))
    return 0


def cmd_verify(config: RunConfig) -> int:
    spec = _spec_from(config)
    lines = []
    failures = 0

    def record(name, ok, detail=""):
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        lines.append(f"{status} {name}{(' ' + detail) if detail else ''}")

    unfold_report = check_weighted_unfolding(
        spec,
        depth=config.depth,
        random_words=config.random_words,
        random_length=config.random_length,
        seed=config.seed,
    )
    record(
        "weighted-unfolding-conditions",
        unfold_report.passed,
        f"words={unfold_report.words_checked} seed={config.seed}",
    )

    if spec.n is not None:
        cat = FoldedCategory(spec)
        folding = cat.verify_folding_theorem()
        record(
            "projected-dimension-theorem",
            folding["passed"],
            f"roots={folding['weight_one_row_roots']}/{folding['positive_roots']}",
        )

        if spec.kind.startswith("I2("):
            import math

            ok = True
            nn = spec.n
            theta = math.pi / (2 * nn + 1)
            ident0 = cat.ar.inj_module[0]
            orbit0 = cat.ar.modules[ident0].orbit
            top = cat.ar.modules[ident0].slice
            for p in range(top + 1):
                vec = cat.dimproj[cat.ar.grid[(orbit0, top - p)]]
                x, y = e_F_float(vec, nn)
                if abs(x - math.cos(2 * p * theta)) > 1e-9 or abs(y - math.sin(2 * p * theta)) > 1e-9:
                    ok = False
            record("root-of-unity-projection", ok)

        walker = TropicalWalker(spec)
        walk = walker.verify_cube(
            depth=config.depth,
            random_words=config.random_words,
            random_length=config.random_length,
            seed=config.seed,
        )
        record(
            "tropical-cube-and-blocks",
            walk.passed,
            f"vertices={walk.vertices_checked} seed={config.seed}",
        )

        cc = ClusterCategory(spec)
        try:
            tilts = cc.enumerate_tilting()
            comp_ok = True
            for t in tilts:
                for k in range(len(t)):
                    comps = cc.complements(t[:k] + t[k + 1:])
                    if len(comps) != 2 or t[k] not in comps:
                        comp_ok = False
            record("tilting-enumeration", True, f"count={len(tilts)}")
            record("two-complements", comp_ok)
            g_ok = all(
                cc.spec.matrix_d_F(G_hat) == G_prime
                for G_hat, G_prime in map(cc.tilting_G_matrices, tilts)
            )
            record("tilting-G-matrix-projection", g_ok)
        except AssertionError as exc:
            record("tilting-enumeration", False, str(exc))

    _emit(config, "\n".join(lines))
    return 0 if failures == 0 else 1


# -- argument parsing -----------------------------------------------------------


def _check_names(text: str) -> frozenset:
    """Parse ``--verify``: comma-separated names from ``tropical.CHECKS``."""
    try:
        return check_set(text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
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
    mut.add_argument("--matrix", required=True)
    mut.add_argument("--at", required=True, type=_vertex_list,
                     help="comma-separated vertex indices")
    mut.add_argument("--out", default=None)

    unf = sub.add_parser("unfold", help="build or verify weighted unfoldings")
    unf_sub = unf.add_subparsers(dest="unfold_op", required=True)
    for name in ("build", "verify"):
        p = unf_sub.add_parser(name)
        add_common(p)
        if name == "verify":
            p.add_argument("--depth", type=int, default=5)
            p.add_argument("--random", type=int, default=50)
            p.add_argument("--length", type=int, default=20)
            p.add_argument("--seed", type=int, default=0)

    ar = sub.add_parser("ar", help="Auslander-Reiten quiver")
    ar_sub = ar.add_subparsers(dest="ar_op", required=True)
    ar_build = ar_sub.add_parser("build")
    add_common(ar_build, kinds=("H3", "H4", "I2"))
    ar_build.add_argument("--format", choices=("json", "dot"), default="json")
    ar_build.add_argument("--tables", action="store_true", help="include hom/ext tables")

    fold = sub.add_parser("fold", help="projected dimension vectors")
    fold_sub = fold.add_subparsers(dest="fold_op", required=True)
    fold_dims = fold_sub.add_parser("dims")
    add_common(fold_dims, kinds=("H3", "H4", "I2"))
    fold_dims.add_argument("--format", choices=("json", "csv"), default="json")
    fold_dims.add_argument("--precision", type=int, default=12)

    trop = sub.add_parser("tropical", help="tropical y-seed walks")
    trop_sub = trop.add_subparsers(dest="trop_op", required=True)
    trop_walk = trop_sub.add_parser("walk")

    def add_common_tropical(p):
        p.add_argument("--kind", "--type", dest="kind", required=True,
                       choices=("H3", "H4", "I2"))
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--out", default=None)

    add_common_tropical(trop_walk)
    trop_walk.add_argument("--depth", type=int, default=5)
    trop_walk.add_argument("--random", type=int, default=0)
    trop_walk.add_argument("--length", type=int, default=30)
    trop_walk.add_argument("--seed", type=int, default=0)
    trop_walk.add_argument("--verify", type=_check_names, default=",".join(CHECKS))
    trop_enum = trop_sub.add_parser("enumerate")
    add_common_tropical(trop_enum)
    trop_enum.add_argument("--cap", type=int, default=20000)
    trop_enum.add_argument("--format", choices=("json", "csv"), default="json")
    trop_enum.add_argument("--precision", type=int, default=12)

    tilt = sub.add_parser("tilting", help="tilting objects of the cluster category")
    tilt_sub = tilt.add_subparsers(dest="tilt_op", required=True)
    for name in ("enumerate", "graph"):
        p = tilt_sub.add_parser(name)
        add_common(p, kinds=("H3", "H4", "I2"))
        if name == "graph":
            p.add_argument("--format", choices=("json", "dot"), default="dot")

    ver = sub.add_parser("verify", help="run the theorem verification suite")
    ver_sub = ver.add_subparsers(dest="verify_op", required=True)
    ver_all = ver_sub.add_parser("all")
    add_common(ver_all)
    ver_all.add_argument("--depth", type=int, default=5)
    ver_all.add_argument("--random", type=int, default=50)
    ver_all.add_argument("--length", type=int, default=20)
    ver_all.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(command=args.command)
    config.out = getattr(args, "out", None)
    config.kind = getattr(args, "kind", None)
    config.n = getattr(args, "n", None)
    config.depth = getattr(args, "depth", 5)
    config.random_words = getattr(args, "random", 50)
    config.random_length = getattr(args, "length", 20)
    config.seed = getattr(args, "seed", 0)
    config.fmt = getattr(args, "format", "json")
    config.precision = getattr(args, "precision", 12)
    config.cap = getattr(args, "cap", 20000)

    try:
        if args.command == "ring":
            config.n = args.m if args.ring_op == "minpoly" else args.n
            config.extra["ring_op"] = args.ring_op
            if hasattr(args, "k"):
                config.extra["k"] = args.k
            for attr in ("a", "b"):
                if getattr(args, attr, None) is not None:
                    config.extra[attr] = getattr(args, attr)
            return cmd_ring(config)
        if args.command == "mutate":
            config.extra["matrix"] = args.matrix
            config.extra["at"] = args.at
            return cmd_mutate(config)
        if args.command == "unfold":
            config.extra["unfold_op"] = args.unfold_op
            return cmd_unfold(config)
        if args.command == "ar":
            config.extra["tables"] = getattr(args, "tables", False)
            return cmd_ar(config)
        if args.command == "fold":
            return cmd_fold(config)
        if args.command == "tropical":
            config.extra["trop_op"] = args.trop_op
            config.extra["verify"] = getattr(args, "verify", CHECKS)
            return cmd_tropical(config)
        if args.command == "tilting":
            config.extra["tilt_op"] = args.tilt_op
            return cmd_tilting(config)
        if args.command == "verify":
            return cmd_verify(config)
    except UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
