import ast
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import quiverfold
from quiverfold import cli, unfolding
from quiverfold.chebring import AlgReal, ChebElem
from quiverfold.cli import main
from quiverfold.clustercat import ClusterCategory
from quiverfold.exchange import ExchangeMatrix
from quiverfold.repcat import FoldedCategory
from quiverfold.tropical import TropicalWalker, enumerate_seeds
from quiverfold.unfolding import FoldingSpec, check_weighted_unfolding, standard_folding
from test_exchange import MALFORMED_MATRIX_JSON
from test_explore import shifted_f4e6
from test_unfolding import FoldingSpecBrokenWeights, sign_flipped_f4e6


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_every_export_resolves():
    for name in quiverfold.__all__:
        assert getattr(quiverfold, name) is not None, name


def test_exports_are_pinned():
    assert sorted(quiverfold.__all__) == [
        "ARQuiver", "AlgReal", "ChebElem", "ClusterCategory", "ExchangeMatrix",
        "FoldedCategory", "FoldingSpec", "GMatrix", "IndecClass", "RootSet", "Seed",
        "TropicalWalker", "build_unfolded_matrix", "cheb_mul", "check_weighted_unfolding",
        "enumerate_seeds", "equal_in_evaluation", "g_matrix",
        "generate_roots", "minimal_poly", "reg_rep", "rho", "root_system", "semiring_leq",
        "sigma", "standard_folding",
    ]


def test_every_top_level_import_is_read():
    """Each name a module of the package or of the tests imports at top level is read in it.

    ``__init__`` reads its ``__all__`` re-exports by listing them.
    """
    unread = []
    modules = Path(quiverfold.__file__).parent.glob("*.py")
    for path in sorted(modules) + sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in imports
            if getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            read |= set(quiverfold.__all__)
        unread += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert unread == []


# Defined in the package but read by no other code of it, each on purpose.
UNREAD_DEFINITIONS = {
    # the documented rational enclosure of a value
    "chebring.AlgReal.interval",
    # the documented value-level projection beside ``coeff_d_F``
    "unfolding.FoldingSpec.d_F",
    # the semiring action, kept for the functor checks of ROADMAP item G
    "repcat.FoldedCategory.semiring_act",
}


def test_every_src_definition_is_read():
    """Each function, method and class of the package is named in it outside its own body.

    A name counts when some ``Name``, ``Attribute``, import or
    ``getattr(obj, "name")`` of the package spells it, matched by name
    only; dunder methods are left out.
    """

    def spelled(tree) -> Counter:
        out = Counter()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out[node.id] += 1
            elif isinstance(node, ast.Attribute):
                out[node.attr] += 1
            elif isinstance(node, ast.alias):
                out[node.name.rpartition(".")[2]] += 1
            elif (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            ):
                out[node.args[1].value] += 1
        return out

    def definitions(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield prefix + child.name, child
                yield from definitions(child, f"{prefix}{child.name}.")
            else:
                yield from definitions(child, prefix)

    paths = sorted(Path(quiverfold.__file__).parent.glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    everywhere = sum(map(spelled, trees.values()), Counter())
    unread = [
        qualname
        for stem, tree in trees.items()
        for qualname, node in definitions(tree, f"{stem}.")
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and everywhere[node.name] == spelled(node)[node.name]
    ]
    differ = " ".join(sorted(set(unread) ^ UNREAD_DEFINITIONS))
    assert sorted(unread) == sorted(UNREAD_DEFINITIONS), differ


class TestRing:
    def test_minpoly(self, capsys):
        code, out = run(capsys, "ring", "minpoly", "--m", "5")
        assert code == 0
        assert json.loads(out) == {"m": 5, "coeffs": [-1, -1, 1]}

    def test_mul(self, capsys):
        code, out = run(capsys, "ring", "mul", "--n", "2", "--a", "0,1", "--b", "0,1")
        assert code == 0
        data = json.loads(out)
        assert data["product"] == {"n": 2, "coeffs": [1, 1]}

    def test_regrep(self, capsys):
        code, out = run(capsys, "ring", "regrep", "--n", "3", "--k", "1")
        assert code == 0
        assert json.loads(out)["matrix"] == [[0, 1, 0], [1, 0, 1], [0, 1, 1]]


class TestMutate:
    def test_round_trip(self, capsys, tmp_path):
        spec = standard_folding("I2", 2)
        path = tmp_path / "B.json"
        path.write_text(json.dumps(spec.B.to_json()))
        code, out = run(capsys, "mutate", "--matrix", str(path), "--at", "0")
        assert code == 0
        got = ExchangeMatrix.from_json(json.loads(out))
        assert got == spec.B.mutate(0)
        # rank-2 mutation is a sign flip
        assert got == -spec.B

    def test_double_mutation_restores(self, capsys, tmp_path):
        spec = standard_folding("I2", 2)
        path = tmp_path / "B.json"
        path.write_text(json.dumps(spec.B.to_json()))
        code, out = run(capsys, "mutate", "--matrix", str(path), "--at", "0,0")
        assert ExchangeMatrix.from_json(json.loads(out)) == spec.B


class TestSubcommands:
    def test_unfold_verify_passes(self, capsys):
        code, out = run(
            capsys, "unfold", "verify", "--kind", "F4E6",
            "--depth", "3", "--random", "5", "--seed", "1",
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_ar_build_dot(self, capsys):
        code, out = run(capsys, "ar", "build", "--kind", "I2", "--n", "2", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")
        assert out.count("->") == 12

    def test_ar_build_json(self, capsys):
        code, out = run(capsys, "ar", "build", "--kind", "I2", "--n", "3")
        data = json.loads(out)
        assert len(data["modules"]) == 21
        assert "hom" not in data

    def test_ar_build_tables(self, capsys):
        code, out = run(capsys, "ar", "build", "--kind", "I2", "--n", "2", "--tables")
        data = json.loads(out)
        assert len(data["hom"]) == 10
        assert all(data["hom"][i][i] == 1 for i in range(10))

    def test_tropical_type_alias(self, capsys):
        code, out = run(
            capsys, "tropical", "walk", "--type", "I2", "--n", "2", "--depth", "3"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_fold_dims_csv(self, capsys):
        code, out = run(
            capsys, "fold", "dims", "--kind", "I2", "--n", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "id,dim,projection"
        assert len(lines) == 11

    def test_tropical_walk(self, capsys):
        code, out = run(
            capsys, "tropical", "walk", "--kind", "I2", "--n", "2",
            "--depth", "4", "--verify", "cube,roots",
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_tropical_enumerate(self, capsys):
        code, out = run(capsys, "tropical", "enumerate", "--kind", "I2", "--n", "2")
        data = json.loads(out)
        assert data["complete"] is True
        assert data["count"] == 14

    def test_tilting_enumerate(self, capsys):
        code, out = run(capsys, "tilting", "enumerate", "--kind", "I2", "--n", "2")
        data = json.loads(out)
        assert data["count"] == 7

    def test_tilting_graph_dot(self, capsys):
        code, out = run(capsys, "tilting", "graph", "--kind", "I2", "--n", "2")
        assert code == 0
        assert out.startswith("graph")
        assert out.count("--") == 7

    def test_verify_all(self, capsys):
        code, out = run(
            capsys, "verify", "all", "--kind", "I2", "--n", "2",
            "--depth", "3", "--random", "5",
        )
        assert code == 0
        assert "FAIL" not in out
        assert "tilting-enumeration count=7" in out

    def test_verify_all_asks_each_almost_complete_object_once(self, capsys, monkeypatch):
        calls = []
        real = ClusterCategory.complements
        monkeypatch.setattr(
            ClusterCategory, "complements", lambda self, rest: calls.append(rest) or real(self, rest)
        )
        code, out = run(capsys, "verify", "all", "--kind", "H4", "--depth", "0", "--random", "0")
        assert code == 0 and "PASS two-complements" in out
        # the 280 tilting objects of rank 4 have 1,120 (t, k) pairs but only
        # 560 almost complete objects, one per exchange-graph edge
        assert len(calls) == len(set(calls)) == 560


def raise_injectives(monkeypatch, amounts):
    """Add ``amounts(spec)[v]`` to the first coordinate of vertex v's projected injective,
    in every ``FoldedCategory`` built after the call."""
    real = FoldedCategory._build_projections

    def build(self):
        real(self)
        dimproj = list(self.dimproj)
        for v, amount in amounts(self.spec).items():
            ident = self.ar.inj_module[v]
            dimproj[ident] = (dimproj[ident][0] + amount,) + dimproj[ident][1:]
        self.dimproj = tuple(dimproj)

    monkeypatch.setattr(FoldedCategory, "_build_projections", build)


def plant_weight_in_conditions(monkeypatch):
    # the unfolding conditions read weight 1 raised by one; nothing else does
    real = unfolding.conditions_hold

    def conditions(S_rows, B, blocks, weights, memo=None):
        return real(S_rows, B, blocks, (weights[0], weights[1] + 1) + weights[2:], memo)

    monkeypatch.setattr(unfolding, "conditions_hold", conditions)


def plant_weight_swap(monkeypatch):
    # one block partner's injective moves off the weight-swap identity; the
    # orbits of vertices 0 and 2n - 1 of I2 are block[0]'s, so untouched
    raise_injectives(monkeypatch, lambda spec: {spec.blocks[0][1]: 1})


def plant_angle(monkeypatch):
    # vertex 0's injective leaves angle 0; its block partners move with it
    # by their weights, so the weight-swap identity still holds
    raise_injectives(
        monkeypatch,
        lambda spec: {v: spec.weights[v] for v in next(b for b in spec.blocks if 0 in b)},
    )


def plant_block_element(monkeypatch):
    monkeypatch.setattr(TropicalWalker, "block_element", lambda self, block: ChebElem.one(self.n))


def plant_lost_tilting_object(monkeypatch):
    real = ClusterCategory.enumerate_tilting
    monkeypatch.setattr(ClusterCategory, "enumerate_tilting", lambda self: real(self)[1:])


def plant_missing_complement(monkeypatch):
    real = ClusterCategory.complements
    first = []

    def one_short(self, rest):
        first.append(rest)
        comps = real(self, rest)
        return comps[:1] if rest == first[0] else comps

    monkeypatch.setattr(ClusterCategory, "complements", one_short)


def plant_folded_g_vector(monkeypatch):
    real = ClusterCategory.g_vector_folded

    def shifted(self, x):
        g = real(self, x)
        return (g[0] + 1,) + g[1:]

    monkeypatch.setattr(ClusterCategory, "g_vector_folded", shifted)


# one planted defect per `verify all` line, named by the line it should break
VERIFY_ALL_PLANTS = {
    "weighted-unfolding-conditions": plant_weight_in_conditions,
    "projected-dimension-theorem": plant_weight_swap,
    "root-of-unity-projection": plant_angle,
    "tropical-cube-and-blocks": plant_block_element,
    "tilting-enumeration": plant_lost_tilting_object,
    "two-complements": plant_missing_complement,
    "tilting-G-matrix-projection": plant_folded_g_vector,
}
VERIFY_ALL_KINDS = {"I2": ("--kind", "I2", "--n", "2"), "H3": ("--kind", "H3"), "H4": ("--kind", "H4")}


@pytest.mark.parametrize(
    "kind,line",
    [
        pytest.param(kind, line, id=f"{kind}-{line}")
        for kind in VERIFY_ALL_KINDS
        for line in VERIFY_ALL_PLANTS
        if kind == "I2" or line != "root-of-unity-projection"
    ],
)
def test_verify_all_fails_the_planted_line(capsys, monkeypatch, kind, line):
    VERIFY_ALL_PLANTS[line](monkeypatch)
    code = main(["verify", "all", *VERIFY_ALL_KINDS[kind], "--depth", "1", "--random", "0"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 1 and captured.err == ""
    assert [text.split()[1] for text in lines] == [
        name for name in VERIFY_ALL_PLANTS if kind == "I2" or name != "root-of-unity-projection"
    ]
    assert [text.split()[1] for text in lines if text.startswith("FAIL ")] == [line]
    if line == "tilting-enumeration":
        count = {"I2": 7, "H3": 32, "H4": 280}[kind]  # Cat(I2(5)), Cat(H3), Cat(H4)
        assert f"FAIL tilting-enumeration count={count - 1} expected={count}" in lines


def test_verify_all_reports_every_line_of_a_wrong_weight(capsys, monkeypatch):
    # a category that cannot be built fails the claim that builds it with the
    # verifier's message; the claims that need it name that claim
    bad = FoldingSpecBrokenWeights(standard_folding("H3"))
    monkeypatch.setattr(cli, "standard_folding", lambda kind, *n: bad)
    code = main(["verify", "all", "--kind", "H3", "--depth", "2", "--random", "0"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert captured.out.splitlines() == [
        "FAIL weighted-unfolding-conditions words=1 seed=0",
        "FAIL projected-dimension-theorem "
        "projected vector of module 1 is not a Chebyshev multiple of a root",
        "FAIL tropical-cube-and-blocks vertices=2 seed=0",
        "FAIL tilting-enumeration unchecked: projected-dimension-theorem failed",
        "FAIL two-complements unchecked: projected-dimension-theorem failed",
        "FAIL tilting-G-matrix-projection unchecked: projected-dimension-theorem failed",
    ]


def test_verify_all_reports_a_claims_own_assertion_on_its_line(capsys, monkeypatch):
    def none_found(self, rest):
        raise AssertionError("almost complete object has 0 complements, expected 2")

    monkeypatch.setattr(ClusterCategory, "complements", none_found)
    code, out = run(capsys, "verify", "all", "--kind", "I2", "--n", "2", "--depth", "0")
    assert code == 1
    assert out.splitlines()[-3:] == [
        "PASS tilting-enumeration count=7",
        "FAIL two-complements almost complete object has 0 complements, expected 2",
        "PASS tilting-G-matrix-projection",
    ]


def test_verify_all_lets_a_programming_error_propagate(capsys, monkeypatch):
    def broken(self, rest):
        raise KeyError(rest)

    monkeypatch.setattr(ClusterCategory, "complements", broken)
    with pytest.raises(KeyError):
        main(["verify", "all", "--kind", "I2", "--n", "2", "--depth", "0", "--random", "0"])


@pytest.mark.parametrize("n", [2, 5, 30])
def test_root_of_unity_projection_is_exact(monkeypatch, n):
    # no float is made, and raising v0 of any vector of either orbit by one fails it
    cat = FoldedCategory(standard_folding("I2", n))

    def no_float(self):
        raise AssertionError("float() of a ring value")

    monkeypatch.setattr(AlgReal, "__float__", no_float)
    assert cli.roots_of_unity_hold(cat)
    ar, real = cat.ar, cat.dimproj
    bumped = 0
    for vertex in (0, 2 * n - 1):
        top = ar.modules[ar.inj_module[vertex]]
        for p in range(top.slice + 1):
            ident = ar.grid[(top.orbit, top.slice - p)]
            v0, v1 = real[ident]
            cat.dimproj = real[:ident] + ((v0 + 1, v1),) + real[ident + 1:]
            assert not cli.roots_of_unity_hold(cat), (vertex, p)
            bumped += 1
    # the two orbits hold all 2n + 1 positive roots
    assert bumped == 2 * n + 1


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        argv = [
            "verify", "all", "--kind", "I2", "--n", "2", "--depth", "3", "--random", "8",
        ]
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = run(
            capsys, "tropical", "enumerate", "--kind", "I2", "--n", "2",
            "--out", str(path),
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["count"] == 14


# stdout sha256 of the benchmark's category commands, copied from
# perfbench/cli_digests.json (recorded at 774cefa), so that the tier-1 suite
# checks these bytes too.  The other five of the 20 (the four H4 JSON
# commands and `tilting enumerate --kind H3`) are pinned in TestByteIdentity's
# own list.
CATEGORY_DIGESTS = {
    "ar build --tables --kind H3": (
        "d904a4c6a48bbb4b8bca4fff46813a4d8140ad5fbb3bd92d075e573de0cdbcd0"
    ),
    "ar build --tables --kind I2 --n 3": (
        "0a78e27a189a216fdbe4b461cf0dc1fd109dd4f96fa24661c5f436fbf417ba9a"
    ),
    "ar build --tables --kind I2 --n 4": (
        "06bc1db22abb90e8d9789dab44aa32b45f7b09d16a202f611cd8f2769cfadcba"
    ),
    "fold dims --format csv --kind H3": (
        "cb195b90355e8bfab5bc497167ebeae9c30cebfffe773977b2827cfa2205efca"
    ),
    "fold dims --format csv --kind H4": (
        "53de2ade24f01da0b30445699e7b8f6563c8623964d1b1aba82d810393813994"
    ),
    "fold dims --format csv --kind I2 --n 3": (
        "5e9335dc767efb109d356dae865b8ff7832edf7877c53b6237278075ca1bddf8"
    ),
    "fold dims --format csv --kind I2 --n 4": (
        "af2c43d48d7ed9b671b8c7f8b5cc5e3ab4d1c0066f8f72df132f1c985c28e73b"
    ),
    "tilting enumerate --kind I2 --n 3": (
        "9b0b672f0448c970c9bf8d1b4a9d17ced80e8f7fe7312720112eb2da7fbdc7d3"
    ),
    "tilting enumerate --kind I2 --n 4": (
        "dd41643d3150e7ec1a1f1d94f25e1e199bab29f06896816d33e9bfabd97359cb"
    ),
    "tilting graph --format json --kind H3": (
        "26c5a8b9006520fd4151a5b5f5b7ab2fbdc5742d1a155ca2d7e6b86202928f25"
    ),
    "tilting graph --format json --kind I2 --n 3": (
        "2e5d90eb7cbba0fe20a410fa5d0f3562069dcfbc78a5fa94b331e9e25174bf1f"
    ),
    "tilting graph --format json --kind I2 --n 4": (
        "8fc2ee5eac61b8f2e13ba258b03af81044ecb70e0198013203e3b5abccbe5112"
    ),
    "verify all --depth 1 --random 0 --kind H3": (
        "4c28f878e05a37f8f5b84d5072b674d6cb597897b6b5aa4ca4acfa98f1caac0a"
    ),
    "verify all --depth 1 --random 0 --kind I2 --n 3": (
        "49ab4e0543d7abe0e3fd1aa9493a3275f369ba3d9b2c171f885cce56054e0cf6"
    ),
    "verify all --depth 1 --random 0 --kind I2 --n 4": (
        "adaca32205e5eec57fb5e82e6a268859d722c5df5278851529c7d68fe07225ef"
    ),
}


class TestByteIdentity:
    # stdout sha256 of CLI paths, most of which the benchmark digests do
    # not cover.  The first two were recorded at 774cefa, before the word verifiers checked
    # each distinct state once; the next two at c8c6a7c, before the cluster
    # category kept per-object g-vector tables and read complements off
    # the compatibility graph; the fifth at e102d15, before the cube check
    # was decided by the C^T X = I certificate.
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                "unfold verify --kind H3 --depth 4 --random 20",
                "d1c6c42a5c1f94729001d168a9fbf04a6e3cabd147a792fd6c09a237c4af34f0",
            ),
            (
                "tropical walk --kind I2 --n 3 --depth 5 --random 10",
                "36ba7b9049a21761869ef2fe97e95c9f6e9b50df95ed603953ad5f32521aca08",
            ),
            (
                "tilting graph --kind H4",
                "5007e8c361df58beb60c65fb40482889f3e76ab90eb88141f32c561825e66c79",
            ),
            (
                "verify all --kind H3 --depth 2 --random 10",
                "d107d4c74ffae3055fd098dc6c8f7f29f09b86308b971c0c0b9b0a4e5623d49f",
            ),
            (
                "tropical walk --kind H4 --depth 3 --random 10",
                "0930af8e03c153a5b2bfebab711f784aa233dd76e05239335860fda9c0470278",
            ),
            # recorded at 761cb71, before the unfolding conditions had one
            # loop and the handlers read the argparse namespace
            (
                "ring minpoly --m 7",
                "2ccf09bfb7713e572e01c566e70caa03db8f431a460c5f15e9a49af7b065400d",
            ),
            (
                "ring regrep --n 3 --k 1",
                "a542c4e4dd298b3c6ae4f8770985c6f397142dd5ae6fd721a5e39fc972f4a172",
            ),
            (
                "unfold build --kind H4",
                "88dabc344a3052dc72eb1cf309b45386749742c722093f4aaa0286d6e368bd4b",
            ),
            (
                "ar build --kind I2 --n 3 --format dot",
                "6c33037a48048f19238097422277068edcdaa464655b5037a770d1bc987dc08e",
            ),
            (
                "fold dims --kind H3",
                "88284c3be7223d04b6b09eabfc26a87e3fef1ad872ae79e7913ebe405a98682d",
            ),
            (
                "tropical enumerate --kind H3",
                "dd68be76adf65bb0d9b5383b886b1ce83a9fc25743645c07ac5ad6c4fe115c7f",
            ),
            (
                "tilting enumerate --kind I2 --n 2",
                "112e97dcd9f04bb7d48523d73924bada846f9c1e86a9764aec26edba2cf9a315",
            ),
            (
                "verify all --kind F4E6",
                "0cd43d48a2595d0165daf9c07f30bd8d86ea1f752a5b721ad74cd855f96f94bc",
            ),
            (
                "verify all --kind I2m --n 5",
                "c0948e4389c2b2eb61e19aa524e2b60afd10d77f2f738b65f2aefae2ef9d54b2",
            ),
            # recorded at 165ef88, before the cluster category filled its
            # tables by whole hammock rows and decided each exchange-graph
            # edge once; equal to the benchmark's digests of these commands
            (
                "tilting enumerate --kind H4",
                "d9bb689728f05e99c2c435bcf3fe1a693996a3315a48f28794d9b162740a9b60",
            ),
            (
                "tilting graph --format json --kind H4",
                "dd721499db68028d8fa8a8b63ec83dc7a243fee699dd132ff1b8e5122f6f8322",
            ),
            (
                "ar build --tables --kind H4",
                "8fef39003da09a010da28848323e97ce2ba039da75b876cc34dce2aaf4c90c33",
            ),
            (
                "verify all --depth 1 --random 0 --kind H4",
                "4a2e9e6ef8c014625461dabdab8caf4d8735b1c3a99b88994f91657ea128f45a",
            ),
            # recorded at 4e2611f, before the tropical checks computed on
            # coefficient tuples; deeper than the benchmark's depth-1 digests
            (
                "verify all --kind H4 --depth 5 --random 50",
                "922bb76197a6f79ac727f3f87bf6fe79d075fce97191a91332b5261ba4b941ac",
            ),
            (
                "verify all --kind H3 --depth 6 --random 200",
                "a6eac6e796d3bd7100604485bcc50dc76822e73aa4fe8687bba289b260431b44",
            ),
            # recorded at 65fa1ae, before the unfolding conditions computed
            # on coefficient tuples
            (
                "unfold verify --kind H4",
                "a2d936caf51c2605e3dacf0df9b64c043f1971571ea123125e3c19e300025175",
            ),
            (
                "unfold verify --kind I2m --n 6",
                "8823dc7f7c26fed3818e9e9f3d1e2724e19dacbbc8abe453fdd5e4ce9583d70d",
            ),
            (
                "unfold verify --kind F4E6",
                "a2d936caf51c2605e3dacf0df9b64c043f1971571ea123125e3c19e300025175",
            ),
            # recorded at 010e123, before the CLI wrote JSON with its own
            # writer and formatted each distinct float once per command; the
            # same digests come from a fresh interpreter
            (
                "fold dims --kind H4 --format csv",
                "53de2ade24f01da0b30445699e7b8f6563c8623964d1b1aba82d810393813994",
            ),
            (
                "fold dims --kind I2 --n 3 --format csv",
                "5e9335dc767efb109d356dae865b8ff7832edf7877c53b6237278075ca1bddf8",
            ),
            (
                "tropical enumerate --kind H3 --format csv",
                "25effe13f8eb6c7a43c0a6b1a47098d7aa938cc82f58f6792056a21d53b76917",
            ),
            (
                "tropical enumerate --kind I2 --n 3 --format csv",
                "99d684c404ce3413398dbb28310911f18424914e8e58213912ed2cf94ecca143",
            ),
            (
                "ar build --kind H3",
                "dd66c45a6fbdef4c8d934b7aa6cf99f39629f29f145af7975f53669ae35da7d8",
            ),
            (
                "tilting enumerate --kind H3",
                "44c55cf05c1c45d928dfa030df7e31ed9520df52f0db74e9e3bff220642085e7",
            ),
            # recorded at eb92619, before seeds, ExchangeMatrix.mutate and
            # g_matrix computed on coefficient tuples; the H3 CSV pin above
            # was recorded again there and matched
            (
                "tropical enumerate --kind I2 --n 4 --format csv --precision 17",
                "9fe61bf6c0ffd70350091e91b776d5b32a56552c3ca0226e7cc6aa11fab1610f",
            ),
            # recorded at b28e8e6, before the Hom table was knitted by
            # tau-shift, rigidity read generator bitmasks and the projections
            # were decoded once per category
            (
                "ar build --kind H4 --format dot",
                "c2d84e525be8bc0ba3868af0dd33ed76cd3baee8110e701466f65af729734353",
            ),
            (
                "fold dims --kind H4",
                "f971fad38a9ea5bd64e998ccfded8c94af80b277f7159e4023215bb285adc40f",
            ),
            (
                "tilting graph --kind I2 --n 4",
                "823b39b1e0be517325267728228bbde8fa4951a241e9a8fc883d5cd0fd953113",
            ),
            # recorded at e778647, before H3, H4 and I2(2n+1) were built by
            # one block placement and FoldingSpec stopped storing kappa and m;
            # the H4 row is above
            (
                "unfold build --kind H3",
                "7f1d2bfecd11f37bbd97e4f340e70eb12dae25e7d73457ae8a2a4bcdc8d40b49",
            ),
            (
                "unfold build --kind I2 --n 2",
                "388b02b9e366931d785b8a9770f58f24b6779dc0c3d9d540f3b99758180db134",
            ),
            (
                "unfold build --kind I2 --n 3",
                "d728d2511048e107bcb7e5997c39a6123181c35f0fb7328ab0f3ddfdb197bff9",
            ),
            (
                "unfold build --kind I2 --n 5",
                "36c2be3b8a116917a6b99015f2f548332de2f26aece334058c4b1366e9bb0db3",
            ),
            (
                "unfold build --kind I2 --n 8",
                "712db9c4fab3f6413cf609484f997415f9f589f16342734cfe64d8a5449fe444",
            ),
            (
                "unfold build --kind I2m --n 5",
                "f62d7c496d728b853d54b402f995ae255420feed1b014efbaa4d26f435987529",
            ),
            (
                "unfold build --kind I2m --n 6",
                "3e2514094899b2b2a570606e1514f7b7a3a93ccc45f2a00b41e2ab0c7e4754e6",
            ),
            (
                "unfold build --kind F4E6",
                "38d7f23adfd064797abcfd96bfd842133392baa745bc3d93bb13e5c00c8a2f67",
            ),
            # recorded at b3cc372, before the exchange graph ran on the
            # explorer's breadth-first closure
            (
                "tilting graph --kind H3",
                "e2c87d5a74584ea256513bdffd7cb7101457dd9c1dace429d9fb6bba6a3e918f",
            ),
            (
                "tilting graph --kind I2 --n 16 --format json",
                "c039f6291bf2ea4ae7d4c8fccdfbfe82af785c71259d61cd56ed16363f569cff",
            ),
        ] + list(CATEGORY_DIGESTS.items()),
    )
    def test_stdout_unchanged(self, capsys, argv, digest):
        code, out = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_mutate_stdout_unchanged(self, capsys, tmp_path):
        # recorded at 761cb71
        path = tmp_path / "B.json"
        path.write_text(json.dumps(standard_folding("H3").B.to_json()))
        code, out = run(capsys, "mutate", "--matrix", str(path), "--at", "0,2,1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "962d152e262468e2970273c783ea150d4414097c1701e0d6a69bb7315b289789"
        )

    def test_mutate_mixed_entries_stdout_unchanged(self, capsys, tmp_path):
        # recorded at eb92619, before ExchangeMatrix.mutate stepped coefficient
        # tuples; int entries stay ints only where no AlgReal reaches them
        path = tmp_path / "B.json"
        path.write_text(json.dumps({"entries": [
            [0, {"m": 5, "coeffs": [0, 1]}, 0],
            [{"m": 5, "coeffs": [0, -1]}, 0, 1],
            [0, -1, 0],
        ]}))
        code, out = run(capsys, "mutate", "--matrix", str(path), "--at", "0,1,2,1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "89c77c29ce535e4cb89ba853388c76c229a1feb7afaa231e050274477ae6a135"
        )

    # The JSON of failing unfolding reports, as ``unfold verify`` prints
    # them: a column-sum failure and a sign failure at the empty word, and a
    # sign failure after mutations.  Recorded at 761cb71.  The third names
    # the length-lex-first failing word, (2, 1) after 15 words; the
    # depth-first tree before the breadth-first search named (0, 0, 0, 2, 1)
    # after 17 words (digest 222e4252...).
    @pytest.mark.parametrize(
        "make,digest",
        [
            (
                lambda: check_weighted_unfolding(
                    FoldingSpecBrokenWeights(standard_folding("H3")),
                    depth=2, random_words=3, seed=5,
                ),
                "d3ea7b7cce9662eba2c2b6fd5ab97bb398d6942c3b39b5e75e5c255bb8cf976c",
            ),
            (
                lambda: check_weighted_unfolding(
                    sign_flipped_f4e6(), depth=2, random_words=3, seed=5
                ),
                "c8f44f377726c634a3ea197d365524c65be9a25d02222fe2ac80e7af709629ab",
            ),
            (
                lambda: check_weighted_unfolding(
                    shifted_f4e6(), depth=5, random_words=20, random_length=8
                ),
                "b45c093ce1d7330267cb4c1e0f8e1f0535035bef9d97abaf5150625cbcd9f085",
            ),
            # recorded at 65fa1ae, before the unfolding conditions computed
            # on coefficient tuples; the first two records carry AlgReal
            # actual and expected values
            (
                lambda: check_weighted_unfolding(FoldingSpecBrokenWeights(standard_folding("H4"))),
                "2d4a5e5e0cae7a03c153da56782b7dbcd674088a27f08d5efb4ba81fd51fefc2",
            ),
            (
                lambda: check_weighted_unfolding(
                    FoldingSpecBrokenWeights(standard_folding("I2m", 5))
                ),
                "7064648505f0c24fd8039d96f2b1dc165cb5450abb4137027eb97923c53374cd",
            ),
            (
                lambda: check_weighted_unfolding(sign_flipped_f4e6()),
                "deef33f5dbb2e4e18a55a8ceb9f0993f3cd37a7dd2fea81f2d8a314be0c5b0d2",
            ),
        ],
        ids=[
            "column-sum", "sign", "sign-after-five-steps", "broken-weights-H4",
            "broken-weights-I2m5", "sign-default-size",
        ],
    )
    def test_failing_unfolding_json_unchanged(self, make, digest):
        report = make()
        assert not report.passed
        text = json.dumps(report.to_json(), sort_keys=True, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # These print float(sigma(...)) at full precision, through the
    # interval-Horner path of AlgReal.interval.  Its last bit depends on how
    # far earlier work in the process narrowed the shared isolating
    # interval, so each runs in a fresh interpreter, as a CLI user's does.
    # Recorded at 0ed6f4f, before AlgReal.sign used the integer enclosure.
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                "ring sigma --n 3 --a 1,2,-1",
                "ba8af774f856a937c74385f4ed12f945d96dd1b8caf08f86aa85c3f6d5d6ad91",
            ),
            (
                "ring mul --n 4 --a 1,0,2,0 --b 0,1,0,1",
                "a7094799608790e8a7c57bfc8a6a6a627cb879077a5b6efdcaa1c923de744f49",
            ),
            # recorded at 7a681ef, before seeds carried their G-matrix and
            # enumerate_seeds ran on the mutation-graph explorer
            (
                "tropical enumerate --kind H4 --format csv",
                "c38fdd3799d220c7ee35cda39ea7bf83d9bffe23eec9075d6d51e712257d7aa5",
            ),
        ],
    )
    def test_float_stdout_unchanged_in_fresh_process(self, argv, digest):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quiverfold.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "quiverfold.cli", *argv.split()],
            capture_output=True, env=env, check=True,
        )
        assert hashlib.sha256(proc.stdout).hexdigest() == digest


def plain(x):
    """``x`` with each ring value replaced by its ``to_json()``: what ``json.dumps`` takes."""
    if isinstance(x, (AlgReal, ChebElem)):
        return x.to_json()
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(map(plain, x))
    return x


_ring_values = st.one_of(
    st.tuples(st.sampled_from((5, 7)), st.lists(st.integers(-3, 3), max_size=4)).map(
        lambda mc: AlgReal(*mc)
    ),
    st.sampled_from((2, 3)).flatmap(
        lambda n: st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(
            lambda c: ChebElem(n, tuple(c))
        )
    ),
)
_leaves = st.one_of(
    st.integers(-(10**20), 10**20),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((-0.0, 1e16, float("nan"), 0.1)),
    st.text(),
    st.sampled_from(('"', "\\", "\n\t\x00", "\u00e9\u2603", "\U0001f600")),
    _ring_values,
)
_documents = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.integers(-5, 5), max_size=5),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
        st.dictionaries(st.integers(-3, 3), inner, max_size=3),
    ),
    max_leaves=25,
)


class TestJsonWriter:
    """``cli._json`` against ``json.dumps(..., sort_keys=True, indent=2)`` as the oracle."""

    @given(_documents)
    @settings(max_examples=400, deadline=None)
    @example({"a": [AlgReal(5, (1,)), 1], "b": AlgReal(5, (1,)), "c": 1})
    @example([AlgReal(7, (0, 1)), AlgReal(5, (0, 1)), [AlgReal(5, (0, 1))], ChebElem(2, (0, 1))])
    @example({"x": [], "y": {}, "z": ((),), 3: "int keys"})
    @example({1: AlgReal(5, (2, 1)), 2: [ChebElem(3, (1, 0, -1)), -0.0, 1e16]})
    # scalar containers, which the C encoder writes in one call, at depth >= 2
    @example([[None, True, False, 0, -1, "a"], [(1, 2.5, "x", None)], [[[True]]]])
    @example({"a": {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")}})
    @example([{"z": -0.0, "big": 1e16, "tenth": 0.1, "none": None, "t": True, "f": False}])
    @example({"k": ("\u00e9\u2603", "\U0001f600", '"', "\\", "\n\t\x00"), "e": [(), {}]})
    @example({"outer": [{"\u00e9": 1, "b": [False, None]}, {"c": (3, "x", 1.5, True)}]})
    @example([{1: "a", "b": 2}])  # mixed int and str keys: json.dumps raises TypeError
    def test_bytes_equal_json_dumps(self, x):
        try:
            want = json.dumps(plain(x), sort_keys=True, indent=2)
        except TypeError:  # a dict mixing int and str keys cannot be sorted
            with pytest.raises(TypeError):
                cli._json(x)
            return
        assert cli._json(x) == want

    def test_ring_value_and_equal_int_are_written_apart(self):
        one = AlgReal(5, (1,))
        assert one == 1 and hash(one) == hash(1)
        assert json.loads(cli._json([1, one, 1, one])) == [1, one.to_json(), 1, one.to_json()]

    def test_other_objects_are_refused_as_json_refuses_them(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._json({"a": [object()]})
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._json([object()])


class TestParserReuse:
    """One process, several commands: each behaves as in a fresh interpreter."""

    COMMANDS = [
        "tilting enumerate --kind I2 --n 3",
        "ar build --kind I2",
        "tropical walk --kind H3 --depth -1",
        "fold dims --kind H3 --format csv --out {out}",
        "tropical enumerate --kind I2 --n 3",
        "tilting enumerate --kind I2 --n 3",
    ]

    @staticmethod
    def fresh(argv):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quiverfold.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "quiverfold.cli", *argv], capture_output=True, env=env, text=True
        )
        return proc.returncode, proc.stdout, proc.stderr

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_repeated_main_matches_fresh_interpreters(self, capsys, tmp_path):
        for i, command in enumerate(self.COMMANDS):
            here, there = tmp_path / f"here{i}", tmp_path / f"there{i}"
            try:
                code = main(command.format(out=here).split())
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            want_code, want_out, want_err = self.fresh(command.format(out=there).split())
            assert (code, captured.out) == (want_code, want_out), command
            # argparse wraps its usage line to the terminal; the message is the last line
            assert captured.err.splitlines()[-1:] == want_err.splitlines()[-1:], command
            if "{out}" in command:
                assert here.read_text() == there.read_text()
        assert code == 0


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required(self):
        with pytest.raises(SystemExit) as err:
            main(["ar", "build"])
        assert err.value.code == 2

    @pytest.mark.parametrize("names", ["cubee", "", "cube,,roots"])
    def test_unknown_or_empty_check_name(self, capsys, names):
        with pytest.raises(SystemExit) as err:
            main(["tropical", "walk", "--kind", "I2", "--n", "2", "--verify", names])
        assert err.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_kind_needs_n(self, capsys):
        for argv in ("ar build --kind I2", "tilting enumerate --kind I2"):
            self.assert_usage_error(capsys, argv, "--kind I2 requires --n")

    def test_n_with_a_kind_that_takes_none(self, capsys):
        for argv in ("verify all --kind H3 --n 5", "tropical walk --kind H4 --n 3"):
            self.assert_usage_error(capsys, argv, "--n applies only to --kind I2 and I2m")

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("ring minpoly --m 2", "m must be >= 3"),
            ("ring minpoly --m 0", "m must be >= 3"),
            ("ring regrep --n 3 --k 7", "index k=7 out of range 0..2"),
            ("ring regrep --n 0 --k 0", "rank parameter n must be >= 2"),
            ("ring regrep --n -1 --k 0", "rank parameter n must be >= 2"),
            ("ring mul --n 2 --a 0,1 --b 0,1,2", "expected 2 coefficients, got 3"),
            ("unfold verify --kind I2m --n 2", "dihedral order m >= 3"),
            ("unfold build --kind I2 --n 1", "rank parameter n >= 2"),
            ("tropical enumerate --kind H3 --cap 0", "cap must be >= 1"),
        ],
    )
    def test_bad_value_is_a_usage_error(self, capsys, argv, message):
        self.assert_usage_error(capsys, argv, message)

    def test_bad_integer_list(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["ring", "sigma", "--n", "2", "--a", "0,x"])
        assert err.value.code == 2
        assert "not a comma-separated integer list" in capsys.readouterr().err

    @pytest.fixture
    def matrix_file(self, tmp_path):
        path = tmp_path / "B.json"
        path.write_text(json.dumps(standard_folding("I2", 2).B.to_json()))
        return path

    @pytest.mark.parametrize("at", ["9", "0,2", "-1"])
    def test_mutate_vertex_out_of_range(self, capsys, matrix_file, at):
        self.assert_usage_error(
            capsys, f"mutate --matrix {matrix_file} --at={at}",
            f"mutation index {at.split(',')[-1]} out of range 0..1",
        )

    def test_mutate_missing_or_malformed_matrix(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        self.assert_usage_error(
            capsys, f"mutate --matrix {missing} --at 0", "No such file or directory"
        )
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        self.assert_usage_error(capsys, f"mutate --matrix {bad} --at 0", f"--matrix {bad}")

    def test_mutate_empty_matrix(self, capsys, tmp_path):
        path = tmp_path / "B.json"
        path.write_text(json.dumps({"entries": []}))
        self.assert_usage_error(
            capsys, f"mutate --matrix {path} --at 0",
            "mutation index 0 out of range (the matrix is empty)",
        )
        # no index at all: the 0x0 matrix, unchanged
        assert main(["mutate", "--matrix", str(path), "--at", ""]) == 0
        assert json.loads(capsys.readouterr().out) == {"ring": "Z", "n": 0, "entries": []}

    @pytest.mark.parametrize("text", MALFORMED_MATRIX_JSON)
    def test_mutate_matrix_of_the_wrong_shape(self, capsys, tmp_path, text):
        path = tmp_path / "B.json"
        path.write_text(text)
        self.assert_usage_error(capsys, f"mutate --matrix {path} --at 0", f"--matrix {path}")

    @pytest.mark.parametrize(
        "argv",
        [
            "unfold verify --kind H3 --depth -1",
            "tropical walk --kind H3 --depth -1",
            "verify all --kind H3 --depth -2",
            "unfold verify --kind H3 --random -1",
            "verify all --kind H3 --length -3",
            "tropical enumerate --kind H3 --cap -1",
            "fold dims --kind H3 --precision -1",
            "tropical walk --kind H3 --length x",
        ],
    )
    def test_negative_count_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv.split())
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not an integer >= 0" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("cap", [0, -1])
    def test_enumerate_seeds_needs_a_positive_cap(self, cap):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            enumerate_seeds(standard_folding("H3").B, cap=cap)

    def test_unwritable_out(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        self.assert_usage_error(
            capsys, f"ring minpoly --m 5 --out {path}", f"cannot write --out {path}"
        )
        assert not path.parent.exists()

    def test_unwritable_out_is_reported_before_the_work(self, capsys, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the command ran before --out was opened")

        monkeypatch.setattr(cli, "enumerate_seeds", never)
        path = tmp_path / "missing" / "x.csv"
        self.assert_usage_error(
            capsys, f"tropical enumerate --kind H4 --format csv --out {path}",
            f"cannot write --out {path}",
        )

    def test_out_is_closed_on_every_path(self, capsys, tmp_path, monkeypatch):
        handles = []

        def tracked(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(cli, "open", tracked, raising=False)
        path = tmp_path / "x.json"
        assert main(["ring", "minpoly", "--m", "5", "--out", str(path)]) == 0
        assert json.loads(path.read_text()) == {"m": 5, "coeffs": [-1, -1, 1]}
        bad = FoldingSpecBrokenWeights(standard_folding("H3"))
        monkeypatch.setattr(cli, "standard_folding", lambda kind, *n: bad)
        assert main(["unfold", "verify", "--kind", "H3", "--depth", "1", "--out", str(path)]) == 1
        assert json.loads(path.read_text())["passed"] is False
        self.assert_usage_error(capsys, f"ring regrep --n 0 --k 0 --out {path}", "rank parameter")

        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "reg_rep", boom)
        with pytest.raises(RuntimeError, match="boom"):
            main(["ring", "regrep", "--n", "3", "--k", "1", "--out", str(path)])
        assert len(handles) == 4 and all(fh.closed for fh in handles)

    def test_mutate_bad_vertex_list(self, capsys, matrix_file):
        with pytest.raises(SystemExit) as err:
            main(["mutate", "--matrix", str(matrix_file), "--at", "x"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a comma-separated vertex list: 'x'" in captured.err
        assert "Traceback" not in captured.err

    @staticmethod
    def assert_usage_error(capsys, argv, message):
        """Exit 2, nothing on stdout, one line on stderr, no traceback."""
        with pytest.raises(SystemExit) as err:
            main(argv.split())
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("quiverfold: error: ") and message in lines[0]


def test_sigma_float_ignores_earlier_refinement(capsys):
    # the fresh-interpreter pins of TestByteIdentity hold in this process too,
    # before and after the shared isolating interval is narrowed far below
    # the float's width
    for argv, m, digest in (
        (
            ("ring", "sigma", "--n", "3", "--a", "1,2,-1"), 7,
            "ba8af774f856a937c74385f4ed12f945d96dd1b8caf08f86aa85c3f6d5d6ad91",
        ),
        (
            ("tropical", "enumerate", "--kind", "I2", "--n", "4", "--format", "csv",
             "--precision", "17"), 9,
            "9fe61bf6c0ffd70350091e91b776d5b32a56552c3ca0226e7cc6aa11fab1610f",
        ),
    ):
        _, before = run(capsys, *argv)
        AlgReal.generator(m).interval(Fraction(1, 10**40))
        _, after = run(capsys, *argv)
        assert after == before
        assert hashlib.sha256(after.encode()).hexdigest() == digest


def test_verify_all_projects_each_lifted_g_vector_once(capsys, monkeypatch):
    # tilting-G-matrix-projection shares one d_F memo across the 280 H4
    # tilting objects: one coeff_d_F call per distinct lifted column, not 1,120
    projected, inside = [], []
    real_matrix, real_d_F = cli.matrix_d_F, FoldingSpec.coeff_d_F

    def matrix(*args):
        inside.append(1)
        try:
            return real_matrix(*args)
        finally:
            inside.pop()

    def d_F(self, vector):
        if inside:
            projected.append(vector)
        return real_d_F(self, vector)

    monkeypatch.setattr(cli, "matrix_d_F", matrix)
    monkeypatch.setattr(FoldingSpec, "coeff_d_F", d_F)
    code, out = run(capsys, "verify", "all", "--kind", "H4", "--depth", "0", "--random", "0")
    assert code == 0 and "PASS tilting-G-matrix-projection" in out.splitlines()
    assert len(projected) == len(set(projected)) <= 64
