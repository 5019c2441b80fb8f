"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact integer or algebraic-number arithmetic except
criterion 4's float check of the plane embedding (1e-9), which stands beside
the exact root-of-unity claim.  Expensive objects are
shared through module-scoped fixtures so the suite stays inside its time
budget; run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import contextlib
import io
import math
import time

import pytest

from quiverfold import cli
from quiverfold.chebring import AlgReal, ChebElem, cheb_mul, reg_rep, rho, sigma
from quiverfold.clustercat import ClusterCategory
from quiverfold.repcat import FoldedCategory, hom_ext_tables
from quiverfold.tropical import TropicalWalker, enumerate_seeds, g_matrix, transpose
from quiverfold.unfolding import check_weighted_unfolding, standard_folding
from spec_oracles import (
    euler_form, is_classical_tilting, matrix_d_F, oracle_tables, tilting_G_matrices,
)


def _report(num, name, detail=""):
    print(f"ACCEPTANCE {num} PASS {name}{(' ' + detail) if detail else ''}")


@pytest.fixture(scope="module")
def cats():
    return {
        "I2(5)": FoldedCategory(standard_folding("I2", 2)),
        "I2(7)": FoldedCategory(standard_folding("I2", 3)),
        "I2(9)": FoldedCategory(standard_folding("I2", 4)),
        "H3": FoldedCategory(standard_folding("H3")),
        "H4": FoldedCategory(standard_folding("H4")),
    }


@pytest.fixture(scope="module")
def clusters():
    return {
        "I2(7)": ClusterCategory(standard_folding("I2", 3)),
        "H3": ClusterCategory(standard_folding("H3")),
        "H4": ClusterCategory(standard_folding("H4")),
    }


@pytest.fixture(scope="module")
def tiltings(clusters):
    return {kind: cc.enumerate_tilting() for kind, cc in clusters.items()}


@pytest.fixture(scope="module")
def cube_walks():
    plans = {
        "H3": (standard_folding("H3"), 8),
        "I2(7)": (standard_folding("I2", 3), 8),
        "H4": (standard_folding("H4"), 6),
    }
    out = {}
    for kind, (spec, depth) in plans.items():
        walker = TropicalWalker(spec)
        out[kind] = walker.verify_cube(
            depth=depth, random_words=500, random_length=30, seed=2024
        )
    return out


def test_criterion_01_chebyshev_suite():
    start = time.time()
    for n in range(2, 7):
        m = 2 * n + 1
        theta = math.pi / m

        def value(k):
            return math.sin((k + 1) * theta) / math.sin(theta)

        for k in range(n):
            for l in range(n):
                prod = cheb_mul(ChebElem.theta(n, k), ChebElem.theta(n, l))
                # the defining rule, against the independent numeric oracle
                numeric = sum(c * value(i) for i, c in enumerate(prod.coeffs))
                assert abs(numeric - value(k) * value(l)) < 1e-9
                # the regular representation is multiplicative
                a, b = reg_rep(k, n), reg_rep(l, n)
                product_matrix = tuple(
                    tuple(sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n))
                    for i in range(n)
                )
                assert product_matrix == rho(prod)
    collapse4 = sigma(ChebElem.theta(4, 3)) - sigma(ChebElem.one(4)) - sigma(ChebElem.theta(4, 1))
    assert collapse4.is_zero()
    collapse3 = sigma(ChebElem.theta(3, 2)) - sigma(ChebElem.one(3)) - sigma(ChebElem.theta(3, 1))
    assert not collapse3.is_zero()
    _report(1, "chebyshev-suite", f"{time.time() - start:.2f}s")


def test_criterion_02_unfolding_verification():
    start = time.time()
    plans = [
        ("F4E6", None),
        ("I2m", 5),
        ("I2m", 6),
        ("H3", None),
        ("H4", None),
    ]
    words = 0
    for kind, n in plans:
        spec = standard_folding(kind, n)
        report = check_weighted_unfolding(
            spec, depth=6, random_words=200, random_length=20, seed=11
        )
        assert report.passed, (kind, report.failure_word, report.failure_detail)
        words += report.words_checked
    _report(2, "weighted-unfolding", f"words={words} {time.time() - start:.1f}s")


def test_criterion_03_folding_theorem(cats):
    start = time.time()
    expected_roots = {"I2(5)": 5, "I2(7)": 7, "I2(9)": 9, "H3": 15, "H4": 60}
    for kind, cat in cats.items():
        report = cat.verify_folding_theorem()
        assert report["passed"], (kind, report["problems"])
        assert report["weight_one_row_roots"] == expected_roots[kind]
        assert sum(report["factor_counts"]) == len(cat.ar.modules)
    _report(3, "projected-dimension-theorem", f"{time.time() - start:.1f}s")


def test_criterion_04_roots_of_unity(cats):
    # exactly, as `verify all` decides it; then from the floats of the same
    # vectors' entries, (v0, v1) -> (v0 - v1 cos theta, v1 sin theta)
    for n in (2, 3, 4):
        cat = cats[f"I2({2 * n + 1})"]
        assert cli.roots_of_unity_hold(cat)
        theta = math.pi / (2 * n + 1)
        for vertex, angle in ((0, lambda p: 2 * p), (2 * n - 1, lambda p: 2 * p + 1)):
            ident = cat.ar.inj_module[vertex]
            orbit = cat.ar.modules[ident].orbit
            top = cat.ar.modules[ident].slice
            for p in range(top + 1):
                v0, v1 = map(float, cat.dimproj[cat.ar.grid[(orbit, top - p)]])
                x, y = v0 - v1 * math.cos(theta), v1 * math.sin(theta)
                assert abs(x - math.cos(angle(p) * theta)) < 1e-9
                assert abs(y - math.sin(angle(p) * theta)) < 1e-9
    _report(4, "root-of-unity-projection")


def test_criterion_05_a4_figure(cats):
    cat = cats["I2(5)"]
    phi = AlgReal.generator(5)
    one, zero = AlgReal(5, (1,)), AlgReal(5)
    expected = {
        (1, 0, 0, 0): (one, zero),
        (0, 1, 1, 0): (phi, phi),
        (0, 0, 0, 1): (zero, one),
        (1, 1, 1, 0): (one + phi, phi),
        (0, 1, 1, 1): (phi, one + phi),
        (0, 0, 1, 0): (phi, zero),
        (1, 1, 1, 1): (one + phi, one + phi),
        (0, 1, 0, 0): (zero, phi),
        (0, 0, 1, 1): (phi, one),
        (1, 1, 0, 0): (one, phi),
    }
    got = {mod.dim: cat.dimproj[mod.ident] for mod in cat.ar.modules}
    assert got == expected
    _report(5, "a4-projection-figure", "10 vectors exact")


def test_criterion_06_hom_ext_tables(cats):
    start = time.time()
    for kind in ("I2(5)", "I2(7)", "H3", "H4"):
        ar = cats[kind].ar
        hom, ext = hom_ext_tables(ar)
        size = len(ar.modules)
        for a in range(size):
            assert hom[a][a] == 1
            dim_a = ar.modules[a].dim
            for b in range(size):
                assert hom[a][b] - ext[a][b] == euler_form(ar, dim_a, ar.modules[b].dim)
    _report(6, "hom-ext-euler-identity", f"{time.time() - start:.1f}s")


def test_criterion_07_tilting(clusters, tiltings):
    start = time.time()
    expected = {"I2(7)": 9, "H3": 32, "H4": 280}
    for kind, cc in clusters.items():
        tilts = tiltings[kind]
        assert len(tilts) == expected[kind]
        _, ext = oracle_tables(cc)
        rank = cc.tilting_rank()
        for t in tilts:
            assert len(t) == rank
            hat = cc.hat(t)
            assert len(hat) == cc.nverts
            assert is_classical_tilting(ext, hat)
            for k in range(rank):
                comps = cc.complements(t[:k] + t[k + 1:])
                assert len(comps) == 2 and t[k] in comps
        # second run must reproduce the first exactly
        assert cc.enumerate_tilting() == tilts
    _report(7, "tilting-enumeration", f"counts=9/32/280 {time.time() - start:.1f}s")


def test_criterion_08_cube(cube_walks):
    for kind, report in cube_walks.items():
        cube_failures = [
            f for f in report.failures if "root" not in f[1] and "block" not in f[1]
            and "determinant" not in f[1] and "sign" not in f[1]
        ]
        assert not cube_failures, (kind, cube_failures[:3])
    total = sum(r.vertices_checked for r in cube_walks.values())
    _report(8, "tropical-cube", f"vertices={total}")


def test_criterion_09_c_vector_roots(cube_walks):
    for kind, report in cube_walks.items():
        root_failures = [f for f in report.failures if "root" in f[1] or "sign-coherent" in f[1]]
        assert not root_failures, (kind, root_failures[:3])
    _report(9, "c-vectors-are-roots")


def test_criterion_10_c_blocks(cube_walks):
    for kind, report in cube_walks.items():
        block_failures = [
            f for f in report.failures if "block" in f[1] or "determinant" in f[1]
        ]
        assert not block_failures, (kind, block_failures[:3])
    _report(10, "c-matrix-blocks")


def test_criterion_11_g_matrix_projection(clusters, tiltings):
    start = time.time()
    for kind, cc in clusters.items():
        for t in tiltings[kind]:
            G_hat, G_prime = tilting_G_matrices(cc, t)
            assert matrix_d_F(cc.spec, G_hat) == G_prime

    # the folded G-matrices of I2(7) tilting objects match the tropical walk;
    # presentation-based g-vectors pair with the opposite orientation of the
    # folded matrix (the usual convention twist of tropical duality)
    cc = clusters["I2(7)"]
    result = enumerate_seeds(-cc.spec.B)
    assert result.complete

    def canonical(matrix):
        return frozenset(transpose(matrix))

    walk_set = {canonical(g_matrix(seed).entries) for seed in result.seeds}
    tilt_set = {canonical(tilting_G_matrices(cc, t)[1]) for t in tiltings["I2(7)"]}
    assert walk_set == tilt_set
    _report(11, "g-matrix-projection", f"{time.time() - start:.1f}s")


VERIFY_ALL_CHECKS = [
    "weighted-unfolding-conditions", "projected-dimension-theorem", "root-of-unity-projection",
    "tropical-cube-and-blocks", "tilting-enumeration", "two-complements",
    "tilting-G-matrix-projection",
]


def _verify_all_i2(n):
    # I2(m) for m = 2n+1 has m positive roots and m + 2 clusters
    m = 2 * n + 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "all", "--kind", "I2", "--n", str(n)])
    lines = out.getvalue().splitlines()
    assert code == 0, (n, lines)
    assert [line.split()[1] for line in lines] == VERIFY_ALL_CHECKS, (n, lines)
    assert all(line.startswith("PASS ") for line in lines), (n, lines)
    assert f"PASS projected-dimension-theorem roots={m}/{m}" in lines, (n, lines)
    assert f"PASS tilting-enumeration count={m + 2}" in lines, (n, lines)


def test_criterion_12_every_i2_up_to_n16():
    start = time.time()
    for n in range(2, 17):
        _verify_all_i2(n)
    _report(12, "verify-all-I2(2n+1)", f"n=2..16 {time.time() - start:.1f}s")


def test_criterion_12_i2_61():
    start = time.time()
    _verify_all_i2(30)
    _report(12, "verify-all-I2(61)", f"n=30 {time.time() - start:.1f}s")
