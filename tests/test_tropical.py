import random
import sys
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations, product
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from quiverfold import chebring, tropical
from quiverfold.chebring import AlgReal, ChebElem, minimal_poly, reg_rep, rho, sigma
from quiverfold.exchange import ExchangeMatrix, RingValues, _Explorer, coeff_rows
from quiverfold.rootsys import RootSet, root_system
from quiverfold.tropical import (
    Seed,
    TropicalWalker,
    det_cheb,
    det_laplace,
    enumerate_seeds,
    g_matrix,
    invert_integer,
    mat_mul,
    transpose,
)
from quiverfold.unfolding import FoldingSpec, pair_step, standard_folding, steps_back_exactly
from spec_oracles import (
    algreal_pair, c_block, det_entries, invert_unimodular_entries, mutate_entries, walker_step,
)

A2 = ExchangeMatrix(((0, 1), (-1, 0)))


def g_matrices(result):
    """The G matrix of every enumerated seed, in BFS order."""
    return [g_matrix(seed).entries for seed in result.seeds]


class TestSeedBasics:
    def test_initial(self):
        seed = Seed.initial(A2)
        assert seed.C == ((1, 0), (0, 1))
        assert seed.word == ()

    def test_involution(self):
        seed = Seed.initial(A2)
        again = seed.mutate(0).mutate(0)
        assert again.B == seed.B and again.C == seed.C
        assert again.word == (0, 0)

    def test_i5_walk_roots(self):
        spec = standard_folding("I2", 2)
        roots = root_system("I2(5)")
        seed = Seed.initial(spec.B)
        for step in range(12):
            seed = seed.mutate(step % 2)
            for col in seed.c_vectors():
                assert roots.is_root(col)

    def test_json(self):
        seed = Seed.initial(standard_folding("I2", 2).B).mutate(0)
        data = seed.to_json()
        assert data["word"] == [0]
        assert len(data["C"]) == 2


def _ring_value(m, x):
    return x if type(x) is int else AlgReal(m, x)


def _encoded(value):
    return value if type(value) is int else value.coeffs


class TestRingMemosOnSeeds:
    """``Seed.mutate`` reads the context's ``updates``, ``pivots`` and ``negations`` memos."""

    @given(kind=st.sampled_from([("H3", None), ("H4", None), ("I2", 3), ("I2", 4)]), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cold_warm_and_oracle_agree(self, kind, data):
        B = standard_folding(*kind).B
        word = data.draw(st.lists(st.integers(0, B.n - 1), min_size=1, max_size=10))

        def walk():
            seed, path = Seed.initial(B), []
            for k in word:
                seed = seed.mutate(k)
                path.append(seed)
            return path

        with patch.object(chebring, "_ROOT_CONTEXTS", {}):
            warming = walk()
            warm = walk()
        assert [(s.rows, s.g) for s in warm] == [(s.rows, s.g) for s in warming]
        befores = [Seed.initial(B)] + warming[:-1]
        for k, before, got in zip(word, befores, warming):
            with patch.object(chebring, "_ROOT_CONTEXTS", {}):
                cold = before.mutate(k)
            assert (cold.rows, cold.g) == (got.rows, got.g)
            m, n = got.m, B.n
            values = RingValues(m)
            assert got.rows == coeff_rows(mutate_entries(values.rows(before.rows), k))
            # g'_k = -g_k + sum_{j != k} [eps b_kj]_+ g_j, in AlgReal arithmetic
            G = values.rows(before.g)
            b_k = values.rows(before.rows)[k]
            eps = -1 if any(row[k] < 0 for row in values.rows(before.rows[n:])) else 1
            g_k = [-x for x in G[k]]
            for j in range(n):
                if j != k and eps * b_k[j] > 0:
                    g_k = [x + eps * b_k[j] * y for x, y in zip(g_k, G[j])]
            assert got.g == before.g[:k] + (tuple(map(_encoded, g_k)),) + before.g[k + 1:]

    def test_h4_cube_memos_recompute_exactly(self):
        # every entry the H4 walk left in the memos, recomputed from its key
        # with AlgReal arithmetic: the same value, in the same representation
        with patch.object(chebring, "_ROOT_CONTEXTS", {}):
            assert TropicalWalker(standard_folding("H4")).verify_cube(depth=4).passed
            ctx = chebring._context(5)
            updates, pivots, negations = dict(ctx.updates), dict(ctx.pivots), dict(ctx.negations)
        assert updates and pivots and negations
        for (b_ij, b_ik, b), got in updates.items():
            want = _ring_value(5, b_ij) + _ring_value(5, b_ik) * _ring_value(5, b)
            assert got == _encoded(want)
        for x, got in negations.items():
            assert got == _encoded(-_ring_value(5, x))
        for (row, k), (pos, neg) in pivots.items():
            values = [_ring_value(5, b) for b in row]
            others = [j for j in range(len(row)) if j != k]
            assert pos == tuple((j, row[j]) for j in others if values[j] > 0)
            assert neg == tuple((j, _encoded(-values[j])) for j in others if values[j] < 0)


class TestGMatrix:
    def test_initial_identity(self):
        assert g_matrix(Seed.initial(A2)).entries == ((1, 0), (0, 1))

    def test_word_then_inverse_word(self):
        spec = standard_folding("I2", 3)
        seed = Seed.initial(spec.B)
        word = (0, 1, 1, 0, 1)
        for k in word:
            seed = seed.mutate(k)
        for k in reversed(word):
            seed = seed.mutate(k)
        one, zero = AlgReal(7, (1,)), AlgReal(7)
        assert g_matrix(seed).entries == ((one, zero), (zero, one))

    def test_rank2_closed_form(self):
        # G' = |C'| [[c11, -c10], [-c01, c00]] for the dihedral folded seeds
        spec = standard_folding("I2", 2)
        seed = Seed.initial(spec.B)
        for k in (0, 1, 0, 1, 0):
            seed = seed.mutate(k)
            C = seed.C
            det = det_entries(C)
            expected = (
                (det * C[1][1], -(det * C[1][0])),
                (-(det * C[0][1]), det * C[0][0]),
            )
            assert g_matrix(seed).entries == expected

    def test_integer_inverse_validates(self):
        with pytest.raises(ArithmeticError):
            invert_integer(((2, 0), (0, 1)), range(2))
        with pytest.raises(ArithmeticError):
            invert_integer(((0, 0), (0, 0)), range(2))

    def test_ring_inverse_requires_unit(self):
        # a folded C of determinant 4 fails the cube certificate, and the
        # cube check raises as inverting C^T by adjugate did
        walker = TropicalWalker(standard_folding("I2", 2))
        folded, lifted = walker.initial_pair()
        folded = folded[:2] + (((2,), ()), ((), (2,)))
        with pytest.raises(ArithmeticError, match="determinant is not a unit"):
            walker.check_vertex(folded, lifted, (), [], only=frozenset(("cube",)))


@pytest.fixture(scope="module")
def walker_i7():
    return TropicalWalker(standard_folding("I2", 3))


class TestWalker:

    def test_empty_word(self, walker_i7):
        report = walker_i7.verify_cube(depth=0)
        assert report.passed and report.vertices_checked == 1

    def test_i7_exhaustive_depth5(self, walker_i7):
        report = walker_i7.verify_cube(depth=5)
        assert report.passed, report.failures[:3]
        assert report.vertices_checked == 2**6 - 1

    def test_h3_depth4_with_random(self):
        walker = TropicalWalker(standard_folding("H3"))
        report = walker.verify_cube(depth=4, random_words=20, random_length=12, seed=7)
        assert report.passed, report.failures[:3]

    def test_i9_kernel_case(self):
        # n = 4: the evaluation homomorphism has a kernel; blocks must still
        # be regular representations and the cube must still commute
        walker = TropicalWalker(standard_folding("I2", 4))
        report = walker.verify_cube(depth=4, random_words=20, random_length=15, seed=3)
        assert report.passed, report.failures[:3]

    def test_i11_higher_rank(self):
        walker = TropicalWalker(standard_folding("I2", 5))
        report = walker.verify_cube(depth=3, random_words=10, random_length=12, seed=9)
        assert report.passed, report.failures[:3]

    @pytest.mark.parametrize("checks", [("cubee",), ("cube", ""), ()])
    def test_rejects_unknown_or_empty_checks(self, checks):
        with pytest.raises(ValueError):
            TropicalWalker(standard_folding("I2", 3), checks=checks)

    def test_block_element_extraction(self, walker_i7):
        folded, lifted = walker_i7.initial_pair()
        blk = c_block(walker_i7, lifted, 0, 0)
        assert walker_i7.block_element(blk) == ChebElem.one(3)
        blk01 = c_block(walker_i7, lifted, 0, 1)
        assert walker_i7.block_element(blk01) == ChebElem.zero(3)

    def test_failure_detection(self, walker_i7):
        # corrupt a lifted C block so it is no longer a regular representation
        folded, lifted = walker_i7.initial_pair()
        rows = [list(r) for r in lifted]
        rows[6 + 0][4] = 1
        failures = []
        walker_i7.check_vertex(folded, tuple(tuple(r) for r in rows), ("x",), failures)
        assert failures


class TestEnumeration:
    def test_a2_control(self):
        result = enumerate_seeds(A2)
        assert result.complete
        assert result.count == 10
        canonical = {tuple(sorted(transpose(s.C))) for s in result.seeds}
        assert len(canonical) == 5

    def test_i5_folded(self):
        spec = standard_folding("I2", 2)
        result = enumerate_seeds(spec.B)
        assert result.complete
        assert result.count == 14
        roots = root_system("I2(5)")
        for seed in result.seeds:
            for col in seed.c_vectors():
                assert roots.is_root(col)

    def test_h3_closure(self):
        result = enumerate_seeds(standard_folding("H3").B, cap=4000)
        assert result.complete
        assert result.count == 192
        roots = root_system("H3")
        for seed in result.seeds:
            for col in seed.c_vectors():
                assert roots.is_root(col)

    def test_cap_flag(self):
        result = enumerate_seeds(standard_folding("H3").B, cap=10)
        assert not result.complete
        assert result.count <= 10

    def test_g_matrices_accessor(self):
        result = enumerate_seeds(A2)
        gs = g_matrices(result)
        assert ((1, 0), (0, 1)) in gs

    def test_int_zero_diagonal_gives_the_same_pattern(self):
        # the I2(7) B with its zero diagonal written as int 0: the seed carries
        # every entry over Z[2cos(pi/7)], so the int zeros key no extra seeds
        B = standard_folding("I2", 3).B
        mixed = ExchangeMatrix(
            tuple(tuple(0 if i == j else x for j, x in enumerate(row)) for i, row in enumerate(B.entries))
        )
        assert type(mixed[0, 0]) is int and type(B[0, 0]) is AlgReal
        got, want = enumerate_seeds(mixed), enumerate_seeds(B)
        assert got.complete and got.count == want.count == 18
        assert g_matrices(got) == g_matrices(want)
        assert [s.rows for s in got.seeds] == [s.rows for s in want.seeds]


@pytest.mark.parametrize("negate", [False, True])
@pytest.mark.parametrize("kind,n", [("I2", 3), ("I2", 4), ("H3", None)])
def test_g_matrix_matches_the_adjugate_oracle_on_every_seed(kind, n, negate):
    B = standard_folding(kind, n).B
    result = enumerate_seeds(-B if negate else B)
    assert result.complete
    m = result.seeds[0].m
    identity = tuple(
        tuple(AlgReal(m, (int(i == j),)) for j in range(B.n)) for i in range(B.n)
    )
    for seed, G in zip(result.seeds, g_matrices(result)):
        Ct = transpose(seed.C)
        assert G == invert_unimodular_entries(Ct)
        assert all(type(x) is AlgReal for row in G for x in row)
        assert plain_mat_mul(Ct, G) == identity


# ---------------------------------------------------------------------------
# oracles: the Fraction inverse, the per-term d_F, and the cube and blocks
# checks as they were before the certificate


def fraction_inverse(rows):
    """Gauss-Jordan over Fraction; the inverse must come out integral."""
    n = len(rows)
    aug = [[Fraction(rows[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            x = aug[i][j + n]
            if x.denominator != 1:
                raise ArithmeticError("inverse is not integral")
            row.append(int(x))
        out.append(tuple(row))
    return tuple(out)


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and text of what it raised."""
    try:
        return ("value", fn(*args))
    except ArithmeticError as exc:
        return ("raised", type(exc), str(exc))


def d_F_per_term(spec, vector):
    out = []
    for block in spec.blocks:
        acc = spec.weights[block[0]] * vector[block[0]]
        for i in block[1:]:
            acc = acc + spec.weights[i] * vector[i]
        out.append(acc)
    return tuple(out)


def matrix_d_F_per_term(spec, rows):
    cols = [d_F_per_term(spec, tuple(row[r] for row in rows)) for r in spec.weight_one_reps]
    return tuple(tuple(col[i] for col in cols) for i in range(len(cols)))


def plain_mat_mul(a, b):
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(1, len(b))), a[i][0] * b[0][j]) for j in range(len(b[0])))
        for i in range(len(a))
    )


def oracle_cube_blocks(walker, folded, lifted, word):
    """The cube and blocks checks of check_vertex, inverting both C^T."""
    spec, mprime, nverts = walker.spec, walker.mprime, walker.nverts
    C_f, C_l = folded[mprime:], lifted[nverts:]
    failures = []
    if matrix_d_F_per_term(spec, C_l) != C_f:
        failures.append((word, "dF(C)-mismatch"))
    G_l = fraction_inverse(transpose(C_l))
    G_f = invert_unimodular_entries(transpose(C_f))
    if matrix_d_F_per_term(spec, G_l) != G_f:
        failures.append((word, "dF(G)-mismatch"))
    one, zero = AlgReal(walker.m, (1,)), AlgReal(walker.m)
    ident_f = tuple(tuple(one if i == j else zero for j in range(mprime)) for i in range(mprime))
    if plain_mat_mul(transpose(C_f), G_f) != ident_f:
        failures.append((word, "CtG-not-identity"))
    for k in range(mprime):
        nf, nl = walker_step(walker, folded, lifted, k)
        if matrix_d_F_per_term(spec, nl[nverts:]) != nf[mprime:]:
            failures.append((word, "dF-mutation-square", k))
    blocks = []
    for bi in range(mprime):
        for bj in range(mprime):
            blk = c_block(walker, lifted, bi, bj)
            r = walker.block_element(blk)
            if r is None:
                failures.append((word, "block-not-regular-rep", bi, bj))
                return failures
            if not r.sign_coherent():
                failures.append((word, "block-coefficients-mixed-sign", bi, bj))
            blocks.append(blk)
    for a in range(len(blocks)):
        for b in range(a + 1, len(blocks)):
            if plain_mat_mul(blocks[a], blocks[b]) != plain_mat_mul(blocks[b], blocks[a]):
                failures.append((word, "blocks-do-not-commute", a, b))
                break
    return failures


def cube_blocks(walker, folded, lifted, word):
    failures = []
    walker.check_vertex(coeff_rows(folded), lifted, word, failures, only=frozenset(("cube", "blocks")))
    return failures


def reachable_states(walker, depth):
    """One word for each (folded, lifted) pair reachable in <= depth steps."""
    start = algreal_pair(walker)
    found = {start: ()}
    frontier = [start]
    for _ in range(depth):
        new = []
        for state in frontier:
            for k in range(walker.mprime):
                nxt = walker_step(walker, *state, k)
                if nxt not in found:
                    found[nxt] = found[state] + (k,)
                    new.append(nxt)
        frontier = new
    return found


def with_entry(rows, i, j, value):
    rows = [list(r) for r in rows]
    rows[i][j] = value
    return tuple(tuple(r) for r in rows)


@st.composite
def unimodular(draw):
    """A random integer matrix of determinant +-1, up to 8 x 8."""
    n = draw(st.integers(1, 8))
    rows = [[int(i == j) * draw(st.sampled_from((1, -1))) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            k = draw(st.integers(-3, 3))
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
    order = draw(st.permutations(range(n)))
    return tuple(tuple(rows[i]) for i in order)


class TestIntegerInverse:
    @given(unimodular())
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_oracle_on_unimodular(self, rows):
        inv = invert_integer(rows, range(len(rows)))
        assert inv == fraction_inverse(rows)
        n = len(rows)
        assert plain_mat_mul(rows, inv) == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    @given(st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    ))
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_oracle_on_any_matrix(self, rows):
        rows = tuple(map(tuple, rows))
        assert outcome(invert_integer, rows, range(len(rows))) == outcome(fraction_inverse, rows)

    @pytest.mark.parametrize(
        "rows,message",
        [
            (((0, 0), (0, 0)), "matrix is singular"),
            (((1, 2, 3), (2, 4, 6), (0, 1, 1)), "matrix is singular"),
            (((0, 1, 0), (0, 0, 1), (0, 0, 0)), "matrix is singular"),
            (((2, 0), (0, 1)), "inverse is not integral"),
            (((1, 1, 0), (1, -1, 0), (0, 0, 1)), "inverse is not integral"),
            (((0, 2), (1, 5)), "inverse is not integral"),
        ],
    )
    def test_same_error_text(self, rows, message):
        got = outcome(invert_integer, rows, range(len(rows)))
        assert got == ("raised", ArithmeticError, message)
        assert outcome(fraction_inverse, rows) == got


FOLDINGS = [
    ("H3", None), ("H4", None), ("I2", 2), ("I2", 3), ("I2", 4), ("I2", 5),
    ("I2m", 5), ("I2m", 6), ("I2m", 8), ("F4E6", None),
]


@pytest.mark.parametrize("opp", [False, True])
@pytest.mark.parametrize("kind,n", FOLDINGS)
def test_d_F_matches_per_term_sum(kind, n, opp):
    spec = standard_folding(kind, n, opp)
    rng = random.Random(5)
    size = spec.S.n
    vectors = [tuple(int(i == j) for j in range(size)) for i in range(size)]
    vectors += [tuple(rng.randint(-50, 50) for _ in range(size)) for _ in range(30)]
    vectors.append((0,) * size)
    for vector in vectors:
        got, want = spec.d_F(vector), d_F_per_term(spec, vector)
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]


# ---------------------------------------------------------------------------
# the g-vectors a seed carries, and the seed pattern on the explorer


def identity_rows(n, m):
    one, zero = (1, 0) if m is None else ((1,), ())
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def ring_mul(a, b, m):
    return plain_mat_mul(a, b) if m is None else mat_mul(a, b, m)


@given(
    st.sampled_from([None] + FOLDINGS), st.booleans(),
    st.lists(st.integers(0, 7), max_size=14), st.integers(0, 7),
)
@settings(max_examples=120, deadline=None)
def test_seed_step_is_exactly_involutive(folding, negate, word, k):
    B = A2 if folding is None else standard_folding(*folding).B
    seed = Seed.initial(-B if negate else B)
    for letter in word:
        seed = seed.mutate(letter % seed.n)
    back = seed.mutate(k % seed.n).mutate(k % seed.n)
    assert back.rows == seed.rows and back.g == seed.g
    assert back.values is seed.values


@pytest.mark.parametrize("negate", [False, True])
def test_g_matrix_matches_the_fraction_inverse_on_every_f4e6_seed(negate):
    B = standard_folding("F4E6").B
    result = enumerate_seeds(-B if negate else B)
    assert result.complete and result.count == 420
    for seed, G in zip(result.seeds, g_matrices(result)):
        assert G == fraction_inverse(transpose(seed.C))


def test_h4_seeds_carry_the_dual_of_c():
    # C^T G = I and G B = B_0 C (Nakanishi-Zelevinsky 2012) on every H4 seed
    result = enumerate_seeds(standard_folding("H4").B)
    assert result.complete and result.count == 6720
    start = result.seeds[0]
    m, n = start.m, start.n
    B_0, identity = start.rows[:n], identity_rows(n, m)
    for seed in result.seeds:
        B, C, G = seed.rows[:n], seed.rows[n:], transpose(seed.g)
        assert mat_mul(transpose(C), G, m) == identity
        assert mat_mul(G, B, m) == mat_mul(B_0, C, m)


@pytest.mark.parametrize("B", [A2, standard_folding("H3").B, standard_folding("F4E6").B])
def test_a_flipped_c_vector_sign_breaks_the_duality(B, monkeypatch):
    # the g-step with the terms of the other sign of c-vector k: it reads
    # the signs of the c-vector entries through tropical's _sign
    real = tropical._sign
    monkeypatch.setattr(tropical, "_sign", lambda ctx, x: -real(ctx, x))
    seed = Seed.initial(B).mutate(0)
    C, G = seed.rows[seed.n:], transpose(seed.g)
    assert ring_mul(transpose(C), G, seed.m) != identity_rows(seed.n, seed.m)


@pytest.mark.parametrize("B", [A2, standard_folding("H3").B])
def test_mixed_sign_c_vector_raises(B):
    start = Seed.initial(B)
    n, m = start.n, start.m
    C = [list(row) for row in identity_rows(n, m)]
    C[1][0] = -1 if m is None else (-1,)
    seed = Seed(start.rows[:n] + tuple(map(tuple, C)), m, (), start.g, start.values)
    with pytest.raises(ArithmeticError, match="c-vector 0 is not sign-coherent"):
        seed.mutate(0)


def frontier_bfs(B, cap):
    """The seed-pattern BFS with a frontier loop of its own, keyed by the rows."""
    start = Seed.initial(B)
    seen, order, frontier = {start.rows}, [start], [start]
    while frontier:
        new = []
        for seed in frontier:
            for k in range(B.n):
                nxt = seed.mutate(k)
                if nxt.rows not in seen:
                    if len(seen) >= cap:
                        return order, False
                    seen.add(nxt.rows)
                    order.append(nxt)
                    new.append(nxt)
        frontier = new
    return order, True


@pytest.mark.parametrize("cap", [1, 2, 10, 191, 192, 193, 20000])
def test_enumeration_matches_the_frontier_bfs(cap):
    B = standard_folding("H3").B
    result = enumerate_seeds(B, cap=cap)
    order, complete = frontier_bfs(B, cap)
    assert (result.complete, result.cap) == (complete, cap)
    assert [(s.rows, s.word, s.g) for s in result.seeds] == [(s.rows, s.word, s.g) for s in order]


def test_enumeration_steps_each_edge_once(monkeypatch):
    calls = []
    real = Seed.mutate
    monkeypatch.setattr(Seed, "mutate", lambda self, k: calls.append(k) or real(self, k))
    result = enumerate_seeds(standard_folding("H3").B)
    assert result.complete and result.count == 192
    assert len(calls) == 192 * 3 // 2
    assert len({id(s.values) for s in result.seeds}) == 1


class TestCubeBlocksOracle:
    @pytest.mark.parametrize("kind,n,depth", [("H4", None, 3), ("I2", 3, 5)])
    def test_every_reachable_state(self, kind, n, depth):
        walker = TropicalWalker(standard_folding(kind, n))
        states = reachable_states(walker, depth)
        assert len(states) > depth
        for (folded, lifted), word in states.items():
            got = cube_blocks(walker, folded, lifted, word)
            assert got == oracle_cube_blocks(walker, folded, lifted, word)
            assert got == []

    @pytest.mark.parametrize(
        "word,i,j,delta",
        [((), 0, 1, 1), ((0, 1), 1, 2, 1), ((0, 1, 2), 2, 2, 1), ((3, 2), 0, 3, -1), ((1, 0), 0, 0, 1)],
    )
    def test_corrupted_folded_entry(self, word, i, j, delta):
        walker = TropicalWalker(standard_folding("H4"))
        folded, lifted = algreal_pair(walker)
        for k in word:
            folded, lifted = walker_step(walker, folded, lifted, k)
        row = walker.mprime + i
        folded = with_entry(folded, row, j, folded[row][j] + delta)
        got = outcome(cube_blocks, walker, folded, lifted, word)
        assert got == outcome(oracle_cube_blocks, walker, folded, lifted, word)
        assert got[0] == "raised" or ((word, "dF(C)-mismatch") in got[1])

    def test_corrupted_folded_entry_records_both_mismatches(self):
        walker = TropicalWalker(standard_folding("H4"))
        folded, lifted = walker.initial_pair()
        folded = with_entry(folded, walker.mprime, 1, (1,))
        got = cube_blocks(walker, folded, lifted, ("x",))
        assert got == oracle_cube_blocks(walker, RingValues(walker.m).rows(folded), lifted, ("x",))
        assert got[:2] == [(("x",), "dF(C)-mismatch"), (("x",), "dF(G)-mismatch")]
        assert {f[1] for f in got[2:]} == {"dF-mutation-square"}

    def test_lifted_determinant_two(self):
        walker = TropicalWalker(standard_folding("I2", 3))
        folded, lifted = algreal_pair(walker)
        lifted = with_entry(lifted, walker.nverts, 0, 2)
        got = outcome(cube_blocks, walker, folded, lifted, ())
        assert got == ("raised", ArithmeticError, "inverse is not integral")
        assert got == outcome(oracle_cube_blocks, walker, folded, lifted, ())

    @pytest.mark.parametrize("kind,n", [("I2", 3), ("H4", None)])
    def test_non_commuting_blocks(self, monkeypatch, kind, n):
        walker = TropicalWalker(standard_folding(kind, n))
        monkeypatch.setattr(TropicalWalker, "block_element", lambda self, block: ChebElem.one(self.n))
        folded, lifted = algreal_pair(walker)
        b0, b1 = walker.spec.blocks[0], walker.spec.blocks[1]
        top = walker.nverts
        # I + e01 in diagonal block 0, I + e10 in diagonal block 1
        lifted = with_entry(lifted, top + b0[0], b0[1], 1)
        lifted = with_entry(lifted, top + b1[1], b1[0], 1)
        if walker.mprime > 2:
            b2 = walker.spec.blocks[2]
            lifted = with_entry(lifted, top + b2[0], b2[1], 1)  # a repeat of block 0
        got = cube_blocks(walker, folded, lifted, ("w",))
        assert got == oracle_cube_blocks(walker, folded, lifted, ("w",))
        assert any(f[1] == "blocks-do-not-commute" for f in got)

    @pytest.mark.parametrize(
        "plants",
        [
            (("not-regular", 1, 2),),
            (("not-regular", 3, 0),),
            (("mixed-sign", 0, 3), ("mixed-sign", 2, 1)),
            (("mixed-sign", 3, 1), ("not-regular", 1, 2), ("mixed-sign", 0, 3)),
            (("not-regular", 3, 0), ("not-regular", 1, 2)),
        ],
    )
    def test_planted_blocks_keep_row_major_records(self, plants):
        # the block records come in row-major order and stop at the first
        # block that is not a regular representation, on a cold walker and on
        # one whose memos hold the plants and every state within two steps
        walker = TropicalWalker(standard_folding("H4"))
        folded, lifted = algreal_pair(walker)
        top, blocks = walker.nverts, walker.spec.blocks
        images = {"not-regular": ((0, 1), (0, 0)), "mixed-sign": rho(ChebElem(walker.n, (1, -1)))}
        for plant, bi, bj in plants:
            for a, v in enumerate(blocks[bi]):
                for b, w in enumerate(blocks[bj]):
                    lifted = with_entry(lifted, top + v, w, images[plant][a][b])
        names = {"not-regular": "block-not-regular-rep", "mixed-sign": "block-coefficients-mixed-sign"}
        want = []
        for plant, bi, bj in sorted(plants, key=lambda plant: plant[1:]):
            want.append((("w",), names[plant], bi, bj))
            if plant == "not-regular":
                break
        got = cube_blocks(walker, folded, lifted, ("w",))
        assert got == oracle_cube_blocks(walker, folded, lifted, ("w",))
        assert [f for f in got if f[1].startswith("block-")] == want
        assert cube_blocks(walker, folded, lifted, ("w",)) == got
        warm = TropicalWalker(standard_folding("H4"))
        assert warm.verify_cube(depth=2).passed
        assert cube_blocks(warm, folded, lifted, ("w",)) == got


class TestCommutationCertificate:
    @pytest.mark.parametrize(
        "kind,n", [("I2", 2), ("I2", 3), ("I2", 4), ("I2", 12), ("H3", None), ("H4", None)]
    )
    def test_holds_for_the_standard_foldings(self, kind, n):
        assert TropicalWalker(standard_folding(kind, n)).basis_commutes

    @pytest.mark.parametrize("n,a", [(2, 0)] + [(5, a) for a in range(5)])
    def test_any_broken_basis_image_fails(self, monkeypatch, n, a):
        # the recurrence pins every basis image, rho(theta_0) = I included;
        # at n = 2 there is no recurrence step, only rho(theta_0) = I
        spec = standard_folding("I2", n)
        real = reg_rep
        image = real(a, n)
        planted = ((image[0][0] + 1,) + image[0][1:],) + image[1:]
        monkeypatch.setattr(chebring, "reg_rep", lambda k, r: planted if (k, r) == (a, n) else real(k, r))
        assert not TropicalWalker(spec).basis_commutes

    def test_non_commuting_basis_images(self, monkeypatch):
        # theta_1's image with one more 1: it keeps column 0 = e_1, so
        # block_element still reads theta_1 off it, but it no longer commutes
        # with theta_2's image
        planted = ((0, 1, 0), (1, 1, 1), (0, 1, 1))
        real = reg_rep
        monkeypatch.setattr(chebring, "reg_rep", lambda k, n: planted if (k, n) == (1, 3) else real(k, n))
        walker = TropicalWalker(standard_folding("I2", 3))
        assert not walker.basis_commutes
        folded, lifted = algreal_pair(walker)
        top = walker.nverts
        for block, image in zip(walker.spec.blocks, (planted, real(2, 3))):
            for a, v in enumerate(block):
                for b, w in enumerate(block):
                    lifted = with_entry(lifted, top + v, w, image[a][b])
        products = []
        real_mul = tropical._mat_mul_int
        monkeypatch.setattr(tropical, "_mat_mul_int", lambda a, b: products.append(1) or real_mul(a, b))
        got = cube_blocks(walker, folded, lifted, ("w",))
        assert products
        assert got == oracle_cube_blocks(walker, folded, lifted, ("w",))
        assert (("w",), "blocks-do-not-commute", 0, 3) in got

    def test_lying_block_element_still_multiplies(self, monkeypatch):
        # every block of the initial pair is rho of its element, so no product
        # is taken; a fresh walker whose block_element names other elements
        # finds rho of them unequal to the blocks, and multiplies
        spec = standard_folding("I2", 3)
        walker = TropicalWalker(spec)
        folded, lifted = walker.initial_pair()
        products = []
        real_mul = tropical._mat_mul_int
        monkeypatch.setattr(tropical, "_mat_mul_int", lambda a, b: products.append(1) or real_mul(a, b))
        assert cube_blocks(walker, folded, lifted, ()) == [] and products == []
        monkeypatch.setattr(TropicalWalker, "block_element", lambda self, block: ChebElem.one(self.n))
        lied_to = TropicalWalker(spec)
        products.clear()  # the basis certificate's own products
        assert cube_blocks(lied_to, folded, lifted, ()) == []
        assert products


class TestMemoizedSquares:
    @staticmethod
    def planted_walk(monkeypatch, kind, n, target, direct=False, **kwargs):
        """verify_cube with the first two folded C rows of the state at ``target`` swapped.

        The planted step swaps them on the way into that state and back on
        the way out, so it stays an involution, as the explorer's recorded
        ways back assume.  With ``direct``, check_vertex gets no neighbour
        and steps to each one itself.
        """
        walker = TropicalWalker(standard_folding(kind, n))
        state = algreal_pair(walker)
        for k in target:
            state = walker_step(walker, *state, k)
        top, bad = walker.mprime, coeff_rows(state[0])
        planted = bad[:top] + (bad[top + 1], bad[top]) + bad[top + 2:]
        swap = {bad: planted, planted: bad}

        def step(blocks, m, state, k):
            nf, nl = pair_step(blocks, m, (swap.get(state[0], state[0]), state[1]), k)
            return swap.get(nf, nf), nl

        monkeypatch.setattr(tropical, "pair_step", step)
        if direct:
            check = walker.check_vertex
            monkeypatch.setattr(
                walker, "check_vertex",
                lambda folded, lifted, word, failures, neighbour, only: check(folded, lifted, word, failures, only=only),
            )
        return walker.verify_cube(**kwargs)

    @pytest.mark.parametrize(
        "kind,n,target,kwargs",
        [
            ("H3", None, (0, 1), {"depth": 3}),
            ("H4", None, (2,), {"depth": 2}),
            ("I2", 3, (1, 0, 1), {"depth": 2, "random_words": 4, "random_length": 6}),
            ("I2", 3, (0, 1, 0), {"depth": 0, "random_words": 3, "random_length": 5, "seed": 2}),
        ],
    )
    def test_same_failures_as_direct_squares(self, monkeypatch, kind, n, target, kwargs):
        memo = self.planted_walk(monkeypatch, kind, n, target, **kwargs)
        direct = self.planted_walk(monkeypatch, kind, n, target, direct=True, **kwargs)
        assert not memo.passed
        assert memo.failures == direct.failures
        assert (memo.vertices_checked, memo.states) == (direct.vertices_checked, direct.states)

    def test_d_F_calls_on_a_passing_h4_walk(self, monkeypatch):
        """At most m' d_F columns per state whose C verdict is read, and per checked state's G."""
        walker = TropicalWalker(standard_folding("H4"))
        calls = []
        real = FoldingSpec.coeff_d_F
        monkeypatch.setattr(FoldingSpec, "coeff_d_F", lambda self, v: calls.append(1) or real(self, v))
        report = walker.verify_cube(depth=3)
        assert report.passed
        read = len(reachable_states(walker, 4))  # the checked states and their neighbours
        assert len(calls) <= walker.mprime * (read + report.states)


@st.composite
def cheb_squares(draw):
    n = draw(st.sampled_from((2, 3, 4)))
    size = draw(st.integers(1, 4))
    entry = st.tuples(*[st.integers(-3, 3)] * n)
    row = st.lists(entry, min_size=size, max_size=size).map(tuple)
    return n, draw(st.lists(row, min_size=size, max_size=size).map(tuple))


@given(cheb_squares())
@settings(max_examples=150, deadline=None)
def test_det_cheb_matches_leibniz(inputs):
    n, rows = inputs
    elements = tuple(tuple(ChebElem(n, c) for c in row) for row in rows)
    assert det_cheb(rows, n) == leibniz(elements).coeffs


def test_cube_work_counts(monkeypatch):
    """A passing walk takes no folded determinant in the cube check, and decides each distinct block once.

    Per state: one ``det_laplace`` call, the dets check's, no block
    products, since the commutation certificate holds, and one
    ``block_element`` call per block that no earlier state had.  Over the
    whole walk that is one call per distinct block.
    """
    walker = TropicalWalker(standard_folding("H4"))
    dets = []
    products = []
    elements = []
    per_state = []
    seen = set()
    real_det, real_mul = tropical.det_laplace, tropical._mat_mul_int
    real_element = TropicalWalker.block_element
    monkeypatch.setattr(tropical, "det_laplace", lambda *args: dets.append(args) or real_det(*args))
    monkeypatch.setattr(tropical, "_mat_mul_int", lambda a, b: products.append(1) or real_mul(a, b))
    monkeypatch.setattr(
        TropicalWalker, "block_element",
        lambda self, blk: elements.append(blk) or real_element(self, blk),
    )
    real_check = TropicalWalker.check_vertex

    def counted(self, folded, lifted, *args, **kwargs):
        before = len(elements)
        real_check(self, folded, lifted, *args, **kwargs)
        mp = range(self.mprime)
        blocks = {c_block(self, lifted, bi, bj) for bi, bj in product(mp, mp)}
        per_state.append((len(elements) - before, len(blocks - seen)))
        seen.update(blocks)

    monkeypatch.setattr(TropicalWalker, "check_vertex", counted)
    report = walker.verify_cube(depth=2)
    assert report.passed and report.states == len(per_state) > 1
    assert len(dets) == len(per_state)
    assert products == []
    assert len(elements) == len(set(elements)) == len(seen)
    assert all(made == new for made, new in per_state)
    assert sum(made == 0 for made, _ in per_state) > 0


# ---------------------------------------------------------------------------
# oracles: the roots and dets checks and their arithmetic over AlgReal values,
# as check_vertex computed them before it worked on coefficient tuples

ROOTS_DETS = frozenset(("roots", "dets"))


def leibniz(rows):
    """The determinant as a sum over permutations; entries AlgReal or ChebElem."""
    total = None
    for perm in permutations(range(len(rows))):
        term = rows[0][perm[0]]
        for i in range(1, len(rows)):
            term = term * rows[i][perm[i]]
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(len(perm)), 2))
        term = -term if inversions % 2 else term
        total = term if total is None else total + term
    return total


def oracle_roots_dets(walker, folded, lifted, word):
    """The roots and dets checks of check_vertex in AlgReal arithmetic.

    Membership looks the AlgReal column up in ``roots``, signs come from
    ``AlgReal.sign`` and both determinants from ``leibniz``.  As in
    check_vertex, the dets check first reads every lifted block as a ring
    element and stops at the first block that is not one.
    """
    mprime = walker.mprime
    C_f = folded[mprime:]
    failures = []
    for j in range(mprime):
        col = tuple(row[j] for row in C_f)
        if col not in walker.roots.roots:
            failures.append((word, "c-vector-not-root", j))
        if {1, -1} <= {c.sign() for c in col}:
            failures.append((word, "c-vector-not-sign-coherent", j))
    elements = []
    for bi in range(mprime):
        row = []
        for bj in range(mprime):
            r = walker.block_element(c_block(walker, lifted, bi, bj))
            if r is None:
                failures.append((word, "block-not-regular-rep", bi, bj))
                return failures
            if not r.sign_coherent():
                failures.append((word, "block-coefficients-mixed-sign", bi, bj))
            row.append(r)
        elements.append(tuple(row))
    one = AlgReal(walker.m, (1,))
    det_f = leibniz(C_f)
    if det_f != (one if len(word) % 2 == 0 else -one):
        failures.append((word, "folded-determinant", len(word)))
    det_x = leibniz(elements)
    if sigma(det_x) != det_f:
        failures.append((word, "determinant-sigma-mismatch"))
    unit = ChebElem.one(walker.n)
    if det_x not in (unit, -unit):
        failures.append((word, "lifted-determinant-not-unit"))
    return failures


def roots_dets(walker, folded, lifted, word):
    failures = []
    walker.check_vertex(coeff_rows(folded), lifted, word, failures, only=ROOTS_DETS)
    return failures


class TestRootsDetsOracle:
    @pytest.mark.parametrize(
        "kind,n,depth", [("H4", None, 4), ("H3", None, 6), ("I2", 3, 6), ("I2", 4, 6)]
    )
    def test_every_reachable_state(self, kind, n, depth):
        walker = TropicalWalker(standard_folding(kind, n))
        states = reachable_states(walker, depth)
        assert len(states) > depth
        for (folded, lifted), word in states.items():
            got = roots_dets(walker, folded, lifted, word)
            assert got == oracle_roots_dets(walker, folded, lifted, word) == []
            # a word of the other parity plants a folded determinant of the wrong sign
            odd = word + (0,)
            got = roots_dets(walker, folded, lifted, odd)
            assert got == oracle_roots_dets(walker, folded, lifted, odd)
            assert got == [(odd, "folded-determinant", len(odd))]
            assert roots_dets(walker, coeff_rows(folded), lifted, odd) == got

    @pytest.mark.parametrize("kind,n", [("H4", None), ("H3", None), ("I2", 3), ("I2", 4)])
    @pytest.mark.parametrize(
        "plant,expected",
        [
            ("non-root", {"c-vector-not-root", "folded-determinant", "determinant-sigma-mismatch"}),
            ("mixed-sign", {"c-vector-not-root", "c-vector-not-sign-coherent"}),
            ("wrong-parity", {"folded-determinant"}),
            ("lifted-not-unit", {"determinant-sigma-mismatch", "lifted-determinant-not-unit"}),
            ("not-regular", {"block-not-regular-rep"}),
        ],
    )
    def test_planted(self, kind, n, plant, expected):
        # planted in the initial pair, where C_f and the lifted C are identities
        walker = TropicalWalker(standard_folding(kind, n))
        folded, lifted = algreal_pair(walker)
        word, row, block = (), walker.mprime, walker.spec.blocks[0]
        if plant == "non-root":
            folded = with_entry(folded, row, 0, AlgReal(walker.m, (2,)))
        elif plant == "mixed-sign":
            folded = with_entry(folded, row + 1, 0, AlgReal(walker.m, (-1,)))
        elif plant == "wrong-parity":
            word = (0,)
        elif plant == "lifted-not-unit":
            for v in block:
                lifted = with_entry(lifted, walker.nverts + v, v, 2)
        else:
            lifted = with_entry(lifted, walker.nverts + block[0], block[-1], 1)
        got = roots_dets(walker, folded, lifted, word)
        assert got == oracle_roots_dets(walker, folded, lifted, word)
        assert {f[1] for f in got} == expected
        assert roots_dets(walker, coeff_rows(folded), lifted, word) == got


class TestWalkerMemos:
    """The walker's c-vector and d_F memos give the records a fresh walker gives."""

    @staticmethod
    def planted(walker, plant):
        folded, lifted = algreal_pair(walker)
        row = walker.mprime
        if plant == "non-root":
            folded = with_entry(folded, row, 0, AlgReal(walker.m, (2,)))
        elif plant == "mixed-sign":
            folded = with_entry(folded, row + 1, 0, AlgReal(walker.m, (-1,)))
        elif plant == "d_F":
            # block 1's weight-one vertex added to column 0 of the lifted C
            reps = walker.spec.weight_one_reps
            lifted = with_entry(lifted, walker.nverts + reps[1], reps[0], 1)
        elif plant == "not-regular":
            block = walker.spec.blocks[0]
            lifted = with_entry(lifted, walker.nverts + block[0], block[-1], 1)
        else:
            for v in walker.spec.blocks[0]:
                lifted = with_entry(lifted, walker.nverts + v, v, 2)
        return folded, lifted

    @pytest.mark.parametrize("kind,n", [("H4", None), ("H3", None), ("I2", 3)])
    @pytest.mark.parametrize(
        "plant,name",
        [
            ("non-root", "c-vector-not-root"),
            ("mixed-sign", "c-vector-not-sign-coherent"),
            ("d_F", "dF(C)-mismatch"),
            ("not-regular", "block-not-regular-rep"),
            ("lifted-not-unit", "lifted-determinant-not-unit"),
        ],
    )
    def test_first_repeat_fresh_and_warm_calls_agree(self, kind, n, plant, name):
        if plant == "d_F":
            check, oracle = cube_blocks, oracle_cube_blocks
        else:
            check, oracle = roots_dets, oracle_roots_dets
        walker = TropicalWalker(standard_folding(kind, n))
        state = self.planted(walker, plant)
        first = check(walker, *state, ("w",))
        assert name in {f[1] for f in first}
        assert first == oracle(walker, *state, ("w",))
        assert check(walker, *state, ("w",)) == first
        assert check(walker, coeff_rows(state[0]), state[1], ("w",)) == first
        fresh = TropicalWalker(standard_folding(kind, n))
        assert check(fresh, *state, ("w",)) == first
        # a walker whose memos hold every passing state within two steps
        warm = TropicalWalker(standard_folding(kind, n))
        assert warm.verify_cube(depth=2, random_words=2, random_length=6).passed
        assert warm.root_verdicts and warm.d_F_columns and warm.column_verdicts and warm.det_verdicts
        assert warm.projected_C and warm.block_verdicts
        assert check(warm, *state, ("w",)) == first
        # and the memos still pass the unplanted pair
        assert check(warm, *warm.initial_pair(), ()) == []

    def test_h4_block_and_det_memos_recompute_exactly(self):
        """Every table entry, recomputed from its key; column blocks and determinants also with the per-block oracle."""
        walker = TropicalWalker(standard_folding("H4"))
        assert walker.verify_cube(depth=4).passed
        columns, dets = walker.column_verdicts, walker.det_verdicts
        assert (len(columns), len(walker.block_verdicts), len(dets)) == (36, 7, 2)
        # a column block that is not clean, and a determinant that is not +-1
        for plant in ("not-regular", "lifted-not-unit"):
            assert roots_dets(walker, *self.planted(walker, plant), ("w",))
        assert None in [clean for _, clean in columns.values()]
        assert False in [is_unit for _, is_unit in dets.values()]
        top, first = walker.nverts, walker.spec.blocks[0]
        for cols, (verdicts, clean) in columns.items():
            # a lifted C that holds the key's columns at block 0's vertices
            C = [[0] * top for _ in range(top)]
            for w, col in zip(first, cols):
                for v, x in enumerate(col):
                    C[v][w] = x
            lifted = ((0,) * top,) * top + tuple(map(tuple, C))
            want = []
            for bi in range(walker.mprime):
                blk = c_block(walker, lifted, bi, 0)
                r = walker.block_element(blk)
                regular = r is not None
                want.append((blk, r, regular and r.sign_coherent(), regular and rho(r) == blk))
            assert verdicts == tuple(want)
            if all(r is not None and coherent and is_rho for _, r, coherent, is_rho in want):
                assert clean == tuple(r.coeffs for _, r, _, _ in want)
            else:
                assert clean is None
        unit = ChebElem.one(walker.n)
        for det, (image, is_unit) in dets.items():
            x = ChebElem(walker.n, det)
            assert image == sigma(x).coeffs
            assert is_unit == (x == unit or x == -unit)
        tables = (
            walker.root_verdicts, walker.d_F_columns, walker.projected_C,
            walker.block_verdicts, columns, dets,
        )
        assert all(tables)
        for table in tables:
            for key, value in list(table.items()):
                assert table.compute(key) == value

    def test_memos_cut_root_lookups_and_d_F_calls(self, monkeypatch):
        """Each distinct c-vector is looked up once and each lifted column projected once."""
        lookups, projections = [], []
        real_root, real_d_F = RootSet.is_root, FoldingSpec.coeff_d_F
        monkeypatch.setattr(RootSet, "is_root", lambda self, v: lookups.append(v) or real_root(self, v))
        monkeypatch.setattr(FoldingSpec, "coeff_d_F", lambda self, v: projections.append(v) or real_d_F(self, v))
        walker = TropicalWalker(standard_folding("H4"))
        first = walker.verify_cube(depth=0, random_words=20, random_length=15, seed=3)
        assert first.passed
        assert len(lookups) == len(set(lookups))
        assert len(projections) == len(set(projections))
        # a second walk on the same walker meets only known c-vectors and columns
        before = len(lookups), len(projections)
        again = walker.verify_cube(depth=0, random_words=20, random_length=15, seed=3)
        assert (again.failures, again.vertices_checked, again.states) == ([], first.vertices_checked, first.states)
        assert (len(lookups), len(projections)) == before


def alg_entries(m):
    deg = len(minimal_poly(m)) - 1
    return st.lists(st.integers(-4, 4), max_size=deg + 2).map(lambda c: AlgReal(m, c))


def alg_matrix(m, nrows, ncols):
    row = st.lists(alg_entries(m), min_size=ncols, max_size=ncols).map(tuple)
    return st.lists(row, min_size=nrows, max_size=nrows).map(tuple)


@st.composite
def product_and_det_inputs(draw):
    m = draw(st.sampled_from((5, 7, 9)))
    n, k, p = (draw(st.integers(1, 4)) for _ in range(3))
    return m, draw(alg_matrix(m, n, k)), draw(alg_matrix(m, k, p)), draw(alg_matrix(m, n, n))


@given(product_and_det_inputs())
@settings(max_examples=200, deadline=None)
def test_coefficient_product_and_determinant_match_algreal(inputs):
    m, a, b, square = inputs
    assert mat_mul(coeff_rows(a), coeff_rows(b), m) == coeff_rows(plain_mat_mul(a, b))
    assert det_laplace(coeff_rows(square), m) == leibniz(square).coeffs
    assert det_laplace(coeff_rows(square), m) == det_entries(square).coeffs


def labeled_closure(walker, depth=None):
    """The (folded, lifted) pairs of ``verify_cube``'s breadth-first search over (pair, parity) keys."""
    blocks, m = walker.spec.blocks, walker.m
    explorer = _Explorer(
        partial(pair_step, blocks, m), parity=True, first_only=True,
        back=lambda state, k, nxt: k if steps_back_exactly(blocks, m, nxt, k) else None,
    )
    return [state for state, _ in explorer.closure(walker.initial_pair(), walker.mprime, depth)]


def assert_check_products_match_oracles(walker, folded, lifted):
    """``check_vertex``'s ring products on one pair against ``AlgReal`` and ``ChebElem`` arithmetic.

    The cube certificate's C_f^T X, with X = d_F of the weight-one columns
    of (C_l^T)^-1, the folded determinant det C_f, and det_cheb of the
    lifted C-blocks' elements.
    """
    spec, m, n, mp = walker.spec, walker.m, walker.n, range(walker.mprime)
    C_f, C_l = folded[walker.mprime:], lifted[walker.nverts:]
    reps = spec.weight_one_reps
    X = walker._d_F(transpose(invert_integer(transpose(C_l), reps)))
    values = RingValues(m)
    assert mat_mul(transpose(C_f), X, m) == coeff_rows(plain_mat_mul(values.rows(transpose(C_f)), values.rows(X)))
    assert det_laplace(C_f, m) == det_entries(values.rows(C_f)).coeffs
    elements = tuple(tuple(walker.block_element(c_block(walker, lifted, bi, bj)) for bj in mp) for bi in mp)
    det = det_cheb(tuple(tuple(x.coeffs for x in row) for row in elements), n)
    assert det == det_entries(elements).coeffs
    assert sigma(ChebElem(n, det)) == det_entries(tuple(tuple(map(sigma, row)) for row in elements))


@pytest.mark.parametrize("kind,depth,keys", [("H3", None, 192), ("H4", 5, 171)])
def test_check_products_match_the_oracles_on_every_key(kind, depth, keys):
    """The H3 labeled closure and the H4 depth-5 tree, every key."""
    walker = TropicalWalker(standard_folding(kind))
    states = labeled_closure(walker, depth)
    assert len(states) == keys
    for folded, lifted in states:
        assert_check_products_match_oracles(walker, folded, lifted)


@st.composite
def sparse_cheb_squares(draw):
    """(n, A, B): two squares over the rank-n Chebyshev ring, m = 2n+1 in 5, 7, 9, with many zero entries."""
    n = draw(st.sampled_from((2, 3, 4)))
    size = draw(st.integers(1, 4))
    entry = st.one_of(st.just((0,) * n), st.tuples(*[st.integers(-3, 3)] * n))
    row = st.lists(entry, min_size=size, max_size=size).map(tuple)
    square = st.lists(row, min_size=size, max_size=size).map(tuple)
    return n, draw(square), draw(square)


@given(sparse_cheb_squares())
@settings(max_examples=200, deadline=None)
def test_check_products_match_the_oracles_with_zero_entries(inputs):
    """det_cheb against ``ChebElem`` and, through sigma, ``AlgReal`` arithmetic; mat_mul and det_laplace on the images."""
    n, a, b = inputs
    m = 2 * n + 1
    cheb = tuple(tuple(ChebElem(n, c) for c in row) for row in a)
    image = tuple(tuple(map(sigma, row)) for row in cheb)
    other = tuple(tuple(sigma(ChebElem(n, c)) for c in row) for row in b)
    det = det_cheb(a, n)
    assert det == det_entries(cheb).coeffs
    assert sigma(ChebElem(n, det)) == det_entries(image)
    assert det_laplace(coeff_rows(image), m) == det_entries(image).coeffs
    assert mat_mul(coeff_rows(image), coeff_rows(other), m) == coeff_rows(plain_mat_mul(image, other))


def test_cube_walk_makes_no_polynomial_product_or_reduction(monkeypatch):
    """Every ring product of the checks is a multiply-add memo lookup.

    A full H3 walk on fresh per-m memos passes with ``chebring._poly_mul``
    and ``_reduce_mod`` raising, under every name a quiverfold module binds
    them to.
    """
    monkeypatch.setattr(chebring, "_ROOT_CONTEXTS", {})
    walker = TropicalWalker(standard_folding("H3"))

    def refuse(*args):
        raise AssertionError("polynomial product or reduction on the check path")

    for name, module in list(sys.modules.items()):
        if name.startswith("quiverfold"):
            for helper in ("_poly_mul", "_reduce_mod"):
                if hasattr(module, helper):
                    monkeypatch.setattr(module, helper, refuse)
    report = walker.verify_cube(depth=11)
    assert report.passed and report.states == 192


@st.composite
def d_F_inputs(draw):
    # m = 5, 7, 9, and two even m whose weights cancel in a block's top coefficient
    kind, n = draw(st.sampled_from(
        [("H3", None), ("H4", None), ("I2", 3), ("I2", 4), ("I2m", 6), ("I2m", 8)]
    ))
    spec = standard_folding(kind, n)
    row = st.lists(st.integers(-6, 6), min_size=spec.S.n, max_size=spec.S.n).map(tuple)
    return spec, draw(st.lists(row, min_size=spec.S.n, max_size=spec.S.n).map(tuple))


D_F_WALKERS = {}  # kind -> a walker of its standard folding, kept across examples


@given(d_F_inputs())
@settings(max_examples=100, deadline=None)
def test_coefficient_d_F_matches_algreal(inputs):
    spec, rows = inputs
    want = coeff_rows(matrix_d_F_per_term(spec, rows))
    cols = transpose(rows)
    assert transpose([spec.coeff_d_F(cols[r]) for r in spec.weight_one_reps]) == want
    if spec.n is not None:
        # a walker's projected_C table, keyed by rows as a lifted C part
        if spec.kind not in D_F_WALKERS:
            D_F_WALKERS[spec.kind] = TropicalWalker(spec)
        assert D_F_WALKERS[spec.kind].projected_C[rows] == want
    for row in rows:
        assert spec.coeff_d_F(row) == tuple(x.coeffs for x in d_F_per_term(spec, row))


# ---------------------------------------------------------------------------
# the cube check solves only the columns of the lifted G that d_F reads


@st.composite
def singular(draw):
    """A random integer matrix with one row an integer combination of the others, up to 8 x 8."""
    rows = [list(row) for row in draw(unimodular())]
    n = len(rows)
    target = draw(st.integers(0, n - 1))
    rows[target] = [0] * n
    for i in range(n):
        if i != target:
            k = draw(st.integers(-2, 2))
            rows[target] = [x + k * y for x, y in zip(rows[target], rows[i])]
    return tuple(map(tuple, rows))


def columns_of(rows, columns):
    """The rows of the given columns of ``rows``, side by side."""
    return tuple(tuple(row[c] for c in columns) for row in rows)


class TestInverseColumns:
    @given(st.one_of(
        unimodular(),
        singular(),
        st.integers(1, 5).flatmap(lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple), min_size=n, max_size=n,
        ).map(tuple)),
    ), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_columns_of_the_fraction_oracle(self, rows, data):
        n = len(rows)
        columns = data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
        whole = outcome(fraction_inverse, rows)
        got = outcome(invert_integer, rows, columns)
        if whole[0] == "raised":
            assert got == whole
        else:
            assert got == ("value", columns_of(whole[1], columns))
            assert outcome(invert_integer, rows, range(n)) == whole

    @given(singular())
    @settings(max_examples=60, deadline=None)
    def test_singular_raises_for_any_columns(self, rows):
        for columns in ((), (0,), range(len(rows))):
            assert outcome(invert_integer, rows, columns) == (
                "raised", ArithmeticError, "matrix is singular"
            )

    def test_not_unimodular_raises_for_any_columns(self):
        for columns in ((), (1,), (0, 1)):
            assert outcome(invert_integer, ((2, 0), (0, 1)), columns) == (
                "raised", ArithmeticError, "inverse is not integral"
            )

    @pytest.mark.parametrize("kind,n,pairs", [("H3", None, 192), ("I2", 3, 18), ("I2", 4, 22)])
    def test_matches_the_fraction_oracle_on_every_closure_state(self, kind, n, pairs):
        walker = TropicalWalker(standard_folding(kind, n))
        closure = reachable_states(walker, 12)  # eccentricity 11, 9 and 11
        assert len(closure) == pairs
        for _, lifted in closure:
            rows = transpose(lifted[walker.nverts:])
            whole = outcome(fraction_inverse, rows)
            assert whole[0] == "value"
            for columns in (walker.spec.weight_one_reps, range(len(rows))):
                assert invert_integer(rows, columns) == columns_of(whole[1], columns)

    @pytest.mark.parametrize("rows", [
        ((-1, 0, 0), (0, -1, 0), (0, 0, -1)),
        ((2, 1), (1, 1)),
        ((0, -1), (1, 0)),
        ((2, 0), (0, 1)),
        ((-2, 1), (1, -1)),
        ((3, 5), (1, 2)),
        ((1, 2), (2, 4)),
        ((0, 0), (-1, 3)),
    ])
    def test_matches_the_fraction_oracle_on_negative_and_non_unit_pivots(self, rows):
        whole = outcome(fraction_inverse, rows)
        for columns in ((), (1,), (1, 0), range(len(rows))):
            got = outcome(invert_integer, rows, columns)
            assert got == (whole if whole[0] == "raised" else ("value", columns_of(whole[1], columns)))

    def test_check_vertex_solves_only_the_weight_one_columns(self, monkeypatch):
        asked = []
        real = tropical.invert_integer

        def record(rows, columns):
            asked.append(columns)
            return real(rows, columns)

        monkeypatch.setattr(tropical, "invert_integer", record)
        for kind, n in (("H4", None), ("H3", None), ("I2", 3)):
            walker = TropicalWalker(standard_folding(kind, n))
            asked.clear()
            report = walker.verify_cube(depth=2, random_words=3, random_length=8)
            assert report.passed, report.failures[:3]
            assert asked and all(columns == walker.spec.weight_one_reps for columns in asked)


def test_h4_tree_steps_each_edge_once(monkeypatch):
    """The explorer records the way back of a self-inverse step: 136 steps without it."""
    calls = []
    real = tropical.pair_step

    def counted(blocks, m, state, k):
        calls.append(k)
        return real(blocks, m, state, k)

    monkeypatch.setattr(tropical, "pair_step", counted)
    report = TropicalWalker(standard_folding("H4")).verify_cube(depth=3)
    assert report.passed and report.vertices_checked == 85
    assert len(calls) == 96
