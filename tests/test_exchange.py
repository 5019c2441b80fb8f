import copy
import json
import pickle
import random
from itertools import permutations
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from quiverfold import chebring
from quiverfold.chebring import AlgReal, minimal_poly
from quiverfold.exchange import ExchangeMatrix, RingValues, coeff_rows, mutate_coeffs
from spec_oracles import mutate_entries

# the F4-type skew-symmetrizable matrix and its 6x6 integer unfolding
B_F4 = ExchangeMatrix(
    [
        (0, -1, 0, 0),
        (1, 0, -1, 0),
        (0, 2, 0, -1),
        (0, 0, 1, 0),
    ]
)
S_E6 = ExchangeMatrix(
    [
        (0, -1, 0, 0, 0, 0),
        (1, 0, -1, -1, 0, 0),
        (0, 1, 0, 0, -1, 0),
        (0, 1, 0, 0, 0, -1),
        (0, 0, 1, 0, 0, 0),
        (0, 0, 0, 1, 0, 0),
    ]
)
S_A4 = ExchangeMatrix(
    [
        (0, -1, 0, 0),
        (1, 0, 1, 0),
        (0, -1, 0, -1),
        (0, 0, 1, 0),
    ]
)


MALFORMED_MATRIX_JSON = [
    "{}",
    "[]",
    '{"entries": 5}',
    '{"entries": [5]}',
    '{"entries": [["a"]]}',
    '{"entries": [[true]]}',
    '{"entries": [[{"m": 5}]]}',
    '{"entries": [[{"m": 5, "coeffs": "1"}]]}',
    '{"entries": [[{"m": 2, "coeffs": [1]}]]}',
    '{"entries": [[0, {"m": 5, "coeffs": [1]}], [{"m": 7, "coeffs": [-1]}, 0]]}',
]


def golden_matrix():
    phi = AlgReal.generator(5)
    zero = AlgReal(5)
    return ExchangeMatrix([(zero, -phi), (phi, zero)])


class TestImmutable:
    @pytest.mark.parametrize("name,value", [("entries", ((0,),)), ("n", 1), ("ring", "Z")])
    def test_attributes_cannot_be_reassigned(self, name, value):
        B = golden_matrix()
        before = B.entries
        with pytest.raises(AttributeError):
            setattr(B, name, value)
        with pytest.raises(AttributeError):
            delattr(B, name)
        assert B.entries == before and B.n == 2

    def test_pickle_and_copy_round_trip(self):
        for B in (golden_matrix(), B_F4):
            for C in (pickle.loads(pickle.dumps(B)), copy.copy(B), copy.deepcopy(B)):
                assert C == B and C.n == B.n and C.ring == B.ring


class TestMutate:
    def test_rank2_sign_flip(self):
        B = golden_matrix()
        phi = AlgReal.generator(5)
        assert B.mutate(0).entries == ((AlgReal(5), phi), (-phi, AlgReal(5)))
        assert B.mutate(0).mutate(0) == B

    def test_f4_example(self):
        # hand application of the formula at k=2: sign flips in row/col 2,
        # plus the corrections b_13 += b_12 b_23 pattern
        got = B_F4.mutate(2)
        expected = ExchangeMatrix(
            [
                (0, -1, 0, 0),
                (1, 0, 1, -1),
                (0, -2, 0, 1),
                (0, 2, -1, 0),
            ]
        )
        assert got == expected
        assert got.mutate(2) == B_F4

    def test_a4_mutation_involution(self):
        got = S_A4.mutate(1)
        assert got.is_skew_symmetric()
        assert got.mutate(1) == S_A4
        expected = ExchangeMatrix(
            [
                (0, 1, 0, 0),
                (-1, 0, -1, 0),
                (0, 1, 0, -1),
                (0, 0, 1, 0),
            ]
        )
        assert got == expected

    def test_invalid_vertex(self):
        with pytest.raises(IndexError):
            B_F4.mutate(4)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_involution_and_skew_random(self, data):
        n = data.draw(st.integers(2, 5))
        upper = {}
        for i in range(n):
            for j in range(i + 1, n):
                upper[(i, j)] = data.draw(st.integers(-3, 3))
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in upper.items():
            rows[i][j], rows[j][i] = v, -v
        B = ExchangeMatrix(tuple(tuple(r) for r in rows))
        k = data.draw(st.integers(0, n - 1))
        mutated = B.mutate(k)
        assert mutated.is_skew_symmetric()
        assert mutated.mutate(k) == B

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_involution_golden_entries(self, data):
        n = data.draw(st.integers(2, 4))
        phi = AlgReal.generator(5)
        one = AlgReal(5, (1,))
        zero = AlgReal(5)
        pool = (zero, one, -one, phi, -phi, one + phi, -(one + phi))
        rows = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = data.draw(st.sampled_from(pool))
                rows[i][j], rows[j][i] = v, -v
        B = ExchangeMatrix(tuple(tuple(r) for r in rows))
        k = data.draw(st.integers(0, n - 1))
        mutated = B.mutate(k)
        assert mutated.is_skew_symmetric()
        assert mutated.mutate(k) == B

    def test_skew_symmetrizable_stays(self):
        # D = diag(1,1,2,2) symmetrizes B_F4; mutation preserves that
        D = (1, 1, 2, 2)
        B = B_F4
        for word in ([0], [1, 2], [2, 3, 0], [3, 2, 1, 0]):
            M = B
            for k in word:
                M = M.mutate(k)
            BD = [[M.entries[i][j] * D[j] for j in range(4)] for i in range(4)]
            for i in range(4):
                for j in range(4):
                    assert BD[i][j] == -BD[j][i]


def composite_mutate(matrix: ExchangeMatrix, block) -> ExchangeMatrix:
    """Mutate at every vertex of ``block`` (requires the block to commute)."""
    block = sorted(block)
    for i in block:
        for j in block:
            if i != j and matrix.entries[i][j] != 0:
                raise ValueError(f"composite mutation refused: entries within {block} are nonzero")
    rows = matrix.entries
    for k in block:
        rows = mutate_entries(rows, k)
    return ExchangeMatrix(rows)


def composite_orders_agree(matrix: ExchangeMatrix, block) -> bool:
    """Exhaustively check order-independence of a composite mutation."""
    results = set()
    for order in permutations(block):
        rows = matrix.entries
        for k in order:
            rows = mutate_entries(rows, k)
        results.add(rows)
    return len(results) == 1


class TestCompositeMutate:
    def test_singleton(self):
        assert composite_mutate(S_E6, [1]) == S_E6.mutate(1)

    def test_e6_block_orders_agree(self):
        # E_3 = {2, 3} in zero-based indexing
        assert composite_orders_agree(S_E6, [2, 3])
        assert composite_mutate(S_E6, [2, 3]) == S_E6.mutate(2).mutate(3)

    def test_a4_block_orders_agree(self):
        # E_1 = {0, 2} in zero-based indexing
        assert composite_orders_agree(S_A4, [0, 2])

    def test_refuses_noncommuting_block(self):
        with pytest.raises(ValueError, match="composite mutation refused"):
            composite_mutate(S_E6, [1, 2])


class TestExtendedMutation:
    def test_stacked_rows_follow_pivot_square(self):
        # stack an identity under B; C-rows mutate by the same pivot row
        rows = S_A4.entries + tuple(
            tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
        )
        out = mutate_entries(rows, 0)
        # involution on the full stacked matrix
        assert mutate_entries(out, 0) == rows

    def test_json_round_trip(self):
        for M in (S_E6, golden_matrix()):
            assert ExchangeMatrix.from_json(M.to_json()) == M

    @pytest.mark.parametrize("text", MALFORMED_MATRIX_JSON)
    def test_malformed_json_is_a_value_error(self, text):
        with pytest.raises(ValueError):
            ExchangeMatrix.from_json(json.loads(text))

    def test_entries_over_two_fields_are_a_value_error(self):
        # nothing is computed on such a matrix, so it is refused when built
        with pytest.raises(ValueError, match="entries mix fields"):
            ExchangeMatrix([[AlgReal(5), AlgReal(7, (1,))], [AlgReal(7, (-1,)), AlgReal(5)]])

    @given(m=st.sampled_from([None, 5, 7]), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_per_row_sign_formula(self, m, data):
        # random stacked matrices over Z, Z[2cos(pi/5)] and Z[2cos(pi/7)],
        # zeros frequent so that rows with b_ik = 0 occur
        n = data.draw(st.integers(1, 4))
        extra = data.draw(st.integers(0, 4))
        coeff = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
        if m is None:
            entry = coeff
        else:
            deg = 2 if m == 5 else 3
            entry = st.tuples(*[coeff] * deg).map(lambda c: AlgReal(m, c))
        rows = tuple(
            tuple(data.draw(entry) for _ in range(n)) for _ in range(n + extra)
        )
        k = data.draw(st.integers(0, n - 1))
        assert mutate_entries(rows, k) == mutate_entries_per_row(rows, k)


class TestMatrixMutation:
    """``ExchangeMatrix.mutate`` against the ``mutate_entries`` oracle."""

    @given(m=st.sampled_from([None, 5, 7, 9]), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_mutate_entries(self, m, data):
        # over Z, or over Z[2cos(pi/m)] with some entries plain ints; zeros frequent
        n = data.draw(st.integers(1, 4))
        coeff = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
        entry = coeff
        if m is not None:
            deg = len(minimal_poly(m)) - 1
            entry = st.one_of(st.tuples(*[coeff] * deg).map(lambda c: AlgReal(m, c)), coeff)
        matrix = ExchangeMatrix(tuple(tuple(data.draw(entry) for _ in range(n)) for _ in range(n)))
        for k in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6)):
            got = matrix.mutate(k)
            want = mutate_entries(matrix.entries, k)
            assert got.entries == want
            assert [type(x) for r in got.entries for x in r] == [type(x) for r in want for x in r]
            matrix = got


class TestCoeffMutation:
    """``mutate_coeffs`` against ``mutate_entries`` on the decoded ``AlgReal`` rows."""

    @given(m=st.sampled_from([5, 7, 9, 15]), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_mutate_entries(self, m, data):
        # square or extended (2n x n), zeros frequent, some entries plain ints
        n = data.draw(st.integers(1, 4))
        height = data.draw(st.sampled_from((n, 2 * n)))
        deg = len(minimal_poly(m)) - 1
        coeff = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 7))
        entry = st.one_of(
            st.tuples(*[coeff] * deg).map(lambda c: AlgReal(m, c)),
            st.sampled_from((0, 1, -2)),
        )
        encoded = coeff_rows(
            tuple(tuple(data.draw(entry) for _ in range(n)) for _ in range(height))
        )
        rows = RingValues(m).rows(encoded)
        for k in range(n):
            got = mutate_coeffs(encoded, k, m)
            want = mutate_entries(rows, k)
            # equal encodings: same values, and a tuple exactly where want has an AlgReal
            assert got == coeff_rows(want)
            decoded = RingValues(m).rows(got)
            assert decoded == want
            assert [type(x) for r in decoded for x in r] == [type(x) for r in want for x in r]

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_mutate_entries_over_z(self, data):
        n = data.draw(st.integers(1, 5))
        height = data.draw(st.sampled_from((n, 2 * n)))
        rows = tuple(
            tuple(data.draw(st.integers(-3, 3)) for _ in range(n)) for _ in range(height)
        )
        for k in range(n):
            assert mutate_coeffs(rows, k) == mutate_entries(rows, k)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_int_branch_matches_mutate_entries_on_seed_patterns(self, data):
        # B = S diag(d) with S skew-symmetric is skew-symmetrizable (diag(d) B
        # is skew-symmetric); below it, C rows (the identity or random ints)
        # as in an extended exchange matrix; then a random mutation word
        n = data.draw(st.integers(1, 5))
        d = [data.draw(st.integers(1, 3)) for _ in range(n)]
        S = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                S[i][j] = data.draw(st.integers(-2, 2))
                S[j][i] = -S[i][j]
        B = [tuple(S[i][j] * d[j] for j in range(n)) for i in range(n)]
        if data.draw(st.booleans()):
            C = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        else:
            C = [tuple(data.draw(st.integers(-3, 3)) for _ in range(n)) for _ in range(n)]
        rows = tuple(B + C)
        for k in data.draw(st.lists(st.integers(0, n - 1), max_size=8)):
            got = mutate_coeffs(rows, k)
            want = mutate_entries(rows, k)
            assert got == want
            assert [type(x) for r in got for x in r] == [int] * len(rows) * n
            for row, new in zip(rows, got):
                if row[k] == 0 and row is not rows[k]:
                    assert new is row
            rows = got

    @given(m=st.sampled_from([5, 7, 9]), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_pivot_rows_with_both_signs_and_zeros(self, m, data):
        # every pivot row holds a positive and a negative entry and a zero,
        # as a tuple or an int; the other rows' column-k entries take both
        # signs and zero too
        n = data.draw(st.integers(4, 5))
        k = data.draw(st.integers(0, n - 1))
        deg = len(minimal_poly(m)) - 1
        value = st.tuples(*[st.integers(-4, 4)] * deg).map(lambda c: AlgReal(m, c))
        signed = st.one_of(value.filter(lambda a: not a.is_zero()), st.integers(-3, 3).filter(bool))
        entry = st.one_of(value, st.integers(-3, 3))
        rows = [[data.draw(entry) for _ in range(n)] for _ in range(2 * n)]
        others = [j for j in range(n) if j != k]
        pos, neg, zero = data.draw(st.permutations(others))[:3]
        rows[k][k] = 0
        rows[k][pos] = abs(data.draw(signed))
        rows[k][neg] = -abs(data.draw(signed))
        rows[k][zero] = data.draw(st.sampled_from((0, AlgReal(m))))
        rows = tuple(tuple(r) for r in rows)
        encoded = coeff_rows(rows)
        got = mutate_coeffs(encoded, k, m)
        want = mutate_entries(rows, k)
        assert got == coeff_rows(want)
        decoded = RingValues(m).rows(got)
        assert decoded == want
        assert [type(x) for r in decoded for x in r] == [type(x) for r in want for x in r]

    @given(m=st.sampled_from([5, 7]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_all_int_rows_with_m_given(self, m, data):
        n = data.draw(st.integers(1, 5))
        rows = tuple(
            tuple(data.draw(st.integers(-3, 3)) for _ in range(n)) for _ in range(2 * n)
        )
        for k in range(n):
            got = mutate_coeffs(rows, k, m)
            assert got == mutate_entries(rows, k) == mutate_coeffs(rows, k)
            assert all(type(x) is int for r in got for x in r)

    @pytest.mark.parametrize("m", [5, 7])
    def test_warm_context_run_equals_cold_run(self, monkeypatch, m):
        # the same words from the same start, first on cold contexts (every
        # sign and multiplication matrix made afresh), then warm; a third
        # run on cold contexts again
        deg = len(minimal_poly(m)) - 1
        rng = random.Random(m)
        start = tuple(
            tuple(AlgReal(m, tuple(rng.randint(-3, 3) for _ in range(deg))) for _ in range(4))
            for _ in range(8)
        )
        words = [[rng.randrange(4) for _ in range(12)] for _ in range(20)]

        def run():
            paths = []
            for word in words:
                rows, path = coeff_rows(start), []
                for k in word:
                    rows = mutate_coeffs(rows, k, m)
                    path.append(rows)
                paths.append(path)
            return paths

        monkeypatch.setattr(chebring, "_ROOT_CONTEXTS", {})
        cold = run()
        ctx = chebring._context(m)
        assert ctx.signs and ctx._mul_rows
        warm = run()
        monkeypatch.setattr(chebring, "_ROOT_CONTEXTS", {})
        assert cold == warm == run()
        # and each step equals mutate_entries on the decoded rows
        values = RingValues(m)
        for word, path in zip(words, cold):
            rows = start
            for k, got in zip(word, path):
                rows = mutate_entries(rows, k)
                assert got == coeff_rows(rows)
                assert values.rows(got) == rows

    def test_int_index_out_of_range(self):
        rows = S_E6.entries
        for k in (-1, 6):
            with pytest.raises(IndexError, match=f"mutation index {k} out of range 0..5"):
                mutate_coeffs(rows, k)

    def test_round_trip_keeps_entry_types(self):
        one, zero = AlgReal(5, (1,)), AlgReal(5)
        rows = ((one, 1, zero, 0), (AlgReal.generator(5), -1, -one, 2))
        encoded = coeff_rows(rows)
        assert encoded == (((1,), 1, (), 0), ((0, 1), -1, (-1,), 2))
        values = RingValues(5)
        decoded = values.rows(encoded)
        assert decoded == rows
        assert [type(x) for x in decoded[0]] == [AlgReal, int, AlgReal, int]
        assert values.rows(encoded)[0][0] is decoded[0][0]

    def test_index_out_of_range(self):
        rows = coeff_rows(golden_matrix().entries)
        for k in (-1, 2):
            with pytest.raises(IndexError, match=f"mutation index {k} out of range 0..1"):
                mutate_coeffs(rows, k, 5)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda: ExchangeMatrix(()).mutate(0),
            lambda: mutate_coeffs((), 0, 5),
            lambda: mutate_coeffs((), 0),
        ],
    )
    def test_empty_matrix_names_the_index(self, mutate):
        message = r"^mutation index 0 out of range \(the matrix is empty\)$"
        with pytest.raises(IndexError, match=message):
            mutate()


class TestRingMemos:
    """A context's ``updates``, ``pivots`` and ``negations`` memos: cold, warm and the oracle agree.

    Operands are drawn so that one value often comes as an int and as a
    tuple (``1`` and ``(1,)``), which must stay distinct keys: the results
    differ in type.
    """

    OPERANDS = (0, 1, 2, -1, -2, (), (1,), (2,), (-1,), (-2,), (0, 1), (1, 1), (0, -1), (2, -1))

    @given(m=st.sampled_from([5, 7, 9]), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_cold_warm_and_oracle_agree(self, m, data):
        n = data.draw(st.integers(1, 4))
        height = data.draw(st.sampled_from((n, 2 * n)))
        entry = st.sampled_from(self.OPERANDS)
        start = tuple(tuple(data.draw(entry) for _ in range(n)) for _ in range(height))
        word = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))

        def walk():
            rows, path = start, []
            for k in word:
                rows = mutate_coeffs(rows, k, m)
                path.append(rows)
            return path

        with patch.object(chebring, "_ROOT_CONTEXTS", {}):
            warming = walk()
            warm = walk()
        befores = [start] + warming[:-1]
        for k, before, got in zip(word, befores, warming):
            with patch.object(chebring, "_ROOT_CONTEXTS", {}):
                cold = mutate_coeffs(before, k, m)
            want = coeff_rows(mutate_entries(RingValues(m).rows(before), k))
            # equal encodings: equal values, and an int exactly where the
            # oracle has an int
            assert got == cold == want
        assert warm == warming

    def test_representations_are_distinct_keys(self):
        # b_kj is 1 and (1,) in the pivot row; below it, b_ik is 2 or (2,)
        # and b_ij is 1 or (1,), in every combination
        rows = (
            (0, 1, (1,)),
            (2, 1, 1),
            ((2,), (1,), (1,)),
            (2, (1,), 1),
            ((2,), 1, (1,)),
        )
        with patch.object(chebring, "_ROOT_CONTEXTS", {}):
            got = mutate_coeffs(rows, 0, 5)
            assert mutate_coeffs(rows, 0, 5) == got
            updates = dict(chebring._context(5).updates)
        assert got == coeff_rows(mutate_entries(RingValues(5).rows(rows), 0))
        assert got[1:] == (
            (-2, 3, (3,)),
            ((-2,), (3,), (3,)),
            (-2, (3,), (3,)),
            ((-2,), (3,), (3,)),
        )
        assert updates[1, 2, 1] == 3
        assert updates[(1,), 2, 1] == updates[1, (2,), 1] == updates[1, 2, (1,)] == (3,)
        assert len(updates) == 6  # rows 3 and 4 repeat one triple each


def _sgn(x):
    return x.sign() if isinstance(x, AlgReal) else (x > 0) - (x < 0)


def mutate_entries_per_row(rows, k):
    """Reference mutation: recomputes sgn(b_kj) for every entry it corrects."""
    out = []
    pivot_row = rows[k]
    for i, row in enumerate(rows):
        b_ik = row[k]
        s_ik = _sgn(b_ik)
        new_row = []
        for j, b_ij in enumerate(row):
            if i == k or j == k:
                new_row.append(-b_ij)
            else:
                b_kj = pivot_row[j]
                if s_ik != 0 and s_ik == _sgn(b_kj):
                    new_row.append(b_ij + s_ik * (b_ik * b_kj))
                else:
                    new_row.append(b_ij)
        out.append(tuple(new_row))
    return tuple(out)
