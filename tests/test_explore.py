"""The memoized word explorer against the word-by-word loops it replaced.

``oracle_unfolding`` and ``oracle_cube`` are the verifiers' loops as they
were before ``explore_words``: every word is mutated and checked on its own.
They take the words of length <= depth in length-lex order and stop after
the first failing one, so the word they name is a shortest failing word.
They also count the distinct states and the distinct (state, check, parity)
keys they check.  The reports of the explorer-based verifiers must match
them field by field, on passing and failing runs.  ``oracle_conditions`` is
the unfolding-condition loop in ``AlgReal`` arithmetic, as it was before
``conditions_hold`` computed on coefficient tuples; ``oracle_unfolding``
decides each state with it.
"""

import random
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from quiverfold import exchange, tropical, unfolding
from quiverfold.chebring import AlgReal
from quiverfold.exchange import ExchangeMatrix, coeff_rows, explore_words
from quiverfold.tropical import TropicalWalker
from quiverfold.unfolding import (
    check_weighted_unfolding, conditions_hold, standard_folding, steps_back_exactly,
)
from spec_oracles import algreal_pair, mutate_entries, replace_spec, sgn, walker_step
from test_tropical import FOLDINGS
from test_unfolding import FoldingSpecBrokenWeights, sign_flipped_f4e6


def oracle_conditions(S_rows, B, blocks, weights):
    """The records of conditions (1) and (2), computed in ``AlgReal`` arithmetic."""
    failures = []
    for bi, block_i in enumerate(blocks):
        for bj, block_j in enumerate(blocks):
            b_entry = B.entries[bi][bj]
            b_sign = sgn(b_entry)
            for l in block_j:
                acc = None
                for k in block_i:
                    s_kl = S_rows[k][l]
                    if b_sign >= 0 and s_kl < 0:
                        failures.append(
                            {"block": (bi, bj), "kind": "sign", "entry": (k, l), "actual": s_kl}
                        )
                    if s_kl:
                        term = weights[k] * s_kl
                        acc = term if acc is None else acc + term
                lhs = acc if acc is not None else 0 * b_entry
                rhs = b_entry * weights[l]
                if lhs != rhs:
                    failures.append(
                        {
                            "block": (bi, bj),
                            "kind": "column-sum",
                            "column": l,
                            "actual": lhs,
                            "expected": rhs,
                        }
                    )
    return failures


def length_lex(letters, shortest, longest):
    """Every word over ``letters`` letters with length in shortest..longest, in length-lex order."""
    for length in range(shortest, longest + 1):
        yield from product(range(letters), repeat=length)


def oracle_unfolding(spec, sequences=None, depth=6, random_words=200, random_length=20, seed=0):
    """(passed, words, failure word, failure detail, distinct states)."""
    m_folded = spec.B.n
    counter = [0]
    states = set()

    def check(S_rows, B_current):
        counter[0] += 1
        states.add((S_rows, B_current.entries))
        failures = oracle_conditions(S_rows, B_current, spec.blocks, spec.weights)
        return not failures, failures[0] if failures else None

    def step(S_rows, B_current, k):
        rows = S_rows
        for v in spec.blocks[k]:
            rows = mutate_entries(rows, v)
        return rows, B_current.mutate(k)

    def result(word=None, detail=None):
        return (word is None, counter[0], word, detail, len(states))

    ok, detail = check(spec.S.entries, spec.B)
    if not ok:
        return result((), detail)

    if sequences is not None:
        for word in sequences:
            rows, B_cur = spec.S.entries, spec.B
            for pos, k in enumerate(word):
                rows, B_cur = step(rows, B_cur, k)
                ok, detail = check(rows, B_cur)
                if not ok:
                    return result(tuple(word[: pos + 1]), detail)
        return result()

    for word in length_lex(m_folded, 1, depth):
        rows, B_cur = spec.S.entries, spec.B
        for k in word:
            rows, B_cur = step(rows, B_cur, k)
        ok, detail = check(rows, B_cur)
        if not ok:
            return result(word, detail)

    rng = random.Random(seed)
    for _ in range(random_words):
        rows, B_cur = spec.S.entries, spec.B
        word = []
        for _ in range(random_length):
            k = rng.randrange(m_folded)
            word.append(k)
            rows, B_cur = step(rows, B_cur, k)
            ok, detail = check(rows, B_cur)
            if not ok:
                return result(tuple(word), detail)
    return result()


def oracle_cube(walker, depth=6, random_words=0, random_length=30, seed=0):
    """(passed, words, failures, distinct states, distinct check keys)."""
    failures = []
    count = [0]
    states, keys = set(), set()

    def check(folded, lifted, word, full):
        states.add((folded, lifted))
        keys.add((folded, lifted, full, len(word) % 2))
        if full:
            walker.check_vertex(coeff_rows(folded), lifted, word, failures)
        else:
            walker.check_vertex(coeff_rows(folded), lifted, word, failures, only=frozenset(("roots",)))

    def visit(folded, lifted, word):
        count[0] += 1
        check(folded, lifted, word, True)

    folded0, lifted0 = algreal_pair(walker)
    for word in length_lex(walker.mprime, 0, depth):
        folded, lifted = folded0, lifted0
        for k in word:
            folded, lifted = walker_step(walker, folded, lifted, k)
        visit(folded, lifted, word)
        if failures:
            break

    rng = random.Random(seed)
    for _ in range(random_words):
        if failures:
            break
        folded, lifted = folded0, lifted0
        word = []
        for _ in range(random_length):
            k = rng.randrange(walker.mprime)
            word.append(k)
            folded, lifted = walker_step(walker, folded, lifted, k)
            count[0] += 1
            check(folded, lifted, tuple(word), False)
        check(folded, lifted, tuple(word), True)
    return not failures, count[0], failures, len(states), len(keys)


def unfolding_fields(report):
    return (
        report.passed, report.words_checked, report.failure_word, report.failure_detail,
        report.states,
    )


def assert_unfolding_matches(spec, monkeypatch, **kwargs):
    calls = []

    def counted(*args):
        calls.append(1)
        return conditions_hold(*args)

    expected = oracle_unfolding(spec, **kwargs)
    monkeypatch.setattr(unfolding, "conditions_hold", counted)
    report = check_weighted_unfolding(spec, **kwargs)
    assert unfolding_fields(report) == expected
    # each distinct (S, B) pair is checked once
    assert len(calls) == report.states
    for name in ("depth", "random_words", "seed"):
        if name in kwargs:
            assert getattr(report, name) == kwargs[name]
    return report


def assert_cube_matches(walker, monkeypatch, **kwargs):
    calls = []
    check_vertex = walker.check_vertex

    def counted(*args, **kw):
        calls.append(1)
        return check_vertex(*args, **kw)

    passed, words, failures, states, keys = oracle_cube(walker, **kwargs)
    monkeypatch.setattr(walker, "check_vertex", counted)
    report = walker.verify_cube(**kwargs)
    assert (report.passed, report.vertices_checked, report.failures, report.seed) == (
        passed, words, failures, kwargs.get("seed", 0),
    )
    assert report.states == states
    # each distinct (state, check, parity) key is checked once
    assert len(calls) == keys
    return report


FOLDINGS = [("F4E6", None), ("I2m", 5), ("I2m", 6), ("I2m", 7), ("H3", None), ("H4", None),
            ("I2", 2), ("I2", 3)]


class TestUnfoldingEquivalence:
    @pytest.mark.parametrize("kind,n", FOLDINGS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_standard_foldings(self, kind, n, seed, monkeypatch):
        spec = standard_folding(kind, n)
        report = assert_unfolding_matches(
            spec, monkeypatch, depth=3, random_words=10, random_length=8, seed=seed
        )
        assert report.passed and report.states < report.words_checked

    def test_sequences(self, monkeypatch):
        spec = standard_folding("H3")
        words = [(), (0, 1, 2, 1, 0), [2, 2], (1, 0, 1, 0, 1, 0, 1, 0, 1, 0)]
        report = assert_unfolding_matches(spec, monkeypatch, sequences=words)
        assert report.passed

    @pytest.mark.parametrize("kind,n", FOLDINGS)
    def test_broken_weights(self, kind, n, monkeypatch):
        bad = FoldingSpecBrokenWeights(standard_folding(kind, n))
        report = assert_unfolding_matches(bad, monkeypatch, depth=2, random_words=3, seed=1)
        assert not report.passed

    @pytest.mark.parametrize("depth,seed", [(5, 0), (1, 0), (1, 1)])
    def test_failure_deep_in_the_tree_or_a_walk(self, depth, seed, monkeypatch):
        report = assert_unfolding_matches(
            shifted_f4e6(), monkeypatch, depth=depth, random_words=20, random_length=8,
            seed=seed,
        )
        assert not report.passed and len(report.failure_word) >= 2

    def test_sequence_failure(self, monkeypatch):
        words = [(0, 1), (1, 0, 0, 2, 1, 3), (0, 0, 2, 1, 2)]
        report = assert_unfolding_matches(shifted_f4e6(), monkeypatch, sequences=words)
        assert report.failure_word == (0, 0, 2, 1)


def states_within(spec, depth):
    """Every (S rows, B) pair that composite mutation reaches from spec in <= depth steps.

    Pairs are told apart by ``coeff_rows``, so an int entry and an equal
    ``AlgReal`` one make two pairs.
    """
    start = (spec.S.entries, spec.B)
    seen = {(spec.S.entries, coeff_rows(spec.B.entries))}
    found, frontier = [start], [start]
    for _ in range(depth):
        new = []
        for rows, B in frontier:
            for k in range(B.n):
                moved = rows
                for v in spec.blocks[k]:
                    moved = mutate_entries(moved, v)
                state = (moved, B.mutate(k))
                key = (moved, coeff_rows(state[1].entries))
                if key not in seen:
                    seen.add(key)
                    found.append(state)
                    new.append(state)
        frontier = new
    return found


@lru_cache(maxsize=None)
def standard_states(kind, n):
    return states_within(standard_folding(kind, n), 4)


def typed(records):
    """The records with every value paired with its type."""
    return [{key: (type(value), value) for key, value in r.items()} for r in records]


def assert_conditions_agree(spec, states):
    """``conditions_hold`` and ``oracle_conditions`` give the same records on every state.

    Returns the records of each state.
    """
    out = []
    for S_rows, B in states:
        got = conditions_hold(S_rows, B, spec.blocks, spec.weights)
        assert typed(got) == typed(oracle_conditions(S_rows, B, spec.blocks, spec.weights))
        out.append(got)
    return out


def integer_weights(spec):
    """spec with every weight whose value is an integer given as an int."""
    return replace_spec(spec, weights=tuple(_as_int(w) for w in spec.weights))


def integer_entries(spec):
    """spec with every entry of B whose value is an integer given as an int."""
    return replace_spec(spec, B=ExchangeMatrix([[_as_int(x) for x in row] for row in spec.B.entries]))


def _as_int(x):
    if isinstance(x, AlgReal) and len(x.coeffs) <= 1:
        return x.coeffs[0] if x.coeffs else 0
    return x


def shifted_f4e6():
    """F4E6 with one arrow of column 1 moved from vertex 3 to vertex 2.

    Both have weight one, so the column sums still hold at the start; the
    conditions fail only after a few mutations.
    """
    spec = standard_folding("F4E6")
    rows = [list(r) for r in spec.S.entries]
    rows[2][1] += 1
    rows[3][1] -= 1
    return replace_spec(spec, S=ExchangeMatrix(rows))


class TestConditionsOracle:
    @pytest.mark.parametrize("kind,n", FOLDINGS)
    def test_reachable_states(self, kind, n):
        spec = standard_folding(kind, n)
        records = assert_conditions_agree(spec, standard_states(kind, n))
        assert len(records) >= 2 and not any(records)

    @pytest.mark.parametrize("kind,n", FOLDINGS)
    def test_broken_weights(self, kind, n):
        bad = FoldingSpecBrokenWeights(standard_folding(kind, n))
        records = assert_conditions_agree(bad, standard_states(kind, n))
        assert all(records)

    @pytest.mark.parametrize("make", [sign_flipped_f4e6, shifted_f4e6])
    def test_corrupted_f4e6(self, make):
        spec = make()
        records = assert_conditions_agree(spec, states_within(spec, 4))
        kinds = {r["kind"] for rs in records for r in rs}
        assert kinds == {"sign", "column-sum"}

    @pytest.mark.parametrize("kind,n", FOLDINGS)
    @pytest.mark.parametrize("broken", [False, True])
    def test_weights_mixing_ints_and_algreals(self, kind, n, broken):
        spec = standard_folding(kind, n)
        if broken:
            spec = FoldingSpecBrokenWeights(spec)
        mixed = integer_weights(spec)
        if kind != "F4E6":
            assert {type(w) for w in mixed.weights} == {int, AlgReal}
        states = standard_states(kind, n)
        records = assert_conditions_agree(mixed, states)
        # the same values, whatever their types
        assert records == assert_conditions_agree(spec, states)

    @pytest.mark.parametrize("kind,n", FOLDINGS)
    @pytest.mark.parametrize("broken", [False, True])
    def test_integer_entries_in_B(self, kind, n, broken):
        spec = standard_folding(kind, n)
        if broken:
            spec = FoldingSpecBrokenWeights(spec)
        ints = integer_entries(spec)
        states = states_within(ints, 4)
        assert any(type(x) is int for _, B in states for row in B.entries for x in row)
        records = assert_conditions_agree(ints, states)
        if spec.m is not None:
            # the same states with every entry of B an AlgReal
            states = [
                (S_rows, ExchangeMatrix(
                    [[AlgReal(spec.m, (x,)) if type(x) is int else x for x in row]
                     for row in B.entries]
                ))
                for S_rows, B in states
            ]
        assert records == assert_conditions_agree(spec, states)

    def test_integer_B_with_algreal_weights(self):
        spec = standard_folding("F4E6")
        one, two = AlgReal(5, (1,)), AlgReal(5, (2,))
        for weights, fails in (((one,) * 6, False), ((one, two) + (1,) * 4, True)):
            alg = replace_spec(spec, weights=weights)
            records = assert_conditions_agree(alg, states_within(alg, 4))
            assert any(records) == fails

    def test_weights_and_B_over_different_fields(self):
        spec = standard_folding("I2", 3)
        B = standard_folding("I2m", 5).B
        with pytest.raises(ValueError, match="fields"):
            conditions_hold(spec.S.entries, B, spec.blocks, spec.weights)
        with pytest.raises(ValueError):
            oracle_conditions(spec.S.entries, B, spec.blocks, spec.weights)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_entry_of_S_changed(self, data):
        kind, n = data.draw(st.sampled_from(FOLDINGS))
        spec = standard_folding(kind, n)
        if data.draw(st.booleans()):
            spec = integer_weights(spec)
        S_rows, B = data.draw(st.sampled_from(standard_states(kind, n)))
        k = data.draw(st.integers(0, len(S_rows) - 1))
        l = data.draw(st.integers(0, len(S_rows) - 1))
        rows = [list(row) for row in S_rows]
        rows[k][l] += data.draw(st.sampled_from((-1, 1)))
        (records,) = assert_conditions_agree(spec, [(tuple(map(tuple, rows)), B)])
        assert records

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_several_entries_of_S_changed(self, data):
        # failures in several columns and block pairs come back in block
        # order, also when the columns are read from a memo that other
        # states filled
        kind, n = data.draw(st.sampled_from(FOLDINGS))
        spec = standard_folding(kind, n)
        if data.draw(st.booleans()):
            spec = integer_weights(spec)
        S_rows, B = data.draw(st.sampled_from(standard_states(kind, n)))
        size = len(S_rows)
        cell = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
        rows = [list(row) for row in S_rows]
        for k, l in data.draw(st.lists(cell, min_size=2, max_size=4, unique=True)):
            rows[k][l] += data.draw(st.sampled_from((-2, -1, 1, 2)))
        changed = tuple(map(tuple, rows))
        expected = typed(oracle_conditions(changed, B, spec.blocks, spec.weights))
        assert typed(conditions_hold(changed, B, spec.blocks, spec.weights)) == expected
        memo = {}
        for other in data.draw(st.lists(st.sampled_from(standard_states(kind, n)), max_size=3)):
            conditions_hold(*other, spec.blocks, spec.weights, memo)
        for _ in range(2):
            got = conditions_hold(changed, B, spec.blocks, spec.weights, memo)
            assert typed(got) == expected

    def test_records_of_several_block_pairs_in_block_order(self):
        # H4 with the arrows of columns 1 and 6 broken: records from three
        # block pairs, read in block order and not column by column
        spec = standard_folding("H4")
        rows = [list(row) for row in spec.S.entries]
        rows[2][1] += 1
        rows[7][1] -= 1
        rows[0][6] -= 2
        S_rows = tuple(map(tuple, rows))
        records = conditions_hold(S_rows, spec.B, spec.blocks, spec.weights, {})
        assert typed(records) == typed(
            oracle_conditions(S_rows, spec.B, spec.blocks, spec.weights)
        )
        blocks = [r["block"] for r in records]
        assert len(set(blocks)) >= 3 and blocks == sorted(blocks)


def corrupted_lifted(kind, n):
    """The folding with one lifted block changed: its arrows stop folding."""
    spec = standard_folding(kind, n)
    rows = [list(r) for r in spec.S.entries]
    i, j = spec.blocks[0][0], spec.blocks[1][-1]
    rows[i][j] += 1
    rows[j][i] -= 1
    return replace_spec(spec, S=ExchangeMatrix(rows))


def corrupted_folded(kind, n):
    """The folding with its folded edge weight raised by one."""
    spec = standard_folding(kind, n)
    rows = [list(r) for r in spec.B.entries]
    rows[0][1] = rows[0][1] + 1
    rows[1][0] = rows[1][0] - 1
    return replace_spec(spec, B=ExchangeMatrix(rows))


class TestCubeEquivalence:
    @pytest.mark.parametrize(
        "kind,n,depth", [("I2", 2, 5), ("I2", 3, 4), ("I2", 4, 3), ("H3", None, 3), ("H4", None, 2)]
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_standard_foldings(self, kind, n, depth, seed, monkeypatch):
        walker = TropicalWalker(standard_folding(kind, n))
        report = assert_cube_matches(
            walker, monkeypatch, depth=depth, random_words=4, random_length=10, seed=seed
        )
        assert report.passed and report.states < report.vertices_checked

    @pytest.mark.parametrize("kind,n", [("I2", 3), ("H3", None), ("H4", None)])
    @pytest.mark.parametrize("checks", [tropical.CHECKS, ("blocks", "roots", "dets")])
    @pytest.mark.parametrize("depth", [0, 3])
    def test_corrupted_lifted_block(self, kind, n, checks, depth, monkeypatch):
        walker = TropicalWalker(corrupted_lifted(kind, n), checks=checks)
        report = assert_cube_matches(
            walker, monkeypatch, depth=depth, random_words=6, random_length=6, seed=1
        )
        assert not report.passed

    @pytest.mark.parametrize("checks", [("roots",), ("roots", "dets")])
    @pytest.mark.parametrize("depth", [0, 4])
    def test_corrupted_folded_entry(self, checks, depth, monkeypatch):
        # a walk goes on after a failed step, so failures recur and are replayed
        walker = TropicalWalker(corrupted_folded("I2", 3), checks=checks)
        report = assert_cube_matches(
            walker, monkeypatch, depth=depth, random_words=3, random_length=8, seed=0
        )
        assert not report.passed
        if depth == 0:
            assert len(report.failures) > len({f[1:] for f in report.failures})

    def test_replayed_determinant_failure_names_its_word(self, monkeypatch):
        # the memo key keeps the word length mod 2; the record needs all of it
        walker = TropicalWalker(standard_folding("I2", 3))
        target = walker_step(walker, *algreal_pair(walker), 0)[0]
        calls = []

        def check_vertex(folded, lifted, word, failures, neighbour=None, only=None):
            calls.append(word)
            if coeff_rows(folded) == coeff_rows(target):
                failures.append((word, "folded-determinant", len(word)))

        monkeypatch.setattr(walker, "check_vertex", check_vertex)
        report = walker.verify_cube(depth=0, random_words=1, random_length=12, seed=3)
        lengths = {f[2] for f in report.failures}
        assert len(calls) < report.vertices_checked and len(lengths) > 1
        assert all(f[2] == len(f[0]) for f in report.failures)


class TestExploreWords:
    def test_negative_depth_is_an_error(self):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            explore_words((((0,),),), lambda s, k: s, 1, lambda s, w, nb: (), depth=-1)
        with pytest.raises(ValueError, match="depth must be >= 0"):
            check_weighted_unfolding(standard_folding("H3"), depth=-1)
        with pytest.raises(ValueError, match="depth must be >= 0"):
            TropicalWalker(standard_folding("H3")).verify_cube(depth=-1)

    def test_depth_or_walk_size_that_is_not_an_int_is_an_error(self):
        with pytest.raises(TypeError):
            explore_words((((0,),),), lambda s, k: s, 1, lambda s, w, nb: (), depth=2.5)
        with pytest.raises(TypeError):
            check_weighted_unfolding(standard_folding("H3"), depth=2.5)
        with pytest.raises(TypeError):
            TropicalWalker(standard_folding("H3")).verify_cube(depth=2.5)
        with pytest.raises(TypeError):
            check_weighted_unfolding(standard_folding("H3"), random_length=2.5)

    def test_negative_random_words_is_an_error(self):
        # raised before any word is checked, not when the walks are reached
        with pytest.raises(ValueError, match="random_words must be >= 0, got -1"):
            check_weighted_unfolding(standard_folding("H3"), random_words=-1)
        with pytest.raises(ValueError, match="random_words must be >= 0, got -1"):
            TropicalWalker(standard_folding("H3")).verify_cube(random_words=-1)

    def test_negative_random_length_is_an_error(self):
        with pytest.raises(ValueError, match="random_length must be >= 0, got -1"):
            check_weighted_unfolding(standard_folding("H3"), random_length=-1)
        with pytest.raises(ValueError, match="random_length must be >= 0, got -1"):
            TropicalWalker(standard_folding("H3")).verify_cube(random_words=1, random_length=-1)

    def test_interning_keeps_entry_types(self):
        # AlgReal(5, (1,)) == 1 and hashes alike, but must not replace the int
        one = AlgReal(5, (1,))
        seen = []

        def check(state, word, neighbour):
            seen.append(state)
            return ()

        run = explore_words((((one,),), ((1,),)), lambda s, k: s, 1, check, depth=2)
        assert run.words == 3 and run.states == 1
        (folded,), (lifted,) = seen[0]
        assert type(folded[0]) is AlgReal and type(lifted[0]) is int

    @pytest.mark.parametrize("kind,n", [("H3", None), ("H4", None), ("I2", 3), ("I2m", 6),
                                        ("F4E6", None)])
    def test_verifiers_explore_states_with_int_leaves(self, kind, n, monkeypatch):
        # ring entries travel as coefficient tuples, so the explorer compares
        # states by value without merging AlgReal(m, (1,)) into 1
        states = []

        def spy(start, step, *args, **kwargs):
            def recorded(state, k):
                states.append(step(state, k))
                return states[-1]

            states.append(start)
            return explore_words(start, recorded, *args, **kwargs)

        monkeypatch.setattr(unfolding, "explore_words", spy)
        monkeypatch.setattr(tropical, "explore_words", spy)
        spec = standard_folding(kind, n)
        assert check_weighted_unfolding(spec, depth=3, random_words=4, seed=1).passed
        if spec.n is not None:
            assert TropicalWalker(spec).verify_cube(depth=3, random_words=4, seed=1).passed
        assert len(states) > 2
        for state in states:
            assert all(type(x) is int for x in leaves(state)), state
        if kind != "F4E6":
            assert any(type(entry) is tuple for entry in matrix_entries(states[0]))

    def test_transitions_are_memoized(self):
        steps = []

        def step(state, k):
            steps.append((state, k))
            return ((((state[0][0][0] + k + 1) % 3,),),)

        run = explore_words((((0,),),), step, 2, lambda s, w, nb: (), depth=6)
        assert run.words == 2**7 - 1 and run.states == 3
        assert len(steps) == 3 * 2


def leaves(x):
    """The non-tuple objects inside nested tuples."""
    if isinstance(x, tuple):
        for part in x:
            yield from leaves(part)
    else:
        yield x


def matrix_entries(state):
    """The entries of every matrix of a state: the items of its rows."""
    return [entry for matrix in state for row in matrix for entry in row]


# ---------------------------------------------------------------------------
# reverse edges: a step that is its own inverse is not computed twice


@lru_cache(maxsize=None)
def verifier_steps(kind, n, opp=False):
    """(start, step, back) as each word verifier hands them to ``explore_words``."""
    handed = []

    def spy(start, step, *args, back=None, **kwargs):
        handed.append((start, step, back))
        return explore_words(start, step, *args, back=back, **kwargs)

    spec = standard_folding(kind, n, opp)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(unfolding, "explore_words", spy)
        patch.setattr(tropical, "explore_words", spy)
        check_weighted_unfolding(spec, depth=0, random_words=0)
        if spec.n is not None:
            TropicalWalker(spec).verify_cube(depth=0)
    return tuple(handed)


def entry_types(state):
    return [type(entry) for entry in matrix_entries(state)]


class TestReverseEdges:
    @pytest.mark.parametrize("kind,n", FOLDINGS)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_predicate_means_the_step_undoes_itself(self, kind, n, data):
        opp = data.draw(st.booleans())
        letters = standard_folding(kind, n).B.n
        for start, step, way_back in verifier_steps(kind, n, opp):
            word = data.draw(st.lists(st.integers(0, letters - 1), min_size=1, max_size=12))
            state = start
            for k in word:
                stepped = step(state, k)
                j = way_back(state, k, stepped)
                if j is not None:
                    assert j == k
                    back = step(stepped, j)
                    assert back == state
                    assert entry_types(back) == entry_types(state)
                state = stepped

    @pytest.mark.parametrize("kind,n", FOLDINGS)
    def test_predicate_holds_on_some_steps(self, kind, n):
        # every verifier has reverse edges to read, so the test above is not vacuous
        letters = standard_folding(kind, n).B.n
        for start, step, way_back in verifier_steps(kind, n):
            held = sum(way_back(start, k, step(start, k)) is not None for k in range(letters))
            assert held > 0

    def test_in_block_arrow_makes_the_explorer_step_back(self):
        # vertices 0 and 1 form block 0 of H4; an arrow between them breaks
        # the commutation of the block's mutations
        spec = standard_folding("H4")
        (start, step, way_back), _ = verifier_steps("H4", None)
        B_rows, S_rows = start
        planted = with_arrow(S_rows, 0, 1)
        assert steps_back_exactly(spec.blocks, spec.m, (B_rows, S_rows), 0)
        assert not steps_back_exactly(spec.blocks, spec.m, (B_rows, planted), 0)
        for rows, steps in ((S_rows, 1), (planted, 2)):
            calls = []

            def counted(state, k):
                calls.append(state)
                return step(state, k)

            run = explore_words((B_rows, rows), counted, 1, lambda s, w, nb: (), depth=2,
                                back=way_back)
            assert run.words == 3
            assert len(calls) == steps
        # the explorer stepped back from the state it reached
        assert calls[1] == step((B_rows, planted), 0)

    def test_mixed_or_ring_ints_never_qualify(self):
        S_rows = ((0, 1), (-1, 0))
        blocks = ((0,),)
        assert steps_back_exactly(blocks, 5, ((((1,), ()), ((-1,), ())), S_rows), 0)
        assert steps_back_exactly(blocks, None, (((0, 1), (-1, 0)), S_rows), 0)
        # an int among tuples can come back as an equal tuple
        assert not steps_back_exactly(blocks, 5, ((((1,), 0), ((-1,), ())), S_rows), 0)
        # ints stepped over Z[2cos(pi/m)] are left to the explorer
        assert not steps_back_exactly(blocks, 5, (((0, 1), (-1, 0)), S_rows), 0)

    def test_mutation_counts_on_h4(self, monkeypatch):
        # the inverse of each edge met is recorded, not computed: 348 calls
        # without reverse edges
        calls = []
        real = unfolding.mutate_coeffs
        monkeypatch.setattr(unfolding, "mutate_coeffs", lambda *a: calls.append(1) or real(*a))
        report = check_weighted_unfolding(standard_folding("H4"), depth=4, random_words=0)
        assert report.passed and report.words_checked == 341
        assert len(calls) == 240

    def test_walk_replays_count_words_and_states(self):
        checked = []

        def check(state, word, neighbour):
            checked.append(word)
            return ()

        def step(state, k):
            return ((((state[0][0][0] + 1) % 2,),),)

        run = explore_words((((0,),),), step, 1, check, walks=[(0,) * 5, (0,) * 3],
                            back=lambda state, k, nxt: k)
        assert (run.words, run.states) == (1 + 5 + 3, 2)
        assert checked == [(), (0,)]


def with_arrow(rows, i, j):
    """``rows`` with an arrow i -> j: entry (i, j) = 1 and (j, i) = -1."""
    rows = [list(row) for row in rows]
    rows[i][j], rows[j][i] = 1, -1
    return tuple(map(tuple, rows))


# ---------------------------------------------------------------------------
# work counts: each key is expanded once, a repeated column is read


def expansions(monkeypatch):
    """The (id(state), k) of every ``move`` the explorer makes, in order."""
    calls = []
    move = exchange._Explorer.move

    def counted(explorer, state, k):
        calls.append((id(state), k))
        return move(explorer, state, k)

    monkeypatch.setattr(exchange._Explorer, "move", counted)
    return calls


class TestWorkCounts:
    def test_each_pair_shorter_than_depth_is_expanded_once(self, monkeypatch):
        calls = expansions(monkeypatch)
        spec = standard_folding("H4")
        report = check_weighted_unfolding(spec, depth=5, random_words=0)
        assert report.passed and report.words_checked == sum(4**level for level in range(6))
        # every letter from every pair at distance < 5, once
        expanded = {state for state, _ in calls}
        assert sorted(calls) == [(state, k) for state in sorted(expanded) for k in range(4)]
        assert len(expanded) == len(states_within(spec, 4)) == 61

    @pytest.mark.parametrize("parity,keys", [(False, 3), (True, 6)])
    def test_each_parity_key_is_expanded_once(self, parity, keys, monkeypatch):
        # a 3-cycle: with parity each state is a key at both parities
        calls = expansions(monkeypatch)

        def step(state, k):
            return ((((state[0][0][0] + 1) % 3,),),)

        run = explore_words((((0,),),), step, 1, lambda s, w, nb: (), depth=10, parity=parity)
        assert (run.words, run.states) == (11, 3)
        assert len(calls) == keys

    def test_each_column_is_decided_once(self, monkeypatch):
        spec = standard_folding("H4")
        computed, triples = [], set()
        column_records = unfolding._column_records
        conditions = unfolding.conditions_hold

        def decided(l, bj, s_col, b_col, *args):
            computed.append((l, s_col, b_col))
            return column_records(l, bj, s_col, b_col, *args)

        def checked(S_rows, B, blocks, weights, *memo):
            B_cols = list(zip(*coeff_rows(B.entries)))
            for bj, block in enumerate(blocks):
                for l in block:
                    triples.add((l, tuple(row[l] for row in S_rows), B_cols[bj]))
            return conditions(S_rows, B, blocks, weights, *memo)

        monkeypatch.setattr(unfolding, "_column_records", decided)
        monkeypatch.setattr(unfolding, "conditions_hold", checked)
        report = check_weighted_unfolding(spec, depth=5, random_words=20, seed=1)
        assert report.passed
        assert len(computed) == len(set(computed)) and set(computed) == triples
        assert len(computed) < report.states * spec.S.n
