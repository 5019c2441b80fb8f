import math
import random

import pytest

from quiverfold import unfolding
from quiverfold.chebring import AlgReal
from quiverfold.exchange import ExchangeMatrix, coeff_rows
from quiverfold.unfolding import (
    build_unfolded_matrix,
    check_weighted_unfolding,
    conditions_hold,
    standard_folding,
)
from spec_oracles import matrix_d_F, replace_spec


class TestCheckConditions:
    """Conditions (1) and (2) by ``conditions_hold``, and the shape a ``FoldingSpec`` must have."""

    def test_f4_e6_passes(self):
        spec = standard_folding("F4E6")
        assert conditions_hold(spec.S.entries, spec.B, spec.blocks, spec.weights) == []

    def test_i5_passes_with_golden_weights(self):
        spec = standard_folding("I2m", 5)
        expected_S = ExchangeMatrix(
            [
                (0, -1, 0, 0),
                (1, 0, 1, 0),
                (0, -1, 0, -1),
                (0, 0, 1, 0),
            ]
        )
        assert spec.S == expected_S
        phi = AlgReal.generator(5)
        assert spec.weights == (AlgReal(5, (1,)), phi, phi, AlgReal(5, (1,)))
        assert conditions_hold(spec.S.entries, spec.B, spec.blocks, spec.weights) == []

    def test_g2_passes_with_sqrt3_weights(self):
        spec = standard_folding("I2m", 6)
        expected_S = ExchangeMatrix(
            [
                (0, -1, 0, 0, 0),
                (1, 0, 1, 0, 0),
                (0, -1, 0, -1, 0),
                (0, 0, 1, 0, 1),
                (0, 0, 0, -1, 0),
            ]
        )
        assert spec.S == expected_S
        s3 = AlgReal.generator(6)
        one = AlgReal(6, (1,))
        two = AlgReal(6, (2,))
        assert spec.weights == (one, s3, two, s3, one)
        assert conditions_hold(spec.S.entries, spec.B, spec.blocks, spec.weights) == []

    def test_failure_is_reported(self):
        spec = standard_folding("F4E6")
        broken = [list(r) for r in spec.S.entries]
        broken[0][1] = -2
        broken[1][0] = 2
        failures = conditions_hold(
            tuple(tuple(r) for r in broken), spec.B, spec.blocks, spec.weights
        )
        assert any(f["kind"] == "column-sum" for f in failures)

    def test_every_record_in_block_order(self):
        # a sign failure, then a column-sum failure, both in block (1, 0)
        spec = sign_flipped_f4e6()
        failures = conditions_hold(spec.S.entries, spec.B, spec.blocks, spec.weights)
        assert failures == [
            {"block": (1, 0), "kind": "sign", "entry": (1, 0), "actual": -1},
            {"block": (1, 0), "kind": "column-sum", "column": 0, "actual": -1, "expected": 1},
        ]
        walk = check_weighted_unfolding(spec, depth=1, random_words=0)
        assert walk.failure_word == () and walk.failure_detail == failures[0]

    def test_bad_partition_rejected(self):
        spec = standard_folding("F4E6")
        with pytest.raises(ValueError, match="blocks must partition the unfolded index set"):
            replace_spec(spec, blocks=((0,), (1,), (2, 3)))

    def test_block_index_out_of_range_rejected(self):
        spec = standard_folding("H3")
        with pytest.raises(ValueError, match="block indices exceed the matrix size"):
            replace_spec(spec, blocks=spec.blocks[:-1] + ((4, 6),))

    def test_B_larger_than_the_blocks_rejected(self):
        # a fourth row of B that no block covers would go unchecked
        spec = standard_folding("H3")
        zero = AlgReal(5)
        rows = [list(row) + [zero] for row in spec.B.entries] + [[zero] * 3 + [AlgReal(5, (7,))]]
        with pytest.raises(ValueError, match="one block per folded vertex"):
            replace_spec(spec, B=ExchangeMatrix(rows))

    def test_B_smaller_than_the_blocks_rejected(self):
        spec = standard_folding("H3")
        B = ExchangeMatrix([row[:2] for row in spec.B.entries[:2]])
        with pytest.raises(ValueError, match="one block per folded vertex"):
            replace_spec(spec, B=B)

    def test_short_weights_rejected(self):
        spec = standard_folding("H3")
        with pytest.raises(ValueError, match="one weight per unfolded vertex"):
            replace_spec(spec, weights=spec.weights[:-1])


class TestStandardFoldings:
    def test_h3_shape(self):
        spec = standard_folding("H3")
        assert spec.S.n == 6
        assert spec.B.n == 3
        phi = AlgReal.generator(5)
        assert spec.B.entries[1][2] == phi
        assert spec.B.entries[0][1] == AlgReal(5, (1,))
        assert spec.weights == (
            AlgReal(5, (1,)), phi, AlgReal(5, (1,)), phi, AlgReal(5, (1,)), phi,
        )
        # D6 underlying graph: degree sequence has one branch vertex
        degrees = [0] * 6
        for i in range(6):
            for j in range(6):
                if spec.S.entries[i][j] > 0:
                    degrees[i] += 1
                    degrees[j] += 1
        assert sorted(degrees) == [1, 1, 1, 2, 2, 3]

    def test_h4_shape(self):
        spec = standard_folding("H4")
        assert spec.S.n == 8 and spec.B.n == 4
        degrees = [0] * 8
        for i in range(8):
            for j in range(8):
                if spec.S.entries[i][j] > 0:
                    degrees[i] += 1
                    degrees[j] += 1
        assert sorted(degrees) == [1, 1, 1, 2, 2, 2, 2, 3]

    def test_i7_weights(self):
        spec = standard_folding("I2", 3)
        x = AlgReal.generator(7)
        # (1, 2x, 4x^2 - 1, 4x^2 - 1, 2x, 1) with x = cos(pi/7), i.e. in the
        # 2cos generator: (1, g, g^2 - 1, g^2 - 1, g, 1)
        assert spec.weights == (
            AlgReal(7, (1,)), x, x * x - 1, x * x - 1, x, AlgReal(7, (1,)),
        )
        assert spec.blocks == ((0, 4, 2), (5, 1, 3))

    def test_i_type_needs_n(self):
        with pytest.raises(ValueError):
            standard_folding("I2", 1)
        with pytest.raises(ValueError):
            standard_folding("unknown")

    def test_f4e6_matches_fixture(self):
        spec = standard_folding("F4E6")
        assert spec.blocks == ((0,), (1,), (2, 3), (4, 5))
        assert spec.S.is_skew_symmetric()
        assert not spec.B.is_skew_symmetric()


def arrows(S):
    """The arrows i -> j of an integer exchange matrix, one per entry S[i][j] = 1."""
    assert all(x in (-1, 0, 1) for row in S.entries for x in row)
    return {(i, j) for i, row in enumerate(S.entries) for j, x in enumerate(row) if x == 1}


# Arrows of the unfolded quivers, worked by hand from B: rho(theta_0) is the
# identity and rho(theta_1) = ((0, 1), (1, 1)) at n = 2, so the edge
# [j] -> [j+1] of weight 1 gives j -> j+1 and pj -> pj+1, and the last edge,
# of weight phi, gives j -> p(j+1), pj -> j+1 and pj -> p(j+1).  Vertex
# indices follow the labels 1, p1, 2, p2, ...
D6 = {(0, 2), (1, 3), (2, 5), (3, 4), (3, 5)}
E8 = {(0, 2), (1, 3), (2, 4), (3, 5), (4, 7), (5, 6), (5, 7)}


def dynkin_arms(arrow_set, nverts):
    """The arm lengths at the one branch vertex of a tree with one vertex of degree 3."""
    nbrs = {v: set() for v in range(nverts)}
    for i, j in arrow_set:
        nbrs[i].add(j)
        nbrs[j].add(i)
    (branch,) = [v for v in nbrs if len(nbrs[v]) == 3]
    arms = []
    for start in nbrs[branch]:
        prev, cur, length = branch, start, 1
        while len(nbrs[cur]) == 2:
            prev, cur = cur, next(iter(nbrs[cur] - {prev}))
            length += 1
        arms.append(length)
    return sorted(arms)


class TestFoldingOracles:
    @pytest.mark.parametrize("opp", [False, True])
    @pytest.mark.parametrize("kind,expected,arms", [("H3", D6, [1, 1, 3]), ("H4", E8, [1, 2, 4])])
    def test_h_type_arrows(self, kind, expected, arms, opp):
        spec = standard_folding(kind, opp=opp)
        assert dynkin_arms(expected, spec.S.n) == arms
        assert arrows(spec.S) == ({(j, i) for i, j in expected} if opp else expected)

    @pytest.mark.parametrize("opp", [False, True])
    @pytest.mark.parametrize("n", range(2, 17))
    def test_i_type_is_the_bipartite_path(self, n, opp):
        # A_2n with the even vertices as sources; weight U_min(i, 2n-1-i) at vertex i
        spec = standard_folding("I2", n, opp=opp)
        m = 2 * n + 1
        path = {(i, j) for i in range(0, 2 * n, 2) for j in (i - 1, i + 1) if 0 <= j < 2 * n}
        assert arrows(spec.S) == ({(j, i) for i, j in path} if opp else path)
        for i, w in enumerate(spec.weights):
            k = min(i, 2 * n - 1 - i)
            assert type(w) is AlgReal and w == AlgReal.chebyshev(m, k)
            assert float(w) == pytest.approx(math.sin((k + 1) * math.pi / m) / math.sin(math.pi / m))
        # each block lists its members in U-order
        for block in spec.blocks:
            assert [min(i, 2 * n - 1 - i) for i in block] == list(range(n))


class TestBuildUnfoldedMatrix:
    def test_zero(self):
        zero = AlgReal(5)
        B = ExchangeMatrix(((zero, zero), (zero, zero)))
        assert build_unfolded_matrix(B, 2).entries == ((0,) * 4,) * 4

    def test_i5_matrix(self):
        phi = AlgReal.generator(5)
        zero = AlgReal(5)
        B = ExchangeMatrix(((zero, -phi), (phi, zero)))
        got = build_unfolded_matrix(B, 2)
        # built vertex order is block-contiguous with U_k-ascending members:
        # (0, 2, 3, 1) in the labels of the worked 4x4 unfolding
        spec = standard_folding("I2m", 5)
        perm = (0, 2, 3, 1)
        relabeled = tuple(
            tuple(spec.S.entries[perm[i]][perm[j]] for j in range(4)) for i in range(4)
        )
        assert got.entries == relabeled

    def test_h3_matches_standard(self):
        spec = standard_folding("H3")
        got = build_unfolded_matrix(spec.B, 2)
        order = [i for block in spec.blocks for i in block]
        relabeled = tuple(
            tuple(spec.S.entries[order[i]][order[j]] for j in range(6)) for i in range(6)
        )
        assert got.entries == relabeled
        assert got.is_skew_symmetric()

    def test_unliftable_entry(self):
        two = AlgReal(5, (2,))
        zero = AlgReal(5)
        B = ExchangeMatrix(((zero, two), (-two, zero)))
        with pytest.raises(ValueError):
            build_unfolded_matrix(B, 2)

    def test_conditions_hold_for_built_matrix(self):
        spec = standard_folding("I2", 3)
        S = build_unfolded_matrix(spec.B, 3)
        blocks = ((0, 1, 2), (3, 4, 5))
        weights = tuple(
            AlgReal.chebyshev(7, k) for _ in range(2) for k in range(3)
        )
        assert conditions_hold(S.entries, spec.B, blocks, weights) == []


class TestWeightedUnfoldingWalks:
    @pytest.mark.parametrize("kind,n", [("F4E6", None), ("I2m", 5), ("I2m", 6), ("H3", None)])
    def test_shallow_exhaustive(self, kind, n):
        spec = standard_folding(kind, n)
        report = check_weighted_unfolding(spec, depth=3, random_words=20, random_length=8)
        assert report.passed, (report.failure_word, report.failure_detail)

    def test_i_type_narrow(self):
        spec = standard_folding("I2", 2)
        report = check_weighted_unfolding(spec, depth=5, random_words=30, random_length=12)
        assert report.passed

    def test_explicit_sequences(self):
        spec = standard_folding("H3")
        report = check_weighted_unfolding(spec, sequences=[(), (0, 1, 2, 1, 0), (2, 2)])
        assert report.passed

    def test_reports_name_their_arguments(self):
        # explicit sequences run no tree and no random walks, whatever was asked
        spec = standard_folding("H3")
        for s in (spec, FoldingSpecBrokenWeights(spec)):
            for sequences, ran in ((None, (2, 3, 5)), ([(0, 1), (2,)], (0, 0, 5))):
                report = check_weighted_unfolding(
                    s, sequences=sequences, depth=2, random_words=3, seed=5
                )
                assert (report.depth, report.random_words, report.seed) == ran

    def test_sequences_report_only_the_words_run(self):
        report = check_weighted_unfolding(standard_folding("H3"), sequences=[(0, 1)])
        got = report.to_json()
        # the empty word and the prefixes (0,) and (0, 1)
        assert (got["passed"], got["words_checked"]) == (True, 3)
        assert (got["depth"], got["random_words"], got["seed"]) == (0, 0, 0)

    def test_broken_spec_fails(self):
        spec = standard_folding("I2m", 5)
        bad = FoldingSpecBrokenWeights(spec)
        report = check_weighted_unfolding(bad, depth=2, random_words=0)
        assert not report.passed

    def test_d_F_of_a_basis_vector(self):
        spec = standard_folding("H3")
        # d_F of a standard basis vector picks out the vertex weight
        v = [0] * 6
        v[5] = 1
        assert spec.d_F(tuple(v)) == (AlgReal(5), AlgReal(5), AlgReal.generator(5))

    def test_matrix_d_F_identity(self):
        spec = standard_folding("I2", 3)
        ident = tuple(tuple(1 if i == j else 0 for j in range(6)) for i in range(6))
        got = matrix_d_F(spec, ident)
        one, zero = AlgReal(7, (1,)), AlgReal(7)
        assert got == ((one, zero), (zero, one))

    def test_coeff_d_F_encodes_no_weights(self, monkeypatch):
        # the weights are summed as the spec stores them, with no encoding per call
        spec = standard_folding("H4")
        (w_row,) = coeff_rows((spec.weights,))
        encoded = []
        real = unfolding.coeff_rows
        monkeypatch.setattr(unfolding, "coeff_rows", lambda rows: encoded.append(rows) or real(rows))
        rng = random.Random(4)
        for _ in range(100):
            vector = tuple(rng.randint(-3, 3) for _ in range(spec.S.n))
            got = spec.coeff_d_F(vector)
            assert got == unfolding._block_sums(spec.blocks, w_row, vector)
        assert encoded == []


def sign_flipped_f4e6():
    """F4E6 with the arrow 2 -> 1 of the unfolded quiver made negative."""
    spec = standard_folding("F4E6")
    rows = [list(r) for r in spec.S.entries]
    rows[1][0] = -rows[1][0]
    return replace_spec(spec, S=ExchangeMatrix(rows))


def FoldingSpecBrokenWeights(spec):
    bad_weights = list(spec.weights)
    bad_weights[1] = bad_weights[1] + 1
    return replace_spec(spec, weights=tuple(bad_weights))
