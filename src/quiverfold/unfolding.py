"""Weighted unfoldings and foldings of weighted quivers.

A ``FoldingSpec`` packages an integer exchange matrix S (the unfolded
quiver), a folded exchange matrix B over Z[2cos(pi/m)] (or over Z for the
integer demo), the block partition E_j of the unfolded vertex set, and the
positive vertex weights.  The defining property is checked exactly: for
every block pair, the weighted column sums of S must reproduce the folded
entries, the entries of each block must be one-signed as dictated by the
folded entry, and this must persist along arbitrary words of composite
mutations.  Both word verifiers, ``check_weighted_unfolding`` and
``tropical.TropicalWalker.verify_cube``, step a (folded, lifted) pair by
the one composite mutation ``pair_step``: the lifted rows at each vertex
of block k, then the folded rows at k.

In a Chebyshev folding (H3, H4, I2(2n+1)) a member's position in its block
*is* its Chebyshev index, which nothing else records: member a of every
block carries weight U_a = sigma(theta_a), and the (i, j) block of S, read
in the members' order, is the regular-representation matrix of the lifted
entry b_ij (``_lift_blocks``).
"""

from __future__ import annotations

import random
from functools import partial
from itertools import chain
from operator import index, itemgetter

from .chebring import (
    AlgReal, ChebElem, _context, _Frozen, _poly_trim, _reduce_mod, json_value, rho,
)
from .exchange import (
    ExchangeMatrix, RingValues, _as_coeffs, _sign, coeff_rows, entry_field, explore_words,
    mutate_coeffs,
)


class FoldingSpec(_Frozen):
    """A weighted folding F : unfolded quiver -> folded quiver."""

    __slots__ = _compared = (
        "kind", "S", "B", "blocks", "weights", "labels", "folded_labels", "n",
    )

    def __init__(
        self,
        kind: str,
        S: ExchangeMatrix,
        B: ExchangeMatrix,
        blocks: tuple,            # blocks[j] = unfolded indices of folded vertex j, U_a-ordered
        weights: tuple,           # weights[i] for each unfolded vertex (AlgReal or int)
        labels: tuple = (),       # display labels for unfolded vertices
        folded_labels: tuple = (),
        n: int | None = None,     # Chebyshev rank (None for the integer demo)
    ):
        self._fill(kind, S, B, blocks, weights, labels, folded_labels, n)

    @property
    def m(self) -> int | None:
        """B's ring Z[2cos(pi/m)], or None over Z (``entry_field``)."""
        return entry_field(self.B.entries)

    @property
    def weight_one_reps(self) -> tuple:
        """The U_0-weighted member of each block."""
        return tuple(block[0] for block in self.blocks)

    def d_F(self, vector):
        """Weighted block sums of an integer vector over the unfolded vertices."""
        if len(vector) != self.S.n:
            raise ValueError("vector length must match the unfolded vertex count")
        if not isinstance(self.weights[0], AlgReal) or not all(isinstance(x, int) for x in vector):
            return tuple(sum(self.weights[i] * vector[i] for i in block) for block in self.blocks)
        m = self.weights[0].m
        return tuple(AlgReal(m, coeffs) for coeffs in self.coeff_d_F(vector))

    def coeff_d_F(self, vector):
        """``d_F`` of an integer vector as reduced coefficient tuples, one per block.

        The weights must be ``AlgReal`` values.  Each block sum adds integer
        multiples of the weights' reduced coefficient tuples, so it is
        reduced already and only trimmed: the tuple that ``coeff_rows``
        makes of the ``AlgReal`` sum.
        """
        out = []
        for block in self.blocks:
            acc = []
            for i in block:
                x = vector[i]
                if x:
                    coeffs = self.weights[i].coeffs
                    acc.extend([0] * (len(coeffs) - len(acc)))
                    for k, c in enumerate(coeffs):
                        acc[k] += x * c
            out.append(_poly_trim(acc))
        return tuple(out)

    def to_json(self):
        return {
            "kind": self.kind,
            "n": self.n,
            "m": self.m,
            "S": self.S.to_json(),
            "B": self.B.to_json(),
            "blocks": [list(b) for b in self.blocks],
            "weights": [json_value(w) for w in self.weights],
            "labels": list(self.labels),
            "folded_labels": list(self.folded_labels),
        }


# ---------------------------------------------------------------------------
# the composite step of a (folded, lifted) pair


def pair_step(blocks, m, state, k: int):
    """The (folded, lifted) pair ``state`` mutated at letter k.

    The lifted rows, all ints, are mutated at each vertex of ``blocks[k]``
    in turn, then the folded rows at k by ``mutate_coeffs(..., m)``.  Both
    word verifiers step their states with it, bound to a spec's blocks and
    the ring of its folded matrix (``partial(pair_step, spec.blocks, m)``).
    """
    folded, lifted = state
    for v in blocks[k]:
        lifted = mutate_coeffs(lifted, v)
    return mutate_coeffs(folded, k, m), lifted


def steps_back_exactly(blocks, m, state, k: int) -> bool:
    """Whether ``pair_step`` at k, taken again at ``state``, returns the state it came from.

    ``state`` is a (folded, lifted) pair just after a step at k.  One
    mutation is an involution in value: the pivot row is negated twice, and
    b_ij gains b_ik |b_kj| and then b'_ik |b'_kj| = -b_ik |b_kj|.  The step
    is its own inverse, as a representation, when:

    * the vertices of ``blocks[k]`` are pairwise non-adjacent in the lifted
      rows (b_vw = b_wv = 0).  Mutation at v then changes neither row nor
      column w and keeps the block non-adjacent, so the block's mutations
      commute at every intermediate state;
    * the folded rows are all coefficient tuples, or all ints with ``m``
      None.  ``mutate_coeffs`` keeps such rows in their representation,
      which is unique per value; in mixed rows an int can come back as an
      equal tuple.
    """
    folded, lifted = state
    block = blocks[k]
    if any(lifted[v][w] for v in block for w in block if v != w):
        return False
    kinds = set(map(type, chain.from_iterable(folded)))
    return kinds == {tuple} or (m is None and kinds == {int})


def seeded_words(letters: int, count: int, length: int, seed):
    """``count`` words of ``length`` letters below ``letters``, drawn lazily from ``Random(seed)``.

    A ``count`` or ``length`` that is not an int is a TypeError and a
    negative one a ValueError, raised at the call.
    """
    for name, value in (("random_words", count), ("random_length", length)):
        if index(value) < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    rng = random.Random(seed)
    return (tuple(rng.randrange(letters) for _ in range(length)) for _ in range(count))


# ---------------------------------------------------------------------------
# the unfolding conditions


class ConditionReport:
    def __init__(self, passed: bool, failures: list, checked_pairs: int):
        self.passed = passed
        self.failures = failures
        self.checked_pairs = checked_pairs


def conditions_hold(S_rows, B: ExchangeMatrix, blocks, weights, memo=None) -> list:
    """Every failure of conditions (1) and (2) for (S, B), in block order.

    A record is a dict: ``{"block", "kind": "sign", "entry", "actual"}``
    for an entry of S whose sign disagrees with the folded entry, or
    ``{"block", "kind": "column-sum", "column", "actual", "expected"}``.
    Column sums are compared in the cleared-denominator form
    sum_k w_k s_kl == b_ij * w_l, which is the condition on W S W^-1 scaled
    by the (positive) column weight.  An empty list means both hold.

    The work goes column by column.  With blocks and weights fixed, the
    records of column l depend only on l, column l of S and column F(l) of
    B, where F(l) is the block holding l.  S and B are transposed once, and
    ``memo``, a dict that a caller may keep across calls with the same
    blocks (which must partition the vertices) and weights, holds each
    column's records under (l, S column, B column); only the columns
    missing from it are computed (``_column_records``).  The records are
    then sorted back into block order: by (i, j, position of l in block j),
    the sign records of a column sum before its own record.

    The arithmetic runs on reduced coefficient tuples: B and the weights
    are encoded once with ``coeff_rows``, a column sum adds integer
    multiples of weight tuples (reduced already), and b_ij * w_l is one
    polynomial product, reduced only when its degree overflows.  Int entries
    and weights count as constant tuples, so values are compared, not
    representations.  A failure record decodes its values: an ``AlgReal``
    when an operand was one, an int otherwise, and ``0 * b_ij`` for an
    empty sum.  Weights and B over two different fields are a ValueError.
    """
    m = entry_field((*B.entries, weights))
    if memo is None:
        memo = {}
    (w_row,) = coeff_rows((weights,))
    S_cols = tuple(zip(*S_rows))
    B_cols = tuple(zip(*coeff_rows(B.entries)))
    found = []
    for bj, block_j in enumerate(blocks):
        b_col = B_cols[bj]
        for pos, l in enumerate(block_j):
            s_col = S_cols[l]
            records = memo.get((l, s_col, b_col))
            if records is None:
                records = memo[l, s_col, b_col] = _column_records(
                    l, bj, s_col, b_col, blocks, w_row, m
                )
            if records:
                found.extend(((bi, bj, pos), record) for bi, record in records)
    if not found:
        return []
    found.sort(key=itemgetter(0))
    return [dict(record) for _, record in found]


def _column_records(l, bj, s_col, b_col, blocks, w_row, m) -> tuple:
    """The (i, record) pairs of column l, which lies in block j, for i = 0, 1, ... in turn."""
    ctx = None if m is None else _context(m)
    width = 1 if ctx is None else ctx.deg
    w_l = w_row[l]
    out = []
    for bi, block_i in enumerate(blocks):
        b = b_col[bi]
        b_nonneg = not b or _sign(ctx, b) > 0
        acc = None  # the column sum, made at its first nonzero term
        for k in block_i:
            s_kl = s_col[k]
            if s_kl:
                if s_kl < 0 and b_nonneg:
                    out.append(
                        (bi, {"block": (bi, bj), "kind": "sign", "entry": (k, l), "actual": s_kl})
                    )
                if acc is None:
                    acc = [0] * width
                w = w_row[k]
                if type(w) is int:
                    acc[0] += s_kl * w
                else:
                    for i, c in enumerate(w):
                        acc[i] += s_kl * c
        if not b:
            if acc is None or not any(acc):
                continue
            rhs = [0] * width
        else:
            b_coeffs, w = _as_coeffs(b), _as_coeffs(w_l)
            rhs = [0] * (2 * width - 1)
            for i, x in enumerate(b_coeffs):
                for j, y in enumerate(w):
                    rhs[i + j] += x * y
            if len(b_coeffs) + len(w) - 1 > width:
                rhs = list(_reduce_mod(ctx, rhs))
            else:
                del rhs[width:]
            if acc is None:
                acc = [0] * width
        if acc != rhs:
            terms = [k for k in block_i if s_col[k]]
            lhs_alg = any(type(w_row[k]) is tuple for k in terms) or (
                not terms and type(b) is tuple
            )
            rhs_alg = type(b) is tuple or type(w_l) is tuple
            out.append(
                (bi, {
                    "block": (bi, bj),
                    "kind": "column-sum",
                    "column": l,
                    "actual": _decode(m, acc, lhs_alg),
                    "expected": _decode(m, rhs, rhs_alg),
                })
            )
    return tuple(out)


def _decode(m, coeffs, algebraic):
    """The value of a coefficient list: an ``AlgReal`` if ``algebraic``, else an int."""
    if algebraic:
        return AlgReal(m, coeffs)
    return coeffs[0]


def check_conditions(S, B: ExchangeMatrix, blocks, weights) -> ConditionReport:
    """Full report on conditions (1) and (2) for the pair (S, B)."""
    rows = S.entries if isinstance(S, ExchangeMatrix) else S
    nverts = len(rows)
    if any(i >= nverts for block in blocks for i in block):
        raise ValueError("block indices exceed the matrix size")
    if sorted(i for b in blocks for i in b) != list(range(nverts)):
        raise ValueError("blocks must partition the unfolded index set")
    if len(weights) != nverts:
        raise ValueError("need one weight per unfolded vertex")
    if len(blocks) != B.n:
        raise ValueError("need one block per folded vertex")
    failures = conditions_hold(rows, B, blocks, weights)
    return ConditionReport(not failures, failures, len(blocks) ** 2)


class UnfoldingReport:
    def __init__(
        self, passed: bool, words_checked: int, failure_word, failure_detail, depth: int,
        random_words: int, seed, states: int,
    ):
        self.passed = passed
        self.words_checked = words_checked
        self.failure_word = failure_word
        self.failure_detail = failure_detail
        self.depth = depth
        self.random_words = random_words
        self.seed = seed
        # distinct (S, B) pairs among the checked words; not in to_json
        self.states = states

    def to_json(self):
        detail = self.failure_detail and {
            key: list(value) if isinstance(value, tuple) else json_value(value)
            for key, value in self.failure_detail.items()
        }
        return {
            "passed": self.passed,
            "words_checked": self.words_checked,
            "word": list(self.failure_word) if self.failure_word is not None else None,
            "failure": detail,
            "depth": self.depth,
            "random_words": self.random_words,
            "seed": self.seed,
        }


def check_weighted_unfolding(
    spec: FoldingSpec,
    sequences=None,
    depth: int = 6,
    random_words: int = 200,
    random_length: int = 20,
    seed: int = 0,
) -> UnfoldingReport:
    """Verify the defining property of a weighted unfolding along mutation words.

    With ``sequences`` given, exactly those words are checked, and the
    report reads depth 0 and no random words.  Otherwise all
    words of length <= depth are checked exhaustively, in length-lex order,
    plus ``random_words`` seeded random words of length ``random_length``.
    Evidence is depth-bounded: the definition quantifies over all words,
    which no finite run certifies.  A ``depth`` that is not an int is a
    TypeError; a negative depth, ``random_words`` or ``random_length`` is a
    ValueError.

    Words versus states: the conditions are a function of the mutated pair
    (S, B) alone, and in finite type many words reach the same pair.  The
    words of length <= depth are checked as the breadth-first search over
    pairs cut at ``depth`` (``explore_words``): each distinct pair is
    checked once, at its length-lex-least word, and a walk that meets it
    again reuses its verdict.  So "every word of length <= depth passes" is
    the same statement as "every pair reachable in <= depth steps passes".
    ``words_checked`` still counts words; ``states`` counts distinct pairs.
    On a failure, ``failure_word`` is the first failing word and
    ``failure_detail`` its first ``conditions_hold`` record; a failing word
    of the tree is the length-lex-first one, so a shortest one.

    The explorer's states are (B, S) pairs with the entries of B as
    coefficient tuples (``coeff_rows``), stepped by the composite step that
    the tropical walker takes too (``pair_step``).  A step whose block is
    pairwise non-adjacent in the stepped S, with B in one entry
    representation, is its own inverse (``steps_back_exactly``), so the
    explorer records the way back without computing it.  Each check decodes
    B into an ``ExchangeMatrix`` (``RingValues``, one value per distinct
    entry), the form the benchmark tracer's ``conditions_hold`` probe reads,
    and ``conditions_hold`` computes on them as coefficient tuples again.
    It keeps one column memo for the whole call, so each distinct (column l,
    column l of S, column F(l) of B) is decided once, however many pairs
    share it.
    """
    m = spec.m
    values = RingValues(m)
    columns = {}  # conditions_hold's column memo, for this call's blocks and weights

    def check(state, word, neighbour):
        B_rows, S_rows = state
        B = ExchangeMatrix(values.rows(B_rows))
        return conditions_hold(S_rows, B, spec.blocks, spec.weights, columns)

    if sequences is not None:
        depth = random_words = 0
        walks = (tuple(word) for word in sequences)
    else:
        walks = seeded_words(spec.B.n, random_words, random_length, seed)
    run = explore_words(
        (coeff_rows(spec.B.entries), spec.S.entries),
        partial(pair_step, spec.blocks, m),
        spec.B.n,
        check,
        depth=depth,
        walks=walks,
        first_only=True,
        involutive=partial(steps_back_exactly, spec.blocks, m),
    )
    word, detail = run.failures[0] if run.failures else (None, None)
    return UnfoldingReport(
        not run.failures, run.words, word, detail, depth, random_words, seed, run.states
    )


# ---------------------------------------------------------------------------
# standard foldings


def standard_folding(kind: str, n: int | None = None, opp: bool = False) -> FoldingSpec:
    """The foldings used throughout: H3, H4, I2 (odd, full categorical data),
    I2m (any dihedral order, unfolding data only) and the integer demo F4E6.
    """
    if kind == "H3":
        return _h_type_folding(3, opp)
    if kind == "H4":
        return _h_type_folding(4, opp)
    if kind == "I2":
        if n is None or n < 2:
            raise ValueError("I2 foldings need the rank parameter n >= 2 (type I2(2n+1))")
        return _i_type_folding(n, opp)
    if kind == "I2m":
        if n is None or n < 3:
            raise ValueError("I2m unfoldings need the dihedral order m >= 3")
        return _dihedral_unfolding(n, opp)
    if kind == "F4E6":
        return _f4_e6_demo(opp)
    raise ValueError(f"unknown folding kind {kind!r}")


def _h_type_folding(rank: int, opp: bool) -> FoldingSpec:
    """D6 -> H3 or E8 -> H4 with linear folded orientation [1] -> ... -> [rank].

    B is the path with weight 1 edges and a phi edge at the end; folded
    vertex j unfolds to the pair (j, pj) of weights (1, phi).
    """
    one, phi, zero = AlgReal(5, (1,)), AlgReal.generator(5), AlgReal(5)
    rows = [[zero] * rank for _ in range(rank)]
    for j in range(rank - 1):
        w = phi if j == rank - 2 else one
        rows[j][j + 1], rows[j + 1][j] = w, -w
    return _chebyshev_folding(
        f"H{rank}", ExchangeMatrix(rows), 2, opp,
        blocks=tuple((2 * j, 2 * j + 1) for j in range(rank)),
        labels=tuple(x for j in range(1, rank + 1) for x in (f"{j}", f"p{j}")),
        folded_labels=tuple(f"[{j}]" for j in range(1, rank + 1)),
    )


def _i_type_folding(n: int, opp: bool) -> FoldingSpec:
    """Bipartite A_{2n} -> I2(2n+1): even vertices are sources, vertex i weighs U_min(i, 2n-1-i).

    The two blocks, the even and the odd vertices, are sorted by that index.
    """
    m = 2 * n + 1
    gen, zero = AlgReal.generator(m), AlgReal(m)
    return _chebyshev_folding(
        f"I2({m})", ExchangeMatrix(((zero, gen), (-gen, zero))), n, opp,
        blocks=tuple(
            tuple(sorted(range(p, 2 * n, 2), key=lambda i: min(i, 2 * n - 1 - i))) for p in (0, 1)
        ),
        labels=tuple(map(str, range(2 * n))),
        folded_labels=("[0]", "[1]"),
    )


def _chebyshev_folding(kind, B, n, opp, blocks, labels, folded_labels) -> FoldingSpec:
    """The folding of B (or -B) over Z[2cos(pi/(2n+1))] with U-ordered ``blocks``.

    S places the regular representation of each lifted entry at its blocks
    (``_lift_blocks``), and member a of every block has weight U_a.
    """
    if opp:
        B = -B
    U = [AlgReal.chebyshev(2 * n + 1, a) for a in range(n)]
    weights = [None] * (n * B.n)
    for block in blocks:
        for v, w in zip(block, U):
            weights[v] = w
    return FoldingSpec(
        kind, _lift_blocks(B, n, blocks), B, blocks, tuple(weights), labels, folded_labels, n
    )


def _dihedral_unfolding(m: int, opp: bool) -> FoldingSpec:
    """A_{m-1} unfolding of the I2(m) matrix, any m >= 3 (unfolding data only).

    Uses the alternating orientation of the worked examples (odd vertices are
    sources in zero-based labels), with weights U_i(cos pi/m).
    """
    nverts = m - 1
    Srows = [[0] * nverts for _ in range(nverts)]
    for i in range(1, nverts, 2):
        for j in (i - 1, i + 1):
            if 0 <= j < nverts:
                Srows[i][j] = 1
                Srows[j][i] = -1
    S = ExchangeMatrix(tuple(tuple(r) for r in Srows))
    gen = AlgReal.generator(m)
    zero = AlgReal(m)
    B = ExchangeMatrix(((zero, -gen), (gen, zero)))
    evens = tuple(range(0, nverts, 2))
    odds = tuple(range(1, nverts, 2))
    weights = tuple(AlgReal.chebyshev(m, i) for i in range(nverts))
    return FoldingSpec(
        kind=f"I2({m})-unfolding",
        S=-S if opp else S,
        B=-B if opp else B,
        blocks=(evens, odds),
        weights=weights,
        labels=tuple(str(i) for i in range(nverts)),
        folded_labels=("[0]", "[1]"),
        n=None,
    )


def _f4_e6_demo(opp: bool) -> FoldingSpec:
    B = ExchangeMatrix(
        [
            (0, -1, 0, 0),
            (1, 0, -1, 0),
            (0, 2, 0, -1),
            (0, 0, 1, 0),
        ]
    )
    S = ExchangeMatrix(
        [
            (0, -1, 0, 0, 0, 0),
            (1, 0, -1, -1, 0, 0),
            (0, 1, 0, 0, -1, 0),
            (0, 1, 0, 0, 0, -1),
            (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0),
        ]
    )
    return FoldingSpec(
        kind="F4E6",
        S=-S if opp else S,
        B=-B if opp else B,
        blocks=((0,), (1,), (2, 3), (4, 5)),
        weights=(1, 1, 1, 1, 1, 1),
        labels=tuple(str(i + 1) for i in range(6)),
        folded_labels=tuple(f"[{j + 1}]" for j in range(4)),
    )


def build_unfolded_matrix(B: ExchangeMatrix, n: int) -> ExchangeMatrix:
    """Assemble the integer unfolding of B by regular-representation blocks.

    Every entry of B must be 0, +-1 or +-2cos(pi/(2n+1)); the (i, j) block of
    the result, at rows and columns n*i .. n*i + n - 1 and n*j .. n*j + n - 1,
    is the n x n matrix of multiplication by the lifted entry.
    """
    return _lift_blocks(B, n, tuple(tuple(range(j * n, j * n + n)) for j in range(B.n)))


def _lift_blocks(B: ExchangeMatrix, n: int, blocks) -> ExchangeMatrix:
    """The integer unfolding of B with S[blocks[i][a]][blocks[j][b]] = rho(lift(b_ij))[a][b].

    Each entry b_ij must be 0, +-1 or +-2cos(pi/(2n+1)), which lift to 0,
    +-theta_0 and +-theta_1 in the rank-n Chebyshev ring.
    """
    m = 2 * n + 1
    lifts = {
        AlgReal(m): ChebElem.zero(n),
        AlgReal(m, (1,)): ChebElem.one(n),
        AlgReal(m, (-1,)): -ChebElem.one(n),
        AlgReal.generator(m): ChebElem.theta(n, 1),
        -AlgReal.generator(m): -ChebElem.theta(n, 1),
    }
    nverts = n * B.n
    rows = [[0] * nverts for _ in range(nverts)]
    for block_i, row in zip(blocks, B.entries):
        for block_j, entry in zip(blocks, row):
            if isinstance(entry, int):
                entry = AlgReal(m, (entry,))
            lift = lifts.get(entry)
            if lift is None:
                raise ValueError(f"entry {entry!r} is not liftable to {{0, +-1, +-theta_1}}")
            for v, rho_row in zip(block_i, rho(lift)):
                for w, x in zip(block_j, rho_row):
                    rows[v][w] = x
    out = ExchangeMatrix(rows)
    if not out.is_skew_symmetric():
        raise ValueError("lifted matrix is not skew-symmetric; B was not skew-symmetric")
    return out
