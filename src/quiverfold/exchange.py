"""Exchange matrices over an ordered ring, R-quivers and mutation.

Entries are either plain integers or ``AlgReal`` values.  Matrices are
immutable: every operation returns a fresh value.  ``mutate_coeffs`` is the
one mutation kernel.  It steps rows whose ``AlgReal`` entries are carried
as coefficient tuples (``coeff_rows``), and every caller computes on that
form: ``ExchangeMatrix.mutate``, the seeds of ``tropical.enumerate_seeds``
and the (folded, lifted) states of both word verifiers, which share one
composite step (``unfolding.pair_step``).  ``RingValues`` decodes the
tuples where a value is needed.  One explorer, ``_Explorer``, memoizes the
transitions of the mutation graph, and its one breadth-first traversal makes
both the word verifiers' tree (``explore_words``) and the seed closure.
"""

from __future__ import annotations

import operator
from types import MappingProxyType

from .chebring import AlgReal, _coeff_sign, _context, _Frozen, json_value


def sgn(x) -> int:
    if isinstance(x, AlgReal):
        return x.sign()
    return (x > 0) - (x < 0)


def _is_zero(x) -> bool:
    return x.is_zero() if isinstance(x, AlgReal) else x == 0


class ExchangeMatrix(_Frozen):
    """Square matrix over Z or Z[2cos(pi/m)] with the mutation operation.

    Skew-symmetry is not enforced at construction (skew-symmetrizable
    matrices such as the F4 one are legal inputs); ``is_skew_symmetric``
    reports it.  Entries over two different fields Z[2cos(pi/m)] are a
    ValueError (``entry_field``).
    """

    __slots__ = ("entries", "n", "ring")

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
        m = entry_field(rows)
        self._fill(rows, n, "Z" if m is None else f"Z[2cos(pi/{m})]")

    def __reduce__(self):
        return ExchangeMatrix, (self.entries,)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, ExchangeMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"ExchangeMatrix({[list(r) for r in self.entries]})"

    def is_skew_symmetric(self) -> bool:
        for i in range(self.n):
            if not _is_zero(self.entries[i][i]):
                return False
            for j in range(i):
                if not _is_zero(self.entries[i][j] + self.entries[j][i]):
                    return False
        return True

    def transpose(self) -> "ExchangeMatrix":
        return ExchangeMatrix(tuple(zip(*self.entries)))

    def __neg__(self) -> "ExchangeMatrix":
        return ExchangeMatrix(tuple(tuple(-x for x in row) for row in self.entries))

    def mutate(self, k: int) -> "ExchangeMatrix":
        """The matrix mutated at ``k``: ``mutate_coeffs`` on ``coeff_rows``, decoded."""
        m = entry_field(self.entries)
        rows = mutate_coeffs(coeff_rows(self.entries), k, m)
        return ExchangeMatrix(rows if m is None else RingValues(m).rows(rows))

    # -- serialization --------------------------------------------------
    def to_json(self):
        return {
            "ring": self.ring,
            "n": self.n,
            "entries": [[json_value(x) for x in row] for row in self.entries],
        }

    @staticmethod
    def from_json(obj) -> "ExchangeMatrix":
        """Decode ``to_json`` output; an object of any other shape is a ValueError."""

        def dec(x):
            if type(x) is int:
                return x
            if (
                isinstance(x, dict)
                and type(x.get("m")) is int
                and isinstance(x.get("coeffs"), list)
                and all(type(c) is int for c in x["coeffs"])
            ):
                return AlgReal.from_json(x)
            raise ValueError(f'entry {x!r} is neither an integer nor {{"m": int, "coeffs": [int]}}')

        rows = obj.get("entries") if isinstance(obj, dict) else None
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError('matrix JSON needs "entries", a list of rows')
        return ExchangeMatrix([[dec(x) for x in row] for row in rows])


def entry_field(rows):
    """The m of the ``AlgReal`` entries of ``rows``, or None if every entry is an int.

    Entries over two different fields Z[2cos(pi/m)] are a ValueError.
    """
    fields = {x.m for row in rows for x in row if isinstance(x, AlgReal)}
    if len(fields) > 1:
        raise ValueError("entries mix fields Z[2cos(pi/m)] of different m")
    return fields.pop() if fields else None


# ---------------------------------------------------------------------------
# rows with coefficient-tuple entries


def coeff_rows(rows):
    """``rows`` with each ``AlgReal`` entry replaced by its coefficient tuple.

    Int entries stay ints, so the result has only ints as leaves and an
    entry's type survives as the difference between an int and a tuple:
    ``AlgReal(m, (1,))`` becomes ``(1,)``, which is not ``1``.
    """
    return tuple(tuple(x.coeffs if isinstance(x, AlgReal) else x for x in row) for row in rows)


class RingValues(dict):
    """Decodes ``coeff_rows`` output back to rows over Z[2cos(pi/m)].

    Maps each coefficient tuple to its ``AlgReal``, made on first use, and
    each int to itself, so every distinct entry is built once.
    """

    def __init__(self, m):
        super().__init__()
        self.m = m

    def __missing__(self, x):
        value = self[x] = x if type(x) is int else AlgReal(self.m, x)
        return value

    def rows(self, rows):
        value = self.__getitem__
        return tuple(tuple(map(value, row)) for row in rows)


def _sign(ctx, x) -> int:
    return (x > 0) - (x < 0) if type(x) is int else _coeff_sign(ctx, x)


def _neg(x):
    return -x if type(x) is int else tuple([-c for c in x])


def _as_coeffs(x):
    return x if type(x) is not int else (x,) if x else ()


def mutate_coeffs(rows, k: int, m=None):
    """One mutation step on rows whose entries are ints or coefficient tuples.

    Rows may outnumber columns (extended matrices, such as a seed's B over
    C); the pivot row ``k`` is read from the top square block.  The halving
    of the classical formula is avoided: b_ij gains sgn(b_ik) b_ik b_kj when
    b_ik and b_kj have equal nonzero signs, row and column k are negated,
    and nothing else changes.  An index outside the columns, as any index
    is for an empty matrix, is an IndexError that names it.

    A tuple entry is the reduced coefficient tuple of an ``AlgReal`` over
    Z[2cos(pi/m)] (``AlgReal.coeffs``, as ``coeff_rows`` makes it).  A result
    entry is an int exactly when every value it is computed from is an int,
    as in ``AlgReal`` arithmetic: an ``AlgReal`` plus an int is an
    ``AlgReal``.  A row whose entry in column k is zero is returned as it
    is.  With ``m`` None every entry must be an int, and ``_mutate_ints``
    takes the step.

    Over Z[2cos(pi/m)] the step works as ``_mutate_ints`` does, on b_ij +=
    b_ik * |b_kj| where sgn b_kj = sgn b_ik.  At the first row that needs
    them, the pivot row's columns j != k are split into positive and
    negative ones (``_pivot_columns``), so a row takes one sign, and each of
    its updates is one lookup of (b_ij, b_ik, |b_kj|) in the context's
    ``updates`` memo.  Negations are looked up in its ``negations``.  Signs,
    splits, updates and negations all come from the per-m memos of
    chebring's ``_RootContext``, so each distinct one is computed once per
    field.
    """
    ncols = len(rows[0]) if rows else 0
    if not 0 <= k < ncols:
        span = f"0..{ncols - 1}" if ncols else "(the matrix is empty)"
        raise IndexError(f"mutation index {k} out of range {span}")
    pivot_row = rows[k]
    if m is None:
        return _mutate_ints(rows, k, pivot_row)
    ctx = _context(m)
    updates, negations = ctx.updates, ctx.negations
    columns = None
    out = []
    for i, row in enumerate(rows):
        if i == k:
            out.append(tuple(map(negations.__getitem__, row)))
            continue
        b_ik = row[k]
        if not b_ik:  # 0 or (): negating it changes nothing
            out.append(row)
            continue
        if columns is None:
            columns = _pivot_columns(ctx, pivot_row, k)
        new_row = list(row)
        new_row[k] = negations[b_ik]
        for j, b in columns[_sign(ctx, b_ik) < 0]:
            new_row[j] = updates[row[j], b_ik, b]
        out.append(tuple(new_row))
    return tuple(out)


def _pivot_columns(ctx, pivot_row, k: int):
    """The columns j != k of the pivot row with b_kj > 0 and with b_kj < 0, each as (j, |b_kj|).

    |b_kj| keeps the representation of b_kj, an int or a coefficient tuple.
    With a context the split is memoized in its ``pivots`` under
    (pivot_row, k), so ``mutate_coeffs`` and ``tropical._mutate_g`` split
    each pivot row once per field.  With ``ctx`` None every entry must be
    an int.
    """
    if ctx is not None:
        split = ctx.pivots.get((pivot_row, k))
        if split is not None:
            return split
    pos, neg = [], []
    for j, b in enumerate(pivot_row):
        s = _sign(ctx, b)
        if s and j != k:
            (pos if s > 0 else neg).append((j, b if s > 0 else _neg(b)))
    split = (tuple(pos), tuple(neg))
    if ctx is not None:
        ctx.pivots[pivot_row, k] = split
    return split


def _mutate_ints(rows, k: int, pivot_row):
    """``mutate_coeffs`` on int rows: b_ij += b_ik * |b_kj| where sgn b_kj = sgn b_ik.

    The columns j != k with b_kj > 0 and with b_kj < 0 are collected once,
    each with |b_kj|, so a row needs neither a sign call nor a type check.
    """
    pos = [(j, b) for j, b in enumerate(pivot_row) if b > 0 and j != k]
    neg = [(j, -b) for j, b in enumerate(pivot_row) if b < 0 and j != k]
    out = []
    for i, row in enumerate(rows):
        if i == k:
            out.append(tuple([-b for b in row]))
            continue
        b_ik = row[k]
        if not b_ik:
            out.append(row)
            continue
        new_row = list(row)
        new_row[k] = -b_ik
        for j, b in pos if b_ik > 0 else neg:
            new_row[j] += b_ik * b
        out.append(tuple(new_row))
    return tuple(out)


class Exploration:
    """What one ``explore_words`` call did.

    ``failures`` lists (word, detail) pairs in the order they were found;
    ``states`` counts the distinct states among the checked words.
    """

    def __init__(self, words: int, states: int, failures: list):
        self.words = words
        self.states = states
        self.failures = failures


class _Explorer:
    """The memo tables and tallies of one ``explore_words`` or ``tropical.enumerate_seeds`` call."""

    def __init__(self, step, parity: bool, first_only: bool, involutive):
        self.step = step
        self.involutive = involutive
        self.parity = parity
        self.first_only = first_only
        self.states = {}    # state -> the one interned equal state
        self.edges = {}     # (id(state), k) -> interned state
        self.verdicts = {}  # (id(state), check, parity) -> failure details
        self.seen = set()
        self.failures = []
        self.words = 0

    def intern(self, state):
        return self.states.setdefault(state, state)

    def move(self, state, k):
        key = (id(state), k)
        nxt = self.edges.get(key)
        if nxt is None:
            nxt = self.edges[key] = self.intern(self.step(state, k))
            if self.involutive is not None and self.involutive(nxt, k):
                self.edges.setdefault((id(nxt), k), state)
        return nxt

    def closure(self, start, letters: int, depth=None):
        """Yield (state, word) for each key within ``depth`` steps of ``start``, breadth first.

        A key is a state with, when ``parity`` is set, its word length mod 2.
        Each key is yielded once, as soon as ``move`` first reaches it from
        the earliest key and least letter, so its word is its
        length-lex-least word and the keys come in the length-lex order of
        those words.  A consumer that stops at a key leaves the rest
        unexpanded; with ``depth`` None the search runs until no new key
        appears.
        """
        start = self.intern(start)
        joined = {(id(start), 0)}
        queue = [(start, ())]
        yield queue[0]
        for state, word in queue:
            if len(word) == depth:
                return
            odd = self.parity and (len(word) + 1) % 2
            for k in range(letters):
                nxt = self.move(state, k)
                key = (id(nxt), odd)
                if key not in joined:
                    joined.add(key)
                    queue.append((nxt, word + (k,)))
                    yield queue[-1]

    def visit(self, state, word, check):
        """Check ``state`` at ``word`` once per key, record its failures and return them."""
        self.seen.add(id(state))
        key = (id(state), check, self.parity and len(word) % 2)
        details = self.verdicts.get(key)
        if details is None:
            details = tuple(check(state, word, lambda k: self.move(state, k)))
            self.verdicts[key] = details
        if details:
            self.failures.extend((word, d) for d in details)
        return details

    def walk(self, start, word, check, end_check):
        state = start
        for pos, k in enumerate(word):
            state = self.move(state, k)
            self.words += 1
            if self.visit(state, word[: pos + 1], check) and self.first_only:
                return
        if end_check is not None:
            self.visit(state, word, end_check)


def _words_through(word, letters: int) -> int:
    """The number of words over ``letters`` letters up to ``word`` in length-lex order, ``word`` too."""
    rank = 0
    for k in word:
        rank = rank * letters + k
    return sum(letters**i for i in range(len(word))) + rank + 1


def explore_words(
    start,
    step,
    letters: int,
    check,
    depth: int = 0,
    walks=(),
    *,
    walk_check=None,
    end_check=None,
    parity: bool = False,
    first_only: bool = False,
    involutive=None,
) -> Exploration:
    """Check mutation words from ``start``, doing each distinct piece of work once.

    A state is a tuple of matrices (tuples of rows of ring entries), and
    ``step(state, k)`` returns the state mutated at letter ``k``.  The words
    checked are, in order: every word of length 0..depth in length-lex
    order (the tree), then every prefix of each word of ``walks`` (an
    iterable of tuples, consumed lazily).  ``check`` runs at the tree
    words, ``walk_check`` (default ``check``) at the walk prefixes, and
    ``end_check`` once more at the end of each walk, without counting as a
    word.

    A check is called as ``check(state, word, neighbour)`` and returns a
    tuple of failure details.  It must depend on the word only through
    ``len(word) % 2``, and only when ``parity`` is set; ``neighbour(k)`` is
    the memoized ``step(state, k)``.  Then the result for a word is a
    function of the key (state, check, parity), so each key is checked once
    and a repeat replays the recorded details with the current word.  The
    tree is the breadth-first search over (state, parity) keys cut at
    ``depth`` (``_Explorer.closure``): each key is checked once, at its
    length-lex-least word, so every word of length <= d passes exactly when
    every key reachable in <= d steps passes, and the tree costs its
    distinct keys, not its m^d words.  On a pass ``words`` counts all
    sum_{i<=d} m^i tree words; the tree stops at the first failing key,
    whose word is the length-lex-first failing word, a shortest one, and
    ``words`` counts the tree words up to it in length-lex order.

    Transitions (state, k) -> state are memoized, and each new state is
    interned once, by value: a state equal to one already met is replaced
    by that one, so memory grows with the distinct states and not with the
    words.  States are compared with ``==`` alone, so entries of different
    types that compare equal, such as ``AlgReal(m, (1,))`` and ``1``, must
    be told apart by the states themselves.  The two word verifiers do that
    by carrying every ring entry as its coefficient tuple (``coeff_rows``),
    stepping with ``mutate_coeffs``, and deciding their checks on the
    tuples.  All tables live for this call.

    ``involutive(state, k)``, when given, is asked about each newly stepped
    state Y = step(X, k).  When it holds, step(Y, k) must be X exactly,
    equal as a representation, and the explorer records the transition
    (Y, k) -> X without computing it.  Mutation is an involution, mu_k mu_k
    = id (Fomin-Zelevinsky, *Cluster algebras I*, 2002), so a verifier can
    decide this on Y alone (``unfolding.steps_back_exactly``); without the
    predicate both directions of every edge are computed.

    After a failure no new walk starts; with ``first_only`` a walk also
    stops at its first failing prefix.  A ``depth`` that is not an int is a
    TypeError and a negative one a ValueError.
    """
    depth = operator.index(depth)
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    explorer = _Explorer(step, parity, first_only, involutive)
    last = (letters - 1,) * depth
    for state, word in explorer.closure(start, letters, depth):
        if explorer.visit(state, word, check):
            last = word
            break
    explorer.words = _words_through(last, letters)
    start = explorer.intern(start)
    for word in walks:
        if explorer.failures:
            break
        explorer.walk(start, word, walk_check or check, end_check)
    return Exploration(explorer.words, len(explorer.seen), explorer.failures)


# ---------------------------------------------------------------------------
# R-quivers


class RQuiver(_Frozen):
    """Quiver with strictly positive arrow weights, no loops or 2-cycles.

    ``arrows`` maps (source, target) to the weight; both ends must be among
    ``vertices``.  Optional vertex weights make it a vertex-weighted quiver.
    Both mappings are read-only copies of the ones passed in, and ``hash``
    reads their items.
    """

    __slots__ = _compared = ("vertices", "arrows", "vertex_weights")

    def __init__(self, vertices, arrows, vertex_weights=None):
        vertices, arrows = tuple(vertices), dict(arrows)
        declared = set(vertices)
        for (i, j), w in arrows.items():
            if i == j:
                raise ValueError("loops are not allowed")
            if (j, i) in arrows:
                raise ValueError("2-cycles are not allowed")
            if i not in declared or j not in declared:
                raise ValueError(f"arrow {i!r} -> {j!r} has an end that is not a vertex")
            if sgn(w) <= 0:
                raise ValueError("arrow weights must be strictly positive")
        self._fill(vertices, MappingProxyType(arrows), MappingProxyType(dict(vertex_weights or {})))

    def __reduce__(self):
        return RQuiver, (self.vertices, dict(self.arrows), dict(self.vertex_weights))

    def __hash__(self):
        return hash(
            (self.vertices, frozenset(self.arrows.items()), frozenset(self.vertex_weights.items()))
        )


def to_quiver(matrix: ExchangeMatrix, vertices=None) -> RQuiver:
    if not matrix.is_skew_symmetric():
        raise ValueError("only skew-symmetric matrices correspond to R-quivers")
    vertices = tuple(vertices) if vertices is not None else tuple(range(matrix.n))
    arrows = {}
    for i in range(matrix.n):
        for j in range(matrix.n):
            if sgn(matrix.entries[i][j]) > 0:
                arrows[(vertices[i], vertices[j])] = matrix.entries[i][j]
    return RQuiver(vertices, arrows)


def from_quiver(quiver: RQuiver) -> ExchangeMatrix:
    index = {v: i for i, v in enumerate(quiver.vertices)}
    n = len(quiver.vertices)
    m = entry_field((quiver.arrows.values(),))
    zero = 0 if m is None else AlgReal(m)
    rows = [[zero] * n for _ in range(n)]
    for (i, j), w in quiver.arrows.items():
        rows[index[i]][index[j]] = w
        rows[index[j]][index[i]] = -w
    return ExchangeMatrix(tuple(tuple(r) for r in rows))


def quiver_dot(quiver: RQuiver, name="quiver") -> str:
    """DOT text with arrow-weight labels (and vertex weights when present)."""
    lines = [f"digraph {name} {{"]
    for v in quiver.vertices:
        vw = quiver.vertex_weights.get(v)
        label = f"{v}" if vw is None else f"{v} [w={_fmt(vw)}]"
        lines.append(f'  "{v}" [label="{label}"];')
    for (i, j), w in sorted(quiver.arrows.items(), key=lambda kv: (str(kv[0]),)):
        lines.append(f'  "{i}" -> "{j}" [label="{_fmt(w)}"];')
    lines.append("}")
    return "\n".join(lines)


def _fmt(x):
    if isinstance(x, AlgReal):
        return f"{float(x):.6g}"
    return str(x)
