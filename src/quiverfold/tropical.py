"""Tropical y-seed patterns: C-matrices, G-matrices and their folding.

A seed is an exchange matrix stacked over a coefficient square; mutation
acts on the stacked matrix by the usual rule, and the seed's g-vectors are
stepped beside it by their own mutation rule (``_mutate_g``), so the
G-matrix (C^T)^{-1} is carried, never inverted.  For folded types the seed
lives over Z[2cos(pi/m)] and every invariant here is exact: c-vectors are
tested for exact root membership, and the compatibility between a folded
walk and its composite-mutation lift is checked entry by entry through the
weighted projection d_F.  ``enumerate_seeds`` is the breadth-first closure
of the seed pattern on the word verifiers' explorer (``exchange._Explorer``).

Folded matrices are computed on only as reduced coefficient tuples
(``exchange.coeff_rows``): a ``Seed`` holds its stacked rows and g-vectors
that way and steps them with ``exchange.mutate_coeffs`` and ``_mutate_g``,
the walker's states carry them that way, and one ``RingValues`` memo per
seed pattern makes ``AlgReal`` values of them only for output (``Seed.B``,
``Seed.C``, ``g_matrix``).  Lifted matrices are ints.  d_F of an integer
matrix needs no reduction.  The product ``mat_mul`` and the determinant
``det_laplace(rows, m)`` add each term acc <- acc + x * y by one lookup
in the field's multiply-add memo, the one mutation reads
(``chebring._RootContext.updates``).  Two values are equal exactly when
their tuples are.

The cube check decides d_F(G_lifted) = G_folded by a certificate: the
lifted G is the exact integer inverse of C_lifted^T, and
C_folded^T d_F(G_lifted) = I proves that d_F(G_lifted) is the inverse of
C_folded^T.  On a correct folding the certificate holds by the C/G duality
(Nakanishi-Zelevinsky 2012, Thm 1.2).  d_F reads only the weight-one
columns of G_lifted, so only those are solved for (``invert_integer`` with
those columns: fraction-free Gauss-Jordan against the unit vectors that
pick them, on positive pivots); a singular or non-unimodular C_lifted
raises as the whole inverse would.  A failed certificate is a ``dF(G)-mismatch`` and needs no
inverse; only det C_folded is taken, to raise when it is not a unit.

``verify_cube``'s explorer computes each edge of the exchange graph once.
Its step is the unfolding verifier's (``unfolding.pair_step``): at letter
k it mutates the lifted seed at each vertex of block k and the folded one
at k, an involution.  When that block is pairwise non-adjacent in the
stepped lifted matrix, its mutations commute, so the composite is an
involution too; the folded rows are all coefficient tuples, so stepping
back reproduces the state exactly, and the explorer records the way back
without computing it (``unfolding.steps_back_exactly``).

The dets check takes det_x over the Chebyshev ring on the elements'
coefficient tuples (``det_cheb``), and makes a ``ChebElem`` of a result
only the first time the walker meets it, for ``sigma`` and the unit test.
``det_cheb`` and ``det_laplace`` are one Laplace expansion (``_laplace``)
over two multiply-add memos of one kind (``chebring._multiply_add``): the
field's, and the Chebyshev ring's (``chebring._cheb_memos``).

A walk meets the same few c-vectors and lifted columns at every step (in
finite type the c-vectors are roots, Nakanishi-Zelevinsky 2012), so each
walker keeps its verdicts for its whole life, in ``chebring.Memo`` tables,
each entry computed from its key on first read:
``root_verdicts`` (is a root, is sign-coherent) of each folded c-vector,
``d_F_columns`` of each lifted integer column, ``projected_C`` d_F(C_l)
of each lifted C part, for the dF(C) comparison and the mutation squares,
``block_verdicts`` on each lifted C-block (its ring element or None,
sign-coherent, equal to rho of that element), ``column_verdicts`` on each
lifted column block (the lifted C columns at one block's vertices: its
blocks' verdicts in row order and, when every one is clean, its column of
elements), and ``det_verdicts`` (sigma(det_x), whether det_x is +-1) for
each lifted determinant det_x.  On the H4 tree to depth 4 that is 36
column blocks, 7 blocks and 2 determinants.  Each entry is a function of
its key alone, so a walker's tables equal a fresh walker's; signs come
from chebring's per-m sign memo.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, islice
from operator import add, itemgetter, mul as _mul

from .chebring import (
    ChebElem, Memo, _cheb_memos, _coeff_sign, _context, _Frozen, _pivot_split, _sign, json_value,
    rho, sigma,
)
from .exchange import (
    ExchangeMatrix, RingValues, _as_coeffs, _Explorer, coeff_rows, explore_words, mutate_coeffs,
)
from .repcat import folded_type_name
from .rootsys import root_system
from .unfolding import FoldingSpec, pair_step, seeded_words, steps_back_exactly


class Seed(_Frozen):
    """Tropical y-seed: an exchange matrix B stacked over a coefficient matrix C, the g-vectors and a word.

    ``rows`` are the stacked rows, over Z with every entry an int (``m``
    None) or over Z[2cos(pi/m)] with every entry a reduced coefficient
    tuple.  Each value has one such form, so ``==`` and ``hash`` read
    ``rows`` and ``m`` alone.  ``g`` holds the g-vectors, a function of C,
    in the same form: the rows of C^{-1}, stepped by ``_mutate_g``.  ``B``,
    ``C``, ``c_vectors`` and ``g_matrix`` decode on read through
    ``values``, the seed pattern's one ``RingValues`` memo (None over Z).
    """

    __slots__ = ("rows", "m", "word", "g", "values")
    _compared = ("rows", "m")

    def __init__(
        self, rows: tuple, m: int | None, word: tuple, g: tuple, values: Memo | None
    ):
        self._fill(rows, m, word, g, values)

    @staticmethod
    def initial(B: ExchangeMatrix) -> "Seed":
        """B over the identity C, in the ring of B's ``AlgReal`` entries (``ExchangeMatrix.m``)."""
        m = B.m
        rows = coeff_rows(B.entries)
        one, zero = 1, 0
        if m is not None:
            rows = tuple(tuple(map(_as_coeffs, row)) for row in rows)
            one, zero = (1,), ()
        C = tuple(tuple(one if i == j else zero for j in range(B.n)) for i in range(B.n))
        return Seed(rows + C, m, (), C, None if m is None else RingValues(m))

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def _values(self, rows):
        return rows if self.values is None else self.values.rows(rows)

    @property
    def B(self) -> ExchangeMatrix:
        return ExchangeMatrix(self._values(self.rows[: self.n]))

    @property
    def C(self) -> tuple:
        return self._values(self.rows[self.n:])

    def mutate(self, k: int) -> "Seed":
        rows, m = self.rows, self.m
        return Seed(
            mutate_coeffs(rows, k, m), m, self.word + (k,), _mutate_g(self.g, rows, k, m), self.values
        )

    def c_vectors(self) -> tuple:
        return transpose(self.C)

    def to_json(self):
        return {
            "B": self.B.to_json(),
            "C": [[json_value(x) for x in row] for row in self.C],
            "word": list(self.word),
        }


def _mutate_g(g, rows, k: int, m):
    """The g-vectors ``g`` of the seed with stacked rows ``rows`` (B over C), after mutation at k.

    With eps the sign of c-vector k and b_kj row k of B before the step,
    mutation takes a sign-coherent c_k to C E_k, where E_k is the identity
    with row k replaced by [eps b_kj]_+ at j != k and -1 at k.  E_k^2 = I,
    so C^{-1} goes to E_k C^{-1}: g'_k = -g_k + sum_{j != k} [eps b_kj]_+ g_j,
    over the pivot columns of sign eps (``chebring._pivot_split``).  Over
    Z[2cos(pi/m)] that split is read from the context's ``pivots`` memo,
    where ``mutate_coeffs`` has just put it in ``Seed.mutate``, and each
    coordinate is summed term by term through its ``updates`` memo, as
    ``mutate_coeffs`` sums an entry.  The step back finds -eps and -b_kj,
    the same terms, and restores g_k exactly.  A c-vector k of mixed signs
    is an ``ArithmeticError``.
    """
    n = len(g)
    ctx = None if m is None else _context(m)
    signs = {_sign(ctx, row[k]) for row in rows[n:]}
    if {1, -1} <= signs:
        raise ArithmeticError(f"c-vector {k} is not sign-coherent")
    key = (rows[k], k)
    terms = (_pivot_split(None, key) if ctx is None else ctx.pivots[key])[-1 in signs]
    if m is None:
        new = [-x for x in g[k]]
        for j, b in terms:
            new = [x + b * y for x, y in zip(new, g[j])]
    else:
        updates, new = ctx.updates, []
        for t, x in enumerate(g[k]):
            acc = ctx.negations[x]
            for j, b in terms:
                acc = updates[acc, g[j][t], b]
            new.append(acc)
    return g[:k] + (tuple(new),) + g[k + 1:]


class GMatrix(_Frozen):
    __slots__ = _compared = ("entries", "word")

    def __init__(self, entries: tuple, word: tuple = ()):
        self._fill(entries, word)


def g_matrix(seed: Seed) -> GMatrix:
    """G = (C^T)^{-1}, exactly: the seed's g-vectors as columns.

    Nothing is inverted: the seed carries them (``_mutate_g``).  For a
    skew-symmetric B, as for every kind ``tropical enumerate`` takes, this
    is the seed pattern's G-matrix (Nakanishi-Zelevinsky 2012, Thm 1.2).
    For a skew-symmetrizable B with D B skew-symmetric the G-matrix is
    D^{-1} (C^T)^{-1} D, with G^T D C = D: on F4E6, D = diag(2, 2, 1, 1),
    and the two differ on 356 of the 420 seeds.
    """
    return GMatrix(seed._values(transpose(seed.g)), seed.word)


def transpose(rows):
    return tuple(zip(*rows))


def mat_mul(a, b, m: int):
    """a * b over Z[2cos(pi/m)], every entry a reduced coefficient tuple.

    Each entry starts from () and adds its nonzero terms acc <- acc + x * y,
    each one lookup in the field's ``updates`` memo.
    """
    updates = _context(m).updates
    cols = tuple(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = ()
            for x, y in zip(row, col):
                if x and y:
                    acc = updates[acc, x, y]
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def det_laplace(rows, m: int):
    """Determinant over Z[2cos(pi/m)], every entry a reduced coefficient tuple.

    Laplace expansion (``_laplace``) through the field's ``updates`` and
    ``negations`` memos.
    """
    ctx = _context(m)
    return _laplace(rows, ctx.updates, ctx.negations)


def det_cheb(rows, n: int) -> tuple[int, ...]:
    """Determinant over the rank-n Chebyshev ring, every entry a ``ChebElem.coeffs`` tuple.

    Laplace expansion (``_laplace``) through the ring's multiply-add and
    negation memos (``chebring._cheb_memos``), whose products are
    ``cheb_mul`` on the coefficient tuples.
    """
    det = _laplace(rows, *_cheb_memos(n))
    return tuple(det) + (0,) * (n - len(det))


def _laplace(rows, updates, negations):
    """The determinant of a square matrix of coefficient tuples, by expansion along the first row.

    The minor on rows r, r+1, ... and the column indices ``cols`` is
    expanded along row r; no minor is built as a matrix.  Each term
    entry * minor is added by one lookup in ``updates``, a multiply-add memo
    (acc, x, y) -> acc + x * y, the entry negated through ``negations`` at
    an odd position of ``cols``.  Zero entries are skipped, and the 1x1
    minors of a 2x2 are read off.
    """
    last = len(rows) - 1

    def expand(r, cols):
        row = rows[r]
        if r == last:
            return row[cols[0]]
        acc = ()
        for pos, j in enumerate(cols):
            entry = row[j]
            if any(entry):
                if r + 1 == last:
                    minor = rows[last][cols[1 - pos]]
                else:
                    minor = expand(r + 1, cols[:pos] + cols[pos + 1:])
                acc = updates[acc, negations[entry] if pos % 2 else entry, minor]
        return acc

    return expand(0, tuple(range(len(rows))))


def invert_integer(rows, columns):
    """The given columns of the exact inverse of an integer matrix; entries must come out integral.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968) on [A | E], where
    E holds the unit vectors e_c for c in ``columns`` (``range(n)`` gives
    E = I).  The pivot of column k is a +-1 among the rows not yet pivoted
    if there is one, else the smallest nonzero entry, and a negative pivot
    row is negated first, so every pivot is positive.  Every entry after the
    step on column k is a (k+1)-minor of the augmented matrix with its rows
    permuted and some of them negated, so each division by the previous
    pivot is exact, and a row whose entry in column k is 0 is left as it is
    when the pivot and the previous pivot are both 1.  At the end the left
    half is d*I with d = |det A| and the right half is d times the wanted
    columns of A^{-1}, which are integral exactly when d = 1.  The result
    is the rows of those columns side by side: A^{-1} itself for
    ``range(n)``.  Whichever columns are asked for, a singular A raises
    "matrix is singular" and d != 1 "inverse is not integral"
    (``ArithmeticError``).
    """
    n = len(rows)
    columns = tuple(columns)
    aug = [list(rows[i]) + [int(i == c) for c in columns] for i in range(n)]
    prev = 1
    for col in range(n):
        pivot, size = None, 0
        for r in range(col, n):
            v = abs(aug[r][col])
            if v and (pivot is None or v < size):
                pivot, size = r, v
                if v == 1:
                    break
        if pivot is None:
            raise ArithmeticError("matrix is singular")
        prow = aug[pivot]
        if prow[col] < 0:
            prow = [-x for x in prow]
        aug[pivot] = aug[col]
        aug[col] = prow
        pv = prow[col]
        for r in range(n):
            f = aug[r][col]
            if r != col and (f or pv != prev):
                aug[r] = [(pv * x - f * y) // prev for x, y in zip(aug[r], prow)]
        prev = pv
    if prev != 1:
        raise ArithmeticError("inverse is not integral")
    return tuple(tuple(aug[i][n:]) for i in range(n))


# ---------------------------------------------------------------------------
# folded walks and the compatibility checks


class WalkReport:
    def __init__(self, passed: bool, vertices_checked: int, failures: list, seed, states: int):
        self.passed = passed
        self.vertices_checked = vertices_checked
        self.failures = failures
        self.seed = seed
        # distinct (folded, lifted) pairs among the checked words; not in to_json
        self.states = states

    def to_json(self):
        return {
            "passed": self.passed,
            "vertices_checked": self.vertices_checked,
            "failures": [repr(f) for f in self.failures[:20]],
            "seed": self.seed,
        }


CHECKS = ("cube", "blocks", "roots", "dets")
_ROOTS_ONLY = frozenset(("roots",))  # a random walk's check after each step


def check_set(checks) -> frozenset:
    """The named checks; each must be one of ``CHECKS``, and at least one is."""
    names = frozenset(checks)
    if not names or not names <= set(CHECKS):
        raise ValueError(f"checks must be a nonempty subset of {CHECKS}, got {tuple(checks)!r}")
    return names


class TropicalWalker:
    """Drives a folded seed and its composite-mutation lift from one word.

    ``basis_commutes`` is the commutation certificate that the blocks check
    reads (``_basis_recurrence_holds``); when it fails, blocks are
    multiplied pairwise (``_commute``).
    """

    def __init__(self, spec: FoldingSpec, checks=CHECKS):
        if spec.n is None:
            raise ValueError("tropical walks need a Chebyshev folding")
        self.spec = spec
        self.n = spec.n
        self.m = spec.m
        self.mprime = spec.B.n
        self.nverts = spec.S.n
        self.roots = root_system(folded_type_name(spec))
        self.checks = check_set(checks)
        self.identity = tuple(
            tuple((1,) if i == j else () for j in range(self.mprime)) for i in range(self.mprime)
        )
        self.basis_commutes = _basis_recurrence_holds(self.n)
        # each block's vertices, picked out of a lifted C column or out of C_l^T
        self._block_vertices = tuple(itemgetter(*b) for b in spec.blocks)
        self._reps = spec.weight_one_reps  # the only columns of a lifted matrix that d_F reads
        self.root_verdicts = Memo(self._root_verdict)
        self.d_F_columns = Memo(spec.coeff_d_F)  # lifted integer column -> its d_F
        self.projected_C = Memo(self._project_C)
        self.block_verdicts = Memo(self._block_verdict)
        self.column_verdicts = Memo(self._column_verdict)
        self.det_verdicts = Memo(self._det_verdict)

    # stacked matrices: folded (2m' x m') of coefficient tuples, lifted (2N x N) of ints
    def initial_pair(self):
        return Seed.initial(self.spec.B).rows, Seed.initial(self.spec.S).rows

    # -- the verdicts, one table each -------------------------------------
    def block_element(self, block) -> ChebElem | None:
        """The ring element r with rho(r) equal to the block, if any."""
        r = ChebElem(self.n, tuple(block[a][0] for a in range(self.n)))
        return r if rho(r) == tuple(tuple(row) for row in block) else None

    def _root_verdict(self, col):
        """(is a root, is sign-coherent) of a folded c-vector."""
        ctx = _context(self.m)
        signs = {_coeff_sign(ctx, c) for c in col}
        return self.roots.is_root(col), not {1, -1} <= signs

    def _d_F(self, cols):
        """The rows of the matrix whose column j is d_F of the integer column ``cols[j]``."""
        return transpose(map(self.d_F_columns.__getitem__, cols))

    def _project_C(self, C_l):
        """d_F(C_l) of a lifted C part: d_F of its columns at the blocks' weight-one vertices."""
        cols = transpose(C_l)
        return self._d_F([cols[r] for r in self._reps])

    def _block_verdict(self, block):
        """(its element r or None, sign-coherent, rho(r) == block) of a lifted C-block.

        The last is decided by ``rho`` itself, whatever ``block_element``
        answers, since the commutation certificate rests on it.
        """
        r = self.block_element(block)
        return (None, False, False) if r is None else (r, r.sign_coherent(), rho(r) == block)

    def _column_verdict(self, cols):
        """The verdicts on the C-blocks of lifted column block j, given by its C columns.

        ``cols`` are the lifted C columns at block j's vertices.  The entry
        holds, for each block row i in order, block (i, j) and its
        ``_block_verdict``; then, when every block of the column is clean
        (regular, sign-coherent and rho of its element), the column of the
        elements' coefficient tuples, else None.
        """
        rows = []
        for pick in self._block_vertices:
            block = tuple(zip(*map(pick, cols)))
            rows.append((block, *self.block_verdicts[block]))
        clean = all(r is not None and coherent and is_rho for _, r, coherent, is_rho in rows)
        return tuple(rows), tuple(r.coeffs for _, r, _, _ in rows) if clean else None

    def _det_verdict(self, det):
        """(sigma(det_x).coeffs, det_x is +-1) of det_x given by its ``det_cheb`` tuple."""
        det_x, unit = ChebElem(self.n, det), ChebElem.one(self.n)
        return sigma(det_x).coeffs, det_x == unit or det_x == -unit

    def check_vertex(self, folded, lifted, word, failures, neighbour=None, only=None):
        """Append to ``failures`` a record ``(word, name, ...)`` per failed check.

        The pair is in the form ``initial_pair`` and the explorer's states
        carry: the folded rows as reduced coefficient tuples, the lifted
        rows as ints, and every check computes on them.  The cube check
        solves only for the weight-one columns of G_l, the ones d_F reads
        (``invert_integer`` on positive pivots).  Its sub-check
        ``dF(G)-mismatch`` passes on the certificate C_f^T d_F(G_l) = I: a
        square matrix with a one-sided inverse over a domain has that
        inverse, so d_F(G_l) = G_f.  A failed certificate fails the
        sub-check without an inverse, and det C_f other than +-1 raises
        "determinant is not a unit" (``ArithmeticError``), as inverting
        C_f^T would.  A certified C_f whose determinant is a unit other than
        +-1 passes here; the ``dets`` check is the one that reports it.
        The square ``dF-mutation-square`` at k is the k-neighbour's own
        ``dF(C)-mismatch`` comparison: both compare the ``projected_C`` of
        a lifted C part with its folded C part.

        Every verdict is read from the walker's tables, each entry decided once
        per walker: the roots check's per folded c-vector, d_F per lifted
        column, d_F(C_l) per lifted C part, and the blocks' ``block_element``,
        ``sign_coherent`` and comparison of rho of the element with the block
        per distinct block.  C_l is transposed once per check, for
        ``invert_integer`` and for the blocks: a state reads its blocks'
        verdicts one lifted column block at a time (``column_verdicts``, keyed
        by the C_l columns at one block's vertices).  Blocks commute without a
        product when the walker's ``basis_commutes`` certificate holds and every
        block of the state equals rho of its element: rho is linear and the
        product bilinear, so rho(r) rho(s) - rho(s) rho(r) is an integer
        combination of the basis commutators rho(theta_a) rho(theta_b) -
        rho(theta_b) rho(theta_a), which all vanish.  When that holds and every
        block is sign-coherent as well, the lifted elements are the column
        blocks' element columns side by side.  Any other state reads its blocks
        in row-major order and records each failing one, up to the first that is
        not a regular representation, where the check stops;
        ``blocks-do-not-commute`` is then decided on pairs of distinct blocks,
        and the records name every index pair that fails, in index order.  The
        dets check reads sigma(det_x) and whether det_x is +-1 from
        ``det_verdicts``.

        ``only`` narrows the walker's checks.  ``neighbour`` is a function
        ``k -> (folded, lifted)`` that supplies the neighbour pairs of the
        mutation squares, such as the memoized transitions of
        ``verify_cube``; without it the check steps to them by ``pair_step``.
        """
        m = self.m
        checks = self.checks if only is None else (self.checks & only)
        mprime, nverts = self.mprime, self.nverts
        C_f = folded[mprime:]
        C_l = lifted[nverts:]
        cols_l = transpose(C_l) if checks != _ROOTS_ONLY else ()  # the lifted c-vectors

        if "roots" in checks:
            for j, col in enumerate(zip(*C_f)):
                is_root, coherent = self.root_verdicts[col]
                if not is_root:
                    failures.append((word, "c-vector-not-root", j))
                if not coherent:
                    failures.append((word, "c-vector-not-sign-coherent", j))

        if "cube" in checks:
            projected = self.projected_C
            if projected[C_l] != C_f:
                failures.append((word, "dF(C)-mismatch"))
            X = self._d_F(transpose(invert_integer(cols_l, self._reps)))
            # C_f^T X = I certifies X = (C_f^T)^{-1} = G_f; otherwise X is not
            # the inverse, which exists exactly when det C_f is a unit
            if mat_mul(transpose(C_f), X, m) != self.identity:
                if det_laplace(C_f, m) not in ((1,), (-1,)):
                    raise ArithmeticError("determinant is not a unit")
                failures.append((word, "dF(G)-mismatch"))
            if neighbour is None:
                neighbour = partial(pair_step, self.spec.blocks, m, (folded, lifted))
            for k in range(mprime):
                nf, nl = neighbour(k)
                if projected[nl[nverts:]] != nf[mprime:]:
                    failures.append((word, "dF-mutation-square", k))

        if "blocks" in checks or "dets" in checks:
            columns = [self.column_verdicts[pick(cols_l)] for pick in self._block_vertices]
            clean = [column[1] for column in columns]
            if self.basis_commutes and None not in clean:
                elements = tuple(zip(*clean))
            else:
                elements = []
                blocks = []
                certified = self.basis_commutes
                for bi in range(mprime):
                    row = []
                    for bj, (verdicts, _) in enumerate(columns):
                        blk, r, coherent, is_rho = verdicts[bi]
                        if r is None:
                            failures.append((word, "block-not-regular-rep", bi, bj))
                            return
                        if not coherent:
                            failures.append((word, "block-coefficients-mixed-sign", bi, bj))
                        certified = certified and is_rho
                        row.append(r.coeffs)
                        blocks.append(blk)
                    elements.append(tuple(row))
                if "blocks" in checks and not certified and not all(
                    _commute(x, y) for x, y in combinations(dict.fromkeys(blocks), 2)
                ):
                    for a in range(len(blocks)):
                        for b in range(a + 1, len(blocks)):
                            if not _commute(blocks[a], blocks[b]):
                                failures.append((word, "blocks-do-not-commute", a, b))
                                break
            if "dets" in checks:
                det_f = det_laplace(C_f, m)
                if det_f != ((1,) if len(word) % 2 == 0 else (-1,)):
                    failures.append((word, "folded-determinant", len(word)))
                sigma_x, is_unit = self.det_verdicts[det_cheb(elements, self.n)]
                if sigma_x != det_f:
                    failures.append((word, "determinant-sigma-mismatch"))
                if not is_unit:
                    failures.append((word, "lifted-determinant-not-unit"))

    # -- drivers --------------------------------------------------------------
    def verify_cube(
        self,
        depth: int = 6,
        random_words: int = 0,
        random_length: int = 30,
        seed: int = 0,
    ) -> WalkReport:
        """Run every check on all words of length <= depth, then random walks.

        Each random walk runs the roots check after every step and all the
        checks once at its end.  The words of length <= depth stop at the
        first failing one in length-lex order, a shortest one, with all its
        failures recorded; after a failure no new walk starts.  A ``depth``
        that is not an int is a TypeError; a negative depth,
        ``random_words`` or ``random_length`` is a ValueError.

        Words versus states: every check is a function of the (folded,
        lifted) pair and, for ``dets``, of the parity of the word length.
        The words of length <= depth are checked as the breadth-first
        search over (pair, parity) keys cut at ``depth`` (``explore_words``),
        each (pair, check, parity) once, and a walk that meets one again
        reuses its failures with its own word.  So "every word of length <=
        depth passes" is the same statement as "every pair reachable in <=
        depth steps passes".
        ``vertices_checked`` still counts words; ``states`` counts pairs.

        The explorer's states are the pairs of ``initial_pair``, stepped by
        ``unfolding.pair_step``: the folded entries as coefficient tuples,
        the lifted ones as ints.  Each check hands ``check_vertex`` the
        state and the explorer's memoized transitions for its mutation
        squares; the walker's ``projected_C`` decides d_F(C_l) once per
        lifted C part, for a state's own check and for every square that
        lands on it.
        """

        def checker(only):
            def check(state, word, neighbour):
                found = []
                self.check_vertex(*state, word, found, neighbour, only)
                return tuple(f[1:] for f in found)

            return check

        full, roots = checker(None), checker(_ROOTS_ONLY)
        blocks = self.spec.blocks
        result = explore_words(
            self.initial_pair(), partial(pair_step, blocks, self.m), self.mprime, full, depth,
            seeded_words(self.mprime, random_words, random_length, seed),
            walk_check=roots, end_check=full, parity=True,
            back=lambda state, k, nxt: k if steps_back_exactly(blocks, self.m, nxt, k) else None,
        )
        failures = [_failure(word, detail) for word, detail in result.failures]
        return WalkReport(not failures, result.words, failures, seed, result.states)


def _failure(word, detail):
    """A check_vertex failure record for ``word``.

    The determinant record names the word length, which the memo key keeps
    only modulo 2, so it is rebuilt from the word.
    """
    if detail[0] == "folded-determinant":
        return (word, detail[0], len(word))
    return (word,) + detail


def _basis_recurrence_holds(n: int) -> bool:
    """The commutation certificate: whether rho's basis images are polynomials in rho(theta_1).

    It holds when rho(theta_0) = I and rho(theta_{a+1}) = rho(theta_1)
    rho(theta_a) - rho(theta_{a-1}) for 1 <= a <= n-2, the product rule
    theta_1 theta_a = theta_{a-1} + theta_{a+1}.  Then every rho(theta_a)
    is an integer polynomial in rho(theta_1), so the images commute
    pairwise; n-2 integer products decide it.
    """
    basis = [rho(ChebElem.theta(n, a)) for a in range(n)]
    if basis[0] != tuple(tuple(int(i == j) for j in range(n)) for i in range(n)):
        return False
    for a in range(1, n - 1):
        expected = tuple(tuple(map(add, lo, hi)) for lo, hi in zip(basis[a - 1], basis[a + 1]))
        if _mat_mul_int(basis[1], basis[a]) != expected:
            return False
    return True


def _commute(a, b) -> bool:
    return _mat_mul_int(a, b) == _mat_mul_int(b, a)


def _mat_mul_int(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(_mul, row, col)) for col in cols) for row in a)


# ---------------------------------------------------------------------------
# seed enumeration


class EnumerationResult:
    def __init__(self, seeds: list, complete: bool, cap: int):
        self.seeds = seeds
        self.complete = complete
        self.cap = cap

    @property
    def count(self) -> int:
        return len(self.seeds)


def enumerate_seeds(B: ExchangeMatrix, cap: int = 20000) -> EnumerationResult:
    """BFS over distinct seeds on the mutation-graph explorer (``_Explorer.closure``).

    Seeds are interned by their stacked rows.  A seed's step at k is exactly
    involutive (``Seed.mutate``: the rows have one representation, and
    ``_mutate_g`` restores g_k), so each edge is computed once and its way
    back is recorded.  Each seed keeps the word of the path that first
    reached it.  A new seed met with ``cap`` seeds found stops the search,
    and the result reads ``complete`` False.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    explorer = _Explorer(Seed.mutate, parity=False, first_only=False, back=lambda seed, k, nxt: k)
    seeds = [seed for seed, _ in islice(explorer.closure(Seed.initial(B), B.n), cap + 1)]
    return EnumerationResult(seeds[:cap], len(seeds) <= cap, cap)
