"""``AlgReal`` references, shared by several test files.

The library computes on folded matrices only as coefficient tuples
(``coeff_rows``).  These are the same computations on ``AlgReal`` values,
as the library made them before: mutation by the sign formula, the
determinant by Laplace expansion, the inverse by adjugate, the tropical
walker's step, and d_F on a ``FoldingSpec``.
"""

from quiverfold.chebring import AlgReal
from quiverfold.exchange import RingValues, sgn


def matrix_d_F(spec, rows):
    """d_F of the columns of ``rows`` at the weight-one vertices, as ``AlgReal`` rows.

    ``rows`` is a square integer matrix over the unfolded index set; the
    result is a folded-size matrix (tuple of tuples) whose column j is
    ``spec.d_F`` of the column at block j's weight-one vertex.
    """
    cols = [spec.d_F(tuple(row[r] for row in rows)) for r in spec.weight_one_reps]
    return tuple(zip(*cols))


def mutate_entries(rows, k: int):
    """One mutation step on a tuple-of-tuples matrix of ints and ``AlgReal`` values.

    Rows may outnumber columns (extended matrices); the pivot row ``k`` is
    always read from the top square block.  The correction term is
    sgn(b_ik) * b_ik * b_kj when b_ik and b_kj have equal nonzero signs and
    zero otherwise.  An entry is an ``AlgReal`` exactly when ``AlgReal``
    arithmetic makes it one.
    """
    ncols = len(rows[0])
    if not 0 <= k < ncols:
        raise IndexError(f"mutation index {k} out of range 0..{ncols - 1}")
    out = []
    pivot_row = rows[k]
    pivot_signs = None
    for i, row in enumerate(rows):
        if i == k:
            out.append(tuple(-b for b in row))
            continue
        b_ik = row[k]
        s_ik = sgn(b_ik)
        new_row = list(row)
        new_row[k] = -b_ik
        if s_ik:
            if pivot_signs is None:
                pivot_signs = [sgn(b) for b in pivot_row]
            for j, s_kj in enumerate(pivot_signs):
                if j != k and s_kj == s_ik:
                    new_row[j] = row[j] + s_ik * (b_ik * pivot_row[j])
        out.append(tuple(new_row))
    return tuple(out)


def det_entries(rows):
    """Determinant by Laplace expansion along the first row; entries ints or ``AlgReal`` values."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        entry = rows[0][j]
        if isinstance(entry, int) and entry == 0:
            continue
        if isinstance(entry, AlgReal) and entry.is_zero():
            continue
        minor = tuple(
            tuple(rows[i][jj] for jj in range(n) if jj != j) for i in range(1, n)
        )
        term = entry * det_entries(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        row = rows[0]
        return row[0] - row[0] if not isinstance(row[0], int) else 0
    return acc


def invert_unimodular_entries(rows):
    """Inverse of a square ``AlgReal`` matrix with determinant +-1, by adjugate."""
    n = len(rows)
    det = det_entries(rows)
    m = det.m
    one = AlgReal(m, (1,))
    if det == one:
        sign = 1
    elif det == -one:
        sign = -1
    else:
        raise ArithmeticError("determinant is not a unit")
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(
                tuple(rows[r][c] for c in range(n) if c != i) for r in range(n) if r != j
            )
            cof = det_entries(minor) if n > 1 else one
            if (i + j) % 2:
                cof = -cof
            row.append(cof * sign)
        out.append(tuple(row))
    return tuple(out)


def algreal_pair(walker):
    """A ``TropicalWalker``'s initial (folded, lifted) pair with the folded entries as ``AlgReal`` values."""
    folded, lifted = walker.initial_pair()
    return RingValues(walker.m).rows(folded), lifted


def walker_step(walker, folded, lifted, k: int):
    """A ``TropicalWalker``'s step at letter k on ``AlgReal`` folded rows, by ``mutate_entries``."""
    folded = mutate_entries(folded, k)
    for v in walker.spec.blocks[k]:
        lifted = mutate_entries(lifted, v)
    return folded, lifted
