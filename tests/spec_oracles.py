"""``AlgReal`` references on a ``FoldingSpec``, shared by several test files."""


def matrix_d_F(spec, rows):
    """d_F of the columns of ``rows`` at the weight-one vertices, as ``AlgReal`` rows.

    ``rows`` is a square integer matrix over the unfolded index set; the
    result is a folded-size matrix (tuple of tuples) whose column j is
    ``spec.d_F`` of the column at block j's weight-one vertex.
    """
    cols = [spec.d_F(tuple(row[r] for row in rows)) for r in spec.weight_one_reps]
    return tuple(zip(*cols))
