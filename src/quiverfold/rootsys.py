"""Root systems of H3, H4 and I2(m) over Z[2cos(pi/m)], by reflection closure.

Simple roots are the standard basis; the reflection at the i-th simple root
acts on coordinate vectors by s_i(v) = v - (sum_j A_ij v_j) e_i, where
A_ii = 2 and A_ij = -2cos(pi/m_ij); the closure under them is a search on
the mutation-graph explorer (``exchange._Explorer``).  All coordinates are
exact AlgReal values, so root membership is an exact set lookup.

Vertex numbering matches the folded quivers: the edge of order 5 joins the
last two vertices of H3 and H4.
"""

from __future__ import annotations

from functools import cache
from operator import mul as _mul

from .chebring import _coeff_sign, _context, _Frozen, _poly_trim
from .exchange import RingValues, _Explorer, coeff_rows


class RootSet(_Frozen):
    """The roots and the positive roots of a root system, as vectors of ``AlgReal`` values.

    ``keys`` holds the roots as ``coeff_rows`` encodes them.
    """

    __slots__ = _compared = ("type_name", "rank", "roots", "positives", "keys")

    def __init__(self, type_name: str, rank: int, roots: frozenset, positives: frozenset):
        self._fill(type_name, rank, roots, positives, frozenset(coeff_rows(roots)))

    def __reduce__(self):
        return RootSet, (self.type_name, self.rank, self.roots, self.positives)

    def is_root(self, v) -> bool:
        """Exact membership of a vector of ``AlgReal`` values or of coefficient tuples.

        A vector whose first coordinate is a tuple is read as ``coeff_rows``
        encodes one (``AlgReal.coeffs`` per coordinate) and looked up in
        ``keys``; any other vector is looked up in ``roots``.
        """
        v = tuple(v)
        if len(v) != self.rank:
            raise ValueError(f"expected a vector of length {self.rank}")
        return v in (self.keys if type(v[0]) is tuple else self.roots)


def coxeter_matrix(type_name: str) -> tuple[tuple[int, ...], ...]:
    """Edge orders m_ij (diagonal 1, off-diagonal 2 unless an edge exists)."""
    if type_name.startswith("I2(") and type_name.endswith(")"):
        m = int(type_name[3:-1])
        if m < 3:
            raise ValueError("dihedral order must be >= 3")
        return ((1, m), (m, 1))
    if type_name == "H3":
        return ((1, 3, 2), (3, 1, 5), (2, 5, 1))
    if type_name == "H4":
        return (
            (1, 3, 2, 2),
            (3, 1, 3, 2),
            (2, 3, 1, 5),
            (2, 2, 5, 1),
        )
    raise ValueError(f"unknown Coxeter type {type_name!r}")


def _field_order(type_name: str) -> int:
    if type_name.startswith("I2("):
        return int(type_name[3:-1])
    return 5


_EXPECTED_COUNTS = {"H3": 30, "H4": 120}


def generate_roots(type_name: str) -> RootSet:
    """Reflection closure from the simple basis; exact coordinates.

    The closure is the explorer's search (``exchange._Explorer``) from each
    simple root not yet reached (the roots of I2(m) for even m form two
    orbits) on reduced coefficient tuples, as ``coeff_rows`` encodes
    ``AlgReal`` vectors.  A reflection is an involution and a reduced tuple
    is unique, so s_i(s_i v) is v exactly: the explorer records the way
    back, and each pair {v, s_i v} is reflected once.  Each
    Cartan entry A_ij acts on v_j through its multiplication matrix
    (``_RootContext.mul_matrix``), so the pairing sum_j A_ij v_j is one
    integer dot product per entry and coefficient.  Signs come from the
    context's memo, so each distinct coordinate's is decided once, and
    ``roots`` and ``positives`` are decoded to ``AlgReal`` vectors once at
    the end (``RingValues``).
    """
    cox = coxeter_matrix(type_name)
    rank = len(cox)
    m_field = _field_order(type_name)
    ctx = _context(m_field)

    def bond(mij: int):
        if mij == 2:
            return ()
        if mij == 3:
            return (-1,)
        if mij == m_field:
            return (0, -1)
        raise ValueError(f"edge order {mij} not representable in Z[2cos(pi/{m_field})]")

    cartan = [
        [
            (j, ctx.mul_matrix((2,) if i == j else bond(cox[i][j])))
            for j in range(rank)
            if i == j or cox[i][j] != 2
        ]
        for i in range(rank)
    ]

    def reflect(v, i):
        pairing = [0] * ctx.deg
        for j, mul in cartan[i]:
            if v[j]:
                for s, row in enumerate(mul):
                    pairing[s] += sum(map(_mul, row, v[j]))
        coord = list(v[i]) + [0] * (ctx.deg - len(v[i]))
        return v[:i] + (_poly_trim([c - p for c, p in zip(coord, pairing)]),) + v[i + 1:]

    explorer = _Explorer(reflect, parity=False, first_only=False, back=lambda v, i, image: i)
    roots = set()
    for simple in (tuple((1,) if j == i else () for j in range(rank)) for i in range(rank)):
        if simple not in roots:
            roots.update(v for v, _ in explorer.closure(simple, rank))

    positive = [
        v for v in roots
        if all(_coeff_sign(ctx, c) >= 0 for c in v) and any(_coeff_sign(ctx, c) > 0 for c in v)
    ]
    expected = _EXPECTED_COUNTS.get(type_name, 2 * m_field if type_name.startswith("I2(") else None)
    if expected is not None and len(roots) != expected:
        raise AssertionError(f"{type_name}: got {len(roots)} roots, expected {expected}")
    if 2 * len(positive) != len(roots):
        raise AssertionError("roots do not split evenly into positive and negative")
    values = RingValues(m_field)
    return RootSet(
        type_name, rank, frozenset(values.rows(roots)), frozenset(values.rows(positive))
    )


@cache
def root_system(type_name: str) -> RootSet:
    """``generate_roots(type_name)``, generated once per process."""
    return generate_roots(type_name)
