"""Root systems of H3, H4 and I2(m) over Z[2cos(pi/m)], by reflection closure.

Simple roots are the standard basis; the reflection at the i-th simple root
acts on coordinate vectors by s_i(v) = v - (sum_j A_ij v_j) e_i, where
A_ii = 2 and A_ij = -2cos(pi/m_ij).  All coordinates are exact AlgReal
values, so root membership is an exact set lookup.

Vertex numbering matches the folded quivers: the edge of order 5 joins the
last two vertices of H3 and H4.
"""

from __future__ import annotations

import math
from operator import mul as _mul

from .chebring import AlgReal, _coeff_sign, _context, _Frozen, _poly_trim, _width
from .exchange import RingValues, coeff_rows


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

    The closure runs on reduced coefficient tuples, as ``coeff_rows``
    encodes ``AlgReal`` vectors.  Each Cartan entry A_ij acts on v_j through
    its multiplication matrix (``_RootContext.mul_matrix``), so the pairing
    sum_j A_ij v_j is one integer dot product per entry and coefficient.
    Signs come from the context's memo, so each distinct coordinate's is
    decided once, and ``roots`` and ``positives`` are decoded to
    ``AlgReal`` vectors once at the end (``RingValues``).
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

    simples = [tuple((1,) if j == i else () for j in range(rank)) for i in range(rank)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for v in frontier:
            for i in range(rank):
                pairing = [0] * ctx.deg
                for j, mul in cartan[i]:
                    if v[j]:
                        for s, row in enumerate(mul):
                            pairing[s] += sum(map(_mul, row, v[j]))
                coord = list(v[i]) + [0] * (ctx.deg - len(v[i]))
                coord = _poly_trim([c - p for c, p in zip(coord, pairing)])
                image = v[:i] + (coord,) + v[i + 1:]
                if image not in roots:
                    roots.add(image)
                    new.append(image)
        frontier = new

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


_ROOT_CACHE: dict[str, RootSet] = {}


def root_system(type_name: str) -> RootSet:
    rs = _ROOT_CACHE.get(type_name)
    if rs is None:
        rs = generate_roots(type_name)
        _ROOT_CACHE[type_name] = rs
    return rs


# ---------------------------------------------------------------------------
# Euclidean embedding for the dihedral types


def _sqrt_bound(num: int, den: int, scale: int, up: int) -> tuple[int, int]:
    """sqrt(num/den), num >= 0 < den, rounded down (up = 0) or up (up = 1) to a multiple
    of 1/(d * scale), d the reduced denominator of num/den; as (numerator, denominator)."""
    k = math.gcd(num, den)
    num, den = num // k, den // k
    return math.isqrt(num * den * scale * scale) + up, den * scale


def _embedding(v, n: int, num: int, den: int):
    """``e_F`` on integers: ((xlo, xhi, xscale), (ylo, yhi, yscale)) for the width num/den."""
    m = 2 * n + 1
    ctx, g = _context(m), AlgReal.generator(m)
    v0, v1 = (AlgReal(m, (x,)) if isinstance(x, int) else x for x in v)
    # x = v0 - v1 * g / 2, computed as (2 v0 - v1 g) / 2 exactly
    xlo, xhi, xscale = ctx.enclosure((2 * v0 - v1 * g).coeffs, num, den)

    # y = v1 * sin theta; the enclosures of g, v1 and the square root are
    # tightened together until the product is narrow enough
    tol, scale = 4 * den, 10**15  # the tolerance is num / tol
    while True:
        g_lo, g_hi, g_scale = ctx.enclosure(g.coeffs, num, tol)
        # sin^2 theta = 1 - (g/2)^2 lies in [quad - g_hi^2, quad - g_lo^2] / quad,
        # a negative lower end read as 0
        quad = 4 * g_scale * g_scale
        (s_lo, d_lo), (s_hi, d_hi) = (
            _sqrt_bound(max(quad - b * b, 0), quad, scale, up) for b, up in ((g_hi, 0), (g_lo, 1))
        )
        s_lo, s_hi = s_lo * d_hi, s_hi * d_lo  # over d_lo * d_hi
        v1_lo, v1_hi, v1_scale = ctx.enclosure(v1.coeffs, num, tol)
        cands = (v1_lo * s_lo, v1_lo * s_hi, v1_hi * s_lo, v1_hi * s_hi)
        y_lo, y_hi, y_scale = min(cands), max(cands), v1_scale * d_lo * d_hi
        if (y_hi - y_lo) * den <= num * y_scale:
            return (xlo, xhi, 2 * xscale), (y_lo, y_hi, y_scale)
        tol, scale = tol * 16, scale * 16


def e_F(v, n: int, width=None):
    """Change of basis from simple-root coordinates of I2(2n+1) to R^2.

    e_F(1, 0) = (1, 0) and e_F(0, 1) = (cos 2n theta, sin 2n theta) with
    theta = pi/(2n+1); extended linearly.  Returns a pair of rational
    intervals ((xlo, xhi), (ylo, yhi)) of ``Fraction``s, of width at most
    ``width`` (default 10^-12); a width that is not positive is a
    ``ValueError``.

    The second basis vector is exact in the field: cos 2n theta = -g/2 and
    sin 2n theta = sin theta = sqrt(1 - (g/2)^2), where g = 2cos(theta).
    The bounds are computed on integers (``_embedding``).
    """
    from fractions import Fraction

    num, den = _width(width)
    return tuple(
        (Fraction(lo, scale), Fraction(hi, scale)) for lo, hi, scale in _embedding(v, n, num, den)
    )


def e_F_float(v, n: int) -> tuple[float, float]:
    """The midpoints of ``e_F(v, n)``, each the correctly rounded float of that rational."""
    (xlo, xhi, xscale), (ylo, yhi, yscale) = _embedding(v, n, 1, 10**12)
    return (xlo + xhi) / (2 * xscale), (ylo + yhi) / (2 * yscale)
