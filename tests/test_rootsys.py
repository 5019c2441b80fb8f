import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverfold import chebring, rootsys
from quiverfold.chebring import AlgReal
from quiverfold.rootsys import generate_roots, root_system
from spec_oracles import e_F, e_F_float, is_positive_root, simply_laced_positive_roots


class TestGeneration:
    @pytest.mark.parametrize(
        "name,total,positive",
        [("I2(5)", 10, 5), ("I2(6)", 12, 6), ("I2(7)", 14, 7), ("H3", 30, 15)],
    )
    def test_counts(self, name, total, positive):
        rs = generate_roots(name)
        assert len(rs.roots) == total
        assert len(rs.positives) == positive

    def test_h4_count(self):
        rs = root_system("H4")
        assert len(rs.roots) == 120
        assert len(rs.positives) == 60

    def test_closed_under_reflections(self):
        rs = root_system("I2(7)")
        # negated roots present, simple roots present
        for v in rs.roots:
            assert tuple(-c for c in v) in rs.roots

    def test_sign_coherence_of_roots(self):
        for name in ("I2(5)", "H3"):
            rs = root_system(name)
            for v in rs.roots:
                signs = {c.sign() for c in v}
                assert not ({1, -1} <= signs)


def oracle_roots(type_name):
    """(roots, positives): the reflection closure run on ``AlgReal`` coordinates."""
    cox = rootsys.coxeter_matrix(type_name)
    rank = len(cox)
    m = rootsys._field_order(type_name)
    zero, one = AlgReal(m), AlgReal(m, (1,))
    bonds = {2: zero, 3: -one, m: -AlgReal.generator(m)}
    cartan = [[2 * one if i == j else bonds[cox[i][j]] for j in range(rank)] for i in range(rank)]
    simples = [tuple(one if j == i else zero for j in range(rank)) for i in range(rank)]
    roots, frontier = set(simples), list(simples)
    while frontier:
        new = []
        for v in frontier:
            for i in range(rank):
                pairing = zero
                for j in range(rank):
                    pairing = pairing + cartan[i][j] * v[j]
                image = v[:i] + (v[i] - pairing,) + v[i + 1:]
                if image not in roots:
                    roots.add(image)
                    new.append(image)
        frontier = new
    positives = {
        v for v in roots if all(c.sign() >= 0 for c in v) and any(c.sign() > 0 for c in v)
    }
    return frozenset(roots), frozenset(positives)


class TestTupleClosure:
    @pytest.mark.parametrize("name", ["H3", "H4", "I2(5)", "I2(7)", "I2(9)"])
    def test_matches_algreal_closure(self, name):
        rs = generate_roots(name)
        roots, positives = oracle_roots(name)
        assert rs.roots == roots
        assert rs.positives == positives
        assert rs.keys == frozenset(tuple(c.coeffs for c in v) for v in roots)
        # the decoded coordinates are AlgReal values, never bare ints
        assert all(type(c) is AlgReal for v in rs.roots for c in v)


class TestReflectionSteps:
    # a root that s_i fixes is one step, and any other pair {v, s_i v} is one
    # step from whichever end comes first: H4 has 120 fixed (root, i) and
    # 180 pairs, H3 12 and 39, where a closure reflecting every root at
    # every letter takes 480 and 90
    @pytest.mark.parametrize("name,steps", [("H4", 300), ("H3", 51)])
    def test_each_reflection_pair_is_computed_once(self, name, steps, monkeypatch):
        reflections = []
        explorer = rootsys._Explorer

        def counting(step, **kwargs):
            return explorer(lambda v, i: reflections.append(i) or step(v, i), **kwargs)

        monkeypatch.setattr(rootsys, "_Explorer", counting)
        rs = generate_roots(name)
        assert len(rs.roots) == {"H4": 120, "H3": 30}[name]
        assert len(reflections) == steps


class TestMembership:
    def test_simple_roots(self):
        rs = root_system("H3")
        one, zero = AlgReal(5, (1,)), AlgReal(5)
        assert is_positive_root(rs, (one, zero, zero))

    def test_golden_vector_h3(self):
        rs = root_system("H3")
        phi, one = AlgReal.generator(5), AlgReal(5, (1,))
        assert is_positive_root(rs, (phi, phi, one))

    def test_i25_examples(self):
        rs = root_system("I2(5)")
        one, zero, two = AlgReal(5, (1,)), AlgReal(5), AlgReal(5, (2,))
        phi = AlgReal.generator(5)
        assert is_positive_root(rs, (one, phi))
        assert is_positive_root(rs, (phi, phi))
        assert not rs.is_root((one, one))
        assert not rs.is_root((two, zero))

    @pytest.mark.parametrize("name", ["H3", "H4", "I2(7)", "I2(9)"])
    def test_coefficient_tuple_vectors(self, name):
        rs = root_system(name)
        assert len(rs.keys) == len(rs.roots)
        for v in rs.roots:
            key = tuple(c.coeffs for c in v)
            assert key in rs.keys and rs.is_root(key) and rs.is_root(v)
        assert not rs.is_root(((2,),) + ((),) * (rs.rank - 1))
        assert not rs.is_root(((1,), (-1,)) + ((),) * (rs.rank - 2))
        with pytest.raises(ValueError):
            rs.is_root(((1,),))

    def test_dimension_mismatch(self):
        rs = root_system("I2(5)")
        with pytest.raises(ValueError):
            rs.is_root((AlgReal(5, (1,)),))

    def test_h3_embeds_in_h4(self):
        h3 = root_system("H3")
        h4 = root_system("H4")
        zero = AlgReal(5)
        for v in h3.positives:
            assert is_positive_root(h4, (zero,) + tuple(v))


class TestSimplyLacedOracle:
    def test_a4(self):
        pos = simply_laced_positive_roots(4, [(0, 1), (1, 2), (2, 3)])
        assert len(pos) == 10

    def test_d6(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)]
        assert len(simply_laced_positive_roots(6, edges)) == 30

    def test_e8(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]
        assert len(simply_laced_positive_roots(8, edges)) == 120


class TestEuclideanEmbedding:
    def test_basis_images(self):
        n = 3
        theta = math.pi / 7
        x, y = e_F_float((1, 0), n)
        assert (x, y) == pytest.approx((1.0, 0.0), abs=1e-12)
        x, y = e_F_float((0, 1), n)
        assert x == pytest.approx(math.cos(6 * theta), abs=1e-12)
        assert y == pytest.approx(math.sin(6 * theta), abs=1e-12)

    def test_intervals_bound_truth(self):
        n = 2
        theta = math.pi / 5
        g = AlgReal.generator(5)
        (xlo, xhi), (ylo, yhi) = e_F((g, g * g - 1), n)
        xtrue = 2 * math.cos(theta) + (4 * math.cos(theta) ** 2 - 1) * math.cos(4 * theta)
        ytrue = (4 * math.cos(theta) ** 2 - 1) * math.sin(4 * theta)
        # the float "truth" itself carries ~1e-16 error; allow that slack
        assert float(xlo) - 1e-12 <= xtrue <= float(xhi) + 1e-12
        assert float(ylo) - 1e-12 <= ytrue <= float(yhi) + 1e-12
        assert xhi - xlo <= 2 * Fraction(1, 10**12)

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_positive_roots_are_consecutive_chebyshev_pairs(self, n):
        # the pairs cli.roots_of_unity_hold compares with: (u_{k+1}, u_k) at
        # angle k theta for k < m, u_k = sin(k theta)/sin(theta) = U_{k-1}(g/2)
        m = 2 * n + 1
        theta = math.pi / m
        u = [AlgReal(m)] + [AlgReal.chebyshev(m, k) for k in range(m)]
        pairs = [(u[k + 1], u[k]) for k in range(m)]
        assert set(pairs) == root_system(f"I2({m})").positives
        for k, v in enumerate(pairs):
            (xlo, xhi), (ylo, yhi) = e_F(v, n)
            assert float(xlo) - 1e-12 <= math.cos(k * theta) <= float(xhi) + 1e-12
            assert float(ylo) - 1e-12 <= math.sin(k * theta) <= float(yhi) + 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_roots_have_unit_length(self, n):
        rs = root_system(f"I2({2 * n + 1})")
        for v in rs.positives:
            x, y = e_F_float(v, n)
            assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-9)


@pytest.fixture
def cold(monkeypatch):
    """Start every m from its cold isolating interval, as a fresh process does."""

    def reset():
        monkeypatch.setattr(chebring, "_ROOT_CONTEXTS", {})

    reset()
    return reset


def sqrt_interval(lo, hi, scale=10**15):
    """Enclosure of sqrt over [lo, hi], lo read as 0 if negative: each end's root
    rounded to a multiple of 1/(its reduced denominator * scale), over ``Fraction``."""
    lo = max(lo, Fraction(0))

    def bound(q, up):
        return Fraction(math.isqrt(q.numerator * q.denominator * scale * scale) + up,
                        q.denominator * scale)

    return bound(lo, 0), bound(hi, 1)


def y_passes(v1, n, width=Fraction(1, 10**12)):
    """The y-intervals of e_F's passes, over ``Fraction``: the enclosures of g and
    v1 start at width/4 and the root's scale at 10^15, and each pass divides the
    one and multiplies the other by 16."""
    m = 2 * n + 1
    v1 = v1 if isinstance(v1, AlgReal) else AlgReal(m, (v1,))
    tol, scale = width / 4, 10**15
    while True:
        g_lo, g_hi = AlgReal.generator(m).interval(tol)
        s_lo, s_hi = sqrt_interval(1 - (g_hi / 2) ** 2, 1 - (g_lo / 2) ** 2, scale)
        v1_lo, v1_hi = v1.interval(tol)
        cands = (v1_lo * s_lo, v1_lo * s_hi, v1_hi * s_lo, v1_hi * s_hi)
        yield min(cands), max(cands)
        tol, scale = tol / 16, scale * 16


def fraction_e_F(v, n, width=Fraction(1, 10**12)):
    """``e_F`` over ``Fraction``: x from one enclosure, y from the first pass narrow enough."""
    m = 2 * n + 1
    v0, v1 = (x if isinstance(x, AlgReal) else AlgReal(m, (x,)) for x in v)
    xlo, xhi = (2 * v0 - v1 * AlgReal.generator(m)).interval(width)
    y = next(y for y in y_passes(v1, n, width) if y[1] - y[0] <= width)
    return (xlo / 2, xhi / 2), y


class TestEmbeddingWidth:
    CASES = [((0, 5), 10), ((0, 1), 50), ((0, 1), 3), ((3, -2), 3), ((1000, -999), 4), ((1, 0), 2)]

    @pytest.mark.parametrize("v,n", CASES)
    def test_width_promise_in_cold_process(self, cold, v, n):
        width = Fraction(1, 10**12)
        (xlo, xhi), (ylo, yhi) = e_F(v, n, width)
        assert xhi - xlo <= width and yhi - ylo <= width
        theta = math.pi / (2 * n + 1)
        assert float(ylo) - 1e-12 <= v[1] * math.sin(theta) <= float(yhi) + 1e-12

    @pytest.mark.parametrize("v,n", CASES)
    def test_unchanged_where_one_pass_suffices(self, cold, v, n):
        lo, hi = next(y_passes(v[1], n))  # one pass at the requested tolerance
        cold()
        y = e_F(v, n)[1]
        if hi - lo <= Fraction(1, 10**12):
            assert y == (lo, hi)
        else:
            assert y[0] >= lo and y[1] <= hi

    @given(n=st.sampled_from([1, 2, 3, 5, 10]), data=st.data(), digits=st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_fraction_oracle(self, n, data, digits):
        # bounds on integers over a power-of-two scale give the same Fractions,
        # and e_F_float the float of each same midpoint
        m = 2 * n + 1
        deg = len(chebring.minimal_poly(m)) - 1
        coeff = st.integers(-1000, 1000)
        v = [AlgReal(m, tuple(data.draw(coeff) for _ in range(deg))) for _ in range(2)]
        width = Fraction(1, 10**digits)
        assert e_F(v, n, width) == fraction_e_F(v, n, width)
        midpoints = tuple(float((lo + hi) / 2) for lo, hi in fraction_e_F(v, n))
        assert e_F_float(v, n) == midpoints
