import collections
import copy
import functools
import json
import math
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from quiverfold import chebring
from quiverfold.cli import main
from quiverfold.chebring import (
    AlgReal,
    ChebElem,
    cheb_mul,
    cyclotomic,
    equal_in_evaluation,
    minimal_poly,
    reg_rep,
    rho,
    semiring_leq,
    sigma,
)
from spec_oracles import bisections, e_F, interval_eval


def cheb_value(k, m):
    """Numeric U_k(cos(pi/m)), the independent evaluation oracle."""
    theta = math.pi / m
    return math.sin((k + 1) * theta) / math.sin(theta)


def elem_value(a):
    return sum(c * cheb_value(k, 2 * a.n + 1) for k, c in enumerate(a.coeffs))


class TestChebMul:
    def test_golden_ratio_square(self):
        # n=2: theta_1^2 = 1 + theta_1
        t1 = ChebElem.theta(2, 1)
        assert cheb_mul(t1, t1) == ChebElem(2, (1, 1))

    def test_identity(self):
        for n in range(2, 7):
            x = ChebElem(n, tuple(range(1, n + 1)))
            assert cheb_mul(ChebElem.one(n), x) == x

    def test_theta1_theta2_rank3(self):
        # raw product theta_1 + theta_3; theta_3 rewrites to theta_2 at n=3
        out = cheb_mul(ChebElem.theta(3, 1), ChebElem.theta(3, 2))
        assert out == ChebElem(3, (0, 1, 1))

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            cheb_mul(ChebElem.one(2), ChebElem.one(3))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_product_rule_against_numeric_oracle(self, n):
        m = 2 * n + 1
        for k in range(n):
            for l in range(n):
                prod = cheb_mul(ChebElem.theta(n, k), ChebElem.theta(n, l))
                assert elem_value(prod) == pytest.approx(
                    cheb_value(k, m) * cheb_value(l, m), abs=1e-9
                )

    @pytest.mark.parametrize("n", range(2, 7))
    def test_product_rule_shape(self, n):
        # theta_k theta_l = sum_j theta_{k-l+2j} before rewriting
        for k in range(n):
            for l in range(k + 1):
                prod = cheb_mul(ChebElem.theta(n, k), ChebElem.theta(n, l))
                expect = ChebElem.zero(n)
                for j in range(l + 1):
                    expect = expect + ChebElem.theta(n, k - l + 2 * j)
                assert prod == expect

    @given(
        n=st.integers(2, 6),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, n, data):
        coeff = st.integers(-10, 10)
        a = ChebElem(n, tuple(data.draw(coeff) for _ in range(n)))
        b = ChebElem(n, tuple(data.draw(coeff) for _ in range(n)))
        c = ChebElem(n, tuple(data.draw(coeff) for _ in range(n)))
        assert cheb_mul(a, b) == cheb_mul(b, a)
        assert cheb_mul(a, b + c) == cheb_mul(a, b) + cheb_mul(a, c)
        assert cheb_mul(cheb_mul(a, b), c) == cheb_mul(a, cheb_mul(b, c))


class TestRegRep:
    def test_identity(self):
        for n in range(2, 6):
            assert reg_rep(0, n) == tuple(
                tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
            )

    def test_rank2(self):
        assert reg_rep(1, 2) == ((0, 1), (1, 1))

    def test_rank3(self):
        assert reg_rep(1, 3) == ((0, 1, 0), (1, 0, 1), (0, 1, 1))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            reg_rep(3, 3)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_symmetric_zero_one(self, n):
        for k in range(n):
            mat = reg_rep(k, n)
            for i in range(n):
                for j in range(n):
                    assert mat[i][j] in (0, 1)
                    assert mat[i][j] == mat[j][i]

    def test_top_symbol_antitriangle(self):
        # multiplication by theta_{n-1} is 1 exactly on the lower-right antitriangle
        for n in range(2, 7):
            mat = reg_rep(n - 1, n)
            for i in range(n):
                for j in range(n):
                    assert mat[i][j] == (1 if i >= n - j - 1 else 0)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_multiplicative_on_generators(self, n):
        for k in range(n):
            for l in range(n):
                prod_mat = _mat_mul(reg_rep(k, n), reg_rep(l, n))
                assert prod_mat == rho(cheb_mul(ChebElem.theta(n, k), ChebElem.theta(n, l)))

    def test_rho_column_is_action(self):
        for n in range(2, 6):
            for k in range(n):
                r = ChebElem(n, tuple((i * 7 + 3) % 5 for i in range(n)))
                image = cheb_mul(ChebElem.theta(n, k), r)
                mat = reg_rep(k, n)
                acted = tuple(
                    sum(mat[i][j] * r.coeffs[j] for j in range(n)) for i in range(n)
                )
                assert acted == image.coeffs


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


class TestMinimalPoly:
    def test_small_cases(self):
        assert minimal_poly(3) == (-1, 1)
        assert minimal_poly(5) == (-1, -1, 1)
        assert minimal_poly(7) == (1, -2, -1, 1)

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            minimal_poly(2)

    @pytest.mark.parametrize("m", range(3, 26))
    def test_against_sympy(self, m):
        import sympy

        x = sympy.symbols("x")
        expected = sympy.minimal_polynomial(2 * sympy.cos(sympy.pi / m), x)
        got = sum(c * x**i for i, c in enumerate(minimal_poly(m)))
        assert sympy.expand(got - expected) == 0

    @pytest.mark.parametrize("m", range(3, 26))
    def test_degree(self, m):
        phi = sum(1 for k in range(1, 2 * m) if math.gcd(k, 2 * m) == 1)
        assert len(minimal_poly(m)) - 1 == phi // 2

    @pytest.mark.parametrize("k", [1, 2, 6, 12, 14, 30])
    def test_cyclotomic_against_sympy(self, k):
        import sympy

        x = sympy.symbols("x")
        got = sum(c * x**i for i, c in enumerate(cyclotomic(k)))
        assert sympy.expand(got - sympy.cyclotomic_poly(k, x)) == 0


class TestSigma:
    def test_theta0(self):
        assert sigma(ChebElem.one(3)) == AlgReal(7, (1,))

    def test_golden_generator(self):
        assert sigma(ChebElem.theta(2, 1)) == AlgReal.generator(5)

    def test_kernel_collapse_at_rank4(self):
        # U_3 = U_0 + U_1 at cos(pi/9) but not at cos(pi/7)
        lhs4 = ChebElem.theta(4, 3)
        rhs4 = ChebElem.one(4) + ChebElem.theta(4, 1)
        assert lhs4 != rhs4
        assert equal_in_evaluation(lhs4, rhs4)
        lhs3 = ChebElem.theta(3, 2)
        rhs3 = ChebElem.one(3) + ChebElem.theta(3, 1)
        assert not equal_in_evaluation(lhs3, rhs3)

    @given(n=st.integers(2, 6), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ring_homomorphism(self, n, data):
        coeff = st.integers(-10, 10)
        a = ChebElem(n, tuple(data.draw(coeff) for _ in range(n)))
        b = ChebElem(n, tuple(data.draw(coeff) for _ in range(n)))
        assert sigma(a + b) == sigma(a) + sigma(b)
        assert sigma(cheb_mul(a, b)) == sigma(a) * sigma(b)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_identity_suite(self, n):
        m = 2 * n + 1
        # theta_{2n} = 0 and the reflection theta_k = theta_{2n-1-k}
        assert ChebElem.theta(n, 2 * n).is_zero()
        for k in range(2 * n):
            assert ChebElem.theta(n, k) == ChebElem.theta(n, 2 * n - 1 - k)
        # values above 1 strictly inside the range
        for k in range(1, n):
            assert (sigma(ChebElem.theta(n, k)) - 1).sign() == 1

    def test_numeric_agreement(self):
        for n in range(2, 6):
            for k in range(n):
                val = float(sigma(ChebElem.theta(n, k)))
                assert val == pytest.approx(cheb_value(k, 2 * n + 1), abs=1e-9)


class TestAlgRealHash:
    def test_integer_constants_hash_like_int(self):
        assert len({AlgReal(5, (3,)), 3}) == 1
        assert hash(AlgReal(7)) == hash(0)
        assert hash(AlgReal(7, (-2,))) == hash(-2)
        assert {AlgReal(5, (1,)): "one"}[1] == "one"

    def test_equal_values_hash_equal(self):
        assert hash(AlgReal(5, (1, 1))) == hash(AlgReal.generator(5) + 1)
        assert hash(AlgReal(5, (0, 0, 1))) == hash(AlgReal(5, (1, 1)))


class TestAlgRealImmutable:
    def test_attributes_cannot_be_reassigned_or_deleted(self):
        a = AlgReal.generator(5)
        with pytest.raises(AttributeError):
            a.coeffs = (1,)
        with pytest.raises(AttributeError):
            a.m = 7
        with pytest.raises(AttributeError):
            del a.coeffs
        with pytest.raises(AttributeError):
            a.cached_sign = 1
        assert a == AlgReal(5, (0, 1))

    def test_pickle_and_copy_round_trip(self):
        a = AlgReal(9, (3, -1, 2))
        for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert b == a and b.m == 9 and b.coeffs == a.coeffs


class TestAlgRealSign:
    def test_zero(self):
        assert AlgReal(7).sign() == 0
        assert AlgReal(7, (0, 0, 0)).sign() == 0

    def test_golden_above_one(self):
        phi = AlgReal.generator(5)
        assert (phi - 1).sign() == 1

    def test_heptagon_beats_golden(self):
        # 2cos(pi/7) satisfies x^2 - x - 1 > 0
        x = AlgReal.generator(7)
        assert (x * x - x - 1).sign() == 1

    @given(m=st.sampled_from([4, 5, 6, 7, 9, 11]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sign_total(self, m, data):
        deg = len(minimal_poly(m)) - 1
        a = AlgReal(m, tuple(data.draw(st.integers(-8, 8)) for _ in range(deg)))
        signs = (a.sign(), (-a).sign())
        if a.is_zero():
            assert signs == (0, 0)
        else:
            assert sorted(signs) == [-1, 1]

    @given(m=st.sampled_from([5, 7, 9]), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_sign_matches_float(self, m, data):
        deg = len(minimal_poly(m)) - 1
        a = AlgReal(m, tuple(data.draw(st.integers(-6, 6)) for _ in range(deg)))
        x = 2 * math.cos(math.pi / m)
        approx = sum(c * x**i for i, c in enumerate(a.coeffs))
        if abs(approx) > 1e-6:
            assert a.sign() == (1 if approx > 0 else -1)

    def test_interval_contains_value(self):
        a = AlgReal.generator(7) * 3 - 2
        lo, hi = a.interval(Fraction(1, 10**12))
        val = 6 * math.cos(math.pi / 7) - 2
        assert lo <= Fraction(val) + Fraction(1, 10**9)
        assert hi >= Fraction(val) - Fraction(1, 10**9)
        assert hi - lo <= Fraction(1, 10**12)

    def test_order_operators(self):
        x = AlgReal.generator(7)
        assert x > 1
        assert x < 2
        assert AlgReal.chebyshev(7, 2) > x

    def test_sqrt_cases(self):
        # 2cos(pi/4) and 2cos(pi/6) realize sqrt(2) and sqrt(3)
        s2, s3 = AlgReal.generator(4), AlgReal.generator(6)
        assert s2 * s2 == 2
        assert s3 * s3 == 3

    def test_json_round_trip(self):
        a = AlgReal(9, (3, -1, 2))
        assert AlgReal.from_json(a.to_json()) == a
        c = ChebElem(4, (1, 0, -2, 5))
        assert ChebElem.from_json(c.to_json()) == c


def oracle_sign(a):
    """Interval Horner over the shared interval as it stands, refined until it decides.

    ``AlgReal.sign`` runs interval Horner too, so ``mpmath_value`` is the
    oracle independent of it.
    """
    if not a.coeffs:
        return 0
    ctx = chebring._context(a.m)
    while True:
        lo, hi, _ = chebring._interval_eval(a.coeffs, *ctx._bisections[-1])
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        ctx.refine()


def as_fractions(box):
    """An integer enclosure (alo, ahi, scale) as the pair of ``Fraction``s it stands for."""
    alo, ahi, scale = box
    return Fraction(alo, scale), Fraction(ahi, scale)


def mpmath_value(a):
    """The value of ``a`` at 2cos(pi/m), in mpmath at 100 significant digits."""
    with mpmath.workdps(100):
        x = 2 * mpmath.cos(mpmath.pi / a.m)
        return mpmath.polyval(list(reversed(a.coeffs)), x) if a.coeffs else mpmath.mpf(0)


@pytest.fixture
def refines(monkeypatch):
    """Cold isolating intervals for every m, and the refine() calls made on each."""
    monkeypatch.setattr(chebring, "_ROOT_CONTEXTS", {})
    counts = collections.Counter()
    refine = chebring._RootContext.refine

    def counted(ctx):
        counts[ctx.m] += 1
        refine(ctx)

    monkeypatch.setattr(chebring._RootContext, "refine", counted)
    return counts


def fibonacci_gaps(count):
    """F_{k+1} - F_k * phi in Z[2cos(pi/5)] for k = 1..count; it equals (-1/phi)^k."""
    out, f_k, f_next = [], 1, 1
    for _ in range(count):
        out.append(AlgReal(5, (f_next, -f_k)))
        f_k, f_next = f_next, f_k + f_next
    return out


def heptagon_powers(count):
    """(2cos(pi/7) - 1)^k for k = 1..count, positive and about 0.80^k."""
    base, out = AlgReal.generator(7) - 1, []
    power = AlgReal(7, (1,))
    for _ in range(count):
        power = power * base
        out.append(power)
    return out


class TestSignEnclosure:
    @given(m=st.sampled_from([3, 4, 5, 6, 7, 9, 11, 15, 21]), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_interval_horner(self, m, data):
        deg = len(minimal_poly(m)) - 1
        a = AlgReal(m, tuple(data.draw(st.integers(-10**9, 10**9)) for _ in range(deg)))
        assert a.sign() == oracle_sign(a)
        assert (-a).sign() == -a.sign()

    @given(m=st.sampled_from([5, 7, 9, 15]), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_coeff_sign_is_algreal_sign_on_cold_contexts(self, m, data):
        # (x - 2)^j is small, so high j forces the enclosure to refine
        deg = len(minimal_poly(m)) - 1
        a = AlgReal(m, tuple(data.draw(st.integers(-10**6, 10**6)) for _ in range(deg)))
        for _ in range(data.draw(st.integers(0, 14))):
            a = a * (AlgReal.generator(m) - 2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chebring, "_ROOT_CONTEXTS", {})
            got = chebring._coeff_sign(chebring._RootContext(m), a.coeffs)
            assert got == a.sign() == oracle_sign(a)

    @given(m=st.sampled_from([5, 7, 9, 15, 21]), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_sign_matches_mpmath_on_cold_and_warm_contexts(self, m, data):
        deg = len(minimal_poly(m)) - 1
        coeffs = st.lists(st.integers(-10**6, 10**6), min_size=deg, max_size=deg).filter(any)
        a = AlgReal(m, data.draw(coeffs))
        for _ in range(data.draw(st.integers(0, 14))):
            a = a * (AlgReal.generator(m) - 2)
        value = mpmath_value(a)
        # sum |c_i| x^i stays below 1e17 here, so 100 digits fix the sign of
        # anything above 1e-80; a nonzero value is far above it (its norm is
        # a nonzero integer)
        assert abs(value) > mpmath.mpf("1e-80")
        want = 1 if value > 0 else -1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chebring, "_ROOT_CONTEXTS", {})
            cold = (a.sign(), (-a).sign())
            # warm: the memo answers, and a deep shared interval decides afresh
            chebring._context(m).bisection(200)
            warm = (a.sign(), chebring._enclosure_sign(chebring._context(m), a.coeffs))
        assert cold == (want, -want)
        assert warm == (want, want)

    def test_fibonacci_gaps_force_refinement(self, refines):
        values = fibonacci_gaps(90)
        signs = [a.sign() for a in values]
        assert refines[5] > 0
        assert signs == [(-1) ** k for k in range(1, 91)]
        assert [(-a).sign() for a in values] == [-s for s in signs]
        assert [oracle_sign(a) for a in values] == signs

    def test_heptagon_powers_force_refinement(self, refines):
        values = heptagon_powers(150)
        assert [a.sign() for a in values] == [1] * 150
        assert refines[7] > 0
        assert [(-a).sign() for a in values] == [-1] * 150
        assert [oracle_sign(a) for a in values] == [1] * 150

    @pytest.mark.parametrize("m", [3, 4, 5, 7, 15, 21, 97])
    def test_power_table_brackets_powers(self, refines, m):
        # the table of enclosures of x^0, ..., x^(deg-1) that interval Horner
        # gives over a kept bisection: exact interval powers, since each
        # bisection lies in (0, 2), and each holds the true power
        ctx = chebring._context(m)
        with mpmath.workdps(60):
            root = 2 * mpmath.cos(mpmath.pi / m)
            powers = [root**i for i in range(ctx.deg)]
        depths = (0, 1, 2, 30)
        boxes, widths = [], []
        for depth in depths:
            box = ctx.bisection(depth)
            lo, hi = Fraction(box[0], box[2]), Fraction(box[1], box[2])
            assert 0 < lo < hi < 2
            table = [as_fractions(chebring._interval_eval((0,) * i + (1,), *box))
                     for i in range(ctx.deg)]
            assert table == [(lo**i, hi**i) for i in range(ctx.deg)]
            with mpmath.workdps(60):
                for (l, h), p in zip(table, powers):
                    assert l.numerator / mpmath.mpf(l.denominator) <= p
                    assert p <= h.numerator / mpmath.mpf(h.denominator)
            boxes.append(box)
            widths.append(table[-1][1] - table[-1][0])
        assert refines[m] == 30
        # a kept bisection is returned as it stands, with no further refine
        assert [ctx.bisection(depth) for depth in depths] == boxes
        assert refines[m] == 30
        if ctx.deg > 1:
            assert widths == sorted(widths, reverse=True)
            assert widths[-1] < widths[0] / 2**20

    def test_signs_hold_when_interval_narrows_the_context(self, refines):
        # 3 - x - x^2 and x - 2 are both negative at x = 2cos(pi/7) = 1.80...
        values = heptagon_powers(40) + [AlgReal(7, (3, -1, -1)), AlgReal(7, (-2, 1))]
        first = [a.sign() for a in values]
        assert first == [1] * 40 + [-1, -1]
        AlgReal.generator(7).interval(Fraction(1, 10**60))
        assert [a.sign() for a in values] == first
        assert first == [oracle_sign(a) for a in values]


class TestFirstEvaluations:
    """The traffic that sign's interval Horner relies on: few first evaluations, each shallow."""

    def test_verify_all_decides_each_tuple_once(self, monkeypatch, capsys):
        monkeypatch.setattr(chebring, "_ROOT_CONTEXTS", {})
        calls = collections.Counter()
        decide = chebring._enclosure_sign

        def counted(ctx, coeffs):
            calls[ctx.m, coeffs] += 1
            return decide(ctx, coeffs)

        monkeypatch.setattr(chebring, "_enclosure_sign", counted)
        assert main(["verify", "all", "--kind", "H4", "--depth", "1", "--random", "0"]) == 0
        capsys.readouterr()
        memo = {(m, coeffs) for m, ctx in chebring._ROOT_CONTEXTS.items() for coeffs in ctx.signs}
        assert calls and set(calls) == memo
        assert set(calls.values()) == {1}

    def test_verify_all_traffic_in_a_fresh_interpreter(self):
        # the mutation memos answer without a sign call or a bisection of
        # their own: a cold `verify all --kind H4 --depth 1 --random 0`
        # decides 16 signs and never bisects, as it did before them
        src = str(Path(chebring.__file__).resolve().parents[1])
        code = """if True:
            import contextlib, io, json, sys
            sys.path.insert(0, sys.argv[1])
            from quiverfold import chebring
            from quiverfold.cli import main
            calls = []
            decide = chebring._enclosure_sign
            def counted(ctx, coeffs):
                calls.append(coeffs)
                return decide(ctx, coeffs)
            chebring._enclosure_sign = counted
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["verify", "all", "--kind", "H4", "--depth", "1", "--random", "0"])
            contexts = chebring._ROOT_CONTEXTS
            print(json.dumps([code, len(calls), len(set(calls)),
                              {m: len(ctx._bisections) - 1 for m, ctx in contexts.items()},
                              {m: len(ctx.updates) > 0 for m, ctx in contexts.items()}]))
        """
        out = subprocess.run(
            [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
        ).stdout
        assert json.loads(out) == [0, 16, 16, {"5": 0}, {"5": True}]

    @pytest.mark.parametrize("m,values", [(5, fibonacci_gaps(60)), (7, heptagon_powers(50))])
    def test_first_evaluation_bisects_to_the_least_deciding_depth(self, refines, m, values):
        boxes = bisections(m, 100)
        deepest = 0
        for a in values + [-a for a in values]:
            enclosures = (interval_eval(a.coeffs, *box) for box in boxes)
            least = next(depth for depth, (lo, hi) in enumerate(enclosures) if lo > 0 or hi < 0)
            ctx, before = chebring._RootContext(m), refines[m]
            assert chebring._coeff_sign(ctx, a.coeffs) == (1 if mpmath_value(a) > 0 else -1)
            assert len(ctx._bisections) - 1 == refines[m] - before == least
            deepest = max(deepest, least)
        assert deepest > 0


class TestSignMemo:
    """``_coeff_sign`` keeps each decided sign on the context for the process's life."""

    @given(m=st.sampled_from([5, 7, 9, 15]), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_oracle_sign_on_cold_and_warm_contexts(self, m, data):
        deg = len(minimal_poly(m)) - 1
        coeff = st.integers(-10**6, 10**6)
        values = []
        for _ in range(data.draw(st.integers(1, 6))):
            a = AlgReal(m, tuple(data.draw(coeff) for _ in range(deg)))
            for _ in range(data.draw(st.integers(0, 12))):
                a = a * (AlgReal.generator(m) - 2)
            values += [a, -a, a]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chebring, "_ROOT_CONTEXTS", {})
            ctx = chebring._context(m)
            cold = [chebring._coeff_sign(ctx, a.coeffs) for a in values]
            assert set(ctx.signs) == {a.coeffs for a in values}
            warm = [chebring._coeff_sign(ctx, a.coeffs) for a in values]
            assert cold == warm == [oracle_sign(a) for a in values] == [a.sign() for a in values]

    @pytest.mark.parametrize("m,values", [(5, fibonacci_gaps(70)), (7, heptagon_powers(120))])
    def test_first_evaluation_refines_as_before_and_a_hit_not_at_all(self, refines, m, values):
        # the memoized context against one running the unmemoized decision,
        # which is the body _coeff_sign had before the memo; a value and its
        # negative each come twice
        sequence = [x for a in values for x in (a, a, -a, a)]
        memo, plain = chebring._RootContext(m), chebring._RootContext(m)
        got, want = [], []
        for a in sequence:
            before = refines[m]
            sign = chebring._coeff_sign(memo, a.coeffs)
            got.append((sign, refines[m] - before))
            before = refines[m]
            sign = chebring._enclosure_sign(plain, a.coeffs)
            want.append((sign, refines[m] - before))
        assert got == want
        assert memo._bisections[-1] == plain._bisections[-1]
        assert sum(r for _, r in got) > 0
        # each repeat is a memo hit: no refine, whatever the interval
        for i, a in enumerate(sequence):
            if a.coeffs in {b.coeffs for b in sequence[:i]}:
                assert got[i][1] == 0
        before = refines[m]
        assert [chebring._coeff_sign(memo, a.coeffs) for a in sequence] == [s for s, _ in got]
        assert refines[m] == before

    def test_algreal_sign_reads_the_memo(self, refines):
        a = fibonacci_gaps(80)[-1]
        assert a.sign() == 1 and refines[5] > 0
        ctx = chebring._context(5)
        assert ctx.signs[a.coeffs] == 1
        before = refines[5]
        assert a.sign() == 1 and AlgReal(5, a.coeffs).sign() == 1
        assert refines[5] == before

    @pytest.mark.parametrize("m", [3, 4, 5, 7, 9, 15])
    def test_mul_matrix_is_the_product(self, m):
        ctx = chebring._context(m)
        rng = random.Random(m)
        for _ in range(50):
            a = AlgReal(m, tuple(rng.randint(-5, 5) for _ in range(ctx.deg)))
            b = AlgReal(m, tuple(rng.randint(-5, 5) for _ in range(ctx.deg)))
            rows = ctx.mul_matrix(a.coeffs)
            assert ctx.mul_matrix(a.coeffs) is rows
            assert len(rows) == ctx.deg and all(len(r) == ctx.deg for r in rows)
            padded = b.coeffs + (0,) * (ctx.deg - len(b.coeffs))
            product = [sum(x * y for x, y in zip(r, padded)) for r in rows]
            assert AlgReal(m, product) == a * b


class TestSemiringOrder:
    def test_reflexive_and_strict(self):
        a = ChebElem(3, (1, 2, 0))
        b = ChebElem(3, (1, 2, 1))
        assert semiring_leq(a, a)
        assert semiring_leq(a, b)
        assert not semiring_leq(b, a)

    def test_membership(self):
        assert ChebElem(3, (0, 1, 2)).in_semiring()
        assert not ChebElem(3, (0, -1, 2)).in_semiring()


class TestIntegerCoefficients:
    @pytest.mark.parametrize("bad", [1.5, 1.0, "1", None])
    def test_chebelem_rejects_a_non_integer(self, bad):
        # 1.5 used to be truncated, so ChebElem(3, (1.5, 0, 0)) == ChebElem.one(3)
        with pytest.raises(TypeError):
            ChebElem(3, (bad, 0, 0))

    def test_chebelem_keeps_integer_like_values(self):
        assert ChebElem(3, (True, 0, 0)) == ChebElem.one(3)
        assert all(type(c) is int for c in ChebElem(3, (True, 0, 0)).coeffs)

    @pytest.mark.parametrize("bad", [0.5, 1.0, "1", None])
    def test_algreal_rejects_a_non_integer(self, bad):
        # AlgReal(5, (0.5, 1)) used to build, pass as an exchange matrix
        # entry, and make sign() raise an unrelated TypeError
        with pytest.raises(TypeError):
            AlgReal(5, (bad, 1))
        with pytest.raises(TypeError):
            AlgReal(5, (0, 0, 0, bad))  # longer than the degree: reduced after coercion

    def test_algreal_keeps_integer_like_values(self):
        assert AlgReal(5, (True, 1)) == AlgReal(5, (1, 1))
        assert all(type(c) is int for c in AlgReal(5, (True, 1)).coeffs)

    @pytest.mark.parametrize("bad", [1.9, "1", True, None, [1]])
    def test_chebelem_from_json_names_the_coefficient(self, bad):
        obj = {"n": 3, "coeffs": [0, 0, bad]}
        with pytest.raises(ValueError, match=f"coefficient {re.escape(repr(bad))} is not an integer"):
            ChebElem.from_json(obj)

    @pytest.mark.parametrize("bad", [0.5, "1", False, None, [1]])
    def test_algreal_from_json_names_the_coefficient(self, bad):
        # 0.5 used to build a value whose sign() and float() raised a TypeError
        obj = {"m": 5, "coeffs": [bad, 1]}
        with pytest.raises(ValueError, match=f"coefficient {re.escape(repr(bad))} is not an integer"):
            AlgReal.from_json(obj)


def _width(box):
    return box[1] - box[0]


def shallowest_enclosure(ctx, coeffs, width):
    """Interval Horner over ctx.bisection(d) for d = 0, 1, ... until it is narrow enough."""
    depth = 0
    while True:
        lo, hi = as_fractions(chebring._interval_eval(coeffs, *ctx.bisection(depth)))
        if hi - lo <= width:
            return lo, hi
        depth += 1


class TestHistoryFreeEnclosure:
    """``interval()`` and ``float()`` depend on the value and the width alone."""

    @given(
        m=st.sampled_from([3, 5, 7, 9, 15]),
        data=st.data(),
        digits=st.integers(0, 40),
        refinements=st.integers(0, 150),
    )
    @settings(max_examples=120, deadline=None)
    def test_shallowest_depth_whatever_the_shared_interval(self, m, data, digits, refinements):
        deg = len(minimal_poly(m)) - 1
        a = AlgReal(m, tuple(data.draw(st.integers(-10**6, 10**6)) for _ in range(deg)))
        width = Fraction(1, 10**digits)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chebring, "_ROOT_CONTEXTS", {})
            cold = a.interval(width)
            ctx = chebring._context(m)
            for _ in range(refinements):
                ctx.refine()
            assert a.interval(width) == cold == shallowest_enclosure(ctx, a.coeffs, width)
        lo, hi = cold
        assert hi - lo <= width and lo <= hi

    @pytest.mark.parametrize("m,coeffs", [
        (7, (0, 0, 1)), (7, (0, 0, -1)), (9, (0, 0, 1)), (15, (1, 0, 0, -1)),
    ])
    def test_steps_back_when_the_predicted_depth_overshoots(self, m, coeffs):
        # for these values a bisection more than halves the enclosure, so at a
        # width equal to the depth-k enclosure's own the depth-0 width halved k
        # times is wider still: the prediction lands deeper than k and the
        # search has to step back to the shallowest depth
        ctx = chebring._RootContext(m)
        w0 = _width(as_fractions(chebring._interval_eval(coeffs, *ctx.bisection(0))))
        overshot = 0
        for k in range(1, 25):
            width = _width(as_fractions(chebring._interval_eval(coeffs, *ctx.bisection(k))))
            fresh = chebring._RootContext(m)
            got = fresh.enclosure(coeffs, width.numerator, width.denominator)
            assert as_fractions(got) == shallowest_enclosure(fresh, coeffs, width)
            overshot += w0 / 2**k > width
        assert overshot

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_bisection_is_refine_from_the_initial_interval(self, m):
        ctx, plain = chebring._RootContext(m), chebring._RootContext(m)
        ctx.bisection(30)
        for depth in range(31):
            assert ctx.bisection(depth) == plain._bisections[-1]
            plain.refine()

    def test_signs_and_narrow_enclosures_leave_float_alone(self, refines):
        a = sigma(ChebElem(3, (1, 2, -1)))
        cold = float(a), a.interval(Fraction(1, 10**15))
        assert [x.sign() for x in heptagon_powers(150)] == [1] * 150
        assert refines[7] > 0
        assert (float(a), a.interval(Fraction(1, 10**15))) == cold
        AlgReal.generator(7).interval(Fraction(1, 10**40))
        assert (float(a), a.interval(Fraction(1, 10**15))) == cold
        assert repr(cold[0]) == "2.35689586789221"


@functools.lru_cache(maxsize=None)
def oracle_boxes(m):
    """``spec_oracles.bisections`` of 2cos(pi/m) to depth 250, over ``Fraction``."""
    return bisections(m, 250)


def oracle_shallowest(m, coeffs, width):
    """The oracle's interval Horner over its bisections, the shallowest that is narrow enough."""
    return next(
        box for box in (interval_eval(coeffs, *ends) for ends in oracle_boxes(m))
        if box[1] - box[0] <= width
    )


class TestIntegerEnclosure:
    """The integer interval Horner and bisections against the ``Fraction`` oracles."""

    @given(m=st.sampled_from([3, 5, 7, 9, 11, 15, 21]), depth=st.integers(0, 40), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_interval_eval_matches_fraction_horner(self, m, depth, data):
        ctx = chebring._context(m)
        coeffs = tuple(data.draw(st.lists(st.integers(-10**9, 10**9), max_size=ctx.deg)))
        lo, hi, den = ctx.bisection(depth)
        got = chebring._interval_eval(coeffs, lo, hi, den)
        assert as_fractions(got) == interval_eval(coeffs, Fraction(lo, den), Fraction(hi, den))
        assert all(type(x) is int for x in got) and got[2] == den ** len(coeffs)

    @given(
        coeffs=st.lists(st.integers(-10**6, 10**6), max_size=8),
        ends=st.lists(st.fractions(-10, 10, max_denominator=10**6), min_size=2, max_size=2),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_rational_endpoints(self, coeffs, ends):
        lo, hi = sorted(ends)
        den = math.lcm(lo.denominator, hi.denominator)
        got = chebring._interval_eval(coeffs, int(lo * den), int(hi * den), den)
        assert as_fractions(got) == interval_eval(coeffs, lo, hi)

    @pytest.mark.parametrize("m", [3, 4, 5, 7, 9, 11, 15, 21])
    def test_bisections_match_fraction_signs(self, m):
        ctx = chebring._RootContext(m)
        boxes = [ctx.bisection(depth) for depth in range(61)]
        fractions = [(Fraction(lo, den), Fraction(hi, den)) for lo, hi, den in boxes]
        assert fractions == bisections(m, 60)
        # each denominator is the least power of two common to both ends
        for lo, hi, den in boxes:
            assert den & (den - 1) == 0 and (den == 1 or (lo | hi) & 1)
        if m == 3:
            # the one rational root, 1, is never a midpoint: lo + hi - 2 den stays odd
            assert all((lo + hi - 2 * den) % 2 for lo, hi, den in ctx._bisections)

    @given(
        m=st.sampled_from([3, 4, 5, 7, 9, 11, 21]),
        data=st.data(),
        width=st.one_of(
            st.integers(0, 40).map(lambda k: Fraction(1, 10**k)),
            st.fractions(min_value=Fraction(1, 10**30), max_value=10, max_denominator=10**30),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_enclosure_interval_and_float_match_the_oracle(self, m, data, width):
        deg = len(minimal_poly(m)) - 1
        a = AlgReal(m, tuple(data.draw(st.integers(-10**6, 10**6)) for _ in range(deg)))
        want = oracle_shallowest(m, a.coeffs, width)
        ctx = chebring._RootContext(m)
        assert as_fractions(ctx.enclosure(a.coeffs, width.numerator, width.denominator)) == want
        got = a.interval(width)
        assert got == want and all(type(x) is Fraction for x in got)
        lo, hi = oracle_shallowest(m, a.coeffs, Fraction(1, 10**15))
        assert float(a) == float((lo + hi) / 2)

    @given(
        coeffs=st.lists(st.integers(-10**6, 10**6), max_size=8),
        x=st.fractions(-10, 10, max_denominator=10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_sign_at_is_the_sign_of_the_value(self, coeffs, x):
        value = sum(c * x**i for i, c in enumerate(coeffs))
        p, q = x.numerator, x.denominator
        assert chebring._sign_at(coeffs, p, q) == (value > 0) - (value < 0)
        # x is a root of q*t - p, and of that times the drawn polynomial
        root = (-p, q)
        assert chebring._sign_at(root, p, q) == 0
        assert chebring._sign_at(chebring._poly_mul(root, tuple(coeffs)), p, q) == 0


class TestWidth:
    """A width that is not positive is refused at the call, not looped on."""

    @pytest.mark.parametrize("width", [-1, 0, Fraction(-1, 10**12), -0.5, 0.0])
    def test_interval_refuses(self, width):
        with pytest.raises(ValueError, match="width must be positive"):
            AlgReal.generator(5).interval(width)

    @pytest.mark.parametrize("width", [-1, 0, Fraction(-1, 10**12)])
    def test_e_F_refuses(self, width):
        with pytest.raises(ValueError, match="width must be positive"):
            e_F((1, 1), 2, width)

    def test_positive_widths_of_any_rational_type(self):
        a = AlgReal.generator(7)
        assert a.interval(1) == a.interval(Fraction(1)) == a.interval(1.0)
        assert a.interval(0.5) == a.interval(Fraction(1, 2))
        assert a.interval() == a.interval(Fraction(1, 10**12))


def test_verifier_paths_never_import_fractions():
    # bounds are integers over a power of two: the CLI and the library's
    # verifiers run without `fractions` (or the `decimal` it loads), which
    # only the rational API imports
    src = str(Path(chebring.__file__).resolve().parents[1])
    code = """if True:
        import contextlib, io, json, sys
        sys.path.insert(0, sys.argv[1])
        import quiverfold
        from quiverfold.cli import main
        from quiverfold.unfolding import check_weighted_unfolding, standard_folding
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in ("fold dims --format csv --kind H4",
                         "verify all --depth 1 --random 0 --kind I2 --n 3",
                         "tropical walk --kind H4 --depth 2"):
                codes.append(main(argv.split()))
        codes.append(check_weighted_unfolding(standard_folding("H4"), depth=2).passed)
        loaded = [name for name in ("fractions", "decimal") if name in sys.modules]
        bounds = quiverfold.AlgReal.generator(5).interval()
        print(json.dumps([codes, loaded, [type(x).__name__ for x in bounds]]))
    """
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == [[0, 0, 0, True], [], ["Fraction", "Fraction"]]
