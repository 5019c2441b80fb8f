"""Exact arithmetic in Chebyshev rings and in Z[2cos(pi/m)].

Two value types live here.

``ChebElem`` is an element of the commutative ring generated by symbols
theta_1, ..., theta_{n-1} (with theta_0 = 1) subject to the second-kind
Chebyshev product rule

    theta_k * theta_l = sum_{j=0..l} theta_{k-l+2j}     (k >= l),

where out-of-range indices are rewritten by theta_0 = 1, theta_{2n} = 0 and
theta_k = theta_{2n-1-k} for k < 2n.  The nonnegative cone (all coordinates
>= 0) is the semiring used for category actions downstream.

``AlgReal`` is an element of Z[2cos(pi/m)], stored as an integer polynomial
reduced modulo the minimal polynomial of 2cos(pi/m).  Equality is exact.
Every bound on a polynomial at the root is one interval-Horner enclosure
(``_interval_eval``), run on integers over the dyadic endpoints of a
bisection of a rational isolating interval that every value with the same
m shares.  ``sign`` takes the bisections in turn until the enclosure
excludes 0, so AlgReal is a computable totally ordered ring;
``interval()`` and ``float()`` take the shallowest bisection that is narrow
enough, so they do not depend on how far earlier work refined it.  The
evaluation homomorphism ``sigma`` sends theta_k to U_k(x/2) mod
minpoly(2n+1) and connects the two types.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
import math
from operator import attrgetter, index, mul as _mul

# ---------------------------------------------------------------------------
# immutable values


class _Frozen:
    """Base of the immutable value classes: the fields are the ``__slots__``.

    ``__init__`` sets them once, through ``_fill``; setting or deleting an
    attribute afterwards is an ``AttributeError``.  ``==`` holds between
    values of one class whose ``_compared`` fields are equal, and ``hash``
    is the hash of the tuple of those fields.  Pickle and copy call the
    class on the ``__slots__`` fields in order; a class whose ``__init__``
    takes other arguments overrides ``__reduce__``.
    """

    __slots__ = ()
    _compared = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if cls._compared:
            cls._key = attrgetter(*cls._compared)

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({fields})"

# ---------------------------------------------------------------------------
# integer polynomials as coefficient tuples (constant term first)

def _poly_trim(c: list[int]) -> tuple[int, ...]:
    end = len(c)
    while end > 0 and c[end - 1] == 0:
        end -= 1
    return tuple(c[:end])


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for j, bj in enumerate(b):
        out[j] += bj
    return _poly_trim(out)


def _poly_sub(a, b):
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for j, bj in enumerate(b):
        out[j] -= bj
    return _poly_trim(out)


def _poly_divmod_exact(a, b):
    """Quotient of two integer polynomials when the division is exact.

    b must be monic or have leading coefficient dividing every intermediate
    remainder (true for cyclotomic factors of z^k - 1).
    """
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        if c % lead != 0:
            raise ArithmeticError("non-exact polynomial division")
        q[i] = c // lead
        if q[i]:
            for j, bj in enumerate(b):
                a[i + j] -= q[i] * bj
    if any(a):
        raise ArithmeticError("non-exact polynomial division")
    return _poly_trim(q)


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> tuple[int, ...]:
    """k-th cyclotomic polynomial, by exact division of z^k - 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    num = [0] * (k + 1)
    num[0], num[k] = -1, 1
    rem = _poly_trim(num)
    for d in range(1, k):
        if k % d == 0:
            rem = _poly_divmod_exact(rem, cyclotomic(d))
    return rem


@lru_cache(maxsize=None)
def minimal_poly(m: int) -> tuple[int, ...]:
    """Minimal polynomial of 2cos(pi/m) over Q, monic with integer coefficients.

    Computed from the cyclotomic polynomial Phi_{2m}(z), which is palindromic
    of even degree d; substituting y = z + 1/z turns z^{-d/2} Phi_{2m}(z)
    into a monic integer polynomial of degree d/2 = phi(2m)/2 whose roots are
    2cos(k pi / m) with gcd(k, 2m) = 1.
    """
    if m < 3:
        raise ValueError("m must be >= 3")
    phi = cyclotomic(2 * m)
    d = len(phi) - 1
    # Phi_{2m} is palindromic, so z^{-d/2} Phi(z) is a polynomial in
    # y = z + 1/z; expand via p_j(y) = z^j + z^{-j}: p_0 = 2, p_1 = y,
    # p_{j+1} = y p_j - p_{j-1}.
    p_prev, p_cur = (2,), (0, 1)
    out = (phi[d // 2],)
    for j in range(1, d // 2 + 1):
        coeff = phi[d // 2 + j]
        if coeff:
            out = _poly_add(out, tuple(coeff * c for c in p_cur))
        p_prev, p_cur = p_cur, _poly_sub(_poly_mul((0, 1), p_cur), p_prev)
    assert len(out) == d // 2 + 1 and out[-1] == 1, "must be monic of degree phi(2m)/2"
    return out


# ---------------------------------------------------------------------------
# AlgReal: Z[2cos(pi/m)] with exact signs


class _RootContext:
    """Per-m data: minimal polynomial, isolating interval and its bisections, and five memos.

    Every polynomial bound is an interval-Horner enclosure over one of the
    ``bisection`` intervals.  The memos are exact, so they outlive every
    ``refine`` and live as long as the context: for the whole process.

    - ``signs`` maps each reduced coefficient tuple whose sign was decided
      to that sign (``_coeff_sign``).
    - ``_mul_rows`` maps a tuple to the rows of its multiplication matrix
      (``mul_matrix``).
    - ``updates`` maps a triple (b_ij, b_ik, |b_kj|) of mutation operands to
      b_ij + b_ik * |b_kj| (``_Updates``), and ``negations`` an operand x to
      -x (``_Negations``).  An operand is an int or a coefficient tuple, as
      ``exchange.mutate_coeffs`` carries it, and so is the value.  Keys are
      representations, not values: ``1`` and ``(1,)`` are different keys,
      as their results differ in type.
    - ``pivots`` maps (pivot row, k) to its split into positive and
      negative columns (``exchange._pivot_columns``).

    In finite type the mutation class is finite, so every memo is bounded;
    otherwise each grows with the distinct operands met, as ``signs`` does.
    """

    def __init__(self, m: int):
        if m < 3:
            raise ValueError("m must be >= 3")
        if m > 10000:
            raise ValueError("m too large for the certified root isolation")
        self.m = m
        self.minpoly = minimal_poly(m)
        self.deg = len(self.minpoly) - 1
        self.lo, self.hi = self._initial_interval()
        self._bisections = [(self.lo, self.hi)]
        self.signs = {}
        self._mul_rows = {}
        self.updates = _Updates(self)
        self.pivots = {}
        self.negations = _Negations()

    def _initial_interval(self) -> tuple[Fraction, Fraction]:
        c = 2.0 * math.cos(math.pi / self.m)
        delta = 1e-9
        lo, hi = Fraction(c - delta), Fraction(c + delta)
        # Nearest conjugate 2cos(k pi/m), k >= 2, is at distance >= 12/m^2;
        # with m <= 1e4 the margin sits far inside that gap, so an exact sign
        # change certifies that [lo, hi] isolates 2cos(pi/m).
        assert Fraction(12, self.m * self.m) > 2 * (hi - lo)
        slo = _sign_at(self.minpoly, lo)
        shi = _sign_at(self.minpoly, hi)
        assert slo * shi < 0, "float seed failed to straddle the root"
        return lo, hi

    def refine(self):
        """Bisect the shared isolating interval once, keeping the half with the root."""
        mid = (self.lo + self.hi) / 2
        smid = _sign_at(self.minpoly, mid)
        if smid == 0:
            # mid is the root itself (only possible for m = 3); nudge.
            quarter = (self.hi - self.lo) / 4
            self.lo, self.hi = mid - quarter, mid + quarter
        elif _sign_at(self.minpoly, self.lo) * smid < 0:
            self.hi = mid
        else:
            self.lo = mid
        self._bisections.append((self.lo, self.hi))

    def bisection(self, depth: int) -> tuple[Fraction, Fraction]:
        """The isolating interval after ``depth`` bisections of the initial one.

        ``refine`` is deterministic, so this is a function of (m, depth)
        alone.  Each interval the shared one has passed through is kept; a
        depth beyond it refines the shared interval to that depth.
        """
        while len(self._bisections) <= depth:
            self.refine()
        return self._bisections[depth]

    def enclosure(self, coeffs, width: Fraction) -> tuple[Fraction, Fraction]:
        """Interval Horner of ``coeffs`` over the shallowest ``bisection`` that is narrow enough.

        The bisections are nested and interval arithmetic is inclusion
        isotonic, so the width does not grow with the depth, and the result
        depends on (m, coeffs, width) alone, not on how far the shared
        interval was refined.  Each bisection about halves a narrow
        enclosure, so the search starts at the depth that halving the
        depth-0 width predicts, and steps from there.
        """

        def box(depth):
            return _interval_eval(coeffs, *self.bisection(depth))

        found = box(0)
        if found[1] - found[0] <= width:
            return found
        ratio = (found[1] - found[0]) / width
        depth = (-(-ratio.numerator // ratio.denominator) - 1).bit_length()  # ceil(log2(ratio))
        too_wide = 0  # the deepest depth known to be too wide
        while True:
            found = box(depth)
            if found[1] - found[0] <= width:
                break
            too_wide, depth = depth, depth + 1
        while depth - 1 > too_wide:
            shallower = box(depth - 1)
            if shallower[1] - shallower[0] > width:
                break
            found, depth = shallower, depth - 1
        return found

    def mul_matrix(self, coeffs) -> tuple[tuple[int, ...], ...]:
        """Matrix of multiplication by a = ``coeffs`` on the basis 1, x, ..., x^(deg-1).

        Row s, column t holds coefficient s of x^t * a mod the minimal
        polynomial, so coefficient s of a * b is the integer dot product of
        row s with b's coefficients, reduced as it stands.  Column t+1 is
        column t shifted up one degree, with its top coefficient folded
        back by the monic minimal polynomial.  Memoized per tuple in
        ``_mul_rows``.
        """
        rows = self._mul_rows.get(coeffs)
        if rows is None:
            col = list(coeffs) + [0] * (self.deg - len(coeffs))
            cols = [col]
            for _ in range(self.deg - 1):
                top = col[-1]
                col = [0] + col[:-1]
                if top:
                    col = [c - top * p for c, p in zip(col, self.minpoly)]
                cols.append(col)
            rows = self._mul_rows[coeffs] = tuple(zip(*cols))
        return rows


class _Updates(dict):
    """b_ij + b_ik * b for a key (b_ij, b_ik, b) of ints and coefficient tuples, made on first use.

    The value is an int exactly when all three are, as in ``AlgReal``
    arithmetic.  Otherwise it is a reduced coefficient tuple: coefficient s
    of the product is the integer dot product of row s of b's
    multiplication matrix (``_RootContext.mul_matrix``) with b_ik's
    coefficients, reduced as it stands.
    """

    def __init__(self, ctx: _RootContext):
        super().__init__()
        self.ctx = ctx

    def __missing__(self, key):
        b_ij, b_ik, b = key
        if type(b_ij) is int and type(b_ik) is int and type(b) is int:
            value = b_ij + b_ik * b
        else:
            a = (b_ik,) if type(b_ik) is int else b_ik
            acc = [sum(map(_mul, r, a)) for r in self.ctx.mul_matrix((b,) if type(b) is int else b)]
            for t, c in enumerate((b_ij,) if type(b_ij) is int else b_ij):
                acc[t] += c
            while acc and not acc[-1]:
                acc.pop()
            value = tuple(acc)
        self[key] = value
        return value


class _Negations(dict):
    """-x for an int or coefficient tuple x, in the same form, made on first use."""

    def __missing__(self, x):
        value = self[x] = -x if type(x) is int else tuple([-c for c in x])
        return value


def _coeff_sign(ctx: _RootContext, coeffs) -> int:
    """Exact sign at 2cos(pi/ctx.m) of a reduced coefficient tuple, memoized.

    The context's ``signs`` memo answers a tuple met before, with no
    arithmetic and no ``refine``.  A first evaluation is ``_enclosure_sign``,
    so it refines exactly as it would without the memo.
    ``AlgReal.sign``, ``exchange.mutate_coeffs``, the unfolding conditions
    and the tropical roots check all share the memo.
    """
    sign = ctx.signs.get(coeffs)
    if sign is None:
        sign = ctx.signs[coeffs] = _enclosure_sign(ctx, coeffs)
    return sign


def _enclosure_sign(ctx: _RootContext, coeffs) -> int:
    """``_coeff_sign`` without the memo: interval Horner over ``ctx.bisection(depth)``
    for depth = 0, 1, 2, ..., until an enclosure excludes 0."""
    if not coeffs:
        return 0
    depth = 0
    while True:
        lower, upper = _interval_eval(coeffs, *ctx.bisection(depth))
        if lower > 0:
            return 1
        if upper < 0:
            return -1
        depth += 1


def _sign_at(coeffs, x: Fraction) -> int:
    """Sign of the polynomial at x: the exact value is the enclosure over [x, x]."""
    value = _interval_eval(coeffs, x, x)[0]
    return (value > 0) - (value < 0)


def _interval_eval(coeffs, lo: Fraction, hi: Fraction):
    """Rigorous enclosure of the polynomial over [lo, hi] (interval Horner).

    Runs on integers: with D the common denominator of lo and hi (a power of
    two for the bisection endpoints), the bounds after k steps are kept
    times D^k > 0, so each min and max picks the product it picks over Q.
    """
    den = math.lcm(lo.denominator, hi.denominator)
    L, H = int(lo * den), int(hi * den)
    alo = ahi = 0
    scale = 1
    for c in reversed(coeffs):
        scale *= den
        cands = (alo * L, alo * H, ahi * L, ahi * H)
        alo, ahi = min(cands) + c * scale, max(cands) + c * scale
    return Fraction(alo, scale), Fraction(ahi, scale)


_ROOT_CONTEXTS: dict[int, _RootContext] = {}


def _context(m: int) -> _RootContext:
    ctx = _ROOT_CONTEXTS.get(m)
    if ctx is None:
        ctx = _RootContext(m)
        _ROOT_CONTEXTS[m] = ctx
    return ctx


class AlgReal(_Frozen):
    """An element of Z[2cos(pi/m)], reduced mod the minimal polynomial."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs=()):
        ctx = _context(m)
        # a float or a string is a TypeError, as in ChebElem
        coeffs = tuple(map(index, coeffs))
        if len(coeffs) > ctx.deg:
            coeffs = _reduce_mod(ctx, coeffs)
        # set directly rather than by _fill: AlgReal values are made in inner loops
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", _poly_trim(list(coeffs)))

    # -- constructors -------------------------------------------------
    @staticmethod
    def generator(m: int) -> "AlgReal":
        """The element 2cos(pi/m) itself."""
        return AlgReal(m, (0, 1))

    @staticmethod
    def chebyshev(m: int, k: int) -> "AlgReal":
        """U_k(x/2) mod minpoly(m): the image of theta_k when m = 2n+1."""
        if k < 0:
            raise ValueError("k must be >= 0")
        prev, cur = AlgReal(m, (1,)), AlgReal(m, (0, 1))
        if k == 0:
            return prev
        for _ in range(k - 1):
            prev, cur = cur, AlgReal.generator(m) * cur - prev
        return cur

    # -- ring operations ----------------------------------------------
    def _check(self, other):
        if self.m != other.m:
            raise ValueError(f"mixed fields Z[2cos(pi/{self.m})] and Z[2cos(pi/{other.m})]")

    def __add__(self, other):
        if isinstance(other, int):
            other = AlgReal(self.m, (other,))
        self._check(other)
        return AlgReal(self.m, _poly_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = AlgReal(self.m, (other,))
        self._check(other)
        return AlgReal(self.m, _poly_sub(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        return AlgReal(self.m, (other,)) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return AlgReal(self.m, tuple(other * c for c in self.coeffs))
        self._check(other)
        return AlgReal(self.m, _poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __neg__(self):
        return AlgReal(self.m, tuple(-c for c in self.coeffs))

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return isinstance(other, AlgReal) and self.m == other.m and self.coeffs == other.coeffs

    def __hash__(self):
        # an integer constant equals that int, so it must hash like it
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash((self.m, self.coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def sign(self) -> int:
        """Exact sign of the real value at 2cos(pi/m) (see ``_coeff_sign``)."""
        return _coeff_sign(_context(self.m), self.coeffs)

    def __lt__(self, other):
        if isinstance(other, int):
            other = AlgReal(self.m, (other,))
        return (self - other).sign() < 0

    def __le__(self, other):
        if isinstance(other, int):
            other = AlgReal(self.m, (other,))
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def interval(self, width: Fraction = Fraction(1, 10**12)):
        """Rational enclosure [lo, hi] of the real value, of width <= width.

        Interval Horner, on integers (``_interval_eval``), over the
        shallowest bisection of the initial isolating interval that makes it
        narrow enough (``_RootContext.enclosure``), so the enclosure, and
        ``float()``, do not depend on what the process computed before.
        """
        return _context(self.m).enclosure(self.coeffs, width)

    def __float__(self):
        lo, hi = self.interval(Fraction(1, 10**15))
        return float((lo + hi) / 2)

    def __repr__(self):
        return f"AlgReal(m={self.m}, {list(self.coeffs)})"

    def to_json(self):
        return {"m": self.m, "coeffs": list(self.coeffs)}

    @staticmethod
    def from_json(obj) -> "AlgReal":
        return AlgReal(obj["m"], _json_coeffs(obj))


def _reduce_mod(ctx: _RootContext, coeffs):
    """Synthetic division by the monic minimal polynomial; returns the remainder."""
    out = list(coeffs)
    mp, d = ctx.minpoly, ctx.deg
    for i in range(len(out) - 1, d - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(d):
                out[i - d + j] -= c * mp[j]
    return tuple(out[:d])


# ---------------------------------------------------------------------------
# ChebElem: the ring Z[theta_1, ..., theta_{n-1}]


def _reduce_theta_index(i: int, n: int) -> int | None:
    """Rewrite theta_i into the basis range 0..n-1; None means theta_i = 0."""
    if i < 0:
        raise ValueError("negative Chebyshev index")
    if i <= n - 1:
        return i
    if i == 2 * n:
        return None
    if i < 2 * n:
        return 2 * n - 1 - i
    raise ValueError(f"index {i} outside the rewriting range for n={n}")


@lru_cache(maxsize=None)
def _basis_product(n: int, k: int, l: int) -> tuple[int, ...]:
    """Coefficient vector of theta_k * theta_l in the basis theta_0..theta_{n-1}."""
    if k < l:
        k, l = l, k
    out = [0] * n
    for j in range(l + 1):
        idx = _reduce_theta_index(k - l + 2 * j, n)
        if idx is not None:
            out[idx] += 1
    return tuple(out)


class ChebElem(_Frozen):
    """Element sum a_i theta_i of the rank-n Chebyshev ring (theta_0 = 1)."""

    __slots__ = _compared = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple[int, ...]):
        if n < 2:
            raise ValueError("rank parameter n must be >= 2")
        if len(coeffs) != n:
            raise ValueError(f"expected {n} coefficients, got {len(coeffs)}")
        self._fill(n, tuple(map(index, coeffs)))

    # -- constructors -------------------------------------------------
    @staticmethod
    def theta(n: int, k: int) -> "ChebElem":
        """The basis symbol theta_k (a symbol outside 0..n-1 is rewritten)."""
        out = [0] * n
        idx = _reduce_theta_index(k, n)
        if idx is not None:
            out[idx] = 1
        return ChebElem(n, tuple(out))

    @staticmethod
    def zero(n: int) -> "ChebElem":
        return ChebElem(n, (0,) * n)

    @staticmethod
    def one(n: int) -> "ChebElem":
        return ChebElem.theta(n, 0)

    # -- ring operations ----------------------------------------------
    def _check(self, other: "ChebElem"):
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "ChebElem") -> "ChebElem":
        self._check(other)
        return ChebElem(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ChebElem") -> "ChebElem":
        self._check(other)
        return ChebElem(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "ChebElem":
        return ChebElem(self.n, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return ChebElem(self.n, tuple(other * a for a in self.coeffs))
        return cheb_mul(self, other)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def in_semiring(self) -> bool:
        """Whether the element lies in the nonnegative cone."""
        return all(c >= 0 for c in self.coeffs)

    def sign_coherent(self) -> bool:
        """No two coefficients of strictly opposite sign (zeros are neutral)."""
        return not (any(c > 0 for c in self.coeffs) and any(c < 0 for c in self.coeffs))

    def to_json(self):
        return {"n": self.n, "coeffs": list(self.coeffs)}

    @staticmethod
    def from_json(obj) -> "ChebElem":
        return ChebElem(obj["n"], _json_coeffs(obj))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*t{i}" if i else str(c))
        return "ChebElem(0)" if not terms else "ChebElem(" + " + ".join(terms) + ")"


def _json_coeffs(obj) -> tuple:
    """``obj["coeffs"]`` as a tuple; a coefficient that is no int (or a bool) is a ValueError."""
    coeffs = tuple(obj["coeffs"])
    for c in coeffs:
        if type(c) is not int:
            raise ValueError(f"coefficient {c!r} is not an integer")
    return coeffs


def json_value(x):
    """``x.to_json()`` for a ring value (``AlgReal`` or ``ChebElem``), else ``x``."""
    return x.to_json() if isinstance(x, (AlgReal, ChebElem)) else x


def cheb_mul(a: ChebElem, b: ChebElem) -> ChebElem:
    """Product in the Chebyshev ring, rewritten into the canonical basis."""
    if a.n != b.n:
        raise ValueError(f"rank mismatch: {a.n} vs {b.n}")
    return ChebElem(a.n, _cheb_mul_coeffs(a.n, a.coeffs, b.coeffs))


def _cheb_mul_coeffs(n: int, a, b) -> tuple[int, ...]:
    """``cheb_mul`` on the coefficient tuples of two rank-n elements."""
    out = [0] * n
    for k, ak in enumerate(a):
        if not ak:
            continue
        for l, bl in enumerate(b):
            if not bl:
                continue
            c = ak * bl
            for i, p in enumerate(_basis_product(n, k, l)):
                if p:
                    out[i] += c * p
    return tuple(out)


@lru_cache(maxsize=None)
def reg_rep(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of multiplication by theta_k on the basis theta_0..theta_{n-1}.

    Column j holds the coefficient vector of theta_k * theta_j; entries are
    0 or 1 and the matrix is symmetric.
    """
    if n < 2:
        raise ValueError("rank parameter n must be >= 2")
    if not 0 <= k <= n - 1:
        raise ValueError(f"index k={k} out of range 0..{n - 1}")
    cols = [_basis_product(n, k, j) for j in range(n)]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def rho(r: ChebElem) -> tuple[tuple[int, ...], ...]:
    """Regular representation of an arbitrary ring element."""
    n = r.n
    out = [[0] * n for _ in range(n)]
    for k, c in enumerate(r.coeffs):
        if c:
            mat = reg_rep(k, n)
            for i in range(n):
                for j in range(n):
                    out[i][j] += c * mat[i][j]
    return tuple(tuple(row) for row in out)


def sigma(a: ChebElem) -> AlgReal:
    """Evaluation homomorphism theta_k -> U_k(cos pi/(2n+1)) into Z[2cos(pi/(2n+1))].

    Sums c_k U_k(x/2) as integer polynomials, with U_(k+1) = x U_k - U_(k-1),
    and reduces once, in the one ``AlgReal`` it makes.
    """
    acc = [0] * len(a.coeffs)
    prev, cur = (), (1,)
    for c in a.coeffs:
        for i, u in enumerate(cur):
            acc[i] += c * u
        prev, cur = cur, _poly_sub((0,) + cur, prev)
    return AlgReal(2 * a.n + 1, acc)


def semiring_leq(r: ChebElem, s: ChebElem) -> bool:
    """The partial order on the semiring: r <= s iff r == s or value(r) < value(s)."""
    if r == s:
        return True
    return (sigma(s) - sigma(r)).sign() > 0


def equal_in_evaluation(a: ChebElem, b: ChebElem) -> bool:
    """Equality after evaluation in Z[2cos(pi/(2n+1))].

    Distinct from coefficient-wise equality: the evaluation has a kernel for
    some n (e.g. n = 4, where theta_3 and theta_0 + theta_1 collapse).
    """
    return (sigma(a) - sigma(b)).is_zero()
