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
(``_interval_eval``) over a bisection of a dyadic isolating interval that
every value with the same m shares.  Both are integers over a power-of-two
scale: a bisection is (L, H, D) for [L/D, H/D], an enclosure (alo, ahi,
scale) for [alo/scale, ahi/scale].  ``sign`` takes the bisections in turn
until the enclosure excludes 0, so AlgReal is a computable totally ordered
ring; ``interval()`` and ``float()`` take the shallowest bisection that is
narrow enough, so they do not depend on how far earlier work refined it.
Only ``interval()`` builds ``Fraction``s, so only it imports ``fractions``.
The evaluation homomorphism ``sigma`` sends theta_k to U_k(x/2) mod
minpoly(2n+1) and connects the two types.
"""

from __future__ import annotations

from functools import lru_cache, partial
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

    An interval [L/D, H/D] is kept as the integer triple (L, H, D), with D
    a power of two, and every polynomial bound is an interval-Horner
    enclosure over one of the ``bisection`` intervals.  The memos are
    ``Memo`` tables, each entry computed from its key on first read.  They
    are exact, so they outlive every ``refine`` and live as long as the
    context: for the whole process.

    - ``signs`` maps each reduced coefficient tuple whose sign was decided
      to that sign (``_coeff_sign``, by ``_enclosure_sign``).
    - ``_mul_rows`` maps a tuple to the rows of its multiplication matrix
      (``mul_matrix``).
    - ``updates`` maps a triple (acc, x, y) of operands to acc + x * y
      (``_multiply_add``), and ``negations`` an operand x to -x
      (``_negate``): mutation's (b_ij, b_ik, |b_kj|) and the terms of
      ``tropical.mat_mul`` and ``tropical.det_laplace``.  An operand is an
      int or a coefficient tuple, as ``exchange.mutate_coeffs`` carries it,
      and so is the value.  Keys are representations, not values: ``1`` and
      ``(1,)`` are different keys, as their results differ in type.
    - ``pivots`` maps (pivot row, k) to its split into positive and
      negative columns (``_pivot_split``), for ``exchange.mutate_coeffs``
      and ``tropical._mutate_g``.

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
        self._bisections = [self._initial_interval()]
        self.signs = Memo(partial(_enclosure_sign, self))
        self._mul_rows = Memo(self._multiplication_rows)
        self.updates = Memo(partial(_multiply_add, self.times))
        self.pivots = Memo(partial(_pivot_split, self))
        self.negations = Memo(_negate)

    def _initial_interval(self) -> tuple[int, int, int]:
        c = 2.0 * math.cos(math.pi / self.m)
        delta = 1e-9
        (ln, ld), (hn, hd) = (c - delta).as_integer_ratio(), (c + delta).as_integer_ratio()
        den = max(ld, hd)  # both are powers of two
        lo, hi = ln * (den // ld), hn * (den // hd)
        # Nearest conjugate 2cos(k pi/m), k >= 2, is at distance >= 12/m^2;
        # with m <= 1e4 the margin sits far inside that gap, so an exact sign
        # change certifies that [lo, hi] / den isolates 2cos(pi/m).
        assert 12 * den > 2 * (hi - lo) * self.m * self.m
        self._low_sign = _sign_at(self.minpoly, lo, den)
        shi = _sign_at(self.minpoly, hi, den)
        assert self._low_sign * shi < 0, "float seed failed to straddle the root"
        return lo, hi, den

    def refine(self):
        """Bisect the shared isolating interval once, keeping the half with the root.

        The minimal polynomial's sign at the lower end never changes, as the
        root stays strictly inside, so it is the one taken at the seed.
        """
        lo, hi, den = self._bisections[-1]
        mid = lo + hi  # over 2 den
        # No midpoint is the root: it is irrational unless m = 3, and there
        # lo + hi - 2 den, odd at the seed, changes by an even number per
        # bisection, so mid / 2 den is never 1.
        if self._low_sign * _sign_at(self.minpoly, mid, 2 * den) < 0:
            lo, hi, den = 2 * lo, mid, 2 * den
        else:
            lo, hi, den = mid, 2 * hi, 2 * den
        # the least power of two that is a common denominator, as a reduced
        # rational pair has it
        shift = min(((lo | hi) & -(lo | hi)).bit_length(), den.bit_length()) - 1
        self._bisections.append((lo >> shift, hi >> shift, den >> shift))

    def bisection(self, depth: int) -> tuple[int, int, int]:
        """The isolating interval after ``depth`` bisections of the initial one, as (L, H, D).

        ``refine`` is deterministic, so this is a function of (m, depth)
        alone.  Each interval the shared one has passed through is kept; a
        depth beyond it refines the shared interval to that depth.
        """
        while len(self._bisections) <= depth:
            self.refine()
        return self._bisections[depth]

    def enclosure(self, coeffs, num: int, den: int) -> tuple[int, int, int]:
        """Interval Horner of ``coeffs`` over the shallowest ``bisection`` of width <= num/den.

        The bisections are nested and interval arithmetic is inclusion
        isotonic, so the width does not grow with the depth, and the result
        depends on (m, coeffs, width) alone, not on how far the shared
        interval was refined.  Each bisection about halves a narrow
        enclosure, so the search starts at the depth that halving the
        depth-0 width predicts, and steps from there.  Returns
        ``_interval_eval``'s (alo, ahi, scale).
        """

        def box(depth):
            return _interval_eval(coeffs, *self.bisection(depth))

        def too_wide(found):
            alo, ahi, scale = found
            return (ahi - alo) * den > num * scale

        found = box(0)
        if not too_wide(found):
            return found
        alo, ahi, scale = found
        ratio = -(-(ahi - alo) * den // (num * scale))  # ceil(depth-0 width / width)
        depth = (ratio - 1).bit_length()  # ceil(log2(ratio))
        wide = 0  # the deepest depth known to be too wide
        while True:
            found = box(depth)
            if not too_wide(found):
                break
            wide, depth = depth, depth + 1
        while depth - 1 > wide:
            shallower = box(depth - 1)
            if too_wide(shallower):
                break
            found, depth = shallower, depth - 1
        return found

    def mul_matrix(self, coeffs) -> tuple[tuple[int, ...], ...]:
        """Matrix of multiplication by a = ``coeffs`` on the basis 1, x, ..., x^(deg-1).

        Row s, column t holds coefficient s of x^t * a mod the minimal
        polynomial, so coefficient s of a * b is the integer dot product of
        row s with b's coefficients, reduced as it stands.  Memoized per
        tuple in ``_mul_rows``.
        """
        return self._mul_rows[coeffs]

    def _multiplication_rows(self, coeffs):
        """``mul_matrix`` unmemoized: column t+1 is column t shifted up one
        degree, its top coefficient folded back by the monic minimal polynomial."""
        col = list(coeffs) + [0] * (self.deg - len(coeffs))
        cols = [col]
        for _ in range(self.deg - 1):
            top = col[-1]
            col = [0] + col[:-1]
            if top:
                col = [c - top * p for c, p in zip(col, self.minpoly)]
            cols.append(col)
        return tuple(zip(*cols))

    def times(self, a, b) -> list[int]:
        """The coefficients of a * b, reduced: integer dot products of b's ``mul_matrix`` rows with a."""
        return [sum(map(_mul, r, a)) for r in self.mul_matrix(b)]


class Memo(dict):
    """A table whose missing entry is ``compute(key)``, stored on first read.

    A hit is a plain dict subscript; a miss calls ``compute`` once for its
    key.  Every exact result the verifier keeps by key is read from one:
    the per-m memos of ``_RootContext``, ``exchange.RingValues``, the
    tropical walker's verdicts and the category's g-vectors.  ``rows``
    reads every entry of a matrix.  Pickle and copy keep the entries and
    ``compute``, so a Memo that a pickled value carries needs a picklable
    ``compute``: a ``partial`` of a module-level function, not a lambda.
    """

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value

    def rows(self, rows) -> tuple:
        """``rows`` with each entry x replaced by ``self[x]``."""
        value = self.__getitem__
        return tuple(tuple(map(value, row)) for row in rows)


def _multiply_add(times, key):
    """acc + x * y for a key (acc, x, y) of ints and coefficient tuples.

    ``times(a, b)`` is the ring product of two coefficient tuples as a
    list (``_RootContext.times``, or ``_cheb_mul_coeffs`` in
    ``_cheb_memos``).  The value is an int exactly when all three are, as
    in ``AlgReal`` arithmetic; otherwise a tuple with its trailing zeros
    trimmed.
    """
    acc, x, y = key
    if type(acc) is int and type(x) is int and type(y) is int:
        return acc + x * y
    out = list(times((x,) if type(x) is int else x, (y,) if type(y) is int else y))
    for t, c in enumerate((acc,) if type(acc) is int else acc):
        out[t] += c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _negate(x):
    """-x for an int or coefficient tuple x, in the same form."""
    return -x if type(x) is int else tuple([-c for c in x])


def _coeff_sign(ctx: _RootContext, coeffs) -> int:
    """Exact sign at 2cos(pi/ctx.m) of a reduced coefficient tuple, memoized.

    The context's ``signs`` memo answers a tuple met before, with no
    arithmetic and no ``refine``.  A first evaluation is ``_enclosure_sign``,
    so it refines exactly as it would without the memo.
    ``AlgReal.sign``, ``exchange.mutate_coeffs``, the unfolding conditions
    and the tropical roots check all share the memo.
    """
    return ctx.signs[coeffs]


def _sign(ctx, x) -> int:
    """The sign of an int, or of a coefficient tuple over ``ctx`` (``_coeff_sign``)."""
    return (x > 0) - (x < 0) if type(x) is int else _coeff_sign(ctx, x)


def _pivot_split(ctx, key):
    """For a key (pivot_row, k): the columns j != k with b_kj > 0 and with b_kj < 0, each as (j, |b_kj|).

    |b_kj| keeps the representation of b_kj, an int or a coefficient tuple.
    The context's ``pivots`` memo keeps each split; with ``ctx`` None every
    entry must be an int.
    """
    pivot_row, k = key
    pos, neg = [], []
    for j, b in enumerate(pivot_row):
        s = _sign(ctx, b)
        if s and j != k:
            (pos if s > 0 else neg).append((j, b if s > 0 else _negate(b)))
    return tuple(pos), tuple(neg)


def _enclosure_sign(ctx: _RootContext, coeffs) -> int:
    """``_coeff_sign`` without the memo: interval Horner over ``ctx.bisection(depth)``
    for depth = 0, 1, 2, ..., until an enclosure excludes 0."""
    if not coeffs:
        return 0
    depth = 0
    while True:
        lower, upper, _ = _interval_eval(coeffs, *ctx.bisection(depth))
        if lower > 0:
            return 1
        if upper < 0:
            return -1
        depth += 1


def _sign_at(coeffs, num: int, den: int) -> int:
    """Sign of the polynomial at x = num/den, den > 0: the enclosure over [x, x] is exact."""
    value = _interval_eval(coeffs, num, num, den)[0]
    return (value > 0) - (value < 0)


def _interval_eval(coeffs, lo: int, hi: int, den: int) -> tuple[int, int, int]:
    """Rigorous enclosure of the polynomial over [lo/den, hi/den] (interval Horner), den > 0.

    Runs on integers: the bounds after k steps are kept times den^k > 0, so
    each min and max picks the product it picks over Q.  Returns (alo, ahi,
    scale): the enclosure is [alo/scale, ahi/scale], scale = den^len(coeffs).
    """
    alo = ahi = 0
    scale = 1
    for c in reversed(coeffs):
        scale *= den
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(cands) + c * scale, max(cands) + c * scale
    return alo, ahi, scale


def _width(width) -> tuple[int, int]:
    """A width for ``interval()`` (None: 10^-12) as (numerator, denominator).

    A width that is not positive is a ``ValueError``.
    """
    if width is None:
        return 1, 10**12
    from fractions import Fraction

    width = Fraction(width)
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return width.numerator, width.denominator


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
    def _operand(self, other):
        """``other`` as an ``AlgReal`` of this field, an int as a constant; None for another type.

        The operators return NotImplemented for None, so an operand the ring
        does not take is a ``TypeError``.  Two different fields are a
        ``ValueError``.
        """
        if isinstance(other, int):
            return AlgReal(self.m, (other,))
        if not isinstance(other, AlgReal):
            return None
        if self.m != other.m:
            raise ValueError(f"mixed fields Z[2cos(pi/{self.m})] and Z[2cos(pi/{other.m})]")
        return other

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return AlgReal(self.m, _poly_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return AlgReal(self.m, _poly_sub(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other):
        if isinstance(other, int):
            return AlgReal(self.m, tuple(other * c for c in self.coeffs))
        other = self._operand(other)
        if other is None:
            return NotImplemented
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

    def _compare(self, other, signs):
        """Whether the sign of self - other is one of ``signs``; NotImplemented for another type."""
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() in signs

    def __lt__(self, other):
        return self._compare(other, (-1,))

    def __le__(self, other):
        return self._compare(other, (-1, 0))

    def __gt__(self, other):
        return self._compare(other, (1,))

    def __ge__(self, other):
        return self._compare(other, (0, 1))

    def interval(self, width=None):
        """Rational enclosure [lo, hi] of the real value, of width <= width (default 10^-12).

        Interval Horner, on integers (``_interval_eval``), over the
        shallowest bisection of the initial isolating interval that makes it
        narrow enough (``_RootContext.enclosure``), so the enclosure, and
        ``float()``, do not depend on what the process computed before.
        The bounds are ``Fraction``s; a width that is not positive is a
        ``ValueError``.
        """
        from fractions import Fraction

        num, den = _width(width)
        lo, hi, scale = _context(self.m).enclosure(self.coeffs, num, den)
        return Fraction(lo, scale), Fraction(hi, scale)

    def __float__(self):
        # the midpoint of a width-10^-15 enclosure; int / int is correctly
        # rounded, as Fraction's float() of that midpoint is
        lo, hi, scale = _context(self.m).enclosure(self.coeffs, 1, 10**15)
        return (lo + hi) / (2 * scale)

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
def _cheb_memos(n: int) -> tuple[Memo, Memo]:
    """A field's ``updates`` and ``negations`` memos over the rank-n Chebyshev ring, for the whole process.

    Products are ``_cheb_mul_coeffs``; ``tropical.det_cheb`` reads them.
    """
    return Memo(partial(_multiply_add, partial(_cheb_mul_coeffs, n))), Memo(_negate)


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
    def _takes(self, other) -> bool:
        """Whether ``other`` is a ``ChebElem``, which must be of this rank; the
        operators return NotImplemented for any other type."""
        if not isinstance(other, ChebElem):
            return False
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")
        return True

    def __add__(self, other: "ChebElem") -> "ChebElem":
        if not self._takes(other):
            return NotImplemented
        return ChebElem(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ChebElem") -> "ChebElem":
        if not self._takes(other):
            return NotImplemented
        return ChebElem(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "ChebElem":
        return ChebElem(self.n, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return ChebElem(self.n, tuple(other * a for a in self.coeffs))
        if not isinstance(other, ChebElem):
            return NotImplemented
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
