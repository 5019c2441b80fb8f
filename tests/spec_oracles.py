"""References shared by several test files.

The library computes on folded matrices only as coefficient tuples
(``coeff_rows``).  Most functions here are the same computations on
``AlgReal`` values, as the library made them before: the sign of a value,
mutation by the sign formula, the determinant by Laplace expansion, the
inverse by adjugate, the tropical walker's step, and d_F on a
``FoldingSpec``.  A lookup that only the tests ask for follows them,
membership in a root system's positive roots; then ``replace_spec``, a
``FoldingSpec`` with some fields changed.

Then the rational enclosures as ``chebring`` computed them over
``Fraction`` before it ran them on integers: the interval Horner and the
bisections of the isolating interval.  Beside them, the Euclidean embedding
``e_F`` of the dihedral root lattice, with bounds on integers, which the
library kept until ``verify all`` decided its root-of-unity claim in the
ring (``cli.roots_of_unity_hold``).

The categorical ones come last: positive roots of a simply-laced diagram
by integer reflection closure, the Chebyshev factorization of projected
dimension vectors by ``AlgReal`` products, the hammock recursion run from
every module (the library reads the projectives' rows off the dimension
vectors and fills the other rows by the translate), the cluster
category's Hom and Ext tables built entry by entry from the hammock tables
through the orbit formula, with their own translate read off the AR grid
(the library keeps only where Ext vanishes, as grid masks), the minimal
projective presentation of a module solved vertex by vertex (the library
reads g-vectors off the Euler form), the g-vectors and G matrices of
tilting objects read off those presentations, the Euler form, and
classical cluster tilting decided entry by entry from an Ext table.
"""

from fractions import Fraction
import math

from quiverfold import chebring
from quiverfold.chebring import AlgReal, ChebElem, sigma
from quiverfold.exchange import RingValues


def sgn(x) -> int:
    """The sign of an int or an ``AlgReal`` value: -1, 0 or 1."""
    if isinstance(x, AlgReal):
        return x.sign()
    return (x > 0) - (x < 0)


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


def is_positive_root(roots, v) -> bool:
    """Whether ``v``, a vector of ``AlgReal`` values, is in ``roots.positives``."""
    v = tuple(v)
    if len(v) != roots.rank:
        raise ValueError(f"expected a vector of length {roots.rank}")
    return v in roots.positives


def replace_spec(spec, **changes):
    """A copy of the ``FoldingSpec`` ``spec`` with the fields named in ``changes`` changed."""
    fields = {name: getattr(spec, name) for name in spec.__slots__}
    return type(spec)(**{**fields, **changes})


def interval_eval(coeffs, lo: Fraction, hi: Fraction):
    """Interval Horner of a polynomial over [lo, hi], every bound a ``Fraction``."""
    alo, ahi = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(cands) + c, max(cands) + c
    return alo, ahi


def bisections(m: int, depth: int) -> list:
    """The isolating intervals of 2cos(pi/m) after 0..depth bisections.

    Starts from the float seed 2cos(pi/m) -+ 1e-9, read exactly, and keeps
    the half where the minimal polynomial, evaluated over ``Fraction``,
    changes sign.
    """
    seed = 2.0 * math.cos(math.pi / m)
    lo, hi = Fraction(seed - 1e-9), Fraction(seed + 1e-9)
    out = [(lo, hi)]

    def value(x):
        acc = Fraction(0)
        for c in reversed(chebring.minimal_poly(m)):
            acc = acc * x + c
        return acc

    for _ in range(depth):
        mid = (lo + hi) / 2
        if value(mid) == 0:
            quarter = (hi - lo) / 4
            lo, hi = mid - quarter, mid + quarter
        elif value(lo) * value(mid) < 0:
            hi = mid
        else:
            lo = mid
        out.append((lo, hi))
    return out


def _sqrt_bound(num: int, den: int, scale: int, up: int) -> tuple[int, int]:
    """sqrt(num/den), num >= 0 < den, rounded down (up = 0) or up (up = 1) to a multiple
    of 1/(d * scale), d the reduced denominator of num/den; as (numerator, denominator)."""
    k = math.gcd(num, den)
    num, den = num // k, den // k
    return math.isqrt(num * den * scale * scale) + up, den * scale


def _embedding(v, n: int, num: int, den: int):
    """``e_F`` on integers: ((xlo, xhi, xscale), (ylo, yhi, yscale)) for the width num/den."""
    m = 2 * n + 1
    ctx, g = chebring._context(m), AlgReal.generator(m)
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
    num, den = chebring._width(width)
    return tuple(
        (Fraction(lo, scale), Fraction(hi, scale)) for lo, hi, scale in _embedding(v, n, num, den)
    )


def e_F_float(v, n: int) -> tuple[float, float]:
    """The midpoints of ``e_F(v, n)``, each the correctly rounded float of that rational."""
    (xlo, xhi, xscale), (ylo, yhi, yscale) = _embedding(v, n, 1, 10**12)
    return (xlo + xhi) / (2 * xscale), (ylo + yhi) / (2 * yscale)


def simply_laced_positive_roots(nvertices: int, edges) -> frozenset:
    """Positive roots of a simply-laced diagram by integer reflection closure.

    Independent of any Auslander-Reiten machinery: the Gabriel-count oracle
    for the unfolded quivers.
    """
    adj = [[0] * nvertices for _ in range(nvertices)]
    for i, j in edges:
        adj[i][j] = adj[j][i] = 1
    roots = set()
    frontier = []
    for i in range(nvertices):
        v = [0] * nvertices
        v[i] = 1
        frontier.append(tuple(v))
    roots.update(frontier)
    while frontier:
        new = []
        for v in frontier:
            for i in range(nvertices):
                pairing = 2 * v[i] - sum(adj[i][j] * v[j] for j in range(nvertices))
                image = list(v)
                image[i] = v[i] - pairing
                image = tuple(image)
                if image not in roots:
                    roots.add(image)
                    new.append(image)
        frontier = new
    return frozenset(v for v in roots if all(c >= 0 for c in v))


def chebyshev_factors(cat):
    """(factor, columns, generators, dimproj) of a ``FoldedCategory``, by ``AlgReal`` products.

    Each theta_j multiple of each positive root is the tuple of products
    ``AlgReal.chebyshev(m, j) * c`` over the root's entries, and each
    module's projected vector is ``spec.d_F`` of its dimension vector.
    """
    m, n = cat.m, cat.n
    lookup = {}
    for alpha in cat.roots.positives:
        for j in range(n):
            scale = AlgReal.chebyshev(m, j)
            key = tuple(scale * c for c in alpha)
            if key in lookup:
                raise AssertionError("Chebyshev multiples of distinct roots collide")
            lookup[key] = (j, alpha)
    dimproj = tuple(cat.spec.d_F(mod.dim) for mod in cat.ar.modules)
    factor = []
    for ident, vec in enumerate(dimproj):
        if vec not in lookup:
            raise AssertionError(
                f"projected vector of module {ident} is not a Chebyshev multiple of a root"
            )
        factor.append(lookup[vec])
    columns = {}
    for ident, (j, alpha) in enumerate(factor):
        columns.setdefault(alpha, {})[j] = ident
    columns = {alpha: tuple(col[j] for j in range(n)) for alpha, col in columns.items()}
    generators = tuple(ident for ident, (j, _) in enumerate(factor) if j == 0)
    return tuple(factor), columns, generators, dimproj


def hammock_row(ar, source):
    """dim Hom(source, Z) for every module Z of an ``ARQuiver``, by the forward hammock recursion."""
    h = [0] * len(ar.modules)
    for ident in ar.ar_order:
        acc = 1 if ident == source else 0
        for pred in ar.ar_in[ident]:
            acc += h[pred]
        prev = ar.tau[ident]
        if prev is not None:
            acc -= h[prev]
        assert acc >= 0, "hammock recursion went negative"
        h[ident] = acc
    return tuple(h)


def hammock_tables(ar):
    """(hom, ext) of an ``ARQuiver``: one hammock row per module, ext(a, b) = hom(b, tau a)."""
    hom = tuple(hammock_row(ar, a) for a in range(len(ar.modules)))
    ext = tuple(
        tuple(0 if ar.tau[a] is None else hom[b][ar.tau[a]] for b in range(len(hom)))
        for a in range(len(hom))
    )
    return hom, ext


def cluster_translates(cc):
    """(tau, tau^-1 on modules) of a ``ClusterCategory``, read off the AR grid.

    A module at (orbit, slice) has its translates at slices - 1 and + 1,
    or None off the grid.  In the cluster category tau P_v = P_v[1] and
    tau P_v[1] = I_v, so tau is a bijection on all objects.
    """
    ar = cc.mc.ar
    tau = []
    for mod in ar.modules:
        t = ar.grid.get((mod.orbit, mod.slice - 1))
        tau.append(cc.shift_ident(mod.proj_vertex) if t is None else t)
    tau += [ar.inj_module[v] for v in range(cc.nverts)]
    tau_inv = tuple(ar.grid.get((mod.orbit, mod.slice + 1)) for mod in ar.modules)
    return tuple(tau), tau_inv


def oracle_tables(cc, module_tables=hammock_tables):
    """(hom, ext) of a ``ClusterCategory``, entry by entry from the module category's tables.

    ``module_tables(ar)`` gives the module category's (H, E), by default
    the hammock recursion's.  With the translates off the AR grid
    (``cluster_translates``): hom(x, y) = H[x][y] + E[x][tau^-1 y] for
    modules x and y, hom(x, P_w[1]) = E[x][P_w], hom(P_v[1], y) =
    H[P_v][tau^-1 y] and hom(P_v[1], P_w[1]) = H[P_v][P_w], a missing
    translate giving 0; and ext(x, y) = hom(x, tau y).
    """
    ar = cc.mc.ar
    mod_hom, mod_ext = module_tables(ar)
    tau, tau_inv = cluster_translates(cc)

    def hom_c(x, y):
        if cc.is_shift(x):
            v = x - cc.nmod
            if cc.is_shift(y):
                return mod_hom[ar.proj_module[v]][ar.proj_module[y - cc.nmod]]
            ty = tau_inv[y]
            if ty is None:
                return 0
            return mod_hom[ar.proj_module[v]][ty]
        if cc.is_shift(y):
            w = y - cc.nmod
            return mod_ext[x][ar.proj_module[w]]
        total = mod_hom[x][y]
        ty = tau_inv[y]
        if ty is not None:
            total += mod_ext[x][ty]
        return total

    objs = range(len(tau))
    hom = tuple(tuple(hom_c(x, y) for y in objs) for x in objs)
    ext = tuple(tuple(hom[x][tau[y]] for y in objs) for x in objs)
    return hom, ext


def presentation(cc, module):
    """Multiplicities (P0, P1) of the minimal projective presentation of a module of a ``ClusterCategory``.

    P0 is the projective cover: the multiplicity of P_v is dim Hom(M, S_v).
    P1 is solved vertex by vertex in topological order from dim P0 - dim M
    = dim P1, and every multiplicity must come out nonnegative.  The
    library computed g-vectors as P0 - P1 this way before it read them off
    the Euler form.
    """
    ar = cc.mc.ar
    nverts = cc.nverts
    row = ar.hom_row(module)
    tops = tuple(row[ar.simple_module[v]] for v in range(nverts))
    target = [0] * nverts
    for v, mult in enumerate(tops):
        if mult:
            for t, c in enumerate(ar.proj_dims[v]):
                target[t] += mult * c
    for t, c in enumerate(ar.modules[module].dim):
        target[t] -= c
    b = [0] * nverts
    for v in ar._topo:
        need = target[v] - sum(b[w] * ar.proj_dims[w][v] for w in range(nverts) if w != v)
        if need < 0 or target[v] < 0:
            raise AssertionError("projective presentation solve failed")
        b[v] = need
    check = [0] * nverts
    for v, mult in enumerate(b):
        for t, c in enumerate(ar.proj_dims[v]):
            check[t] += mult * c
    if check != target:
        raise AssertionError("projective presentation solve failed")
    return tops, tuple(b)


def g_vector(cc, x):
    """The g-vector of an object of a ``ClusterCategory``: P0 - P1, or -e_v for P_v[1]."""
    if cc.is_shift(x):
        v = x - cc.nmod
        return tuple(-1 if w == v else 0 for w in range(cc.nverts))
    a, b = presentation(cc, x)
    return tuple(ai - bi for ai, bi in zip(a, b))


def g_vector_folded(cc, x):
    """The folded g-vector of an object of a ``ClusterCategory``.

    Entry j is sigma(sum a_v theta_pos) - sigma(sum b_v theta_pos) over the
    members v of block j, pos being v's position in it, where (a, b) is the
    object's presentation, or (0, e_v) for P_v[1].
    """
    n = cc.mc.n
    if cc.is_shift(x):
        v = x - cc.nmod
        a = (0,) * cc.nverts
        b = tuple(1 if w == v else 0 for w in range(cc.nverts))
    else:
        a, b = presentation(cc, x)
    out = []
    for block in cc.spec.blocks:
        r = ChebElem.zero(n)
        s = ChebElem.zero(n)
        for pos, v in enumerate(block):
            if a[v]:
                r = r + a[v] * ChebElem.theta(n, pos)
            if b[v]:
                s = s + b[v] * ChebElem.theta(n, pos)
        out.append(sigma(r) - sigma(s))
    return tuple(out)


def tilting_G_matrices(cc, summands, lifted=g_vector, folded=g_vector_folded):
    """(integer G of the hat object, folded G of the tilting object ``summands``).

    The column of the integer G at unfolded vertex v is the g-vector of the
    member of the summand over F(v) whose Chebyshev index is v's position
    in its block; column j of the folded G is summand j's folded g-vector.
    The g-vectors come from presentations, or from ``lifted(cc, x)`` and
    ``folded(cc, x)`` when given, such as ``ClusterCategory.g_vector`` and
    ``ClusterCategory.g_vector_folded``.
    """
    cols = [None] * cc.nverts
    for j, g in enumerate(summands):
        members = cc.iso_sets[g]
        for pos, v in enumerate(cc.spec.blocks[j]):
            cols[v] = lifted(cc, members[pos])
    G_hat = tuple(tuple(cols[v][w] for v in range(cc.nverts)) for w in range(cc.nverts))
    return G_hat, tuple(zip(*(folded(cc, g) for g in summands)))


def euler_form(ar, d, e) -> int:
    """<d, e> = sum d_i e_i - sum over arrows i -> j of d_i e_j, on the quiver of an ``ARQuiver``."""
    total = sum(di * ei for di, ei in zip(d, e))
    for i, j in ar.arrows:
        total -= d[i] * e[j]
    return total


def is_classical_tilting(ext, objects) -> bool:
    """Basic rigid and maximal among all objects, by a cluster Ext table (``oracle_tables``)."""
    objs = tuple(sorted(objects))
    if len(set(objs)) != len(objs):
        return False
    for a in objs:
        for b in objs:
            if ext[a][b]:
                return False
    inside = set(objs)
    for x in range(len(ext)):
        if x in inside:
            continue
        if all(ext[x][t] == 0 and ext[t][x] == 0 for t in objs):
            return False
    return True
