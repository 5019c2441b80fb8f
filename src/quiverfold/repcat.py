"""Auslander-Reiten quivers of the unfolded Dynkin quivers and the folded
structure they carry.

``ARQuiver`` knits the AR quiver of an acyclic simply-laced Dynkin
orientation from its projectives: modules are identified with their
dimension vectors, arranged on a grid (orbit, slice) where slice 0 holds
the projectives and each further slice applies the inverse translate by
the mesh rule, so ``tau`` maps each module to the one a slice before it.
The Hom table reads the projectives' rows off the dimension vectors and
fills every other row by the translate (``hom_row``); ``hom_ext_tables``
reads Ext off it by Ext^1(a, b) = Hom(b, tau a), so no linear algebra over
the base field is ever needed.  Only ``ar build --tables`` reads these
tables: the cluster category decides rigidity from Ext-vanishing masks on
the same grid (``clustercat``).

``FoldedCategory`` adds the data of a weighted folding: projected
dimension vectors, the factorization of every indecomposable as a
Chebyshev multiple of a generator, the semiring action on iso-class
multisets, minimal generator sets, and the theorem-level verification
report.  The projected vectors are knitted as the dimension vectors are:
d_F is linear and dimension vectors are additive on every mesh
(dim X + dim tau^-1 X = sum of dim E over the middle terms), so only the
projectives are projected, every other module's integer key is the sum
over its mesh minus its translate's, and the keys become ring values only
when ``dimproj`` is read.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from operator import add, neg

from .chebring import AlgReal, ChebElem, Memo, _context, _Frozen, _poly_trim, cheb_mul
from .exchange import RingValues
from .rootsys import root_system
from .unfolding import FoldingSpec


class IndecClass(_Frozen):
    """An indecomposable, identified by its dimension vector and grid spot."""

    __slots__ = _compared = ("ident", "dim", "orbit", "slice", "proj_vertex", "inj_vertex")

    def __init__(
        self, ident: int, dim: tuple, orbit: int, slice: int, proj_vertex: int | None,
        inj_vertex: int | None,
    ):
        self._fill(ident, dim, orbit, slice, proj_vertex, inj_vertex)


class ARQuiver:
    def __init__(self, nvertices: int, arrows):
        self.nvertices = nvertices
        self.arrows = tuple(arrows)
        out_adj = [[] for _ in range(nvertices)]
        in_adj = [[] for _ in range(nvertices)]
        for i, j in self.arrows:
            out_adj[i].append(j)
            in_adj[j].append(i)
        self.out_adj = tuple(map(tuple, out_adj))
        self.in_adj = tuple(map(tuple, in_adj))
        self._topo = self._toposort()
        self._rpos = {v: k for k, v in enumerate(reversed(self._topo))}
        self.proj_dims = tuple(self._paths_from(v) for v in range(nvertices))
        self.inj_dims = tuple(self._paths_to(v) for v in range(nvertices))
        self._knit()
        self._hom = None

    # -- underlying quiver helpers --------------------------------------
    def _toposort(self):
        indeg = [len(self.in_adj[v]) for v in range(self.nvertices)]
        stack = sorted(v for v in range(self.nvertices) if indeg[v] == 0)
        order = []
        while stack:
            v = stack.pop()
            order.append(v)
            for w in self.out_adj[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    stack.append(w)
        if len(order) != self.nvertices:
            raise ValueError("quiver must be acyclic")
        return order

    def _paths_from(self, v):
        counts = [0] * self.nvertices
        counts[v] = 1
        for w in self._topo:
            if counts[w]:
                for u in self.out_adj[w]:
                    counts[u] += counts[w]
        return tuple(counts)

    def _paths_to(self, v):
        counts = [0] * self.nvertices
        counts[v] = 1
        for w in reversed(self._topo):
            if counts[w]:
                for u in self.in_adj[w]:
                    counts[u] += counts[w]
        return tuple(counts)

    # -- knitting --------------------------------------------------------
    def _knit(self):
        inj_lookup = {self.inj_dims[v]: v for v in range(self.nvertices)}
        if len(inj_lookup) != self.nvertices:
            raise AssertionError("injective dimension vectors must be distinct")
        modules: list[IndecClass] = []
        grid: dict[tuple[int, int], int] = {}

        def place(orbit, m, dim):
            ident = len(modules)
            modules.append(
                IndecClass(
                    ident,
                    dim,
                    orbit,
                    m,
                    proj_vertex=orbit if m == 0 else None,
                    inj_vertex=inj_lookup.get(dim),
                )
            )
            grid[(orbit, m)] = ident

        for v in range(self.nvertices):
            place(v, 0, self.proj_dims[v])

        order = list(reversed(self._topo))  # sinks first
        m = 1
        while True:
            added = False
            for i in order:
                prev = grid.get((i, m - 1))
                if prev is None or modules[prev].inj_vertex is not None:
                    continue
                dim = map(neg, modules[prev].dim)
                middle = [(j, m) for j in self.out_adj[i]] + [(j, m - 1) for j in self.in_adj[i]]
                for spot in middle:
                    term = grid.get(spot)
                    if term is None:
                        raise AssertionError("mesh neighbour missing during knitting")
                    dim = map(add, dim, modules[term].dim)
                dim = tuple(dim)
                if min(dim) < 0 or not any(dim):
                    raise AssertionError("knitting produced a non-positive vector")
                place(i, m, dim)
                added = True
            if not added:
                break
            m += 1

        matched = [mod for mod in modules if mod.inj_vertex is not None]
        if len(matched) != self.nvertices:
            raise AssertionError("every tau-orbit must end at a distinct injective")
        self.modules = tuple(modules)
        self.grid = grid
        # the translate of each module, None for a projective
        self.tau = tuple(grid.get((mod.orbit, mod.slice - 1)) for mod in modules)
        self.proj_module = {v: grid[(v, 0)] for v in range(self.nvertices)}
        self.inj_module = {
            mod.inj_vertex: mod.ident for mod in modules if mod.inj_vertex is not None
        }
        self.dim_lookup = {mod.dim: mod.ident for mod in modules}
        if len(self.dim_lookup) != len(modules):
            raise AssertionError("dimension vectors must be pairwise distinct")

        ar_arrows = []
        for (i, m), ident in grid.items():
            for j in self.in_adj[i]:  # Q-arrow j -> i gives (i,m) -> (j,m)
                tgt = grid.get((j, m))
                if tgt is not None:
                    ar_arrows.append((ident, tgt))
            for j in self.out_adj[i]:  # Q-arrow i -> j gives (i,m) -> (j,m+1)
                tgt = grid.get((j, m + 1))
                if tgt is not None:
                    ar_arrows.append((ident, tgt))
        self.ar_arrows = tuple(sorted(ar_arrows))
        ar_in = [[] for _ in modules]
        for src, tgt in self.ar_arrows:
            ar_in[tgt].append(src)
        self.ar_in = tuple(map(tuple, ar_in))
        self.ar_order = sorted(
            range(len(modules)),
            key=lambda ident: (modules[ident].slice, self._rpos[modules[ident].orbit]),
        )
        self._check_meshes()

    def _check_meshes(self):
        for mod in self.modules:
            prev = self.tau[mod.ident]
            if prev is None:
                continue
            total = tuple(map(add, self.modules[prev].dim, mod.dim))
            middle = (0,) * self.nvertices
            for src in self.ar_in[mod.ident]:
                middle = map(add, middle, self.modules[src].dim)
            if tuple(middle) != total:
                raise AssertionError(f"mesh additivity fails at module {mod.ident}")

    # -- hom ------------------------------------------------------------
    def hom_row(self, source: int) -> tuple:
        """dim Hom(source, Z) for every Z: one row of the Hom table.

        The table is filled on first use.  The row of the projective P_v is
        read off the dimension vectors, as Hom(P_v, Z) = Z_v.  The path
        algebra is hereditary, so tau is an equivalence from the
        non-projective to the non-injective indecomposables: Hom(X, Y) =
        Hom(tau X, tau Y) for non-projective X and Y.  And Hom(X, P) = 0 for
        non-projective X and projective P: the image of a map to P is
        projective, so it splits off X, which is indecomposable and not
        projective.  So the row of a non-projective X is the row of tau X
        read at tau Y, with 0 at the projectives.  Rows are filled in
        ``ar_order``, which puts the row of tau X first.
        """
        if self._hom is None:
            size = len(self.modules)
            at_vertex = tuple(zip(*(mod.dim for mod in self.modules)))
            # the zero column at index size stands for a projective's missing tau
            shift = [size if t is None else t for t in self.tau]
            rows = [None] * size
            for x in self.ar_order:
                tx = self.tau[x]
                if tx is None:
                    rows[x] = at_vertex[self.modules[x].proj_vertex]
                else:
                    rows[x] = tuple(map((rows[tx] + (0,)).__getitem__, shift))
            self._hom = tuple(rows)
        return self._hom[source]


# ---------------------------------------------------------------------------
# folding-aware layer


def quiver_arrows_from_matrix(S) -> tuple:
    arrows = []
    for i in range(S.n):
        for j in range(S.n):
            v = S.entries[i][j]
            if v > 0:
                if v != 1:
                    raise ValueError("unfolded matrices must have entries in {-1, 0, 1}")
                arrows.append((i, j))
    return tuple(arrows)


def folded_type_name(spec: FoldingSpec) -> str:
    if spec.kind in ("H3", "H4"):
        return spec.kind
    if spec.kind.startswith("I2(") and spec.n is not None:
        return f"I2({spec.m})"
    raise ValueError(f"folding {spec.kind!r} has no categorical layer")


class FoldedCategory:
    """Module category of the unfolded quiver with its folding structure."""

    def __init__(self, spec: FoldingSpec):
        if spec.n is None:
            raise ValueError("categorical layer needs a Chebyshev folding")
        self.spec = spec
        self.ar = ARQuiver(spec.S.n, quiver_arrows_from_matrix(spec.S))
        self.roots = root_system(folded_type_name(spec))
        self.n = spec.n
        self.m = spec.m
        self._build_projections()

    def _build_projections(self):
        """Factor each projected dimension vector as theta_j times a positive root.

        Everything is keyed on flat coefficient tuples: the blocks' reduced
        coefficient tuples, each padded to the field degree, end to end.
        ``spec.coeff_d_F`` projects the N projectives only, in module order.
        Every other module x has a translate tau x, and dimension vectors
        are additive on its mesh: dim x + dim tau x is the sum of dim y over
        the middle terms y in ``ar_in[x]``, which ``ARQuiver._check_meshes``
        verified.  d_F is linear and the padded tuples add coordinatewise,
        so key(x) = sum of key(y) over ``ar_in[x]`` - key(tau x) is exactly
        the padded d_F of dim x; ``ar_order`` puts x after its mesh.
        A root's theta_j multiple is the tuple of its entries' theta_j
        multiples, each distinct entry's made once: theta_0 x = x and, with
        theta_j = U_j(g/2), g = 2cos(pi/m), U_{j+1} x = g U_j x - U_{j-1} x,
        one shift up a degree with the top coefficient folded back by the
        monic minimal polynomial, and one subtraction.  The keys are decoded
        into ``dimproj`` only when it is read.
        """
        spec, ar, m = self.spec, self.ar, self.m
        ctx = _context(m)
        deg, low = ctx.deg, ctx.minpoly[:-1]
        keys = [None] * len(ar.modules)
        for mod in ar.modules:
            if mod.proj_vertex is not None:
                key = spec.coeff_d_F(mod.dim)
                keys[mod.ident] = tuple(chain.from_iterable(c + (0,) * (deg - len(c)) for c in key))
        for x in ar.ar_order:
            tx = ar.tau[x]
            if tx is not None:
                key = map(neg, keys[tx])
                for y in ar.ar_in[x]:
                    key = map(add, key, keys[y])
                keys[x] = tuple(key)
        self.keys = tuple(keys)

        def multiples(coeffs):
            # a root entry's padded theta_0 .. theta_{n-1} multiples
            prev, cur = [0] * deg, list(coeffs) + [0] * (deg - len(coeffs))
            out = [cur]
            for _ in range(1, self.n):
                top = cur[-1]
                prev, cur = cur, [s - top * p - u for s, p, u in zip([0] + cur[:-1], low, prev)]
                out.append(cur)
            return out

        chains = Memo(multiples)
        roots = {}  # flat key -> the positive root
        lookup = {}
        for alpha in self.roots.positives:
            entries = [chains[c.coeffs] for c in alpha]
            scaled = [tuple(chain.from_iterable(col)) for col in zip(*entries)]
            base = scaled[0]
            roots[base] = alpha
            for j, key in enumerate(scaled):
                if key in lookup:
                    raise AssertionError("Chebyshev multiples of distinct roots collide")
                lookup[key] = (j, base)
        factor = []
        for ident, key in enumerate(self.keys):
            hit = lookup.get(key)
            if hit is None:
                raise AssertionError(
                    f"projected vector of module {ident} is not a Chebyshev multiple of a root"
                )
            factor.append(hit)
        columns: dict[tuple, dict[int, int]] = {}
        for ident, (j, base) in enumerate(factor):
            columns.setdefault(base, {})[j] = ident
        for col in columns.values():
            if sorted(col) != list(range(self.n)):
                raise AssertionError("each root column must carry indices 0..n-1 once")
        self.factor = tuple((j, roots[base]) for j, base in factor)
        self.columns = {
            roots[base]: tuple(col[j] for j in range(self.n)) for base, col in columns.items()
        }
        self.generators = tuple(ident for ident, (j, _) in enumerate(factor) if j == 0)

    @cached_property
    def dimproj(self) -> tuple:
        """Each module's projected dimension vector over Z[2cos(pi/m)], decoded on first read."""
        deg = _context(self.m).deg
        blocks = range(0, len(self.keys[0]), deg)
        trimmed = (tuple(_poly_trim(key[b:b + deg]) for b in blocks) for key in self.keys)
        return RingValues(self.m).rows(trimmed)

    # -- semiring action on iso-class multisets ---------------------------
    def column_of(self, ident: int) -> tuple:
        return self.columns[self.factor[ident][1]]

    def iso_set(self, generator: int) -> tuple:
        """The indecomposables generated from a generator: its column."""
        if self.factor[generator][0] != 0:
            raise ValueError("iso-sets are indexed by generators (index-0 members)")
        return self.column_of(generator)

    def semiring_act(self, r: ChebElem, ident: int) -> dict[int, int]:
        """Multiset of indecomposables r . M, by the Chebyshev product rule."""
        if r.n != self.n:
            raise ValueError("semiring rank mismatch")
        if not r.in_semiring():
            raise ValueError("action is defined for the nonnegative cone only")
        j, alpha = self.factor[ident]
        expansion = cheb_mul(r, ChebElem.theta(self.n, j))
        column = self.columns[alpha]
        return {column[k]: c for k, c in enumerate(expansion.coeffs) if c}

    # -- theorem-level verification ----------------------------------------
    def verify_folding_theorem(self) -> dict:
        """Projected dimension vectors: root rows and weight swaps.

        The unique factorization of every projected vector as a Chebyshev
        multiple of a root is checked at construction (``factor``).

        The weight-swap identity U_b x_a = U_a x_b is compared for the pairs
        (block[0], b) of each block only.  The rest follow: block[0] has the
        nonzero weight U_0 = 1 and the ring is commutative, so U_0 U_b x_a =
        U_b U_a x_0 = U_a U_0 x_b, and U_0 cancels in the field.  A problem is
        named by the pair with block[0] that breaks it.
        """
        spec, ar = self.spec, self.ar
        report = {"passed": True, "problems": []}

        # (a) rows of weight-1 injectives project onto positive roots
        root_hits = set()
        for v in spec.weight_one_reps:
            ident = ar.inj_module[v]
            orbit = ar.modules[ident].orbit
            for mod in ar.modules:
                if mod.orbit != orbit:
                    continue
                j, alpha = self.factor[mod.ident]
                if j != 0:
                    report["passed"] = False
                    report["problems"].append(("row-not-root", v, mod.ident))
                else:
                    root_hits.add(alpha)
        report["weight_one_row_roots"] = len(root_hits)
        report["positive_roots"] = len(self.roots.positives)
        if len(root_hits) != len(self.roots.positives):
            report["passed"] = False
            report["problems"].append(("roots-not-exhausted",))

        # (b) the weight-swap identity along all translate powers
        for block in spec.blocks:
            a = block[0]
            for b in block[1:]:
                oa = ar.modules[ar.inj_module[a]].orbit
                ob = ar.modules[ar.inj_module[b]].orbit
                la = ar.modules[ar.inj_module[a]].slice
                lb = ar.modules[ar.inj_module[b]].slice
                if la != lb:
                    report["passed"] = False
                    report["problems"].append(("row-length-mismatch", a, b))
                    continue
                wa, wb = spec.weights[a], spec.weights[b]
                for power in range(la + 1):
                    va = self.dimproj[ar.grid[(oa, la - power)]]
                    vb = self.dimproj[ar.grid[(ob, lb - power)]]
                    if any(wb * x != wa * y for x, y in zip(va, vb)):
                        report["passed"] = False
                        report["problems"].append(("weight-swap", a, b, power))
        return report

    # -- exports -------------------------------------------------------------
    def dimproj_str(self, ident: int) -> str:
        return "(" + ", ".join(_pretty(c) for c in self.dimproj[ident]) + ")"

    def ar_dot(self, name="arquiver") -> str:
        lines = [f"digraph {name} {{", "  rankdir=LR;"]
        for mod in self.ar.modules:
            dims = "".join(str(c) for c in mod.dim)
            lines.append(
                f'  m{mod.ident} [label="{dims}\\n{self.dimproj_str(mod.ident)}"'
                f' pos="{mod.slice},{mod.orbit}"];'
            )
        for src, tgt in self.ar.ar_arrows:
            lines.append(f"  m{src} -> m{tgt};")
        lines.append("}")
        return "\n".join(lines)


def _pretty(c) -> str:
    if isinstance(c, AlgReal):
        return f"{float(c):.4g}"
    return str(c)


def hom_ext_tables(ar: ARQuiver):
    """Full (hom, ext) tables as tuples of rows.

    Ext row a is read off the hom rows: ext(a, b) = hom(b, tau a), and a
    row of zeros for projective a.
    """
    size = len(ar.modules)
    hom = tuple(ar.hom_row(a) for a in range(size))
    zeros = (0,) * size
    ext = tuple(zeros if ta is None else tuple(row[ta] for row in hom) for ta in ar.tau)
    return hom, ext
