"""Cluster category of an unfolded quiver at the iso-class level.

Indecomposables are the modules of the unfolded quiver together with one
shifted projective per vertex.  Morphism and extension dimensions are
assembled from module-level hammock data through the orbit formula, so the
whole layer stays exact integer combinatorics.  On top of that sit the
semiring-compatible rigidity notion, enumeration and mutation of tilting
objects built from generator columns, and the two kinds of g-vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .chebring import ChebElem, sigma
from .exchange import ExchangeMatrix, RingValues, coeff_rows, entry_field, mutate_coeffs
from .repcat import FoldedCategory
from .unfolding import FoldingSpec


@dataclass(frozen=True)
class ClusterInd:
    """Module (shift is None) or shifted projective (shift = vertex)."""

    ident: int
    module: int | None
    shifted_vertex: int | None


class ClusterCategory:
    def __init__(self, spec: FoldingSpec):
        self.spec = spec
        self.mc = FoldedCategory(spec)
        self.nverts = spec.S.n
        self.nmod = len(self.mc.ar.modules)
        self.size = self.nmod + self.nverts
        self._tau = tuple(self._compute_tau(x) for x in range(self.size))
        self._hom = None
        self._ext = None
        self._pair_cache: dict[tuple[int, int], bool] = {}
        self._adj = None
        self._g: dict[int, tuple] = {}
        self._g_folded: dict[int, tuple] = {}
        self._build_generators()

    # -- object bookkeeping ------------------------------------------------
    def shift_ident(self, vertex: int) -> int:
        return self.nmod + vertex

    def is_shift(self, x: int) -> bool:
        return x >= self.nmod

    def describe(self, x: int) -> str:
        if self.is_shift(x):
            v = x - self.nmod
            return f"S.P({self.spec.labels[v] if self.spec.labels else v})"
        mod = self.mc.ar.modules[x]
        return "M" + "".join(str(c) for c in mod.dim)

    def indecomposables(self) -> tuple:
        return tuple(range(self.size))

    # -- translation ---------------------------------------------------------
    def _compute_tau(self, x: int) -> int:
        ar = self.mc.ar
        if self.is_shift(x):
            return ar.inj_module[x - self.nmod]
        t = ar.tau(x)
        if t is not None:
            return t
        return self.shift_ident(ar.modules[x].proj_vertex)

    def tau(self, x: int) -> int:
        return self._tau[x]

    # -- morphism spaces -------------------------------------------------------
    def hom(self, x: int, y: int) -> int:
        if self._hom is None:
            self._fill_tables()
        return self._hom[x][y]

    def ext(self, x: int, y: int) -> int:
        """dim Hom(x, tau y): the rigidity pairing of the cluster category."""
        if self._ext is None:
            self._fill_tables()
        return self._ext[x][y]

    def _fill_tables(self):
        """Both tables, row by row, from the module-level hammock rows.

        With H[a][b] = dim Hom(a, b) between modules, tau the module translate
        and P_v the projective at v, the cluster category has
        hom(x, y) = H[x][y] + H[tau^-1 y][tau x] for modules x and y,
        hom(x, P_w[1]) = H[P_w][tau x], hom(P_v[1], y) = H[P_v][tau^-1 y] and
        hom(P_v[1], P_w[1]) = H[P_v][P_w]; a term whose translate does not
        exist is 0.  Each module row is read once, and its transpose gives
        the H[.][tau x] terms.
        """
        ar = self.mc.ar
        nmod = self.nmod
        # A zero column at index nmod stands for a missing translate, and the
        # zero row it makes in the transpose for a projective's missing tau.
        H = [ar.hom_row(x) + (0,) for x in range(nmod)]
        HT = [row + (0,) for row in zip(*H)]
        tau = [nmod if t is None else t for t in map(ar.tau, range(nmod))]
        tau_inv = [nmod if t is None else t for t in map(ar.tau_inv, range(nmod))]
        proj = [ar.proj_module[v] for v in range(self.nverts)]
        hom = []
        for x in range(nmod):
            hx, back = H[x], HT[tau[x]]
            hom.append(
                tuple(hx[y] + back[ty] for y, ty in enumerate(tau_inv))
                + tuple(back[p] for p in proj)
            )
        for p in proj:
            hp = H[p]
            hom.append(tuple(map(hp.__getitem__, tau_inv)) + tuple(map(hp.__getitem__, proj)))
        self._hom = tuple(hom)
        self._ext = tuple(tuple(map(row.__getitem__, self._tau)) for row in self._hom)
        vanishing = tuple(tuple(e == 0 for e in row) for row in self._ext)
        if vanishing != tuple(zip(*vanishing)):
            raise AssertionError("extension vanishing must be symmetric")

    # -- generators and iso-sets ------------------------------------------------
    def _build_generators(self):
        spec, mc = self.spec, self.mc
        gens = list(mc.generators)
        for block in spec.blocks:
            rep = block[0]
            # projectives of one block form one column, with matching indices
            alpha = mc.factor[mc.ar.proj_module[rep]][1]
            for v in block:
                j, a = mc.factor[mc.ar.proj_module[v]]
                if a != alpha or (spec.kappa and j != spec.kappa[v]):
                    raise AssertionError("projective block does not form a column")
            gens.append(self.shift_ident(rep))
        self.generators = tuple(gens)
        iso = {g: mc.iso_set(g) for g in mc.generators}
        for block in spec.blocks:
            iso[self.shift_ident(block[0])] = tuple(self.shift_ident(v) for v in block)
        self.iso_sets = iso

    def hat(self, summands) -> tuple:
        out = []
        for g in summands:
            out.extend(self.iso_sets[g])
        return tuple(sorted(out))

    # -- rigidity ----------------------------------------------------------------
    def pair_rigid(self, g1: int, g2: int) -> bool:
        key = (g1, g2) if g1 <= g2 else (g2, g1)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        ok = True
        for z1 in self.iso_sets[g1]:
            for z2 in self.iso_sets[g2]:
                if self.ext(z1, z2) or self.ext(z2, z1):
                    ok = False
                    break
            if not ok:
                break
        self._pair_cache[key] = ok
        return ok

    def is_rigid_set(self, summands) -> bool:
        summands = tuple(summands)
        for a in range(len(summands)):
            for b in range(a, len(summands)):
                if not self.pair_rigid(summands[a], summands[b]):
                    return False
        return True

    def compatibility(self):
        """Adjacency of the rigidity graph on generator columns (read-only).

        Built on first use and kept: each generator maps to the frozenset of
        the other generators it is pair-rigid with.
        """
        if self._adj is None:
            gens = self.generators
            for g in gens:
                if not self.pair_rigid(g, g):
                    raise AssertionError("generator columns must be self-rigid")
            adj = {g: set() for g in gens}
            for i, g1 in enumerate(gens):
                for g2 in gens[i + 1:]:
                    if self.pair_rigid(g1, g2):
                        adj[g1].add(g2)
                        adj[g2].add(g1)
            self._adj = MappingProxyType({g: frozenset(nb) for g, nb in adj.items()})
        return self._adj

    # -- tilting objects -----------------------------------------------------------
    def tilting_rank(self) -> int:
        return self.spec.B.n

    def enumerate_tilting(self) -> tuple:
        """All maximal rigid generator sets; each must have the folded rank."""
        adj = self.compatibility()
        gens = sorted(self.generators)
        every = frozenset(gens)
        rank = self.tilting_rank()
        out = []

        def extend(clique, candidates):
            if len(clique) == rank:
                if every.intersection(*(adj[c] for c in clique)).difference(clique):
                    raise AssertionError("rank-size rigid set failed maximality")
                out.append(tuple(clique))
                return
            for idx, g in enumerate(candidates):
                extend(clique + [g], [h for h in candidates[idx + 1:] if h in adj[g]])

        extend([], gens)
        for t in out:
            hat = self.hat(t)
            if len(hat) != self.nverts:
                raise AssertionError("hat object must have one summand per vertex")
        return tuple(out)

    def is_classical_tilting(self, objects) -> bool:
        """Basic rigid and maximal among all cluster indecomposables."""
        objs = tuple(sorted(objects))
        if len(set(objs)) != len(objs):
            return False
        for a in objs:
            for b in objs:
                if self.ext(a, b):
                    return False
        inside = set(objs)
        for x in range(self.size):
            if x in inside:
                continue
            if all(self.ext(x, t) == 0 and self.ext(t, x) == 0 for t in objs):
                return False
        return True

    def complements(self, almost) -> tuple:
        """The completions of an almost complete rigid generator set.

        Read off the compatibility graph: the generators adjacent to every
        summand, in the order of ``generators``.
        """
        almost = tuple(almost)
        if not self.is_rigid_set(almost):
            raise ValueError("input is not rigid")
        adj = self.compatibility()
        common = frozenset(self.generators).intersection(*(adj[t] for t in almost))
        found = tuple(g for g in self.generators if g in common)
        if len(found) != 2:
            raise AssertionError(
                f"almost complete object has {len(found)} complements, expected 2"
            )
        return found

    def initial_tilting(self) -> tuple:
        """The projectives at weight-1 vertices, ordered by folded vertex."""
        return tuple(self.mc.ar.proj_module[block[0]] for block in self.spec.blocks)

    def _exchange(self, summands: tuple, k: int) -> tuple:
        """``summands`` with summand k swapped for the other complement of the rest."""
        comps = self.complements(summands[:k] + summands[k + 1:])
        if summands[k] not in comps:
            raise ValueError("summand is not a complement of the rest")
        other = comps[0] if comps[1] == summands[k] else comps[1]
        return summands[:k] + (other,) + summands[k + 1:]

    def mutate_tilting(self, summands, k: int, folded: ExchangeMatrix):
        """Swap summand k for the other complement; mutate the folded matrix."""
        summands = tuple(summands)
        return self._exchange(summands, k), folded.mutate(k)

    def exchange_graph(self):
        """BFS over tilting objects; verifies the folded matrix is path-free.

        Returns (nodes, edges) where nodes maps the frozen summand set to its
        folded exchange matrix keyed by a sorted summand order.

        Each edge is decided once.  An edge is an almost complete object
        ``rest``, which has exactly two complements (Buan-Marsh-Reineke-
        Reiten-Todorov 2006), so one ``complements`` call and one mutation
        from either end give the far end and its matrix, compared with the
        matrix already recorded there.  Mutating back from the far end would
        only test mu_k mu_k B = B, up to the relabeling that ``aligned``
        undoes, which always holds.  The BFS carries the matrices as
        ``coeff_rows``; rows that differ as coefficients are compared again
        as values, so an int 0 on one path and an ``AlgReal`` 0 on another
        agree, as ``==`` on the values says.
        """
        start = self.initial_tilting()
        rank = len(start)
        m = entry_field(self.spec.B.entries)
        values = RingValues(m)
        nodes = {}
        edges = set()
        done = set()

        def aligned(summands, rows):
            order = sorted(range(rank), key=summands.__getitem__)
            return tuple(tuple(rows[i][j] for j in order) for i in order)

        rows = coeff_rows(self.spec.B.entries)
        frontier = [(start, rows)]
        nodes[frozenset(start)] = aligned(start, rows)
        while frontier:
            new = []
            for summands, rows in frontier:
                key = frozenset(summands)
                for k in range(rank):
                    rest = key - {summands[k]}
                    if rest in done:
                        continue
                    done.add(rest)
                    nxt = self._exchange(summands, k)
                    nxt_rows = mutate_coeffs(rows, k, m)
                    nkey = frozenset(nxt)
                    edges.add(frozenset((key, nkey)))
                    ali = aligned(nxt, nxt_rows)
                    seen = nodes.get(nkey)
                    if seen is None:
                        nodes[nkey] = ali
                        new.append((nxt, nxt_rows))
                    elif seen != ali and values.rows(seen) != values.rows(ali):
                        raise AssertionError("folded matrix depends on the mutation path")
            frontier = new
        return {key: values.rows(rows) for key, rows in nodes.items()}, edges

    # -- g-vectors -------------------------------------------------------------------
    def g_vector(self, x: int) -> tuple:
        """Integer g-vector over the unfolded vertices (computed once per object)."""
        g = self._g.get(x)
        if g is None:
            if self.is_shift(x):
                v = x - self.nmod
                g = tuple(-1 if w == v else 0 for w in range(self.nverts))
            else:
                a, b = self._presentation(x)
                g = tuple(ai - bi for ai, bi in zip(a, b))
            self._g[x] = g
        return g

    def _presentation(self, module: int):
        """Multiplicities (P0, P1) of the minimal projective presentation."""
        ar = self.mc.ar
        tops = tuple(ar.hom(module, ar.simple_module[v]) for v in range(self.nverts))
        target = [0] * self.nverts
        for v, mult in enumerate(tops):
            if mult:
                for t, c in enumerate(ar.proj_dims[v]):
                    target[t] += mult * c
        for t, c in enumerate(ar.modules[module].dim):
            target[t] -= c
        b = [0] * self.nverts
        for v in ar._topo:
            need = target[v] - sum(
                b[w] * ar.proj_dims[w][v] for w in range(self.nverts) if w != v
            )
            if need < 0 or target[v] < 0:
                raise AssertionError("projective presentation solve failed")
            b[v] = need
        check = [0] * self.nverts
        for v, mult in enumerate(b):
            for t, c in enumerate(ar.proj_dims[v]):
                check[t] += mult * c
        if check != target:
            raise AssertionError("projective presentation solve failed")
        return tops, tuple(b)

    def g_vector_folded(self, x: int) -> tuple:
        """Folded g-vector via the grouped Chebyshev presentation.

        Each block's entry is sigma of sum g[v] * theta_pos over the block's
        vertices v, where g is the integer g-vector and pos is v's place in
        the block.  Computed once per object.
        """
        out = self._g_folded.get(x)
        if out is None:
            g = self.g_vector(x)
            n = self.mc.n
            out = []
            for block in self.spec.blocks:
                r = ChebElem.zero(n)
                for pos, v in enumerate(block):
                    if g[v]:
                        r = r + g[v] * ChebElem.theta(n, pos)
                out.append(sigma(r))
            out = self._g_folded[x] = tuple(out)
        return out

    def folded_G_matrix(self, summands) -> tuple:
        """Folded G of a tilting object: column j is the folded g-vector of summand j."""
        return tuple(zip(*map(self.g_vector_folded, summands)))

    def tilting_G_matrices(self, summands):
        """(integer G of the hat object, folded G of the tilting object).

        Columns of the integer matrix are indexed by unfolded vertices: the
        column at vertex v is the g-vector of the column member of the
        summand over F(v) with Chebyshev index kappa(v).  The folded matrix
        is ``folded_G_matrix``.  Both read the per-object g-vector tables, so
        each g-vector is computed once per category however many tilting
        objects contain it.
        """
        spec = self.spec
        cols = [None] * self.nverts
        for j, g in enumerate(summands):
            members = self.iso_sets[g]
            for pos, v in enumerate(spec.blocks[j]):
                cols[v] = self.g_vector(members[pos])
        G_hat = tuple(tuple(cols[v][w] for v in range(self.nverts)) for w in range(self.nverts))
        return G_hat, self.folded_G_matrix(summands)
