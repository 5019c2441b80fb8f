"""Cluster category of an unfolded quiver at the iso-class level.

Indecomposables are the modules of the unfolded quiver together with one
shifted projective per vertex.  Rigidity reads only where Ext vanishes.
That comes from one path: two bit-mask recurrences on the AR grid, where
the translate is a shift, give where the module category's Hom is nonzero,
and the orbit formula turns them into each object's Ext-vanishing mask,
with no Hom or Ext table built.  On top of that sit the semiring-compatible
rigidity notion, enumeration and mutation of tilting objects built from
generator columns, the exchange graph of tilting objects on the mutation
explorer's closure (``exchange._Explorer``), and the two kinds of g-vectors.
"""

from __future__ import annotations

from functools import partial
from math import prod
from operator import itemgetter
from types import MappingProxyType

from .chebring import ChebElem, Memo, sigma
from .exchange import RingValues, _Explorer, coeff_rows, mutate_coeffs
from .repcat import FoldedCategory
from .unfolding import FoldingSpec


# Exponents of the folded Coxeter groups (Humphreys, Reflection Groups and
# Coxeter Groups, 3.7); I2(m) has the exponents 1 and m - 1.
_EXPONENTS = {"H3": (1, 5, 9), "H4": (1, 11, 19, 29)}


def coxeter_catalan(name: str) -> int:
    """Cat(W) = prod (h + e + 1) / (e + 1) over the exponents e of W, h the largest plus 1.

    ``name`` is a ``repcat.folded_type_name``: H3 gives 32, H4 280 and I2(m)
    m + 2, the number of clusters and so of tilting objects.
    """
    if name.startswith("I2("):
        exps = (1, int(name[3:-1]) - 1)
    else:
        exps = _EXPONENTS[name]
    h = exps[-1] + 1
    return prod(h + e + 1 for e in exps) // prod(e + 1 for e in exps)


def _presentation(ar, x: int) -> tuple:
    """The g-vector of object x of the cluster category on the AR quiver ``ar``.

    P_v[1], the object ``len(ar.modules) + v``, has g = -e_v.  A module M
    with minimal projective presentation P1 -> P0 -> M -> 0 has g = [P0] -
    [P1].  The path algebra is hereditary, so dim M = C g, where C[w][v]
    counts the paths v -> w, and C^-1 = I - A, where A[w][v] counts the
    arrows v -> w (the Euler form): g_w = dim_w minus the sum of dim_i over
    the arrows i -> w.
    """
    v = x - len(ar.modules)
    if v >= 0:
        return tuple(-1 if w == v else 0 for w in range(ar.nvertices))
    dim = ar.modules[x].dim
    return tuple(d - sum(map(dim.__getitem__, into)) for d, into in zip(dim, ar.in_adj))


def _folded_presentation(g_vectors, slices, blocks, x: int) -> tuple:
    """The folded g-vector of object x.

    Each block's entry is sigma of sum g[v] * theta_pos over the block's
    vertices v, where g = ``g_vectors[x]`` is the integer g-vector and pos
    is v's place in the block.  ``slices`` gives sigma once per distinct
    coefficient slice per category: the slices repeat across blocks and
    objects (H4's 256 block entries have 12 distinct ones).
    """
    g = g_vectors[x]
    return tuple(slices[tuple(map(g.__getitem__, block))] for block in blocks)


def _sigma_of(n, coeffs):
    return sigma(ChebElem(n, coeffs))


class ClusterCategory:
    """The cluster category of ``spec``, on ``mc``, its ``FoldedCategory``, built here when not given."""

    def __init__(self, spec: FoldingSpec, mc: FoldedCategory | None = None):
        self.spec = spec
        self.mc = FoldedCategory(spec) if mc is None else mc
        self.nverts = spec.S.n
        self.nmod = len(self.mc.ar.modules)
        self._vanish = None
        self._adj = None
        self._mask: dict[int, int] = {}
        # the computes hold the tables they read, not the category, so
        # dropping a category frees it without the cyclic collector
        self._g = Memo(partial(_presentation, self.mc.ar))
        self._sigma = Memo(partial(_sigma_of, self.mc.n))
        self._g_folded = Memo(partial(_folded_presentation, self._g, self._sigma, spec.blocks))
        self._labels = None
        self._build_generators()

    # -- object bookkeeping ------------------------------------------------
    def shift_ident(self, vertex: int) -> int:
        return self.nmod + vertex

    def describe(self, x: int) -> str:
        """``M`` and the dimension vector for a module, ``S.P(label)`` for P_v[1].

        Read from a table of every object's label, built on first use.
        """
        if self._labels is None:
            labels = self.spec.labels
            self._labels = tuple(
                "M" + "".join(map(str, mod.dim)) for mod in self.mc.ar.modules
            ) + tuple(f"S.P({labels[v] if labels else v})" for v in range(self.nverts))
        return self._labels[x]

    # -- extension vanishing ---------------------------------------------------
    def _hom_masks(self, bits, exist) -> tuple:
        """(row, col): where the module category's Hom is nonzero, as grid masks.

        Bit z of ``row[x]`` is set when Hom(x, z) != 0 and bit y of
        ``col[z]`` when Hom(y, z) != 0, for modules x, y and z, at their
        grid bits ``bits``; ``exist`` is the OR of the modules' bits.
        ``_knit`` puts tau (i, s) at (i, s - 1), so tau is a shift by
        N = ``nverts``.  The facts ``ARQuiver.hom_row`` reads give both:
        Hom(P_v, Z) = Z_v, Hom(X, Y) = Hom(tau X, tau Y) for non-projective
        X and Y, and Hom(X, P) = 0 for non-projective X and projective P.
        So a projective's row is the modules Z with Z_v != 0, and any other
        row is its translate's shifted by N; a column is its translate's
        shifted by N, plus the projectives P_v (bit v) with Z_v != 0.
        ``ar_order`` puts each translate first.
        """
        ar, n = self.mc.ar, self.nverts
        # where x_v != 0: bit v of supp[x], and x's grid bit of at_vertex[v]
        supp, at_vertex = [0] * self.nmod, [0] * n
        for x, mod in enumerate(ar.modules):
            for v, c in enumerate(mod.dim):
                if c:
                    supp[x] |= 1 << v
                    at_vertex[v] |= 1 << bits[x]
        row, col = [0] * self.nmod, [0] * self.nmod
        for x in ar.ar_order:
            t = ar.tau[x]
            if t is None:
                row[x] = at_vertex[ar.modules[x].proj_vertex]
                col[x] = supp[x]
            else:
                row[x] = row[t] << n & exist
                col[x] = col[t] << n & exist | supp[x]
        return row, col

    def _ext_masks(self):
        """Each object's Ext-vanishing mask (``_vanish``) on the AR grid.

        Module (orbit i, slice s) gets bit s * N + i, with N = ``nverts``,
        and P_v[1] bit top + v, past every module's bit (``_grid_bit``).
        Bit ``_grid_bit[y]`` of ``_vanish[x]`` is set when Ext(x, y) = 0.
        In the cluster category Ext(x, y) = Hom(x, tau y), and by the orbit
        formula, read on the masks of ``_hom_masks``, it is nonzero for a
        module x exactly when Hom(x, tau y) != 0 (``row[x]`` shifted by N),
        Hom(y, tau x) != 0 (``col[tau x]``) or y = P_w[1] with x_w != 0
        (the projectives in ``col[x]``, moved to the shifted projectives'
        bits); and for P_v[1] exactly when y is a module with y_v != 0 (the
        row of P_v).  Row and column masks come from two independent
        recurrences, so the pattern must equal its transpose, compared as
        '0'/'1' strings.
        """
        ar, n = self.mc.ar, self.nverts
        top = n * (1 + max(mod.slice for mod in ar.modules))
        bits = tuple(mod.slice * n + mod.orbit for mod in ar.modules)
        exist = sum(1 << b for b in bits)
        self._grid_bit = bits = bits + tuple(top + v for v in range(n))
        row, col = self._hom_masks(bits, exist)
        low = (1 << n) - 1
        ext = [
            row[x] << n & exist | (0 if t is None else col[t]) | (col[x] & low) << top
            for x, t in enumerate(ar.tau)
        ]
        ext += [row[ar.proj_module[v]] for v in range(n)]
        width = top + n
        lines = ["0" * width] * width
        for b, e in zip(bits, ext):
            lines[b] = format(e, f"0{width}b")[::-1]
        if lines != list(map("".join, zip(*lines))):
            raise AssertionError("extension vanishing must be symmetric")
        every = exist | low << top
        self._vanish = [every ^ e for e in ext]

    # -- generators and iso-sets ------------------------------------------------
    def _build_generators(self):
        spec, mc = self.spec, self.mc
        gens = list(mc.generators)
        for block in spec.blocks:
            rep = block[0]
            # projectives of one block form one column, member a with Chebyshev index a
            alpha = mc.factor[mc.ar.proj_module[rep]][1]
            for pos, v in enumerate(block):
                j, a = mc.factor[mc.ar.proj_module[v]]
                if a != alpha or j != pos:
                    raise AssertionError("projective block does not form a column")
            gens.append(self.shift_ident(rep))
        self.generators = tuple(gens)
        self._bit = {g: 1 << i for i, g in enumerate(gens)}
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
    def _meet(self, summands) -> tuple:
        """(common, need): the AND of the summands' masks and the OR of their bits.

        Bit h of g's mask is set exactly when g and h are pair-rigid, so the
        summands are pairwise rigid exactly when ``common & need == need``.
        """
        self.compatibility()
        mask, bit = self._mask, self._bit
        common, need = (1 << len(self.generators)) - 1, 0
        for g in summands:
            common &= mask[g]
            need |= bit[g]
        return common, need

    def _decode(self, mask: int) -> tuple:
        """The generators whose bits are set in ``mask``, in ``generators`` order."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self.generators[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def compatibility(self):
        """Adjacency of the rigidity graph on generator columns (read-only).

        Built on first use and kept: each generator maps to the frozenset of
        the other generators it is pair-rigid with, that is, no member of
        either column has an extension with a member of the other.  The
        graph is computed on int masks, and no Hom or Ext table is built.
        An object's mask (``_vanish``, from ``_ext_masks``) has y's grid bit
        set when ext(x, y) = 0, which ``_ext_masks`` checked is symmetric; a
        column's is the AND of its members' masks; and generator i's mask
        (``_mask``) has bit j set when column j's grid bits lie inside
        column i's mask.  Bit j stands for ``generators[j]`` (``_bit``).
        """
        if self._adj is None:
            if self._vanish is None:
                self._ext_masks()
            gens, bits = self.generators, self._grid_bit
            members = [sum(1 << bits[z] for z in self.iso_sets[g]) for g in gens]
            for g in gens:
                col = -1
                for z in self.iso_sets[g]:
                    col &= self._vanish[z]
                self._mask[g] = sum(self._bit[h] for h, mem in zip(gens, members) if col & mem == mem)
                if not self._mask[g] & self._bit[g]:
                    raise AssertionError("generator columns must be self-rigid")
            self._adj = MappingProxyType({
                g: frozenset(self._decode(self._mask[g] & ~self._bit[g])) for g in gens
            })
        return self._adj

    # -- tilting objects -----------------------------------------------------------
    def tilting_rank(self) -> int:
        return self.spec.B.n

    def enumerate_tilting(self) -> tuple:
        """All maximal rigid generator sets; each must have the folded rank.

        Cliques grow in increasing generator order.  ``common`` is the AND of
        the clique's masks: the generators pair-rigid with every summand, the
        summands included, so a clique is maximal exactly when ``common``
        holds nothing else.
        """
        self.compatibility()
        gens, mask, bit = self.generators, self._mask, self._bit
        rank = self.tilting_rank()
        out = []

        def extend(clique, common, candidates):
            if len(clique) == rank:
                if common != sum(map(bit.__getitem__, clique)):
                    raise AssertionError("rank-size rigid set failed maximality")
                out.append(tuple(clique))
                return
            for idx, g in enumerate(candidates):
                inner = common & mask[g]
                extend(clique + [g], inner, [h for h in candidates[idx + 1:] if inner & bit[h]])

        extend([], (1 << len(gens)) - 1, sorted(gens))
        for t in out:
            hat = self.hat(t)
            if len(hat) != self.nverts:
                raise AssertionError("hat object must have one summand per vertex")
        return tuple(out)

    def complements(self, almost) -> tuple:
        """The completions of an almost complete rigid generator set.

        Read off the compatibility masks in one pass (``_meet``): the set is
        rigid when ``common & need == need``, and its completions are the
        generators pair-rigid with every summand, other than the summands,
        ``common & ~need``, in the order of ``generators``.
        """
        common, need = self._meet(almost)
        if common & need != need:
            raise ValueError("input is not rigid")
        found = self._decode(common & ~need)
        if len(found) != 2:
            raise AssertionError(
                f"almost complete object has {len(found)} complements, expected 2"
            )
        return found

    def initial_tilting(self) -> tuple:
        """The projectives at weight-1 vertices, ordered by folded vertex."""
        return tuple(self.mc.ar.proj_module[block[0]] for block in self.spec.blocks)

    def exchange_graph(self):
        """The exchange graph of tilting objects; verifies the folded matrix is path-free.

        Returns (nodes, edges) where nodes maps the frozen summand set to its
        folded matrix as ``coeff_rows`` in a sorted summand order.

        It is the breadth-first closure (``_Explorer.closure``) over states:
        sorted summands with the folded matrix as ``coeff_rows`` aligned to
        them.  The step at place k swaps summand k, which must be one of the
        two complements of the rest (Buan-Marsh-Reineke-Reiten-Todorov
        2006), for the other, at its sorted place j, and mutates at k, moving
        row and column k to j.  Rows in one entry representation keep it,
        and mu_k mu_k = id, so step j undoes step k exactly: j is the way
        back, and each edge costs one ``complements`` call and one mutation.
        A tilting object met again with other rows is compared as values, so
        an int 0 on one path and a ring 0, (), on another agree.
        """
        m = self.spec.m
        values = RingValues(m)
        edges = set()

        def aligned(rows, order):
            # a tuple for two or more indices: the folded rank is 2 (I2), 3 or 4
            pick = itemgetter(*order)
            return tuple(map(pick, pick(rows)))

        def step(state, k):
            summands, rows = state
            rest = summands[:k] + summands[k + 1:]
            comps = self.complements(rest)
            if summands[k] not in comps:
                raise AssertionError("a tilting summand must be a complement of its rest")
            other = comps[comps[0] == summands[k]]
            nxt = tuple(sorted(rest + (other,)))
            edges.add(frozenset((frozenset(summands), frozenset(nxt))))
            order = [i for i in range(len(summands)) if i != k]
            order.insert(nxt.index(other), k)
            return nxt, aligned(mutate_coeffs(rows, k, m), order)

        def back(state, k, nxt):
            (other,) = set(nxt[0]) - set(state[0])
            return nxt[0].index(other)

        start = self.initial_tilting()
        order = sorted(range(len(start)), key=start.__getitem__)
        start = (tuple(sorted(start)), aligned(coeff_rows(self.spec.B.entries), order))
        explorer = _Explorer(step, parity=False, first_only=False, back=back)
        nodes = {}
        for (summands, rows), _ in explorer.closure(start, len(order)):
            seen = nodes.setdefault(frozenset(summands), rows)
            if seen != rows and values.rows(seen) != values.rows(rows):
                raise AssertionError("folded matrix depends on the mutation path")
        return nodes, edges

    # -- g-vectors -------------------------------------------------------------------
    def g_vector(self, x: int) -> tuple:
        """Integer g-vector over the unfolded vertices (computed once per object, ``_presentation``)."""
        return self._g[x]

    def g_vector_folded(self, x: int) -> tuple:
        """Folded g-vector via the grouped Chebyshev presentation (``_folded_presentation``)."""
        return self._g_folded[x]

    def folded_G_matrix(self, summands) -> tuple:
        """Folded G of a tilting object: column j is the folded g-vector of summand j."""
        return tuple(zip(*map(self.g_vector_folded, summands)))
