import functools
import itertools
import random
from collections import Counter

import pytest

from quiverfold import clustercat, tropical
from quiverfold.chebring import AlgReal
from quiverfold.cli import G_projection_verdicts
from quiverfold.clustercat import ClusterCategory, coxeter_catalan
from quiverfold.exchange import ExchangeMatrix, coeff_rows
from quiverfold.repcat import folded_type_name, hom_ext_tables
from quiverfold.unfolding import standard_folding
from spec_oracles import (
    cluster_translates, g_vector, g_vector_folded, is_classical_tilting, matrix_d_F,
    oracle_tables, presentation, replace_spec, tilting_G_matrices,
)


def objects(cc):
    """Every object of the category: the modules, then P_v[1] for each vertex v."""
    return range(cc.nmod + cc.nverts)


@functools.lru_cache(maxsize=4)
def oracle_ext(cc):
    """The hammock oracle's cluster Ext table (``oracle_tables``), built once per category."""
    return oracle_tables(cc)[1]


def mask_rigid(cc, summands) -> bool:
    """The mask rule of ``complements``: pairwise rigid when ``common & need == need``."""
    common, need = cc._meet(summands)
    return common & need == need


def production_G_matrices(cc, summands):
    """``tilting_G_matrices`` read off the category's own g-vector tables."""
    return tilting_G_matrices(
        cc, summands, ClusterCategory.g_vector, ClusterCategory.g_vector_folded
    )


def mutate_tilting(cc, summands, k: int, folded):
    """Swap summand k for the other complement of the rest; mutate the folded matrix at k."""
    summands = tuple(summands)
    (other,) = set(cc.complements(summands[:k] + summands[k + 1:])) - {summands[k]}
    return summands[:k] + (other,) + summands[k + 1:], folded.mutate(k)


@pytest.fixture(scope="module")
def i7():
    return ClusterCategory(standard_folding("I2", 3))


@pytest.fixture(scope="module")
def h3():
    return ClusterCategory(standard_folding("H3"))


@pytest.fixture(scope="module")
def i5():
    return ClusterCategory(standard_folding("I2", 2))


class TestStructure:
    def test_counts_h3(self, h3):
        assert len(objects(h3)) == 36
        assert len(h3.generators) == 18

    def test_counts_i7(self, i7):
        assert len(objects(i7)) == 27
        assert len(i7.generators) == 9

    def test_counts_i5(self, i5):
        assert len(objects(i5)) == 14
        assert len(i5.generators) == 7

    def test_iso_sets_partition(self, i7):
        seen = []
        for g in i7.generators:
            seen.extend(i7.iso_sets[g])
        assert sorted(seen) == list(range(27))

    def test_tau_is_bijection(self, i5):
        # the oracle's translate, which its Ext table reads
        tau, _ = cluster_translates(i5)
        assert set(tau) == set(objects(i5))

    def test_tau_orbits_glide(self, i5):
        # bipartite A4: the translation fuses rows into two 7-cycles
        tau, _ = cluster_translates(i5)
        sizes = []
        seen = set()
        for x in objects(i5):
            if x in seen:
                continue
            orbit = []
            y = x
            while y not in orbit:
                orbit.append(y)
                y = tau[y]
            seen.update(orbit)
            sizes.append(len(orbit))
        assert sorted(sizes) == [7, 7]

    def test_asymmetric_vanishing_is_reported(self, monkeypatch):
        # with tau replaced by the identity in the Ext formula, after the Hom
        # masks are built, ext is hom, which is not symmetric
        cc = ClusterCategory(standard_folding("I2", 2))
        ar = cc.mc.ar
        hom_masks = cc._hom_masks

        def untranslated(bits, exist):
            masks = hom_masks(bits, exist)
            monkeypatch.setattr(ar, "tau", tuple(range(cc.nmod)))
            return masks

        monkeypatch.setattr(cc, "_hom_masks", untranslated)
        with pytest.raises(AssertionError, match="extension vanishing must be symmetric"):
            cc.compatibility()

    def test_non_self_rigid_column_is_reported(self):
        # plant ext(z0, z1) != 0 between two members of one generator column
        cc = ClusterCategory(standard_folding("H3"))
        cc._ext_masks()
        z0, z1 = cc.iso_sets[cc.generators[0]][:2]
        cc._vanish[z0] &= ~(1 << cc._grid_bit[z1])
        with pytest.raises(AssertionError, match="generator columns must be self-rigid"):
            cc.compatibility()

    def test_dropped_column_bit_is_reported(self, monkeypatch):
        # drop Hom(z, z) != 0 from the column mask of a module z with both
        # translates: ext(tau^-1 z, z) then reads 0 and ext(z, tau^-1 z) does not
        cc = ClusterCategory(standard_folding("H3"))
        ar = cc.mc.ar
        _, tau_inv = cluster_translates(cc)
        z = next(x for x in range(cc.nmod) if ar.tau[x] is not None and tau_inv[x] is not None)
        hom_masks = cc._hom_masks

        def dropped(bits, exist):
            row, col = hom_masks(bits, exist)
            col[z] &= ~(1 << bits[z])
            return row, col

        monkeypatch.setattr(cc, "_hom_masks", dropped)
        with pytest.raises(AssertionError, match="extension vanishing must be symmetric"):
            cc.compatibility()

    @pytest.mark.parametrize("kind,n", [("I2", 3), ("H3", None)])
    def test_block_out_of_U_order_is_rejected(self, kind, n):
        # a member's position in its block is its Chebyshev index: block 0
        # listed backwards puts the theta_1 projective first
        spec = standard_folding(kind, n)
        blocks = (spec.blocks[0][::-1],) + spec.blocks[1:]
        with pytest.raises(AssertionError, match="projective block does not form a column"):
            ClusterCategory(replace_spec(spec, blocks=blocks))

    def test_ext_symmetric_vanishing(self, h3):
        h3.compatibility()
        vanish, bits = h3._vanish, h3._grid_bit
        for x in objects(h3):
            for y in objects(h3):
                assert bool(vanish[x] >> bits[y] & 1) == bool(vanish[y] >> bits[x] & 1)

    def test_indecomposables_rigid(self, i7):
        i7.compatibility()
        for x in objects(i7):
            assert i7._vanish[x] >> i7._grid_bit[x] & 1


class TestRigidity:
    def test_single_generator_rigid(self, h3):
        g = h3.generators[0]
        assert mask_rigid(h3, [g])

    def test_initial_projectives_rigid(self, h3):
        start = h3.initial_tilting()
        assert len(start) == 3
        assert mask_rigid(h3, start)
        assert is_classical_tilting(oracle_ext(h3), h3.hat(start))

    def test_some_pair_not_rigid(self, h3):
        adj = h3.compatibility()
        assert any(len(adj[g]) < len(h3.generators) - 1 for g in h3.generators)


class TestTiltingEnumeration:
    def test_count_i7(self, i7):
        assert len(i7.enumerate_tilting()) == 9

    def test_count_i5(self, i5):
        assert len(i5.enumerate_tilting()) == 7

    def test_count_h3(self, h3):
        assert len(h3.enumerate_tilting()) == 32

    def test_non_maximal_clique_is_reported(self, monkeypatch):
        # one summand short of the rank, every clique still has a completion
        cc = ClusterCategory(standard_folding("H3"))
        monkeypatch.setattr(cc, "tilting_rank", lambda: 2)
        with pytest.raises(AssertionError, match="rank-size rigid set failed maximality"):
            cc.enumerate_tilting()

    def test_hats_are_classical_tilting(self, i7):
        for t in i7.enumerate_tilting():
            hat = i7.hat(t)
            assert len(hat) == 6
            assert is_classical_tilting(oracle_ext(i7), hat)

    def test_two_complements_everywhere(self, h3):
        for t in h3.enumerate_tilting():
            for k in range(len(t)):
                rest = t[:k] + t[k + 1:]
                comps = h3.complements(rest)
                assert len(comps) == 2
                assert t[k] in comps

    def test_i7_neighbour_structure(self, i7):
        # rank 2: almost complete objects are single generators; their two
        # complements knit the nine columns into a single cycle
        neighbours = {g: i7.complements((g,)) for g in i7.generators}
        for g, (a, b) in neighbours.items():
            assert g in neighbours[a] and g in neighbours[b]
        start = i7.generators[0]
        cycle = [start, neighbours[start][0]]
        while True:
            a, b = neighbours[cycle[-1]]
            nxt = b if a == cycle[-2] else a
            if nxt == start:
                break
            cycle.append(nxt)
        assert len(cycle) == 9


class TestMutation:
    def test_double_mutation_returns(self, h3):
        start = h3.initial_tilting()
        B = h3.spec.B
        t1, B1 = mutate_tilting(h3, start, 1, B)
        t2, B2 = mutate_tilting(h3, t1, 1, B1)
        assert t2 == start
        assert B2 == B

    def test_exchange_graph_h3(self, h3):
        nodes, edges = h3.exchange_graph()
        assert len(nodes) == 32
        assert len(edges) == 32 * 3 // 2

    def test_exchange_graph_i7_matrices(self, i7):
        nodes, edges = i7.exchange_graph()
        assert len(nodes) == 9
        assert len(edges) == 9
        gen = AlgReal.generator(7)
        for aligned in nodes.values():
            flat = {aligned[0][1], aligned[1][0]}
            assert flat == {gen, -gen}

    def test_exchange_graph_connected_matches_enumeration(self, i5):
        nodes, _ = i5.exchange_graph()
        tilts = i5.enumerate_tilting()
        assert {frozenset(t) for t in tilts} == set(nodes)

    def test_exchange_graph_h4(self):
        cc = ClusterCategory(standard_folding("H4"))
        nodes, edges = cc.exchange_graph()
        assert len(nodes) == 280
        assert len(edges) == 280 * 4 // 2
        assert {frozenset(t) for t in cc.enumerate_tilting()} == set(nodes)


class TestGVectors:
    def test_projective_g_vectors(self, i7):
        ar = i7.mc.ar
        for v in range(6):
            g = i7.g_vector(ar.proj_module[v])
            assert g == tuple(1 if w == v else 0 for w in range(6))

    def test_shift_g_vectors(self, i7):
        for v in range(6):
            g = i7.g_vector(i7.shift_ident(v))
            assert g == tuple(-1 if w == v else 0 for w in range(6))

    def test_folded_matches_d_F(self, h3):
        for x in objects(h3):
            assert h3.g_vector_folded(x) == h3.spec.d_F(h3.g_vector(x))

    def test_golden_scaling(self, h3):
        phi = AlgReal.generator(5)
        for g in h3.generators:
            members = h3.iso_sets[g]
            g0 = h3.g_vector_folded(members[0])
            g1 = h3.g_vector_folded(members[1])
            assert tuple(phi * c for c in g0) == g1

    def test_initial_G_matrices(self, h3):
        start = h3.initial_tilting()
        G_hat, G_prime = production_G_matrices(h3, start)
        assert G_hat == tuple(
            tuple(1 if i == j else 0 for j in range(6)) for i in range(6)
        )
        one, zero = AlgReal(5, (1,)), AlgReal(5)
        assert G_prime == tuple(
            tuple(one if i == j else zero for j in range(3)) for i in range(3)
        )

    def test_d_F_of_hat_matrix(self, i7):
        for t in i7.enumerate_tilting():
            G_hat, G_prime = production_G_matrices(i7, t)
            assert matrix_d_F(i7.spec, G_hat) == G_prime

    def test_one_mutation_matches_seed_walk(self, h3):
        # exchanging one summand of the initial object reproduces the
        # one-step G-matrix of the seed pattern (opposite orientation)
        from quiverfold.tropical import Seed, g_matrix

        start = h3.initial_tilting()
        for k in range(3):
            t1, _ = mutate_tilting(h3, start, k, h3.spec.B)
            walk = g_matrix(Seed.initial(-h3.spec.B).mutate(k)).entries
            assert h3.folded_G_matrix(t1) == walk


# -- oracles: the complement code from before the adjacency-based
# complements.  It scans every generator and reads the hammock oracle's Ext
# table.  The g-vector oracles, which solve the projective presentation on
# every call, are in ``spec_oracles``.


def oracle_pair_rigid(cc, g1, g2):
    """No extension between the members of the two columns, in either direction."""
    ext = oracle_ext(cc)
    return all(
        ext[z1][z2] == 0 and ext[z2][z1] == 0
        for z1 in cc.iso_sets[g1]
        for z2 in cc.iso_sets[g2]
    )


def oracle_complements(cc, almost):
    almost = tuple(almost)
    if not all(oracle_pair_rigid(cc, a, b) for a in almost for b in almost):
        raise ValueError("input is not rigid")
    found = []
    for g in cc.generators:
        if g in almost:
            continue
        if all(oracle_pair_rigid(cc, g, t) for t in almost) and oracle_pair_rigid(cc, g, g):
            found.append(g)
    if len(found) != 2:
        raise AssertionError(
            f"almost complete object has {len(found)} complements, expected 2"
        )
    return tuple(found)


EQUIVALENCE_KINDS = [("I2", 3), ("I2", 4), ("H3", None), ("H4", None)]


@pytest.fixture(scope="module", params=EQUIVALENCE_KINDS, ids=lambda k: f"{k[0]}{k[1] or ''}")
def cat(request):
    return ClusterCategory(standard_folding(*request.param))


class TestAgainstOracle:
    def test_g_vectors(self, cat):
        for x in objects(cat):
            assert cat.g_vector(x) == g_vector(cat, x)
        for g in cat.generators:
            assert cat.g_vector_folded(g) == g_vector_folded(cat, g)

    def test_complements_and_their_order(self, cat):
        for t in cat.enumerate_tilting():
            for k in range(len(t)):
                rest = t[:k] + t[k + 1:]
                assert cat.complements(rest) == oracle_complements(cat, rest)

    def test_non_rigid_input_raises(self, cat):
        adj = cat.compatibility()
        g1, g2 = next(
            (a, b) for a, b in itertools.combinations(cat.generators, 2) if b not in adj[a]
        )
        with pytest.raises(ValueError):
            cat.complements((g1, g2))
        with pytest.raises(ValueError):
            oracle_complements(cat, (g1, g2))

    def test_compatibility_is_read_only(self, cat):
        adj = cat.compatibility()
        assert cat.compatibility() is adj
        g = cat.generators[0]
        with pytest.raises(TypeError):
            adj[g] = frozenset()
        with pytest.raises(AttributeError):
            adj[g].add(g)


@pytest.mark.parametrize("opp", [False, True], ids=["std", "opp"])
@pytest.mark.parametrize(
    "kind", [("H3", None), ("H4", None)] + [("I2", n) for n in range(2, 9)],
    ids=lambda k: f"{k[0]}{k[1] or ''}",
)
def test_g_vectors_match_presentations(kind, opp):
    # the Euler-form closed form against the presentation solve, every module
    cc = ClusterCategory(standard_folding(*kind, opp=opp))
    for x in range(cc.nmod):
        a, b = presentation(cc, x)
        assert cc.g_vector(x) == tuple(ai - bi for ai, bi in zip(a, b))


class _CountedSets(dict):
    """A g-vector table that counts how often each object's entry is set."""

    def __init__(self):
        super().__init__()
        self.sets = Counter()

    def __setitem__(self, x, g):
        self.sets[x] += 1
        super().__setitem__(x, g)


@pytest.mark.parametrize("kind", EQUIVALENCE_KINDS, ids=lambda k: f"{k[0]}{k[1] or ''}")
def test_presentation_once_per_module(kind):
    # each object's g-vector, and folded g-vector, is computed once, on
    # first use: the tables are empty after __init__ and each entry is set once
    cc = ClusterCategory(standard_folding(*kind))
    assert not cc._g and not cc._g_folded, "the g-vector tables must fill lazily, not in __init__"
    cc._g, cc._g_folded = _CountedSets(), _CountedSets()
    tilts = cc.enumerate_tilting()
    for _ in range(2):
        for t in tilts:
            G_projection_verdicts(cc, t)
        for x in objects(cc):
            cc.g_vector(x)
            cc.g_vector_folded(x)
    assert cc._g.sets == cc._g_folded.sets == Counter(objects(cc))


# -- oracles: the exchange graph from before each edge was decided once.
# The BFS mutates ``ExchangeMatrix`` values along every directed edge.  The
# cluster Hom and Ext tables the rigidity oracles read are
# ``spec_oracles.oracle_tables``.


def oracle_exchange_graph(cc):
    start = cc.initial_tilting()
    rank = len(start)
    nodes = {}
    edges = set()

    def aligned(summands, folded):
        order = sorted(range(rank), key=lambda i: summands[i])
        return tuple(
            tuple(folded.entries[order[i]][order[j]] for j in range(rank))
            for i in range(rank)
        )

    frontier = [(start, cc.spec.B)]
    nodes[frozenset(start)] = aligned(start, cc.spec.B)
    while frontier:
        new = []
        for summands, folded in frontier:
            key = frozenset(summands)
            for k in range(rank):
                nxt, nxt_folded = mutate_tilting(cc, summands, k, folded)
                nkey = frozenset(nxt)
                edges.add(frozenset((key, nkey)))
                ali = aligned(nxt, nxt_folded)
                if nkey not in nodes:
                    nodes[nkey] = ali
                    new.append((nxt, nxt_folded))
                elif nodes[nkey] != ali:
                    raise AssertionError("folded matrix depends on the mutation path")
        frontier = new
    return nodes, edges


def entry_types(nodes):
    return {
        key: tuple(tuple(type(x) for x in row) for row in rows) for key, rows in nodes.items()
    }


TABLE_KINDS = [("I2", 2), ("I2", 3), ("I2", 4), ("H3", None), ("H4", None)]


@pytest.mark.parametrize("kind", TABLE_KINDS, ids=lambda k: f"{k[0]}{k[1] or ''}")
def test_tables_match_per_entry_oracle(kind):
    # the cluster tables the orbit formula gives from the library's module
    # Hom rows (``hom_row``, through ``hom_ext_tables``) against the ones it
    # gives from the hammock recursion
    cc = ClusterCategory(standard_folding(*kind))
    assert oracle_tables(cc, hom_ext_tables) == oracle_tables(cc)


# (kind, random subsets per size): every size of H3, I2(7) and I2(9) many
# times, and a sample of H4's 64 generators
MASK_RULE_KINDS = [(("H3", None), 120), (("I2", 3), 120), (("I2", 4), 120), (("H4", None), 60)]


@pytest.mark.parametrize(
    "kind,samples", MASK_RULE_KINDS, ids=[f"{k[0]}{k[1] or ''}" for k, _ in MASK_RULE_KINDS]
)
def test_mask_rule_matches_pairwise_oracle(kind, samples):
    # the mask rule and complements read one AND of masks and one OR of bits;
    # the oracle decides every pair of summands from the Ext table.  Half the
    # subsets are uniform, half are drawn from a tilting object, so rigid
    # almost complete sets occur at every kind.
    cc = ClusterCategory(standard_folding(*kind))
    rank = cc.tilting_rank()
    tilts = cc.enumerate_tilting()
    rng = random.Random(27)
    seen = Counter()
    for size in range(rank + 1):
        for i in range(samples):
            pool = cc.generators if i % 2 else rng.choice(tilts)
            subset = tuple(rng.sample(pool, size))
            rigid = all(oracle_pair_rigid(cc, a, b) for a in subset for b in subset)
            assert mask_rigid(cc, subset) == rigid
            if not rigid:
                with pytest.raises(ValueError, match="not rigid"):
                    cc.complements(subset)
            elif size == rank - 1:
                assert cc.complements(subset) == oracle_complements(cc, subset)
            seen[rigid, size == rank - 1] += 1
    # at rank 2 every almost complete set is one self-rigid generator
    assert seen[True, True] and seen[False, True] + seen[False, False]


@pytest.mark.parametrize("kind", TABLE_KINDS, ids=lambda k: f"{k[0]}{k[1] or ''}")
def test_compatibility_matches_oracle_adjacency(kind):
    cc = ClusterCategory(standard_folding(*kind))
    want = {
        g1: frozenset(g2 for g2 in cc.generators if g2 != g1 and oracle_pair_rigid(cc, g1, g2))
        for g1 in cc.generators
    }
    assert dict(cc.compatibility()) == want
    for g1 in cc.generators:
        assert oracle_pair_rigid(cc, g1, g1)
        for g2 in cc.generators:
            assert bool(cc._mask[g1] & cc._bit[g2]) == (g1 == g2 or g2 in want[g1])


@pytest.mark.parametrize(
    "kind", TABLE_KINDS + [("I2", n) for n in range(5, 9)], ids=lambda k: f"{k[0]}{k[1] or ''}"
)
def test_ext_masks_match_table_oracles(kind):
    # the grid masks against the zero pattern of the hammock oracle's Ext
    # table, and the compatibility graph against the one that table gives
    cc = ClusterCategory(standard_folding(*kind))
    adj = cc.compatibility()
    _, ext = oracle_tables(cc)
    objs, bits = objects(cc), cc._grid_bit
    assert cc._vanish == [sum(1 << bits[y] for y in objs if ext[x][y] == 0) for x in objs]

    def rigid(g, h):
        return all(ext[a][b] == 0 == ext[b][a] for a in cc.iso_sets[g] for b in cc.iso_sets[h])

    gens = cc.generators
    assert dict(adj) == {g: frozenset(h for h in gens if h != g and rigid(g, h)) for g in gens}


@pytest.mark.parametrize("kind", TABLE_KINDS, ids=lambda k: f"{k[0]}{k[1] or ''}")
def test_rigidity_builds_no_table(kind):
    # enumeration, the exchange graph and complements read only the grid masks
    cc = ClusterCategory(standard_folding(*kind))
    first = cc.enumerate_tilting()[0]
    cc.exchange_graph()
    cc.complements(first[1:])
    assert cc.mc.ar._hom is None


@pytest.mark.parametrize("kind", TABLE_KINDS, ids=lambda k: f"{k[0]}{k[1] or ''}")
def test_hammock_recursion_once_per_projective(kind):
    # the Hom table, its projective rows read off the dimension vectors
    # included, is filled on first use, not by the constructors
    cc = ClusterCategory(standard_folding(*kind))
    assert cc.mc.ar._hom is None, "the Hom table must fill lazily, not in __init__"


def test_exchange_graph_matches_two_sided_oracle(cat):
    nodes, edges = cat.exchange_graph()
    want_nodes, want_edges = oracle_exchange_graph(cat)
    assert edges == want_edges
    assert nodes == want_nodes
    assert entry_types(nodes) == entry_types(want_nodes)


def _rests(cc):
    """The almost complete object of every edge of the exchange graph."""
    _, edges = oracle_exchange_graph(cc)
    return sorted((frozenset.intersection(*e) for e in edges), key=sorted)


class PlantedMutation:
    """Rewrites entry ``spot`` of the matrix that one chosen edge produces.

    Both BFSs ask ``complements`` for the almost complete object of an
    edge right before they mutate along it, so a spy on ``complements``
    tells the patched mutations which edge they are on.  Only the first
    mutation along the edge is changed, to ``change`` of the entry's value.
    """

    def __init__(self, monkeypatch, rest, change, spot):
        self.rest, self.change, self.spot = rest, change, spot
        self.last = None
        self.fired = False
        complements = ClusterCategory.complements
        mutate = ExchangeMatrix.mutate
        mutate_coeffs = clustercat.mutate_coeffs

        def spy(cc, almost):
            self.last = frozenset(almost)
            return complements(cc, almost)

        def mutate_matrix(matrix, k):
            rows = [list(row) for row in mutate(matrix, k).entries]
            self.plant(rows, lambda x: x, lambda v: v)
            return ExchangeMatrix(rows)

        def mutate_rows(rows, k, m=None):
            out = [list(row) for row in mutate_coeffs(rows, k, m)]
            self.plant(
                out,
                lambda x: x if type(x) is int else AlgReal(m, x),
                lambda v: v.coeffs if isinstance(v, AlgReal) else v,
            )
            return tuple(map(tuple, out))

        monkeypatch.setattr(ClusterCategory, "complements", spy)
        monkeypatch.setattr(ExchangeMatrix, "mutate", mutate_matrix)
        monkeypatch.setattr(clustercat, "mutate_coeffs", mutate_rows)

    def plant(self, rows, decode, encode):
        if self.last == self.rest and not self.fired:
            self.fired = True
            i, j = self.spot
            rows[i][j] = encode(self.change(decode(rows[i][j])))


PLANT_KINDS = [("I2", 3), ("H3", None)]


@pytest.mark.parametrize("kind", PLANT_KINDS, ids=lambda k: f"{k[0]}{k[1] or ''}")
def test_planted_corruption_is_path_dependence(monkeypatch, kind):
    cc = ClusterCategory(standard_folding(*kind))
    for rest in _rests(cc):
        for bfs in (oracle_exchange_graph, ClusterCategory.exchange_graph):
            with monkeypatch.context() as patch:
                planted = PlantedMutation(patch, rest, lambda v: v + 1, (0, 1))
                with pytest.raises(AssertionError, match="depends on the mutation path"):
                    bfs(cc)
                assert planted.fired


@pytest.mark.parametrize("kind", PLANT_KINDS, ids=lambda k: f"{k[0]}{k[1] or ''}")
def test_int_zero_and_ring_zero_agree(monkeypatch, kind):
    # the diagonal is AlgReal(m, ()) on every path; one edge makes it an int 0
    cc = ClusterCategory(standard_folding(*kind))
    want, want_edges = cc.exchange_graph()
    assert all(type(rows[0][0]) is AlgReal and rows[0][0] == 0 for rows in want.values())
    for rest in _rests(cc):
        for bfs in (oracle_exchange_graph, ClusterCategory.exchange_graph):
            with monkeypatch.context() as patch:
                planted = PlantedMutation(patch, rest, lambda v: 0, (0, 0))
                nodes, edges = bfs(cc)
                assert planted.fired
                assert nodes == want and edges == want_edges


def test_exchange_graph_decides_each_edge_once(monkeypatch):
    calls = Counter()
    complements = ClusterCategory.complements
    mutate_coeffs = clustercat.mutate_coeffs

    def counted_complements(self, almost):
        calls["complements"] += 1
        return complements(self, almost)

    def counted_mutate(rows, k, m=None):
        calls["mutate_coeffs"] += 1
        return mutate_coeffs(rows, k, m)

    cc = ClusterCategory(standard_folding("H4"))
    monkeypatch.setattr(ClusterCategory, "complements", counted_complements)
    monkeypatch.setattr(clustercat, "mutate_coeffs", counted_mutate)
    _, edges = cc.exchange_graph()
    assert len(edges) == 560
    assert calls == {"complements": 560, "mutate_coeffs": 560}


def test_summand_must_be_a_complement_of_its_rest(monkeypatch):
    # complements that leave the summand out are a fault, not a swap
    cc = ClusterCategory(standard_folding("I2", 3))
    start = set(cc.initial_tilting())
    outside = tuple(g for g in cc.generators if g not in start)[:2]
    monkeypatch.setattr(ClusterCategory, "complements", lambda self, almost: outside)
    with pytest.raises(AssertionError, match="must be a complement of its rest"):
        cc.exchange_graph()


CATALAN_KINDS = [("H3", None), ("H4", None)] + [("I2", n) for n in range(2, 17)]


@pytest.mark.parametrize("kind", CATALAN_KINDS, ids=lambda k: f"{k[0]}{k[1] or ''}")
def test_exchange_graph_has_catalan_nodes_and_rank_regular_edges(kind):
    # Cat(W) tilting objects, each on r edges, and every one reachable
    spec = standard_folding(*kind)
    cc = ClusterCategory(spec)
    nodes, edges = cc.exchange_graph()
    catalan, rank = coxeter_catalan(folded_type_name(spec)), cc.tilting_rank()
    assert len(nodes) == catalan
    assert 2 * len(edges) == rank * catalan
    assert all(len(edge) == 2 and edge <= nodes.keys() for edge in edges)
    assert Counter(key for edge in edges for key in edge) == dict.fromkeys(nodes, rank)
    assert set(nodes) == {frozenset(t) for t in cc.enumerate_tilting()}


def per_object_G_verdicts(cc, tilts):
    """One verdict per tilting object: its whole lifted G projected against its folded G.

    The loop ``verify all`` ran before it decided each summand once: one
    ``tilting_G_matrices`` on the category's tables and one ``matrix_d_F`` per
    object, with a d_F memo shared across objects.
    """
    projected, reps = {}, cc.spec.weight_one_reps
    return [
        tropical.matrix_d_F(cc.spec, G_hat, projected, reps) == coeff_rows(G_prime)
        for G_hat, G_prime in (production_G_matrices(cc, t) for t in tilts)
    ]


class TestGProjectionPerSummand:
    @pytest.mark.parametrize("plant", [None, "folded", "lifted"])
    @pytest.mark.parametrize("kind", EQUIVALENCE_KINDS, ids=lambda k: f"{k[0]}{k[1] or ''}")
    def test_summand_verdicts_decide_every_object(self, monkeypatch, kind, plant):
        cc = ClusterCategory(standard_folding(*kind))
        tilts = cc.enumerate_tilting()
        summands = sorted({g for t in tilts for g in t})
        bad = tilts[-1][0]
        if plant == "folded":
            real = ClusterCategory.g_vector_folded

            def shifted(self, x):
                g = real(self, x)
                return (g[0] + 1,) + g[1:] if x == bad else g

            monkeypatch.setattr(ClusterCategory, "g_vector_folded", shifted)
        elif plant == "lifted":
            # the folded g-vector is made from the lifted one, so fix it first
            cc.g_vector_folded(bad)
            g = cc.g_vector(bad)
            cc._g[bad] = (g[0] + 1,) + g[1:]
        verdict = dict(zip(summands, G_projection_verdicts(cc, summands)))
        objects = per_object_G_verdicts(cc, tilts)
        assert objects == [all(verdict[g] for g in t) for t in tilts]
        assert any(objects)
        assert all(objects) == (plant is None)
        assert [g for g in summands if not verdict[g]] == ([] if plant is None else [bad])

    @pytest.mark.parametrize("kind", EQUIVALENCE_KINDS, ids=lambda k: f"{k[0]}{k[1] or ''}")
    def test_every_presentation_of_the_object_loop_is_solved(self, kind):
        per_object, per_summand = (ClusterCategory(standard_folding(*kind)) for _ in range(2))
        tilts = per_object.enumerate_tilting()
        assert all(per_object_G_verdicts(per_object, tilts))
        summands = sorted({g for t in tilts for g in t})
        assert all(G_projection_verdicts(per_summand, summands))
        # the summand verdicts compute only each summand's index-0 member's g-vector
        assert per_summand._g.keys() == {per_summand.iso_sets[g][0] for g in summands}
