import itertools

import pytest
from hypothesis import given, settings, strategies as st

from quiverfold import repcat
from quiverfold.chebring import AlgReal, ChebElem, _context, _poly_trim, cheb_mul, sigma
from quiverfold.exchange import RingValues
from quiverfold.repcat import ARQuiver, FoldedCategory, hom_ext_tables, quiver_arrows_from_matrix
from quiverfold.rootsys import RootSet
from quiverfold.unfolding import FoldingSpec, standard_folding
from spec_oracles import (
    chebyshev_factors, euler_form, hammock_tables, is_positive_root, replace_spec,
    simply_laced_positive_roots,
)


def act_on_multiset(cat, r, multiset):
    """r acting on a multiset of indecomposables, summand by summand (``semiring_act``)."""
    out = {}
    for ident, mult in multiset.items():
        for k, c in cat.semiring_act(r, ident).items():
            out[k] = out.get(k, 0) + mult * c
    return {k: v for k, v in sorted(out.items()) if v}


def dimproj_of_multiset(cat, multiset):
    """The projected dimension vector of a multiset: its members', summed with multiplicity."""
    terms = [tuple(mult * c for c in cat.dimproj[x]) for x, mult in multiset.items()]
    return tuple(map(sum, zip(*terms)))


def linear_quiver(n):
    return ARQuiver(n, tuple((i, i + 1) for i in range(n - 1)))


@pytest.fixture(scope="module")
def h3cat():
    return FoldedCategory(standard_folding("H3"))


@pytest.fixture(scope="module")
def i7cat():
    return FoldedCategory(standard_folding("I2", 3))


@pytest.fixture(scope="module")
def i5cat():
    return FoldedCategory(standard_folding("I2", 2))


class TestKnitting:
    def test_a2_grid(self):
        ar = linear_quiver(2)
        assert len(ar.modules) == 3
        dims = {mod.dim for mod in ar.modules}
        assert dims == {(1, 1), (0, 1), (1, 0)}

    def test_a4_count(self, i5cat):
        assert len(i5cat.ar.modules) == 10

    def test_d6_count(self, h3cat):
        assert len(h3cat.ar.modules) == 30

    def test_a6_count(self, i7cat):
        assert len(i7cat.ar.modules) == 21

    @pytest.mark.parametrize("kind,n", [("I2", 2), ("I2", 3), ("H3", None)])
    def test_gabriel_bijection(self, kind, n):
        spec = standard_folding(kind, n)
        arrows = quiver_arrows_from_matrix(spec.S)
        edges = [(i, j) for i, j in arrows]
        positive = simply_laced_positive_roots(spec.S.n, edges)
        ar = ARQuiver(spec.S.n, arrows)
        assert {mod.dim for mod in ar.modules} == positive

    @pytest.mark.parametrize("name", ["out_adj", "in_adj", "ar_in", "ar_out"])
    def test_adjacency_is_tuples_of_tuples(self, h3cat, name):
        table = getattr(h3cat.ar, name)
        assert type(table) is tuple
        assert table and all(type(row) is tuple for row in table)

    def test_e8_gabriel(self):
        spec = standard_folding("H4")
        arrows = quiver_arrows_from_matrix(spec.S)
        ar = ARQuiver(spec.S.n, arrows)
        assert len(ar.modules) == 120
        positive = simply_laced_positive_roots(8, [(i, j) for i, j in arrows])
        assert {mod.dim for mod in ar.modules} == positive

    def test_projectives_and_injectives(self, i5cat):
        ar = i5cat.ar
        for v in range(4):
            assert ar.modules[ar.proj_module[v]].dim == ar.proj_dims[v]
            assert ar.modules[ar.inj_module[v]].dim == ar.inj_dims[v]

    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            ARQuiver(2, ((0, 1), (1, 0)))

    def test_broken_mesh_is_reported(self, monkeypatch):
        # the projected keys are knitted over ar_in, so a mesh that lost a
        # middle term must stop the build
        real = ARQuiver._check_meshes
        dropped = []

        def check(self):
            x = next(x for x in self.ar_order if self.tau[x] is not None)
            self.ar_in = self.ar_in[:x] + (self.ar_in[x][1:],) + self.ar_in[x + 1:]
            dropped.append(x)
            real(self)

        monkeypatch.setattr(ARQuiver, "_check_meshes", check)
        with pytest.raises(AssertionError, match="mesh additivity fails at module") as err:
            FoldedCategory(standard_folding("H3"))
        assert str(err.value) == f"mesh additivity fails at module {dropped[0]}"


class TestHomExt:
    def test_a2_values(self):
        ar = linear_quiver(2)
        P0 = ar.proj_module[0]
        P1 = ar.proj_module[1]
        S0 = ar.dim_lookup[(1, 0)]
        hom, ext = hom_ext_tables(ar)
        assert hom[P0][S0] == 1
        assert hom[P1][S0] == 0
        assert hom[P1][P0] == 1
        assert ext[S0][P1] == 1
        assert ext[P1][S0] == 0

    @pytest.mark.parametrize("kind,n", [("I2", 2), ("H3", None)])
    def test_endomorphism_fields(self, kind, n):
        ar = FoldedCategory(standard_folding(kind, n)).ar
        for mod in ar.modules:
            assert ar.hom_row(mod.ident)[mod.ident] == 1

    @pytest.mark.parametrize("kind,n", [("I2", 2), ("I2", 3), ("H3", None)])
    def test_euler_form_identity(self, kind, n):
        ar = FoldedCategory(standard_folding(kind, n)).ar
        hom, ext = hom_ext_tables(ar)
        for a in range(len(ar.modules)):
            for b in range(len(ar.modules)):
                lhs = hom[a][b] - ext[a][b]
                rhs = euler_form(ar, ar.modules[a].dim, ar.modules[b].dim)
                assert lhs == rhs

    @pytest.mark.parametrize(
        "kind,n", [("I2", 3), ("I2", 4), ("I2", 5), ("I2", 6), ("H3", None), ("H4", None)]
    )
    def test_ext_table_matches_per_entry_ext(self, kind, n):
        ar = FoldedCategory(standard_folding(kind, n)).ar
        size = len(ar.modules)
        hom, ext = hom_ext_tables(ar)
        assert (hom, ext) == hammock_tables(ar)
        assert hom == tuple(ar.hom_row(a) for a in range(size))
        assert all(type(row) is tuple for row in ext)
        assert any(ar.tau[a] is None for a in range(size))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tau_shifted_table_on_random_orientations(self, data):
        # Dynkin graph A_n, D_n or E_n, its edges oriented and its vertices
        # labelled at random; the module count is the number of positive roots
        kind, n = data.draw(st.sampled_from(
            [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 8)]
            + [("E", 6), ("E", 7), ("E", 8)]
        ))
        edges = [(i, i + 1) for i in range(n - 2)]
        if kind == "A" and n > 1:
            edges.append((n - 2, n - 1))
        elif kind != "A":
            edges.append((n - 3 if kind == "D" else 2, n - 1))
        label = data.draw(st.permutations(range(n)))
        flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        arrows = [(label[j], label[i]) if f else (label[i], label[j]) for (i, j), f in zip(edges, flips)]
        ar = ARQuiver(n, arrows)
        roots = {"A": n * (n + 1) // 2, "D": n * (n - 1), "E": {6: 36, 7: 63, 8: 120}.get(n)}[kind]
        assert len(ar.modules) == roots
        assert hom_ext_tables(ar) == hammock_tables(ar)

    def test_ext_vanishes_on_projectives(self, h3cat):
        ar = h3cat.ar
        _, ext = hom_ext_tables(ar)
        for v in range(6):
            assert ext[ar.proj_module[v]] == (0,) * len(ar.modules)


# projected dimension vectors of the ten A4 indecomposables, keyed by
# dimension vector in the bipartite labels 0 -> 1 <- 2 -> 3
A4_PROJECTIONS = {
    (1, 0, 0, 0): ("1", "0"),
    (0, 1, 1, 0): ("p", "p"),
    (0, 0, 0, 1): ("0", "1"),
    (1, 1, 1, 0): ("1+p", "p"),
    (0, 1, 1, 1): ("p", "1+p"),
    (0, 0, 1, 0): ("p", "0"),
    (1, 1, 1, 1): ("1+p", "1+p"),
    (0, 1, 0, 0): ("0", "p"),
    (0, 0, 1, 1): ("p", "1"),
    (1, 1, 0, 0): ("1", "p"),
}


def _symbol(value: AlgReal) -> str:
    phi = AlgReal.generator(5)
    table = {
        AlgReal(5): "0",
        AlgReal(5, (1,)): "1",
        phi: "p",
        AlgReal(5, (1,)) + phi: "1+p",
    }
    return table[value]


class TestProjections:
    def test_a4_figure_values(self, i5cat):
        seen = {}
        for mod in i5cat.ar.modules:
            vec = i5cat.dimproj[mod.ident]
            seen[mod.dim] = tuple(_symbol(c) for c in vec)
        assert seen == A4_PROJECTIONS

    def test_zero_vector(self, i5cat):
        assert i5cat.spec.d_F((0, 0, 0, 0)) == (AlgReal(5), AlgReal(5))

    def test_i7_even_injectives(self, i7cat):
        # dimproj(I(k)) = (U_k, 0) for even k
        for k in (0, 2, 4):
            ident = i7cat.ar.inj_module[k]
            vec = i7cat.dimproj[ident]
            assert vec[0] == AlgReal.chebyshev(7, k)
            assert vec[1] == AlgReal(7)

    def test_h3_has_golden_root_module(self, h3cat):
        phi, one = AlgReal.generator(5), AlgReal(5, (1,))
        assert (phi, phi, one) in {h3cat.dimproj[g] for g in h3cat.generators}

    @pytest.mark.parametrize("kind,n", [("H3", None), ("H4", None), ("I2", 3)])
    def test_planted_non_root_projection_raises(self, monkeypatch, kind, n):
        # 7 e_1 is no theta_j alpha: alpha would be a multiple of e_1, so e_1,
        # and every theta_j evaluates below 7
        spec = standard_folding(kind, n)
        real = FoldingSpec.coeff_d_F
        planted = []

        def coeff_d_F(self, vector):
            out = real(self, vector)
            if not planted:
                planted.append(vector)
                out = ((7,),) + ((),) * (len(out) - 1)
            return out

        monkeypatch.setattr(FoldingSpec, "coeff_d_F", coeff_d_F)
        with pytest.raises(AssertionError, match="module 0 is not a Chebyshev multiple of a root"):
            FoldedCategory(spec)
        assert planted

    def test_colliding_multiples_raise(self, monkeypatch):
        # phi times the first simple root planted as a positive root of H3
        spec = standard_folding("H3")
        plant_multiple_as_root(monkeypatch, spec, 1)
        with pytest.raises(AssertionError, match="Chebyshev multiples of distinct roots collide"):
            FoldedCategory(spec)

    @pytest.mark.parametrize("fixture", ["i5cat", "i7cat", "h3cat"])
    def test_folding_theorem(self, fixture, request):
        cat = request.getfixturevalue(fixture)
        report = cat.verify_folding_theorem()
        assert report["passed"], report["problems"]
        assert report["weight_one_row_roots"] == len(cat.roots.positives)

    @pytest.mark.parametrize("n", [4, 5])
    def test_higher_rank_folding_theorem(self, n):
        cat = FoldedCategory(standard_folding("I2", n))
        report = cat.verify_folding_theorem()
        assert report["passed"], report["problems"]
        assert report["weight_one_row_roots"] == 2 * n + 1

    def test_rad_series_multiples_h3(self, h3cat):
        # projections of paired injective rows differ by the golden factor
        spec, ar = h3cat.spec, h3cat.ar
        phi = AlgReal.generator(5)
        for block in spec.blocks:
            w1, wphi = block
            o1 = ar.modules[ar.inj_module[w1]].orbit
            o2 = ar.modules[ar.inj_module[wphi]].orbit
            l1 = ar.modules[ar.inj_module[w1]].slice
            for power in range(l1 + 1):
                v1 = h3cat.dimproj[ar.grid[(o1, l1 - power)]]
                v2 = h3cat.dimproj[ar.grid[(o2, l1 - power)]]
                assert tuple(phi * c for c in v1) == v2


def weight_swap_failures(cat):
    """Every failing pair of the weight-swap identity, by ``AlgReal`` products on ``dimproj``.

    For each pair a < b of one block and each translate power, U_b x_a =
    U_a x_b entrywise, with ``spec.weights`` as the U.  A failure is
    (frozenset((a, b)), power); a row-length mismatch has power None.
    """
    spec, ar = cat.spec, cat.ar
    out = set()
    for block in spec.blocks:
        for a, b in itertools.combinations(block, 2):
            ia, ib = ar.modules[ar.inj_module[a]], ar.modules[ar.inj_module[b]]
            if ia.slice != ib.slice:
                out.add((frozenset((a, b)), None))
                continue
            wa, wb = spec.weights[a], spec.weights[b]
            for power in range(ia.slice + 1):
                va = cat.dimproj[ar.grid[(ia.orbit, ia.slice - power)]]
                vb = cat.dimproj[ar.grid[(ib.orbit, ib.slice - power)]]
                if any(wb * x != wa * y for x, y in zip(va, vb)):
                    out.add((frozenset((a, b)), power))
    return out


def assert_swap_report_matches(cat, report):
    """The report names exactly the failing pairs that contain their block's first member."""
    failures = weight_swap_failures(cat)
    assert report["passed"] == (not failures)
    named = set()
    for p in report["problems"]:
        if p[0] in ("weight-swap", "row-length-mismatch"):
            a, b = p[1:3]
            assert any(block[0] == a and b in block[1:] for block in cat.spec.blocks), p
            named.add((frozenset((a, b)), p[3] if p[0] == "weight-swap" else None))
    firsts = {block[0] for block in cat.spec.blocks}
    assert named == {f for f in failures if f[0] & firsts}


class TestWeightSwap:
    @pytest.mark.parametrize("kind,n", [("I2", 2), ("I2", 3), ("I2", 6), ("H3", None), ("H4", None)])
    def test_matches_algreal_products(self, kind, n):
        cat = FoldedCategory(standard_folding(kind, n))
        report = cat.verify_folding_theorem()
        assert report["problems"] == []
        assert_swap_report_matches(cat, report)

    @pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("kind,n", [("I2", 3), ("I2", 6), ("H3", None)])
    def test_planted_weight_breaks_its_rows(self, kind, n, where):
        # the projections were made with the true weights; one planted
        # weight then breaks the identity for every pair its vertex is in,
        # and the report names those pairs that contain the block's first member
        cat = FoldedCategory(standard_folding(kind, n))
        block = cat.spec.blocks[0]
        bad = block[where]
        weights = list(cat.spec.weights)
        weights[bad] = weights[bad] + 1
        cat.spec = replace_spec(cat.spec, weights=tuple(weights))
        report = cat.verify_folding_theorem()
        problems = [p for p in report["problems"] if p[0] == "weight-swap"]
        assert not report["passed"]
        assert {p[2] for p in problems} == (set(block[1:]) if bad == block[0] else {bad})
        assert all(p[1] == block[0] for p in problems)
        assert_swap_report_matches(cat, report)

    def test_equal_rows_break_the_identity(self):
        # row b planted equal to row a, not U_b / U_a times it: every power
        # has a nonzero entry, so every power is a problem
        cat = FoldedCategory(standard_folding("I2", 3))
        ar = cat.ar
        a, b = cat.spec.blocks[0][:2]
        dimproj = list(cat.dimproj)
        ia, ib = ar.modules[ar.inj_module[a]], ar.modules[ar.inj_module[b]]
        for power in range(ia.slice + 1):
            dimproj[ar.grid[(ib.orbit, ib.slice - power)]] = dimproj[ar.grid[(ia.orbit, ia.slice - power)]]
        cat.dimproj = dimproj
        report = cat.verify_folding_theorem()
        assert_swap_report_matches(cat, report)
        assert [p for p in report["problems"] if p[1:3] == (a, b)] == [
            ("weight-swap", a, b, power) for power in range(ia.slice + 1)
        ]


class TestSemiringAction:
    def test_identity_action(self, i7cat):
        one = ChebElem.one(3)
        for mod in i7cat.ar.modules:
            assert i7cat.semiring_act(one, mod.ident) == {mod.ident: 1}

    def test_golden_square_h3(self, h3cat):
        # phi . (phi I(1)) = I(1) + phi I(1) for the weight-1 injective row
        v = h3cat.spec.weight_one_reps[0]
        gen = h3cat.ar.inj_module[v]
        assert h3cat.factor[gen][0] == 0
        phi_member = h3cat.column_of(gen)[1]
        theta1 = ChebElem.theta(2, 1)
        assert h3cat.semiring_act(theta1, phi_member) == {gen: 1, phi_member: 1}

    def test_i7_product_rule(self, i7cat):
        gen = next(g for g in i7cat.generators)
        col = i7cat.column_of(gen)
        theta1 = ChebElem.theta(3, 1)
        assert i7cat.semiring_act(theta1, col[1]) == {col[0]: 1, col[2]: 1}

    def test_rejects_negative(self, i7cat):
        with pytest.raises(ValueError):
            i7cat.semiring_act(ChebElem(3, (1, -1, 0)), 0)

    @pytest.mark.parametrize("fixture", ["i5cat", "i7cat"])
    def test_associativity_on_generators(self, fixture, request):
        cat = request.getfixturevalue(fixture)
        n = cat.n
        thetas = [ChebElem.theta(n, k) for k in range(n)]
        for mod in cat.ar.modules:
            for r in thetas:
                for s in thetas:
                    one_step = cat.semiring_act(cheb_mul(r, s), mod.ident)
                    two_step = act_on_multiset(cat, r, cat.semiring_act(s, mod.ident))
                    assert one_step == two_step

    def test_projection_compatibility(self, h3cat):
        r = ChebElem(2, (2, 1))
        for mod in h3cat.ar.modules[:10]:
            out = h3cat.semiring_act(r, mod.ident)
            got = dimproj_of_multiset(h3cat, out)
            scale = sigma(r)
            want = tuple(scale * c for c in h3cat.dimproj[mod.ident])
            assert got == want


class TestGeneratorsAndReducedAR:
    def test_generator_counts(self, i5cat, i7cat, h3cat):
        assert len(i5cat.generators) == 5
        assert len(i7cat.generators) == 7
        assert len(h3cat.generators) == 15

    def test_columns_partition(self, i7cat):
        cols = set()
        for alpha, col in i7cat.columns.items():
            cols.update(col)
            assert len(col) == 3
        assert cols == {mod.ident for mod in i7cat.ar.modules}


def derived_tau(cat, obj):
    """tau on formal shifts (k, module): stays in degree k off projectives.

    tau_D(Sigma^k P(i)) = Sigma^(k-1) I(i): the derived translate is the
    shift composed with the Nakayama functor, which pairs P(i) with I(i).
    """
    k, ident = obj
    t = cat.ar.tau[ident]
    if t is not None:
        return (k, t)
    v = cat.ar.modules[ident].proj_vertex
    return (k - 1, cat.ar.inj_module[v])


def derdim(cat, obj) -> tuple:
    """The projected dimension vector of a formal shift (k, module), negated for odd k."""
    k, ident = obj
    vec = cat.dimproj[ident]
    return vec if k % 2 == 0 else tuple(-c for c in vec)


class TestDerived:
    def test_derdim_signs(self, i7cat):
        mod = i7cat.ar.modules[0]
        plus = derdim(i7cat, (0, mod.ident))
        minus = derdim(i7cat, (1, mod.ident))
        assert minus == tuple(-c for c in plus)
        assert derdim(i7cat, (2, mod.ident)) == plus

    def test_negative_root_after_shift(self, i7cat):
        gen = i7cat.generators[0]
        vec = derdim(i7cat, (1, gen))
        neg = tuple(-c for c in vec)
        assert is_positive_root(i7cat.roots, neg)

    def test_derived_tau_weights_match(self, i7cat, h3cat):
        for cat in (i7cat, h3cat):
            for v in range(cat.spec.S.n):
                k, ident = derived_tau(cat, (0, cat.ar.proj_module[v]))
                assert k == -1
                j = cat.ar.modules[ident].inj_vertex
                assert cat.spec.weights[j] == cat.spec.weights[v]

    def test_derived_tau_off_projectives(self, i7cat):
        mod = next(m for m in i7cat.ar.modules if m.slice > 0)
        assert derived_tau(i7cat, (3, mod.ident)) == (3, i7cat.ar.tau[mod.ident])

    def test_h_type_nakayama_is_identity(self, h3cat):
        for v in range(6):
            k, ident = derived_tau(h3cat, (0, h3cat.ar.proj_module[v]))
            assert h3cat.ar.modules[ident].inj_vertex == v


class TestOppositeOrientation:
    @pytest.mark.parametrize("kind,n", [("I2", 2), ("I2", 3), ("H3", None)])
    def test_opposite_quiver_category(self, kind, n):
        cat = FoldedCategory(standard_folding(kind, n, opp=True))
        report = cat.verify_folding_theorem()
        assert report["passed"], report["problems"]
        assert len(cat.generators) == len(cat.roots.positives)


class TestExports:
    def test_dot_outputs(self, i5cat):
        dot = i5cat.ar_dot()
        assert dot.count("->") == len(i5cat.ar.ar_arrows)


def plant_multiple_as_root(monkeypatch, spec, j):
    """Add theta_j = ``AlgReal.chebyshev(m, j)`` times the first simple root to the roots that ``FoldedCategory`` reads."""
    real = repcat.root_system
    planted = (AlgReal.chebyshev(spec.m, j),) + (AlgReal(spec.m),) * (spec.B.n - 1)

    def root_system(name):
        roots = real(name)
        assert planted not in roots.roots
        return RootSet(name, roots.rank, roots.roots | {planted}, roots.positives | {planted})

    monkeypatch.setattr(repcat, "root_system", root_system)


PROJECTION_KINDS = [("H3", None), ("H4", None)] + [("I2", n) for n in range(2, 9)]


class TestProjectionsAgainstOracle:
    @pytest.mark.parametrize("kind,n", PROJECTION_KINDS + [("I2", 16), ("I2", 30)])
    def test_projected_keys_match_per_module_d_F(self, kind, n):
        spec = standard_folding(kind, n)
        cat = FoldedCategory(spec)
        deg = _context(cat.m).deg
        trimmed = []
        for mod in cat.ar.modules:
            key = cat.keys[mod.ident]
            assert len(key) == deg * len(spec.blocks)
            trimmed.append(tuple(_poly_trim(key[b:b + deg]) for b in range(0, len(key), deg)))
            assert trimmed[-1] == spec.coeff_d_F(mod.dim), mod.ident
        assert cat.dimproj == RingValues(cat.m).rows(trimmed)

    @pytest.mark.parametrize("kind,n", [("H3", None), ("H4", None), ("I2", 5)])
    def test_build_makes_no_ring_value(self, monkeypatch, kind, n):
        spec = standard_folding(kind, n)
        FoldedCategory(spec)  # warm-up: the root system and the field's context
        projected, made = [], []
        real_d_F, real_init = FoldingSpec.coeff_d_F, AlgReal.__init__
        monkeypatch.setattr(FoldingSpec, "coeff_d_F", lambda self, v: projected.append(v) or real_d_F(self, v))
        monkeypatch.setattr(AlgReal, "__init__", lambda self, *a, **kw: made.append(a) or real_init(self, *a, **kw))
        cat = FoldedCategory(spec)
        assert projected == [cat.ar.proj_dims[v] for v in range(spec.S.n)]
        assert made == []
        cat.dimproj
        assert made

    @pytest.mark.parametrize("kind,n", PROJECTION_KINDS)
    def test_factors_columns_generators_dimproj(self, kind, n):
        cat = FoldedCategory(standard_folding(kind, n))
        factor, columns, generators, dimproj = chebyshev_factors(cat)
        assert cat.factor == factor
        assert list(cat.columns.items()) == list(columns.items())
        assert cat.generators == generators
        assert cat.dimproj == dimproj

    def test_colliding_scale_is_reported(self, monkeypatch):
        # the recurrence's last multiple, theta_{n-1} times a simple root,
        # planted as a positive root: only an exact theta_j multiple collides
        for n in (3, 4):
            spec = standard_folding("I2", n)
            with monkeypatch.context() as patch:
                plant_multiple_as_root(patch, spec, n - 1)
                with pytest.raises(AssertionError, match="Chebyshev multiples of distinct roots collide"):
                    FoldedCategory(spec)

    def test_module_off_every_root_column_is_reported(self, monkeypatch):
        spec = standard_folding("H3")
        target = FoldedCategory(spec).ar.modules[5].dim
        real = FoldingSpec.coeff_d_F

        def planted(self, vector):
            key = real(self, vector)
            return tuple(tuple(1000 * c for c in entry) for entry in key) if vector == target else key

        monkeypatch.setattr(FoldingSpec, "coeff_d_F", planted)
        with pytest.raises(AssertionError, match="module 5 is not a Chebyshev multiple of a root"):
            FoldedCategory(spec)
