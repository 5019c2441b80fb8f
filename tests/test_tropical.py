import pytest

from quiverfold.chebring import AlgReal, ChebElem
from quiverfold.exchange import ExchangeMatrix
from quiverfold.rootsys import root_system
from quiverfold.tropical import (
    EnumerationResult,
    Seed,
    TropicalWalker,
    det_laplace,
    enumerate_seeds,
    g_matrix,
    invert_integer,
    invert_ring_unimodular,
    mat_mul,
    mutate_seed,
    transpose,
)
from quiverfold.unfolding import standard_folding

A2 = ExchangeMatrix(((0, 1), (-1, 0)))


class TestSeedBasics:
    def test_initial(self):
        seed = Seed.initial(A2)
        assert seed.C == ((1, 0), (0, 1))
        assert seed.word == ()

    def test_involution(self):
        seed = Seed.initial(A2)
        again = seed.mutate(0).mutate(0)
        assert again.B == seed.B and again.C == seed.C
        assert again.word == (0, 0)

    def test_i5_walk_roots(self):
        spec = standard_folding("I2", 2)
        roots = root_system("I2(5)")
        seed = Seed.initial(spec.B)
        for step in range(12):
            seed = seed.mutate(step % 2)
            for col in seed.c_vectors():
                assert roots.is_root(col)

    def test_json(self):
        seed = Seed.initial(standard_folding("I2", 2).B).mutate(0)
        data = seed.to_json()
        assert data["word"] == [0]
        assert len(data["C"]) == 2


class TestGMatrix:
    def test_initial_identity(self):
        assert g_matrix(Seed.initial(A2)).entries == ((1, 0), (0, 1))

    def test_word_then_inverse_word(self):
        spec = standard_folding("I2", 3)
        seed = Seed.initial(spec.B)
        word = (0, 1, 1, 0, 1)
        for k in word:
            seed = seed.mutate(k)
        for k in reversed(word):
            seed = seed.mutate(k)
        one, zero = AlgReal(7, (1,)), AlgReal(7)
        assert g_matrix(seed).entries == ((one, zero), (zero, one))

    def test_rank2_closed_form(self):
        # G' = |C'| [[c11, -c10], [-c01, c00]] for the dihedral folded seeds
        spec = standard_folding("I2", 2)
        seed = Seed.initial(spec.B)
        for k in (0, 1, 0, 1, 0):
            seed = seed.mutate(k)
            C = seed.C
            det = det_laplace(C)
            expected = (
                (det * C[1][1], -(det * C[1][0])),
                (-(det * C[0][1]), det * C[0][0]),
            )
            assert g_matrix(seed).entries == expected

    def test_integer_inverse_validates(self):
        with pytest.raises(ArithmeticError):
            invert_integer(((2, 0), (0, 1)))
        with pytest.raises(ArithmeticError):
            invert_integer(((0, 0), (0, 0)))

    def test_ring_inverse_requires_unit(self):
        two = AlgReal(5, (2,))
        zero = AlgReal(5)
        with pytest.raises(ArithmeticError):
            invert_ring_unimodular(((two, zero), (zero, two)))


@pytest.fixture(scope="module")
def walker_i7():
    return TropicalWalker(standard_folding("I2", 3))


class TestWalker:

    def test_empty_word(self, walker_i7):
        report = walker_i7.verify_cube(depth=0)
        assert report.passed and report.vertices_checked == 1

    def test_i7_exhaustive_depth5(self, walker_i7):
        report = walker_i7.verify_cube(depth=5)
        assert report.passed, report.failures[:3]
        assert report.vertices_checked == 2**6 - 1

    def test_h3_depth4_with_random(self):
        walker = TropicalWalker(standard_folding("H3"))
        report = walker.verify_cube(depth=4, random_words=20, random_length=12, seed=7)
        assert report.passed, report.failures[:3]

    def test_i9_kernel_case(self):
        # n = 4: the evaluation homomorphism has a kernel; blocks must still
        # be regular representations and the cube must still commute
        walker = TropicalWalker(standard_folding("I2", 4))
        report = walker.verify_cube(depth=4, random_words=20, random_length=15, seed=3)
        assert report.passed, report.failures[:3]

    def test_i11_higher_rank(self):
        walker = TropicalWalker(standard_folding("I2", 5))
        report = walker.verify_cube(depth=3, random_words=10, random_length=12, seed=9)
        assert report.passed, report.failures[:3]

    @pytest.mark.parametrize("checks", [("cubee",), ("cube", ""), ()])
    def test_rejects_unknown_or_empty_checks(self, checks):
        with pytest.raises(ValueError):
            TropicalWalker(standard_folding("I2", 3), checks=checks)

    def test_block_element_extraction(self, walker_i7):
        folded, lifted = walker_i7.initial_pair()
        blk = walker_i7.c_block(lifted, 0, 0)
        assert walker_i7.block_element(blk) == ChebElem.one(3)
        blk01 = walker_i7.c_block(lifted, 0, 1)
        assert walker_i7.block_element(blk01) == ChebElem.zero(3)

    def test_failure_detection(self, walker_i7):
        # corrupt a lifted C block so it is no longer a regular representation
        folded, lifted = walker_i7.initial_pair()
        rows = [list(r) for r in lifted]
        rows[6 + 0][4] = 1
        failures = []
        walker_i7.check_vertex(
            folded, tuple(tuple(r) for r in rows), ("x",), failures, neighbours=False
        )
        assert failures


class TestEnumeration:
    def test_a2_control(self):
        result = enumerate_seeds(A2)
        assert result.complete
        assert result.count == 10
        canonical = {tuple(sorted(transpose(s.C))) for s in result.seeds}
        assert len(canonical) == 5

    def test_i5_folded(self):
        spec = standard_folding("I2", 2)
        result = enumerate_seeds(spec.B)
        assert result.complete
        assert result.count == 14
        roots = root_system("I2(5)")
        for seed in result.seeds:
            for col in seed.c_vectors():
                assert roots.is_root(col)

    def test_h3_closure(self):
        result = enumerate_seeds(standard_folding("H3").B, cap=4000)
        assert result.complete
        assert result.count == 192
        roots = root_system("H3")
        for seed in result.seeds:
            for col in seed.c_vectors():
                assert roots.is_root(col)

    def test_cap_flag(self):
        result = enumerate_seeds(standard_folding("H3").B, cap=10)
        assert not result.complete
        assert result.count <= 10

    def test_g_matrices_accessor(self):
        result = enumerate_seeds(A2)
        gs = result.g_matrices()
        assert ((1, 0), (0, 1)) in gs
