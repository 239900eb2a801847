from fractions import Fraction
from math import comb

import pytest

from koszul import QQ, QuotientRing
from koszul.families import build_cycle_ring, build_path_ring
from koszul.graded import (GradedAlgebraData, minimal_generators, present,
                           ring_algebra_data, strand_totalize)
from koszul.homology import homology

from conftest import make_63ne, ring_from_strings


def test_strand_totalize_ci():
    for c in (1, 2, 3):
        names = [f"x{k}" for k in range(1, c + 1)]
        ring = ring_from_strings(names, [f"x{k}^2" for k in range(1, c + 1)])
        H = homology(ring, c, 2 * c)
        A = strand_totalize(H)
        assert {g[0]: d for g, d in A.components.items()} == {
            q: comb(c, q) for q in range(1, c + 1)}


def test_strand_totalize_path3():
    H = homology(build_path_ring(3), 3, 3)
    A = strand_totalize(H)
    assert A.components[(1,)] == 3  # H_{1,2} + H_{2,3} = 2 + 1


def test_strand_totalize_trivial():
    H = homology(QuotientRing(2, []), 2, 4)
    A = strand_totalize(H)
    assert A.components == {}


def test_shift_bookkeeping():
    # totalizing a (homological p, internal q) shift equals one (p + q) shift:
    # an entry of M at (i', j') sits in the shifted module at (i' + p, j' - q)
    dims = {(1, 2): 2, (2, 3): 1, (2, 4): 3}
    p, q = 2, 3

    def strand(d):
        out = {}
        for (i, j), v in d.items():
            out[j - i] = out.get(j - i, 0) + v
        return out

    shifted = {(i + p, j - q): v for (i, j), v in dims.items()}
    assert strand(shifted) == {n - (p + q): v for n, v in strand(dims).items()}


def test_minimal_generators_exterior():
    ring = ring_from_strings(["x", "y", "z"], ["x^2", "y^2", "z^2"])
    H = homology(ring, 3, 6)
    A = strand_totalize(H)
    gens = minimal_generators(A, 3)
    assert [len(gens[d]) for d in (1, 2, 3)] == [3, 0, 0]


def test_minimal_generators_path():
    n = 5
    H = homology(build_path_ring(n), n, n)
    A = strand_totalize(H)
    gens = minimal_generators(A, 2)
    assert len(gens[1]) == (n - 1) + (n - 2)
    assert len(gens[2]) == 0


def test_minimal_generators_cycle9_and_cubic_relation():
    # 9 = 0 mod 3: the homology is generated by its strand-degree-1 part,
    # but a cubic relation (Tor_2 in strand degree 3) obstructs quadraticity
    H = homology(build_cycle_ring(9), 9, 9)
    A = strand_totalize(H)
    gens = minimal_generators(A, 3)
    assert len(gens[1]) == 18
    assert len(gens[2]) == 0
    assert len(gens[3]) == 0
    from koszul.betti import betti_table
    table = betti_table(A, 2, 3, engine="resolution")
    assert table.get(1, 3) == 0      # no strand-3 generators
    assert table.get(2, 3) >= 1      # the strand-3 relation


def test_present_hypersurface():
    ring = ring_from_strings(["x"], ["x^2"])
    H = homology(ring, 1, 4)
    A = strand_totalize(H)
    pres = present(A, 2)
    assert len(pres.algebra.names) == 1
    assert pres.relations == [{(0, 0): QQ(1)}]


def test_present_ci2():
    ring = ring_from_strings(["x", "y"], ["x^2", "y^2"])
    H = homology(ring, 2, 4)
    A = strand_totalize(H)
    pres = present(A, 2)
    rels = {tuple(sorted(r.items())) for r in pres.relations}
    one = QQ(1)
    assert {((0, 0), one)} in [set(r) for r in rels]
    assert len(pres.relations) == 3  # z1^2, z2^2, z2 z1 + z1 z2


def test_present_free_truncation_has_no_relations():
    # a truncated tensor algebra on two degree-1 generators
    def mult(g1, a, g2, b):
        # basis of degree d: words of length d in 0/1, indexed lexicographically
        d1, d2 = g1[0], g2[0]
        return {a * (1 << d2) + b: QQ(1)}

    A = GradedAlgebraData(QQ, {(1,): 2, (2,): 4, (3,): 8}, mult,
                          lambda g: g[0], bound=3)
    pres = present(A, 3)
    assert pres.relations == []


def test_present_reproduces_dims():
    ring = ring_from_strings(["x", "y"], ["x^2", "y^2"])
    H = homology(ring, 2, 4)
    A = strand_totalize(H)
    pres = present(A, 2)
    # words of degree 2 minus relations found in degree 2 = dim A_2
    nwords = len(pres.algebra.words_of_degree(2))
    degree2 = [r for r in pres.relations
               if pres.algebra.word_degree(pres.algebra.leading_word(r)) == 2]
    assert nwords - len(degree2) == A.dim((2,))


def test_ring_algebra_data_structure_constants():
    ring = make_63ne()
    A = ring_algebra_data(ring, 4)
    # x*z = -u^2 in the quotient: locate the indices and verify
    idx1 = {m: k for k, m in enumerate(ring.std_monomials(1))}
    idx2 = {m: k for k, m in enumerate(ring.std_monomials(2))}
    x = idx1[(1, 0, 0, 0)]
    z = idx1[(0, 0, 1, 0)]
    uu = idx2[(0, 0, 0, 2)]
    assert A.mult((1,), x, (1,), z) == {uu: -1}


def _all_products(ring, A, d_max):
    """Every product of standard monomials up to degree d_max: A.mult beside
    the quotient ring's own coefficients, reindexed the same way."""
    for d1 in range(1, d_max):
        for d2 in range(1, d_max - d1 + 1):
            index = ring.basis_index(d1 + d2)
            for a, m1 in enumerate(ring.std_monomials(d1)):
                for b, m2 in enumerate(ring.std_monomials(d2)):
                    raw = {index[m]: c for m, c in ring.mono_product(m1, m2).items()}
                    yield A.mult((d1,), a, (d2,), b), raw


def test_structure_constants_are_plain_ints_where_integral():
    ring = make_63ne()
    A = ring_algebra_data(ring, 6)
    seen = 0
    for prod, raw in _all_products(ring, A, 6):
        assert prod == raw
        assert all(type(c) is int for c in prod.values())
        seen += len(prod)
    assert seen


def test_non_integral_structure_constants_stay_fractions():
    ring = ring_from_strings(["x", "y", "z"], ["x^2 - 1/2*y*z", "y^2 + 2/3*x*z"])
    A = ring_algebra_data(ring, 6)
    fractions = 0
    for prod, raw in _all_products(ring, A, 6):
        assert prod == raw
        for x, c in prod.items():
            if raw[x].denominator == 1:
                assert type(c) is int
            else:
                assert type(c) is Fraction and c == raw[x]
                fractions += 1
    assert fractions


def test_bound_violations_raise():
    ring = ring_from_strings(["x"], ["x^2"])
    H = homology(ring, 1, 3)
    A = strand_totalize(H)
    with pytest.raises(ValueError):
        minimal_generators(A, 10)
