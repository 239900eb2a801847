"""Standalone invariant suites over the standing collection of rings:
differential squares to zero, rank-nullity, graded commutativity of homology
products, bar differential squares to zero, strand-degree consistency of
Betti numbers, and the Betti-shape estimate."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszul import QQ
from koszul.betti import BarEngine, betti_table, shape_check, trigraded_betti
from koszul.graded import ring_algebra_data, strand_totalize
from koszul.homology import differential, homology, koszul_basis
from koszul.sparse import kernel_of_columns

from conftest import suite_rings
from oracles import d_squared_is_zero

SUITE = sorted(suite_rings().items())


@pytest.mark.parametrize("name,ring", SUITE)
def test_differential_squares_to_zero(name, ring):
    for j in range(5):
        for i in range(1, min(j, ring.n) + 1):
            for v, w in koszul_basis(ring, i, j):
                once = differential(ring, {(v, w): QQ(1)})
                assert differential(ring, once) == {}


@st.composite
def random_matrix_columns(draw):
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(0, 5))
    cols = []
    for _ in range(ncols):
        col = {r: Fraction(draw(st.integers(-3, 3)))
               for r in range(nrows) if draw(st.booleans())}
        cols.append({k: v for k, v in col.items() if v})
    return cols


@settings(max_examples=100, deadline=None)
@given(random_matrix_columns())
def test_rank_nullity(cols):
    rank, kernel = kernel_of_columns(cols, QQ)
    assert rank + len(kernel) == len(cols)


@pytest.mark.parametrize("name,ring", SUITE)
def test_graded_commutativity(name, ring):
    H = homology(ring, ring.n, 5)
    classes = []
    for j in range(1, 6):
        for i in range(1, min(j, ring.n) + 1):
            classes.extend(H.basis(i, j))
    for h1, h2 in itertools.islice(itertools.product(classes, classes), 400):
        if h1.j + h2.j > 5:
            continue
        sign = (-1) ** (h1.i * h2.i)
        p12 = H.product_coords(h1, h2)
        p21 = H.product_coords(h2, h1)
        assert p12 == {k: sign * v for k, v in p21.items()}, name


@pytest.mark.parametrize("name,ring", SUITE)
def test_bar_differential_squares_to_zero(name, ring):
    A = ring_algebra_data(ring, 4)
    eng = BarEngine(A)
    for p in range(2, 5):
        for q in range(p, 5):
            assert d_squared_is_zero(eng, p, (q,)), (name, p, q)


@pytest.mark.parametrize("name,ring", SUITE)
def test_strand_consistency(name, ring):
    # sum over j - i = q of beta^H_{pij} equals beta^{H'}_{pq}
    p_max, q_max = 2, 2
    j_max = p_max * ring.n + q_max
    H = homology(ring, ring.n, j_max)
    tri = trigraded_betti(H, p_max, j_max, engine="resolution")
    strand = betti_table(strand_totalize(H), p_max, q_max, engine="resolution")
    for p in range(p_max + 1):
        for q in range(q_max + 1):
            total = sum(v for (pp, i, j), v in tri.items()
                        if pp == p and j - i == q)
            assert total == strand.get(p, (q,)), (name, p, q)


@pytest.mark.parametrize("name,ring", SUITE)
def test_shape_estimate(name, ring):
    H = homology(ring, ring.n, 6)
    if not any((i, j) != (0, 0) for (i, j) in H.dims()):
        return  # polynomial rings: H = k, vacuous
    report = shape_check(H.algebra_data("bigraded"), 3, 6)
    assert report.hypothesis_ok
    assert report.status == "PASS", (name, report.violations)


@pytest.mark.parametrize("name,ring", SUITE)
def test_euler_characteristic(name, ring):
    H = homology(ring, ring.n, 5)
    for j in range(6):
        chi_K = sum((-1) ** i * len(koszul_basis(ring, i, j))
                    for i in range(ring.n + 1))
        chi_H = sum((-1) ** i * H.dim(i, j)
                    for i in range(min(j, ring.n) + 1))
        if j == 0:
            chi_H = 1
        assert chi_K == chi_H, (name, j)
