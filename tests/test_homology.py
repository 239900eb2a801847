import importlib
import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszul import QQ, Field, QuotientRing, parse_polynomial
from koszul.betti import betti_table
from koszul.families import build_cycle_ring, build_path_ring
from koszul.fields import MODULAR
from koszul.graded import ring_algebra_data
from koszul.homology import (HomologyClass, _differential_columns, _multidegree,
                             _slice_words, _word_columns, _word_pairs, differential,
                             differential_of_basis, homology, koszul_basis,
                             koszul_basis_multigraded, multigraded_homology)
from koszul.polyring import grevlex_key

from conftest import generic_quadrics_ring, in_field, make_63ne, ring_from_strings
from oracles import dense_homology_dim, hochster_dim


def test_koszul_basis_univariate():
    ring = ring_from_strings(["x"], ["x^2"])
    assert koszul_basis(ring, 1, 1) == (((0,), (0,)),)
    assert koszul_basis(ring, 1, 2) == (((1,), (0,)),)
    assert koszul_basis(ring, 2, 2) == ()          # above the variable count


def test_koszul_basis_above_n_is_empty():
    ring = QuotientRing(2, [])
    assert koszul_basis(ring, 3, 5) == ()


def test_multidegree_slice_bases_path3():
    # the displayed bases of K_{2,u} and K_{3,u} for u = (1,1,1)
    ring = build_path_ring(3)
    two = koszul_basis_multigraded(ring, 2, (1, 1, 1))
    assert set(two) == {((0, 1, 0), (0, 2)), ((1, 0, 0), (1, 2)),
                        ((0, 0, 1), (0, 1))}
    three = koszul_basis_multigraded(ring, 3, (1, 1, 1))
    assert three == (((0, 0, 0), (0, 1, 2)),)


@pytest.mark.parametrize("make", [make_63ne, lambda: build_path_ring(6),
                                  lambda: generic_quadrics_ring(Field(5), 4, 3)],
                         ids=["63ne", "path6", "gf5-quadrics"])
def test_koszul_bases_come_sorted(make):
    # neither builder sorts: combinations yield w in lexicographic order and
    # std_monomials is ascending in grevlex key
    ring = make()

    def in_order(basis):
        return list(basis) == sorted(set(basis), key=lambda vw: (vw[1], grevlex_key(vw[0])))

    for i in range(ring.n + 1):
        assert all(in_order(koszul_basis(ring, i, j)) for j in range(i, i + 4))
        if ring.is_monomial:
            assert all(in_order(koszul_basis_multigraded(ring, i, u))
                       for u in itertools.product(range(3), repeat=ring.n))


def test_differential_displayed_formula():
    # d(t1 t2 t3) = x1 t2t3 - x2 t1t3 + x3 t1t2
    ring = build_path_ring(3)
    image = differential(ring, {((0, 0, 0), (0, 1, 2)): QQ(1)})
    assert image == {((1, 0, 0), (1, 2)): 1, ((0, 1, 0), (0, 2)): -1,
                     ((0, 0, 1), (0, 1)): 1}


def test_distinguished_cycles_of_path_rings():
    ring = build_path_ring(4)
    for i in range(3):
        mono = tuple(1 if k == i + 1 else 0 for k in range(4))
        assert differential(ring, {(mono, (i,)): QQ(1)}) == {}


def test_differential_of_unit_is_zero():
    ring = QuotientRing(2, [])
    assert differential(ring, {((0, 0), ()): QQ(1)}) == {}


def test_differential_squares_to_zero():
    ring = make_63ne()
    for j in range(7):
        for i in range(1, 5):
            for v, w in koszul_basis(ring, i, j):
                image = differential_of_basis(ring, v, w)
                assert differential(ring, dict(image)) == {}


def test_polynomial_ring_is_acyclic():
    H = homology(QuotientRing(2, []), 2, 5)
    assert H.dims() == {(0, 0): 1}


def test_ci_exterior_dims_and_products():
    ring = ring_from_strings(["x", "y"], ["x^2", "y^2"])
    H = homology(ring, 2, 6)
    assert H.dims() == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    z1, z2 = H.basis(1, 2)
    prod = H.product_coords(z1, z2)
    assert list(prod.values()) != [] and len(H.basis(2, 4)) == 1
    assert H.product_coords(z1, z1) == {}
    assert H.product_coords(z2, z2) == {}


def test_gf5_coordinates_are_residues():
    F5 = Field(5)
    H = homology(make_63ne(F5), 4, 5)
    classes = H.basis(1, 2) + H.basis(1, 3)
    nonzero = 0
    for h in classes:
        assert in_field(h.representative.values(), F5)
        assert H.coords_of_cycle(h.i, h.j, h.representative) == {h.index: 1}
        for h2 in classes:
            if h.j + h2.j <= 5:
                coords = H.product_coords(h, h2)
                assert in_field(coords.values(), F5)
                nonzero += bool(coords)
    assert nonzero


def test_63ne_dims_table_vs_dense_oracle():
    ring = make_63ne()
    H = homology(ring, 4, 8)
    dims = H.dims()
    expected_from_oracle = {}
    for j in range(9):
        for i in range(1, 5):
            basis = koszul_basis(ring, i, j)
            if not basis:
                continue
            below = {b: k for k, b in enumerate(koszul_basis(ring, i - 1, j))}
            here = {b: k for k, b in enumerate(basis)}
            d_in = [{below[key]: c for key, c in
                     differential_of_basis(ring, v, w).items()}
                    for v, w in basis]
            d_out = [{here[key]: c for key, c in
                      differential_of_basis(ring, v, w).items()}
                     for v, w in koszul_basis(ring, i + 1, j)]
            dim = dense_homology_dim(d_in, d_out, len(below))
            if dim:
                expected_from_oracle[(i, j)] = dim
    expected_from_oracle[(0, 0)] = 1
    assert dims == expected_from_oracle
    assert dims[(1, 2)] == 6


def _dense_oracle_dim(ring, i, j):
    """dim H_{i,j} by dense elimination of the two adjacent differentials."""
    basis = koszul_basis(ring, i, j)
    below = {b: k for k, b in enumerate(koszul_basis(ring, i - 1, j))}
    here = {b: k for k, b in enumerate(basis)}
    d_in = [{below[key]: c for key, c in differential_of_basis(ring, v, w).items()}
            for v, w in basis]
    d_out = [{here[key]: c for key, c in differential_of_basis(ring, v, w).items()}
             for v, w in koszul_basis(ring, i + 1, j)]
    return dense_homology_dim(d_in, d_out, len(below), ring.field.p)


RANK_ROUTE_RINGS = {
    "generic-gf32003": (lambda: generic_quadrics_ring(Field(32003)), 5),
    "generic-qq": (lambda: generic_quadrics_ring(QQ), 4),
    "63ne": (make_63ne, 6),
}


@pytest.mark.parametrize("order", ["dims-first", "dims-descending", "basis-first"])
@pytest.mark.parametrize("name", sorted(RANK_ROUTE_RINGS))
def test_rank_route_dims_match_bases_and_dense_oracle(name, order):
    make, j_max = RANK_ROUTE_RINGS[name]
    ring = make()
    H = homology(ring, ring.n, j_max)
    pairs = [(i, j) for j in range(1, j_max + 1) for i in range(1, min(j, ring.n) + 1)]
    if order.startswith("dims"):
        # descending, each rank of d_i is bounded by the exact rank of d_{i+1}
        dims = {ij: H.dim(*ij) for ij in (pairs if order == "dims-first"
                                          else reversed(pairs))}
        assert not H._slices  # dimensions came from ranks alone
        sizes = {ij: len(H.basis(*ij)) for ij in pairs}
    else:
        sizes = {ij: len(H.basis(*ij)) for ij in pairs}
        dims = {ij: H.dim(*ij) for ij in pairs}
        # a fresh algebra takes the rank route for the same numbers
        fresh = homology(make(), ring.n, j_max)
        assert {ij: fresh.dim(*ij) for ij in pairs} == dims
    assert dims == sizes
    assert dims == {ij: _dense_oracle_dim(ring, *ij) for ij in pairs}


def test_dim_reads_an_existing_slice_without_ranking():
    ring = make_63ne()
    H = homology(ring, 4, 5)
    cycle = H.basis(1, 2)[0].representative
    H2 = homology(ring, 4, 5)
    H2.coords_of_cycle(1, 2, cycle)   # builds the (1, 2) slice
    assert H2.dim(1, 2) == len(H.basis(1, 2))
    assert (1, 2) not in H2._ranks.exact and (2, 2) not in H2._ranks.exact


_P = MODULAR.p   # the prime of every modular rank over QQ


def _count_ranks(monkeypatch):
    """Count the ranks ``koszul.sparse`` takes, by kind: ``"mod P"`` over
    GF(_P), ``"fallback"`` over QQ on columns with a non-integral entry (a
    modular rank that did not certify itself), ``"exact"`` any other.  An
    ``integral`` elimination over QQ that meets a non-integral entry gives
    up and is not counted; one that reaches its bound first read only
    integral columns, and is exact."""
    module = importlib.import_module("koszul.sparse")
    kinds = Counter()
    real = module.rank_of_columns

    def counted(columns, field=QQ, bound=None, integral=False):
        rank = real(columns, field, bound, integral)
        if field.p == _P:
            kinds["mod P"] += 1
        elif not field.p and rank is not None:
            fractional = not integral and any(c.denominator != 1 for col in columns
                                              for c in col.values())
            kinds["fallback" if fractional else "exact"] += 1
        return rank

    monkeypatch.setattr(module, "rank_of_columns", counted)
    return kinds


def _assert_dims_match_dense_oracle(ring, j_max):
    H = homology(ring, ring.n, j_max)
    pairs = [(i, j) for j in range(1, j_max + 1) for i in range(1, min(j, ring.n) + 1)]
    assert {ij: H.dim(*ij) for ij in pairs} == {ij: _dense_oracle_dim(ring, *ij)
                                                  for ij in pairs}
    return H


def _bar_table_matches_resolution(ring, bound):
    A = ring_algebra_data(ring, bound)
    bar = betti_table(A, bound, bound, engine="bar")
    assert bar.entries == betti_table(A, bound, bound, engine="resolution").entries


def test_qq_rank_falls_back_where_a_denominator_vanishes_mod_p(monkeypatch):
    # mod P a column is read as its multiple by the lcm of its denominators,
    # so a slice with P in a denominator is ranked mod P like any other
    ranks = _count_ranks(monkeypatch)
    ring = ring_from_strings(["x", "y"], [f"x^2 + 1/{_P}*y^2", "x*y"])
    H = _assert_dims_match_dense_oracle(ring, 5)
    assert H.dims() == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    vanishing = {key for key in H._ranks.modular
                 if any(c.denominator % _P == 0
                        for col in H._columns(*key) for c in col.values())}
    assert vanishing == {(2, 3)}   # x t_x t_y maps to x^2 t_y = -y^2/P t_y, read as -y^2 t_y
    assert all(H._ranks.exact[key] == H._ranks.modular[key] for key in vanishing)
    # at (1, 2), x t_x maps to x^2 = -y^2/P too, but the column of y t_y,
    # read first, already reaches the bound dim R_2 = 1 over QQ
    assert H._ranks.exact[(1, 2)] == 1 and (1, 2) not in H._ranks.modular
    assert not ranks["fallback"]
    # x z = -y z/P: a column holding -1/P and 1 is read as -1 and P = 0 mod P,
    # so the rank drops there and is taken over QQ
    ring = ring_from_strings(["x", "y", "z"], [f"x*z + 1/{_P}*y*z"])
    H = _assert_dims_match_dense_oracle(ring, 5)
    assert H._ranks.modular[(2, 4)] == 11 and H._ranks.exact[(2, 4)] == 12
    assert ranks["fallback"]


def test_bar_ranks_mod_p_without_fallback_where_p_is_a_denominator(monkeypatch):
    ranks = _count_ranks(monkeypatch)
    ring = ring_from_strings(["x", "y"], [f"x^2 + 1/{_P}*y^2", "x*y"])
    _bar_table_matches_resolution(ring, 4)
    assert ranks["mod P"] and not ranks["fallback"]


def test_integral_qq_ring_takes_no_modular_rank(monkeypatch):
    # P in a numerator keeps every column integral: ranked over QQ directly
    ranks = _count_ranks(monkeypatch)
    ring = ring_from_strings(["x", "y"], [f"x^2 + {_P}*y^2", "x*y"])
    H = _assert_dims_match_dense_oracle(ring, 5)
    assert H.dims() == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    assert H._ranks.exact[(2, 3)] == 2 and not H._ranks.modular
    _bar_table_matches_resolution(ring, 4)
    assert not ranks["mod P"] and not ranks["fallback"]


def test_qq_rank_falls_back_where_the_rank_drops_mod_p(monkeypatch):
    # a complete intersection over QQ; mod P the first relation, scaled to
    # 2 x^2 + P y^2, is 2 x^2, and d at (2, 3) drops from rank 2 to 1, with
    # homology on both sides
    ranks = _count_ranks(monkeypatch)
    ring = ring_from_strings(["x", "y"], [f"x^2 + {_P}/2*y^2", "x*y"])
    H = _assert_dims_match_dense_oracle(ring, 5)
    assert H.dims() == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    assert H._ranks.modular[(2, 3)] == 1 and H._ranks.exact[(2, 3)] == 2
    assert ranks["fallback"] == 1
    # the bar complex of R is ranked by the same rule
    ranks.clear()
    _bar_table_matches_resolution(ring, 4)
    assert ranks["mod P"] and ranks["fallback"] == 2


def test_63ne_over_qq_is_ranked_exactly(monkeypatch):
    # its normal forms are integral: no slice of either complex is fractional
    ranks = _count_ranks(monkeypatch)
    ring = make_63ne()
    homology(ring, ring.n, 7).dims()
    _bar_table_matches_resolution(ring, 4)
    assert ranks["exact"] and not ranks["mod P"] and not ranks["fallback"]


def test_seeded_qq_quadrics_rank_almost_only_mod_p(monkeypatch):
    # the benchmark's QQ ring and bound: the modular ranks certify themselves
    ranks = _count_ranks(monkeypatch)
    ring = generic_quadrics_ring(QQ)
    assert homology(ring, ring.n, 4).dims() == {(0, 0): 1, (1, 2): 5, (2, 4): 10}
    assert ranks["mod P"] and ranks["fallback"] <= 1


@st.composite
def fractional_quadric_rings(draw):
    """2 or 3 quadrics in 3 variables over QQ with fractional coefficients,
    some of them with numerator or denominator a multiple of _P."""
    monomials = [tuple(sum(1 for k in pair if k == v) for v in range(3))
                 for pair in itertools.combinations_with_replacement(range(3), 2)]
    coefficient = st.one_of(
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5)),
        st.sampled_from([Fraction(_P), Fraction(1, _P), Fraction(-2 * _P, 3)]))
    relations = draw(st.lists(st.lists(coefficient, min_size=len(monomials),
                                       max_size=len(monomials)),
                              min_size=2, max_size=3))
    return QuotientRing(3, [{m: c for m, c in zip(monomials, cs) if c}
                            for cs in relations])


@settings(max_examples=30, deadline=None)
@given(fractional_quadric_rings())
def test_qq_dims_match_dense_oracle_on_fractional_rings(ring):
    _assert_dims_match_dense_oracle(ring, 4)


@settings(max_examples=20, deadline=None)
@given(fractional_quadric_rings())
def test_bar_betti_matches_resolution_on_fractional_rings(ring):
    # the bar ranks go through the modular rule, the resolution takes exact
    # QQ kernels with no modular step
    _bar_table_matches_resolution(ring, 4)


def test_positive_strands():
    for ring in (make_63ne(), build_path_ring(4)):
        H = homology(ring, ring.n, 6)
        for (i, j), d in H.dims().items():
            assert (i, j) == (0, 0) or j - i > 0


def test_euler_characteristic_per_internal_degree():
    ring = build_path_ring(4)
    H = homology(ring, 4, 6)
    for j in range(7):
        chi_K = sum((-1) ** i * len(koszul_basis(ring, i, j))
                    for i in range(5))
        chi_H = sum((-1) ** i * H.dim(i, j) for i in range(min(j, 4) + 1))
        if j == 0:
            chi_H = 1
        assert chi_K == chi_H


def test_graded_commutativity():
    ring = build_path_ring(5)
    H = homology(ring, 5, 5)
    classes = [h for (i, j) in [(1, 2), (2, 3)] for h in H.basis(i, j)]
    for h1 in classes:
        for h2 in classes:
            p12 = H.product_coords(h1, h2)
            p21 = H.product_coords(h2, h1)
            sign = (-1) ** (h1.i * h2.i)
            assert p12 == {k: sign * v for k, v in p21.items()}


def test_odd_squares_vanish():
    ring = build_path_ring(4)
    H = homology(ring, 4, 4)
    for h in H.basis(1, 2):
        assert H.product_coords(h, h) == {}


def test_string_relation_path5():
    # eta_{1,2,3} zeta_{4,5} = zeta_{1,2} eta_{3,4,5} in H of the path on 5
    ring = build_path_ring(5)
    H = homology(ring, 5, 5)
    one = QQ(1)
    zeta12 = H.coords_of_cycle(1, 2, {((0, 1, 0, 0, 0), (0,)): one})
    eta345 = H.coords_of_cycle(2, 3, {((0, 0, 0, 1, 0), (2, 4)): one})
    eta123 = H.coords_of_cycle(2, 3, {((0, 1, 0, 0, 0), (0, 2)): one})
    zeta45 = H.coords_of_cycle(1, 2, {((0, 0, 0, 0, 1), (3,)): one})

    def as_class(i, j, coords):
        rep = {}
        for idx, c in coords.items():
            for key, v in H.klass(i, j, idx).representative.items():
                rep[key] = rep.get(key, QQ(0)) + c * v
        u = None
        if H.multigraded:
            keys = list(rep)
            u = _multidegree(keys[0])
        return (i, j, {k: v for k, v in rep.items() if v}, u)

    # multiply representative cycles directly in the complex
    def mul(c1, c2):
        e = H.multiply_elements(c1[2], c2[2])
        return H.coords_of_cycle(c1[0] + c2[0], c1[1] + c2[1], e)

    lhs = mul(as_class(2, 3, eta123), as_class(1, 2, zeta45))
    rhs = mul(as_class(1, 2, zeta12), as_class(2, 3, eta345))
    assert lhs == rhs and lhs


def test_multigraded_vanishing_off_squarefree():
    ring = build_path_ring(3)
    dims, bases = multigraded_homology(ring, (2, 1, 0))
    assert dims == {}


def test_multigraded_path3_interval():
    ring = build_path_ring(3)
    dims, bases = multigraded_homology(ring, (1, 1, 1))
    assert dims == {2: 1}
    rep = bases[2][0]
    assert rep == {((0, 1, 0), (0, 2)): 1}


def test_multigraded_path5_bad_interval():
    ring = build_path_ring(5)
    dims, _ = multigraded_homology(ring, (1, 1, 1, 1, 0))
    assert dims == {}  # interval length 4 is 1 mod 3


def test_multigraded_requires_monomial():
    ring = make_63ne()
    with pytest.raises(ValueError):
        multigraded_homology(ring, (1, 1, 1, 1))


def test_multigraded_sums_match_bigraded():
    ring = build_path_ring(5)
    H = homology(ring, 5, 5)
    assert H.multigraded
    for j in range(1, 6):
        for i in range(1, min(j, 5) + 1):
            total = 0
            for support in itertools.combinations(range(5), j):
                u = tuple(1 if k in support else 0 for k in range(5))
                dims, _ = multigraded_homology(ring, u)
                total += dims.get(i, 0)
            assert total == H.dim(i, j)


@st.composite
def squarefree_monomial_rings(draw):
    """A ring k[x_1..x_n]/I, I generated by random squarefree monomials, with
    the supports of the minimal generators."""
    n = draw(st.integers(2, 5))
    supports = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=2,
                                           max_size=3), min_size=1, max_size=5))
    minimal = {s for s in supports if not any(t < s for t in supports)}
    ring = QuotientRing(n, [{tuple(int(k in s) for k in range(n)): 1}
                            for s in supports])
    return ring, minimal


@settings(max_examples=40, deadline=None)
@given(squarefree_monomial_rings())
def test_multigraded_homology_lives_on_the_lcm_lattice(data):
    # dense oracle on every squarefree multidegree u: each nonzero H_{i,u}
    # with i >= 1 sits where u is the lcm of the generators dividing it, and
    # summing the oracle over all u gives H.dims()
    ring, minimal = data
    n = ring.n
    H = homology(ring, n, n)
    assert H.multigraded
    expected = {(0, 0): 1}
    for j in range(1, n + 1):
        for support in itertools.combinations(range(n), j):
            u = tuple(1 if k in support else 0 for k in range(n))
            in_lattice = set(support) == set().union(
                *(s for s in minimal if s <= set(support)))
            for i in range(1, j + 1):
                below = {b: k for k, b in
                         enumerate(koszul_basis_multigraded(ring, i - 1, u))}
                basis = koszul_basis_multigraded(ring, i, u)
                here = {b: k for k, b in enumerate(basis)}
                d_in = [{below[key]: c for key, c in
                         differential_of_basis(ring, v, w).items()}
                        for v, w in basis]
                d_out = [{here[key]: c for key, c in
                          differential_of_basis(ring, v, w).items()}
                         for v, w in koszul_basis_multigraded(ring, i + 1, u)]
                dim = dense_homology_dim(d_in, d_out, len(below))
                if dim:
                    assert in_lattice, (u, i)
                    expected[(i, j)] = expected.get((i, j), 0) + dim
    assert H.dims() == expected


@st.composite
def squarefree_rings_over_qq_and_gf2(draw):
    """A squarefree monomial ring in n <= 6 variables over QQ or GF(2), with
    the supports of its generators (not all minimal)."""
    n = draw(st.integers(2, 6))
    field = draw(st.sampled_from([QQ, Field(2)]))
    supports = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=2,
                                           max_size=4), min_size=1, max_size=8))
    ring = QuotientRing(n, [{tuple(int(k in s) for k in range(n)): 1}
                            for s in supports], field)
    return ring, supports


@settings(max_examples=40, deadline=None)
@given(squarefree_rings_over_qq_and_gf2())
def test_multigraded_dims_match_hochster(data):
    # Hochster: dim H_{i,u} = dim H~_{|u|-i-1} of the induced subcomplex on
    # supp u; the oracle ranks simplicial boundaries, not Koszul columns
    ring, supports = data
    n = ring.n
    H = homology(ring, n, n)
    assert H.multigraded
    for j in range(n + 1):
        for support in itertools.combinations(range(n), j):
            u = tuple(int(k in support) for k in range(n))
            for i in range(n + 1):
                assert H.multigraded_dim(i, u) == hochster_dim(
                    supports, support, i, ring.field.p), (u, i)


def test_squarefree_route_takes_no_normal_form(monkeypatch):
    # dims, bases and multidegree slices come from exterior words alone;
    # products (multiply_elements) keep mono_product and are left out
    rings = [build_cycle_ring(8), build_path_ring(6)]

    def refuse(*args):
        raise AssertionError("a normal form on the squarefree route")

    monkeypatch.setattr(QuotientRing, "mono_product", refuse)
    monkeypatch.setattr(QuotientRing, "is_standard", refuse)
    for ring in rings:
        n = ring.n
        H = homology(ring, n, n)
        dims = H.dims()
        assert dims[(0, 0)] == 1 and len(dims) > 4
        for j in range(n + 1):
            for i in range(j + 1):
                assert len(H.basis(i, j)) == dims.get((i, j), 0)
            for u in H.grades(j):
                got, bases = multigraded_homology(ring, u)
                assert got == {i: d for i in range(n + 1)
                               if (d := H.multigraded_dim(i, u))}
                assert {i: len(b) for i, b in bases.items()} == got


@pytest.mark.parametrize("make", [
    lambda: build_path_ring(4),
    lambda: ring_from_strings(["a", "b", "c", "d"], ["a*b", "a*c", "b*c", "c*d"], Field(5)),
    lambda: ring_from_strings(["x", "y", "z", "w"], ["x^2", "x*y^2", "y*z^3", "z^2*w"]),
], ids=["path4", "triangle-tail-gf5", "non-squarefree"])
def test_word_columns_equal_the_normal_form_columns(make):
    ring = make()
    F = ring.field
    for u in itertools.product(range(4), repeat=ring.n):
        support = [k for k, e in enumerate(u) if e]
        words = _slice_words(ring, u)
        pairs = [_word_pairs(w, u) for w in words]
        for i, here in enumerate(pairs):
            # the basis by the normal form: x^(u - w) standard
            assert here == tuple(
                (v, w) for w in itertools.combinations(support, i)
                if ring.is_standard(v := tuple(e - (k in w) for k, e in enumerate(u))))
            if i:
                columns = _word_columns(words[i], words[i - 1])
                assert all(type(c) is int for col in columns for c in col.values())
                assert ([{r: F(c) for r, c in col.items()} for col in columns]
                        == _differential_columns(ring, here, pairs[i - 1])), (u, i)


def test_bigraded_slice_route_agrees_on_monomial_ring():
    # force the generic bigraded slices and compare with the multidegree route
    ring = build_path_ring(4)
    H_fast = homology(ring, 4, 5)
    H_slow = homology(ring, 4, 5)
    H_slow.multigraded = False
    assert H_fast.dims() == H_slow.dims()


def test_homology_dims_cycle9_low_degrees():
    ring = build_cycle_ring(9)
    H = homology(ring, 2, 3)
    assert H.dim(1, 2) == 9
    assert H.dim(2, 3) == 9


def test_product_out_of_bounds_raises():
    ring = make_63ne()
    H = homology(ring, 4, 3)
    h = H.basis(1, 2)[0]
    with pytest.raises(ValueError):
        H.product_coords(h, h)  # (2, 4) lies beyond the computed j_max = 3


def _triangle_with_tail():
    # the multidegree (1, 1, 1, 0, 0) carries a 2-dimensional H_2 slice
    return ring_from_strings(["a", "b", "c", "d", "e"],
                             ["a*b", "a*c", "b*c", "c*d", "d*e"])


SQUAREFREE_RINGS = pytest.mark.parametrize(
    "make", [lambda: build_path_ring(7), lambda: build_cycle_ring(6), _triangle_with_tail],
    ids=["path7", "cycle6", "triangle-tail"])


@SQUAREFREE_RINGS
def test_product_coords_independent_of_built_bases(make):
    # offsets into basis(i, j) from rank-only slice dims must equal the
    # positions the built bases give
    ring = make()
    n = ring.n
    primed = homology(ring, n, n)
    bidegrees = [(i, j) for j in range(1, n + 1) for i in range(1, j + 1)]
    classes = [h for ij in bidegrees for h in primed.basis(*ij)]
    fresh = homology(ring, n, n)
    nonzero = 0
    for h1 in classes:
        for h2 in classes:
            if h1.j + h2.j > n:
                continue
            lazy = fresh.product_coords(h1, h2)
            assert list(lazy.items()) == list(primed.product_coords(h1, h2).items())
            nonzero += bool(lazy)
    assert nonzero >= 5
    assert not fresh._classes_of


@SQUAREFREE_RINGS
def test_coords_of_cycle_builds_only_touched_slices(make):
    ring = make()
    n = ring.n
    source = homology(ring, n, n)
    spread = [ij for ij in source.dims()
              if len({h.index[0] for h in source.basis(*ij)}) > 2]
    assert len(spread) >= 2
    for i, j in spread:
        classes = source.basis(i, j)
        H = homology(ring, n, n)
        first, last = classes[0], classes[-1]
        cycle = dict(first.representative)
        cycle.update(last.representative)
        assert H.coords_of_cycle(i, j, cycle) == {first.index: 1, last.index: 1}
        touched = {(i, first.index[0]), (i, last.index[0])}
        assert set(H._slices) == touched
        assert set(H._ranks.exact) <= touched
        for h in classes:
            assert H.coords_of_cycle(i, j, h.representative) == {h.index: 1}
        assert set(H._slices) == {(i, h.index[0]) for h in classes}


def test_listing_bases_builds_slices_only_where_classes_live():
    # on both routes; 63ne to (4, 7) has classes in 6 of its 22 slices
    for ring, i_max, j_max in ((build_cycle_ring(6), 6, 6), (make_63ne(), 4, 7),
                               (make_63ne(Field(5)), 4, 7)):
        H = homology(ring, i_max, j_max)
        classes = [h for j in range(1, j_max + 1) for i in range(1, min(i_max, j) + 1)
                   for h in H.basis(i, j)]
        assert len(H._slices) == len({(h.i, h.index[0]) for h in classes}) > 0
        for h in classes:
            assert H.klass(h.i, h.j, h.index) is h


def test_class_index_is_multidegree_and_place():
    H = homology(build_path_ring(5), 5, 5)
    for j in range(1, 6):
        for i in range(1, j + 1):
            for h in H.basis(i, j):
                u, k = h.index
                assert {_multidegree(bw) for bw in h.representative} == {u}
                assert sum(u) == j
                assert H.multigraded_dim(i, u) > k >= 0
    # the Tor engines' data keys a product by basis position, not by index
    A = H.algebra_data("bigraded")
    nonzero = 0
    for b1, b2 in (((1, 2), (1, 2)), ((1, 2), (2, 3))):
        position = {h.index: pos for pos, h in
                    enumerate(H.basis(b1[0] + b2[0], b1[1] + b2[1]))}
        for a, h1 in enumerate(H.basis(*b1)):
            for b, h2 in enumerate(H.basis(*b2)):
                coords = H.product_coords(h1, h2)
                assert A.mult(b1, a, b2, b) == {position[idx]: c
                                                for idx, c in coords.items()}
                nonzero += bool(coords)
    assert nonzero
    bigraded = homology(make_63ne(), 4, 5)
    assert [h.index for h in bigraded.basis(1, 2)] == [(2, k) for k in
                                                       range(bigraded.dim(1, 2))]


def test_coords_of_cycle_rejects_non_cycles_on_both_routes():
    # d(x1 t1) = x1^2 on the 3-path: the part lives in the non-squarefree
    # multidegree (2, 0, 0), where there is no slice to check it against
    H = homology(build_path_ring(3), 3, 3)
    assert H.multigraded
    with pytest.raises(ValueError, match="not a cycle"):
        H.coords_of_cycle(1, 2, {((1, 0, 0), (0,)): 1})
    # d(x3 t3) = x3^2, nonzero modulo xy, yz, x^2 + z^2
    ring = ring_from_strings(["x", "y", "z"], ["x*y", "y*z", "x^2 + z^2"])
    H = homology(ring, 3, 3)
    assert not H.multigraded
    with pytest.raises(ValueError, match="not a cycle"):
        H.coords_of_cycle(1, 2, {((0, 0, 1), (2,)): 1})
