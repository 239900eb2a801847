import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszul import QQ, Field, QuotientRing
from koszul.betti import (BarEngine, betti_table, is_koszul_up_to,
                          is_strand_koszul_up_to, poincare_K_from_R,
                          shape_check, trigraded_betti)
from koszul.families import build_cycle_ring, build_path_ring
from koszul.graded import (GradedAlgebraData, add_grades, ring_algebra_data,
                           strand_totalize)
from koszul.homology import homology
from koszul.series import SeriesTrunc, region_rect

from conftest import make_63ne, ring_from_strings, suite_rings
from oracles import d_squared_is_zero


def exterior_algebra_data(c):
    """The exterior algebra on c degree-1 generators as graded data."""
    import itertools
    subsets = {d: sorted(itertools.combinations(range(c), d))
               for d in range(c + 1)}
    index = {d: {s: k for k, s in enumerate(subsets[d])} for d in subsets}

    def mult(g1, a, g2, b):
        s1, s2 = subsets[g1[0]][a], subsets[g2[0]][b]
        if set(s1) & set(s2):
            return {}
        inversions = sum(1 for x in s1 for y in s2 if x > y)
        merged = tuple(sorted(s1 + s2))
        sign = QQ(-1) if inversions % 2 else QQ(1)
        return {index[len(merged)][merged]: sign}

    components = {(d,): comb(c, d) for d in range(1, c + 1)}
    return GradedAlgebraData(QQ, components, mult, lambda g: g[0], bound=10)


def test_bar_betti_hypersurface():
    ring = ring_from_strings(["x"], ["x^2"])
    A = ring_algebra_data(ring, 6)
    table = betti_table(A, 6, 6, engine="bar")
    assert dict(table.items()) == {(p, (p,)): 1 for p in range(7)}


def test_bar_betti_exterior_algebras():
    # Koszul dual of the exterior algebra is a polynomial ring:
    # beta_{p,p} = C(c + p - 1, p)
    for c in (1, 2, 3):
        A = exterior_algebra_data(c)
        table = betti_table(A, 4, 4, engine="bar")
        for p in range(5):
            assert table.get(p, (p,)) == comb(c + p - 1, p)
            for q in range(5):
                if q != p:
                    assert table.get(p, (q,)) == 0


def test_bar_betti_trivial_algebra():
    A = GradedAlgebraData(QQ, {}, lambda *a: {}, lambda g: g[0], bound=5)
    table = betti_table(A, 3, 5, engine="bar")
    assert dict(table.items()) == {(0, (0,)): 1}


def test_bar_differential_squares_to_zero():
    ring = build_path_ring(3)
    A = ring_algebra_data(ring, 5)
    eng = BarEngine(A)
    for p in range(2, 5):
        for q in range(p, 6):
            assert d_squared_is_zero(eng, p, (q,))


def _gf_rings():
    for p in (2, 3):
        F = Field(p)
        yield f"63ne_F{p}", make_63ne(F)
        yield f"path3_F{p}", build_path_ring(3, F)


def test_engines_agree_over_small_primes():
    # bar columns hold unreduced ints over GF(p): a negative entry stands
    # for a residue, and only the echelon reduces it
    for name, ring in _gf_rings():
        p = ring.field.p
        A = ring_algebra_data(ring, 6)
        bar = betti_table(A, 5, 6, engine="bar")
        res = betti_table(A, 5, 6, engine="resolution")
        assert bar.entries == res.entries, name
        cols = BarEngine(A).differential_columns(3, (4,))
        assert any(not 0 <= v < p for col in cols for v in col.values()), name


def _merge_columns(eng, p, grade):
    """Columns of d_p on a bar slice straight from the merge definition:
    summed into each target word, entries that vanish in the field dropped."""
    A = eng.A
    index = {w: k for k, w in enumerate(eng.words(p - 1, grade))}
    cols = []
    for w in eng.words(p, grade):
        col: dict = {}
        for t in range(p - 1):
            (g1, a1), (g2, a2) = w[t], w[t + 1]
            for x, c in A.mult(g1, a1, g2, a2).items():
                key = index[w[:t] + ((add_grades(g1, g2), x),) + w[t + 2:]]
                col[key] = col.get(key, 0) + (-1) ** t * c
        cols.append({k: v for k, v in col.items() if eng.field(v)})
    return cols


def _all_words(A, p, grade):
    """Every bar word of p letters and total grade ``grade``, by first letter."""
    if p == 0:
        return {()} if not any(grade) else set()
    return {((g, a),) + rest for g in A.components
            if all(x <= y for x, y in zip(g, grade))
            for a in range(A.components[g])
            for rest in _all_words(A, p - 1, tuple(y - x for x, y in zip(g, grade)))}


def test_bar_columns_need_no_summing():
    # rebuilt by summing into each target word and dropping entries that
    # vanish in the field, the bar columns come out the same
    rings = dict(_gf_rings())
    rings["63ne_QQ"] = make_63ne(QQ)
    rings["path3_QQ"] = build_path_ring(3)
    for name, ring in rings.items():
        eng = BarEngine(ring_algebra_data(ring, 6))
        for p in range(2, 7):
            for q in range(p, 7):
                cols = eng.differential_columns(p, (q,))
                assert cols == _merge_columns(eng, p, (q,)), (name, p, q)


def test_bar_columns_on_multi_coordinate_grades():
    # block offsets on the grades of H, of several coordinates except in
    # strand mode: the words are all words once each, the columns are the
    # merge definition, and d^2 = 0
    cases = {
        "63ne_bigraded": (homology(make_63ne(), 4, 6), "bigraded", 4, 6),
        "cycle6_multigraded": (homology(build_cycle_ring(6), 6, 6), "multigraded", 3, 6),
        "path5_strand": (homology(build_path_ring(5), 5, 5), "strand", 4, 5),
    }
    for name, (H, mode, p_max, weight_max) in cases.items():
        eng = BarEngine(H.algebra_data(mode))
        levels = eng.total_grades(p_max, weight_max)
        assert any(len(g) > 1 for g in levels[1]) == (mode != "strand"), name
        checked = 0
        for p in range(2, p_max + 1):
            for grade in sorted(levels[p]):
                words = eng.words(p, grade)
                assert len(set(words)) == len(words), (name, p, grade)
                assert set(words) == _all_words(eng.A, p, grade), (name, p, grade)
                cols = eng.differential_columns(p, grade)
                assert cols == _merge_columns(eng, p, grade), (name, p, grade)
                assert d_squared_is_zero(eng, p, grade), (name, p, grade)
                checked += any(cols)
        assert checked, name


def test_bar_differential_squares_to_zero_over_small_primes_and_fractions():
    rings = dict(_gf_rings())
    rings["fractions"] = ring_from_strings(
        ["x", "y", "z"], ["x^2 - 1/2*y*z", "y^2 + 2/3*x*z"])
    for name, ring in rings.items():
        eng = BarEngine(ring_algebra_data(ring, 5))
        for p in range(2, 5):
            for q in range(p, 6):
                assert d_squared_is_zero(eng, p, (q,)), (name, p, q)


def test_engines_agree_across_suite():
    for name, ring in suite_rings().items():
        A = ring_algebra_data(ring, 5)
        bar = betti_table(A, 4, 5, engine="bar")
        res = betti_table(A, 4, 5, engine="resolution")
        assert bar.entries == res.entries, name


@pytest.mark.parametrize("total_bound", [None, 6, 5, 4])
def test_engines_agree_with_total_bound(total_bound):
    rings = dict(suite_rings())
    rings["63ne_F7"] = make_63ne(Field(7))
    rings["63ne_F32003"] = make_63ne(Field(32003))
    # non-integral structure constants reach the resolution engine as Fractions
    rings["fractions"] = ring_from_strings(
        ["x", "y", "z"], ["x^2 - 1/2*y*z", "y^2 + 2/3*x*z"])
    for name, ring in rings.items():
        A = ring_algebra_data(ring, 6)
        bar = betti_table(A, 5, 6, engine="bar", total_bound=total_bound)
        res = betti_table(A, 5, 6, engine="resolution", total_bound=total_bound)
        assert bar.entries == res.entries, (name, total_bound)


def test_resolution_total_bound_prunes_exactly(ring_63ne):
    # the pruned resolution keeps every entry of the full one inside p + w <= T
    A = ring_algebra_data(ring_63ne, 8)
    full = betti_table(A, 8, 8, engine="resolution")
    for T in (8, 6, 3):
        pruned = betti_table(A, 8, 8, engine="resolution", total_bound=T)
        assert pruned.entries == {(p, g): v for (p, g), v in full.entries.items()
                                  if p + g[0] <= T}


@st.composite
def gf7_rings(draw):
    """1 to 3 quadrics and cubics in 3 variables over GF(7), with sparse
    coefficients; a cubic relation puts a generator off the diagonal."""
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.sampled_from([2, 3]))
        monomials = [m for m in itertools.product(range(degree + 1), repeat=3)
                     if sum(m) == degree]
        coeffs = draw(st.lists(st.sampled_from([0, 0, 1, 3, 6]),
                               min_size=len(monomials), max_size=len(monomials)))
        relation = {m: c for m, c in zip(monomials, coeffs) if c}
        if relation:
            relations.append(relation)
    return QuotientRing(3, relations, Field(7))


def _tables_agree(A, p_max, weight_max, total_bound):
    bar = betti_table(A, p_max, weight_max, engine="bar", total_bound=total_bound)
    res = betti_table(A, p_max, weight_max, engine="resolution",
                      total_bound=total_bound)
    assert res.entries == bar.entries


_BOUNDS = (st.integers(1, 4), st.integers(1, 5), st.sampled_from([None, 3, 4, 5, 6]))


@settings(max_examples=60, deadline=None)
@given(gf7_rings(), *_BOUNDS)
def test_resolution_matches_bar_on_random_gf7_rings(ring, p_max, weight_max, total_bound):
    _tables_agree(ring_algebra_data(ring, weight_max), p_max, weight_max, total_bound)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([build_path_ring, build_cycle_ring]), st.integers(3, 5),
       *_BOUNDS)
def test_resolution_matches_bar_on_multigraded_homology(build, n, p_max, weight_max,
                                                         total_bound):
    # the multigraded H of the path and cycle rings: grades (i, *u)
    H = homology(build(n), n, weight_max)
    _tables_agree(H.algebra_data("multigraded"), p_max, weight_max, total_bound)


def test_63ne_resolution_table_does_not_depend_on_the_variable_order():
    # the order of the variables changes the bases, the structure constants
    # and every echelon of the resolution, but not its table
    names = ["x", "y", "z", "u"]
    rels = ["x^2", "x*y", "x*z + u^2", "x*u", "y^2 + z^2", "z*u"]
    tables = {tuple(sorted(betti_table(ring_algebra_data(ring_from_strings(
        list(order), rels), 6), 6, 6, engine="resolution").entries.items()))
        for order in itertools.permutations(names)}
    assert len(tables) == 1


def test_engines_agree_multigraded_cycle():
    H = homology(build_cycle_ring(6), 6, 6)
    assert H.multigraded
    bar = trigraded_betti(H, 4, 6, engine="bar")
    res = trigraded_betti(H, 4, 6, engine="resolution")
    assert bar == res
    assert bar[(2, 2, 4)] == 33


def test_engines_agree_trigraded():
    ring = make_63ne()
    H = homology(ring, 4, 7)
    bar = trigraded_betti(H, 3, 7, engine="bar")
    res = trigraded_betti(H, 3, 7, engine="resolution")
    assert bar == res


def test_koszul_verdict_polynomial_ring():
    ring = QuotientRing(3, [])
    A = ring_algebra_data(ring, 5)
    v = is_koszul_up_to(A, 4, 5)
    assert v.status == "KOSZUL-UP-TO-BOUND"
    table = betti_table(A, 4, 5)
    for p in range(5):
        assert table.get(p, (p,)) == comb(3, p)


def test_koszul_verdict_cubic_hypersurface():
    ring = ring_from_strings(["x"], ["x^3"])
    A = ring_algebra_data(ring, 6)
    v = is_koszul_up_to(A, 4, 6)
    assert v.status == "NOT-KOSZUL" and v.witness == (2, 3)


def test_koszul_verdict_63ne(ring_63ne):
    A = ring_algebra_data(ring_63ne, 7)
    v = is_koszul_up_to(A, 5, 7)
    assert v.status == "KOSZUL-UP-TO-BOUND"


def test_strand_koszul_verdicts(ring_63ne, ring_ci_xy):
    H = homology(ring_63ne, 4, 8)
    v = is_strand_koszul_up_to(H, 3, 8, trigraded=True)
    assert v.status == "NOT-STRAND-KOSZUL"
    p, i, j = v.witness
    assert p != j - i
    Hc = homology(ring_ci_xy, 2, 6)
    assert is_strand_koszul_up_to(Hc, 3, 6,
                                  trigraded=True).status == "STRAND-KOSZUL-UP-TO-BOUND"
    assert is_strand_koszul_up_to(Hc, 3, 3).status == "STRAND-KOSZUL-UP-TO-BOUND"
    Hp = homology(build_path_ring(4), 4, 4)
    assert is_strand_koszul_up_to(Hp, 3, 3).status == "STRAND-KOSZUL-UP-TO-BOUND"


def test_strand_consistency_identity(ring_63ne):
    # sum over j - i = q of beta^H_{pij} equals beta^{H'}_{pq}; the trigraded
    # side needs internal degrees up to p*n + q to cover a whole strand
    p_max, q_max = 3, 3
    j_max = p_max * 4 + q_max
    H = homology(ring_63ne, 4, j_max)
    tri = trigraded_betti(H, p_max, j_max, engine="resolution")
    A = strand_totalize(H)
    strand = betti_table(A, p_max, q_max, engine="resolution")
    for p in range(p_max + 1):
        for q in range(q_max + 1):
            total = sum(v for (pp, i, j), v in tri.items()
                        if pp == p and j - i == q)
            assert total == strand.get(p, (q,)), (p, q)


def test_trigraded_examples(ring_ci_xy):
    H = homology(ring_ci_xy, 2, 6)
    tri = trigraded_betti(H, 2, 6)
    assert tri.get((1, 1, 2)) == 2          # c generators in bidegree (1, 2)
    assert tri.get((0, 0, 0)) == 1
    trivial = QuotientRing(2, [])
    Ht = homology(trivial, 2, 4)
    assert trigraded_betti(Ht, 2, 4) == {(0, 0, 0): 1}


def test_shape_check_pass_and_hypothesis_violation(ring_63ne):
    H = homology(ring_63ne, 4, 7)
    report = shape_check(H.algebra_data("bigraded"), 3, 7)
    assert report.status == "PASS" and report.hypothesis_ok
    # synthetic: a generator in homological degree 0 violates the hypothesis
    bad = GradedAlgebraData(QQ, {(0, 1): 1}, lambda *a: {},
                            lambda g: g[1], bound=4)
    report = shape_check(bad, 2, 4)
    assert report.status == "HYPOTHESIS-VIOLATED" and not report.hypothesis_ok


def test_poincare_K_from_R_examples():
    # hypersurface: P^K = sum (st)^{2i}
    ring = ring_from_strings(["x"], ["x^2"])
    A = ring_algebra_data(ring, 8)
    P_R = betti_table(A, 8, 8, engine="resolution").series()
    P_K = poincare_K_from_R(P_R, 1)
    assert P_K.coeffs == {(2 * k, 2 * k): 1 for k in range(5)}
    # polynomial ring: P^K = 1
    poly = QuotientRing(2, [])
    P_R = betti_table(ring_algebra_data(poly, 4), 4, 4).series()
    assert poincare_K_from_R(P_R, 2).coeffs == {(0, 0): 1}


def test_poincare_K_negative_coefficient_rejected():
    region = region_rect(2, 2)
    bogus = SeriesTrunc({(0, 0): 1, (1, 1): 1}, region)
    with pytest.raises(ValueError):
        poincare_K_from_R(bogus, 2)


def test_bound_validation():
    ring = ring_from_strings(["x"], ["x^2"])
    A = ring_algebra_data(ring, 3)
    with pytest.raises(ValueError):
        betti_table(A, 2, 5)
