import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from koszul import QQ, Field, QuotientRing, parse_polynomial, poly_to_string
from koszul.polyring import (ParseError, grevlex_key, groebner_basis,
                             leading_monomial, mono_divides, mono_lcm, mono_mul,
                             poly_degree, poly_mul)

from conftest import generic_quadrics_ring, in_field, make_63ne, ring_from_strings
from oracles import (complete_intersection_series, dense_leading_rows, dense_rank_kernel,
                     macaulay_columns, monomials_of_degree)


def poly_add(p, q, field=QQ):
    return field.collect(itertools.chain(p.items(), q.items()))


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def test_grevlex_on_classic_example():
    # x*z < y^2 in grevlex with x > y > z
    assert grevlex_key((1, 0, 1)) < grevlex_key((0, 2, 0))
    assert grevlex_key((1, 1, 0)) > grevlex_key((0, 2, 0))
    assert grevlex_key((0, 0, 3)) > grevlex_key((0, 2, 0))


def test_monomial_ideal_is_its_own_basis():
    rels = [{(1, 1, 0): 1}, {(0, 1, 1): 1}]
    basis, trusted = groebner_basis(rels, QQ)
    assert {leading_monomial(g) for g in basis} == {(1, 1, 0), (0, 1, 1)}
    assert all(len(g) == 1 for g in basis)


def test_empty_relations_give_empty_basis():
    basis, _ = groebner_basis([], QQ)
    assert basis == []


def test_non_homogeneous_rejected():
    with pytest.raises(ValueError):
        groebner_basis([{(2, 0): 1, (1, 0): 1}], QQ)
    with pytest.raises(ValueError):
        QuotientRing(2, [{(2, 0): 1, (0, 1): 1}])


def test_low_degree_relations_rejected():
    with pytest.raises(ValueError):
        QuotientRing(2, [{(1, 0): 1}])


def test_63ne_groebner_dimensions():
    # independently: degree-2 monomials modulo the span of the six quadrics
    ring = make_63ne()
    assert ring.dim(1) == 4
    assert ring.dim(2) == 4
    monos = [m for m in ring.std_monomials(2)]
    all_deg2 = sorted(
        (tuple(m) for m in _monomials(4, 2)), key=grevlex_key)
    index = {m: k for k, m in enumerate(all_deg2)}
    cols = [{index[m]: Fraction(c) for m, c in rel.items()}
            for rel in ring.relations]
    rank, _ = dense_rank_kernel(cols, len(all_deg2))
    assert len(all_deg2) - rank == 4


def _monomials(n, d):
    if n == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in _monomials(n - 1, d - first):
            yield (first,) + rest


def test_std_monomials_univariate():
    ring = ring_from_strings(["x"], ["x^2"])
    assert ring.std_monomials(1) == ((1,),)
    assert ring.std_monomials(2) == ()


def test_std_monomials_path3():
    ring = ring_from_strings(["x1", "x2", "x3"], ["x1*x2", "x2*x3"])
    assert set(ring.std_monomials(2)) == {(2, 0, 0), (1, 0, 1), (0, 2, 0),
                                          (0, 0, 2)}


def test_std_monomials_polynomial_ring_counts():
    ring = QuotientRing(3, [])
    for d in range(6):
        assert ring.dim(d) == comb(3 + d - 1, d)


def test_hilbert_examples():
    assert ring_from_strings(["x"], ["x^2"]).hilbert_coeffs(4) == [1, 1, 0, 0, 0]
    path3 = ring_from_strings(["x1", "x2", "x3"], ["x1*x2", "x2*x3"])
    assert path3.hilbert_coeffs(2) == [1, 3, 4]
    assert QuotientRing(2, []).hilbert_coeffs(3) == [1, 2, 3, 4]


def test_multiply_mod_examples():
    ring = ring_from_strings(["x"], ["x^2"])
    x = {(1,): Fraction(1)}
    assert ring.multiply_mod(x, x) == {}
    ring63 = make_63ne()
    x_ = parse_polynomial("x", ring63.names)
    z_ = parse_polynomial("z", ring63.names)
    assert ring63.multiply_mod(x_, z_) == parse_polynomial("-u^2", ring63.names)
    f = parse_polynomial("x*z + 3*y^2", ring63.names)
    one = parse_polynomial("1", ring63.names)
    assert ring63.multiply_mod(one, f) == ring63.normal_form(f)


def test_normal_form_idempotent_and_difference_in_ideal():
    ring = make_63ne()
    f = parse_polynomial("x*z*u + y^2*z - u^3 + x^2*y", ring.names)
    nf = ring.normal_form(f)
    assert ring.normal_form(nf) == nf
    difference = poly_add(f, {m: -c for m, c in nf.items()})
    assert ring.contains(difference)


def _divide(f, basis, field=QQ):
    """Division by the basis, largest term first: (quotients, remainder)."""
    work = dict(f)
    quotients = [dict() for _ in basis]
    remainder = {}
    while work:
        m = max(work, key=grevlex_key)
        c = work.pop(m)
        for k, g in enumerate(basis):
            lm = leading_monomial(g)
            if mono_divides(lm, m):
                shift = mono_div(m, lm)
                quotients[k][shift] = field(quotients[k].get(shift, 0) + c)
                for m2, c2 in g.items():
                    if m2 == lm:
                        continue
                    m3 = mono_mul(m2, shift)
                    acc = field(work.get(m3, 0) - c * c2)
                    if acc:
                        work[m3] = acc
                    else:
                        work.pop(m3, None)
                break
        else:
            remainder[m] = c
    return quotients, remainder


def test_difference_expressible_in_groebner_elements():
    # run the division with quotient tracking and reconstruct exactly
    ring = make_63ne()
    basis = ring.groebner(5)
    f = parse_polynomial("x*z*u^2 + y^2*z^2 - u*x*z*u + x^2*y*u", ring.names)
    quotients, remainder = _divide(f, basis)
    assert remainder == ring.normal_form(f)
    rebuilt = dict(remainder)
    for quotient, g in zip(quotients, basis):
        rebuilt = poly_add(rebuilt, poly_mul(quotient, g))
    assert rebuilt == {m: c for m, c in f.items() if c}


def test_normal_form_linear():
    ring = make_63ne()
    f = parse_polynomial("x*z + y*u", ring.names)
    g = parse_polynomial("z*u - y^2", ring.names)
    lhs = ring.normal_form(poly_add(f, g))
    rhs = poly_add(ring.normal_form(f), ring.normal_form(g))
    assert lhs == rhs


def test_monomial_ideal_std_is_divisibility_complement():
    ring = ring_from_strings(["x1", "x2", "x3"], ["x1*x2", "x2*x3"])
    lms = [next(iter(rel)) for rel in ring.relations]
    for d in range(5):
        expected = {m for m in map(tuple, _monomials(3, d))
                    if not any(all(a <= b for a, b in zip(lm, m)) for lm in lms)}
        assert set(ring.std_monomials(d)) == expected


def test_hilbert_matches_std_monomials():
    ring = make_63ne()
    assert ring.hilbert_coeffs(6) == [len(ring.std_monomials(d))
                                      for d in range(7)]


NAMES = ["x1", "x2", "x3"]


@st.composite
def polynomials(draw):
    terms = draw(st.integers(1, 4))
    poly = {}
    for _ in range(terms):
        mono = tuple(draw(st.integers(0, 2)) for _ in NAMES)
        coeff = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))
        if coeff:
            poly[mono] = poly.get(mono, Fraction(0)) + coeff
    return {m: c for m, c in poly.items() if c}


@settings(max_examples=80, deadline=None)
@given(polynomials())
def test_parser_round_trip(poly):
    text = poly_to_string(poly, NAMES)
    assert parse_polynomial(text, NAMES) == poly


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1 + x9", NAMES)
    assert "x9" in str(err.value)
    with pytest.raises(ParseError):
        parse_polynomial("3 ** x1", NAMES)
    with pytest.raises(ParseError):
        parse_polynomial("x1 $ x2", NAMES)
    with pytest.raises(ParseError):
        parse_polynomial("1/0", NAMES)


def test_parse_rational_coefficients():
    poly = parse_polynomial("1/2*x1^2 - 3*x2*x3", NAMES)
    assert poly == {(2, 0, 0): Fraction(1, 2), (0, 1, 1): Fraction(-3)}


def test_parse_prime_field():
    field = Field(5)
    poly = parse_polynomial("3*x1 + 7*x2", NAMES, field)
    assert poly == {(1, 0, 0): 3, (0, 1, 0): 2}


def test_degree_truncated_groebner_extends():
    # a deeper request builds the missing degrees and keeps the ones built
    ring = make_63ne()
    ring.std_monomials(2)
    built = list(ring._levels)
    assert len(built) == 3
    ring.std_monomials(6)
    assert len(ring._levels) == 7 and ring._levels[:3] == built


@pytest.mark.parametrize("field", [Field(32003), QQ], ids=["gf32003", "qq"])
def test_resumed_groebner_matches_fresh_runs(field):
    ring = generic_quadrics_ring(field)
    fresh = {d: groebner_basis(ring.relations, field, d)[0] for d in range(8)}
    # raising the degree one step at a time extends the ring's echelons
    for d in range(8):
        assert ring.groebner(d) == fresh[d]
        assert all(poly_degree(g) <= d for g in fresh[d])
    # one request to degree 7 builds the same echelons, pivot for pivot
    deep = generic_quadrics_ring(field)
    deep.groebner(7)
    for d in range(8):
        assert deep._levels[d][0] == ring._levels[d][0]
        assert deep._levels[d][2].pivots == ring._levels[d][2].pivots
        assert deep.groebner(d) == fresh[d]
        # the pivots are the leading monomials of J_d inside W_d
        monos, _, ech = ring._levels[d]
        assert len(monos) - len(ech.pivots) == ring.dim(d)


FULL_BASIS_RINGS = {
    "63ne": make_63ne,
    "generic-gf32003": lambda: generic_quadrics_ring(Field(32003), 4, 3),
    # leading monomials xy, xz, yz: every pair has lcm xyz, which is also the
    # lcm of the other two pairs, so no chain covers a pair; S = -z^3
    "triangle": lambda: ring_from_strings(["x", "y", "z"], ["x*y - z^2", "x*z", "y*z"]),
}


@pytest.mark.parametrize("name", sorted(FULL_BASIS_RINGS))
def test_full_groebner_basis_passes_buchberger_criterion(name):
    ring = FULL_BASIS_RINGS[name]()
    full, trusted = groebner_basis(ring.relations, ring.field)
    assert trusted == float("inf")
    for d in (2, 3, 5):
        truncated, bound = groebner_basis(ring.relations, ring.field, d)
        assert bound == d
        assert truncated == [g for g in full if poly_degree(g) <= d]
    for g, h in itertools.combinations(full, 2):
        a, b = leading_monomial(g), leading_monomial(h)
        lcm = mono_lcm(a, b)
        s = poly_add({mono_mul(m, mono_div(lcm, a)): c for m, c in g.items()},
                     {mono_mul(m, mono_div(lcm, b)): -c for m, c in h.items()},
                     ring.field)
        assert _divide(s, full, ring.field)[1] == {}


def test_monomial_relations_give_monic_minimal_basis():
    F7 = Field(7)
    assert groebner_basis([{(2, 0): F7(-2)}], F7) == ([{(2, 0): 1}], float("inf"))
    basis, _ = groebner_basis([{(2, 0): 3}, {(3, 0): 1}, {(1, 1): -1}], QQ)
    assert basis == [{(1, 1): 1}, {(2, 0): 1}]


def test_relations_vanishing_in_the_field():
    F5 = Field(5)
    assert QuotientRing(2, [{(2, 0): 5}], F5).hilbert_coeffs(3) == [1, 2, 3, 4]
    ring = QuotientRing(2, [{(2, 0): 5, (1, 1): 1}], F5)
    assert ring.relations == [{(1, 1): 1}] and ring.is_monomial
    assert ring.std_monomials(2) == ((0, 2), (2, 0))
    assert ring.normal_form({(1, 1): 1, (2, 0): 3}) == {(2, 0): 3}


def test_fields_reject_floats():
    for field in (QQ, Field(5)):
        with pytest.raises(TypeError):
            field(2.5)
        with pytest.raises(TypeError):
            field(0.1)
        assert field("5/2") == field(Fraction(5, 2))
    assert Field(5)(Fraction(5, 2)) == 0 and Field(5)(-3) == 2
    assert type(QQ.inv(2)) is Fraction and QQ.div(1, 2) == Fraction(1, 2)
    with pytest.raises(TypeError):
        QuotientRing(2, [{(2, 0): 2.5, (1, 1): 1}], Field(5))


@st.composite
def small_ideals(draw):
    """(p, n, relations): a few homogeneous relations of degree 2 or 3 with
    small integer coefficients, some of which vanish mod p (p = 0 is QQ);
    over QQ a coefficient may also be a fraction with denominator up to 5."""
    p = draw(st.sampled_from([0, 2, 3, 5, 7]))
    n = draw(st.integers(2, 4))
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        monos = monomials_of_degree(n, draw(st.integers(2, 3)))
        support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4,
                                unique=True))
        relations.append({m: draw(st.integers(-7, 7)) for m in support})
        if p == 0 and draw(st.booleans()):
            relations[-1] = {m: Fraction(c, draw(st.integers(1, 5)))
                             for m, c in relations[-1].items()}
    return p, n, relations


@settings(max_examples=40, deadline=None)
@given(small_ideals())
# x^3 lies outside W_3, so phi(x^3) = x NF(x^2) = -x y^2 / 2 carries the scale 2
@example((0, 2, [{(2, 0): 2, (0, 2): 1}, {(1, 2): Fraction(1, 3), (0, 3): 1}]))
def test_quotient_ring_matches_macaulay_oracle(ideal):
    p, n, relations = ideal
    ring = QuotientRing(n, relations, Field(p))
    for d in range(7):
        monos, multiples = macaulay_columns(relations, n, d)
        rank, _ = dense_rank_kernel(multiples, len(monos), p)
        assert ring.dim(d) == len(monos) - rank
        standard = set(ring.std_monomials(d))
        index = {m: k for k, m in enumerate(monos)}
        differences = []
        for m in monos:
            nf = ring.normal_form({m: 1})
            assert set(nf) <= standard and in_field(nf.values(), ring.field)
            differences.append(poly_add({index[m]: 1},
                                        {index[s]: -c for s, c in nf.items()},
                                        ring.field))
        # every M - NF(M) lies in the span of the multiples
        assert dense_rank_kernel(multiples + differences, len(monos), p)[0] == rank
    basis, _ = groebner_basis(relations, ring.field, 6)
    assert all(in_field(g.values(), ring.field) for g in basis)


def _complete_intersection_dims(relations, n, top):
    """c_0, ..., c_top: prod(1 - t^d_i) / (1 - t)^n for the relation degrees."""
    hilbert, _ = complete_intersection_series([poly_degree(g) for g in relations], n)
    return hilbert(top)


@settings(max_examples=40, deadline=None)
@given(small_ideals())
def test_no_ring_is_smaller_than_a_complete_intersection(ideal):
    """dim R_d >= c_d whenever m <= n, by the Macaulay oracle alone: the
    theorem behind the rank bound at which each degree stops."""
    p, n, relations = ideal
    assume(len(relations) <= n)
    c = _complete_intersection_dims(relations, n, 6)
    for d in range(7):
        monos, multiples = macaulay_columns(relations, n, d)
        assert len(monos) - dense_rank_kernel(multiples, len(monos), p)[0] >= c[d]


@st.composite
def complete_intersections(draw):
    """(p, n, relations): 1 to n dense forms of degree 2 or 3 with random
    coefficients in n <= 4 variables, over QQ (p = 0) or GF(p).  Most are
    regular sequences; over the small fields many are not."""
    p = draw(st.sampled_from([0, 2, 3, 5, 7, 32003]))
    n = draw(st.integers(1, 4))
    coefficient = st.integers(0, p - 1) if p else st.integers(-5, 5)
    relations = []
    for _ in range(draw(st.integers(1, n))):
        monos = monomials_of_degree(n, draw(st.integers(2, 3)))
        relations.append({m: c for m in monos if (c := draw(coefficient))})
    return p, n, [rel for rel in relations if rel]


@settings(max_examples=100, deadline=None)
@given(complete_intersections())
def test_complete_intersections_match_the_macaulay_oracle(ci):
    """Standard monomials, dims and normal forms through degree 5 equal the
    dense oracle's, where most degrees stop at rank |W_d| - c_d."""
    p, n, relations = ci
    ring = QuotientRing(n, relations, Field(p))
    c = _complete_intersection_dims(relations, n, 5)
    stopped = False
    for d in range(6):
        monos, multiples = macaulay_columns(relations, n, d)
        order = sorted(monos, key=grevlex_key, reverse=True)
        row = {m: k for k, m in enumerate(order)}
        columns = [{row[monos[i]]: v for i, v in col.items()} for col in multiples]
        leads, _ = dense_leading_rows(columns, len(order), p)
        standard = tuple(order[k] for k in reversed(range(len(order))) if k not in leads)
        assert ring.std_monomials(d) == standard and ring.dim(d) == len(standard)
        stopped |= 0 < c[d] == len(standard)
        differences = []
        for m in order:
            nf = ring.normal_form({m: 1})
            assert set(nf) <= set(standard)
            differences.append(poly_add({row[m]: 1}, {row[s]: -v for s, v in nf.items()},
                                        ring.field))
        assert dense_rank_kernel(columns + differences, len(order), p)[0] == len(leads)
    event(f"stop at the bound taken: {stopped}")


def test_more_relations_than_variables_give_no_bound():
    # with m > n, prod(1 - t^d_i) / (1 - t)^n is no lower bound: for these
    # degrees (2, 3, 3, 3, 3) in 2 variables its t^7 coefficient is 6, and
    # the cubics lie in (x^2 + y^2), so dim R_7 = 2
    ring = ring_from_strings(["x", "y"], ["x^2 + y^2"] + ["x^3 + x*y^2"] * 4)
    assert _complete_intersection_dims(ring.relations, 2, 9)[7] == 6
    assert ring.hilbert_coeffs(9) == [1] + [2] * 9


@pytest.mark.parametrize("field", [Field(32003), QQ], ids=["gf32003", "qq"])
def test_levels_build_rows_lazily(monkeypatch, field):
    """``hilbert_coeffs(7)`` on the seeded 5x5 quadrics maps 114 polynomials
    through ``_into``: 72 rows and 42 normal forms.  Building every row of
    each degree before inserting any mapped 365 (305 rows, 60 normal forms)."""
    calls = []
    real = QuotientRing._into

    def counted(self, p, d):
        calls.append(d)
        return real(self, p, d)

    monkeypatch.setattr(QuotientRing, "_into", counted)
    assert generic_quadrics_ring(field).hilbert_coeffs(7) == [1, 5, 10, 10, 5, 1, 0, 0]
    assert len(calls) <= 114


def _quotient_answers(ring, top):
    """Groebner basis, standard monomials and every monomial NF through ``top``."""
    monos = [m for d in range(top + 1) for m in monomials_of_degree(ring.n, d)]
    return (ring.groebner(top), [ring.std_monomials(d) for d in range(top + 1)],
            [ring.normal_form({m: 1}) for m in monos])


_UNITS = st.lists(st.tuples(st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 5)),
                  min_size=3, max_size=3)


@settings(max_examples=30, deadline=None)
@given(small_ideals(), _UNITS)
@example((0, 2, [{(2, 0): 2, (0, 2): 1}, {(1, 2): Fraction(1, 3), (0, 3): 1}]),
         [(-3, 2), (5, 1), (1, 1)])
def test_quotient_ring_invariant_under_scaling_relations(ideal, units):
    """Multiplying each relation by a nonzero constant changes no answer, and
    the normal form is linear over k[x]: NF(x_j NF(M)) == NF(x_j M)."""
    p, n, relations = ideal
    field = Field(p)
    scaled = [{m: field.mul(field(c), field(Fraction(a, b) if p == 0 else a) or 1)
               for m, c in rel.items()} for rel, (a, b) in zip(relations, units)]
    ring = QuotientRing(n, relations, field)
    ring_scaled = QuotientRing(n, scaled, field)
    assert _quotient_answers(ring_scaled, 6) == _quotient_answers(ring, 6)
    for rel in relations:
        assert ring_scaled.contains(rel)
    for m in (m for d in range(5) for m in monomials_of_degree(n, d)):
        for j in range(n):
            x_j = tuple(int(k == j) for k in range(n))
            assert (ring_scaled.multiply_mod({x_j: 1}, ring_scaled.normal_form({m: 1}))
                    == ring_scaled.normal_form({mono_mul(x_j, m): 1}))


def test_field_orders_decided_by_miller_rabin():
    assert Field(2**61 - 1).p == 2**61 - 1        # used to hang in trial division
    for p in (2, 3, 5, 7, 13, 32003):
        assert Field(p).p == p
    for composite in (1, 4, 561, 1105, 2**61 + 1, 3215031751):  # 561, 1105: Carmichael
        with pytest.raises(ValueError):
            Field(composite)
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        Field(2**89 - 1)
