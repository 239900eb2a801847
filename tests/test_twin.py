"""The certified twin of a QQ ring over GF(P) (``QuotientRing.twin``).

Its Hilbert coefficients and Koszul homology dimensions equal the exact QQ
answers, with the twin switched off by a monkeypatch inside each test.  Every
fallback is forced: a certificate that fails mod P, relations that are not a
regular sequence, a rank that no d^2 = 0 bound settles, and a ring with more
relations than variables.  A counter test shows that the QQ ring is not
built where the twin answers alone.
"""

import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import koszul.cli
from koszul import QQ, QuotientRing, homology, poly_to_string
from koszul.cli import main
from koszul.fields import MODULAR

from conftest import generic_quadrics_ring, make_63ne, ring_from_strings
from oracles import complete_intersection_series
from test_homology import _count_ranks

P = MODULAR.p


def make_g4():
    return ring_from_strings(["x", "y", "z", "w"], [
        "x^2 + 3*y*z - w^2", "y^2 - x*z + 2*x*w", "z^2 + 2*x*y - 3*y*w", "w^2 - x*y + z*w"])


def make_ci235():
    return ring_from_strings(["x", "y", "z"], [
        "x^2 - 1/2*y*z + z^2", "y^3 + 1/3*x*z^2 - x^2*y", "z^5 + 2/7*x^3*y^2 - x*y^4"])


def exact_answers(make, D, j_max):
    """``hilbert_coeffs(D)`` and the Koszul homology dims up to ``j_max`` of
    a fresh ring, with no twin."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QuotientRing, "twin", lambda self, degree: None)
        ring = make()
        return ring.hilbert_coeffs(D), homology(ring, ring.n, j_max).dims()


def _count_modular_rings(monkeypatch) -> Counter:
    """Count the ``QuotientRing`` objects made, by the order of their field."""
    made = Counter()
    real = QuotientRing.__init__

    def counted(self, n, relations, field=QQ, names=None):
        made[field.p] += 1
        real(self, n, relations, field, names)

    monkeypatch.setattr(QuotientRing, "__init__", counted)
    return made


# name -> (ring, relation degrees, j_max, QQ degrees that fallbacks build)
CERTIFIED = {
    "5x5-qq": (generic_quadrics_ring, [2] * 5, 6, 0),
    "g4": (make_g4, [2] * 4, 6, 0),
    "qq6": (lambda: generic_quadrics_ring(QQ, 6, 5), [2] * 5, 5, 0),
    # H_{1,5} and H_{2,5} are nonzero: the rank of d at (2, 5) falls back
    "ci235": (make_ci235, [2, 3, 5], 7, 5),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certified_rings_match_the_complete_intersection_oracle(name):
    make, degrees, j_max, qq_levels = CERTIFIED[name]
    ring = make()
    hilbert, dims = complete_intersection_series(degrees, ring.n)
    assert homology(ring, ring.n, j_max).dims() == {
        ij: d for ij, d in dims.items() if ij[1] <= j_max}
    assert ring.twin(j_max) is not None
    assert ring.hilbert_coeffs(j_max + 2) == hilbert(j_max + 2)
    assert len(ring._levels) == qq_levels


def test_one_uncertified_slice_is_ranked_over_qq(monkeypatch):
    ranks = _count_ranks(monkeypatch)
    ring = make_ci235()
    H = homology(ring, ring.n, 7)
    dims = H.dims()
    assert dims[(1, 5)] == dims[(2, 5)] == 1
    # the one rank over QQ; it equals the rank mod P, which no bound certified
    assert ranks["exact"] + ranks["fallback"] == 1
    assert H._ranks.exact[(2, 5)] == H._ranks.modular[(2, 5)]
    # K_{2,5} has ring degree 3 and maps into degree 4: QQ degrees 0..4 only
    assert len(ring._levels) == 5
    assert (ring.hilbert_coeffs(9), dims) == exact_answers(make_ci235, 9, 7)


# name -> (ring, QuotientRing objects made over GF(P), degrees if a complete
# intersection over QQ)
NO_TWIN = {
    # a complete intersection over QQ; mod P the first relation is x^2, and
    # (x^2, x y) is not a regular sequence, so the certificate fails
    "P-in-a-coefficient": (lambda: ring_from_strings(["x", "y"], [f"x^2 + {P}*y^2", "x*y"]),
                           1, [2, 2]),
    # not a regular sequence: x^2 and x y share the factor x; the check ring
    # sets z to zero
    "not-regular": (lambda: ring_from_strings(["x", "y", "z"], ["x^2 - 1/3*x*y", "x*y"]),
                    2, None),
    # 6 relations in 4 variables: no twin is even tried
    "63ne": (make_63ne, 0, None),
}


@pytest.mark.parametrize("name", sorted(NO_TWIN))
def test_rings_without_a_certified_twin_are_answered_over_qq(monkeypatch, name):
    make, twins_made, degrees = NO_TWIN[name]
    made = _count_modular_rings(monkeypatch)
    ring = make()
    answers = ring.hilbert_coeffs(7), homology(ring, ring.n, 6).dims()
    assert ring.twin(7) is None
    assert made[P] == twins_made
    assert answers == exact_answers(make, 7, 6)
    if degrees:
        hilbert, dims = complete_intersection_series(degrees, ring.n)
        assert answers == (hilbert(7), {ij: d for ij, d in dims.items() if ij[1] <= 6})


def test_seeded_qq_quadrics_build_no_qq_ring(tmp_path, monkeypatch, capsys):
    # the benchmark's QQ ring: homology --max-int 4 and hilbert_coeffs(7)
    # are answered on the twin alone
    names = generic_quadrics_ring().names
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"field": "QQ", "variables": names, "relations": [
        poly_to_string(rel, names) for rel in generic_quadrics_ring().relations]}))
    loaded = []
    real = koszul.cli.load_ring

    def load_ring(*args):
        ring, digest = real(*args)
        loaded.append(ring)
        return ring, digest

    monkeypatch.setattr(koszul.cli, "load_ring", load_ring)
    assert main(["homology", str(path), "--max-int", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tables"]["homology_dims"] == {"0,0": 1, "1,2": 5, "2,4": 10}
    [ring] = loaded
    assert ring._levels == [] and ring.twin(4) is not None
    fresh = generic_quadrics_ring()
    assert fresh.hilbert_coeffs(7) == [1, 5, 10, 10, 5, 1, 0, 0]
    assert fresh._levels == []


def test_low_degree_requests_do_not_build_the_twin():
    # five quadrics: the certificate runs to degree 6, so a request below
    # degree sum(d_i - 1) - 1 = 4 is answered on the QQ ring
    ring = generic_quadrics_ring()
    assert ring.hilbert_coeffs(3) == [1, 5, 10, 10]
    assert ring.twin(3) is None and len(ring._levels) == 4
    assert ring.twin(4) is not None
    assert ring.hilbert_coeffs(5) == [1, 5, 10, 10, 5, 1]
    assert len(ring._levels) == 4


@st.composite
def fractional_rings(draw):
    """1 to n relations of degree 2 or 3 in n <= 3 variables over QQ, with
    fractional coefficients, some of them with P in a numerator or a
    denominator."""
    n = draw(st.integers(1, 3))
    small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
    coefficient = st.one_of(small, small, small, small, st.sampled_from(
        [Fraction(P), Fraction(1, P), Fraction(-2 * P, 3)]))
    relations = []
    for _ in range(draw(st.integers(1, n))):
        monomials = [tuple(c.count(v) for v in range(n)) for c in
                     itertools.combinations_with_replacement(range(n), draw(st.integers(2, 3)))]
        coeffs = draw(st.lists(coefficient, min_size=len(monomials), max_size=len(monomials)))
        relations.append({m: c for m, c in zip(monomials, coeffs) if c})
    return n, relations


@settings(max_examples=100, deadline=None)
@given(fractional_rings())
def test_twin_answers_equal_exact_qq_answers(data):
    n, relations = data
    ring = QuotientRing(n, relations)
    answers = ring.hilbert_coeffs(6), homology(ring, n, 6).dims()
    event(f"certified twin: {ring.twin(6) is not None}")
    assert answers == exact_answers(lambda: QuotientRing(n, relations), 6, 6)
