import itertools
import random
from fractions import Fraction

import pytest

from koszul import QQ, QuotientRing, parse_polynomial
from koszul.families import build_cycle_ring, build_path_ring


def ring_from_strings(names, relations, field=QQ):
    return QuotientRing(len(names), [parse_polynomial(s, names, field)
                                     for s in relations], field, names)


def make_63ne(field=QQ):
    return ring_from_strings(
        ["x", "y", "z", "u"],
        ["x^2", "x*y", "x*z + u^2", "x*u", "y^2 + z^2", "z*u"], field)


def generic_quadrics_ring(field=QQ, n=5, m=5, seed=0):
    """m quadrics in n variables with one seeded coefficient per monomial:
    uniform in [-9, 9] over QQ, uniform in range(p) over GF(p)."""
    rng = random.Random(seed)
    monomials = [tuple(sum(1 for k in pair if k == v) for v in range(n))
                 for pair in itertools.combinations_with_replacement(range(n), 2)]
    relations = []
    for _ in range(m):
        coeffs = [rng.randrange(field.p) if field.p else rng.randint(-9, 9)
                  for _ in monomials]
        relations.append({mono: c for mono, c in zip(monomials, coeffs) if c})
    return QuotientRing(n, relations, field)


def in_field(values, field) -> bool:
    """True iff every value is a field element in its normal form: a
    Fraction over QQ, a plain int in range(p) over GF(p)."""
    if field.p:
        return all(type(v) is int and 0 <= v < field.p for v in values)
    return all(type(v) is Fraction for v in values)


@pytest.fixture(scope="session")
def ring_63ne():
    return make_63ne()


@pytest.fixture(scope="session")
def ring_ci_xy():
    return ring_from_strings(["x", "y"], ["x^2", "y^2"])


@pytest.fixture(scope="session")
def ring_x2():
    return ring_from_strings(["x"], ["x^2"])


@pytest.fixture(scope="session")
def ring_x3():
    return ring_from_strings(["x"], ["x^3"])


@pytest.fixture(scope="session")
def ring_m2zero():
    return ring_from_strings(["x", "y"], ["x^2", "x*y", "y^2"])


def suite_rings():
    """The standing test suite of rings used by the series identities."""
    return {
        "poly1": QuotientRing(1, []),
        "poly2": QuotientRing(2, []),
        "poly3": QuotientRing(3, []),
        "x2": ring_from_strings(["x"], ["x^2"]),
        "x3": ring_from_strings(["x"], ["x^3"]),
        "path3": build_path_ring(3),
        "path4": build_path_ring(4),
        "ci_xy": ring_from_strings(["x", "y"], ["x^2", "y^2"]),
        "63ne": make_63ne(),
    }


@pytest.fixture(scope="session")
def suite():
    return suite_rings()


@pytest.fixture(scope="session")
def cycle9():
    return build_cycle_ring(9)
