import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszul import QQ, Field, QuotientRing, parse_polynomial
from koszul.betti import is_strand_koszul_up_to
from koszul.families import (PathDecomposition, boocher_dim,
                             build_cycle_ring,
                             build_path_ring, build_quadratic_ci,
                             complete_decomposition, path_certify,
                             short_gorenstein_certify, three_relation_certify)
from koszul.freealg import ReductionSystem
from koszul.homology import homology, multigraded_homology

from conftest import ring_from_strings


def test_complete_decomposition_paper_example():
    u = (1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 1)
    assert complete_decomposition(u).segments == ((1, 3), (5, 2), (9, 4))


def test_complete_decomposition_unit_and_simple():
    assert complete_decomposition((1, 0, 0)).segments == ((1, 1),)
    assert complete_decomposition((1, 1, 0, 1, 1)).segments == ((1, 2), (4, 2))


def test_complete_decomposition_rejects():
    with pytest.raises(ValueError):
        complete_decomposition((2, 0))
    with pytest.raises(ValueError):
        complete_decomposition((0, 0))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=12))
def test_decomposition_reconstruction(bits):
    u = tuple(bits)
    if not any(u):
        return
    decomposition = complete_decomposition(u)
    assert decomposition.multidegree(len(u)) == u
    starts = [s for s, _ in decomposition.segments]
    assert starts == sorted(starts)
    # maximal support: segments are separated by at least one gap
    for (s1, r1), (s2, _) in zip(decomposition.segments,
                                 decomposition.segments[1:]):
        assert s1 + r1 < s2


def test_boocher_examples():
    assert boocher_dim((1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 1)) == (0, None)
    assert boocher_dim((1, 1, 0)) == (1, 1)
    assert boocher_dim((1, 1, 1, 0, 1, 1, 1)) == (1, 4)


def test_boocher_vs_linear_algebra_small():
    for n in (3, 4, 5):
        ring = build_path_ring(n)
        for support_size in range(1, n + 1):
            for support in itertools.combinations(range(n), support_size):
                u = tuple(1 if k in support else 0 for k in range(n))
                dim, hom_degree = boocher_dim(u)
                dims, _ = multigraded_homology(ring, u)
                if dim == 0:
                    assert dims == {}, u
                else:
                    assert dims == {hom_degree: 1}, u


def test_build_quadratic_ci_examples():
    ring, cert = build_quadratic_ci(
        2, [parse_polynomial(s, ["x", "y"]) for s in ["x^2", "y^2"]])
    assert cert.verdict.status == "STRAND-KOSZUL"
    H = homology(ring, 2, 4)
    assert [H.dim(i, 2 * i) for i in range(3)] == [1, 2, 1]
    ring3, cert3 = build_quadratic_ci(
        3, [parse_polynomial(s, ["x", "y", "z"]) for s in ["x^2", "y^2", "z^2"]])
    assert cert3.verdict.status == "STRAND-KOSZUL"
    # a single quadric that is not a squarefree monomial: its square relation
    # z1*z1 lives at bidegree (2, 4), past 2c
    for names, quadric in ((["x", "y"], "x^2"), (["x", "y"], "x^2 + y^2"),
                           (["x", "y", "z"], "x*y + z^2")):
        _, cert1 = build_quadratic_ci(len(names), [parse_polynomial(quadric, names)])
        assert cert1.verdict.status == "STRAND-KOSZUL", quadric


def test_build_quadratic_ci_nondiagonal():
    quadrics = [parse_polynomial(s, ["x", "y"]) for s in ["x^2 + x*y", "y^2"]]
    ring, cert = build_quadratic_ci(2, quadrics)
    assert cert.verdict.status == "STRAND-KOSZUL"


def test_build_quadratic_ci_rejects_non_regular():
    with pytest.raises(ValueError):
        build_quadratic_ci(
            2, [parse_polynomial(s, ["x", "y"]) for s in ["x^2", "x^2"]])


GOR3 = (["x", "y", "z"], ["x*y", "x*z", "y*z", "x^2 - y^2", "x^2 - z^2"])
GOR4 = (["x", "y", "z", "w"],
        ["x*y", "x*z", "x*w", "y*z", "y*w", "z*w",
         "x^2 - y^2", "x^2 - z^2", "x^2 - w^2"])


def test_short_gorenstein_n2():
    ring = ring_from_strings(["x", "y"], ["x^2", "y^2"])
    cert = short_gorenstein_certify(ring)
    assert cert.verdict.status == "STRAND-KOSZUL"
    assert cert.data["betti_row"] == [2]
    # the rewriting system is the anticommutator plus the two squares
    rules = set(cert.presentation.relation_strings())
    assert "w1_1*z1_1 + z1_1*w1_1" in rules


def test_short_gorenstein_n3_and_n4():
    for names, rels in (GOR3, GOR4):
        ring = ring_from_strings(names, rels)
        cert = short_gorenstein_certify(ring)
        assert cert.verdict.status == "STRAND-KOSZUL"
        row = cert.data["betti_row"]
        assert row == row[::-1]


def test_short_gorenstein_char2_rules():
    # n = 3 over F2 is accepted (odd n), n = 2 over F2 is rejected
    field = Field(2)
    ring3 = ring_from_strings(GOR3[0], GOR3[1], field)
    cert = short_gorenstein_certify(ring3)
    assert cert.verdict.status == "STRAND-KOSZUL"
    ring2 = ring_from_strings(["x", "y"], ["x^2", "y^2"], field)
    with pytest.raises(ValueError):
        short_gorenstein_certify(ring2)


def test_short_gorenstein_rejects_non_gorenstein():
    ring = ring_from_strings(["x", "y"], ["x^2", "x*y", "y^2"])  # socle dim 2
    with pytest.raises(ValueError):
        short_gorenstein_certify(ring)


THREE_REL_CASES = [
    ("top-left", ["x", "y"], ["x^2", "x*y", "y^2"]),
    ("top-right", ["x", "y", "z"], ["x^2", "x*y", "x*z"]),
    ("bottom-left", ["x", "y", "z"], ["x^2", "y^2", "z^2"]),
    ("bottom-right", ["x", "y", "z"], ["x^2", "x*y", "z^2"]),
]


@pytest.mark.parametrize("expected,names,rels", THREE_REL_CASES)
def test_three_relation_tables(expected, names, rels):
    ring = ring_from_strings(names, rels)
    cert = three_relation_certify(ring)
    assert cert.data["table"] == expected
    assert cert.verdict.status == "STRAND-KOSZUL"


def test_three_relation_bottom_right_reduced_monomials():
    ring = ring_from_strings(["x", "y", "z"], ["x^2", "x*y", "z^2"])
    cert = three_relation_certify(ring)
    assert cert.data["case"] == "c-nonzero"
    system = ReductionSystem(cert.presentation.algebra,
                             cert.presentation.relations)
    names = cert.presentation.algebra.names
    words = {tuple(names[i] for i in w) for w in system.reduced_words(2)}
    assert words == {("z1", "y"), ("z1", "z2"), ("z1", "z3")}


def test_three_relation_rejects_other_counts():
    ring = ring_from_strings(["x", "y"], ["x^2", "y^2"])
    with pytest.raises(ValueError):
        three_relation_certify(ring)


def test_path_certify_small():
    for n in (3, 4, 5, 6):
        ring, cert = path_certify(n)
        assert cert.verdict.status == "STRAND-KOSZUL", n
        assert cert.data["relations_vanish"]
        assert cert.data["canonical_factorizations"]


def test_path_certify_type_ranges():
    # n = 3 has no type (1), (5), (6) elements: the ranges are empty
    ring, cert = path_certify(3)
    counts = cert.data["type_counts"]
    assert counts["1"] == "0" or counts["1"] == 0 or int(counts["1"]) == 0
    assert int(counts["5"]) == 0
    assert int(counts["6"]) == 0
    ring5, cert5 = path_certify(5)
    assert int(cert5.data["type_counts"]["5"]) == 1
    assert int(cert5.data["type_counts"]["6"]) == 2


def test_path_reduced_monomial_lemma():
    # the four reduced-pair predicates of the path system
    n = 8
    ring, cert = path_certify(n)
    system = ReductionSystem(cert.presentation.algebra,
                             cert.presentation.relations)
    names = cert.presentation.algebra.names
    idx = {name: k for k, name in enumerate(names)}
    for i in range(1, n):
        for j in range(1, n):
            word = (idx[f"z{i}"], idx[f"z{j}"])
            assert system.is_reduced_word(word) == (i + 1 <= j - 2)
    for i in range(1, n):
        for l in range(1, n - 1):
            word = (idx[f"z{i}"], idx[f"y{l}"])
            assert system.is_reduced_word(word) == (i + 1 <= l - 1)
            word = (idx[f"y{l}"], idx[f"z{i}"])
            assert system.is_reduced_word(word) == (l + 2 <= i - 2)
    for l in range(1, n - 1):
        for m in range(1, n - 1):
            word = (idx[f"y{l}"], idx[f"y{m}"])
            assert system.is_reduced_word(word) == (l + 2 <= m - 1)


def test_path_reduced_count_equals_strand_dims():
    n = 6
    ring, cert = path_certify(n, d_max=4)
    H = homology(ring, n, n)
    strand_dims = {0: 1}
    for (i, j), d in H.dims().items():
        if (i, j) != (0, 0):
            strand_dims[j - i] = strand_dims.get(j - i, 0) + d
    for d in range(5):
        assert cert.certification.counts[d] == strand_dims.get(d, 0)


def test_path_rejects_small_n():
    with pytest.raises(ValueError):
        build_path_ring(2)
    with pytest.raises(ValueError):
        path_certify(2)


def test_cycle_ring_construction():
    ring = build_cycle_ring(3)
    assert len(ring.relations) == 3
    ring9 = build_cycle_ring(9)
    assert len(ring9.relations) == 9
    assert ring9.is_squarefree_monomial
    with pytest.raises(ValueError):
        build_cycle_ring(2)


def test_family_verdicts_agree_with_generic():
    # the family certificates and the generic bounded test agree
    cases = []
    ring, cert = build_quadratic_ci(
        2, [parse_polynomial(s, ["x", "y"]) for s in ["x^2", "y^2"]])
    cases.append((ring, cert, 4))
    gor = ring_from_strings(*GOR3)
    cert_g = short_gorenstein_certify(gor)
    cases.append((gor, cert_g, 5))
    three = ring_from_strings(["x", "y", "z"], ["x^2", "x*y", "z^2"])
    cert_t = three_relation_certify(three)
    cases.append((three, cert_t, 6))
    path, cert_p = path_certify(4)
    cases.append((path, cert_p, 4))
    for ring, cert, j_max in cases:
        H = homology(ring, ring.n, j_max)
        generic = is_strand_koszul_up_to(H, 3, j_max, trigraded=True)
        assert cert.verdict.status == "STRAND-KOSZUL"
        assert generic.status == "STRAND-KOSZUL-UP-TO-BOUND"
