"""Acceptance criteria, one test per criterion, exact comparisons throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is zero: integer/rational equality only.
"""

import itertools
import time
from math import comb

import pytest

from koszul import QQ, QuotientRing, parse_polynomial
from koszul.betti import (BarEngine, betti_table, is_koszul_up_to,
                          is_strand_koszul_up_to, shape_check, trigraded_betti)
from koszul.families import (boocher_dim, build_cycle_ring, build_path_ring,
                             build_quadratic_ci, path_certify,
                             short_gorenstein_certify, three_relation_certify)
from koszul.freealg import ReductionSystem, certify_groebner_by_dims
from koszul.graded import ring_algebra_data, strand_totalize
from koszul.homology import differential, homology, koszul_basis, \
    multigraded_homology
from koszul.identities import (check_golod, check_hilbert_identity,
                               check_low_degree_betti, check_theorem_A)
from koszul.sparse import kernel_of_columns

from conftest import make_63ne, ring_from_strings, suite_rings
from oracles import d_squared_is_zero


def _report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_catalog_ring_63ne():
    started = time.perf_counter()
    ring = make_63ne()
    verdict = is_koszul_up_to(ring_algebra_data(ring, 7), 5, 7)
    assert verdict.status == "KOSZUL-UP-TO-BOUND"
    H = homology(ring, 4, 8)
    strand = is_strand_koszul_up_to(H, 3, 8, trigraded=True)
    assert strand.status == "NOT-STRAND-KOSZUL"
    p, i, j = strand.witness
    assert p != j - i
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    _report(1, f"63ne Koszul up to (5,7); not strand-Koszul, witness "
               f"(p,i,j)=({p},{i},{j}) with p != j-i  [{elapsed:.1f}s]")


def test_criterion_2_nine_cycle_betti():
    started = time.perf_counter()
    ring = build_cycle_ring(9)
    H = homology(ring, 9, 9)
    tri = trigraded_betti(H, 2, 9)
    value = tri.get((2, 6, 9), 0)
    assert value == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 600
    _report(2, f"9-cycle beta^H_(2,6,9)(k) = 1  [{elapsed:.1f}s]")


def test_criterion_3_theorem_A_suite():
    rings = suite_rings()
    assert len(rings) >= 6
    for name, ring in sorted(rings.items()):
        report = check_theorem_A(ring, 8)
        assert report.passed, (name, report.first_failure)
    _report(3, f"P^R = (1+st)^n P^K to total degree 8 on {len(rings)} rings")


def test_criterion_4_hilbert_identity_suite():
    rings = suite_rings()
    for name, ring in sorted(rings.items()):
        report = check_hilbert_identity(ring, 6)
        assert report.passed, (name, report.first_failure)
    _report(4, f"H_R(t)(1-t)^n P^K(-1,t) = 1 + O(t^7) on {len(rings)} rings")


def test_criterion_5_low_degree_betti_suite():
    rings = suite_rings()
    total = 0
    for name, ring in sorted(rings.items()):
        report = check_low_degree_betti(ring, 6, engine="bar")
        assert report.passed, (name, report.first_failure)
        total += len(report.data["equalities"])
    _report(5, f"all four low-degree Betti relations hold for j <= 6 "
               f"({total} equalities, both sides from bar complexes)")


def test_criterion_6_path_formula_vs_linear_algebra():
    comparisons = 0
    for n in range(3, 9):
        ring = build_path_ring(n)
        for support_size in range(1, n + 1):
            for support in itertools.combinations(range(n), support_size):
                u = tuple(1 if k in support else 0 for k in range(n))
                dim, hom_degree = boocher_dim(u)
                dims, _ = multigraded_homology(ring, u)
                for i in range(n + 1):
                    expected = 1 if (dim == 1 and i == hom_degree) else 0
                    assert dims.get(i, 0) == expected, (n, u, i)
                    comparisons += 1
    assert comparisons > 1000
    _report(6, f"interval formula matches multigraded homology for paths "
               f"n=3..8 ({comparisons} exact comparisons)")


def test_criterion_7_path_groebner_certification():
    for n in range(3, 9):
        ring, cert = path_certify(n, d_max=5)
        assert cert.verdict.status == "STRAND-KOSZUL", n
        assert cert.data["relations_vanish"], n           # G maps into the ideal
        assert cert.certification.passed, n
        # independent route: reduced-word counts against linear-algebra dims
        H = homology(ring, n, n)
        strand_dims = {0: 1}
        for (i, j), d in H.dims().items():
            if (i, j) != (0, 0):
                strand_dims[j - i] = strand_dims.get(j - i, 0) + d
        system = ReductionSystem(cert.presentation.algebra,
                                 cert.presentation.relations)
        against_homology = certify_groebner_by_dims(system, strand_dims, 5)
        assert against_homology.passed, n
    _report(7, "ten-type systems are Groebner bases and certify "
               "STRAND-KOSZUL for paths n=3..8 (counts match homology)")


def test_criterion_8_family_agreement():
    agreements = []

    def check(ring, family_verdict, j_max, label):
        H = homology(ring, ring.n, j_max)
        generic = is_strand_koszul_up_to(H, 3, j_max, trigraded=True)
        assert family_verdict == "STRAND-KOSZUL", label
        assert generic.status == "STRAND-KOSZUL-UP-TO-BOUND", label
        agreements.append(label)

    for c, names in ((1, ["x"]), (2, ["x", "y"]), (3, ["x", "y", "z"])):
        quadrics = [parse_polynomial(f"{v}^2", names) for v in names]
        ring, cert = build_quadratic_ci(c, quadrics, QQ, names)
        check(ring, cert.verdict.status, 2 * c + 2, f"ci c={c}")

    gorenstein_cases = [
        (["x", "y"], ["x^2", "y^2"]),
        (["x", "y", "z"], ["x*y", "x*z", "y*z", "x^2 - y^2", "x^2 - z^2"]),
        (["x", "y", "z", "w"],
         ["x*y", "x*z", "x*w", "y*z", "y*w", "z*w",
          "x^2 - y^2", "x^2 - z^2", "x^2 - w^2"]),
    ]
    for names, rels in gorenstein_cases:
        ring = ring_from_strings(names, rels)
        cert = short_gorenstein_certify(ring)
        check(ring, cert.verdict.status, len(names) + 3,
              f"gorenstein n={len(names)}")

    three_rel_cases = [
        (["x", "y"], ["x^2", "x*y", "y^2"]),
        (["x", "y", "z"], ["x^2", "x*y", "x*z"]),
        (["x", "y", "z"], ["x^2", "y^2", "z^2"]),
        (["x", "y", "z"], ["x^2", "x*y", "z^2"]),
    ]
    for names, rels in three_rel_cases:
        ring = ring_from_strings(names, rels)
        cert = three_relation_certify(ring)
        check(ring, cert.verdict.status, 7, f"three-rel {cert.data['table']}")

    _report(8, f"family certificates match the generic bounded verdict on "
               f"{len(agreements)} rings: {', '.join(agreements)}")


def test_criterion_9_golod_koszul_strand():
    ring = ring_from_strings(["x", "y"], ["x^2", "x*y", "y^2"])
    golod = check_golod(ring, 4, 6)
    assert golod.status == "GOLOD-UP-TO-BOUND"
    koszul = is_koszul_up_to(ring_algebra_data(ring, 6), 4, 6)
    assert koszul.status == "KOSZUL-UP-TO-BOUND"
    H = homology(ring, 2, 6)
    strand = is_strand_koszul_up_to(H, 4, 6, trigraded=True)
    assert strand.status == "STRAND-KOSZUL-UP-TO-BOUND"
    _report(9, "k[x,y]/(x^2,xy,y^2) is Golod, Koszul, and strand-Koszul "
               "up to p <= 4")


def test_criterion_10_property_suites():
    rings = suite_rings()
    for name, ring in sorted(rings.items()):
        # differential squares to zero
        for j in range(4):
            for i in range(1, min(j, ring.n) + 1):
                for v, w in koszul_basis(ring, i, j):
                    once = differential(ring, {(v, w): QQ(1)})
                    assert differential(ring, once) == {}, name
        # rank-nullity on a differential slice
        basis = koszul_basis(ring, 1, 2)
        below = {b: k for k, b in enumerate(koszul_basis(ring, 0, 2))}
        from koszul.homology import differential_of_basis
        cols = [{below[key]: c for key, c in
                 differential_of_basis(ring, v, w).items()}
                for v, w in basis]
        rank, kernel = kernel_of_columns(cols, QQ)
        assert rank + len(kernel) == len(cols), name
        # graded commutativity
        H = homology(ring, ring.n, 4)
        classes = [h for j in range(1, 5)
                   for i in range(1, min(j, ring.n) + 1)
                   for h in H.basis(i, j)]
        for h1 in classes[:6]:
            for h2 in classes[:6]:
                if h1.j + h2.j <= 4:
                    sign = (-1) ** (h1.i * h2.i)
                    assert H.product_coords(h1, h2) == {
                        k: sign * v
                        for k, v in H.product_coords(h2, h1).items()}, name
        # bar differential squares to zero
        A = ring_algebra_data(ring, 4)
        eng = BarEngine(A)
        for p in range(2, 4):
            for q in range(p, 5):
                assert d_squared_is_zero(eng, p, (q,)), name
        # strand consistency
        j_max = 2 * ring.n + 2
        Hs = homology(ring, ring.n, j_max)
        tri = trigraded_betti(Hs, 2, j_max, engine="resolution")
        strand = betti_table(strand_totalize(Hs), 2, 2, engine="resolution")
        for p in range(3):
            for q in range(3):
                total = sum(v for (pp, i, j), v in tri.items()
                            if pp == p and j - i == q)
                assert total == strand.get(p, (q,)), (name, p, q)
        # shape estimate
        if any((i, j) != (0, 0) for (i, j) in Hs.dims()):
            report = shape_check(Hs.algebra_data("bigraded"), 2, j_max)
            assert report.status == "PASS", name
    _report(10, f"property suites (d^2=0, rank-nullity, graded "
                f"commutativity, bar d^2=0, strand consistency, shape) "
                f"pass on {len(rings)} rings")
