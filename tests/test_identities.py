from math import comb

import pytest

from koszul import QuotientRing
from koszul.families import build_path_ring
from koszul.homology import homology
from koszul.identities import (check_golod, check_hilbert_identity,
                               check_low_degree_betti, check_prop_2_5,
                               check_quasi_formal, check_theorem_A,
                               check_theorem_B, homology_poincare_sst,
                               ring_poincare)

from conftest import make_63ne, ring_from_strings, suite_rings


def test_theorem_A_polynomial_ring():
    report = check_theorem_A(QuotientRing(2, []), 6)
    assert report.passed
    assert report.data["koszul_R"] and report.data["koszul_K"]


def test_theorem_A_63ne(ring_63ne):
    report = check_theorem_A(ring_63ne, 8)
    assert report.passed
    assert report.data["koszul_R"]


def test_theorem_A_cubic(ring_x3):
    report = check_theorem_A(ring_x3, 8)
    assert report.passed
    assert not report.data["koszul_R"] and not report.data["koszul_K"]


def test_hilbert_identity_closed_forms(ring_x2):
    # (1 + t)(1 - t) sum t^{2i} = 1
    report = check_hilbert_identity(ring_x2, 6)
    assert report.passed
    poly = QuotientRing(3, [])
    assert check_hilbert_identity(poly, 6).passed
    path3 = build_path_ring(3)
    assert check_hilbert_identity(path3, 6).passed


def test_low_degree_betti_m2zero(ring_m2zero):
    report = check_low_degree_betti(ring_m2zero, 6)
    assert report.passed
    # beta^R_{2,2} = C(2,2) + beta^H_{1,1,2} = 1 + 3
    first = next(e for e in report.data["equalities"] if e[0] == ["2,2"])
    assert first[1] == first[2] == 4


def test_low_degree_betti_ci(ring_ci_xy):
    report = check_low_degree_betti(ring_ci_xy, 6)
    assert report.passed
    # beta^R_{2,2} = 3 = C(2,2) + beta^H_{1,1,2} = 1 + 2
    first = next(e for e in report.data["equalities"] if e[0] == ["2,2"])
    assert first[1] == first[2] == 3


def test_low_degree_betti_polynomial_ring():
    ring = QuotientRing(3, [])
    report = check_low_degree_betti(ring, 6)
    assert report.passed
    first = next(e for e in report.data["equalities"] if e[0] == ["2,2"])
    assert first[1] == comb(3, 2)


def test_quasi_formal_small_codepth(suite):
    # embedding dimension <= 3 forces quasi-formality (depth argument)
    for name in ("poly1", "poly2", "x2", "x3", "path3", "ci_xy"):
        verdict = check_quasi_formal(suite[name], 4, 6)
        assert verdict.status == "QUASI-FORMAL-UP-TO-BOUND", name


def test_quasi_formal_63ne_fails(ring_63ne):
    verdict = check_quasi_formal(ring_63ne, 7, 8)
    assert verdict.status == "NOT-QUASI-FORMAL"
    assert verdict.witness == (7, 8)
    assert verdict.details["beta_K"] < verdict.details["spectral_bound"]


def test_theorem_B_quadratic_ci(ring_ci_xy):
    report = check_theorem_B(ring_ci_xy, 4, 6)
    assert report.passed
    assert all(report.data["statements"].values())
    assert report.data["series_equalities"]


def test_theorem_B_63ne(ring_63ne):
    report = check_theorem_B(ring_63ne, 7, 8)
    assert report.passed  # all three statements false, so they agree
    assert not any(report.data["statements"].values())
    assert report.data["strand_witness"] is not None


def test_theorem_B_computes_P_R_once(ring_63ne, monkeypatch):
    import koszul.identities as identities
    calls = []
    original = identities.ring_poincare

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(identities, "ring_poincare", counted)
    report = check_theorem_B(ring_63ne, 5, 6)
    assert calls == [(5, 6)]
    assert report.passed
    # a supplied series gives the verdict computed from scratch
    P_R = original(ring_63ne, 5, 6)
    assert (check_quasi_formal(ring_63ne, 5, 6, P_R=P_R).to_json()
            == check_quasi_formal(ring_63ne, 5, 6).to_json())


def test_theorem_B_builds_each_betti_table_once(ring_63ne, monkeypatch):
    import koszul.betti as betti
    import koszul.identities as identities
    calls = []
    original = betti.betti_table

    def counted(A, *args, **kwargs):
        # grades are (d,) on the data of R and (i, j) on the data of H
        calls.append((len(next(iter(A.components))), args))
        return original(A, *args, **kwargs)

    monkeypatch.setattr(betti, "betti_table", counted)
    monkeypatch.setattr(identities, "betti_table", counted)
    report = check_theorem_B(ring_63ne, 7, 7)
    assert sorted(calls) == [(1, (7, 7)), (2, (7, 7))]
    assert report.passed
    monkeypatch.undo()
    assert report.to_json() == check_theorem_B(ring_63ne, 7, 7).to_json()


def test_theorem_B_cubic(ring_x3):
    report = check_theorem_B(ring_x3, 4, 6)
    assert report.passed
    assert not any(report.data["statements"].values())


def test_golod_m2zero(ring_m2zero):
    assert check_golod(ring_m2zero, 4, 6).status == "GOLOD-UP-TO-BOUND"


def test_golod_polynomial_ring():
    assert check_golod(QuotientRing(2, []), 4, 4).status == "GOLOD-UP-TO-BOUND"


def test_golod_ci_fails(ring_ci_xy):
    verdict = check_golod(ring_ci_xy, 4, 6)
    assert verdict.status == "NOT-GOLOD"
    assert verdict.witness == (3, 4)


def test_prop_2_5_trivial():
    # H = k: both sides are (1 + st)^n
    ring = QuotientRing(2, [])
    H = homology(ring, 2, 5)
    assert check_prop_2_5(H, 2, 3, 5).passed


def test_prop_2_5_hypersurface_and_path():
    ring = ring_from_strings(["x"], ["x^2"])
    H = homology(ring, 1, 6)
    assert check_prop_2_5(H, 1, 3, 6).passed
    path3 = build_path_ring(3)
    H3 = homology(path3, 3, 6)
    assert check_prop_2_5(H3, 3, 3, 6).passed


def test_poincare_region_consistency(ring_63ne):
    # P^H(s,s,t) assembled from the trigraded table matches hand-summation
    H = homology(ring_63ne, 4, 6)
    P = homology_poincare_sst(H, 3, 6)
    from koszul.betti import trigraded_betti
    tri = trigraded_betti(H, 3, 6)
    for (m, j), v in P.coeffs.items():
        assert v == sum(val for (p, i, jj), val in tri.items()
                        if p + i == m and jj == j)
