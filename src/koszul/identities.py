"""Series identities and Betti-number relations connecting R, K, and H.

Every check is an exact integer comparison: reports carry a PASS/FAIL status,
the bound they were run at, and the first failing coefficient if any.  The
Betti numbers over the Koszul complex K are never computed directly; they are
defined operationally by exact division of the ring-level Poincare series by
(1 + st)^n, which also serves as a built-in consistency check (division must
be exact with nonnegative quotients).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import comb

from .betti import (Verdict, betti_table, is_strand_koszul_up_to,
                    poincare_K_from_R, trigraded_betti)
from .graded import ring_algebra_data
from .homology import KoszulHomologyAlgebra, homology
from .polyring import QuotientRing
from .series import (SeriesTrunc, region_rect, univariate,
                     univariate_binomial, univariate_mul)


@dataclass
class CheckReport:
    """Outcome of one identity check."""

    name: str
    status: str
    bound: dict
    first_failure: tuple | None = None
    data: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "bound": self.bound,
                "first_failure": (list(self.first_failure)
                                  if self.first_failure else None),
                "data": {str(k): v for k, v in self.data.items()}}


def ring_poincare(R: QuotientRing, p_max: int, j_max: int,
                  engine: str = "auto", total_bound: int | None = None) -> SeriesTrunc:
    """P^R_k(s, t) as an exact truncation."""
    A = ring_algebra_data(R, j_max)
    table = betti_table(A, p_max, j_max, engine=engine, total_bound=total_bound)
    return table.series()


def homology_poincare_sst(H: KoszulHomologyAlgebra, p_max: int, j_max: int,
                          engine: str = "auto", tri: dict | None = None) -> SeriesTrunc:
    """P^H_k(s, s, t): trigraded series with both homological variables merged.

    Valid for s-exponents m <= p_max: every contribution to s^m has bar index
    p <= m, and all of those are inside the computed table.  ``tri``, when
    given, must be ``trigraded_betti(H, p_max, j_max)``.
    """
    if tri is None:
        tri = trigraded_betti(H, p_max, j_max, engine=engine)
    coeffs: dict = {}
    for (p, i, j), v in tri.items():
        key = (p + i, j)
        coeffs[key] = coeffs.get(key, 0) + v
    region = region_rect(p_max, j_max)
    return SeriesTrunc({k: v for k, v in coeffs.items() if k in region},
                       region, check=False)


def homology_q_betti_series(H: KoszulHomologyAlgebra, j_max: int) -> SeriesTrunc:
    """P^Q_R(s, t) = sum dim H_{ij} s^i t^j: the Betti table of R over the
    polynomial ring, read off the Koszul homology."""
    coeffs = {(i, j): d for (i, j), d in H.dims().items() if j <= j_max}
    return SeriesTrunc(coeffs, region_rect(H.ring.n, j_max), check=False)


def check_theorem_A(R: QuotientRing, bound: int, engine: str = "auto") -> CheckReport:
    """P^R = (1 + st)^n * P^K coefficientwise up to total degree ``bound``,
    with matching Koszulness verdicts for R and K."""
    P_R = ring_poincare(R, bound, bound, engine=engine, total_bound=bound)
    P_K = poincare_K_from_R(P_R, R.n)  # raises on divisibility failure
    product = SeriesTrunc.binomial_power(R.n, P_R.region) * P_K
    diff = product.first_difference(P_R)
    koszul_R = all(p == q or v == 0 for (p, q), v in P_R.coeffs.items())
    koszul_K = all(p == q or v == 0 for (p, q), v in P_K.coeffs.items())
    status = "PASS" if diff is None and koszul_R == koszul_K else "FAIL"
    return CheckReport(
        "theorem-a", status, {"total_degree": bound}, first_failure=diff,
        data={"koszul_R": koszul_R, "koszul_K": koszul_K,
              "P_R": sorted(P_R.coeffs.items()),
              "P_K": sorted(P_K.coeffs.items())})


def check_hilbert_identity(R: QuotientRing, D: int, engine: str = "auto") -> CheckReport:
    """H_R(t) * (1 - t)^n * P^K(-1, t) = 1 + O(t^{D+1})."""
    P_R = ring_poincare(R, D, D, engine=engine)
    P_K = poincare_K_from_R(P_R, R.n)
    pk_at_minus1 = P_K.eval_first_at_minus_one(D)
    h = univariate(R.hilbert_coeffs(D), D)
    product = univariate_mul(univariate_mul(h, univariate_binomial(R.n, -1, D), D),
                             pk_at_minus1, D)
    expected = [1] + [0] * D
    failure = next(((j,) for j in range(D + 1) if product[j] != expected[j]), None)
    return CheckReport(
        "hilbert-identity", "PASS" if failure is None else "FAIL",
        {"t_degree": D}, first_failure=failure,
        data={"product": product, "hilbert": h, "P_K_at_minus_one": pk_at_minus1})


def check_low_degree_betti(R: QuotientRing, j_max: int,
                           engine: str = "auto") -> CheckReport:
    """The four low-degree relations between beta^R and trigraded beta^H.

    Both sides come from independent routes: Tor over R versus Tor over H
    (plus binomials in the embedding dimension), each from ``engine``.
    """
    n = R.n
    A = ring_algebra_data(R, j_max)
    tR = betti_table(A, 4, j_max, engine=engine)
    tri = trigraded_betti(homology(R, n, j_max), 2, j_max, engine=engine)

    def bR(p, j):
        return tR.get(p, (j,))

    def bH(p, i, j):
        return tri.get((p, i, j), 0) if j >= 0 else 0

    checks = []
    if j_max >= 2:
        checks.append((("2,2",), bR(2, 2), comb(n, 2) + bH(1, 1, 2)))
    for j in range(3, j_max + 1):
        checks.append((("2", j), bR(2, j), bH(1, 1, j)))
    for j in range(4, j_max + 1):
        checks.append((("3", j), bR(3, j), bH(1, 2, j) + n * bH(1, 1, j - 1)))
    for j in range(5, j_max + 1):
        checks.append((("4", j), bR(4, j),
                       bH(1, 3, j) + n * bH(1, 2, j - 1)
                       + comb(n, 2) * bH(1, 1, j - 2) + bH(2, 2, j)))
    failure = next((tag for tag, lhs, rhs in checks if lhs != rhs), None)
    return CheckReport(
        "low-degree-betti", "PASS" if failure is None else "FAIL",
        {"j_max": j_max}, first_failure=failure,
        data={"equalities": [(list(tag), lhs, rhs) for tag, lhs, rhs in checks]})


def check_quasi_formal(R: QuotientRing, m_max: int, j_max: int,
                       engine: str = "auto",
                       P_R: SeriesTrunc | None = None,
                       P_H: SeriesTrunc | None = None) -> Verdict:
    """Quasi-formality of K, decided coefficientwise.

    Equality beta^K_{mj} = sum_{p+q=m} beta^H_{pqj} within the bound gives the
    bounded positive verdict; a strict deficit at one coefficient is an
    unconditional negative certificate.  An excess is impossible and raises.
    ``P_R``, when given, must be ``ring_poincare(R, m_max, j_max)``, and
    ``P_H``, when given, ``homology_poincare_sst(H, m_max, j_max)``.
    """
    if P_R is None:
        P_R = ring_poincare(R, m_max, j_max, engine=engine)
    P_K = poincare_K_from_R(P_R, R.n)
    if P_H is None:
        P_H = homology_poincare_sst(homology(R, R.n, j_max), m_max, j_max,
                                    engine=engine)
    bound = {"m_max": m_max, "j_max": j_max}
    for key in sorted(P_K.region & P_H.region, key=lambda k: (sum(k), k)):
        lhs = P_K.coeffs.get(key, 0)
        rhs = P_H.coeffs.get(key, 0)
        if lhs > rhs:
            raise ValueError(f"beta^K exceeds the spectral bound at {key}: "
                             f"{lhs} > {rhs} (computation inconsistent)")
        if lhs < rhs:
            return Verdict("NOT-QUASI-FORMAL", bound, witness=key,
                           details={"beta_K": lhs, "spectral_bound": rhs})
    return Verdict("QUASI-FORMAL-UP-TO-BOUND", bound)


def check_theorem_B(R: QuotientRing, p_max: int, j_max: int,
                    engine: str = "auto") -> CheckReport:
    """Equivalence of the three computable Koszulness statements, plus the
    series equalities when they hold.

    Statement (4) (an Eilenberg-Moore filtration on the minimal resolution)
    is not represented; it is equivalent to the others by the theorem.
    """
    H = homology(R, R.n, j_max)
    # the trigraded Betti table of H is built once and read three times
    tri = trigraded_betti(H, p_max, j_max, engine=engine)
    s1 = is_strand_koszul_up_to(H, p_max, j_max, trigraded=True, engine=engine, tri=tri)
    P_H = homology_poincare_sst(H, p_max, j_max, tri=tri)
    P_R = ring_poincare(R, p_max, j_max, engine=engine)
    P_K = poincare_K_from_R(P_R, R.n)
    koszul_K = all(p == q or v == 0 for (p, q), v in P_K.coeffs.items())
    koszul_R = all(p == q or v == 0 for (p, q), v in P_R.coeffs.items())
    qf = check_quasi_formal(R, p_max, j_max, engine=engine, P_R=P_R, P_H=P_H)
    statements = {
        "1_strand_koszul_H": s1.positive,
        "2_K_koszul_and_quasiformal": koszul_K and qf.positive,
        "3_R_koszul_and_quasiformal": koszul_R and qf.positive,
    }
    values = set(statements.values())
    data = {"statements": statements,
            "strand_witness": list(s1.witness) if s1.witness else None,
            "quasi_formal_witness": list(qf.witness) if qf.witness else None}
    if len(values) > 1:
        return CheckReport("theorem-b", "LOGIC-FAILURE",
                           {"p_max": p_max, "j_max": j_max}, data=data)
    if values == {True}:
        d1 = P_K.first_difference(P_H)
        prod = SeriesTrunc.binomial_power(R.n, P_H.region) * P_H
        d2 = prod.first_difference(P_R)
        data["series_equalities"] = d1 is None and d2 is None
        if d1 is not None or d2 is not None:
            return CheckReport("theorem-b", "FAIL", {"p_max": p_max, "j_max": j_max},
                               first_failure=d1 or d2, data=data)
    return CheckReport("theorem-b", "PASS", {"p_max": p_max, "j_max": j_max},
                       data=data)


def check_golod(R: QuotientRing, p_max: int, j_max: int,
                engine: str = "auto") -> Verdict:
    """Golodness: P^R attains (1+st)^n / (1 - s(P^Q_R - 1)) coefficientwise.

    The homological variable multiplies the shifted numerator (each bar factor
    raises homological degree by one more than its own); a strict deficit
    certifies NOT-GOLOD unconditionally, an excess is impossible.
    """
    H = homology(R, R.n, j_max)
    P_R = ring_poincare(R, p_max, j_max, engine=engine)
    region = P_R.region
    q_series = homology_q_betti_series(H, j_max)
    denom = {(0, 0): 1}
    for (i, j), v in q_series.coeffs.items():
        if (i, j) == (0, 0):
            continue
        if (i + 1, j) in region:
            denom[(i + 1, j)] = denom.get((i + 1, j), 0) - v
    closed = SeriesTrunc.binomial_power(R.n, region).divide_exact(
        SeriesTrunc(denom, region, check=False))
    bound = {"p_max": p_max, "j_max": j_max}
    for key in sorted(region, key=lambda k: (sum(k), k)):
        lhs = P_R.coeffs.get(key, 0)
        rhs = closed.coeffs.get(key, 0)
        if lhs > rhs:
            raise ValueError(f"P^R exceeds the Golod bound at {key} "
                             f"(computation inconsistent)")
        if lhs < rhs:
            return Verdict("NOT-GOLOD", bound, witness=key,
                           details={"P_R": lhs, "golod_bound": rhs})
    return Verdict("GOLOD-UP-TO-BOUND", bound)


def check_prop_2_5(H: KoszulHomologyAlgebra, n: int, p_max: int, j_max: int,
                   engine: str = "auto") -> CheckReport:
    """The diagonal-coefficients identity
    P^H_{Tor^Q(k,k)}(s,s,t) = (1+st)^n P^H_k(s,s,t), with the left side
    assembled from the direct-sum decomposition of Tor over the diagonal."""
    tri = trigraded_betti(H, p_max, j_max, engine=engine)
    region = region_rect(p_max, j_max)
    lhs: dict = {}
    for (p, q, j), v in tri.items():
        # Tor^H_p(k, Tor^Q)_{q+i, j+i} receives C(n, i) copies of beta_{p,q,j}
        for i in range(n + 1):
            key = (p + q + i, j + i)
            if key in region:
                lhs[key] = lhs.get(key, 0) + comb(n, i) * v
    lhs_series = SeriesTrunc(lhs, region, check=False)
    rhs = SeriesTrunc.binomial_power(n, region) * homology_poincare_sst(
        H, p_max, j_max, tri=tri)
    # completeness of the collapsed s-exponent only reaches p_max
    small = region_rect(p_max, j_max)
    diff = lhs_series.restrict(small).first_difference(rhs.restrict(small))
    return CheckReport("prop-2-5", "PASS" if diff is None else "FAIL",
                       {"p_max": p_max, "j_max": j_max}, first_failure=diff)
