"""Builders and certifiers for the families with strand-Koszul Koszul homology:
quadratic complete intersections, short Gorenstein rings, three-relation
Koszul algebras, and path (and cycle) edge ideals.

Each certifier builds the explicit generators of the homology algebra the
family theory predicts, verifies them against the computed homology, emits
the corresponding quadratic rewriting system for the strand totalization,
checks its elements really die in homology, and certifies the Groebner
property by dimension counting per strand degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from math import comb

from .betti import Verdict
from .fields import QQ, Field, InputError
from .freealg import (Certification, FreeAlgebra, NCPresentation,
                      ReductionSystem, certify_groebner_by_dims)
from .homology import KoszulHomologyAlgebra, differential, homology
from .polyring import QuotientRing, ci_series
from .sparse import (SparseMatrix, diagonalize_symmetric_form, kernel_of_columns,
                     rank_of_columns, solve_in_image, symplectic_basis)


# ---------------------------------------------------------------------------
# multidegree combinatorics for edge ideals of paths

@dataclass(frozen=True)
class PathDecomposition:
    """A squarefree multidegree as a gap-separated sum of intervals.

    Segments are (start, length) with 1-based starts, ascending, and at least
    one gap between consecutive segments.
    """

    segments: tuple

    def multidegree(self, n: int) -> tuple:
        u = [0] * n
        for start, length in self.segments:
            for k in range(start - 1, start - 1 + length):
                u[k] = 1
        return tuple(u)


def complete_decomposition(u) -> PathDecomposition:
    """Maximal-support interval decomposition of a squarefree multidegree."""
    u = tuple(u)
    if any(e not in (0, 1) for e in u):
        raise ValueError("multidegree is not squarefree")
    if not any(u):
        raise ValueError("multidegree is zero")
    segments = []
    k = 0
    n = len(u)
    while k < n:
        if u[k]:
            start = k
            while k < n and u[k]:
                k += 1
            segments.append((start + 1, k - start))
        else:
            k += 1
    return PathDecomposition(tuple(segments))


def boocher_dim(u):
    """Total multigraded homology dimension of a path ring at u: 0 or 1,
    with the homological degree carrying the dimension when it is 1."""
    u = tuple(u)
    if any(e not in (0, 1) for e in u):
        raise ValueError("multidegree is not squarefree")
    if not any(u):
        return 1, 0
    decomposition = complete_decomposition(u)
    if any(r % 3 == 1 for _, r in decomposition.segments):
        return 0, None
    return 1, sum((2 * r) // 3 for _, r in decomposition.segments)


def build_path_ring(n: int, field: Field = QQ) -> QuotientRing:
    """k[x1..xn] modulo the edge ideal of the path x1-x2-...-xn."""
    if n < 3:
        raise ValueError("paths need at least 3 vertices")
    rels = []
    for k in range(n - 1):
        m = [0] * n
        m[k] += 1
        m[k + 1] += 1
        rels.append({tuple(m): 1})
    return QuotientRing(n, rels, field)


def build_cycle_ring(n: int, field: Field = QQ) -> QuotientRing:
    """k[x1..xn] modulo the edge ideal of the n-cycle."""
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    rels = []
    for k in range(n):
        m = [0] * n
        m[k] += 1
        m[(k + 1) % n] += 1
        rels.append({tuple(m): 1})
    return QuotientRing(n, rels, field)


# ---------------------------------------------------------------------------
# shared helpers

def _vec_product(H: KoszulHomologyAlgebra, b1, vec1: dict, b2, vec2: dict) -> dict:
    """Product of two coordinate vectors, keyed by class index at bidegrees b1, b2."""
    return H.field.collect(
        (x, c1 * c2 * c) for a, c1 in vec1.items() for b, c2 in vec2.items()
        for x, c in H.product_coords(H.klass(*b1, a), H.klass(*b2, b)).items())


def _evaluate_word(H, gen_info, word: tuple) -> tuple:
    """Evaluate a word of generators; returns (bidegree, coords dict)."""
    bideg = None
    vec = None
    for idx in word:
        gb, gvec = gen_info[idx]
        if vec is None:
            bideg, vec = gb, dict(gvec)
        else:
            target = (bideg[0] + gb[0], bideg[1] + gb[1])
            if target[0] > H.ring.n:
                return target, {}
            vec = _vec_product(H, bideg, vec, gb, gvec)
            bideg = target
        if not vec:
            return bideg, {}
    return bideg, vec


def _relations_vanish(H, gen_info, relations) -> list:
    """Indices of relations whose evaluation in H is nonzero (should be [])."""
    return [k for k, rel in enumerate(relations)
            if H.field.collect((x, coeff * c) for word, coeff in rel.items()
                               for x, c in _evaluate_word(H, gen_info, word)[1].items())]


def _strand_dims(H: KoszulHomologyAlgebra, d_max: int) -> dict:
    out = {0: 1}
    for (i, j), d in H.dims().items():
        if (i, j) == (0, 0):
            continue
        q = j - i
        if q <= d_max:
            out[q] = out.get(q, 0) + d
    return out


@dataclass
class FamilyCertificate:
    """Everything a family certification produced, ready for reporting."""

    family: str
    verdict: Verdict
    presentation: NCPresentation | None
    certification: Certification | None
    data: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"family": self.family, "verdict": self.verdict.to_json(),
               "data": {str(k): v for k, v in self.data.items()}}
        if self.presentation is not None:
            out["generators"] = list(self.presentation.algebra.names)
            out["rewriting_system"] = self.presentation.relation_strings()
        if self.certification is not None:
            out["dimension_counts"] = {
                str(d): [self.certification.counts[d],
                         self.certification.targets.get(d, 0)]
                for d in sorted(self.certification.counts)}
        return out


def _certificate(family, H, names, gen_info, relations, targets, d_max, bound,
                 data, ok=True):
    """The ending every certifier shares: the relations must vanish in H, and
    their rewriting system on the degree-1 generators ``names`` (evaluated as
    ``gen_info``) must meet the strand dimensions ``targets`` up to ``d_max``.

    Sets ``data["relations_vanish"]``; ``ok`` carries the certifier's own
    checks.  Returns (FamilyCertificate, ReductionSystem).
    """
    algebra = FreeAlgebra(names, [1] * len(names), H.field)
    data["relations_vanish"] = not _relations_vanish(H, gen_info, relations)
    system = ReductionSystem(algebra, relations)
    cert = certify_groebner_by_dims(system, targets, d_max)
    ok = ok and data["relations_vanish"] and cert.passed
    verdict = Verdict("STRAND-KOSZUL" if ok else "INCONSISTENT", bound)
    return FamilyCertificate(family, verdict,
                             NCPresentation(algebra, names, relations),
                             cert, data), system


# ---------------------------------------------------------------------------
# quadratic complete intersections

def build_quadratic_ci(n: int, quadrics, field: Field = QQ, names=None):
    """Quotient by a quadric regular sequence, with the full homology check.

    Verifies regularity through the Hilbert series, builds the linear cycles
    coming from the quadrics, checks they generate an exterior algebra of the
    right size, and certifies strand-Koszulness by a quadratic rewriting
    system.  Returns (ring, FamilyCertificate).
    """
    for k, quadric in enumerate(quadrics):
        if {sum(mono) for mono, c in quadric.items() if c} != {2}:
            raise InputError(f"quadric {k + 1} is not a nonzero homogeneous quadric")
    ring = QuotientRing(n, quadrics, field, names)
    c = len(ring.relations)
    depth_check = 2 * c + 2
    expected = ci_series([2] * c, n, depth_check)
    actual = ring.hilbert_coeffs(depth_check)
    for d, (a, b) in enumerate(zip(actual, expected)):
        if a != b:
            raise InputError(
                f"not a regular sequence: Hilbert coefficient {a} != {b} "
                f"in degree {d}")
    # the square relation z1*z1 is evaluated at bidegree (2, 4), also for c = 1
    H = homology(ring, n, max(2 * c, 4))
    field = ring.field
    # cycles sum(lambda_hij x_i t_j) for each quadric sum(lambda_hij X_i X_j)
    cycle_elements = []
    for rel in ring.relations:
        terms = []
        for mono, coeff in rel.items():
            support = [k for k, e in enumerate(mono) if e]
            if len(support) == 1:
                i = j = support[0]
            else:
                i, j = support
            xi = tuple(1 if k == i else 0 for k in range(n))
            terms.append(((xi, (j,)), coeff))
        cycle_elements.append(field.collect(terms))
    for z in cycle_elements:
        if differential(ring, z):
            raise ValueError("complete-intersection cycle failed to be a cycle")
    coords = [H.coords_of_cycle(1, 2, z) for z in cycle_elements]
    if H.dim(1, 2) != c or rank_of_columns(coords, field) != c:
        raise ValueError("quadric cycles do not span the linear homology")
    gen_info = [((1, 2), vec) for vec in coords]
    # dims must match the exterior algebra
    dims_ok = all(H.dim(i, j) == (comb(c, i) if j == 2 * i else 0)
                  for j in range(1, 2 * c + 1) for i in range(1, min(j, n) + 1))
    # products of the generators stay independent: exterior generation
    generation_ok = True
    for size in range(2, c + 1):
        vectors = []
        for subset in itertools.combinations(range(c), size):
            _, vec = _evaluate_word(H, gen_info, subset)
            vectors.append(vec)
        if rank_of_columns(vectors, field) != comb(c, size):
            generation_ok = False
    relations = [{(a, a): field.one} for a in range(c)]
    relations += [{(b, a): field.one, (a, b): field.one}
                  for a in range(c) for b in range(a + 1, c)]
    data = {"codimension": c, "dims_exterior": dims_ok, "generation": generation_ok}
    cert, _ = _certificate("quadratic-ci", H, [f"z{k+1}" for k in range(c)],
                           gen_info, relations, _strand_dims(H, c), c + 1,
                           {"c": c, "j_max": 2 * c}, data,
                           ok=dims_ok and generation_ok)
    return ring, cert


# ---------------------------------------------------------------------------
# short Gorenstein rings (socle degree 2)

def short_gorenstein_certify(R: QuotientRing):
    """Certify strand-Koszulness of an artinian Gorenstein ring of socle
    degree 2 via Poincare duality and an explicit quadratic rewriting system.

    Needs embedding dimension >= 2, and characteristic != 2 unless it is odd.
    Returns the FamilyCertificate.
    """
    n = R.n
    field = R.field
    if field.characteristic == 2 and n % 2 == 0:
        raise InputError("characteristic 2 needs odd embedding dimension")
    hilbert = R.hilbert_coeffs(3)
    if hilbert != [1, n, 1, 0]:
        raise InputError(f"not a short Gorenstein ring: Hilbert {hilbert}")
    if n < 2:
        raise InputError(f"the certificate needs embedding dimension >= 2, got {n}")
    H = homology(R, n, n + 2)
    dims = H.dims()
    if dims.get((n, n + 2), 0) != 1:
        raise InputError("socle homology is not one-dimensional")
    for (i, j), d in dims.items():
        expected = (i, j) in ((0, 0), (n, n + 2)) or j == i + 1
        if d and not expected:
            raise InputError(f"unexpected homology at bidegree {(i, j)}")
    b = {i: dims.get((i, i + 1), 0) for i in range(1, n)}
    if any(b[i] != b[n - i] for i in range(1, n)):
        raise InputError("Betti row is not symmetric")
    sigma = H.basis(n, n + 2)[0]

    def by_index(i, vec):
        # the vectors below are over basis positions of H_{i,i+1}
        basis = H.basis(i, i + 1)
        return {basis[pos].index: c for pos, c in vec.items()}

    def pair_scalar(vec1, i1, vec2, i2):
        out = _vec_product(H, (i1, i1 + 1), by_index(i1, vec1),
                           (i2, i2 + 1), by_index(i2, vec2))
        return out.get(sigma.index, field.zero)

    c = n // 2
    unit = field.one
    gen_names: list = []
    gen_info: list = []
    zeta_ids: dict = {}
    eta_ids: dict = {}
    pairing_matrices: dict = {}
    eta_vectors: dict = {}
    zeta_vectors: dict = {}
    aliased_middle = False
    middle_scalings: list = []
    for i in range(1, c + 1):
        bi = b.get(i, 0)
        # the pairing H_i x H_{n-i} -> H_n on basis positions; for n even and
        # i = n/2 it is a form on one space
        gram = [[pair_scalar({a: unit}, i, {bb: unit}, n - i) for bb in range(bi)]
                for a in range(bi)]
        pairing_matrices[i] = gram
        gmat = SparseMatrix.from_rows(gram, field)
        if i < n - i:
            # the etas are the columns of the inverse pairing matrix
            etas = [solve_in_image(gmat, {s: unit}) for s in range(bi)]
            if None in etas:
                raise ValueError("pairing matrix is singular")
            zeta_vectors[i] = [{a: unit} for a in range(bi)]
            eta_vectors[n - i] = etas
        elif c % 2 == 1:
            # odd middle degree: the form is alternating; use a symplectic basis
            columns = symplectic_basis(gmat).columns()
            zeta_vectors[i], eta_vectors[i] = columns[0::2], columns[1::2]
        else:
            # even middle degree: symmetric form; diagonalize and scale
            zetas = diagonalize_symmetric_form(gmat).columns()
            middle_scalings = [pair_scalar(v, i, v, i) for v in zetas]
            if not all(middle_scalings):
                raise InputError("degenerate middle pairing")
            zeta_vectors[i] = zetas
            eta_vectors[i] = [{k: field.div(vv, d) for k, vv in v.items()}
                              for v, d in zip(zetas, middle_scalings)]
            aliased_middle = True
    # assemble the alphabet: all zetas ascending, then all etas descending block
    for i in sorted(zeta_vectors):
        for jdx, vec in enumerate(zeta_vectors[i]):
            zeta_ids[(i, jdx)] = len(gen_names)
            gen_names.append(f"z{i}_{jdx+1}")
            gen_info.append(((i, i + 1), by_index(i, vec)))
    for i in sorted(eta_vectors):
        if aliased_middle and i == c:
            continue  # middle etas are scalings of the middle zetas
        for jdx, vec in enumerate(eta_vectors[i]):
            eta_ids[(i, jdx)] = len(gen_names)
            gen_names.append(f"w{i}_{jdx+1}")
            gen_info.append(((i, i + 1), by_index(i, vec)))

    # the distinguished pair monomials evaluating to the socle class
    pair_polys = []
    pair_words = set()
    for i in range(1, c + 1):
        if i < n - i:
            for jdx in range(b.get(i, 0)):
                word = (zeta_ids[(i, jdx)], eta_ids[(n - i, jdx)])
                rword = (eta_ids[(n - i, jdx)], zeta_ids[(i, jdx)])
                pair_polys.append({word: field.one})
                pair_words.add(word)
                pair_words.add(rword)
        elif aliased_middle:
            for jdx in range(b.get(i, 0)):
                word = (zeta_ids[(i, jdx)], zeta_ids[(i, jdx)])
                pair_polys.append({word: field.inv(middle_scalings[jdx])})
                pair_words.add(word)
        else:
            for jdx in range(len(zeta_vectors[i])):
                word = (zeta_ids[(i, jdx)], eta_ids[(i, jdx)])
                rword = (eta_ids[(i, jdx)], zeta_ids[(i, jdx)])
                pair_polys.append({word: field.one})
                pair_words.add(word)
                pair_words.add(rword)

    relations = []
    ngens = len(gen_names)
    for a in range(ngens):
        for bb in range(ngens):
            if (a, bb) not in pair_words:
                relations.append({(a, bb): field.one})  # type (1)
    for i in range(1, c + 1):
        sign = field.one if (i * (n - i)) % 2 == 0 else field.neg(field.one)
        if i < n - i:
            for jdx in range(b.get(i, 0)):
                za, wa = zeta_ids[(i, jdx)], eta_ids[(n - i, jdx)]
                relations.append({(wa, za): field.one,
                                  (za, wa): field.neg(sign)})  # type (2)
        elif not aliased_middle:
            for jdx in range(len(zeta_vectors[i])):
                za, wa = zeta_ids[(i, jdx)], eta_ids[(i, jdx)]
                relations.append({(wa, za): field.one,
                                  (za, wa): field.neg(sign)})
    first = pair_polys[0]
    for poly in pair_polys[1:]:  # types (3)-(4)
        relations.append(field.collect(itertools.chain(
            poly.items(), ((w, -cc) for w, cc in first.items()))))

    rel1_ok = _check_duality_relations(pair_scalar, field.one, zeta_vectors,
                                       eta_vectors, n)
    data = {"socle_bidegree": [n, n + 2], "betti_row": [b[i] for i in sorted(b)],
            "duality_relations": rel1_ok,
            "pairing_matrices": {str(i): [[str(v) for v in row] for row in gram]
                                 for i, gram in pairing_matrices.items()}}
    cert, _ = _certificate("short-gorenstein", H, gen_names, gen_info, relations,
                           _strand_dims(H, 4), 4, {"n": n, "j_max": n + 2}, data,
                           ok=rel1_ok)
    return cert


def _check_duality_relations(pair_scalar, one, zeta_vectors, eta_vectors,
                             n) -> bool:
    for i in sorted(zeta_vectors):
        etas = eta_vectors.get(n - i) if i < n - i else eta_vectors.get(i)
        if etas is None:
            return False
        for jdx, z in enumerate(zeta_vectors[i]):
            for ldx, e in enumerate(etas):
                if (jdx == ldx) != (pair_scalar(z, i, e, n - i) == one):
                    return False
    return True


# ---------------------------------------------------------------------------
# Koszul algebras on three relations

THREE_RELATION_TABLES = {
    "top-left": {(1, 1): 3, (2, 1): 2},
    "top-right": {(1, 1): 3, (2, 1): 3, (3, 1): 1},
    "bottom-left": {(1, 1): 3, (2, 2): 3, (3, 3): 1},
    "bottom-right": {(1, 1): 3, (2, 1): 1, (2, 2): 2, (3, 2): 1},
}


def three_relation_certify(R: QuotientRing):
    """Certify strand-Koszulness for a Koszul algebra on three relations.

    Classifies the Betti table of R over the polynomial ring against the four
    possible shapes, then runs the table-specific argument: the top-row tables
    have trivial quadratic structure, the bottom-left is an exterior algebra,
    and the bottom-right needs the explicit degree-2 relation among the
    pairwise products.  Returns the FamilyCertificate; its data names the
    table.
    """
    field = R.field
    n = R.n
    if len(R.relations) != 3:
        raise InputError("need exactly three defining relations")
    H = homology(R, n, 6)
    if H.dim(1, 2) != 3:
        raise InputError("relations are not three independent quadrics")
    table = {}
    for (i, j), d in H.dims().items():
        if (i, j) != (0, 0) and d:
            table[(i, j - i)] = d
    table_id = next((name for name, t in THREE_RELATION_TABLES.items()
                     if t == table), None)
    if table_id is None:
        raise InputError(f"Betti table {sorted(table.items())} matches none of "
                         "the four classified shapes")
    one = field.one
    # class indices of the linear strand H_{1,2}, by basis position
    z = [h.index for h in H.basis(1, 2)]
    bound = {"table": table_id}
    if table_id != "bottom-right":
        gens = [((1, 2), {x: one}) for x in z]
        names = ["z1", "z2", "z3"]
        if table_id == "bottom-left":
            # complete intersection shape: exterior algebra on the linear strand
            relations = [{(k, k): one} for k in range(3)]
            relations += [{(bb, a): one, (a, bb): one}
                          for a in range(3) for bb in range(a + 1, 3)]
            d_max = 4
        else:
            # all of H' in degree 1: every quadratic word is a relation
            for i in range(2, 4):
                if table.get((i, 1), 0):
                    for k, h in enumerate(H.basis(i, i + 1)):
                        gens.append(((i, i + 1), {h.index: one}))
                        names.append(f"y{i}_{k+1}")
            relations = [{(a, bb): one} for a in range(len(names))
                         for bb in range(len(names))]
            d_max = 3
        cert, _ = _certificate("three-relation", H, names, gens, relations,
                               _strand_dims(H, 4), d_max, bound, dict(bound))
        return cert

    # bottom-right: extract zeta_1, zeta_2, zeta_3, eta with zeta_1 eta = sigma
    eta_vec = {H.basis(2, 3)[0].index: field.one}
    socle = H.basis(3, 5)[0].index
    mult_to_socle = []
    for a in range(3):
        out = _vec_product(H, (1, 2), {z[a]: field.one}, (2, 3), eta_vec)
        mult_to_socle.append(out.get(socle, field.zero))
    pivot = next((a for a in range(3) if mult_to_socle[a]), None)
    if pivot is None:
        raise ValueError("linear strand does not multiply onto the socle")
    zeta1 = {z[pivot]: field.inv(mult_to_socle[pivot])}
    kernel = []
    for a in range(3):
        if a == pivot:
            continue
        # subtract the socle component to land in the kernel
        vec = {z[a]: field.one}
        coeff = mult_to_socle[a]
        if coeff:
            vec[z[pivot]] = field.neg(field.mul(
                coeff, field.inv(mult_to_socle[pivot])))
        kernel.append(vec)
    zeta2, zeta3 = kernel
    gens = [((1, 2), zeta1), ((1, 2), zeta2), ((1, 2), zeta3), ((2, 3), eta_vec)]
    # the 2-dimensional space H_{2,4} forces one relation among the products
    products = []
    for (a, bb) in ((0, 1), (0, 2), (1, 2)):
        products.append(_vec_product(H, (1, 2), gens[a][1], (1, 2), gens[bb][1]))
    rank, ker = kernel_of_columns(products, field)
    if rank != 2 or len(ker) != 1:
        raise ValueError("pairwise products do not span a 2-dimensional space")
    abc = [ker[0].get(k, field.zero) for k in range(3)]
    a_, b_, c_ = abc
    relations = []
    for k in range(3):
        relations.append({(3, k): one, (k, 3): field.neg(one)})
    for (a, bb) in ((0, 1), (0, 2), (1, 2)):
        relations.append({(bb, a): one, (a, bb): one})
    relations.extend({(k, k): one} for k in range(4))
    relations.append({(1, 3): one})
    relations.append({(2, 3): one})
    relations.append({w: coeff for w, coeff in
                      (((0, 1), a_), ((0, 2), b_), ((1, 2), c_)) if coeff})
    if c_:
        case = "c-nonzero"
    elif a_ and b_:
        case = "c-zero-ab-nonzero"
    else:
        case = "monomial-skew"
    data = {"table": table_id, "case": case, "abc": [str(v) for v in abc]}
    cert, _ = _certificate("three-relation", H, ["z1", "z2", "z3", "y"], gens,
                           relations, _strand_dims(H, 4), 4, bound, data)
    return cert


# ---------------------------------------------------------------------------
# edge ideals of paths

def path_generator_elements(ring: QuotientRing):
    """The distinguished cycles of a path ring: x_{i+1} t_i (degree (1,2))
    and x_{j+1} t_j t_{j+2} (degree (2,3)), both 1-based in i, j."""
    n = ring.n
    one = ring.field.one
    z = []
    for i in range(1, n):
        mono = tuple(1 if k == i else 0 for k in range(n))
        z.append({(mono, (i - 1,)): one})
    y = []
    for j in range(1, n - 1):
        mono = tuple(1 if k == j else 0 for k in range(n))
        y.append({(mono, (j - 1, j + 1)): one})
    return z, y


def path_mu_word(i: int, r: int, z_index, y_index) -> tuple:
    """The canonical reduced word of the interval p_{i,r} (r != 1 mod 3)."""
    if r % 3 == 1:
        raise ValueError("intervals of length 1 mod 3 carry no homology")
    if r % 3 == 2:
        word = [z_index[i]]
        start = i + 2
    else:
        word = [y_index[i]]
        start = i + 3
    while start <= i + r - 3:
        word.append(y_index[start])
        start += 3
    return tuple(word)


def path_certify(n: int, field: Field = QQ, d_max: int = 5):
    """The full path-ideal certification: distinguished generator classes,
    the ten-type quadratic rewriting system, vanishing in homology, the
    reduced-word characterization, and the dimension-count certificate.

    Returns (ring, FamilyCertificate).
    """
    ring = build_path_ring(n, field)
    H = homology(ring, n, n)
    z_elems, y_elems = path_generator_elements(ring)
    for el in z_elems + y_elems:
        if differential(ring, el):
            raise ValueError("distinguished element failed to be a cycle")
    # interleaved alphabet z1 < y1 < z2 < y2 < ... < z_{n-1}
    names = []
    gen_info = []
    z_index: dict = {}
    y_index: dict = {}
    kinds = []
    for i in range(1, n):
        z_index[i] = len(names)
        names.append(f"z{i}")
        gen_info.append(((1, 2), H.coords_of_cycle(1, 2, z_elems[i - 1])))
        kinds.append(("z", i))
        if i <= n - 2:
            y_index[i] = len(names)
            names.append(f"y{i}")
            gen_info.append(((2, 3), H.coords_of_cycle(2, 3, y_elems[i - 1])))
            kinds.append(("y", i))
    z_coords = [vec for (bd, vec), kind in zip(gen_info, kinds) if kind[0] == "z"]
    y_coords = [vec for (bd, vec), kind in zip(gen_info, kinds) if kind[0] == "y"]
    bases_ok = (H.dim(1, 2) == n - 1 and H.dim(2, 3) == n - 2
                and rank_of_columns(z_coords, field) == n - 1
                and rank_of_columns(y_coords, field) == n - 2)
    if not bases_ok:
        raise ValueError("distinguished classes do not form the linear bases")

    one = field.one
    neg = field.neg(one)
    relations = []
    types: dict = {k: [] for k in range(1, 11)}

    def add(tp, poly):
        relations.append(poly)
        types[tp].append(poly)

    for i in range(1, n - 1):          # (1) eta commutators
        for j in range(i + 1, n - 1):
            add(1, {(y_index[j], y_index[i]): one, (y_index[i], y_index[j]): neg})
    for i in range(1, n - 1):          # (2) eta-zeta commutators, i <= j
        for j in range(i, n - 1):
            add(2, {(y_index[j], z_index[i]): one, (z_index[i], y_index[j]): neg})
    for j in range(1, n - 1):          # (3) zeta-eta commutators, j < i
        for i in range(j + 1, n):
            add(3, {(z_index[i], y_index[j]): one, (y_index[j], z_index[i]): neg})
    for i in range(1, n):              # (4) zeta skew-commutators
        for j in range(i + 1, n):
            add(4, {(z_index[j], z_index[i]): one, (z_index[i], z_index[j]): one})
    for i in range(1, n - 3):          # (5) string relations
        add(5, {(y_index[i], z_index[i + 3]): one,
                (z_index[i], y_index[i + 2]): neg})
    for i in range(1, n - 2):          # (6) disjoint-but-adjacent zeta products
        add(6, {(z_index[i], z_index[i + 2]): one})
    for j in range(1, n):              # (7) overlapping zeta products
        for i in (j - 1, j):
            if 1 <= i <= j:
                add(7, {(z_index[i], z_index[j]): one})
    for j in range(1, n - 1):          # (8) zeta-eta overlaps
        for i in (j - 1, j, j + 1, j + 2):
            if 1 <= i <= n - 1:
                add(8, {(z_index[i], y_index[j]): one})
    for j in range(1, n - 1):          # (9) eta-zeta overlaps
        for i in (j - 1, j, j + 1, j + 2):
            if 1 <= i <= n - 1:
                add(9, {(y_index[j], z_index[i]): one})
    for j in range(1, n - 1):          # (10) eta-eta overlaps
        for i in (j - 2, j - 1, j):
            if 1 <= i <= j:
                add(10, {(y_index[i], y_index[j]): one})

    # targets from the combinatorial formula (the paper's dimension count)
    targets = {0: 1}
    for support_size in range(1, n + 1):
        for support in itertools.combinations(range(n), support_size):
            u = tuple(1 if k in support else 0 for k in range(n))
            dim, hom_degree = boocher_dim(u)
            if dim:
                strand = support_size - hom_degree
                if strand <= d_max:
                    targets[strand] = targets.get(strand, 0) + 1
    data = {"n": n, "type_counts": {str(k): len(v) for k, v in types.items()}}
    cert, system = _certificate("path", H, names, gen_info, relations, targets,
                                d_max, {"n": n, "d_max": d_max}, data)

    # every reduced word must be the canonical factorization of its multidegree
    factorization_ok = True
    for d in range(1, d_max + 1):
        for word in system.reduced_words(d):
            u = [0] * n
            for idx in word:
                kind, pos = kinds[idx]
                width = 2 if kind == "z" else 3
                for k in range(pos - 1, pos - 1 + width):
                    u[k] += 1
            if any(e > 1 for e in u):
                factorization_ok = False
                continue
            decomposition = complete_decomposition(tuple(u))
            expected = []
            for (start, r) in decomposition.segments:
                expected.extend(path_mu_word(start, r, z_index, y_index))
            if tuple(expected) != word:
                factorization_ok = False
    data["canonical_factorizations"] = factorization_ok
    if not factorization_ok:
        cert.verdict.status = "INCONSISTENT"
    return ring, cert
