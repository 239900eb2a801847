"""Connected graded algebras as dims + structure constants.

This is the exchange format between the homology machinery and the Tor
engines: a graded algebra is its augmentation-ideal components (keyed by a
tuple grade), a multiplication callback on basis elements, and a trusted
weight bound.  Strand totalization, minimal generators, and minimal
presentations by generators and relations live here too.
"""

from __future__ import annotations

from operator import add

from .fields import Field
from .freealg import FreeAlgebra, NCPresentation
from .sparse import IntEchelon


def add_grades(g1: tuple, g2: tuple) -> tuple:
    return tuple(map(add, g1, g2))


class GradedAlgebraData:
    """A connected graded algebra given degreewise.

    ``components`` maps a tuple grade to the dimension of that piece of the
    augmentation ideal; ``mult(g1, a, g2, b)`` returns the product of basis
    elements as a dict ``index -> nonzero coefficient`` in grade g1 + g2,
    memoized.  Structure constants come out as plain ints where they are
    integral (every GF(p) residue is); only a non-integral rational stays a
    Fraction, so the Tor engines can sum them on plain ints.  ``weight`` maps
    grades to positive ints and bounds the trusted range.
    """

    def __init__(self, field: Field, components: dict, mult, weight, bound):
        self.field = field
        self.components = {g: d for g, d in components.items() if d}
        self._mult = mult
        self._weight = weight
        self.bound = bound
        self._memo: dict = {}
        for g, d in self.components.items():
            if weight(g) <= 0:
                raise ValueError(f"grade {g} has nonpositive weight")
            if d < 0:
                raise ValueError(f"negative dimension at grade {g}")

    def weight(self, grade: tuple) -> int:
        return self._weight(grade)

    def grades(self) -> list:
        return sorted(self.components)

    def dim(self, grade: tuple) -> int:
        return self.components.get(grade, 0)

    def mult(self, g1: tuple, a: int, g2: tuple, b: int) -> dict:
        key = (g1, a, g2, b)
        hit = self._memo.get(key)
        if hit is None:
            hit = {x: c.numerator if c.denominator == 1 else c
                   for x, c in self._mult(g1, a, g2, b).items()}
            self._memo[key] = hit
        return hit

    def mult_vec(self, g1: tuple, vec1: dict, g2: tuple, vec2: dict) -> dict:
        return self.field.collect((x, c1 * c2 * c) for a, c1 in vec1.items()
                                  for b, c2 in vec2.items()
                                  for x, c in self.mult(g1, a, g2, b).items())


def ring_algebra_data(ring, weight_max: int) -> GradedAlgebraData:
    """The quotient ring itself as graded-algebra data on grades (d,)."""
    components = {}
    for d in range(1, weight_max + 1):
        dim = len(ring.std_monomials(d))  # the basis mult reads, not a twin's
        if dim:
            components[(d,)] = dim

    def mult(g1, a, g2, b):
        d1, d2 = g1[0], g2[0]
        m1 = ring.std_monomials(d1)[a]
        m2 = ring.std_monomials(d2)[b]
        index = ring.basis_index(d1 + d2)
        return {index[m]: c for m, c in ring.mono_product(m1, m2).items()}

    return GradedAlgebraData(ring.field, components, mult, lambda g: g[0],
                             bound=weight_max)


def strand_totalize(H) -> GradedAlgebraData:
    """Regrade a Koszul homology algebra by strand degree j - i."""
    return H.algebra_data("strand")


def minimal_generators(A: GradedAlgebraData, d_max: int) -> dict:
    """Bases of (ideal)/(ideal^2) per weight, as coordinate vectors per grade.

    Only meaningful for algebras on 1-tuple grades (one component per weight).
    Returns ``{weight: [(grade, vector)]}``; an empty list means generated
    below that weight.
    """
    if d_max > A.bound:
        raise ValueError(f"requested weight {d_max} beyond trusted bound {A.bound}")
    out: dict = {}
    for g in A.grades():
        if len(g) != 1:
            raise ValueError("minimal generators need single-degree grades")
    for d in range(1, d_max + 1):
        g = (d,)
        dim = A.dim(g)
        if not dim:
            out[d] = []
            continue
        ech = IntEchelon(A.field.p)
        for d1 in range(1, d):
            g1, g2 = (d1,), (d - d1,)
            for a in range(A.dim(g1)):
                for b in range(A.dim(g2)):
                    ech.insert(A.mult(g1, a, g2, b))
        out[d] = [(g, {k: A.field.one}) for k in range(dim)
                  if ech.insert({k: A.field.one}) is None]
    return out


def present(A: GradedAlgebraData, d_max: int, gen_names=None) -> NCPresentation:
    """Minimal generators and all relations among them up to weight d_max.

    Relations are monic noncommutative polynomials, leading word largest in
    deg-lex, tails supported on evaluation-independent (standard) words; the
    set per degree is a reduced row-echelon kernel basis of the evaluation map
    onto A.
    """
    gens_by_degree = minimal_generators(A, d_max)
    gens = []
    for d in sorted(gens_by_degree):
        for g, vec in gens_by_degree[d]:
            gens.append((d, g, vec))
    if gen_names is None:
        counters: dict = {}
        gen_names = []
        for d, g, vec in gens:
            counters[d] = counters.get(d, 0) + 1
            gen_names.append(f"g{d}_{counters[d]}")
    algebra = FreeAlgebra(gen_names, [d for d, _, _ in gens], A.field)

    def evaluate(word):
        vec = None
        grade = None
        for idx in word:
            _, gg, gvec = gens[idx]
            if vec is None:
                vec, grade = dict(gvec), gg
            else:
                vec = A.mult_vec(grade, vec, gg, gvec)
                grade = add_grades(grade, gg)
        return vec or {}

    F = A.field
    relations = []
    for d in range(1, d_max + 1):
        ech = IntEchelon(F.p, track=True)
        for w in sorted(algebra.words_of_degree(d), key=algebra.deglex_key):
            relation = ech.insert(evaluate(w), tag=w)
            if relation is not None:
                # w evaluates into the span of smaller words: a monic relation
                inv = F.inv(F(relation[w]))
                relations.append({t: F.mul(F(c), inv) for t, c in relation.items()})
    return NCPresentation(algebra, list(range(len(gens))), relations)
