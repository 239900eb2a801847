"""Free noncommutative algebra tools.

Words are tuples of generator indices; the generator index order is the
variable order.  The monomial order is weighted deg-lex: total generator
degree first, then word length, then left-to-right index comparison.
Polynomials are dicts ``word -> nonzero coefficient``.

Reduction systems hold monic polynomials and rewrite modulo the two-sided
ideal they generate; a Groebner basis is certified the way dimension counting
allows: reduced words always span the quotient, so matching dimension counts
in every degree force them to be a basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fields import Field


class FreeAlgebra:
    """Free algebra on named generators with positive integer degrees."""

    def __init__(self, names, degrees, field: Field):
        self.names = list(names)
        self.degrees = list(degrees)
        self.field = field
        if len(self.names) != len(self.degrees):
            raise ValueError("need one degree per generator")
        if any(d <= 0 for d in self.degrees):
            raise ValueError("generator degrees must be positive")
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be distinct")

    @property
    def ngens(self) -> int:
        return len(self.names)

    def word_degree(self, word: tuple) -> int:
        return sum(self.degrees[i] for i in word)

    def deglex_key(self, word: tuple):
        return (self.word_degree(word), len(word), word)

    def words_of_degree(self, d: int) -> list[tuple]:
        """All words of total degree d, in deg-lex (here: plain lex) order."""
        out: list[tuple] = []

        def extend(word, remaining):
            if remaining == 0:
                out.append(word)
                return
            for i in range(self.ngens):
                if self.degrees[i] <= remaining:
                    extend(word + (i,), remaining - self.degrees[i])

        if d >= 0:
            extend((), d)
        return out

    def leading_word(self, p: dict) -> tuple:
        return max(p, key=self.deglex_key)

    def monic(self, p: dict) -> dict:
        inv = self.field.inv(p[self.leading_word(p)])
        return {w: self.field.mul(inv, c) for w, c in p.items()}

    def mul(self, p: dict, q: dict) -> dict:
        return self.field.collect((w1 + w2, c1 * c2)
                                  for w1, c1 in p.items() for w2, c2 in q.items())

    def is_homogeneous(self, p: dict) -> bool:
        return len({self.word_degree(w) for w in p}) <= 1

    def to_string(self, p: dict) -> str:
        if not p:
            return "0"
        parts = []
        for w in sorted(p, key=self.deglex_key, reverse=True):
            c = p[w]
            body = "*".join(self.names[i] for i in w) if w else "1"
            cs = str(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            text = body if cs == "1" and w else (f"{cs}*{body}" if w else cs)
            if not parts:
                parts.append(f"-{text}" if neg else text)
            else:
                parts.append(f"- {text}" if neg else f"+ {text}")
        return " ".join(parts)


@dataclass
class NCPresentation:
    """Generators-and-relations presentation inside a free algebra."""

    algebra: FreeAlgebra
    generators: list
    relations: list

    def relation_strings(self) -> list[str]:
        return [self.algebra.to_string(r) for r in self.relations]


def _find_subword(word: tuple, sub: tuple) -> int:
    """Leftmost start index of sub in word, or -1."""
    ls = len(sub)
    if ls == 0 or ls > len(word):
        return -1
    for k in range(len(word) - ls + 1):
        if word[k:k + ls] == sub:
            return k
    return -1


class ReductionSystem:
    """Monic rewriting rules; reduction eliminates leading words as subwords."""

    def __init__(self, algebra: FreeAlgebra, elements):
        self.algebra = algebra
        self.elements = []
        seen = set()
        for p in elements:
            p = {w: algebra.field(c) for w, c in p.items() if c}
            if not p:
                continue
            p = algebra.monic(p)
            lw = algebra.leading_word(p)
            if lw in seen:
                continue
            seen.add(lw)
            self.elements.append(p)
        self.elements.sort(key=lambda p: algebra.deglex_key(algebra.leading_word(p)))
        self.leading = [algebra.leading_word(p) for p in self.elements]
        by_length: dict = {}  # leading words grouped by length
        for lw in self.leading:
            by_length.setdefault(len(lw), set()).add(lw)
        self._leading_by_length = sorted(by_length.items())
        self._reduced = [[()]]  # reduced words of degree d, in lex order

    def find_reducer(self, word: tuple):
        """(rule index, position) for the first leading word occurring in word."""
        for idx, lw in enumerate(self.leading):
            k = _find_subword(word, lw)
            if k >= 0:
                return idx, k
        return None

    def reduce(self, p: dict) -> dict:
        field = self.algebra.field
        work = {w: field(c) for w, c in p.items() if c}
        done: dict = {}
        while work:
            w = max(work, key=self.algebra.deglex_key)
            c = work.pop(w)
            hit = self.find_reducer(w)
            if hit is None:
                done[w] = c
                continue
            idx, k = hit
            rule = self.elements[idx]
            lw = self.leading[idx]
            left, right = w[:k], w[k + len(lw):]
            for w2, c2 in rule.items():
                if w2 == lw:
                    continue
                w3 = left + w2 + right
                acc = field(work.get(w3, 0) - c * c2)
                if acc:
                    work[w3] = acc
                else:
                    work.pop(w3, None)
        return done

    def is_reduced_word(self, word: tuple) -> bool:
        return self.find_reducer(word) is None

    def reduced_words(self, degree: int) -> list[tuple]:
        """All degree-d words avoiding every leading word as a subword.

        Words are in lexicographic order; the list is a fresh copy of a cache
        that grows one degree at a time.  A word is reduced iff its tail after
        the first letter is reduced and none of its prefixes is a leading
        word, so degree d is built by prepending each letter i to the reduced
        words of degree d - deg(i), which also keeps lex order.
        """
        if degree < 0:
            return []
        levels = self._reduced
        degrees = self.algebra.degrees
        for d in range(len(levels), degree + 1):
            level = []
            for i, di in enumerate(degrees):
                if di > d:
                    continue
                for tail in levels[d - di]:
                    word = (i,) + tail
                    if not any(word[:length] in lead
                               for length, lead in self._leading_by_length):
                        level.append(word)
            levels.append(level)
        return list(levels[degree])


@dataclass
class Certification:
    """Outcome of the dimension-count Groebner certification."""

    passed: bool
    counts: dict
    targets: dict

    @property
    def excess(self) -> dict:
        return {d: self.counts[d] - self.targets.get(d, 0)
                for d in self.counts if self.counts[d] != self.targets.get(d, 0)}


def certify_groebner_by_dims(system: ReductionSystem, target_dims: dict,
                             d_max: int) -> Certification:
    """PASS iff reduced-word counts equal the target dims in every degree <= d_max.

    The caller must already know the rules map into the target ideal; reduced
    words span the quotient, so a deficit (count below target) is impossible
    and raises, while matching counts certify both the Groebner property and
    that the rules generate the whole ideal.
    """
    counts = {}
    for d in range(d_max + 1):
        counts[d] = len(system.reduced_words(d))
        target = target_dims.get(d, 0)
        if counts[d] < target:
            raise ValueError(
                f"inconsistent certification data in degree {d}: "
                f"{counts[d]} reduced words but target dimension {target}")
    passed = all(counts[d] == target_dims.get(d, 0) for d in range(d_max + 1))
    return Certification(passed, counts, {d: target_dims.get(d, 0)
                                          for d in range(d_max + 1)})


def _overlaps(w1: tuple, w2: tuple):
    """Proper overlaps: suffix of w1 equal to prefix of w2 (not containment)."""
    for k in range(1, min(len(w1), len(w2))):
        if w1[len(w1) - k:] == w2[:k]:
            yield k


def _interreduce(algebra: FreeAlgebra, elements) -> "ReductionSystem":
    """Reduce every element against the others until stable (drops redundancy)."""
    elems = [p for p in elements if p]
    changed = True
    while changed:
        changed = False
        for idx in range(len(elems)):
            others = ReductionSystem(algebra, elems[:idx] + elems[idx + 1:])
            reduced = others.reduce(elems[idx])
            if reduced != elems[idx]:
                changed = True
                if reduced:
                    elems[idx] = algebra.monic(reduced)
                else:
                    del elems[idx]
                break
    return ReductionSystem(algebra, elems)


def overlap_completion(gens, d_max: int, algebra: FreeAlgebra) -> ReductionSystem:
    """Bounded completion: resolve all overlap ambiguities of degree <= d_max.

    The system is kept inter-reduced, so no leading word contains another and
    inclusion ambiguities never arise; a clean pass over the overlaps then
    certifies confluence through degree d_max.  For quadratic systems on
    degree-1 generators a clean degree-3 completion is a full confluence
    (hence Groebner) proof.
    """
    for p in gens:
        if not algebra.is_homogeneous(p):
            raise ValueError("completion needs homogeneous input")
    system = _interreduce(algebra, gens)
    while True:
        queue = []
        elems = system.elements
        leads = system.leading
        for i1, lw1 in enumerate(leads):
            for i2, lw2 in enumerate(leads):
                for k in _overlaps(lw1, lw2):
                    glued = lw1 + lw2[k:]
                    if algebra.word_degree(glued) > d_max:
                        continue
                    left = {lw1[:len(lw1) - k]: algebra.field.one}
                    right = {lw2[k:]: algebra.field.one}
                    s = algebra.field.collect(itertools.chain(
                        ((w, -c) for w, c in algebra.mul(left, elems[i2]).items()),
                        algebra.mul(elems[i1], right).items()))
                    s = system.reduce(s)
                    if s:
                        queue.append(s)
        if not queue:
            return system
        system = _interreduce(algebra, system.elements + queue)
