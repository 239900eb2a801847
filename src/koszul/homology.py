"""The Koszul complex of a graded quotient ring and its homology algebra.

The complex is the exterior algebra over R on one generator per ring variable,
with the differential sending the generator t_i to x_i and extending by the
Leibniz rule.  Basis elements are pairs ``(v, w)``: a standard monomial v of R
and an ascending tuple w of exterior indices.  Bidegrees are (|w|, deg v + |w|).

For monomial ideals everything additionally splits by multidegree u, and
each slice K_{.,u} is built from its exterior words alone (``_slice_words``).
For squarefree u, the only multidegrees with homology, it is by Hochster's
formula the cochain complex of an induced subcomplex of the Stanley-Reisner
complex.

Over QQ, a ring with a certified twin over GF(P) (``QuotientRing.twin``) has
its homology dimensions ranked on the twin's complex: ``ComplexRanks``
certifies each rank, or takes that one slice again over QQ.  Cycle
representatives, coordinates and products stay on the ring itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from math import comb
from operator import le

from .fields import Field
from .graded import GradedAlgebraData
from .polyring import QuotientRing
from .sparse import ComplexRanks, FieldEchelon, kernel_of_columns


def koszul_basis(ring: QuotientRing, i: int, j: int) -> tuple:
    """Basis of the (i, j) component: standard v of degree j - i, |w| = i,
    sorted by (w, grevlex key of v) as combinations and std_monomials yield them."""
    if i < 0 or i > ring.n or j < i:
        return ()
    ring_part = ring.std_monomials(j - i)
    return tuple((v, w) for w in itertools.combinations(range(ring.n), i)
                 for v in ring_part)


def _multidegree(basis_elt) -> tuple:
    v, w = basis_elt
    return tuple(e + (k in w) for k, e in enumerate(v))


def koszul_basis_multigraded(ring: QuotientRing, i: int, u: tuple) -> tuple:
    """Basis of the multidegree-u slice in homological degree i (monomial
    rings): at most one v per w, so sorted as koszul_basis is."""
    words = _slice_words(ring, u) if min(u, default=0) >= 0 else []
    return _word_pairs(words[i], u) if 0 <= i < len(words) else ()


def _slice_words(ring: QuotientRing, u: tuple) -> list:
    """The words of K_{i,u} for a monomial ring, by i: each w within supp u
    with x^(u-w) standard, in combinations order, as the tuple of its
    letters' bits 1 << k.  A minimal generator m dividing x^u divides
    x^(u-w) iff w misses every k with m_k = u_k."""
    support = [1 << k for k, e in enumerate(u) if e]
    tight = [sum(1 << k for k, (a, e) in enumerate(zip(m, u)) if a == e)
             for m in ring._lms if all(map(le, m, u))]
    return [tuple(w for w in itertools.combinations(support, i)
                  if all(map(sum(w).__and__, tight))) for i in range(len(support) + 1)]


def _word_pairs(words, u: tuple) -> tuple:
    """The ``(v, w)`` pairs of words of K_{i,u}: v = u - w."""
    out = []
    for w in words:
        w = tuple(b.bit_length() - 1 for b in w)
        v = list(u)
        for k in w:
            v[k] -= 1
        out.append((tuple(v), w))
    return tuple(out)


def _word_columns(words_from, words_to) -> list[dict]:
    """Columns of d between two word bases of a slice u: d(x^(u-w) t_w) is
    the sum of (-1)^p x^(u-w') t_w' over the words w' below that drop the
    p-th letter of w, so entries are plain ints +-1."""
    index_to = {sum(w): r for r, w in enumerate(words_to)}
    cols = []
    for w in words_from:
        mask = sum(w)
        cols.append({r: -1 if p & 1 else 1 for p, b in enumerate(w)
                     if (r := index_to.get(mask ^ b)) is not None})
    return cols


def differential_of_basis(ring: QuotientRing, v: tuple, w: tuple) -> dict:
    """Image of x^v t_w under the differential, as a dict over (i-1)-basis pairs.

    Each term drops a different index from w, so no two terms share a key.
    """
    neg = ring.field.neg
    out: dict = {}
    for p, wp in enumerate(w):
        unit = (0,) * wp + (1,) + (0,) * (ring.n - wp - 1)
        rest = w[:p] + w[p + 1:]
        for m, c in ring.mono_product(v, unit).items():
            out[(m, rest)] = neg(c) if p % 2 else c
    return out


def differential(ring: QuotientRing, element: dict) -> dict:
    """Differential of a Koszul element given as dict (v, w) -> coefficient."""
    return ring.field.collect((key, c * d) for (v, w), c in element.items() if c
                              for key, d in differential_of_basis(ring, v, w).items())


@dataclass(frozen=True)
class HomologyClass:
    """A homology class with its reduced cycle representative.

    ``index = (grade, k)`` keys the class in coordinate vectors: ``grade`` is
    the slice the class lives in (see ``KoszulHomologyAlgebra``) and ``k`` its
    place among that slice's classes.
    """

    i: int
    j: int
    index: tuple
    representative: dict = dc_field(compare=False, hash=False)


class _Slice:
    """Homology of one (co)homological slice: cycle reps modulo boundaries."""

    __slots__ = ("basis", "index", "reps", "ech")

    def __init__(self, field: Field, basis, d_in_columns, boundary_columns):
        self.basis = basis
        self.index = {b: k for k, b in enumerate(basis)}
        _, kernel = kernel_of_columns(d_in_columns, field)
        self.ech = FieldEchelon(field)
        for col in boundary_columns:
            self.ech.insert(col, tag=None)
        self.reps = []
        for kv in kernel:
            residual, _ = self.ech.insert(kv, tag=len(self.reps))
            if residual:
                self.reps.append(self.ech.column(min(residual)))

    @property
    def dim(self) -> int:
        return len(self.reps)

    def coords(self, cycle_coords: dict) -> dict:
        """Coordinates of a cycle (given over the slice basis) in the rep basis."""
        residual, combo = self.ech.reduce(cycle_coords)
        if residual:
            raise ValueError("vector is not a cycle in this slice")
        return combo


def _differential_columns(ring, basis_from, basis_to) -> list[dict]:
    """Columns of the differential from one Koszul basis into the next one down."""
    index_to = {b: k for k, b in enumerate(basis_to)}
    return [{index_to[key]: c for key, c in differential_of_basis(ring, v, w).items()}
            for v, w in basis_from]


def _slice_from_bases(ring, field, basis_here, basis_below, basis_above, u=None):
    """One slice from the bases of K_i, K_{i-1} and K_{i+1}: pairs, or
    with ``u`` words (``_slice_words``)."""
    if u is None:
        d_in = _differential_columns(ring, basis_here, basis_below)
        bd = _differential_columns(ring, basis_above, basis_here)
    else:
        d_in = _word_columns(basis_here, basis_below)
        bd = _word_columns(basis_above, basis_here)
        basis_here = _word_pairs(basis_here, u)
    return _Slice(field, basis_here, d_in, [col for col in bd if col])


def _squarefree(u: tuple) -> bool:
    return all(e <= 1 for e in u)


class KoszulHomologyAlgebra:
    """Bigraded homology algebra of the Koszul complex, up to (i_max, j_max).

    H_{i,j} splits into slices H_{i,g}, one per grade g of internal degree j
    (``grades``): the single grade j in general, and for squarefree monomial
    ideals the squarefree multidegrees u of degree j in the lcm lattice, the
    only ones that carry homology.  Every slice and class is keyed by its
    grade, and a class's index is ``(g, k)``.  Dimensions come from the ranks
    of the differential, which one ``ComplexRanks`` takes once each, by one
    rule on either route, on the complex of the ring's certified twin where
    it has one:
    ``dim H_{i,g} = dim K_{i,g} - rank d_{i,g} - rank d_{i+1,g}``.  Slices
    with cycle representatives are built lazily, only where the ranks show
    homology or a cycle needs coordinates, and cached.  Products of classes
    are computed in the complex and reduced to coordinates, keyed by class
    index, in the stored bases.
    """

    def __init__(self, ring: QuotientRing, i_max: int, j_max: int):
        if i_max < 0 or j_max < 0:
            raise ValueError("bounds must be nonnegative")
        self.ring = ring
        self.field = ring.field
        self.i_max = min(i_max, ring.n)
        self.j_max = j_max
        self.multigraded = ring.is_squarefree_monomial
        self._complex_bases: dict = {}
        self._words: dict = {}   # u -> _slice_words(ring, u)
        self._shifts: dict = {}   # (d, on the twin) -> see _shift_table
        # the rest keyed by (i, grade)
        self._ranks = ComplexRanks(self.field)
        self._slices: dict = {}
        self._classes_of: dict = {}
        self._product_cache: dict = {}
        self._grades_of: dict = {}   # j -> grades(j) on the multigraded route
        self._algebra_data: dict = {}   # mode -> algebra_data(mode)

    # -- slice plumbing -----------------------------------------------------

    def _complex_basis(self, i: int, grade) -> tuple:
        """A basis of K_i in one slice: its words on the multigraded route."""
        if self.multigraded:
            words = self._words.get(grade)
            if words is None:
                words = self._words[grade] = _slice_words(self.ring, grade)
            return words[i] if 0 <= i < len(words) else ()
        key = (i, grade)
        hit = self._complex_bases.get(key)
        if hit is None:
            hit = self._complex_bases[key] = koszul_basis(self.ring, i, grade)
        return hit

    def _shift_table(self, d: int, twin: bool) -> tuple:
        """For each variable x_k, NF(x_k s) for each standard s of degree d,
        as ``(row, coefficient)`` pairs with row the place of the monomial in
        R_{d+1} counted from the end; once with the coefficients and once
        negated.  Integral coefficients are plain ints.  Built once per
        degree, over the ring or over its twin, and cached."""
        key = (d, twin)
        hit = self._shifts.get(key)
        if hit is None:
            ring = self.ring.twin(self.j_max) if twin else self.ring
            n = ring.n
            last = len(ring.std_monomials(d + 1)) - 1
            row = {m: last - r for r, m in enumerate(ring.std_monomials(d + 1))}
            units = [(0,) * k + (1,) + (0,) * (n - k - 1) for k in range(n)]
            plus = [[[(row[m], c.numerator if c.denominator == 1 else c)
                      for m, c in ring.mono_product(s, unit).items()]
                     for s in ring.std_monomials(d)] for unit in units]
            minus = [[[(r, -c) for r, c in terms] for terms in by_s] for by_s in plus]
            hit = self._shifts[key] = (plus, minus)
        return hit

    def _columns(self, i: int, grade, twin=False) -> list[dict]:
        """Columns of the differential leaving K_i in one slice, over the
        ring or over its twin, for ranks only: both bases are read in
        reverse order, which ``rank_of_columns`` eliminates with least fill
        (module docstring of ``koszul.sparse``).  Empty where K_i or K_{i-1}
        is zero.

        Bigraded, K_{i,j} comes in blocks by exterior word w, each the
        standard monomials s of degree d = j - i; the column of (s, w) is
        the sum over k in w of +-NF(x_k s) (``_shift_table``), placed in the
        block of w minus k."""
        if self.multigraded:
            here = self._complex_basis(i, grade)
            below = self._complex_basis(i - 1, grade)
            if not (here and below):
                return []
            return _word_columns(here[::-1], below[::-1])
        d = grade - i
        ring = self.ring.twin(self.j_max) if twin else self.ring
        size, size_below = len(ring.std_monomials(d)), len(ring.std_monomials(d + 1))
        if not (0 < i <= ring.n and size and size_below):
            return []
        plus, minus = self._shift_table(d, twin)
        words_below = list(itertools.combinations(range(ring.n), i - 1))
        last = len(words_below) - 1
        start = {w: (last - r) * size_below for r, w in enumerate(words_below)}
        cols = []
        for w in reversed(list(itertools.combinations(range(ring.n), i))):
            blocks = [((minus if p % 2 else plus)[k], start[w[:p] + w[p + 1:]])
                      for p, k in enumerate(w)]
            for s in range(size - 1, -1, -1):
                col = {}
                for table, offset in blocks:
                    for r, c in table[s]:
                        col[offset + r] = c
                cols.append(col)
        return cols

    def _size(self, i: int, grade) -> int:
        """dim K_i in one slice, read from the Hilbert function where it can."""
        if self.multigraded:
            return len(self._complex_basis(i, grade))
        return comb(self.ring.n, i) * self.ring.dim(grade - i) if i >= 0 else 0

    def _slice(self, i: int, grade) -> _Slice:
        key = (i, grade)
        hit = self._slices.get(key)
        if hit is None:
            hit = self._slices[key] = _slice_from_bases(
                self.ring, self.field, self._complex_basis(i, grade),
                self._complex_basis(i - 1, grade), self._complex_basis(i + 1, grade),
                grade if self.multigraded else None)
        return hit

    def _slice_dim(self, i: int, grade) -> int:
        """dim H_i of one slice: read from its reps if built, else from ranks."""
        sl = self._slices.get((i, grade))
        if sl is not None:
            return sl.dim
        if self.ring.twin(self.j_max) is None:
            return self._ranks.homology(i, grade, self._columns, self._size)
        return self._ranks.homology(i, grade, lambda k, g: self._columns(k, g, True),
                                    self._size, self._columns)

    def _in_lcm_lattice(self, u: tuple) -> bool:
        """Whether u is the lcm of the minimal generators dividing it (u = 0
        is the empty lcm).  Off this lattice H_{i,u} = Tor_i(R, k)_u vanishes
        for i >= 1 (Gasharov-Peeva-Welker), so no rank is taken there."""
        lcm = (0,) * len(u)
        for m in self.ring._lms:
            if all(map(le, m, u)):
                lcm = tuple(map(max, lcm, m))
        return lcm == u

    def grades(self, j: int) -> list:
        """The grades whose slices make up H_{i,j}: [j] on the bigraded
        route, and on the multigraded one the squarefree multidegrees of
        degree j in the lcm lattice, the only ones with homology; memoized."""
        if not self.multigraded:
            return [j]
        hit = self._grades_of.get(j)
        if hit is None:
            n = self.ring.n
            candidates = (tuple(1 if k in s else 0 for k in range(n))
                          for s in itertools.combinations(range(n), j))
            hit = self._grades_of[j] = [u for u in candidates
                                        if self._in_lcm_lattice(u)]
        return hit

    def _classes(self, i: int, j: int, grade) -> list[HomologyClass]:
        """The classes of one slice of H_{i,j}, built once; no slice is built
        where the ranks say that the grade carries no homology."""
        key = (i, grade)
        hit = self._classes_of.get(key)
        if hit is None:
            if i == 0:
                reps = [{((0,) * self.ring.n, ()): self.field.one}]
            elif not self._slice_dim(i, grade):
                reps = []
            else:
                sl = self._slice(i, grade)
                reps = [{sl.basis[pos]: c for pos, c in sorted(rep.items())}
                        for rep in sl.reps]
            hit = self._classes_of[key] = [HomologyClass(i, j, (grade, k), rep)
                                           for k, rep in enumerate(reps)]
        return hit

    def _check_bounds(self, i: int, j: int):
        if not (0 <= i <= self.i_max and 0 <= j <= self.j_max):
            raise ValueError(f"bidegree ({i}, {j}) outside computed bounds "
                             f"({self.i_max}, {self.j_max})")

    # -- public views --------------------------------------------------------

    def basis(self, i: int, j: int) -> list[HomologyClass]:
        self._check_bounds(i, j)
        if not (0 < i <= min(j, self.ring.n) or i == j == 0):
            return []
        return [h for grade in self.grades(j) for h in self._classes(i, j, grade)]

    def klass(self, i: int, j: int, index) -> HomologyClass:
        """The class with this index in H_{i,j}, without listing basis(i, j)."""
        self._check_bounds(i, j)
        grade, k = index
        return self._classes(i, j, grade)[k]

    def dim(self, i: int, j: int) -> int:
        if i == 0:
            return 1 if j == 0 else 0
        if j <= 0 or i > min(j, self.ring.n):
            return 0
        self._check_bounds(i, j)
        return sum(self._slice_dim(i, grade) for grade in self.grades(j))

    def dims(self) -> dict:
        """All nonzero dimensions within bounds, keyed by bidegree."""
        out = {}
        for j in range(self.j_max + 1):
            for i in range(min(j, self.i_max) + 1):
                d = self.dim(i, j)
                if d:
                    out[(i, j)] = d
        return out

    def multigraded_dim(self, i: int, u: tuple):
        if not self.multigraded:
            raise ValueError("multigraded data needs a monomial defining ideal")
        if i == 0:
            return 1 if not any(u) else 0
        return self._slice_dim(i, u) if u in self.grades(sum(u)) else 0

    # -- algebra structure ----------------------------------------------------

    def coords_of_cycle(self, i: int, j: int, element: dict) -> dict:
        """Coordinates of a cycle (dict over (v, w) pairs) in H_{i,j}, keyed by
        class index."""
        self._check_bounds(i, j)
        # only the slices the cycle touches are built
        parts: dict = {}
        for bw, c in element.items():
            parts.setdefault(_multidegree(bw) if self.multigraded else j, {})[bw] = c
        coords = {}
        for grade, part in parts.items():
            if self.multigraded and not _squarefree(grade):
                # no homology off squarefree multidegrees: a cycle there is a
                # boundary, so only the cycle condition is checked
                if differential(self.ring, part):
                    raise ValueError("vector is not a cycle in this slice")
                continue
            sl = self._slice(i, grade)
            for r, c in sl.coords({sl.index[bw]: c for bw, c in part.items()}).items():
                if c:
                    coords[(grade, r)] = c
        return coords

    def multiply_elements(self, e1: dict, e2: dict) -> dict:
        """Product in the Koszul complex with exterior signs, ring parts reduced."""
        terms = []
        for (v1, w1), c1 in e1.items():
            s1 = set(w1)
            for (v2, w2), c2 in e2.items():
                if s1 & set(w2):
                    continue
                inversions = sum(1 for a in w1 for b in w2 if a > b)
                sign = -1 if inversions % 2 else 1
                merged = tuple(sorted(w1 + w2))
                terms += (((m, merged), sign * c1 * c2 * cm)
                          for m, cm in self.ring.mono_product(v1, v2).items())
        return self.field.collect(terms)

    def product_coords(self, h1: HomologyClass, h2: HomologyClass) -> dict:
        """Coordinates of [h1][h2] in the basis of its target bidegree."""
        i, j = h1.i + h2.i, h1.j + h2.j
        if i > self.ring.n:
            return {}
        key = (h1.i, h1.j, h1.index, h2.i, h2.j, h2.index)
        hit = self._product_cache.get(key)
        if hit is not None:
            return hit
        if self.multigraded:
            u = tuple(a + b for a, b in zip(h1.index[0], h2.index[0]))
            if not _squarefree(u):
                self._product_cache[key] = {}
                return {}
        self._check_bounds(i, j)
        z = self.multiply_elements(h1.representative, h2.representative)
        coords = self.coords_of_cycle(i, j, z)
        self._product_cache[key] = coords
        return coords

    # -- exports to the graded-algebra machinery -------------------------------

    def positive_strands(self) -> bool:
        # off (0, 0), only the diagonal H_{i,i} has strand j - i <= 0
        return not any(self.dim(i, i) for i in range(1, min(self.i_max, self.j_max) + 1))

    def algebra_data(self, mode: str = "bigraded") -> GradedAlgebraData:
        """Structure-constant view of H for the Tor engines.

        mode 'bigraded': grades (i, j); 'multigraded': grades (i, *u)
        (monomial rings only); 'strand': single grade j - i.  Built once per
        mode.
        """
        hit = self._algebra_data.get(mode)
        if hit is not None:
            return hit
        if not self.positive_strands():
            raise ValueError("homology does not live in positive strands")
        if mode == "multigraded" and not self.multigraded:
            raise ValueError("multigraded data needs a monomial defining ideal")
        if mode not in ("bigraded", "strand", "multigraded"):
            raise ValueError(f"unknown mode {mode!r}")
        # grade -> classes in component order; within a strand, j ascends
        # with i, so classes come ordered by (i, j, position)
        classes_of: dict = {}
        place: dict = {}   # (i, index) -> position in its component
        for j in range(1, self.j_max + 1):
            for i in range(1, min(j, self.i_max) + 1):
                for h in self.basis(i, j):
                    if mode == "bigraded":
                        grade = (i, j)
                    elif mode == "strand":
                        grade = (j - i,)
                    else:
                        grade = (i,) + h.index[0]
                    component = classes_of.setdefault(grade, [])
                    place[(i, h.index)] = len(component)
                    component.append(h)
        components = {g: len(v) for g, v in classes_of.items()}

        def weight(grade):
            # past its i, an (i, j) or (i, *u) grade sums to j
            return grade[0] if mode == "strand" else sum(grade[1:])

        bound = self.j_max
        # squarefree monomial rings are complete once j_max covers n: nothing
        # lives beyond internal degree n
        if mode == "strand" and not (self.multigraded and self.j_max >= self.ring.n):
            bound -= self.i_max

        def mult(g1, a, g2, b):
            h1 = classes_of[g1][a]
            h2 = classes_of[g2][b]
            return {place[(h1.i + h2.i, idx)]: c
                    for idx, c in self.product_coords(h1, h2).items()}

        hit = self._algebra_data[mode] = GradedAlgebraData(
            self.field, components, mult, weight, bound=bound)
        return hit


def homology(ring: QuotientRing, i_max: int, j_max: int) -> KoszulHomologyAlgebra:
    """Koszul homology algebra of the ring, trusted up to (i_max, j_max)."""
    return KoszulHomologyAlgebra(ring, i_max, j_max)


def multigraded_homology(ring: QuotientRing, u: tuple):
    """Dimensions (by homological degree) and bases of the multidegree-u slices.

    Requires a monomial defining ideal.  Returns (dims, bases) with dims a dict i -> dim.
    """
    if not ring.is_monomial:
        raise ValueError("multigraded homology needs a monomial defining ideal")
    u = tuple(u)
    if len(u) != ring.n or any(e < 0 for e in u):
        raise ValueError("multidegree length does not match the ring")
    dims, bases = {}, {}
    words = [()] + _slice_words(ring, u) + [()]   # K_{i,u} is words[i + 1]
    for i in range(len(words) - 2):
        below, here, above = words[i:i + 3]
        if not here:
            continue
        sl = _slice_from_bases(ring, ring.field, here, below, above, u)
        if sl.dim:
            dims[i] = sl.dim
            bases[i] = [{sl.basis[pos]: c for pos, c in sorted(rep.items())}
                        for rep in sl.reps]
    return dims, bases
