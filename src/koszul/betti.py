"""Betti numbers of the residue field over connected graded algebras.

Two independent engines compute Tor dimensions:

* ``BarEngine`` builds the reduced bar complex (tensor words in the
  augmentation ideal, alternating-sum merge differential) and takes exact
  ranks of its graded slices through ``ComplexRanks``, as the Koszul complex
  does.  This is the defining route.
* ``ResolutionEngine`` constructs the minimal graded free resolution of the
  residue field degree by degree: kernels of each differential, minimal
  generators as kernel modulo (ideal * kernel).  Its matrices are far smaller,
  so it is the default for large bounds.

Both produce identical tables wherever both run; the tests pin that.  On top
sit the bounded Koszulness verdicts and the Poincare-series plumbing.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field as dc_field
from math import prod
from operator import mul, sub

from .graded import GradedAlgebraData, add_grades
from .series import SeriesTrunc, region_rect, region_total
from .sparse import ComplexRanks, IntEchelon


def _zero_grade(A: GradedAlgebraData) -> tuple:
    for g in A.components:
        return (0,) * len(g)
    return (0,)


@dataclass
class BettiTable:
    """Nonzero Betti numbers keyed by (homological index, grade tuple)."""

    entries: dict
    p_max: int
    weight_max: int
    engine: str
    total_bound: int | None = None

    def get(self, p: int, grade) -> int:
        if not isinstance(grade, tuple):
            grade = (grade,)
        return self.entries.get((p, grade), 0)

    def items(self):
        return sorted(self.entries.items(),
                      key=lambda kv: (kv[0][0], kv[0][1]))

    def collapse(self, fn) -> dict:
        """Aggregate entries by a function of (p, grade); returns a dict."""
        out: dict = {}
        for (p, g), v in self.entries.items():
            key = fn(p, g)
            if key is not None:
                out[key] = out.get(key, 0) + v
        return out

    def trigraded(self) -> dict:
        """Entries keyed (p, i, j); multigraded grades (i, *u) collapse by |u|."""
        def fn(p, g):
            if len(g) == 2:
                return (p, g[0], g[1])
            return (p, g[0], sum(g[1:]))
        return self.collapse(fn)

    def series(self) -> SeriesTrunc:
        """Bigraded Poincare truncation for single-degree grades."""
        coeffs: dict = {}
        for (p, g), v in self.entries.items():
            coeffs[(p, g[0])] = coeffs.get((p, g[0]), 0) + v
        if self.total_bound is None:
            region = region_rect(self.p_max, self.weight_max)
        else:
            region = region_total(self.total_bound)
        return SeriesTrunc(coeffs, region, check=False)


class BarEngine:
    """Reduced bar complex of a connected graded algebra, slice by slice.

    The words of slice (p, G) come in blocks by last letter x = (g, a), in
    ``grades`` order and then a: the block of x is ``words(p - 1, G - g)``
    with x appended.  So the column of ``u + (x,)`` is the column of u in
    slice (p - 1, G - g), shifted to the block of x in ``words(p - 1, G)``,
    plus the one merge of u's last letter with x.  Each slice's columns are
    built once, from the slices below.  Their ranks, and the Betti numbers
    from them, come from one ``ComplexRanks``, as for the Koszul complex.
    """

    def __init__(self, A: GradedAlgebraData):
        self.A = A
        self.field = A.field
        self.zero = _zero_grade(A)
        self.grades = sorted(A.components)
        self._words: dict = {}
        # (p, G) -> {g: (start, n)}: the block of (g, a) is words[start + a*n:][:n]
        self._blocks: dict = {}
        self._cols: dict = {}
        self._ranks = ComplexRanks(self.field)

    def words(self, p: int, grade: tuple) -> tuple:
        key = (p, grade)
        hit = self._words.get(key)
        if hit is not None:
            return hit
        A = self.A
        out: list = [()] if p == 0 and grade == self.zero else []
        blocks: dict = {}
        if p > 0:
            room = A.weight(grade) - (p - 1)
            for g in self.grades:
                rest = tuple(map(sub, grade, g))
                if min(rest) < 0 or A.weight(g) > room:
                    continue
                us = self.words(p - 1, rest)
                if us:
                    blocks[g] = (len(out), len(us))
                    for a in range(A.components[g]):
                        out.extend([u + ((g, a),) for u in us])
        self._blocks[key] = blocks
        result = self._words[key] = tuple(out)
        return result

    def dim(self, p: int, grade: tuple) -> int:
        return len(self.words(p, grade))

    def differential_columns(self, p: int, grade: tuple) -> list:
        """Columns of d_p on the (p, grade) slice, over ``words(p - 1, grade)``.

        No target word occurs twice in one column.  The terms from the column
        of u end in x and are distinct by induction; the last merge ends in a
        letter of weight above x's, as weights are positive, and its terms
        differ in that letter.  So each entry is one signed structure
        constant, nonzero as ``A.mult`` returns it (over GF(p) an unreduced
        int, never a multiple of p), and nothing is summed.
        """
        if p <= 1 or not self.words(p, grade):
            return []
        if (p, grade) in self._cols:
            return self._cols[(p, grade)]
        self.words(p - 1, grade)   # fills the blocks of the target slice
        A = self.A
        targets = self._blocks[(p - 1, grade)]
        sign = -1 if p % 2 else 1   # (-1)^(p-2), the sign of the last merge
        cols = []
        for g in self._blocks[(p, grade)]:
            rest = tuple(map(sub, grade, g))
            below = self.differential_columns(p - 1, rest)
            inner = [(h, s_h, n_h) + targets.get(add_grades(h, g), (0, 0))
                     for h, (s_h, n_h) in self._blocks[(p - 1, rest)].items()]
            s_g, n_g = targets.get(g, (0, 0))
            for a in range(A.components[g]):
                shift = s_g + a * n_g
                for h, s_h, n_h, s_gh, n_gh in inner:
                    for b in range(A.components[h]):
                        # v + ((h, b),) at place i has v at place i - first
                        first = s_h + b * n_h
                        merged = [(s_gh + x * n_gh - first, sign * c)
                                  for x, c in A.mult(h, b, g, a).items()]
                        for i in range(first, first + n_h):
                            col = ({k + shift: c for k, c in below[i].items()}
                                   if below else {})
                            for offset, c in merged:
                                col[offset + i] = c
                            cols.append(col)
        self._cols[(p, grade)] = cols
        return cols

    def rank(self, p: int, grade: tuple) -> int:
        return self._ranks.rank(p, grade, self.differential_columns, self.dim)

    def betti(self, p: int, grade: tuple) -> int:
        return self._ranks.homology(p, grade, self.differential_columns, self.dim)

    def total_grades(self, p_max: int, weight_max: int) -> dict:
        """Reachable total grades per homological index within the weight bound."""
        A = self.A
        singles = [g for g in self.grades if A.weight(g) <= weight_max]
        levels = {0: {self.zero}, 1: set(singles)}
        for p in range(2, p_max + 1):
            prev = levels[p - 1]
            cur = set()
            for g1 in prev:
                for g2 in singles:
                    g = add_grades(g1, g2)
                    if A.weight(g) <= weight_max:
                        cur.add(g)
            levels[p] = cur
        return levels


class ResolutionEngine:
    """Minimal graded free resolution of k over A, one homological step at a time.

    Inside the engine a grade is an int, under an additive radix code that
    keeps the order of the tuples.  The basis of F_p in grade G comes in
    blocks, one per generator k below G: k times the basis of A_g, g = G
    minus the grade of k (g = 0: k itself).  A grade is ``[weight, size,
    offsets]``, and x in A_g times k sits at ``offsets[k] + x``.  A new
    generator's blocks go to the end of their grades, up to the weight its
    step reaches.

    Step p visits the grades where F_{p-1} is nonzero, by increasing weight.
    At a grade G, the images of the basis elements of F_p that are not
    generators (a component times the map of a lower generator) span
    m * Z_{p-1}(G), with Z_{p-1} the kernel of the differential of F_{p-1}.
    The cycles of Z_{p-1}(G) independent of that span are the new generators
    at G, and the dependencies among the images are Z_p(G), which the next
    step reads: as vectors, or as a number where it only counts them.  With
    no image at G, every cycle is a generator, uninserted.  ``_act`` builds
    the images block by block from a table of the nonzero products of A, on
    plain ints for QQ and GF(p) alike, and one ``IntEchelon`` per grade and
    step takes them.  Cycles are its relations: primitive integer vectors
    over QQ, residues normalized to 1 at their own column over GF(p).
    """

    def __init__(self, A: GradedAlgebraData):
        self.A = A
        self.field = A.field
        self.zero = _zero_grade(A)
        self.gens: list = [[self.zero]]   # gens[p]: grades of the generators of F_p
        comps = A.components
        # a grade of weight <= A.bound sums at most `most` components, so each
        # coordinate (nonnegative, as in the bar engine) stays below its radix
        weights = sorted((A.weight(g), g) for g in comps)
        most = max(1, A.bound // weights[0][0]) if comps else 0
        self._radices = [most * max([0] + [g[i] for g in comps]) + 1
                         for i in range(len(self.zero))]
        self._scales = [prod(self._radices[i + 1:]) for i in range(len(self._radices))]
        codes = {g: sum(map(mul, g, self._scales)) for g in comps}
        # (weight, coded grade, dim) of the zero grade and then the components
        self._blocks = [(0, 0, 1)] + [(w, codes[g], comps[g]) for w, g in weights]
        self._grade = {0: (self.zero, 1)} | {codes[g]: (g, comps[g]) for g in comps}
        self._table: dict = {}   # (g, g2, b) -> [(a, ((x, c), ...))]: the nonzero a * b

    def _decode(self, code: int) -> tuple:
        return tuple(code // s % r for s, r in zip(self._scales, self._radices))

    def _act(self, g: int, vec: list, offsets: dict) -> list:
        """Component g's block on a generator with map ``vec``: its dim A_g
        images, as columns over the grade whose blocks start at ``offsets``."""
        table, (t, n) = self._table, self._grade[g]
        cols = [{} for _ in range(n)]
        for k, g2, b, c in vec:
            row = table.get((g, g2, b))
            if row is None:   # each a with a nonzero a * b, and its terms
                row = table[(g, g2, b)] = (
                    [(a, tuple(m.items())) for a in range(n)
                     if (m := self.A.mult(t, a, self._grade[g2][0], b))] if g2
                    else [(a, ((a, 1),)) for a in range(n)])   # b is k itself
            if row:   # the block of k exists at a grade where a * b can be nonzero
                o = offsets[k]
            for a, terms in row:
                col = cols[a]
                for x, cx in terms:
                    x += o
                    col[x] = col.get(x, 0) + c * cx
        return cols

    def _push(self, basis: dict, k: int, G: int, w: int, reach: int):
        """Add the blocks of generator k, at grade G of weight w, up to weight
        ``reach`` to ``basis``: grade -> [weight, size, offsets]."""
        for wg, g, n in self._blocks:
            if w + wg > reach:
                break
            slot = basis.get(G + g)
            if slot is None:
                basis[G + g] = [w + wg, n, {k: 0}]
            else:
                slot[2][k] = slot[1]
                slot[1] += n

    def extend(self, p_max: int, weight_max: int, total_bound: int | None = None):
        """Resolve to homological degree p_max and weight weight_max; with a
        total bound T, step p stops at weight T - p.

        That is exact for every entry with p + weight <= T: step p at weight w
        reads only step p - 1 at weights <= w.
        """
        if weight_max > self.A.bound:
            raise ValueError(f"weight bound {weight_max} beyond trusted "
                             f"bound {self.A.bound}")

        def reach(p):
            if p > p_max:
                return 0
            return weight_max if total_bound is None else min(weight_max,
                                                              total_bound - p)

        def counts_only(p, w):
            # step p neither keeps Z_p(G) nor reaches a product of a generator at G
            return w > reach(p + 1) and w + least > reach(p)

        least = self._blocks[1][0] if len(self._blocks) > 1 else 0
        self.gens = [[self.zero]]
        bases: dict = {}      # coded grade -> [weight, size, offsets] of F_{p-1}
        self._push(bases, 0, 0, 0, reach(0))
        codes = [0]           # codes[k]: grade of generator k of F_{p-1}
        # grade -> Z_{p-1}: relations over F_{p-1}(G), or their number where
        # step p only counts; absent: all of F_{p-1}(G)
        cycles: dict = {}
        for p in range(1, p_max + 1):
            gens: list = []   # grades of the generators of F_p
            maps: dict = {}   # k -> d(k) as terms (k2, g, b, c): c * b in A_g * k2
            new_bases: dict = {}
            new_cycles: dict = {}
            for w, G in sorted((w, G) for G, (w, _, _) in bases.items()
                               if 0 < w <= reach(p)):
                cyc = cycles.get(G)
                if cyc is not None and not cyc:
                    # Z_{p-1}(G) = 0: no generator here, and d_p vanishes on
                    # F_p(G), which the next step reads as all cycles
                    continue
                _, size, offsets = bases[G]
                keep = w <= reach(p + 1)
                track = keep and not counts_only(p + 1, w)
                # images of the moved basis, tracked for Z_p(G) when read
                ech = IntEchelon(self.field.p, track=track)
                relations, i = [], 0
                for k in new_bases.get(G, (0, 0, ()))[2]:
                    for image in self._act(G - gens[k], maps[k], offsets):
                        relation = ech.insert(image, tag=i) if image else {i: 1}  # zero image
                        if track and relation is not None:
                            relations.append(relation)
                        i += 1
                if keep:
                    new_cycles[G] = relations if track else i - ech.rank
                # the span is inside Z_{p-1}(G): the rank gap counts new generators
                missing = (size if cyc is None else cyc if type(cyc) is int
                           else len(cyc)) - ech.rank
                if counts_only(p, w) or not missing:
                    gens += [G] * missing
                    continue
                if cyc is None:
                    cyc = ({i: 1} for i in range(size))
                # with no image in the echelon, the cycles are independent:
                # relations of a tracked echelon, or unit vectors
                fresh = not ech.rank
                ech.track = False   # cycles are only tested for independence
                read = w + least <= reach(p)   # a product of a generator here is in reach
                starts, owners = list(offsets.values()), list(offsets)
                for z in cyc:
                    if not missing:
                        break
                    if fresh or ech.insert(z) is None:
                        self._push(new_bases, len(gens), G, w, reach(p))
                        vec = maps[len(gens)] = []
                        gens.append(G)
                        for pos, c in z.items() if read else ():
                            j = bisect_right(starts, pos) - 1
                            vec.append((owners[j], G - codes[owners[j]],
                                        pos - starts[j], c))
                        missing -= 1
            decoded = {G: self._decode(G) for G in set(gens)}
            self.gens.append([decoded[G] for G in gens])
            bases, cycles, codes = new_bases, new_cycles, gens

    def betti_entries(self, p_max: int, weight_max: int,
                      total_bound: int | None = None) -> dict:
        self.extend(p_max, weight_max, total_bound)
        return {(0, self.zero): 1, **Counter((p, G) for p in range(1, p_max + 1)
                                             for G in self.gens[p])}


def _bar_cost_estimate(A: GradedAlgebraData, p_max: int, weight_max: int) -> int:
    """Largest bar-slice word count (by weight only), cheap upper-level estimate."""
    dims_by_weight: dict = {}
    for g, d in A.components.items():
        w = A.weight(g)
        if w <= weight_max:
            dims_by_weight[w] = dims_by_weight.get(w, 0) + d
    level = {0: 1}
    worst = 0
    for _ in range(p_max + 1):
        nxt: dict = {}
        for w0, c0 in level.items():
            for w, d in dims_by_weight.items():
                if w0 + w <= weight_max:
                    nxt[w0 + w] = nxt.get(w0 + w, 0) + c0 * d
        level = nxt
        if level:
            worst = max(worst, max(level.values()))
    return worst


BAR_AUTO_LIMIT = 4000


def betti_table(A: GradedAlgebraData, p_max: int, weight_max: int,
                engine: str = "auto", total_bound: int | None = None) -> BettiTable:
    """Betti numbers beta_{p, grade} for p <= p_max and weight <= weight_max.

    ``total_bound`` restricts to p + weight <= total_bound.  Engines: "bar",
    "resolution", or "auto" (bar unless its largest slice looks too big).
    """
    if weight_max > A.bound:
        raise ValueError(f"weight bound {weight_max} beyond trusted bound {A.bound}")
    if engine == "auto":
        engine = ("bar" if _bar_cost_estimate(A, p_max + 1, weight_max)
                  <= BAR_AUTO_LIMIT else "resolution")
    if engine == "resolution":
        eng = ResolutionEngine(A)
        entries = eng.betti_entries(p_max, weight_max, total_bound)
        return BettiTable(entries, p_max, weight_max, "resolution", total_bound)
    if engine != "bar":
        raise ValueError(f"unknown engine {engine!r}")
    eng = BarEngine(A)
    entries: dict = {(0, eng.zero): 1}
    levels = eng.total_grades(p_max, weight_max)
    for p in range(1, p_max + 1):
        for grade in sorted(levels[p]):
            # total_grades keeps p <= p_max and weights <= weight_max
            if total_bound is not None and p + A.weight(grade) > total_bound:
                continue
            v = eng.betti(p, grade)
            if v:
                entries[(p, grade)] = v
    return BettiTable(entries, p_max, weight_max, "bar", total_bound)


@dataclass
class Verdict:
    """A bounded decision with an explicit witness when negative."""

    status: str
    bound: dict
    witness: tuple | None = None
    details: dict = dc_field(default_factory=dict)

    @property
    def positive(self) -> bool:
        return self.witness is None

    def to_json(self) -> dict:
        return {"status": self.status, "bound": self.bound,
                "witness": list(self.witness) if self.witness else None,
                "details": {str(k): v for k, v in self.details.items()}}


def is_koszul_up_to(A: GradedAlgebraData, p_max: int, weight_max: int,
                    engine: str = "auto") -> Verdict:
    """Diagonality of beta_{p,q} for single-degree grades, up to the bounds."""
    table = betti_table(A, p_max, weight_max, engine=engine)
    bound = {"p_max": p_max, "weight_max": weight_max}
    for (p, g), v in table.items():
        q = g[0] if g else 0
        if v and p != q:
            return Verdict("NOT-KOSZUL", bound, witness=(p, q),
                           details={"entry": v})
    return Verdict("KOSZUL-UP-TO-BOUND", bound)


def is_strand_koszul_up_to(H, p_max: int, bound: int, trigraded: bool = False,
                           engine: str = "auto", tri: dict | None = None) -> Verdict:
    """Strand-Koszulness of a Koszul homology algebra, up to bounds.

    Default route: Koszulness of the strand totalization (``bound`` = strand
    degree).  With ``trigraded=True`` the test runs on the trigraded Betti
    numbers instead (``bound`` = internal degree) and a witness is a tridegree
    (p, i, j) with p != j - i; ``tri``, when given, must be
    ``trigraded_betti(H, p_max, bound)``.
    """
    if not trigraded:
        A = H.algebra_data("strand")
        inner = is_koszul_up_to(A, p_max, bound, engine=engine)
        status = ("STRAND-KOSZUL-UP-TO-BOUND" if inner.positive
                  else "NOT-STRAND-KOSZUL")
        return Verdict(status, {"p_max": p_max, "strand_max": bound},
                       witness=inner.witness, details=inner.details)
    if tri is None:
        tri = trigraded_betti(H, p_max, bound, engine=engine)
    bound_desc = {"p_max": p_max, "internal_max": bound}
    for (p, i, j) in sorted(tri, key=lambda k: (k[2], k[0], k[1])):
        if tri[(p, i, j)] and p != j - i and (p, i, j) != (0, 0, 0):
            return Verdict("NOT-STRAND-KOSZUL", bound_desc, witness=(p, i, j),
                           details={"entry": tri[(p, i, j)]})
    return Verdict("STRAND-KOSZUL-UP-TO-BOUND", bound_desc)


def trigraded_betti(H, p_max: int, j_max: int, engine: str = "auto") -> dict:
    """beta^H_{p,i,j} as a dict keyed (p, i, j)."""
    mode = "multigraded" if H.multigraded else "bigraded"
    A = H.algebra_data(mode)
    return betti_table(A, p_max, j_max, engine=engine).trigraded()


@dataclass
class ShapeReport:
    hypothesis_ok: bool
    violations: list
    status: str


def shape_check(A: GradedAlgebraData, p_max: int, j_max: int,
                engine: str = "auto") -> ShapeReport:
    """For bigraded algebras with m concentrated in i > 0, j - i > 0: every
    nonzero beta_{p,i,j} must satisfy i >= p and j - i >= p."""
    bad_hypothesis = [g for g in A.components if not (g[0] > 0 and g[1] - g[0] > 0)]
    if bad_hypothesis:
        return ShapeReport(False, sorted(bad_hypothesis), "HYPOTHESIS-VIOLATED")
    table = betti_table(A, p_max, j_max, engine=engine)
    violations = []
    for (p, g), v in table.items():
        if p == 0:
            continue
        i, j = g
        if v and not (i >= p and j - i >= p):
            violations.append((p, i, j, v))
    return ShapeReport(True, violations, "PASS" if not violations else "FAIL")


def poincare_K_from_R(P_R: SeriesTrunc, n: int) -> SeriesTrunc:
    """Bigraded Poincare series over the Koszul complex, via exact division
    of the ring-level series by (1 + st)^n; coefficients must come out as
    nonnegative integers or the inputs were inconsistent."""
    quotient = P_R.divide_exact(SeriesTrunc.binomial_power(n, P_R.region))
    for k, v in quotient.coeffs.items():
        if v < 0:
            raise ValueError(f"negative coefficient at {k} after division")
    return quotient
