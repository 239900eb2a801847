"""Exact sparse linear algebra: ranks, kernels, membership, diagonalization.

Vectors are dicts ``position -> coefficient`` with no stored zeros.  Every
rank, kernel, membership and quotient-coordinate computation runs through one
online echelon, ``IntEchelon``, parameterized by the modulus: columns are
inserted one at a time, each stored column has its least position as pivot,
and reducing an incoming column is a single ascending pass over its support.
An elimination that only counts, ``rank_of_columns``, is free to pick its
order: it reads int positions negated, so each column is pivoted at its
largest position, which on the complexes here makes far less fill.  Every
elimination that tracks relations or coordinates keeps the natural order.
The loop runs on plain ints: over the rationals on integer-scaled columns with
gcd stripping, which keeps it in machine-int territory for the matrices that
occur here (mostly +-1 entries), over GF(p) on residues.  ``FieldEchelon``
keeps its residuals on ints too; only ``reduce`` and ``column`` hand out
field elements.  Symmetric and alternating forms are brought to normal form
by one congruence loop on sparse column vectors, ``_congruence``.  The ranks
of a complex's differential are taken once, by one rule, in ``ComplexRanks``,
which also certifies the ranks it takes mod P = ``MODULAR.p`` over QQ: of
slices with fractional entries, and of the Koszul complex of a QQ ring's
certified twin over GF(P).
"""

from __future__ import annotations

import heapq
import itertools
from math import gcd, lcm

from .fields import MODULAR, QQ, Field


class SparseMatrix:
    """Immutable sparse matrix; ``entries`` maps ``(row, col)`` to a nonzero scalar."""

    __slots__ = ("nrows", "ncols", "entries", "field")

    def __init__(self, nrows: int, ncols: int, entries: dict, field: Field = QQ):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimensions")
        clean = {}
        for (r, c), v in entries.items():
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValueError(f"entry index {(r, c)} out of range")
            v = field(v)
            if v:
                clean[(r, c)] = v
        self.nrows = nrows
        self.ncols = ncols
        self.entries = clean
        self.field = field

    @classmethod
    def from_rows(cls, rows, field: Field = QQ) -> "SparseMatrix":
        entries = {}
        ncols = max((len(r) for r in rows), default=0)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = v
        return cls(len(rows), ncols, entries, field)

    def columns(self) -> list[dict]:
        cols = [dict() for _ in range(self.ncols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.entries == other.entries)

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, {len(self.entries)} entries)"


def _strip(vec: dict, combo: dict | None) -> None:
    """Divide a vector (and its tracking combo) by the gcd of all entries."""
    g = 0
    for v in vec.values():
        g = gcd(g, v)
        if g == 1:
            break
    if combo and g != 1:
        for v in combo.values():
            g = gcd(g, v)
            if g == 1:
                break
    if g > 1:
        for k in vec:
            vec[k] //= g
        if combo:
            for k in combo:
                combo[k] //= g


class IntEchelon:
    """Online column echelon over plain ints, exact over QQ (``p == 0``) and
    over GF(p).

    Columns come in as dicts of ints and Fractions and are scaled to ints as
    they enter, by the lcm of their denominators.  A stored column is kept as
    its tail (the entries past its pivot, its least position) and its pivot
    value: over QQ a primitive integer vector with a positive pivot, over
    GF(p) residues with pivot 1.  Over GF(p) entries are reduced ``% p`` only
    when they are read, so an incoming int column is taken as it is.
    ``rank_of_columns`` reads its columns with int positions negated, and so
    pivots each at its largest position (see ``_RankEchelon``).

    A reduction keeps ``vec == sum(combo[t] * X_t)``, with ``combo`` seeded
    by the scale of the column itself.  With ``track``, the X_t are the
    inserted columns, each stored column carries its combo, and ``insert``
    returns the relation that kills a dependent column.  ``FieldEchelon``
    takes the stored columns, normalized to pivot 1, as its X_t instead.
    """

    __slots__ = ("p", "pivots", "track")

    def __init__(self, p: int = 0, track: bool = False):
        self.p = p
        self.pivots: dict = {}  # pos -> (tail dict, pivot value, combo dict or None)
        self.track = track

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def stored_columns(self):
        """Each stored column as ``(pivot, int vector)``: a nonzero multiple
        of the column, keyed by position like the inserted ones."""
        for pos, (tail, pv, _) in self.pivots.items():
            yield pos, {pos: pv} | tail

    def _scaled(self, col: dict) -> tuple:
        """``col`` as an int vector, and the factor it was scaled by: the lcm
        of its denominators.  Over GF(p) a rational column is thus read as
        that integer multiple of itself."""
        for v in col.values():
            if type(v) is not int:
                return _lcm_scaled(col)
        return dict(col), 1

    def _reduce(self, vec: dict, combo: dict | None, full: bool):
        """Eliminate the stored pivots from ``vec`` in place, by ascending
        position, updating ``combo`` along with it.

        Stops at the first position without a pivot and returns it, or with
        ``full`` reduces every pivot position away and returns the least
        remaining position; None if nothing remains.
        """
        p = self.p
        pivots = self.pivots
        heap = list(vec)
        heapq.heapify(heap)
        lead = None
        dirty = 0
        # every position in vec has one heap entry: an entry is only added
        # past the popped position, and a cancelled one stays until popped
        while heap:
            pos = heapq.heappop(heap)
            a = vec[pos] % p if p else vec[pos]
            if not a:
                del vec[pos]
                continue
            hit = pivots.get(pos)
            if hit is None:
                # no pivot here: the entry is final
                vec[pos] = a
                if not full:
                    return pos
                if lead is None:
                    lead = pos
                continue
            tail, pv, ccombo = hit
            del vec[pos]
            if pv != 1:
                for k in vec:
                    vec[k] *= pv
                if combo is not None:
                    for k in combo:
                        combo[k] *= pv
                dirty += 1
            for k, v in tail.items():
                w = vec.get(k)
                if w is None:
                    vec[k] = -a * v
                    heapq.heappush(heap, k)
                else:
                    vec[k] = w - a * v
            if combo is not None:
                for k, v in ccombo.items():
                    combo[k] = combo.get(k, 0) - a * v
            if dirty >= 8:
                _strip(vec, combo)
                dirty = 0
        return lead

    def _normalize(self, pos, vec: dict, combo: dict | None) -> tuple:
        """A reduced vector led by ``pos`` (and its combo) as a stored column:
        ``(tail, pivot value, combo)``."""
        p = self.p
        if p:
            inv = pow(vec.pop(pos), -1, p)
            tail = {k: r for k, v in vec.items() if (r := v * inv % p)}
            if combo is not None:
                combo = {k: r for k, v in combo.items() if (r := v * inv % p)}
            return tail, 1, combo
        _strip(vec, combo)
        pv = vec.pop(pos)
        if pv < 0:
            pv = -pv
            vec = {k: -v for k, v in vec.items()}
            if combo is not None:
                combo = {k: -v for k, v in combo.items()}
        return vec, pv, combo

    def insert(self, col: dict, tag=None):
        """Store ``col`` if it is independent of the stored columns and
        return None; otherwise return the relation that kills it.

        With ``track`` the relation is ``{tag: c} | {t: c_t}`` with
        ``c * col + sum(c_t * col_t) == 0`` over the earlier columns: primitive
        integers with ``c > 0`` over QQ, residues with ``c == 1`` over GF(p).
        Untracked, a dependent column returns ``{}``.
        """
        vec, scale = self._scaled(col)
        if self.track and self.p and not scale % self.p:
            raise ZeroDivisionError(f"a denominator of column {tag!r} vanishes mod {self.p}")
        combo = {tag: scale} if self.track else None
        pos = self._reduce(vec, combo, False)
        if pos is not None:
            self.pivots[pos] = self._normalize(pos, vec, combo)
            return None
        if combo is None:
            return {}
        if self.p:
            return {t: r for t, c in combo.items() if (r := c % self.p)}
        g = gcd(*combo.values())
        return {t: c // g for t, c in combo.items() if c}


_COL = object()  # combo key of the reduced column's own scale


class FieldEchelon(IntEchelon):
    """Quotient-space coordinates over a Field, on the ``IntEchelon`` loop.

    Reductions are full: the residual is zero at every pivot.  Combos are
    coordinates over the stored columns normalized to pivot 1 (``column``);
    columns inserted with ``tag=None`` take no coordinate, so they are
    modded out.  ``residual`` and ``insert`` stay on ints; ``reduce`` and
    ``column`` hand out field elements.
    """

    __slots__ = ("field",)

    def __init__(self, field: Field):
        super().__init__(field.p)
        self.field = field

    def column(self, pos) -> dict:
        """The stored, normalized column whose pivot is ``pos``."""
        tail, pv, _ = self.pivots[pos]
        return {pos: self.field.one} | self._export(tail, pv)

    def _export(self, vec: dict, scale: int) -> dict:
        """``vec / scale`` as field elements, zeros dropped."""
        F = self.field
        if scale == 1:
            return {k: x for k, v in vec.items() if (x := F(v))}
        inv = F.inv(F(scale))
        return {k: x for k, v in vec.items() if (x := F.mul(F(v), inv))}

    def _reduced(self, col: dict) -> tuple:
        """Full reduction of ``col``: ``(lead, vec, combo)``; ``combo[_COL]``
        is the scale of ``col`` in ``vec``."""
        vec, scale = self._scaled(col)
        combo = {_COL: scale}
        return self._reduce(vec, combo, True), vec, combo

    def residual(self, col: dict) -> tuple:
        """``(vec, scale)``: the residual of ``col`` is ``vec / scale``, with
        an int vector and ``scale > 0`` (1 over GF(p))."""
        _, vec, combo = self._reduced(col)
        return vec, combo[_COL]

    def reduce(self, col: dict):
        """Return ``(residual, combo)`` with residual = col - sum(combo[t] * column_t)."""
        _, vec, combo = self._reduced(col)
        scale = combo.pop(_COL)
        return (self._export(vec, scale),
                self._export({t: -c for t, c in combo.items()}, scale))

    def insert(self, col: dict, tag=None):
        """Reduce and, if independent, store the normalized residual.

        Returns ``(vec, scale)`` as ``residual`` does; ``vec`` is empty
        exactly when col was dependent on the stored columns.
        """
        lead, vec, combo = self._reduced(col)
        if lead is not None:
            tail, pv, _ = self._normalize(lead, dict(vec), None)  # vec is returned whole
            self.pivots[lead] = (tail, pv, {} if tag is None else {tag: pv})
        return vec, combo[_COL]


def _lcm_scaled(col: dict) -> tuple:
    """``col`` times the lcm of its denominators, as an int vector, and that lcm."""
    denom = 1
    for v in col.values():  # an int or a Fraction
        if v.denominator != 1:
            denom = lcm(denom, v.denominator)
    return {k: v.numerator * (denom // v.denominator) for k, v in col.items() if v}, denom


class _RankEchelon(IntEchelon):
    """The echelon of ``rank_of_columns``, which only counts: int positions
    enter negated, so that each column is pivoted at its largest position.
    A rank does not depend on the order.  On the Koszul and bar slices this
    order makes far less fill than the least position; positions of other
    types, such as class indices, keep their own order.  ``fractional``
    records whether a column was scaled by more than 1."""

    __slots__ = ("fractional",)

    def __init__(self, p: int):
        super().__init__(p)
        self.fractional = False

    def _scaled(self, col: dict) -> tuple:
        # one pass: the int test and the negated positions; residues are
        # taken as entries are read
        vec = {}
        try:
            for k, v in col.items():
                if type(v) is not int:
                    vec, scale = _lcm_scaled(col)
                    self.fractional |= scale != 1
                    return {-k: v for k, v in vec.items()}, scale
                vec[-k] = v
        except TypeError:  # positions that cannot be negated
            return super()._scaled(col)
        return vec, 1


def rank_of_columns(columns, field: Field = QQ, bound: int | None = None,
                    integral: bool = False) -> int | None:
    """Rank of the matrix whose columns are the given sparse vectors; with
    a ``bound`` at least that rank, the elimination stops once it reaches it.
    Each column is read once, and pivoted at its largest position
    (``_RankEchelon``).  With ``integral``, the elimination gives up at the
    first column with a non-integral entry and returns None."""
    ech = _RankEchelon(field.p)
    for col in columns:
        if ech.rank == bound:
            break
        ech.insert(col)
        if integral and ech.fractional:
            return None
    return ech.rank


class ComplexRanks:
    """Ranks of the differential of a graded complex, slice by slice, and its
    homology.

    The complex comes with each call: ``columns(p, g)`` are the columns of
    d_p on slice g of C_p, and ``size(p, g)`` is dim C_{p,g}.  Each rank is
    taken once, and ``homology(p, g) = size(p, g) - rank(p, g) -
    rank(p + 1, g)``.  A complex keeps one ``ComplexRanks`` and passes its
    own methods, which kept here would tie the two in a reference cycle that
    only the cyclic garbage collector frees.

    One rule over QQ for every rank r that is only known mod P = MODULAR.p,
    as r_P <= r.  Such are the ranks of a slice whose elimination over QQ
    meets a column with a non-integral entry before it reaches its bound
    (``rank_of_columns`` with ``integral``, so the slice is read once where
    it is integral): ``IntEchelon`` reads a column mod P as its multiple by
    the lcm of its denominators, which keeps its QQ rank, and the rank of an
    integer matrix mod P never exceeds its QQ rank.  With ``qq_columns``,
    such are all ranks: ``columns`` are then those of a certified twin over
    GF(P), the reduction of a complex over Z_(P) (see ``koszul.polyring``),
    and ``qq_columns(p, g)`` the same slice over QQ.  Every elimination stops
    at its d^2 = 0 bound, min(dim C_{p-1} - r(p-1), dim C_p - r(p+1)) with
    the neighbours' exact ranks or 0; no slice is built where it is 0.  An
    r_P(p) that reaches it is exact, and so is one that makes a neighbour's
    bound tight, dim C_p = r_P(p) + r(p+1) or dim C_{p-1} = r(p-1) + r_P(p),
    with that rank exact or its own r_P; a tight bound settles both.
    Otherwise the slice is ranked over QQ.  Every other slice, over GF(p) or
    settled by integral columns, is ranked directly.
    """

    __slots__ = ("field", "exact", "modular")

    def __init__(self, field: Field):
        self.field = field
        self.exact: dict = {}     # (p, g) -> rank
        self.modular: dict = {}   # (p, g) -> rank mod P, where one was taken

    def homology(self, p: int, g, columns, size, qq_columns=None) -> int:
        n = size(p, g)
        return n and (n - self.rank(p, g, columns, size, qq_columns)
                      - self.rank(p + 1, g, columns, size, qq_columns))

    def rank(self, p: int, g, columns, size, qq_columns=None) -> int:
        key = (p, g)
        r = self._bound(p, g, columns, size, qq_columns)
        if key in self.exact:
            return r
        # r is a rank mod P: certify it, or rank over QQ
        for k, n in ((p - 1, size(p - 1, g)), (p + 1, size(p, g))):
            other = self._bound(k, g, columns, size, qq_columns)
            if r + other == n:
                self.exact[(k, g)] = other
                break
        else:
            r = rank_of_columns((qq_columns or columns)(p, g), QQ)
        self.exact[key] = r
        return r

    def _bound(self, p: int, g, columns, size, qq_columns) -> int:
        """A lower bound for rank(p, g): the rank if known, else taken
        directly, or else, with ``qq_columns`` or on a fractional QQ slice,
        its rank mod P."""
        key = (p, g)
        hit = self.exact.get(key, self.modular.get(key))
        if hit is None:
            exact = self.exact
            top = min(size(p - 1, g) - exact.get((p - 1, g), 0),
                      size(p, g) - exact.get((p + 1, g), 0))
            cols = columns(p, g) if top else []
            hit = 0 if not cols else None if qq_columns else rank_of_columns(
                cols, self.field, top, integral=not self.field.p)
            if hit is None:  # on the twin, or a QQ slice with a non-integral entry
                hit = self.modular[key] = rank_of_columns(cols, MODULAR, top)
                if hit == top:
                    exact[key] = hit
            else:
                exact[key] = hit
        return hit


def kernel_of_columns(columns, field: Field = QQ):
    """Return (rank, kernel basis) for the matrix with the given columns.

    Kernel vectors are dicts ``col_index -> field element``, normalized so the
    lowest-index entry is 1; they appear in insertion (column) order.
    """
    ech = IntEchelon(field.p, track=True)
    kernel = []
    for j, col in enumerate(columns):
        relation = ech.insert(col, tag=j)
        if relation is not None:
            inv = field.inv(field(relation[min(relation)]))
            kernel.append({k: field.mul(inv, field(c))
                           for k, c in sorted(relation.items())})
    return ech.rank, kernel


def rank_kernel(m: SparseMatrix):
    """Rank and kernel basis of a sparse matrix; rank + len(kernel) == ncols."""
    return kernel_of_columns(m.columns(), m.field)


def solve_in_image(m: SparseMatrix, b) -> dict | None:
    """Solve m*x = b exactly; returns x as a sparse dict, or None if unsolvable."""
    if isinstance(b, (list, tuple)):
        if len(b) != m.nrows:
            raise ValueError(f"vector length {len(b)} != {m.nrows} rows")
        b = {i: v for i, v in enumerate(b) if v}
    elif any(not 0 <= k < m.nrows for k in b):
        raise ValueError("vector index out of range")
    field = m.field
    ech = IntEchelon(field.p, track=True)
    for j, col in enumerate(m.columns()):
        ech.insert(col, tag=j)
    relation = ech.insert({k: field(v) for k, v in b.items()}, tag="b")
    if relation is None:
        return None
    # relation: c_b * b + sum(c_j * col_j) == 0
    inv = field.inv(field(-relation.pop("b")))
    return {j: field.mul(inv, field(c)) for j, c in relation.items()}


def diagonalize_symmetric_form(g: SparseMatrix) -> SparseMatrix:
    """Change of basis P with P^T g P diagonal, for symmetric g over char != 2."""
    if g.field.characteristic == 2:
        raise ValueError("symmetric diagonalization needs characteristic != 2")
    if g.nrows != g.ncols:
        raise ValueError("form matrix must be square")
    if any(g.entries.get((j, i)) != x for (i, j), x in g.entries.items()):
        raise ValueError("form matrix is not symmetric")
    return _congruence(g, False)


def symplectic_basis(g: SparseMatrix) -> SparseMatrix:
    """Change of basis P with P^T g P in standard symplectic block form.

    Requires g alternating (zero diagonal, g^T = -g) and nondegenerate.
    """
    if g.nrows != g.ncols:
        raise ValueError("form matrix must be square")
    if any(i == j or g.entries.get((j, i)) != g.field.neg(x)
           for (i, j), x in g.entries.items()):
        raise ValueError("form is not alternating")
    if g.nrows % 2:
        raise ValueError("alternating nondegenerate form needs even rank")
    return _congruence(g, True)


def _congruence(g: SparseMatrix, alternating: bool) -> SparseMatrix:
    """The columns of P, split off the standard basis one block at a time.

    A block starts at the first remaining vector v, and the later vectors are
    projected off it.  A symmetric form splits off [v]: if <v, v> == 0, the
    first later vector of nonzero square is swapped in, or else the first
    later partner of v, if any, is added to v.  An alternating form splits
    off [v, f], f the first partner of v scaled to <v, f> == 1.
    """
    F = g.field
    cols = g.columns()

    def image(u: dict) -> dict:  # g u, so that <w, u> == dot(w, image(u))
        return F.collect((r, a * x) for c, a in u.items() for r, x in cols[c].items())

    def dot(w: dict, gu: dict):
        return F(sum(a * gu[k] for k, a in w.items() if k in gu))

    rest = [{k: F.one} for k in range(g.nrows)]
    out = []
    while rest:
        v = rest.pop(0)
        gv = image(v)
        if alternating:
            k = next((k for k, w in enumerate(rest) if dot(w, gv)), None)
            if k is None:
                raise ValueError("form is degenerate")
            a = F.neg(dot(rest[k], gv))  # <v, f> == -<f, v>
            f = {r: F.div(x, a) for r, x in rest.pop(k).items()}
            # w - <v, w> f + <f, w> v == w + <w, v> f - <w, f> v
            block = [(v, image(f)), (f, {r: F.neg(x) for r, x in gv.items()})]
        else:
            if not dot(v, gv):
                k = next((k for k, w in enumerate(rest) if dot(w, image(w))), None)
                if k is not None:
                    v, rest[k] = rest[k], v
                else:  # <v + w, v + w> == 2 <v, w>
                    w = next((w for w in rest if dot(w, gv)), {})
                    v = F.collect(itertools.chain(v.items(), w.items()))
                gv = image(v)
            d = dot(v, gv)
            block = [(v, {r: F.div(x, d) for r, x in gv.items()} if d else {})]
        out += (b for b, _ in block)
        # w minus dot(w, dual) b for each block vector b and its dual covector
        rest = [F.collect(itertools.chain(w.items(), (
            (r, -c * x) for b, dual in block if (c := dot(w, dual))
            for r, x in b.items()))) for w in rest]
    return SparseMatrix(g.nrows, g.ncols, dict(sorted(
        ((r, j), x) for j, col in enumerate(out) for r, x in col.items())), F)
