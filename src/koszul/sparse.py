"""Exact sparse linear algebra: ranks, kernels, membership, diagonalization.

Vectors are dicts ``position -> coefficient`` with no stored zeros.  The rank
and kernel engines insert columns one at a time into an online echelon whose
stored columns each have their minimal position as pivot; reducing an incoming
column is then a single ascending pass over its support.  Over the rationals
the elimination runs on integer-scaled columns with gcd stripping, which keeps
the inner loop in machine-int territory for the matrices that occur here
(mostly +-1 entries).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd

from .fields import QQ, Field


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

    def mul_vec(self, x: dict) -> dict:
        out: dict = {}
        for (r, c), v in self.entries.items():
            xc = x.get(c)
            if xc:
                out[r] = out.get(r, self.field.zero) + v * xc
        return {r: v for r, v in out.items() if v}

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            self.ncols, self.nrows,
            {(c, r): v for (r, c), v in self.entries.items()}, self.field)

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
    """Online integer column echelon, exact over the rationals.

    Each stored column's minimal position is its pivot.  ``insert`` either
    keeps the reduced column (independent; returns None) or returns the
    integer combination of previously inserted tags that kills it.
    """

    __slots__ = ("pivots", "track")

    def __init__(self, track: bool = False):
        self.pivots: dict = {}  # pos -> (column dict, pivot value, combo dict or None)
        self.track = track

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, col: dict, tag=None):
        vec = dict(col)
        combo = {tag: 1} if self.track else None
        heap = list(vec)
        heapq.heapify(heap)
        dirty = 0
        while heap:
            pos = heapq.heappop(heap)
            a = vec.get(pos)
            if not a:
                vec.pop(pos, None)
                continue
            hit = self.pivots.get(pos)
            if hit is None:
                # pos is the minimal surviving position: new pivot column
                _strip(vec, combo)
                if vec[pos] < 0:
                    vec = {k: -v for k, v in vec.items()}
                    if combo is not None:
                        combo = {k: -v for k, v in combo.items()}
                self.pivots[pos] = (vec, vec[pos], combo)
                return None
            cvec, p, ccombo = hit
            del vec[pos]
            if p != 1:
                for k in vec:
                    vec[k] *= p
                if combo is not None:
                    for k in combo:
                        combo[k] *= p
                dirty += 1
            for k, v in cvec.items():
                if k == pos:
                    continue
                if k in vec:
                    w = vec[k] - a * v
                    if w:
                        vec[k] = w
                    else:
                        del vec[k]
                else:
                    vec[k] = -a * v
                    heapq.heappush(heap, k)
            if combo is not None and ccombo is not None:
                for k, v in ccombo.items():
                    w = combo.get(k, 0) - a * v
                    if w:
                        combo[k] = w
                    else:
                        combo.pop(k, None)
            if dirty >= 8:
                _strip(vec, combo)
                dirty = 0
        if vec:
            raise AssertionError("echelon insertion left unprocessed entries")
        return combo if self.track else {}


class FieldEchelon:
    """Online echelon over a Field with pivot-normalized columns.

    With ``track="origin"`` a reduction's combo expresses the vector over the
    originally inserted columns (dependency extraction).  With
    ``track="stored"`` it is expressed over the stored, normalized pivot
    columns instead, and columns inserted with ``tag=None`` are silently
    modded out -- exactly what quotient-space coordinates need.

    Over GF(p) the stored columns and combos are plain ints in ``range(p)``
    and the inner loop reduces with ``% p`` only when it reads an entry; field
    elements are made only for what is handed out (residuals, combos and
    ``column``).  A stored column is kept as its tail, the entries past its
    pivot; the pivot entry itself is 1.
    """

    __slots__ = ("field", "p", "pivots", "track")

    def __init__(self, field: Field, track: str | bool = False):
        self.field = field
        self.p = field.p
        self.pivots: dict = {}  # pos -> (tail dict, combo dict)
        self.track = "origin" if track is True else track

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def column(self, pos) -> dict:
        """The stored, normalized column whose pivot is ``pos``."""
        F = self.field
        return {pos: F.one} | {k: F(v) for k, v in self.pivots[pos][0].items()}

    def _reduce(self, col: dict):
        """Reduction in the internal representation; see ``reduce``."""
        p = self.p
        if p:
            vec = {k: r for k, v in col.items() if (r := int(v) % p)}
        else:
            vec = {k: v for k, v in col.items() if v}
        combo: dict = {}
        pivots = self.pivots
        track = self.track
        heap = list(vec)
        heapq.heapify(heap)
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
                continue
            tail, ccombo = hit
            del vec[pos]
            for k, v in tail.items():
                w = vec.get(k)
                if w is None:
                    vec[k] = -a * v
                    heapq.heappush(heap, k)
                else:
                    vec[k] = w - a * v
            if track:
                for k, v in ccombo.items():
                    combo[k] = combo.get(k, 0) + a * v
        if p:
            combo = {k: r for k, v in combo.items() if (r := v % p)}
        else:
            combo = {k: v for k, v in combo.items() if v}
        return vec, combo

    def _export(self, vec: dict) -> dict:
        if not self.p:
            return vec
        F = self.field
        return {k: F(v) for k, v in vec.items()}

    def reduce(self, col: dict):
        """Return ``(residual, combo)`` with residual = col - sum(combo[t] * column_t)."""
        vec, combo = self._reduce(col)
        return self._export(vec), self._export(combo)

    def insert(self, col: dict, tag=None):
        """Reduce and, if independent, store the normalized residual.

        Returns ``(residual, combo)`` from the reduction; the residual is empty
        exactly when col was dependent on the stored columns.
        """
        p = self.p
        vec, combo = self._reduce(col)
        if vec:
            pos = min(vec)
            if p:
                inv = pow(vec[pos], -1, p)
                tail = {k: v * inv % p for k, v in vec.items() if k != pos}
            else:
                inv = self.field.inv(vec[pos])
                tail = {k: v * inv for k, v in vec.items() if k != pos}
            base = {}
            if self.track == "origin":
                base[tag] = inv
                for k, v in combo.items():
                    base[k] = (-inv * v) % p if p else -inv * v
            elif self.track == "stored" and tag is not None:
                base[tag] = 1
            self.pivots[pos] = (tail, base)
        return self._export(vec), self._export(combo)


def _integer_columns(columns):
    """Scale rational columns to integer columns; returns (int columns, scales)."""
    scaled = []
    scales = []
    for col in columns:
        denom = 1
        for v in col.values():  # an int or a Fraction
            denom = denom * v.denominator // gcd(denom, v.denominator)
        icol = {}
        for k, v in col.items():
            w = v.numerator * (denom // v.denominator)
            if w:
                icol[k] = w
        scaled.append(icol)
        scales.append(denom)
    return scaled, scales


def rank_of_columns(columns, field: Field = QQ) -> int:
    """Rank of the matrix whose columns are the given sparse vectors."""
    if field.p != 0:
        ech = FieldEchelon(field)
        for col in columns:
            ech.insert(col)
        return ech.rank
    ech = IntEchelon()
    icols, _ = _integer_columns(columns)
    for col in icols:
        ech.insert(col)
    return ech.rank


def kernel_of_columns(columns, field: Field = QQ):
    """Return (rank, kernel basis) for the matrix with the given columns.

    Kernel vectors are dicts ``col_index -> field element``, normalized so the
    lowest-index entry is 1; they appear in insertion (column) order.
    """
    columns = list(columns)
    kernel = []
    if field.p != 0:
        ech = FieldEchelon(field, track=True)
        for j, col in enumerate(columns):
            vec, combo = ech.insert(col, tag=j)
            if not vec:
                combo[j] = field.one
                kernel.append(_normalize_kernel({k: field.neg(v) for k, v in combo.items()}
                                                | {j: field.one}, field))
        return ech.rank, kernel
    ech = IntEchelon(track=True)
    icols, scales = _integer_columns(columns)
    for j, col in enumerate(icols):
        combo = ech.insert(col, tag=j)
        if combo is not None:
            vec = {k: Fraction(v) * scales[k] for k, v in combo.items() if v}
            kernel.append(_normalize_kernel(vec, field))
    return ech.rank, kernel


def _normalize_kernel(vec: dict, field: Field) -> dict:
    vec = {k: v for k, v in vec.items() if v}
    lead = min(vec)
    inv = field.inv(field(vec[lead]))
    return {k: field.mul(inv, field(v)) for k, v in sorted(vec.items())}


def rank_kernel(m: SparseMatrix):
    """Rank and kernel basis of a sparse matrix; rank + len(kernel) == ncols."""
    rank, kernel = kernel_of_columns(m.columns(), m.field)
    return rank, kernel


def solve_in_image(m: SparseMatrix, b) -> dict | None:
    """Solve m*x = b exactly; returns x as a sparse dict, or None if unsolvable."""
    if isinstance(b, (list, tuple)):
        if len(b) != m.nrows:
            raise ValueError(f"vector length {len(b)} != {m.nrows} rows")
        b = {i: v for i, v in enumerate(b) if v}
    else:
        if any(not 0 <= k < m.nrows for k in b):
            raise ValueError("vector index out of range")
        b = {k: v for k, v in b.items() if v}
    field = m.field
    columns = m.columns()
    if field.p != 0:
        ech = FieldEchelon(field, track=True)
        for j, col in enumerate(columns):
            ech.insert(col, tag=j)
        vec, combo = ech.reduce({k: field(v) for k, v in b.items()})
        if vec:
            return None
        return {k: v for k, v in combo.items() if v}
    ech = IntEchelon(track=True)
    icols, scales = _integer_columns(columns)
    for j, col in enumerate(icols):
        ech.insert(col, tag=j)
    bi, bscales = _integer_columns([{k: field(v) for k, v in b.items()}])
    combo = ech.insert(bi[0], tag="b")
    if combo is None:
        return None
    cb = combo.pop("b")
    # combo says: sum(combo[j] * scales[j] * col_j) + cb * bscale * b == 0
    x = {}
    for j, v in combo.items():
        if v:
            x[j] = Fraction(-v * scales[j], cb * bscales[0])
    return x


def diagonalize_symmetric_form(g: SparseMatrix) -> SparseMatrix:
    """Change of basis P with P^T g P diagonal, for symmetric g over char != 2."""
    field = g.field
    if field.characteristic == 2:
        raise ValueError("symmetric diagonalization needs characteristic != 2")
    if g.nrows != g.ncols:
        raise ValueError("form matrix must be square")
    n = g.nrows
    G = [[field(g.entries.get((i, j), 0)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if G[i][j] != G[j][i]:
                raise ValueError("form matrix is not symmetric")
    P = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]

    def col_op(dst, src, c):
        # e_dst <- e_dst + c * e_src, applied to G (congruence) and P
        for r in range(n):
            G[r][dst] += c * G[r][src]
        for r in range(n):
            G[dst][r] += c * G[src][r]
        for r in range(n):
            P[r][dst] += c * P[r][src]

    def col_swap(a, b):
        for r in range(n):
            G[r][a], G[r][b] = G[r][b], G[r][a]
        G[a], G[b] = G[b], G[a]
        P_cols = [(P[r][a], P[r][b]) for r in range(n)]
        for r in range(n):
            P[r][a], P[r][b] = P_cols[r][1], P_cols[r][0]

    for k in range(n):
        if not G[k][k]:
            pivot = next((j for j in range(k + 1, n) if G[j][j]), None)
            if pivot is not None:
                col_swap(k, pivot)
            else:
                off = next((j for j in range(k + 1, n) if G[k][j]), None)
                if off is None:
                    continue
                col_op(k, off, field.one)  # makes G[k][k] = 2*G[k][off] != 0
        d = G[k][k]
        for j in range(k + 1, n):
            if G[k][j]:
                col_op(j, k, field.neg(field.div(G[k][j], d)))
    entries = {(i, j): P[i][j] for i in range(n) for j in range(n) if P[i][j]}
    return SparseMatrix(n, n, entries, field)


def symplectic_basis(g: SparseMatrix) -> SparseMatrix:
    """Change of basis P with P^T g P in standard symplectic block form.

    Requires g alternating (zero diagonal, g^T = -g) and nondegenerate.
    """
    field = g.field
    n = g.nrows
    if n != g.ncols:
        raise ValueError("form matrix must be square")
    G = [[field(g.entries.get((i, j), 0)) for j in range(n)] for i in range(n)]
    for i in range(n):
        if G[i][i]:
            raise ValueError("form is not alternating")
        for j in range(n):
            if G[i][j] != field.neg(G[j][i]):
                raise ValueError("form is not alternating")
    if n % 2:
        raise ValueError("alternating nondegenerate form needs even rank")

    def pair(u, v):
        total = field.zero
        for i, ui in enumerate(u):
            if ui:
                for j, gij in enumerate(G[i]):
                    if gij and v[j]:
                        total += ui * gij * v[j]
        return total

    basis = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    out = []
    while basis:
        e = basis.pop(0)
        partner = next((i for i, v in enumerate(basis) if pair(e, v)), None)
        if partner is None:
            raise ValueError("form is degenerate")
        f = basis.pop(partner)
        a = pair(e, f)
        f = [field.div(v, a) for v in f]
        reduced = []
        for v in basis:
            cf, ce = pair(e, v), pair(f, v)
            # subtract components along the (e, f) hyperbolic plane
            w = [v[i] - cf * f[i] + ce * e[i] for i in range(n)]
            reduced.append(w)
        basis = reduced
        out.append(e)
        out.append(f)
    entries = {(i, j): out[j][i] for j in range(n) for i in range(n) if out[j][i]}
    return SparseMatrix(n, n, entries, field)
