"""Independent oracles the tests check the fast paths against.

Everything here is deliberately naive: dense Fraction Gaussian elimination,
Macaulay matrices of every monomial multiple of the relations, and a
re-implementation of noncommutative rewriting that keeps the full trace so
ideal membership of p - reduce(p) can be verified by exact reconstruction.
"""

import itertools
from fractions import Fraction
from math import comb


def dense_rank_kernel(columns, nrows, p=0):
    """Rank and kernel of the matrix with the given sparse columns, by plain
    row reduction of the dense transpose with tracking; over GF(p) for p > 0
    (entries are then read as ints mod p), else over the rationals."""
    leads, kernel = dense_leading_rows(columns, nrows, p)
    return len(leads), kernel


def dense_leading_rows(columns, nrows, p=0):
    """The rows that lead some vector of the column span, and the kernel.
    They are the first nonzero rows of the reduced independent columns, as a
    combination of those is led by the least first row among its columns;
    with rows in descending monomial order, the span's leading monomials."""
    if p:
        def scalar(v):
            return int(v) % p

        def invert(v):
            return pow(v, -1, p)
    else:
        scalar = Fraction

        def invert(v):
            return 1 / v
    ncols = len(columns)
    rows = []
    for j, col in enumerate(columns):
        dense = [scalar(0)] * nrows
        for r, v in col.items():
            dense[r] = scalar(v)
        track = [scalar(0)] * ncols
        track[j] = scalar(1)
        rows.append((dense, track))
    pivots = []
    kernel = []
    for dense, track in rows:
        for pcol, (pdense, ptrack) in pivots:
            factor = dense[pcol]
            if factor:
                for k in range(nrows):
                    dense[k] -= factor * pdense[k]
                for k in range(ncols):
                    track[k] -= factor * ptrack[k]
                if p:
                    dense = [v % p for v in dense]
                    track = [v % p for v in track]
        pivot = next((k for k in range(nrows) if dense[k]), None)
        if pivot is None:
            kernel.append(track)
        else:
            inv = invert(dense[pivot])
            dense = [scalar(v * inv) for v in dense]
            track = [scalar(v * inv) for v in track]
            pivots.append((pivot, (dense, track)))
    return [pivot for pivot, _ in pivots], kernel


def dense_homology_dim(d_in_columns, d_out_columns, nrows_in, p=0):
    """dim ker(d_in) - rank(d_out) for one slice of a complex, over GF(p) for
    p > 0, else over the rationals."""
    rank_in, kernel = dense_rank_kernel(d_in_columns, nrows_in, p)
    nullity = len(kernel)
    rank_out, _ = dense_rank_kernel(d_out_columns, len(d_in_columns), p)
    return nullity - rank_out


def monomials_of_degree(n, d):
    return [m for m in itertools.product(range(d + 1), repeat=n) if sum(m) == d]


def macaulay_columns(relations, n, d):
    """The Macaulay matrix of homogeneous relations in degree d: the degree-d
    monomials, and every monomial multiple of a relation that has degree d as
    a sparse column over them.  Its rank is dim J_d, so dim R_d is the number
    of monomials minus the rank (``dense_rank_kernel``)."""
    monos = monomials_of_degree(n, d)
    index = {m: k for k, m in enumerate(monos)}
    columns = []
    for g in relations:
        shift = d - sum(next(iter(g)))
        if shift >= 0:
            for a in monomials_of_degree(n, shift):
                columns.append({index[tuple(x + y for x, y in zip(a, m))]: c
                                for m, c in g.items()})
    return monos, columns


def traced_reduce(system, p):
    """Re-run the rewriting loop keeping the trace; returns (normal form,
    trace) with trace entries (coefficient, left word, rule index, right word)
    such that p == nf + sum(coeff * left * rule * right)."""
    algebra = system.algebra
    field = algebra.field
    work = {w: field(c) for w, c in p.items() if c}
    done = {}
    trace = []
    while work:
        w = max(work, key=algebra.deglex_key)
        c = work.pop(w)
        hit = system.find_reducer(w)
        if hit is None:
            done[w] = c
            continue
        idx, k = hit
        rule = system.elements[idx]
        lw = system.leading[idx]
        left, right = w[:k], w[k + len(lw):]
        trace.append((c, left, idx, right))
        for w2, c2 in rule.items():
            if w2 == lw:
                continue
            w3 = left + w2 + right
            acc = work.get(w3, field.zero) - c * c2
            if acc:
                work[w3] = acc
            else:
                work.pop(w3, None)
    return done, trace


def reconstruct_from_trace(system, trace):
    """sum(coeff * left * rule * right) over a rewriting trace."""
    algebra = system.algebra
    field = algebra.field
    total = {}
    for coeff, left, idx, right in trace:
        for w2, c2 in system.elements[idx].items():
            w = left + w2 + right
            acc = total.get(w, field.zero) + coeff * c2
            if acc:
                total[w] = acc
            else:
                del total[w]
    return total


def mat_vec(m, x):
    """The product of a ``SparseMatrix`` with a sparse vector ``x``."""
    return m.field.collect((r, v * xc) for (r, c), v in m.entries.items()
                           if (xc := x.get(c)))


def d_squared_is_zero(engine, p, grade):
    """Exact check that d_{p-1} after d_p vanishes on a slice of a
    ``BarEngine``."""
    cols = engine.differential_columns(p, grade)
    cols_q = engine.differential_columns(p - 1, grade)
    if not cols_q:
        return True  # the lower differential is the zero map
    collect = engine.field.collect
    return not any(collect((pos2, c * c2) for pos, c in col.items()
                           for pos2, c2 in cols_q[pos].items())
                   for col in cols)


def complete_intersection_series(degrees, n):
    """The closed-form answers of a complete intersection: relations of the
    given degrees forming a regular sequence in n variables.

    Returns ``(hilbert, dims)``: ``hilbert(D)`` lists the coefficients of
    prod(1 - t^d) / (1 - t)^n through t^D, and ``dims`` maps each (i, j) to
    dim H_{i,j} of the Koszul complex, the coefficient of s^i t^j in
    prod(1 + s t^d): H is the exterior algebra on one class of bidegree
    (1, d) per relation.
    """
    def hilbert(D):
        coeffs = [comb(k + n - 1, n - 1) for k in range(D + 1)]   # 1 / (1 - t)^n
        for d in degrees:
            coeffs = [c - (coeffs[k - d] if k >= d else 0) for k, c in enumerate(coeffs)]
        return coeffs

    dims = {(0, 0): 1}
    for d in degrees:
        grown = dict(dims)
        for (i, j), c in dims.items():
            grown[(i + 1, j + d)] = grown.get((i + 1, j + d), 0) + c
        dims = grown
    return hilbert, dims
