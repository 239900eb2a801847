import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koszul import QQ, Field
from koszul.sparse import (FieldEchelon, SparseMatrix, diagonalize_symmetric_form,
                           kernel_of_columns, rank_kernel, rank_of_columns,
                           solve_in_image, symplectic_basis)
from koszul.homology import koszul_basis, differential_of_basis
from koszul.families import build_path_ring

from conftest import in_field
from oracles import dense_rank_kernel, mat_vec


def test_empty_matrix():
    rank, kernel = rank_kernel(SparseMatrix(0, 0, {}))
    assert rank == 0 and kernel == []


def test_identity_matrix():
    m = SparseMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    rank, kernel = rank_kernel(m)
    assert rank == 3 and kernel == []


def _koszul_slice_columns(ring, i, j):
    basis = koszul_basis(ring, i, j)
    below = {b: k for k, b in enumerate(koszul_basis(ring, i - 1, j))}
    cols = []
    for v, w in basis:
        cols.append({below[key]: c
                     for key, c in differential_of_basis(ring, v, w).items()})
    return cols, len(below)


def test_path3_koszul_differential_matches_dense_oracle():
    # the differential K_{3,3} -> K_{2,3} of the path ring on 3 vertices
    ring = build_path_ring(3)
    cols, nrows = _koszul_slice_columns(ring, 3, 3)
    rank, kernel = kernel_of_columns(cols, QQ)
    dense_rank, dense_kernel = dense_rank_kernel(cols, nrows)
    assert (rank, len(kernel)) == (dense_rank, len(dense_kernel)) == (1, 0)
    # together with d_2 this slices out dim H_{2,3} = 1
    cols2, nrows2 = _koszul_slice_columns(ring, 2, 3)
    rank2, kernel2 = kernel_of_columns(cols2, QQ)
    assert len(kernel2) - rank == 1


def test_kernel_vectors_annihilate():
    m = SparseMatrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    rank, kernel = rank_kernel(m)
    assert rank + len(kernel) == 3
    for vec in kernel:
        assert not mat_vec(m, vec)


def test_solve_identity_and_zero():
    ident = SparseMatrix.from_rows([[1, 0], [0, 1]])
    assert solve_in_image(ident, [5, 7]) == {0: 5, 1: 7}
    zero = SparseMatrix(2, 2, {})
    assert solve_in_image(zero, [1, 0]) is None
    assert solve_in_image(zero, [0, 0]) == {}


def test_solve_gives_inverse_columns_and_none_when_singular():
    # the short Gorenstein certifier reads its eta vectors this way
    for field in (QQ, Field(7)):
        m = SparseMatrix.from_rows([[field(2), field(1)], [field(1), field(1)]], field)
        columns = [solve_in_image(m, {s: field.one}) for s in range(2)]
        assert columns == [{0: field(1), 1: field(-1)}, {0: field(-1), 1: field(2)}]
        singular = SparseMatrix.from_rows([[field(1), field(2)], [field(2), field(4)]],
                                          field)
        assert solve_in_image(singular, {0: field.one}) is None


def test_solve_dimension_mismatch():
    m = SparseMatrix.from_rows([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        solve_in_image(m, [1, 2, 3])


def test_boundary_membership_path3():
    # x2*t1*t3 is not a boundary in the Koszul complex of the path ring:
    # the only 3-cell maps onto the full alternating sum
    ring = build_path_ring(3)
    cols, nrows = _koszul_slice_columns(ring, 3, 3)
    basis2 = {b: k for k, b in enumerate(koszul_basis(ring, 2, 3))}
    m = SparseMatrix(nrows, len(cols),
                     {(r, j): c for j, col in enumerate(cols)
                      for r, c in col.items()})
    x2 = (0, 1, 0)
    target_index = basis2[(x2, (0, 2))]
    assert solve_in_image(m, {target_index: QQ(1)}) is None
    # while the full differential of t1t2t3 is, of course, solvable
    image = mat_vec(m, {0: QQ(1)})
    assert solve_in_image(m, image) == {0: 1}


def test_diagonalize_identity():
    g = SparseMatrix.from_rows([[1, 0], [0, 1]])
    P = diagonalize_symmetric_form(g)
    assert P.entries == {(0, 0): 1, (1, 1): 1}


def test_diagonalize_hyperbolic():
    g = SparseMatrix.from_rows([[0, 1], [1, 0]])
    P = diagonalize_symmetric_form(g)
    # any valid diagonalizer is accepted: check P^T g P is diagonal
    n = 2
    PT_g_P = {}
    for a in range(n):
        for b in range(n):
            total = Fraction(0)
            for r in range(n):
                for s in range(n):
                    total += (P.entries.get((r, a), 0) * g.entries.get((r, s), 0)
                              * P.entries.get((s, b), 0))
            if total:
                PT_g_P[(a, b)] = total
    assert all(a == b for (a, b) in PT_g_P)
    assert len(PT_g_P) == 2


def test_diagonalize_one_by_one():
    g = SparseMatrix.from_rows([[7]])
    P = diagonalize_symmetric_form(g)
    assert P.entries == {(0, 0): 1}


def test_diagonalize_rejects_char_two():
    g = SparseMatrix.from_rows([[0, 1], [1, 0]], field=Field(2))
    with pytest.raises(ValueError):
        diagonalize_symmetric_form(g)


def test_symplectic_standard_form():
    g = SparseMatrix.from_rows([[0, 2, 1, 0], [-2, 0, 0, 3], [-1, 0, 0, 1],
                                [0, -3, -1, 0]])
    P = symplectic_basis(g)
    n = 4
    out = {}
    for a in range(n):
        for b in range(n):
            total = Fraction(0)
            for r in range(n):
                for s in range(n):
                    total += (P.entries.get((r, a), 0) * g.entries.get((r, s), 0)
                              * P.entries.get((s, b), 0))
            if total:
                out[(a, b)] = total
    assert out == {(0, 1): 1, (1, 0): -1, (2, 3): 1, (3, 2): -1}


@st.composite
def sparse_columns(draw):
    nrows = draw(st.integers(min_value=0, max_value=6))
    ncols = draw(st.integers(min_value=0, max_value=6))
    cols = []
    for _ in range(ncols):
        col = {}
        for r in range(nrows):
            if draw(st.booleans()):
                col[r] = Fraction(draw(st.integers(-4, 4)),
                                  draw(st.integers(1, 3)))
        cols.append({k: v for k, v in col.items() if v})
    return nrows, cols


@settings(max_examples=120, deadline=None)
@given(sparse_columns())
def test_rank_nullity_matches_dense_oracle(data):
    nrows, cols = data
    rank, kernel = kernel_of_columns(cols, QQ)
    dense_rank, dense_kernel = dense_rank_kernel(cols, nrows)
    assert rank == dense_rank
    assert rank + len(kernel) == len(cols)
    assert len(kernel) == len(dense_kernel)
    for vec in kernel:
        combined = {}
        for j, c in vec.items():
            for r, v in cols[j].items():
                combined[r] = combined.get(r, Fraction(0)) + c * v
        assert all(v == 0 for v in combined.values())


@settings(max_examples=100, deadline=None)
@given(sparse_columns(), st.sampled_from([0, 2, 5]), st.integers(0, 3))
def test_rank_stops_at_any_bound_at_or_above_the_rank(data, p, slack):
    # the elimination stops once its rank reaches the bound, so a bound that
    # is at least the rank changes nothing
    nrows, cols = data
    field = Field(p) if p else QQ
    if p:
        cols = _prime_columns(cols, p)
    rank = dense_rank_kernel(cols, nrows, p)[0]
    assert rank_of_columns(cols, field, rank + slack) == rank
    assert rank_of_columns(cols, field) == rank


def _prime_columns(cols, p):
    """The columns read over GF(p); entries whose denominator vanishes are dropped."""
    field = Field(p)
    fcols = [{r: field(v) for r, v in col.items() if v.denominator % p}
             for col in cols]
    return [{r: v for r, v in col.items() if v} for col in fcols]


@settings(max_examples=60, deadline=None)
@given(sparse_columns(), st.sampled_from([2, 5, 13]))
def test_rank_nullity_prime_fields(data, p):
    nrows, cols = data
    field = Field(p)
    fcols = _prime_columns(cols, p)
    rank, kernel = kernel_of_columns(fcols, field)
    assert rank == dense_rank_kernel(fcols, nrows, p)[0]
    assert rank + len(kernel) == len(fcols)
    for vec in kernel:
        assert in_field(vec.values(), field)
        combined = {}
        for j, c in vec.items():
            for r, v in fcols[j].items():
                combined[r] = (combined.get(r, 0) + c * v) % p
        assert all(v % p == 0 for v in combined.values())


@settings(max_examples=60, deadline=None)
@given(sparse_columns(), st.sampled_from([0, 2, 5, 13]))
def test_solve_in_image_by_substitution(data, p):
    nrows, cols = data
    field = Field(p)
    if p:
        cols = _prime_columns(cols, p)
    m = SparseMatrix(nrows, len(cols),
                     {(r, j): v for j, col in enumerate(cols)
                      for r, v in col.items()}, field)
    # a vector certainly in the image
    x0 = {j: field(j + 1) for j in range(len(cols))}
    b = mat_vec(m, x0)
    x = solve_in_image(m, b)
    assert x is not None
    assert mat_vec(m, x) == b


def test_field_echelon_stored_coordinates():
    ech = FieldEchelon(QQ)
    ech.insert({0: QQ(1), 1: QQ(1)}, tag=None)          # modded out
    ech.insert({1: QQ(1), 2: QQ(2)}, tag="a")
    residual, combo = ech.reduce({0: QQ(1), 2: QQ(4)})
    # {0:1, 2:4} = (0:1,1:1) - (1:1,2:2)*1 + 6*e2 ... residual must avoid pivots
    assert all(pos not in ech.pivots for pos in residual)
    z, combo = ech.reduce({1: QQ(2), 2: QQ(4)})
    assert not z and combo == {"a": QQ(2)}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([0, 2, 5, 13]), sparse_columns(), sparse_columns(),
       sparse_columns())
# a probe with an entry below a later pivot; a stored pivot value 2 over QQ
@example(0, (2, [{1: Fraction(1)}]), (0, []), (2, [{0: Fraction(1), 1: Fraction(1)}]))
@example(0, (0, []), (2, [{0: Fraction(2), 1: Fraction(1)}]), (1, [{0: Fraction(1)}]))
def test_field_echelon_coordinates_property(p, boundary, tagged, probes):
    """Columns inserted under tag None are modded out, stored columns have
    pivot 1, a residual vanishes at every pivot, and
    col == residual + sum(combo[t] * column(t)) modulo the tag-None columns."""
    field = Field(p)
    convert = (lambda cols: _prime_columns(cols, p)) if p else list
    boundary, tagged, probes = (convert(cols) for _, cols in (boundary, tagged, probes))
    nrows = 1 + max((r for col in boundary + tagged + probes for r in col), default=0)
    ech = FieldEchelon(field)
    for col in boundary:
        ech.insert(col, tag=None)
    for t, col in enumerate(tagged):
        ech.insert(col, tag=t)
    columns = {}   # tag -> stored column
    for pos, (_, _, stored) in ech.pivots.items():
        column = ech.column(pos)
        assert min(column) == pos and column[pos] == field.one
        columns.update((t, column) for t in stored)
    for col in boundary:
        assert ech.reduce(col) == ({}, {})
    boundary_rank = dense_rank_kernel(boundary, nrows, p)[0]
    for col in tagged + probes:
        residual, combo = ech.reduce(col)
        assert not any(pos in ech.pivots for pos in residual)
        assert in_field([*residual.values(), *combo.values()], field)
        diff = field.collect(itertools.chain(
            ((r, field(v)) for r, v in col.items()),
            ((r, -v) for r, v in residual.items()),
            ((r, -c * v) for t, c in combo.items() for r, v in columns[t].items())))
        assert dense_rank_kernel(boundary + [diff], nrows, p)[0] == boundary_rank


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([0, 2, 5, 13]), sparse_columns(), sparse_columns())
def test_field_echelon_int_residual_contract(p, stored, probes):
    """``residual`` is ``reduce``'s residual as an int vector over a positive
    scale, and ``insert(...)[0]`` is empty exactly for a dependent column."""
    field = Field(p)
    convert = (lambda cols: _prime_columns(cols, p)) if p else list
    stored, probes = (convert(cols) for _, cols in (stored, probes))
    nrows = 1 + max((r for col in stored + probes for r in col), default=0)
    ech = FieldEchelon(field)
    for t, col in enumerate(stored):
        vec, scale = ech.insert(col, tag=t if t % 2 else None)
        rank_before = dense_rank_kernel(stored[:t], nrows, p)[0]
        assert bool(vec) == (dense_rank_kernel(stored[:t + 1], nrows, p)[0] > rank_before)
        assert all(type(v) is int for v in vec.values()) and type(scale) is int
    for col in stored + probes:
        vec, scale = ech.residual(col)
        assert type(scale) is int and scale > 0 and (scale == 1 or not p)
        exported = {k: x for k, v in vec.items() if (x := field.div(field(v), field(scale)))}
        assert exported == ech.reduce(col)[0]


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 4))
    entries = {}
    for i in range(n):
        for j in range(i, n):
            v = Fraction(draw(st.integers(-3, 3)))
            if v:
                entries[(i, j)] = v
                entries[(j, i)] = v
    return SparseMatrix(n, n, entries)


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices())
def test_diagonalize_property(g):
    P = diagonalize_symmetric_form(g)
    n = g.nrows
    rank, _ = rank_kernel(P)
    assert rank == n  # a genuine change of basis
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            total = Fraction(0)
            for r in range(n):
                for s in range(n):
                    total += (P.entries.get((r, a), 0)
                              * g.entries.get((r, s), 0)
                              * P.entries.get((s, b), 0))
            assert total == 0


def _seeded_forms(count=600, seed=20261019):
    """Seeded square forms over QQ and GF(5, 7, 32003), sizes 1-6: symmetric
    and alternating ones, some degenerate or of odd size, about one in ten
    with an entry changed so that it is neither."""
    rng = random.Random(seed)
    fields = (QQ, Field(5), Field(7), Field(32003))
    for t in range(count):
        field = fields[t % len(fields)]
        n = rng.randint(1, 6)
        alternating = rng.random() < 0.5
        density = rng.random()
        entries = {}
        for i in range(n):
            for j in range(i + alternating, n):
                if rng.random() > density:
                    continue
                v = rng.randint(-3, 3)
                if not field.p and rng.random() < 0.3:
                    v = Fraction(v, rng.randint(1, 4))
                entries[(i, j)] = v
                entries[(j, i)] = -v if alternating else v
        if rng.random() < 0.1:
            j = rng.randrange(n)
            entries[(0, j)] = entries.get((0, j), 0) + 1
        yield SparseMatrix(n, n, entries, field)


def _congruence_outcome(routine, g):
    try:
        return sorted(routine(g).entries.items())
    except ValueError as exc:
        return str(exc)


def test_congruence_routines_digest_is_pinned():
    # entries (or the error message) of both routines on 600 seeded forms,
    # recorded from the dense implementation they replaced
    outcomes = [(_congruence_outcome(diagonalize_symmetric_form, g),
                 _congruence_outcome(symplectic_basis, g)) for g in _seeded_forms()]
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert sum(isinstance(o, str) for pair in outcomes for o in pair) == 767
    assert digest == ("cb80319cfa44def79ea7b46dc394670c"
                      "86dc0d9d432c1027e58e9c8e40e18732")


def test_rational_columns_over_gf_p_are_read_as_integer_multiples():
    # a column is scaled by the lcm of its denominators before its residues
    # are taken: over GF(7), {0: 1/7, 1: 1} is read as {0: 1, 1: 7} = {0: 1}
    cols = [{0: Fraction(1, 7), 1: 1}, {0: 1}]
    assert rank_of_columns(cols[:1], Field(7)) == 1
    assert rank_of_columns(cols, Field(7)) == 1
    assert rank_of_columns(cols, Field(5)) == 2
    assert rank_of_columns(cols, QQ) == 2
    # a relation needs the column's own coefficient, and that multiple is 0
    with pytest.raises(ZeroDivisionError, match="vanishes mod 7"):
        kernel_of_columns(cols[::-1], Field(7))
    assert kernel_of_columns(cols[::-1], Field(5)) == (2, [])


@st.composite
def congruence_forms(draw):
    """A symmetric or an alternating form of size 1-6 over QQ or GF(p)."""
    field = Field(draw(st.sampled_from([0, 3, 5, 32003])))
    alternating = draw(st.booleans())
    n = draw(st.integers(1, 6))
    entries = {}
    for i in range(n):
        for j in range(i + alternating, n):
            v = Fraction(draw(st.integers(-3, 3)), 1 if field.p else draw(st.integers(1, 3)))
            if v:
                entries[(i, j)] = v
                entries[(j, i)] = -v if alternating else v
    return SparseMatrix(n, n, entries, field), alternating


@settings(max_examples=150, deadline=None)
@given(congruence_forms())
def test_congruence_gives_an_invertible_change_to_normal_form(form):
    g, alternating = form
    F, n = g.field, g.nrows
    try:
        P = symplectic_basis(g) if alternating else diagonalize_symmetric_form(g)
    except ValueError:
        # only an alternating form can fail: it is degenerate
        assert alternating and dense_rank_kernel(g.columns(), n, F.p)[0] < n
        return
    assert dense_rank_kernel(P.columns(), n, F.p)[0] == n
    cols = P.columns()
    congruent = {(a, b): x for a in range(n) for b in range(n)
                 if (x := F(sum(cols[a].get(r, 0) * v * cols[b].get(s, 0)
                                for (r, s), v in g.entries.items())))}
    if alternating:
        standard = {}
        for a in range(0, n, 2):
            standard[(a, a + 1)], standard[(a + 1, a)] = F.one, F.neg(F.one)
        assert congruent == standard
    else:
        assert all(a == b for a, b in congruent)
