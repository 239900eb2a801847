"""Multivariate polynomials and graded quotient rings, one degree at a time.

Monomials are exponent tuples, polynomials are dicts ``monomial -> nonzero
coefficient``; the monomial order is grevlex with ``x1 > x2 > ... > xn``.

For a monomial ideal J, a monomial is standard iff no relation divides it,
and a normal form drops the other terms.  Otherwise R = k[x]/J is built by
linear algebra in each degree d (Lazard 1983; the Macaulay matrices of F4).
Degree d keeps one echelon over W_d = span{x_j s : s standard of degree d-1},
positions in descending grevlex order, so pivots are leading monomials.  A
degree-d monomial M maps into W_d by phi(M) = M if M is in W_d, else
x_j NF(M/x_j) for the first variable x_j dividing M; phi(M) - M lies in J.
The echelon holds phi(x_j e) for every stored column e of degree d-1 and
every j, and phi(g) for the relations g of degree d.  They span J_d ∩ W_d:
for x_j, x_k dividing M and P = M/(x_j x_k), two cofactors differ by

    x_j NF(x_k P) - x_k NF(x_j P) = x_k e2 - x_j e1,  where
    e1 = x_k NF(P) - NF(x_k P) and e2 = x_j NF(P) - NF(x_j P) lie in J_{d-1} ∩ W_{d-1},

so modulo the rows phi(x_j a) = x_j NF(a) = 0 for every a in J_{d-1}, and
J_d is spanned by x_j J_{d-1} and the relations.  A monomial outside W_d has
no standard cofactor, so the standard monomials are the non-pivot positions;
NF(M) is phi(M) reduced by the echelon, memoized per monomial; and the
reduced Groebner basis is M - NF(M) for the pivots M whose cofactors M/x_i
are all standard.

With m <= n relations, of degrees d_i, degree d stops at rank |W_d| - c_d,
c_d the t^d coefficient of prod (1 - t^d_i) / (1 - t)^n (c_d = 0 if m > n: a
full W_d).  Over the algebraic closure the coefficients where the degree-d
Macaulay rank is largest form a nonempty open set, as do regular sequences
(x_i^d_i is one), whose Hilbert function is c_d; the two meet, so every ring
with these degrees has dim R_d >= c_d, and the rank, |W_d| - dim R_d as no
monomial outside W_d is standard, is at most the bound.  There every other row
is dependent: the span and the pivots, and so the standard monomials, normal
forms and Groebner basis, are unchanged.

Inside the ring a normal form is an int vector over one positive denominator
(1 over GF(p)), so phi and the echelon never touch a Fraction; field elements
are made only in ``normal_form``, ``mono_product`` and ``groebner``.

A QQ ring that is not monomial and has m <= n relations, of degrees d_i, may
have a certified twin over GF(P), P = ``MODULAR.p``: the relations scaled to
primitive integer polynomials and reduced mod P.  With x_{m+1} = ... = x_n =
0 they must leave a ring that vanishes in degree sum(d_i - 1) + 1.  Then the
relations and x_{m+1}, ..., x_n are a regular sequence mod P (Stanley 1978),
hence over Z_(P), so R_Z = Z_(P)[x]/(relations) is free over Z_(P) with
R_Z / P the twin: the Hilbert functions agree, and a Koszul differential on
the twin reduces one over Z_(P), so its rank mod P is at most the QQ rank.
``dim`` and ``hilbert_coeffs`` read the twin; the rest stays on this ring.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, inf, lcm

from .fields import MODULAR, QQ, Field, InputError
from .sparse import FieldEchelon

Monomial = tuple

_UNBUILT = object()


def grevlex_key(m: Monomial):
    return (sum(m), tuple(-e for e in reversed(m)))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _shift(m: Monomial, k: int, step: int) -> Monomial:
    """m times x_k (step 1) or divided by x_k (step -1)."""
    return m[:k] + (m[k] + step,) + m[k + 1:]


def poly_mul(p: dict, q: dict, field: Field = QQ) -> dict:
    return field.collect((mono_mul(m1, m2), c1 * c2)
                         for m1, c1 in p.items() for m2, c2 in q.items())


def leading_monomial(p: dict) -> Monomial:
    return max(p, key=grevlex_key)


def is_homogeneous(p: dict) -> bool:
    degrees = {sum(m) for m in p}
    return len(degrees) <= 1


def poly_degree(p: dict) -> int:
    if not p:
        return -1
    return sum(next(iter(p)))


def normal_form(p: dict, monomial_nf, field: Field) -> dict:
    """The sum of ``c * monomial_nf(m)`` over the terms of p."""
    return field.collect((m2, c * c2) for m, c in p.items()
                         for m2, c2 in monomial_nf(m).items())


def groebner_basis(relations, field: Field, degree_bound=None):
    """Reduced grevlex Groebner basis of a homogeneous ideal, monic and
    sorted by leading monomial: its elements of degree <= ``degree_bound``,
    or all of it.  Returns (basis, trusted_degree).

    Without a bound, degrees are added until the relations and every S-pair
    of the basis found so far lie at or below the degree reached.  Skipped
    are pairs of coprime leading monomials and, by the chain criterion,
    pairs (a, b) with lcm L where some leading monomial c divides L and
    lcm(a, c) != L != lcm(b, c).  By induction on L (those two lcms strictly
    divide it) every S-pair then reduces to zero: Buchberger's criterion.
    """
    relations = [rel for rel in relations if rel]
    if not relations:
        return [], inf if degree_bound is None else degree_bound
    ring = QuotientRing(len(next(iter(relations[0]))), relations, field)
    if degree_bound is not None:
        return ring.groebner(degree_bound), degree_bound
    d = max(map(poly_degree, ring.relations), default=0)
    while True:
        basis = ring.groebner(d)
        lms = [leading_monomial(g) for g in basis]
        top = d
        for a, b in itertools.combinations(lms, 2):
            lcm = mono_lcm(a, b)
            if top < sum(lcm) < sum(a) + sum(b) and not any(
                    mono_divides(c, lcm) and mono_lcm(a, c) != lcm
                    and mono_lcm(b, c) != lcm for c in lms):
                top = sum(lcm)
        if top == d:
            return basis, inf
        d = top


def ci_series(degrees, n: int, top: int) -> list[int]:
    """The coefficients of t^0, ..., t^top in prod (1 - t^d_i) / (1 - t)^n."""
    coeffs = [1] + [0] * top
    for d in degrees:
        for k in range(top, d - 1, -1):
            coeffs[k] -= coeffs[k - d]
    for _ in range(n):
        coeffs = list(itertools.accumulate(coeffs))
    return coeffs


class QuotientRing:
    """A standard graded quotient R = k[X1..Xn]/J with degreewise monomial bases.

    Relations must be homogeneous of degree >= 2.  All degreewise data
    (echelons, standard monomials, normal forms, Groebner basis) is cached
    and deterministic.
    """

    def __init__(self, n: int, relations, field: Field = QQ, names=None):
        if n < 0:
            raise InputError("need a nonnegative number of variables")
        self.n = n
        self.field = field
        self.names = list(names) if names else [f"x{i+1}" for i in range(n)]
        if len(self.names) != n:
            raise InputError("variable name count does not match n")
        self.relations = []
        for rel in relations:
            # coerce before dropping zeros: a coefficient may vanish in the field
            rel = {tuple(m): x for m, c in rel.items() if (x := field(c))}
            if not rel:
                continue
            if any(len(m) != n for m in rel):
                raise InputError("relation exponent length does not match n")
            if not is_homogeneous(rel):
                raise InputError("relations must be homogeneous")
            if poly_degree(rel) < 2:
                raise InputError("relations must have degree >= 2")
            self.relations.append(rel)
        self.is_monomial = all(len(rel) == 1 for rel in self.relations)
        # a monomial ideal's minimal generators, by grevlex key
        lms = sorted({next(iter(rel)) for rel in self.relations},
                     key=grevlex_key) if self.is_monomial else []
        self._lms = [m for m in lms if not any(lm != m and mono_divides(lm, m) for lm in lms)]
        self._levels: list = []  # degree -> (W_d monomials, their positions, echelon)
        self._up: list = []  # degree d -> k -> {s: position of x_k s in W_d}, s in std(d - 1)
        self._gb: dict = {}  # degree -> reduced Groebner basis elements of that degree
        self._std: dict[int, tuple] = {}
        self._nf: dict = {}  # monomial -> its normal form, see _nf_int
        self._products: dict = {}  # (monomial, monomial) -> normal form of the product
        self._twin = _UNBUILT  # the certified twin over MODULAR, or None
        self._on_bound = len(self.relations) <= n  # each level so far met its bound

    @property
    def is_squarefree_monomial(self) -> bool:
        return self.is_monomial and all(
            all(e <= 1 for e in next(iter(rel))) for rel in self.relations)

    def _cofactor_span(self, d: int) -> list:
        """The monomials x_j * s spanning W_d, s standard of degree d - 1,
        in descending grevlex order."""
        if d == 0:
            return [(0,) * self.n]
        return sorted({_shift(s, j, 1) for s in self.std_monomials(d - 1)
                       for j in range(self.n)}, key=grevlex_key, reverse=True)

    def _level(self, d: int) -> tuple:
        """Degree d's echelon over W_d, building the lower degrees first."""
        levels = self._levels
        n = self.n
        while len(levels) <= d:
            k = len(levels)
            monos = self._cofactor_span(k)
            index = {m: pos for pos, m in enumerate(monos)}
            ech = FieldEchelon(self.field)
            levels.append((monos, index, ech))
            self._up.append([{s: index[_shift(s, j, 1)] for s in self.std_monomials(k - 1)}
                             for j in range(n)])
            # dim R_k >= c_k (module docstring): at rank |W_k| - c_k the rest is dependent
            bound = len(monos) - (ci_series(map(poly_degree, self.relations), n, k)[k]
                                  if len(self.relations) <= n else 0)
            rows, lazy, run = self._rows(k), self._on_bound, 0
            while ech.rank < bound and (row := next(rows, None)) is not None:
                run = 0 if ech.insert(row)[0] else run + 1
                if lazy and run > bound - ech.rank:
                    # more dependent rows in a row than rank missing: likely
                    # short of the bound, so reduce and go smallest lead first
                    lazy, ech = False, self._reduce_level(k)
                    rows = iter(sorted(rows, key=min, reverse=True))
            if lazy and ech.rank < bound:
                self._reduce_level(k)
            self._on_bound &= ech.rank == bound
        return levels[d]

    def _reduce_level(self, k: int):
        """Degree k's echelon made reduced: its columns inserted again,
        smallest lead first (see _rows)."""
        monos, index, old = self._levels[k]
        ech = FieldEchelon(self.field)
        for _, col in sorted(old.stored_columns(), key=lambda t: t[0], reverse=True):
            ech.insert(col)
        self._levels[k] = (monos, index, ech)
        return ech

    def _rows(self, k: int):
        """The nonzero phi(g), g a relation of degree k, and phi(x_j e), e stored
        in degree k - 1.  On the bound they are built as needed: one x_j e per
        lead x_j pivot(e) in W_k (exact: phi never raises a monomial), largest
        first so that rows seldom meet pivots, then the rest.  Else all go
        smallest lead first, which keeps the echelon reduced."""
        below = self._levels[k - 1][0] if k else ()
        shifts = [(below[pos], col, j) for pos, col in
                  (self._levels[k - 1][2].stored_columns() if k else ()) for j in range(self.n)]
        if self._on_bound:  # by the position of a fresh lead; the rest keep their order
            fresh = dict(self._levels[k][1])
            leads = [fresh.pop(_shift(m, j, 1), inf) for m, _, j in shifts]
            shifts = [shift for _, shift in sorted(zip(leads, shifts), key=lambda t: t[0])]
        rows = filter(None, itertools.chain(
            (self._into(g, k)[0] for g in self.relations if poly_degree(g) == k),
            (self._into({_shift(below[q], j, 1): c for q, c in col.items()}, k)[0]
             for _, col, j in shifts)))
        yield from rows if self._on_bound else sorted(rows, key=min, reverse=True)

    def _into(self, p: dict, d: int) -> tuple:
        """phi(p) for a polynomial p of degree d as ``(row, scale)``: its
        W_d coordinates are ``row / scale``, with ints in ``row``."""
        index, up = self._levels[d][1], self._up[d]
        scale = lcm(*(c.denominator for c in p.values()))
        row, cofactors = {}, []
        for m, c in p.items():
            c = c.numerator * (scale // c.denominator)
            pos = index.get(m)
            if pos is not None:
                row[pos] = c
            else:
                k = next(k for k, e in enumerate(m) if e)
                cofactors.append((k, c, *self._nf_int(_shift(m, k, -1))[:2]))
        den = lcm(*(nf_den for _, _, _, nf_den in cofactors))
        for pos in row:
            row[pos] *= den
        for k, c, nf, nf_den in cofactors:
            c *= den // nf_den
            up_k = up[k]
            for s, v in nf.items():
                pos = up_k[s]
                row[pos] = row.get(pos, 0) + c * v
        q = self.field.p  # over GF(p) every denominator is 1
        return {pos: r for pos, v in row.items() if (r := v % q if q else v)}, scale * den

    def _nf_int(self, m: Monomial) -> tuple:
        """NF(m) as ``(row, den)``, memoized: ``row / den`` with an int ``row`` over
        standard monomials (descending grevlex) and ``den > 0``, 1 over GF(p).
        Over QQ ``_monomial_nf`` adds NF(m) in Fractions as a third item."""
        hit = self._nf.get(m)
        if hit is None:
            if self.is_monomial:
                standard = not any(mono_divides(lm, m) for lm in self._lms)
                hit = ({m: 1} if standard else {}), 1
            else:
                monos, _, ech = self._level(sum(m))
                row, scale = self._into({m: 1}, sum(m))
                vec, ech_scale = ech.residual(row)
                den = scale * ech_scale  # NF(m) = vec / den
                g = gcd(den, *vec.values())
                hit = {monos[pos]: vec[pos] // g for pos in sorted(vec)}, den // g
            self._nf[m] = hit
        return hit

    def _monomial_nf(self, m: Monomial) -> dict:
        """Normal form of one monomial over the field, descending grevlex."""
        hit = self._nf_int(m)
        if self.field.p:
            return hit[0]
        if len(hit) == 2:  # made once, so products of equal monomials share it
            nf, den = hit
            hit = self._nf[m] = (nf, den, {s: Fraction(v, den) for s, v in nf.items()})
        return hit[2]

    def groebner(self, degree: int) -> list[dict]:
        """The reduced Groebner basis elements of degree <= ``degree``."""
        F = self.field
        one = F.one
        if self.is_monomial:
            return [{m: one} for m in self._lms if sum(m) <= degree]
        out = []
        for d in range(degree + 1):
            if d not in self._gb:
                monos, _, ech = self._level(d)
                minimal = [monos[pos] for pos in sorted(ech.pivots, reverse=True)
                           if all(self.is_standard(_shift(monos[pos], k, -1))
                                  for k, e in enumerate(monos[pos]) if e)]
                self._gb[d] = [{m: one} | {s: F.neg(c) for s, c in self._monomial_nf(m).items()}
                               for m in minimal]
            out += self._gb[d]
        return out

    def leading_monomials(self, degree: int) -> list[Monomial]:
        return [leading_monomial(g) for g in self.groebner(degree)]

    def std_monomials(self, d: int) -> tuple:
        """Standard-monomial basis of R_d, sorted by grevlex key."""
        if d < 0:
            return ()
        if d in self._std:
            return self._std[d]
        if self.is_monomial:
            lms = [lm for lm in self._lms if sum(lm) <= d]
            result = tuple(m for m in reversed(self._cofactor_span(d))
                           if not any(mono_divides(lm, m) for lm in lms))
        else:
            monos, _, ech = self._level(d)
            result = tuple(monos[pos] for pos in range(len(monos) - 1, -1, -1)
                           if pos not in ech.pivots)
        self._std[d] = result
        return result

    def is_standard(self, m: Monomial) -> bool:
        """True iff m is not a leading monomial of the ideal: a normal form
        is supported on standard monomials, so m is one iff NF(m) contains m."""
        return m in self._nf_int(m)[0]

    def twin(self, degree: int):
        """The certified twin of a QQ ring over ``MODULAR``, or None (see the
        module docstring).  The first request that reaches ``degree`` >=
        sum(d_i - 1) - 1 builds it; a lower one gets None and is answered on
        this ring."""
        if self._twin is _UNBUILT:
            relations = self.relations
            if self.field.p or self.is_monomial or len(relations) > self.n:
                self._twin = None
            elif degree < sum(poly_degree(rel) - 1 for rel in relations) - 1:
                return None
            else:
                self._twin = self._certified_twin()
        return self._twin

    def _certified_twin(self):
        relations, n, m = self.relations, self.n, len(self.relations)
        # an Artinian complete intersection in m variables, which vanishes
        # from degree sum(d_i - 1) + 1 on
        degrees = list(map(poly_degree, relations))
        expected = ci_series(degrees, m, sum(degrees) - m + 1)
        primitive = []
        for rel in relations:
            den = lcm(*(c.denominator for c in rel.values()))
            ints = {mono: c.numerator * (den // c.denominator) for mono, c in rel.items()}
            g = gcd(*ints.values())
            primitive.append({mono: v // g for mono, v in ints.items()})
        twin = QuotientRing(n, primitive, MODULAR, self.names)
        # the relations with x_{m+1} = ... = x_n = 0, mod P
        check = twin if m == n else QuotientRing(m, [
            {mono[:m]: c for mono, c in rel.items() if not any(mono[m:])}
            for rel in twin.relations], MODULAR)
        # stops at the first degree off the complete intersection's
        certified = all(check.dim(k) == e for k, e in enumerate(expected))
        return twin if certified else None

    def dim(self, d: int) -> int:
        return len((self.twin(d) or self).std_monomials(d))

    def hilbert_coeffs(self, D: int) -> list[int]:
        if D < 0:
            raise ValueError("need D >= 0")
        self.twin(D)  # before the low degrees, so that they read it too
        return [self.dim(d) for d in range(D + 1)]

    def basis_index(self, d: int) -> dict:
        return {m: i for i, m in enumerate(self.std_monomials(d))}

    def normal_form(self, p: dict) -> dict:
        p = {m: x for m, c in p.items() if (x := self.field(c))}
        return normal_form(p, self._monomial_nf, self.field)

    def multiply_mod(self, a: dict, b: dict) -> dict:
        return self.normal_form(poly_mul(a, b, self.field))

    def mono_product(self, a: Monomial, b: Monomial) -> dict:
        """Normal form of the product of two monomials, cached."""
        key = (a, b)
        hit = self._products.get(key)
        if hit is None:
            hit = self._products[key] = self._monomial_nf(mono_mul(a, b))
        return hit

    def contains(self, p: dict) -> bool:
        """Ideal membership of a homogeneous polynomial."""
        return not self.normal_form(p)

    def __repr__(self):
        rels = ", ".join(poly_to_string(r, self.names) for r in self.relations)
        return f"QuotientRing({self.field}[{', '.join(self.names)}] / ({rels}))"


class ParseError(InputError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in "+-*^/":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def parse_polynomial(text: str, names, field: Field = QQ) -> dict:
    """Parse expressions like ``3*x1^2*x2 - 1/2*x3*x4`` into a polynomial.

    Grammar: a signed sum of terms; each term is '*'-separated factors, where
    a factor is an integer, a rational ``a/b``, or ``var['^' exponent]``.
    """
    index = {name: k for k, name in enumerate(names)}
    n = len(names)
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None, len(text))

    def take(kind):
        nonlocal pos
        tok = peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        pos += 1
        return tok

    def parse_factor():
        kind, value, at = peek()
        if kind == "num":
            take("num")
            num = int(value)
            if peek()[0] == "/":
                take("/")
                den = int(take("num")[1])
                if den == 0:
                    raise ParseError("zero denominator", at)
                if field.p and den % field.p == 0:
                    raise ParseError(f"denominator {den} vanishes in {field}", at)
                return field.mul(field(num), field.inv(field(den))), (0,) * n
            return field(num), (0,) * n
        if kind == "name":
            take("name")
            if value not in index:
                raise ParseError(f"unknown variable {value!r}", at)
            exp = 1
            if peek()[0] == "^":
                take("^")
                exp = int(take("num")[1])
            mono = tuple(exp if k == index[value] else 0 for k in range(n))
            return field.one, mono
        raise ParseError(f"expected a coefficient or variable, found {value!r}", at)

    def parse_term():
        coeff, mono = parse_factor()
        while peek()[0] == "*":
            take("*")
            c2, m2 = parse_factor()
            coeff = field.mul(coeff, c2)
            mono = mono_mul(mono, m2)
        return coeff, mono

    terms = []
    sign = field.one
    if peek()[0] in ("+", "-"):
        if take(peek()[0])[0] == "-":
            sign = field.neg(sign)
    while True:
        coeff, mono = parse_term()
        terms.append((mono, field.mul(sign, coeff)))
        kind, _, at = peek()
        if kind is None:
            break
        if kind == "+":
            take("+")
            sign = field.one
        elif kind == "-":
            take("-")
            sign = field.neg(field.one)
        else:
            raise ParseError(f"expected '+' or '-'", at)
    return field.collect(terms)


def poly_to_string(p: dict, names) -> str:
    """Deterministic rendering, grevlex-descending terms; inverse of the parser."""
    if not p:
        return "0"
    parts = []
    for m in sorted(p, key=grevlex_key, reverse=True):
        c = p[m]
        factors = []
        for k, e in enumerate(m):
            if e == 1:
                factors.append(names[k])
            elif e > 1:
                factors.append(f"{names[k]}^{e}")
        body = "*".join(factors)
        cs = str(c)
        negative = cs.startswith("-")
        if negative:
            cs = cs[1:]
        if body and cs == "1":
            text = body
        elif body:
            text = f"{cs}*{body}"
        else:
            text = cs
        if not parts:
            parts.append(f"-{text}" if negative else text)
        else:
            parts.append(f"- {text}" if negative else f"+ {text}")
    return " ".join(parts)
