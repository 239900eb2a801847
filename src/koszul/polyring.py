"""Multivariate polynomials, Buchberger bases, and graded quotient rings.

Monomials are exponent tuples, polynomials are dicts ``monomial -> nonzero
coefficient``.  The monomial order everywhere is graded reverse lexicographic
with ``x1 > x2 > ... > xn``.  Groebner bases may be truncated by degree; a
quotient ring keeps its Buchberger run and resumes it when a deeper degree is
requested.
"""

from __future__ import annotations

import heapq
import itertools
from math import inf

from .fields import QQ, Field

Monomial = tuple


def grevlex_key(m: Monomial):
    return (sum(m), tuple(-e for e in reversed(m)))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for m, c in q.items():
        w = out.get(m, 0) + c
        if w:
            out[m] = w
        else:
            out.pop(m, None)
    return out


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono_mul(m1, m2)
            w = out.get(m, 0) + c1 * c2
            if w:
                out[m] = w
            else:
                del out[m]
    return out


def leading_monomial(p: dict) -> Monomial:
    return max(p, key=grevlex_key)


def is_homogeneous(p: dict) -> bool:
    degrees = {sum(m) for m in p}
    return len(degrees) <= 1


def poly_degree(p: dict) -> int:
    if not p:
        return -1
    return sum(next(iter(p)))


def normal_form(p: dict, basis: list[dict], field: Field) -> dict:
    """Full normal form of p against monic reducers (heads and tails reduced)."""
    lead = [(leading_monomial(g), g) for g in basis]
    work = {m: field(c) for m, c in p.items() if c}
    out: dict = {}
    while work:
        m = max(work, key=grevlex_key)
        c = work.pop(m)
        for lm, g in lead:
            if mono_divides(lm, m):
                shift = mono_div(m, lm)
                for m2, c2 in g.items():
                    if m2 == lm:
                        continue
                    m3 = mono_mul(m2, shift)
                    w = work.get(m3, field.zero) - c * c2
                    if w:
                        work[m3] = w
                    else:
                        work.pop(m3, None)
                break
        else:
            out[m] = c
    return out


def _monic(p: dict, field: Field) -> dict:
    inv = field.inv(p[leading_monomial(p)])
    return {m: field.mul(inv, c) for m, c in p.items()}


class GroebnerRun:
    """Buchberger's algorithm on one ideal, resumable at higher degree bounds.

    Keeps the unreduced basis and the pending S-pairs, so ``extend`` to a
    higher bound processes only the pairs the earlier bounds left on the heap.
    Pairs are processed in (lcm degree, creation) order, so the state after
    ``extend(d1)`` then ``extend(d2)`` equals the state after ``extend(d2)``.
    """

    __slots__ = ("field", "basis", "pairs", "counter", "_reduced")

    def __init__(self, relations, field: Field):
        self.field = field
        self.basis: list[dict] = []
        self.pairs: list = []
        self.counter = itertools.count()
        self._reduced = None  # reduced basis, until the basis grows
        for rel in relations:
            rel = {m: field(c) for m, c in rel.items() if c}
            if not rel:
                continue
            if not is_homogeneous(rel):
                raise ValueError("relations must be homogeneous")
            self.basis.append(_monic(rel, field))
        for j in range(len(self.basis)):
            self._push_pairs(j)

    @property
    def complete(self) -> bool:
        """True once no S-pair is pending: the basis is a full Groebner basis."""
        return not self.pairs

    def _push_pairs(self, j):
        basis = self.basis
        lmj = leading_monomial(basis[j])
        for i in range(j):
            lmi = leading_monomial(basis[i])
            lcm = mono_lcm(lmi, lmj)
            if sum(lcm) == sum(lmi) + sum(lmj):
                continue  # coprime leading monomials: S-pair reduces to zero
            heapq.heappush(self.pairs, (sum(lcm), next(self.counter), i, j))

    def extend(self, bound) -> None:
        """Process every pending S-pair of lcm degree <= bound."""
        basis, pairs, field = self.basis, self.pairs, self.field
        while pairs and pairs[0][0] <= bound:
            _, _, i, j = heapq.heappop(pairs)
            gi, gj = basis[i], basis[j]
            lmi, lmj = leading_monomial(gi), leading_monomial(gj)
            lcm = mono_lcm(lmi, lmj)
            s = poly_add(
                {mono_mul(m, mono_div(lcm, lmi)): c for m, c in gi.items()},
                {mono_mul(m, mono_div(lcm, lmj)): -c for m, c in gj.items()})
            s = normal_form(s, basis, field)
            if s:
                basis.append(_monic(s, field))
                self._push_pairs(len(basis) - 1)
                self._reduced = None

    def reduced(self) -> list[dict]:
        """The minimal, reduced basis of what has been processed so far."""
        if self._reduced is not None:
            return list(self._reduced)
        field = self.field
        basis = sorted(self.basis, key=lambda g: grevlex_key(leading_monomial(g)))
        minimal = []
        for g in basis:
            lm = leading_monomial(g)
            if not any(mono_divides(leading_monomial(h), lm) for h in minimal):
                minimal.append(g)
        reduced = []
        for idx, g in enumerate(minimal):
            others = minimal[:idx] + minimal[idx + 1:]
            g = normal_form(g, others, field)
            if g:
                reduced.append(_monic(g, field))
        reduced.sort(key=lambda g: grevlex_key(leading_monomial(g)))
        self._reduced = reduced
        return list(reduced)


def groebner_basis(relations, field: Field, degree_bound=None, run=None):
    """Reduced grevlex Groebner basis of a homogeneous ideal.

    With a degree bound, all S-pairs of lcm degree <= bound are processed;
    leading monomials of the result then decide ideal membership correctly
    through that degree.  Returns (basis, trusted_degree).

    ``run``, a ``GroebnerRun`` of the same relations and field, resumes that
    run instead of starting over; it is left holding the state for the next
    call.  The result is the same either way.
    """
    bound = inf if degree_bound is None else degree_bound
    if run is None:
        run = GroebnerRun(relations, field)
    run.extend(bound)
    return run.reduced(), bound


class QuotientRing:
    """A standard graded quotient R = k[X1..Xn]/J with degreewise monomial bases.

    Relations must be homogeneous of degree >= 2.  All degreewise data
    (Groebner basis, standard monomials, Hilbert coefficients) is cached and
    deterministic.
    """

    def __init__(self, n: int, relations, field: Field = QQ, names=None):
        if n < 0:
            raise ValueError("need a nonnegative number of variables")
        self.n = n
        self.field = field
        self.names = list(names) if names else [f"x{i+1}" for i in range(n)]
        if len(self.names) != n:
            raise ValueError("variable name count does not match n")
        self.relations = []
        for rel in relations:
            rel = {tuple(m): field(c) for m, c in rel.items() if c}
            if not rel:
                continue
            if any(len(m) != n for m in rel):
                raise ValueError("relation exponent length does not match n")
            if not is_homogeneous(rel):
                raise ValueError("relations must be homogeneous")
            if poly_degree(rel) < 2:
                raise ValueError("relations must have degree >= 2")
            self.relations.append(rel)
        self._gb: list[dict] = []
        self._gb_trusted = -1
        self._gb_run: GroebnerRun | None = None
        self._std: dict[int, tuple] = {}
        self._standard: dict = {}  # monomial -> no leading monomial divides it
        self._mult_cache: dict = {}

    @property
    def is_monomial(self) -> bool:
        return all(len(rel) == 1 for rel in self.relations)

    @property
    def is_squarefree_monomial(self) -> bool:
        return self.is_monomial and all(
            all(e <= 1 for e in next(iter(rel))) for rel in self.relations)

    def _ensure_gb(self, degree: int):
        if self._gb_trusted >= degree:
            return
        if self.is_monomial:
            self._gb = [dict(rel) for rel in self.relations]
            self._gb.sort(key=lambda g: grevlex_key(leading_monomial(g)))
            self._gb_trusted = inf
            return
        if self._gb_run is None:
            self._gb_run = GroebnerRun(self.relations, self.field)
        self._gb, self._gb_trusted = groebner_basis(self.relations, self.field,
                                                    degree_bound=degree, run=self._gb_run)
        if self._gb_run.complete:
            self._gb_trusted = inf

    def groebner(self, degree: int) -> list[dict]:
        self._ensure_gb(degree)
        return self._gb

    def leading_monomials(self, degree: int) -> list[Monomial]:
        return [leading_monomial(g) for g in self.groebner(degree)]

    def std_monomials(self, d: int) -> tuple:
        """Standard-monomial basis of R_d, sorted by grevlex key."""
        if d < 0:
            return ()
        if d in self._std:
            return self._std[d]
        self._ensure_gb(d)
        lms = [lm for lm in self.leading_monomials(d) if sum(lm) <= d]
        if d == 0:
            result = ((0,) * self.n,) if self.n >= 0 else ()
        else:
            prev = self.std_monomials(d - 1)
            found = []
            for m in prev:
                last = 0
                for i in range(self.n - 1, -1, -1):
                    if m[i]:
                        last = i
                        break
                for i in range(last, self.n):
                    cand = m[:i] + (m[i] + 1,) + m[i + 1:]
                    if not any(mono_divides(lm, cand) for lm in lms):
                        found.append(cand)
            found.sort(key=grevlex_key)
            result = tuple(found)
        self._std[d] = result
        return result

    def is_standard(self, m: Monomial) -> bool:
        """True iff no leading monomial of the Groebner basis divides m, cached.

        The basis is completed to degree sum(m) first, and no element of higher
        degree can divide m, so the answer never changes.
        """
        hit = self._standard.get(m)
        if hit is None:
            hit = self._standard[m] = not any(
                mono_divides(lm, m) for lm in self.leading_monomials(sum(m)))
        return hit

    def dim(self, d: int) -> int:
        return len(self.std_monomials(d))

    def hilbert_coeffs(self, D: int) -> list[int]:
        if D < 0:
            raise ValueError("need D >= 0")
        return [self.dim(d) for d in range(D + 1)]

    def basis_index(self, d: int) -> dict:
        return {m: i for i, m in enumerate(self.std_monomials(d))}

    def normal_form(self, p: dict) -> dict:
        p = {m: self.field(c) for m, c in p.items() if c}
        if not p:
            return {}
        top = max(sum(m) for m in p)
        self._ensure_gb(top)
        return normal_form(p, self._gb, self.field)

    def multiply_mod(self, a: dict, b: dict) -> dict:
        return self.normal_form(poly_mul(a, b))

    def mono_product(self, a: Monomial, b: Monomial) -> dict:
        """Normal form of the product of two monomials, cached."""
        key = (a, b)
        hit = self._mult_cache.get(key)
        if hit is None:
            hit = self.normal_form({mono_mul(a, b): self.field.one})
            self._mult_cache[key] = hit
        return hit

    def contains(self, p: dict) -> bool:
        """Ideal membership of a homogeneous polynomial."""
        return not self.normal_form(p)

    def __repr__(self):
        rels = ", ".join(poly_to_string(r, self.names) for r in self.relations)
        return f"QuotientRing({self.field}[{', '.join(self.names)}] / ({rels}))"


class ParseError(ValueError):
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

    poly: dict = {}
    sign = field.one
    if peek()[0] in ("+", "-"):
        if take(peek()[0])[0] == "-":
            sign = field.neg(sign)
    while True:
        coeff, mono = parse_term()
        coeff = field.mul(sign, coeff)
        w = poly.get(mono, field.zero) + coeff
        if w:
            poly[mono] = w
        else:
            poly.pop(mono, None)
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
    return poly


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
