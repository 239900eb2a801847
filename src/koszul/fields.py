"""Exact coefficient fields: the rationals and prime fields GF(p).

Rational elements are ``fractions.Fraction`` (plain ints are accepted and
coerced); prime-field elements are ints in ``range(p)``.  Everything downstream
does exact zero tests, so no other scalar types are allowed in.
"""

from __future__ import annotations

from fractions import Fraction


# Miller-Rabin on the first 13 primes as bases is exact below the least
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


class InputError(ValueError):
    """Outside input is malformed, or outside a certifier's family (CLI exit 2)."""


def _is_prime(p: int) -> bool:
    """Deterministic primality for p < _MR_LIMIT; larger p raise InputError."""
    if p < 2:
        return False
    if p >= _MR_LIMIT:
        raise InputError(f"field order {p} is too large: primality is only "
                         f"decided below {_MR_LIMIT}")
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals (``p == 0``) or the prime field of order ``p``."""

    __slots__ = ("p",)

    def __init__(self, p: int = 0):
        if p != 0 and not _is_prime(p):
            raise InputError(f"field order must be 0 (rationals) or prime, got {p}")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

    def __call__(self, x):
        """Coerce an int, Fraction, or ``a/b`` string into the field; anything
        else, a float included, raises TypeError."""
        if isinstance(x, str):
            num, _, den = x.partition("/")
            x = Fraction(int(num), int(den)) if den else int(num)
        elif not isinstance(x, (int, Fraction)):
            raise TypeError(f"{self} has no element {x!r} of type {type(x).__name__}")
        p = self.p
        if p == 0:
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
            return x.numerator * pow(x.denominator, -1, p) % p
        return x % p

    @property
    def zero(self):
        return Fraction(0) if self.p == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.p == 0 else 1

    def mul(self, a, b):
        return a * b % self.p if self.p else a * b

    def neg(self, a):
        return -a % self.p if self.p else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p) if self.p else 1 / Fraction(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def collect(self, terms) -> dict:
        """Sum ``(key, value)`` pairs into a sparse vector over the field.

        A value may be any int expression in field elements (a product, a
        negation); each sum is reduced into the field: ``% p`` over GF(p), a
        Fraction over QQ.  A key whose sum reaches zero is dropped at once,
        so a key that cancels and comes back moves to the end.
        """
        out: dict = {}
        get = out.get
        p = self.p
        if p:
            for k, v in terms:
                w = (get(k, 0) + v) % p
                if w:
                    out[k] = w
                else:
                    out.pop(k, None)
        else:
            zero = Fraction(0)
            for k, v in terms:
                w = get(k, zero) + v
                if w:
                    out[k] = w
                else:
                    out.pop(k, None)
        return out

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p == 0 else f"GF({self.p})"


QQ = Field(0)

# The one prime of modular work over QQ: the certified twins of
# koszul.polyring and the first ranks of fractional slices in koszul.sparse.
# Residues below 2^15 keep their products single-digit CPython ints.
MODULAR = Field(32003)


def field_from_spec(spec) -> Field:
    """Build a field from the document form ``"QQ"`` or ``{"Fp": p}``, where
    p is an integer (not a bool, a float or a string)."""
    if spec == "QQ":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"Fp"}:
        order = spec["Fp"]
        if type(order) is int:
            return Field(order)
    raise InputError(f"unrecognized field spec: {spec!r}")
