"""Exact truncated two-variable series on downward-closed exponent regions.

A truncation stores integer (or field) coefficients for every exponent pair in
its region; pairs outside the region are unknown, pairs inside but absent are
zero.  Regions must be downward closed so that products and quotients are
honest within the region.  Arithmetic never rounds: equality means equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def region_rect(i_max: int, j_max: int) -> frozenset:
    return frozenset((i, j) for i in range(i_max + 1) for j in range(j_max + 1))


def region_total(d_max: int) -> frozenset:
    return frozenset((i, j) for i in range(d_max + 1) for j in range(d_max + 1 - i))


def _check_downward_closed(region: frozenset):
    for (i, j) in region:
        if i and (i - 1, j) not in region:
            raise ValueError(f"region not downward closed at {(i, j)}")
        if j and (i, j - 1) not in region:
            raise ValueError(f"region not downward closed at {(i, j)}")


class SeriesTrunc:
    """A series known exactly on a downward-closed region of exponents."""

    __slots__ = ("region", "coeffs")

    def __init__(self, coeffs: dict, region: frozenset, check: bool = True):
        if check:
            _check_downward_closed(region)
        self.region = region
        self.coeffs = {}
        for k, v in coeffs.items():
            k = tuple(k)
            if k not in region:
                raise ValueError(f"coefficient at {k} outside the region")
            if v:
                self.coeffs[k] = v

    @classmethod
    def binomial_power(cls, n: int, region: frozenset) -> "SeriesTrunc":
        """(1 + st)^n restricted to the region."""
        coeffs = {(i, i): comb(n, i) for i in range(n + 1) if (i, i) in region}
        return cls(coeffs, region, check=False)

    def coefficient(self, i: int, j: int):
        if (i, j) not in self.region:
            raise KeyError(f"{(i, j)} outside trusted region")
        return self.coeffs.get((i, j), 0)

    def restrict(self, region: frozenset) -> "SeriesTrunc":
        if not region <= self.region:
            raise ValueError("cannot restrict to a larger region")
        return SeriesTrunc({k: v for k, v in self.coeffs.items() if k in region},
                           region, check=True)

    def _common_region(self, other: "SeriesTrunc") -> frozenset:
        if self.region == other.region:
            return self.region
        return self.region & other.region

    def __add__(self, other):
        region = self._common_region(other)
        coeffs = {k: v for k, v in self.coeffs.items() if k in region}
        for k, v in other.coeffs.items():
            if k in region:
                coeffs[k] = coeffs.get(k, 0) + v
        return SeriesTrunc(coeffs, region, check=False)

    def __sub__(self, other):
        region = self._common_region(other)
        coeffs = {k: v for k, v in self.coeffs.items() if k in region}
        for k, v in other.coeffs.items():
            if k in region:
                coeffs[k] = coeffs.get(k, 0) - v
        return SeriesTrunc(coeffs, region, check=False)

    def __mul__(self, other):
        region = self._common_region(other)
        coeffs: dict = {}
        for (i1, j1), v1 in self.coeffs.items():
            for (i2, j2), v2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                if k in region:
                    coeffs[k] = coeffs.get(k, 0) + v1 * v2
        return SeriesTrunc(coeffs, region, check=False)

    def __eq__(self, other):
        if not isinstance(other, SeriesTrunc):
            return NotImplemented
        region = self._common_region(other)
        for k in region:
            if self.coeffs.get(k, 0) != other.coeffs.get(k, 0):
                return False
        return True

    def first_difference(self, other: "SeriesTrunc"):
        """Smallest exponent pair where the two series disagree, or None."""
        region = self._common_region(other)
        for k in sorted(region, key=lambda k: (k[0] + k[1], k)):
            if self.coeffs.get(k, 0) != other.coeffs.get(k, 0):
                return k
        return None

    def divide_exact(self, divisor: "SeriesTrunc") -> "SeriesTrunc":
        """Exact quotient by a series with unit constant term; raises if inexact.

        Exactness means the quotient has integer coefficients whenever both
        inputs do (checked), and (quotient * divisor) reproduces self on the
        whole region.
        """
        region = self._common_region(other=divisor)
        unit = divisor.coeffs.get((0, 0), 0)
        if not unit:
            raise ValueError("division needs an invertible constant term")
        q: dict = {}
        for k in sorted(region, key=lambda k: (k[0] + k[1], k)):
            i, j = k
            acc = self.coeffs.get(k, 0)
            for (di, dj), dv in divisor.coeffs.items():
                if (di, dj) == (0, 0):
                    continue
                pi, pj = i - di, j - dj
                if pi >= 0 and pj >= 0:
                    acc -= dv * q.get((pi, pj), 0)
            val = Fraction(acc, unit)
            if val.denominator != 1:
                raise ValueError(f"inexact division at exponent {k}")
            if val:
                q[k] = int(val)
        return SeriesTrunc(q, region, check=False)

    def coefficientwise_le(self, other: "SeriesTrunc") -> bool:
        region = self._common_region(other)
        return all(self.coeffs.get(k, 0) <= other.coeffs.get(k, 0) for k in region)

    def eval_first_at_minus_one(self, j_max: int) -> list:
        """Coefficients of t^j in series(-1, t); valid when the region holds
        every contributing (i, j) with i <= j (true for Betti-style series)."""
        out = [0] * (j_max + 1)
        for (i, j), v in self.coeffs.items():
            if j <= j_max:
                out[j] += v if i % 2 == 0 else -v
        return out

    def __repr__(self):
        terms = [f"{v}*s^{i}*t^{j}" for (i, j), v in
                 sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))]
        return " + ".join(terms) if terms else "0"


def univariate(coeffs, d_max: int) -> list:
    """Normalize a list/dict of univariate coefficients to a fixed-length list."""
    out = [0] * (d_max + 1)
    if isinstance(coeffs, dict):
        items = coeffs.items()
    else:
        items = enumerate(coeffs)
    for k, v in items:
        if 0 <= k <= d_max:
            out[k] = v
    return out


def univariate_mul(a: list, b: list, d_max: int) -> list:
    out = [0] * (d_max + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if i + j <= d_max:
                    out[i + j] += ai * bj
    return out


def univariate_binomial(n: int, sign: int, d_max: int) -> list:
    """(1 + sign*t)^n truncated."""
    return [comb(n, k) * (sign ** k) if k <= n else 0 for k in range(d_max + 1)]
