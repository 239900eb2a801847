"""The benchmark's workloads and the seeded generator of their ring documents.

A workload is a fixed list of operations run in order; one run of that list
is a *pass*, about 6 s when the machine is quiet.  Every operation calls the
``koszul`` command in-process on ring documents generated here from the
workload seed, except ``hilbert``, which has no command and calls
``QuotientRing.hilbert_coeffs`` on a freshly loaded ring.  The program only
ever sees the generated documents.

There are two workloads, each a union of two parts that stress different
layers, so that a run can measure for long enough (see ``BENCHMARK.json``):
on a 2-core x86-64 virtual machine, end-to-end times drifted by up to 2x
over minutes, and 30-s runs of the four parts as separate workloads spread
by 0.19 to 0.26 (quartile distance over median, 10 seeds).  The per-op wall
times in every run's diagnostics still separate the parts.

* ``tor-series``: 63ne over QQ through ``check`` theorem-a, theorem-b, golod
  and koszul (bar engine), then ``family`` cycle and path.  The koszul check
  stops at ``--max-int 6`` and the cycle has 8 vertices, so that a pass
  stays near 6 s; the 9-cycle alone takes 7 s.
* ``generic-quadrics``: ``homology`` and then ``hilbert_coeffs(7)`` on 5
  generic quadrics in 5 variables, over GF(32003) to ``--max-int 5`` and
  over QQ to ``--max-int 4``.  With 6 variables, the GF(32003) homology op
  alone takes 7 s at ``--max-int 4``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb

# Seed whose result digests are recorded in reference.json.
DEFAULT_SEED = 0

GF_PRIME = 32003

RING_63NE = {
    "field": "QQ",
    "variables": ["x", "y", "z", "u"],
    "relations": ["x^2", "x*y", "x*z + u^2", "x*u", "y^2 + z^2", "z*u"],
}


def ring_63ne_orders(seed: int) -> list[dict]:
    """63ne under each of its 24 variable orders, in a seeded order.

    The relations are untouched; only the order of ``variables``, and so the
    grevlex order the program works in, changes.  Pass k of a run uses the
    k-th order: the work differs between orders (up to a third more matrix
    entries), so a run's median covers several of them instead of depending
    on the one a seed picks.
    """
    orders = list(itertools.permutations(RING_63NE["variables"]))
    random.Random(seed).shuffle(orders)
    return [{"ring": dict(RING_63NE, variables=list(order))} for order in orders]


def generic_quadrics(seed: int, n: int, m: int, field_spec) -> dict:
    """m quadrics in x1..xn with one seeded coefficient per monomial.

    Over QQ the coefficients are uniform integers in [-9, 9]; over GF(p)
    they are uniform in range(p).
    """
    rng = random.Random(seed)
    names = [f"x{k + 1}" for k in range(n)]
    monomials = list(itertools.combinations_with_replacement(range(n), 2))
    relations = []
    for _ in range(m):
        terms = []
        for a, b in monomials:
            c = rng.randint(-9, 9) if field_spec == "QQ" else rng.randrange(field_spec["Fp"])
            if c:
                terms.append(f"{'-' if c < 0 else '+'} {abs(c)}*{names[a]}*{names[b]}")
        relations.append(" ".join(terms).lstrip("+ "))
    return {"field": field_spec, "variables": names, "relations": relations}


def cycle_ring_dims(n: int, d_max: int) -> list[int]:
    """dim R_d, d <= d_max, for the edge ideal of the n-cycle, by counting.

    A monomial is standard iff its support is an independent set of the
    cycle, and a set of size s >= 1 supports C(d-1, s-1) monomials of degree
    d.  This is independent of the program's Groebner and basis code.
    """
    sizes = [0] * (n + 1)
    for mask in range(1 << n):
        if all(not (mask >> k & 1 and mask >> ((k + 1) % n) & 1) for k in range(n)):
            sizes[bin(mask).count("1")] += 1
    return [1] + [sum(sizes[s] * comb(d - 1, s - 1) for s in range(1, n + 1))
                  for d in range(1, d_max + 1)]


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    ``argv`` is the ``koszul`` command line, with ``@<doc>`` standing for the
    path of a generated document; ``hilbert`` ops give ``hilbert_degree``
    instead.  ``identities`` names the verdicts that must read PASS.
    ``euler`` asks for the Euler-characteristic check of the op's homology
    table up to an internal degree, with the ring dimensions taken from a
    hilbert op of the same pass, ``(op name, j_max)``, or counted for the
    n-cycle edge ideal, ``("cycle", n)`` with j_max = n.
    """

    name: str
    argv: tuple = ()
    doc: str | None = None
    hilbert_degree: int | None = None
    identities: tuple = ()
    euler: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    documents: object          # seed -> [{doc name: ring document}], pass k uses entry k mod len
    ops: tuple
    generator: dict            # generator parameters, echoed in each run's diagnostics


def _generic_documents(seed: int) -> list[dict]:
    return [{field: generic_quadrics(seed, 5, 5, spec)
             for field, spec in (("gf", {"Fp": GF_PRIME}), ("qq", "QQ"))}]


def _generic_ops(field: str, max_int: int) -> tuple:
    return (Op(f"homology-{field}", ("homology", f"@{field}", "--max-int", str(max_int)),
               doc=field, euler=(f"hilbert-{field}", max_int)),
            Op(f"hilbert-{field}", doc=field, hilbert_degree=7))


WORKLOADS = {w.name: w for w in (
    Workload(
        "tor-series",
        "63ne in all 24 variable orders plus the 8-cycle and 10-path edge ideals: "
        "trivial or no Buchberger, so both Tor engines, resolution bookkeeping, "
        "series identities and rewriting dominate",
        ring_63ne_orders,
        (Op("theorem-a", ("check", "@ring", "--what", "theorem-a", "--bound", "8"),
            doc="ring", identities=("theorem_a", "hilbert_identity")),
         Op("theorem-b", ("check", "@ring", "--what", "theorem-b", "--bound", "7"),
            doc="ring", identities=("theorem_b",)),
         Op("golod", ("check", "@ring", "--what", "golod", "--bound", "7"),
            doc="ring"),
         Op("koszul-bar", ("check", "@ring", "--what", "koszul", "--bound", "5",
                           "--max-int", "6", "--engine", "bar"),
            doc="ring"),
         Op("cycle-8", ("family", "--family", "cycle", "-n", "8"), euler=("cycle", 8)),
         Op("path-10", ("family", "--family", "path", "-n", "10"))),
        {"ring": "63ne, variables in all 24 orders shuffled by random.Random(seed)",
         "families": "cycle n=8, path n=10 (no input document)"}),
    Workload(
        "generic-quadrics",
        "5 seeded generic quadrics in 5 variables over GF(32003) and over QQ: "
        "large eliminations and degree-truncated Buchberger in modular and "
        "rational arithmetic, no Tor engines",
        _generic_documents,
        _generic_ops("gf", 5) + _generic_ops("qq", 4),
        {"generator": "generic_quadrics", "variables": 5, "quadrics": 5,
         "gf": f"GF({GF_PRIME}), coefficients uniform in range({GF_PRIME})",
         "qq": "QQ, coefficients uniform in [-9, 9]",
         "seed": "each field's ring is drawn from a fresh random.Random(seed)"}),
)}
