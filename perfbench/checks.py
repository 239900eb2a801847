"""Answer checks for one pass of a workload.

An operation fails if any of these fails:

* it exited 0 and raised nothing (checked by the runner);
* the identity verdicts it names read PASS;
* the sha256 of its result document, with ``timing`` and ``ring`` set to null,
  equals the one recorded in ``reference.json`` -- for every seed, so the
  63ne documents must not depend on the variable order and the generic rings
  must give the complete-intersection answers of the default seed;
* at the default seed, the sha256 with ``ring`` kept equals the reference
  for the same input variant;
* for a homology table, the Euler characteristic per internal degree j:
  ``sum_i (-1)^i dim H_{i,j} == sum_i (-1)^i C(n,i) dim R_{j-i}``.
"""

from __future__ import annotations

import hashlib
import json
from math import comb
from pathlib import Path

from workloads import DEFAULT_SEED, cycle_ring_dims

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def document_digests(doc: dict) -> tuple[str, str]:
    """(digest with the ring digest kept, digest with it nulled); timing null."""
    doc = dict(doc, timing=None)
    return digest(doc), digest(dict(doc, ring=None))


def load_reference() -> dict:
    with REFERENCE.open() as fh:
        return json.load(fh)


def euler_problems(table: dict, n: int, j_max: int, ring_dims: list) -> list:
    dims = {tuple(map(int, key.split(","))): v for key, v in table.items()}
    problems = []
    for j in range(j_max + 1):
        lhs = sum((-1) ** i * dims.get((i, j), 0) for i in range(j + 1))
        rhs = sum((-1) ** i * comb(n, i) * ring_dims[j - i] for i in range(min(j, n) + 1))
        if lhs != rhs:
            problems.append(f"Euler characteristic at j={j}: {lhs} != {rhs}")
    return problems


def check_pass(workload, reference: dict, seed: int, variant: int, docs: dict,
               results: dict) -> dict:
    """Check every op of a pass on input variant ``variant`` (documents
    ``docs``) against ``reference``, as ``load_reference`` returns it.

    Returns {op name: (full digest or None, problems)}.
    """
    reference = reference["workloads"][workload.name]
    outputs = {name: payload for name, (status, payload) in results.items() if status == "ok"}
    outcome = {name: (None, [payload]) for name, (status, payload) in results.items()
               if status != "ok"}
    for op in workload.ops:
        if op.name not in outputs:
            continue
        doc = outputs[op.name]
        full, anonymous = document_digests(doc)
        problems = []
        expected = reference[op.name]
        if anonymous != expected["digest_without_ring"]:
            problems.append("result differs from the reference")
        if seed == DEFAULT_SEED and full != expected["digests"][variant]:
            problems.append("result differs from the default-seed reference")
        for key in op.identities:
            status = doc.get("verdicts", {}).get(key, {}).get("status")
            if status != "PASS":
                problems.append(f"{key} reads {status}")
        if op.euler is not None:
            source, j_max = op.euler
            if source == "cycle":
                n, ring_dims = j_max, cycle_ring_dims(j_max, j_max)
            elif source in outputs:
                n = len(docs[op.doc]["variables"])
                ring_dims = outputs[source]["tables"]["hilbert"]
            else:
                n = ring_dims = None
                problems.append(f"no ring dimensions: op {source!r} failed")
            if ring_dims is not None:
                problems += euler_problems(doc["tables"]["homology_dims"], n, j_max,
                                           ring_dims)
        outcome[op.name] = (full, problems)
    return {op.name: outcome[op.name] for op in workload.ops}
