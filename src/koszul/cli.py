"""Command-line front end.

Rings come in as JSON documents::

    {"field": "QQ",            # or {"Fp": 7}
     "variables": ["x", "y"],
     "relations": ["x^2", "x*y + y^2"]}

Relation expressions are signed sums of '*'-separated factors; a factor is an
integer, a rational ``a/b``, or ``variable['^' exponent]``.  Whitespace is
ignored.  Results are emitted as a single JSON document (stable key order,
deterministic content; timing only when requested) or as an aligned Betti
table (rows: internal degree minus homological degree; columns: homological
degree).

Exit codes: 0 = computed and decided, 1 = an identity that must hold failed
(internal inconsistency), 2 = bad input (any ``InputError``), 141 = stdout was
closed before the output was written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from .betti import is_koszul_up_to, is_strand_koszul_up_to
from .families import (build_cycle_ring, build_quadratic_ci, path_certify,
                       short_gorenstein_certify, three_relation_certify)
from .fields import InputError, field_from_spec
from .graded import ring_algebra_data
from .homology import homology
from .identities import (check_golod, check_hilbert_identity,
                         check_low_degree_betti, check_prop_2_5,
                         check_quasi_formal, check_theorem_A, check_theorem_B)
from .polyring import ParseError, QuotientRing, parse_polynomial

RESULT_VERSION = "1"


def _field_spec_from_flag(text: str):
    if text == "QQ":
        return "QQ"
    if text.startswith("F") and text[1:].isdigit():
        return {"Fp": int(text[1:])}
    raise InputError(f'--field must be "QQ" or "F<p>", got {text!r}')


def _field_from_flag(text: str | None):
    """The field that --field names, QQ when the flag is not given."""
    spec = _field_spec_from_flag(text or "QQ")
    try:
        return field_from_spec(spec)
    except InputError as exc:
        raise InputError(f"--field: {exc}")


def _check_names(names: list, label: str) -> None:
    for k, name in enumerate(names):
        if not name:
            raise InputError(f"{label} has an empty name at position {k}")
        if name in names[:k]:
            raise InputError(f"{label} names {name!r} twice")


def load_ring(path: str, field_override: str | None = None) -> tuple[QuotientRing, str]:
    """Parse a ring document; returns (ring, content digest)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read ring file: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"ring file is not valid JSON: {exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"ring file is not UTF-8: {exc}")
    except RecursionError:
        raise InputError("ring file nests JSON arrays or objects too deeply")
    if not isinstance(doc, dict):
        raise InputError("ring document must be a JSON object")
    for key in ("field", "variables", "relations"):
        if key not in doc:
            raise InputError(f"ring document is missing {key!r}")
    if field_override:
        doc["field"] = _field_spec_from_flag(field_override)
    field = field_from_spec(doc["field"])
    names = doc["variables"]
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise InputError(f"'variables' must be a list of names, got {names!r}")
    _check_names(names, "'variables'")
    if not isinstance(doc["relations"], list):
        raise InputError(f"'relations' must be a list of strings, "
                         f"got {doc['relations']!r}")
    relations = []
    for k, text in enumerate(doc["relations"]):
        if not isinstance(text, str):
            raise InputError(f"relation {k} must be a string, got {text!r}")
        try:
            relations.append(parse_polynomial(text, names, field))
        except ParseError as exc:
            raise InputError(f"in relation {text!r}: {exc}")
    ring = QuotientRing(len(names), relations, field, names)
    normalized = json.dumps(
        {"field": doc["field"], "variables": names,
         "relations": doc["relations"]}, sort_keys=True)
    digest = hashlib.sha256(normalized.encode()).hexdigest()[:16]
    return ring, digest


def result_document(command: str, ring_digest: str | None, bounds: dict,
                    tables: dict, verdicts: dict, timing) -> dict:
    return {
        "version": RESULT_VERSION,
        "command": command,
        "ring": ring_digest,
        "bounds": bounds,
        "tables": tables,
        "verdicts": verdicts,
        "timing": timing,
    }


def render_betti_table(entries: dict) -> str:
    """Aligned text table: columns = homological degree, rows = j - i."""
    cells = {}
    for key, v in entries.items():
        i, j = key
        cells[(j - i, i)] = cells.get((j - i, i), 0) + v
    if not cells:
        return "(empty table)"
    rows = range(min(r for r, _ in cells), max(r for r, _ in cells) + 1)
    cols = range(0, max(c for _, c in cells) + 1)
    width = max(3, *(len(str(v)) for v in cells.values()))
    lines = [" " * 4 + "".join(f"{c:>{width + 1}}" for c in cols)]
    lines.append(" " * 4 + "-" * ((width + 1) * len(list(cols))))
    for r in rows:
        cells_r = [cells.get((r, c)) for c in cols]
        body = "".join(f"{v if v is not None else '.':>{width + 1}}"
                       for v in cells_r)
        lines.append(f"{r:>3}:" + body)
    return "\n".join(lines)


def emit(document: dict, table_entries: dict | None = None) -> None:
    if table_entries is not None:
        print(render_betti_table(table_entries))
        print()
    print(json.dumps(document, sort_keys=True, indent=2))


def cmd_homology(args) -> int:
    ring, digest = load_ring(args.ring, args.field)
    if args.multigraded and not ring.is_squarefree_monomial:
        raise InputError("--multigraded needs a squarefree monomial defining ideal")
    i_max = args.max_hom if args.max_hom is not None else ring.n
    j_max = args.max_int if args.max_int is not None else ring.n + 2
    started = time.perf_counter()
    H = homology(ring, i_max, j_max)
    dims = H.dims()
    tables = {"homology_dims": {f"{i},{j}": d for (i, j), d in sorted(dims.items())}}
    if args.multigraded:
        # per lattice multidegree u, read from the ranks H already holds
        mg = {}
        for j in range(1, min(j_max, ring.n) + 1):
            for u in H.grades(j):
                mdims = {str(i): d for i in range(1, min(j, H.i_max) + 1)
                         if (d := H.multigraded_dim(i, u))}
                if mdims:
                    mg["(" + ",".join(map(str, u)) + ")"] = mdims
        tables["multigraded_dims"] = dict(sorted(mg.items()))
    elapsed = round(time.perf_counter() - started, 3) if args.timing else None
    doc = result_document("homology", digest,
                          {"max_hom": i_max, "max_int": j_max},
                          tables, {}, elapsed)
    emit(doc, dims if args.format == "table" else None)
    return 0


CHECKS = ("koszul", "strand-koszul", "quasi-formal", "golod",
          "theorem-a", "theorem-b", "low-degree", "prop-2-5")


def cmd_check(args) -> int:
    ring, digest = load_ring(args.ring, args.field)
    b = args.bound
    p_max = args.max_hom if args.max_hom is not None else b
    j_max = args.max_int if args.max_int is not None else b
    started = time.perf_counter()
    verdicts: dict = {}
    tables: dict = {}
    bounds: dict = {"bound": b, "max_hom": p_max, "max_int": j_max}
    failed_identity = False
    what = args.what
    if what == "koszul":
        A = ring_algebra_data(ring, j_max)
        v = is_koszul_up_to(A, p_max, j_max, engine=args.engine)
        verdicts["koszul"] = v.to_json()
    elif what == "strand-koszul":
        H = homology(ring, ring.n, j_max)
        if args.strand_route:
            # H built to j_max is trusted to a lower strand weight (see
            # KoszulHomologyAlgebra.algebra_data), so test only up to that
            strand_max = H.algebra_data("strand").bound
            if strand_max < 1:
                # monomial rings are trusted to j_max once j_max reaches n
                needed = ring.n if H.multigraded else ring.n + 1
                raise InputError(f"--strand-route needs --max-int >= {needed} "
                                 f"on this ring, got {j_max}")
            v = is_strand_koszul_up_to(H, p_max, strand_max, engine=args.engine)
        else:
            v = is_strand_koszul_up_to(H, p_max, j_max, trigraded=True,
                                       engine=args.engine)
        verdicts["strand_koszul"] = v.to_json()
    elif what == "quasi-formal":
        v = check_quasi_formal(ring, p_max, j_max, engine=args.engine)
        verdicts["quasi_formal"] = v.to_json()
    elif what == "golod":
        v = check_golod(ring, p_max, j_max, engine=args.engine)
        verdicts["golod"] = v.to_json()
    elif what == "theorem-a":
        report = check_theorem_A(ring, b, engine=args.engine)
        hilbert = check_hilbert_identity(ring, max(b - 2, 0), engine=args.engine)
        verdicts["theorem_a"] = report.to_json()
        verdicts["hilbert_identity"] = hilbert.to_json()
        tables["P_R"] = {f"{i},{j}": v for (i, j), v in report.data["P_R"]}
        tables["P_K"] = {f"{i},{j}": v for (i, j), v in report.data["P_K"]}
        failed_identity = not (report.passed and hilbert.passed)
    elif what == "theorem-b":
        report = check_theorem_B(ring, p_max, j_max, engine=args.engine)
        verdicts["theorem_b"] = report.to_json()
        failed_identity = report.status in ("LOGIC-FAILURE", "FAIL")
    elif what == "low-degree":
        report = check_low_degree_betti(ring, j_max, engine=args.engine)
        verdicts["low_degree"] = report.to_json()
        failed_identity = not report.passed
    elif what == "prop-2-5":
        H = homology(ring, ring.n, j_max)
        report = check_prop_2_5(H, ring.n, p_max, j_max, engine=args.engine)
        verdicts["prop_2_5"] = report.to_json()
        failed_identity = not report.passed
    else:
        raise InputError(f"unknown check {what!r}")
    elapsed = round(time.perf_counter() - started, 3) if args.timing else None
    doc = result_document(f"check:{what}", digest, bounds, tables,
                          verdicts, elapsed)
    emit(doc)
    return 1 if failed_identity else 0


def _parse_inline_quadrics(args):
    names = [s.strip() for s in args.variables.split(",")] if args.variables else None
    if not args.quadrics:
        raise InputError("--family ci needs --quadrics")
    if names is None:
        raise InputError("--family ci needs --variables")
    _check_names(names, "--variables")
    field = _field_from_flag(args.field)
    quadrics = []
    for text in args.quadrics.split(","):
        try:
            quadrics.append(parse_polynomial(text.strip(), names, field))
        except ParseError as exc:
            raise InputError(f"in quadric {text!r}: {exc}")
    return names, quadrics, field


def cmd_family(args) -> int:
    started = time.perf_counter()
    family = args.family
    if args.max_hom is not None and family != "cycle":
        raise InputError("--max-hom applies to --family cycle only")
    digest = None
    if family == "cycle":
        if args.n is None or args.n < 3:
            raise InputError("--family cycle needs -n >= 3")
        ring = build_cycle_ring(args.n, _field_from_flag(args.field))
        H = homology(ring, ring.n, args.n)
        p_max = 3 if args.max_hom is None else min(3, args.max_hom)
        v = is_strand_koszul_up_to(H, p_max, args.n, trigraded=True)
        bounds = {"n": args.n}
        tables = {"homology_dims": {f"{i},{j}": d for (i, j), d
                                    in sorted(H.dims().items())}}
        verdicts = {"strand_koszul": v.to_json()}
        code = 0
    else:
        if family == "ci":
            names, quadrics, field = _parse_inline_quadrics(args)
            ring, cert = build_quadratic_ci(len(names), quadrics, field, names)
        elif family == "gorenstein":
            if not args.ring:
                raise InputError("--family gorenstein needs a ring file")
            ring, digest = load_ring(args.ring, args.field)
            cert = short_gorenstein_certify(ring)
        elif family == "three-rel":
            if not args.ring:
                raise InputError("--family three-rel needs a ring file")
            ring, digest = load_ring(args.ring, args.field)
            cert = three_relation_certify(ring)
        elif family == "path":
            if args.n is None or args.n < 3:
                raise InputError("--family path needs -n >= 3")
            ring, cert = path_certify(args.n, _field_from_flag(args.field))
        else:
            raise InputError(f"unknown family {family!r}")
        bounds = dict(cert.verdict.bound)
        tables = {}
        verdicts = {"family": cert.to_json()}
        code = 0 if cert.verdict.status != "INCONSISTENT" else 1
    elapsed = round(time.perf_counter() - started, 3) if args.timing else None
    emit(result_document(f"family:{family}", digest, bounds, tables, verdicts, elapsed))
    return code


def _nonnegative(text: str) -> int:
    """An argparse type: an int no smaller than 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koszul",
        description="Koszul homology algebras and Koszulness tests, exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", default=None,
                       help='the coefficient field, "QQ" or "F<p>"; it '
                            "overrides a ring document's field")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing in the output document")

    p_hom = sub.add_parser("homology", help="Koszul homology dimension table")
    p_hom.add_argument("ring", help="ring document (JSON)")
    p_hom.add_argument("--max-hom", type=_nonnegative, default=None)
    p_hom.add_argument("--max-int", type=_nonnegative, default=None)
    p_hom.add_argument("--multigraded", action="store_true")
    p_hom.add_argument("--format", choices=("json", "table"), default="json")
    common(p_hom)
    p_hom.set_defaults(func=cmd_homology)

    p_check = sub.add_parser("check", help="run one of the named checks")
    p_check.add_argument("ring", help="ring document (JSON)")
    p_check.add_argument("--what", choices=CHECKS, required=True)
    p_check.add_argument("--bound", type=_nonnegative, default=6)
    p_check.add_argument("--max-hom", type=_nonnegative, default=None)
    p_check.add_argument("--max-int", type=_nonnegative, default=None)
    p_check.add_argument("--strand-route", action="store_true",
                         help="test strand-Koszulness through the strand "
                              "totalization instead of trigraded Betti numbers")
    p_check.add_argument("--engine", choices=("auto", "bar", "resolution"),
                         default="auto")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_fam = sub.add_parser("family", help="family-specific certification")
    p_fam.add_argument("--family", choices=("ci", "gorenstein", "three-rel",
                                            "path", "cycle"), required=True)
    p_fam.add_argument("-n", type=_nonnegative, default=None)
    p_fam.add_argument("--ring", default=None, help="ring document (JSON)")
    p_fam.add_argument("--quadrics", default=None,
                       help="comma-separated quadric expressions (ci family)")
    p_fam.add_argument("--variables", default=None,
                       help="comma-separated variable names (ci family)")
    p_fam.add_argument("--max-hom", type=_nonnegative, default=None,
                       help="bar-degree bound of the strand test, at most 3 "
                            "(cycle family)")
    common(p_fam)
    p_fam.set_defaults(func=cmd_family)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; keep the flush at exit from failing as well
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process it killed
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # inconsistencies surfaced by the identity machinery
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
