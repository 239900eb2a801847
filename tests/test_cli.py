import importlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import koszul.cli
from koszul import QQ, Field
from koszul.cli import load_ring, main
from koszul.homology import multigraded_homology

from test_golden_outputs import GOLDEN, GOR2, ring, run_case

RING_63NE = {
    "field": "QQ",
    "variables": ["x", "y", "z", "u"],
    "relations": ["x^2", "x*y", "x*z + u^2", "x*u", "y^2 + z^2", "z*u"],
}

RING_PATH3 = {
    "field": "QQ",
    "variables": ["x1", "x2", "x3"],
    "relations": ["x1*x2", "x2*x3"],
}

RING_CI = {
    "field": "QQ",
    "variables": ["x", "y"],
    "relations": ["x^2", "y^2"],
}

RING_CYCLE9 = {
    "field": "QQ",
    "variables": [f"x{k}" for k in range(1, 10)],
    "relations": [f"x{k}*x{k+1}" for k in range(1, 9)] + ["x9*x1"],
}


def write_ring(tmp_path, doc, name="ring.json"):
    """Write a ring document, or the raw bytes of a ring file; return its path."""
    path = tmp_path / name
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    json_start = out.index("{")
    return code, json.loads(out[json_start:]), out


def test_homology_63ne(tmp_path, capsys):
    path = write_ring(tmp_path, RING_63NE)
    code, doc, _ = run(capsys, ["homology", path, "--max-hom", "4",
                                "--max-int", "6"])
    assert code == 0
    assert doc["tables"]["homology_dims"]["1,2"] == 6
    assert doc["timing"] is None


def test_homology_polynomial_ring(tmp_path, capsys):
    path = write_ring(tmp_path, {"field": "QQ", "variables": ["x", "y"],
                                 "relations": []})
    code, doc, _ = run(capsys, ["homology", path, "--max-int", "4"])
    assert code == 0
    assert doc["tables"]["homology_dims"] == {"0,0": 1}


def test_homology_multigraded(tmp_path, capsys):
    path = write_ring(tmp_path, RING_PATH3)
    code, doc, _ = run(capsys, ["homology", path, "--max-int", "3",
                                "--multigraded"])
    assert code == 0
    assert doc["tables"]["multigraded_dims"]["(1,1,1)"] == {"2": 1}


def test_homology_multigraded_needs_squarefree_monomial_ring(tmp_path, capsys):
    # the classes of x^2, x*y sit at the multidegrees (2, 0) and (2, 1), which
    # a table over squarefree multidegrees would miss
    path = write_ring(tmp_path, {"field": "QQ", "variables": ["x", "y"],
                                 "relations": ["x^2", "x*y"]})
    assert main(["homology", path, "--multigraded"]) == 2
    assert "--multigraded" in capsys.readouterr().err
    code, doc, _ = run(capsys, ["homology", path])
    assert code == 0
    assert doc["tables"]["homology_dims"] == {"0,0": 1, "1,2": 2, "2,3": 1}


@pytest.mark.parametrize("n, closed", [(5, False), (6, False), (6, True)])
def test_multigraded_table_matches_slicewise_homology(tmp_path, capsys, n, closed):
    names = [f"x{k}" for k in range(1, n + 1)]
    edges = [(k, k + 1) for k in range(n - 1)] + ([(n - 1, 0)] if closed else [])
    path = write_ring(tmp_path, {"field": "QQ", "variables": names,
                                 "relations": [f"{names[a]}*{names[b]}"
                                               for a, b in edges]})
    code, doc, _ = run(capsys, ["homology", path, "--multigraded"])
    assert code == 0
    ring, _ = load_ring(path)
    expected = {}
    for u in itertools.product((0, 1), repeat=n):
        dims, _ = multigraded_homology(ring, u)
        if any(u) and dims:
            expected["(" + ",".join(map(str, u)) + ")"] = {
                str(i): d for i, d in dims.items()}
    assert doc["tables"]["multigraded_dims"] == expected


def test_homology_table_format(tmp_path, capsys):
    path = write_ring(tmp_path, RING_63NE)
    code = main(["homology", path, "--max-int", "5", "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0:" in out and "1:" in out


def test_check_strand_koszul_63ne(tmp_path, capsys):
    path = write_ring(tmp_path, RING_63NE)
    code, doc, _ = run(capsys, ["check", path, "--what", "strand-koszul",
                                "--bound", "8", "--max-hom", "3"])
    assert code == 0
    verdict = doc["verdicts"]["strand_koszul"]
    assert verdict["status"] == "NOT-STRAND-KOSZUL"
    p, i, j = verdict["witness"]
    assert p != j - i


def test_check_strand_koszul_cycle9(tmp_path, capsys):
    path = write_ring(tmp_path, RING_CYCLE9)
    code, doc, _ = run(capsys, ["check", path, "--what", "strand-koszul",
                                "--bound", "9", "--max-hom", "2"])
    assert code == 0
    verdict = doc["verdicts"]["strand_koszul"]
    assert verdict["status"] == "NOT-STRAND-KOSZUL"
    assert verdict["witness"] == [2, 6, 9]


def test_check_theorem_b_ci(tmp_path, capsys):
    path = write_ring(tmp_path, RING_CI)
    code, doc, _ = run(capsys, ["check", path, "--what", "theorem-b",
                                "--bound", "5"])
    assert code == 0
    statements = doc["verdicts"]["theorem_b"]["data"]["statements"]
    assert all(statements.values())


def test_check_theorem_a_includes_hilbert(tmp_path, capsys):
    path = write_ring(tmp_path, RING_PATH3)
    code, doc, _ = run(capsys, ["check", path, "--what", "theorem-a",
                                "--bound", "6"])
    assert code == 0
    assert doc["verdicts"]["theorem_a"]["status"] == "PASS"
    assert doc["verdicts"]["hilbert_identity"]["status"] == "PASS"
    assert doc["tables"]["P_R"]["0,0"] == 1


def test_check_koszul_and_golod(tmp_path, capsys):
    path = write_ring(tmp_path, {"field": "QQ", "variables": ["x", "y"],
                                 "relations": ["x^2", "x*y", "y^2"]})
    code, doc, _ = run(capsys, ["check", path, "--what", "koszul",
                                "--bound", "4"])
    assert code == 0
    assert doc["verdicts"]["koszul"]["status"] == "KOSZUL-UP-TO-BOUND"
    code, doc, _ = run(capsys, ["check", path, "--what", "golod",
                                "--bound", "4"])
    assert code == 0
    assert doc["verdicts"]["golod"]["status"] == "GOLOD-UP-TO-BOUND"


def test_family_path(capsys):
    code, doc, _ = run(capsys, ["family", "--family", "path", "-n", "5"])
    assert code == 0
    family = doc["verdicts"]["family"]
    assert family["verdict"]["status"] == "STRAND-KOSZUL"
    assert "z1" in family["generators"]
    assert family["dimension_counts"]["0"] == [1, 1]


def test_family_ci(capsys):
    code, doc, _ = run(capsys, ["family", "--family", "ci",
                                "--variables", "x,y",
                                "--quadrics", "x^2,y^2"])
    assert code == 0
    family = doc["verdicts"]["family"]
    assert family["verdict"]["status"] == "STRAND-KOSZUL"


def test_family_gorenstein(tmp_path, capsys):
    doc_in = {"field": "QQ", "variables": ["x", "y"],
              "relations": ["x^2", "y^2"]}
    path = write_ring(tmp_path, doc_in)
    code, doc, _ = run(capsys, ["family", "--family", "gorenstein",
                                "--ring", path])
    assert code == 0
    assert doc["verdicts"]["family"]["verdict"]["status"] == "STRAND-KOSZUL"


def test_family_three_rel(tmp_path, capsys):
    path = write_ring(tmp_path, {"field": "QQ", "variables": ["x", "y", "z"],
                                 "relations": ["x^2", "x*y", "z^2"]})
    code, doc, _ = run(capsys, ["family", "--family", "three-rel",
                                "--ring", path])
    assert code == 0
    family = doc["verdicts"]["family"]
    assert family["data"]["table"] == "bottom-right"


def test_family_cycle(capsys):
    code, doc, _ = run(capsys, ["family", "--family", "cycle", "-n", "4"])
    assert code == 0
    assert "strand_koszul" in doc["verdicts"]


@pytest.mark.parametrize("flag, p_max", [([], 3), (["--max-hom", "0"], 0),
                                          (["--max-hom", "2"], 2),
                                          (["--max-hom", "5"], 3)])
def test_family_cycle_honours_max_hom(capsys, flag, p_max):
    code, doc, _ = run(capsys, ["family", "--family", "cycle", "-n", "5"] + flag)
    assert code == 0
    assert doc["verdicts"]["strand_koszul"]["bound"]["p_max"] == p_max


@pytest.mark.parametrize("argv", [
    ["--family", "ci", "--variables", "x,y", "--quadrics", "x^2,y^2"],
    ["--family", "gorenstein", "--ring", "@"],
    ["--family", "three-rel", "--ring", "@"],
    ["--family", "path", "-n", "4"],
], ids=["ci", "gorenstein", "three-rel", "path"])
def test_family_max_hom_is_rejected_outside_the_cycle_family(tmp_path, capsys, argv):
    path = write_ring(tmp_path, RING_CI)
    argv = ["family"] + [path if a == "@" else a for a in argv] + ["--max-hom", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "--max-hom" in captured.err and not captured.out


def test_check_builds_each_table_once(tmp_path, capsys, monkeypatch):
    # prop-2-5 reads both of its sides off one trigraded table, and the
    # strand route takes its bound and its test from one strand totalization
    betti = importlib.import_module("koszul.betti")
    homology_module = importlib.import_module("koszul.homology")
    built = []
    real_table = betti.betti_table
    real_data = homology_module.GradedAlgebraData

    def table(A, *args, **kwargs):
        built.append("table")
        return real_table(A, *args, **kwargs)

    def data(*args, **kwargs):
        built.append("data")
        return real_data(*args, **kwargs)

    monkeypatch.setattr(betti, "betti_table", table)
    monkeypatch.setattr(homology_module, "GradedAlgebraData", data)
    path = write_ring(tmp_path, RING_63NE)
    assert main(["check", path, "--what", "prop-2-5", "--bound", "6"]) == 0
    assert built == ["data", "table"]
    built.clear()
    assert main(["check", path, "--what", "strand-koszul", "--bound", "6",
                 "--max-hom", "3", "--strand-route"]) == 0
    assert built == ["data", "table"]
    capsys.readouterr()


def test_usage_errors(tmp_path, capsys):
    assert main(["family", "--family", "path", "-n", "2"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["homology", str(bad)]) == 2
    capsys.readouterr()
    nonhomog = write_ring(tmp_path, {"field": "QQ", "variables": ["x", "y"],
                                     "relations": ["x^2 + y"]}, "nh.json")
    assert main(["homology", nonhomog]) == 2
    capsys.readouterr()
    parse_fail = write_ring(tmp_path, {"field": "QQ", "variables": ["x"],
                                       "relations": ["x ^^ 2"]}, "pf.json")
    assert main(["homology", parse_fail]) == 2
    capsys.readouterr()


def test_deterministic_output(tmp_path, capsys):
    path = write_ring(tmp_path, RING_PATH3)
    main(["check", path, "--what", "koszul", "--bound", "4"])
    first = capsys.readouterr().out
    main(["check", path, "--what", "koszul", "--bound", "4"])
    second = capsys.readouterr().out
    assert first == second


def test_jobs_flag(tmp_path, capsys):
    # --jobs never had an effect and is no longer accepted
    path = write_ring(tmp_path, RING_PATH3)
    assert main(["homology", path, "--max-int", "4", "--jobs", "4"]) == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["homology", "@", "--engine", "bar"],
    ["family", "--family", "path", "-n", "4", "--engine", "bar"],
    ["check", "@", "--what", "koszul", "--bound", "4", "--format", "table"],
    ["family", "--family", "path", "-n", "4", "--format", "table"],
], ids=["homology-engine", "family-engine", "check-format", "family-format"])
def test_flags_without_effect_are_rejected(tmp_path, capsys, argv):
    # homology has no Tor engine to choose, and only the homology table has
    # a text rendering
    path = write_ring(tmp_path, RING_PATH3)
    assert main([path if a == "@" else a for a in argv]) == 2
    assert argv[-2] in capsys.readouterr().err


def test_family_field_applies_to_a_ring_document(tmp_path):
    # the QQ document read over GF(7) is the GF(7) document
    argv = ["family", "--family", "gorenstein", "--ring", "@", "--field", "F7"]
    assert run_case(tmp_path, argv, ring(["x", "y"], GOR2)) == GOLDEN["gorenstein-n2-gf7"]


@pytest.mark.parametrize("family, builder", [("path", "path_certify"),
                                             ("cycle", "build_cycle_ring")])
def test_family_field_applies_to_path_and_cycle(monkeypatch, capsys, family, builder):
    fields = []
    real = getattr(koszul.cli, builder)

    def recorded(n, field):
        fields.append(field)
        return real(n, field)

    def status(argv):
        code, doc, _ = run(capsys, ["family", "--family", family, "-n", "5"] + argv)
        assert code == 0
        verdicts = doc["verdicts"]
        return (verdicts["family"]["verdict"] if family == "path"
                else verdicts["strand_koszul"])["status"]

    monkeypatch.setattr(koszul.cli, builder, recorded)
    assert status(["--field", "F3"]) == status([]) != "INCONSISTENT"
    assert fields == [Field(3), QQ]
    assert main(["family", "--family", family, "-n", "5", "--field", "F4"]) == 2
    assert "--field" in capsys.readouterr().err


def test_prime_field_ring(tmp_path, capsys):
    doc_in = {"field": {"Fp": 5}, "variables": ["x", "y"],
              "relations": ["x^2", "y^2"]}
    path = write_ring(tmp_path, doc_in)
    code, doc, _ = run(capsys, ["check", path, "--what", "koszul",
                                "--bound", "4"])
    assert code == 0
    assert doc["verdicts"]["koszul"]["status"] == "KOSZUL-UP-TO-BOUND"


def test_check_strand_route_uses_trusted_bound(tmp_path, capsys):
    # H built to internal degree 6 over 63ne (n = 4) is trusted to strand 2
    path = write_ring(tmp_path, RING_63NE)
    code, doc, _ = run(capsys, ["check", path, "--what", "strand-koszul",
                                "--bound", "6", "--max-hom", "3",
                                "--strand-route"])
    assert code == 0
    verdict = doc["verdicts"]["strand_koszul"]
    assert verdict["bound"] == {"p_max": 3, "strand_max": 2}
    assert verdict["status"] == "STRAND-KOSZUL-UP-TO-BOUND"
    # below internal degree n + 1 no strand is trusted: a usage error
    assert main(["check", path, "--what", "strand-koszul", "--bound", "4",
                 "--strand-route"]) == 2
    assert "--max-int >= 5" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "@", "--what", "koszul", "--bound", "-3"],
    ["check", "@", "--what", "theorem-a", "--max-hom", "-1"],
    ["check", "@", "--what", "koszul", "--max-int", "-2"],
    ["homology", "@", "--max-hom", "-1"],
    ["homology", "@", "--max-int", "-1"],
    ["family", "--family", "cycle", "--max-hom", "-1"],
    ["family", "--family", "cycle", "-n", "-4"],
])
def test_negative_bounds_rejected_at_parse_time(tmp_path, capsys, argv):
    path = write_ring(tmp_path, RING_PATH3)
    assert main([path if a == "@" else a for a in argv]) == 2
    assert f"argument {argv[-2]}" in capsys.readouterr().err


def assert_rejected(capsys, argv, message):
    """``main`` exits 2, prints nothing on stdout, and prints exactly
    ``error: <message>`` on stderr."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


# (document, the start of its message, the rest): a case is named by the start
# of its message, as it was before the whole stderr line was pinned
MALFORMED_DOCUMENTS = [
    ({"field": "QQ", "variables": ["x", "y"], "relations": [3, "x^2"]},
     "relation 0 must be a string", ", got 3"),
    ({"field": {"Fp": 3}, "variables": ["x", "y"], "relations": ["x^2 - 1/3*y^2"]},
     "in relation 'x^2 - 1/3*y^2': denominator 3 vanishes in GF(3)", " (at position 6)"),
    ({"field": "QQ", "variables": "xy", "relations": ["x^2"]},
     "'variables' must be a list of names", ", got 'xy'"),
    ({"field": "QQ", "variables": ["x", "x"], "relations": ["x^2"]},
     "'variables' names 'x' twice", ""),
    ({"field": "QQ", "variables": ["x"], "relations": "x^2"},
     "'relations' must be a list of strings", ", got 'x^2'"),
    ({"field": {"Fp": [7]}, "variables": ["x"], "relations": ["x^2"]},
     "unrecognized field spec", ": {'Fp': [7]}"),
    (["x^2"], "ring document must be a JSON object", ""),
    ({"field": "QQ", "variables": ["x", ""], "relations": ["x^2"]},
     "'variables' has an empty name at position 1", ""),
    ({"field": {"Fp": 2.5}, "variables": ["x"], "relations": ["x^2"]},
     "unrecognized field spec", ": {'Fp': 2.5}"),
    ({"field": {"Fp": 7.9}, "variables": ["x"], "relations": ["x^2"]},
     "unrecognized field spec", ": {'Fp': 7.9}"),
    ({"field": {"Fp": 7.0}, "variables": ["x"], "relations": ["x^2"]},
     "unrecognized field spec", ": {'Fp': 7.0}"),
    ({"field": {"Fp": "7"}, "variables": ["x"], "relations": ["x^2"]},
     "unrecognized field spec", ": {'Fp': '7'}"),
    ({"field": {"Fp": True}, "variables": ["x"], "relations": ["x^2"]},
     "unrecognized field spec", ": {'Fp': True}"),
    (b'{"field": "QQ", "variables": ["x\xff"], "relations": ["x^2"]}',
     "ring file is not UTF-8",
     ": 'utf-8' codec can't decode byte 0xff in position 32: invalid start byte"),
    (b"[" * 100000 + b"]" * 100000,
     "ring file nests JSON arrays or objects too deeply", ""),
]


@pytest.mark.parametrize(
    "doc, message", [(doc, named + rest) for doc, named, rest in MALFORMED_DOCUMENTS],
    ids=[f"doc{k}-{named}" for k, (_, named, _) in enumerate(MALFORMED_DOCUMENTS)])
def test_malformed_ring_documents_exit_2(tmp_path, capsys, doc, message):
    assert_rejected(capsys, ["homology", write_ring(tmp_path, doc), "--max-int", "2"],
                    message)


@pytest.mark.parametrize("variables, quadrics, message", [
    pytest.param("x,y", "x^2,x^2",
                 "not a regular sequence: Hilbert coefficient 2 != 1 in degree 2",
                 id="x,y-x^2,x^2-not a regular sequence"),
    ("x,y", "x^2,x*y+y", "quadric 2 is not a nonzero homogeneous quadric"),
    ("x,y", "x^3,y^2", "quadric 1 is not a nonzero homogeneous quadric"),
    ("x,,y", "x^2,y^2", "--variables has an empty name at position 1"),
    ("x,x,y", "x^2,y^2", "--variables names 'x' twice"),
])
def test_family_ci_rejects_bad_input(capsys, variables, quadrics, message):
    assert_rejected(capsys, ["family", "--family", "ci", "--variables", variables,
                             "--quadrics", quadrics], message)


def test_family_ci_rejects_composite_field(capsys):
    assert_rejected(capsys, ["family", "--family", "ci", "--variables", "x,y",
                             "--quadrics", "x^2,y^2", "--field", "F4"],
                    "--field: field order must be 0 (rationals) or prime, got 4")


@pytest.mark.parametrize("argv, message", [
    # a flag that names no field at all is reported as it was written
    (["family", "--family", "path", "-n", "3", "--field", "F"],
     '--field must be "QQ" or "F<p>", got \'F\''),
    (["family", "--family", "cycle", "-n", "4", "--field", "GF7"],
     '--field must be "QQ" or "F<p>", got \'GF7\''),
    (["family", "--family", "path", "-n", "3", "--field", "F1"],
     "--field: field order must be 0 (rationals) or prime, got 1"),
    # over a ring document, --field stands in for the document's field
    (["homology", "@", "--field", "F4"],
     "field order must be 0 (rationals) or prime, got 4"),
    (["check", "@", "--what", "koszul", "--field", "Fx"],
     '--field must be "QQ" or "F<p>", got \'Fx\''),
], ids=["path-F", "cycle-GF7", "path-F1", "homology-F4", "check-Fx"])
def test_field_flag_rejections(tmp_path, capsys, argv, message):
    path = write_ring(tmp_path, RING_PATH3)
    assert_rejected(capsys, [path if a == "@" else a for a in argv], message)


def test_family_internal_failure_exits_1(monkeypatch, capsys):
    # a failed internal check is an inconsistency, not a usage error
    import koszul.families
    monkeypatch.setattr(koszul.families, "differential", lambda ring, z: {"x": 1})
    assert main(["family", "--family", "ci", "--variables", "x,y",
                 "--quadrics", "x^2,y^2"]) == 1
    assert "complete-intersection cycle failed to be a cycle" in capsys.readouterr().err


@pytest.mark.parametrize("family, variables, relations, message", [
    ("gorenstein", ["x", "y"], ["x^2", "x*y", "y^2"],
     "not a short Gorenstein ring: Hilbert [1, 2, 0, 0]"),
    ("three-rel", ["x", "y"], ["x^2", "y^2"], "need exactly three defining relations"),
    # Hilbert function [1, 1, 1, 0], but the certificate needs two variables
    ("gorenstein", ["x"], ["x^3"], "the certificate needs embedding dimension >= 2, got 1"),
], ids=["gorenstein-relations0-not a short Gorenstein ring",
        "three-rel-relations1-need exactly three defining relations",
        "gorenstein-relations2-the certificate needs embedding dimension >= 2"])
def test_family_ring_outside_the_family_exits_2(tmp_path, capsys, family, variables,
                                                relations, message):
    path = write_ring(tmp_path, {"field": "QQ", "variables": variables,
                                 "relations": relations})
    assert_rejected(capsys, ["family", "--family", family, "--ring", path], message)


_NAMES = ["x", "y", "z"]
_MALFORMED = ["x^", "x ^^ 2", "1/0*x^2", "x*$", "x^2 +", "x^2 y", "w^2", "2", ""]


@st.composite
def ring_documents(draw):
    """The bytes of ring documents in 0-3 variables.  A relation is a signed
    sum of terms of one degree from 1 to 3 (half the time), of mixed degrees,
    or a malformed token; coefficients are small integers and rationals.  One
    file in ten is not UTF-8 and one in ten nests the document 100000 deep
    in JSON arrays."""
    names = _NAMES[:draw(st.integers(0, 3))]
    coefficient = st.sampled_from(["", "2*", "3*", "1/2*", "2/3*", "0*"])

    def terms(low, high):
        term = st.tuples(coefficient, st.lists(st.sampled_from(names or _NAMES),
                                               min_size=low, max_size=high))
        return st.lists(term.map(lambda t: t[0] + "*".join(t[1])), min_size=1,
                        max_size=3).map(" - ".join)

    relation = st.one_of(st.integers(1, 3).flatmap(lambda d: terms(d, d)),
                         st.one_of(terms(1, 3), st.sampled_from(_MALFORMED)))
    data = json.dumps({"field": draw(st.sampled_from(["QQ", {"Fp": 2}, {"Fp": 3}, {"Fp": 4}])),
                       "variables": names,
                       "relations": draw(st.lists(relation, max_size=4))}).encode()
    damage = draw(st.sampled_from([None] * 8 + ["not utf-8", "nested"]))
    if damage == "not utf-8":   # one more variable, its name a lone byte 0xff
        data = data.replace(b'"variables": [', b'"variables": ["\xff", ', 1)
    elif damage == "nested":
        data = b"[" * 100000 + data + b"]" * 100000
    return data


_ON_EVERY_DOCUMENT = [
    (["homology", "@", "--max-int", "4"], {0, 2}),
    (["check", "@", "--what", "koszul", "--bound", "3"], {0, 2}),
    (["family", "--family", "gorenstein", "--ring", "@"], {0, 1, 2}),
    (["family", "--family", "three-rel", "--ring", "@"], {0, 1, 2}),
]


@settings(max_examples=400, deadline=None)
@given(ring_documents())
@example(json.dumps({"field": "QQ", "variables": ["x"], "relations": ["x^3"]}).encode())
def test_generated_ring_documents_never_raise(doc):
    # bad input exits 2 with one error line; nothing escapes main
    with tempfile.TemporaryDirectory() as directory:
        path = write_ring(Path(directory), doc)
        for argv, codes in _ON_EVERY_DOCUMENT:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([path if a == "@" else a for a in argv])
            assert code in codes, (argv, err.getvalue())
            if code == 2:
                assert out.getvalue() == ""
                assert re.fullmatch(r"error: [^\n]+\n", err.getvalue()), err.getvalue()


def test_closed_stdout_exits_141_without_traceback():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "koszul.cli", "family", "--family", "path", "-n", "4"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_package_imports_only_the_standard_library():
    # a fresh interpreter, so modules loaded by other tests do not count
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import koszul, koszul.cli\n"
            "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout.split()
    assert "koszul" in out
    assert set(out) - set(sys.stdlib_module_names) == {"koszul"}
