"""Pinned CLI outputs: the sha256 of stdout and the exit code per command.

The digests were recorded before the echelon classes were merged into one
integer elimination loop, and the squarefree monomial ``three-rel`` and
``ci`` cases before homology classes on the multigraded route were keyed by
multidegree; any change to a representative, a combo, a kernel
vector or a resolution relation that reaches the output shows up here.  To
print the digests of the current code, run
``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from koszul.cli import main


def ring(names, relations, field="QQ"):
    return {"field": field, "variables": names, "relations": relations}


F5, F7 = {"Fp": 5}, {"Fp": 7}
FRACTIONAL = ring(["x", "y", "z"], ["x^2 - 1/2*y*z", "y^2 + 2/3*x*z"])
R63NE = ["x^2", "x*y", "x*z + u^2", "x*u", "y^2 + z^2", "z*u"]
GENERIC3 = ["x^2 + 3*y*z", "y^2 - x*z", "z^2 + 2*x*y"]
PATH5 = ring([f"x{k}" for k in range(1, 6)], [f"x{k}*x{k+1}" for k in range(1, 5)])
GOR2 = ["x^2 + x*y", "y^2 - 2*x*y"]
GOR3 = ["x*y - z^2", "x*z", "y*z", "x^2 - 2*y^2", "x^2 + 2*z^2"]
GOR4 = ["x*y", "x*z", "x*w", "y*z", "y*w", "z*w - x^2", "x^2 - 2*y^2",
        "x^2 + 3*z^2", "x^2 - w^2 + z*w"]
BOTTOM_RIGHT = ["x^2 - 2*x*z", "x*y", "z^2"]
GORENSTEIN = ["family", "--family", "gorenstein", "--ring", "@"]
THREE_REL = ["family", "--family", "three-rel", "--ring", "@"]

# (name, argv with "@" for the ring file, ring document or None)
CASES = [
    ("homology-fractional-qq", ["homology", "@", "--max-int", "6"], FRACTIONAL),
    ("homology-63ne-gf5", ["homology", "@", "--max-int", "6"],
     ring(["x", "y", "z", "u"], R63NE, F5)),
    ("homology-generic-gf7", ["homology", "@", "--max-int", "5"],
     ring(["x", "y", "z"], GENERIC3, F7)),
    ("homology-multigraded-path5",
     ["homology", "@", "--max-int", "5", "--multigraded"], PATH5),
    ("theorem-b-bar", ["check", "@", "--what", "theorem-b", "--bound", "5",
                       "--engine", "bar"], FRACTIONAL),
    ("theorem-b-resolution", ["check", "@", "--what", "theorem-b", "--bound", "5",
                              "--engine", "resolution"], FRACTIONAL),
    ("theorem-a-fractional", ["check", "@", "--what", "theorem-a", "--bound", "6"],
     FRACTIONAL),
    ("koszul-resolution-gf7", ["check", "@", "--what", "koszul", "--bound", "6",
                               "--engine", "resolution"],
     ring(["x", "y", "z"], GENERIC3, F7)),
    ("strand-route-63ne", ["check", "@", "--what", "strand-koszul", "--bound", "6",
                           "--max-hom", "3", "--strand-route"],
     ring(["x", "y", "z", "u"], R63NE)),
    ("gorenstein-n2-qq", GORENSTEIN, ring(["x", "y"], GOR2)),
    ("gorenstein-n2-gf7", GORENSTEIN, ring(["x", "y"], GOR2, F7)),
    ("gorenstein-n3-qq", GORENSTEIN, ring(["x", "y", "z"], GOR3)),
    ("gorenstein-n3-gf7", GORENSTEIN, ring(["x", "y", "z"], GOR3, F7)),
    ("gorenstein-n4-qq", GORENSTEIN, ring(["x", "y", "z", "w"], GOR4)),
    ("gorenstein-n4-gf7", GORENSTEIN, ring(["x", "y", "z", "w"], GOR4, F7)),
    ("three-rel-bottom-right-qq", THREE_REL, ring(["x", "y", "z"], BOTTOM_RIGHT)),
    ("three-rel-bottom-right-gf7", THREE_REL,
     ring(["x", "y", "z"], BOTTOM_RIGHT, F7)),
    ("ci-nondiagonal", ["family", "--family", "ci", "--variables", "x,y",
                        "--quadrics", "x^2+x*y,y^2-3*x*y"], None),
    ("ci-f5", ["family", "--family", "ci", "--variables", "x,y,z",
               "--quadrics", "x^2+x*y,y^2-3*x*y,z^2+x*z", "--field", "F5"], None),
    ("ci-single-squarefree", ["family", "--family", "ci", "--variables", "x,y",
                              "--quadrics", "x*y"], None),
    ("path-6", ["family", "--family", "path", "-n", "6"], None),
    ("cycle-6", ["family", "--family", "cycle", "-n", "6"], None),
    # squarefree monomial rings take the multigraded route, where a class's
    # index (grade, k) has its multidegree for grade, not its internal degree
    ("three-rel-monomial-top-right", THREE_REL,
     ring(["a", "b", "c", "d"], ["a*b", "a*c", "a*d"])),
    ("three-rel-monomial-top-left", THREE_REL,
     ring(["a", "b", "c", "d"], ["a*b", "a*c", "b*d"])),
    ("three-rel-monomial-bottom-right", THREE_REL,
     ring(["a", "b", "c", "d", "e"], ["a*b", "a*c", "d*e"])),
    ("three-rel-monomial-bottom-left", THREE_REL,
     ring(["a", "b", "c", "d", "e", "f"], ["a*b", "c*d", "e*f"])),
    ("ci-monomial", ["family", "--family", "ci", "--variables", "a,b,c,d",
                     "--quadrics", "a*b,c*d"], None),
]

# name -> (exit code, sha256 of stdout)
GOLDEN = {
    "homology-fractional-qq":
        (0, "ee879952705b183c0a9985198e0ab3c8e13687d50b72eb10c10f28fd59b039ce"),
    "homology-63ne-gf5":
        (0, "c831aff21bcd333187c4dabf70fdb6b06d0370abe528d5c145b540bd87128b60"),
    "homology-generic-gf7":
        (0, "2b32b8796cb0f7d74cd7fff63308795e165bbd45d03cd04ab681a5a846d8ad0c"),
    "homology-multigraded-path5":
        (0, "adfc84f5e5e7327c2b9a84dc0519d4daad8861db46e9fd5fbc8c2b7ce75baf7a"),
    "theorem-b-bar":
        (0, "a9d0cae346e9ff8b5d426911720cc7ece9a88645cf506c16f2bbebc10865c7b3"),
    "theorem-b-resolution":
        (0, "a9d0cae346e9ff8b5d426911720cc7ece9a88645cf506c16f2bbebc10865c7b3"),
    "theorem-a-fractional":
        (0, "c0456a8b02e5eb854c1ba9734b978bd779fcbd97a2a2e2d9a19f840ef423d5d6"),
    "koszul-resolution-gf7":
        (0, "7ee9cd8d3825dc6751cad15a1884568094ae1e6e0862cd50a8608c44072f63d0"),
    "strand-route-63ne":
        (0, "bf66c9357d2b8ddd666e791d5185088ea4021a384a9f755940283878dc3014ee"),
    "gorenstein-n2-qq":
        (0, "cb459eba6e2a1ef42fb641a3f95ac9b8fed5346f3ff728e367e17d9d576eb3d0"),
    "gorenstein-n2-gf7":
        (0, "bbda2f365db51b445733578ea98d0ba5fd475fb3978dfabfbb4513d762c03363"),
    "gorenstein-n3-qq":
        (0, "4abc44351f6a6c92b513fe355015f4f9fa473b74b1a97ad6b1a83bd1345a1a5e"),
    "gorenstein-n3-gf7":
        (0, "c12ffcab845da8570af148edd4166f2cfbf836f2f0b33f47285ee30f738dff54"),
    "gorenstein-n4-qq":
        (0, "b0fa8e6f5a82c2db3b45271300935826713ddcd0da0d07a0693b87ad12053892"),
    "gorenstein-n4-gf7":
        (0, "dda7699e68ce2eb5b703092a32b4ea95a498d2eb9331e0c6b5fac68dca566d89"),
    "three-rel-bottom-right-qq":
        (0, "3fd59784c1150227764247a2c61397a9a44f7dad03c7306bc22247a118035395"),
    "three-rel-bottom-right-gf7":
        (0, "336b77cb8473cd6f0bfb644f0e6f903e3c8c754858b8a1b6bae991b541ed248e"),
    "ci-nondiagonal":
        (0, "246d1ce604cdac538959ee43676261dd4fd3424abec248e7946691bcb2dd6cf0"),
    "ci-f5":
        (0, "ead19759aef58c3b11ae03e9e319c995a8f268337c254982e904b9fda445d878"),
    "ci-single-squarefree":
        (0, "8380a7a3ceff3cddfbb88e3cbfa3080b491eb8d15946e39d3b2109185cfaf53c"),
    "path-6":
        (0, "b0c021e21aa0fb4cd4e5246a43ed68f28d019e3468c4847c02ce490156eb5abe"),
    "cycle-6":
        (0, "493620fab68355ad4fb005119cd04f37e276121d2c1dc4dca811dfae9ee57e1e"),
    "three-rel-monomial-top-right":
        (0, "46d2d5daacbbf8dc57d6d31b06b993341b9137877b8c9834226fb9a1ba936cf2"),
    "three-rel-monomial-top-left":
        (0, "702b81fdde6dfcbe5ee95cddcc69e35a208f4c14a31ee182adefbb2c898ed224"),
    "three-rel-monomial-bottom-right":
        (0, "8202920b3f6703afe810afb5d72b49c5e318760eacf3e3e408130e478de29fed"),
    "three-rel-monomial-bottom-left":
        (0, "a4c3b13969bbd78cf5228439e7a2b316dc5e9be3a358828d6bfbe185dc287252"),
    "ci-monomial":
        (0, "246d1ce604cdac538959ee43676261dd4fd3424abec248e7946691bcb2dd6cf0"),
}


def run_case(directory: Path, argv, doc):
    """Exit code and stdout digest of one CLI command."""
    if doc is not None:
        path = directory / "ring.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if a == "@" else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name, argv, doc", CASES, ids=[case[0] for case in CASES])
def test_golden_output(tmp_path, name, argv, doc):
    assert run_case(tmp_path, argv, doc) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as directory:
        for name, argv, doc in CASES:
            code, digest = run_case(Path(directory), argv, doc)
            print(f"{name:30} {code} {digest}", file=sys.stderr)
