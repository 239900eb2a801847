"""Pinned quotient-ring answers: reduced Groebner bases, standard monomials
and Hilbert functions through degree 7, and the full Groebner basis.

The digests were recorded before the quotient ring moved from Buchberger's
algorithm to one echelon per degree, so any change to a basis element, a
standard monomial or a dimension shows up here.  To print the digests of the
current code, run ``PYTHONPATH=src python tests/test_quotient_pins.py``.
"""

import hashlib
import json
import sys

import pytest

from koszul import QQ, Field
from koszul.polyring import groebner_basis, poly_degree, poly_to_string

from conftest import generic_quadrics_ring, make_63ne, ring_from_strings

F5, F7, F32003 = Field(5), Field(7), Field(32003)
XYZ, XYZW = ["x", "y", "z"], ["x", "y", "z", "w"]
FRACTIONAL = ["x^2 - 1/2*y*z", "y^2 + 2/3*x*z"]
GENERIC3 = ["x^2 + 3*y*z", "y^2 - x*z", "z^2 + 2*x*y"]
GOR2 = ["x^2 + x*y", "y^2 - 2*x*y"]
GOR3 = ["x*y - z^2", "x*z", "y*z", "x^2 - 2*y^2", "x^2 + 2*z^2"]
GOR4 = ["x*y", "x*z", "x*w", "y*z", "y*w", "z*w - x^2", "x^2 - 2*y^2",
        "x^2 + 3*z^2", "x^2 - w^2 + z*w"]
BOTTOM_RIGHT = ["x^2 - 2*x*z", "x*y", "z^2"]
CI2 = ["x^2 + x*y", "y^2 - 3*x*y"]
CI3 = ["x^2 + x*y", "y^2 - 3*x*y", "z^2 + x*z"]

# name -> ring factory
RINGS = {
    "63ne-qq": lambda: make_63ne(),
    "63ne-gf5": lambda: make_63ne(F5),
    "fractional-qq": lambda: ring_from_strings(XYZ, FRACTIONAL),
    "generic3-gf7": lambda: ring_from_strings(XYZ, GENERIC3, F7),
    "gor2-qq": lambda: ring_from_strings(["x", "y"], GOR2),
    "gor2-gf7": lambda: ring_from_strings(["x", "y"], GOR2, F7),
    "gor3-qq": lambda: ring_from_strings(XYZ, GOR3),
    "gor3-gf7": lambda: ring_from_strings(XYZ, GOR3, F7),
    "gor4-qq": lambda: ring_from_strings(XYZW, GOR4),
    "gor4-gf7": lambda: ring_from_strings(XYZW, GOR4, F7),
    "bottom-right-qq": lambda: ring_from_strings(XYZ, BOTTOM_RIGHT),
    "bottom-right-gf7": lambda: ring_from_strings(XYZ, BOTTOM_RIGHT, F7),
    "ci2-qq": lambda: ring_from_strings(["x", "y"], CI2),
    "ci3-gf5": lambda: ring_from_strings(XYZ, CI3, F5),
    "generic-5x5-qq": lambda: generic_quadrics_ring(QQ, 5, 5),
    "generic-5x5-gf32003": lambda: generic_quadrics_ring(F32003, 5, 5),
    "generic-5x6-qq": lambda: generic_quadrics_ring(QQ, 6, 5),
    "generic-5x6-gf32003": lambda: generic_quadrics_ring(F32003, 6, 5),
}

# name -> (Hilbert function through degree 7, sha256 of the answers)
PINNED = {
    "63ne-qq":
        ([1, 4, 4, 2, 2, 2, 2, 2],
         "b5ed21111d74e1d3dd4e9a6aa266d2b2e3615ffc104d46c61b61b58f36ad9649"),
    "63ne-gf5":
        ([1, 4, 4, 2, 2, 2, 2, 2],
         "b5ed21111d74e1d3dd4e9a6aa266d2b2e3615ffc104d46c61b61b58f36ad9649"),
    "fractional-qq":
        ([1, 3, 4, 4, 4, 4, 4, 4],
         "211f03bcfaa61e66462e5aa3663ef1f9e88f5f3ceee9c9303500e265be1bb05b"),
    "generic3-gf7":
        ([1, 3, 3, 1, 0, 0, 0, 0],
         "7efde872295cd7265f258f56e618be71830c538d1cb7db282a746423c75c52fc"),
    "gor2-qq":
        ([1, 2, 1, 0, 0, 0, 0, 0],
         "a584cd4f519916a6b36ac74107683fd07e630c6ae5663f8e4957568844be4f4e"),
    "gor2-gf7":
        ([1, 2, 1, 0, 0, 0, 0, 0],
         "2076312587a34db8a5d16b1d63a2428f8d4e6a9560efc213af59b88ff070b8af"),
    "gor3-qq":
        ([1, 3, 1, 0, 0, 0, 0, 0],
         "6a56323c395b347eecbdeef65c824dc7e20663b380000c7d25b14047ceb152cc"),
    "gor3-gf7":
        ([1, 3, 1, 0, 0, 0, 0, 0],
         "fcdfbd7e4e139806f7529a34dd37bb35c17050651170c30db1c7fe0fda62ffe9"),
    "gor4-qq":
        ([1, 4, 1, 0, 0, 0, 0, 0],
         "ad4bdc434dd35d34b291a70f6da6601c238283cf844c62d7429343d08ffc7101"),
    "gor4-gf7":
        ([1, 4, 1, 0, 0, 0, 0, 0],
         "35ccc3703be29dd56510f24863f2710a72cc83456b229bdee97e3264a01e2b43"),
    "bottom-right-qq":
        ([1, 3, 3, 2, 2, 2, 2, 2],
         "c1cadcb01d0d47b6240fc95552845034f3c6c3d89480f7200e75c7b39b275606"),
    "bottom-right-gf7":
        ([1, 3, 3, 2, 2, 2, 2, 2],
         "7ba65bb969d4730ec0a0cbd3dc5000ed408c8fd521c0b9739156170fc49e82ce"),
    "ci2-qq":
        ([1, 2, 1, 0, 0, 0, 0, 0],
         "74f25f54f8b95d7dc5ac5bd2308f1750013fa0e8a3c11c4a4ba22df916da0a6b"),
    "ci3-gf5":
        ([1, 3, 3, 1, 0, 0, 0, 0],
         "9b2bfcee87c6b434ed1ab44a45e5b4b489b8b268db17387ef30752d3dd92bc9f"),
    "generic-5x5-qq":
        ([1, 5, 10, 10, 5, 1, 0, 0],
         "68ecafc935a3f97957032238feccb0829c8260005c8bc64a440df75b449b301f"),
    "generic-5x5-gf32003":
        ([1, 5, 10, 10, 5, 1, 0, 0],
         "bdf07a65724d56ca597e0c555a360a09e8bf23c5aea46f66efed81a17152eb6e"),
    "generic-5x6-qq":
        ([1, 6, 16, 26, 31, 32, 32, 32],
         "54e2ebf069f5a97655b60811d06f6eb7e0bb77771ca13954e2250b62afe8bec8"),
    "generic-5x6-gf32003":
        ([1, 6, 16, 26, 31, 32, 32, 32],
         "8ae085db59ebea8ec049f9739efe229cd524d6bf6c4c1db747225f3849ee341c"),
}


def answers(ring) -> tuple:
    """The Hilbert function through degree 7 and a digest of the truncated
    reduced Groebner bases, the standard monomials and the full basis."""
    names = ring.names
    doc = {
        "truncated": [[poly_to_string(g, names) for g in ring.groebner(d)
                       if poly_degree(g) <= d] for d in range(8)],
        "standard": [[list(m) for m in ring.std_monomials(d)] for d in range(8)],
        "full": [poly_to_string(g, names)
                 for g in groebner_basis(ring.relations, ring.field)[0]],
    }
    text = json.dumps(doc, sort_keys=True)
    return ring.hilbert_coeffs(7), hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", list(RINGS))
def test_pinned_quotient_answers(name):
    hilbert, digest = answers(RINGS[name]())
    assert (hilbert, digest) == PINNED[name]


if __name__ == "__main__":
    for name, make in RINGS.items():
        hilbert, digest = answers(make())
        print(f'    "{name}":\n        ({hilbert},\n         "{digest}"),')
