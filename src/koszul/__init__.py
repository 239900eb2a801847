"""Exact computation of Koszul complexes, their homology algebras, and
Koszulness tests (Koszul rings, Koszul differential graded structure, and
strand-Koszul homology) for standard graded quotients of polynomial rings.

Everything runs in exact arithmetic over the rationals or a prime field; all
verdicts are bounded and carry explicit witnesses when negative.
"""

from .betti import (BettiTable, Verdict, betti_table, is_koszul_up_to,
                    is_strand_koszul_up_to, poincare_K_from_R, shape_check,
                    trigraded_betti)
from .fields import QQ, Field, field_from_spec
from .graded import (GradedAlgebraData, minimal_generators, present,
                     ring_algebra_data, strand_totalize)
from .homology import (KoszulHomologyAlgebra, differential, homology,
                       koszul_basis, multigraded_homology)
from .identities import (check_golod, check_hilbert_identity,
                         check_low_degree_betti, check_prop_2_5,
                         check_quasi_formal, check_theorem_A, check_theorem_B)
from .families import (boocher_dim, build_cycle_ring, build_path_ring,
                       build_quadratic_ci, complete_decomposition,
                       path_certify, short_gorenstein_certify,
                       three_relation_certify)
from .polyring import QuotientRing, parse_polynomial, poly_to_string
from .series import SeriesTrunc
from .sparse import (SparseMatrix, diagonalize_symmetric_form, rank_kernel,
                     solve_in_image)

__all__ = [
    "QQ", "Field", "field_from_spec",
    "QuotientRing", "parse_polynomial", "poly_to_string",
    "SparseMatrix", "rank_kernel", "solve_in_image",
    "diagonalize_symmetric_form",
    "koszul_basis", "differential", "homology", "multigraded_homology",
    "KoszulHomologyAlgebra",
    "GradedAlgebraData", "ring_algebra_data", "strand_totalize",
    "minimal_generators", "present",
    "BettiTable", "Verdict", "betti_table",
    "trigraded_betti", "is_koszul_up_to", "is_strand_koszul_up_to",
    "shape_check", "poincare_K_from_R",
    "check_theorem_A", "check_hilbert_identity", "check_low_degree_betti",
    "check_quasi_formal", "check_theorem_B", "check_golod", "check_prop_2_5",
    "SeriesTrunc",
    "build_quadratic_ci", "short_gorenstein_certify", "three_relation_certify",
    "complete_decomposition", "boocher_dim", "path_certify",
    "build_path_ring", "build_cycle_ring",
]
