from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszul import QQ
from koszul.freealg import (FreeAlgebra, ReductionSystem,
                            certify_groebner_by_dims, overlap_completion)
from koszul.families import path_certify

from oracles import reconstruct_from_trace, traced_reduce


def algebra(ngens, names=None):
    names = names or [f"g{k}" for k in range(ngens)]
    return FreeAlgebra(names, [1] * ngens, QQ)


def test_deglex_degree_first():
    A = algebra(2)
    assert A.deglex_key((0,)) < A.deglex_key((0, 1))
    assert A.deglex_key((0, 1)) < A.deglex_key((1, 0))   # lex for equal degree
    assert A.deglex_key((1, 0)) == A.deglex_key((1, 0))


def test_deglex_weighted():
    A = FreeAlgebra(["a", "b"], [1, 3], QQ)
    assert A.word_degree((1,)) == 3
    # equal degree: the shorter word comes first
    assert A.deglex_key((1,)) < A.deglex_key((0, 0, 0))


def test_deglex_respects_interleaved_path_order():
    # z1 < y1 < z2: generator indices are the variable order
    A = algebra(3, ["z1", "y1", "z2"])
    assert A.deglex_key((0,)) < A.deglex_key((1,))
    assert A.deglex_key((1,)) < A.deglex_key((2,))


def test_reduce_skew_commutator():
    A = algebra(2, ["z1", "z2"])
    system = ReductionSystem(A, [{(1, 0): QQ(1), (0, 1): QQ(1)}])
    assert system.reduce({(1, 0): QQ(1)}) == {(0, 1): -1}


def test_reduce_fixed_point():
    A = algebra(2)
    system = ReductionSystem(A, [{(1, 0): QQ(1), (0, 1): QQ(1)}])
    reduced = {(0, 1): QQ(3), (0, 0): QQ(5)}
    assert system.reduce(reduced) == reduced


def test_reduce_path_string_monomial_to_zero():
    # zeta_{1,2} zeta_{3,4} is a type (6) element of the path system
    ring, cert = path_certify(5)
    A = cert.presentation.algebra
    system = ReductionSystem(A, cert.presentation.relations)
    z1 = A.names.index("z1")
    z3 = A.names.index("z3")
    assert system.reduce({(z1, z3): QQ(1)}) == {}


def test_reduction_trace_reconstructs_difference():
    ring, cert = path_certify(4)
    A = cert.presentation.algebra
    system = ReductionSystem(A, cert.presentation.relations)
    p = {}
    for w in A.words_of_degree(2):
        p[w] = QQ(len(w[0:1]) + 1)
    nf, trace = traced_reduce(system, p)
    assert nf == system.reduce(p)
    recon = reconstruct_from_trace(system, trace)
    difference = dict(p)
    for w, c in nf.items():
        acc = difference.get(w, QQ(0)) - c
        if acc:
            difference[w] = acc
        else:
            difference.pop(w, None)
    assert difference == recon


def test_reduce_idempotent_property():
    ring, cert = path_certify(5)
    A = cert.presentation.algebra
    system = ReductionSystem(A, cert.presentation.relations)
    import itertools
    for word in itertools.islice(A.words_of_degree(3), 40):
        once = system.reduce({word: QQ(1)})
        assert system.reduce(once) == once


def test_reduced_monomials_empty_system():
    A = algebra(2)
    system = ReductionSystem(A, [])
    assert len(system.reduced_words(3)) == 8


def test_reduced_monomials_unique_for_path_multidegree():
    # over 12 vertices, u = p_{1,3} + p_{5,2} + p_{9,4} has no homology (the
    # length-4 interval), while p_{1,3} + p_{5,2} + p_{9,3} leaves exactly one
    # reduced monomial: mu_{1,3} mu_{5,2} mu_{9,3}
    ring, cert = path_certify(12, d_max=4)
    A = cert.presentation.algebra
    system = ReductionSystem(A, cert.presentation.relations)
    name_of = {name: k for k, name in enumerate(A.names)}

    def multidegree(word):
        u = [0] * 12
        for idx in word:
            name = A.names[idx]
            kind, pos = name[0], int(name[1:])
            width = 2 if kind == "z" else 3
            for k in range(pos - 1, pos - 1 + width):
                u[k] += 1
        return tuple(u)

    target_bad = tuple([1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 1])
    target_good = tuple([1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0])
    found_bad, found_good = [], []
    for d in range(1, 5):
        for w in system.reduced_words(d):
            u = multidegree(w)
            if u == target_bad:
                found_bad.append(w)
            elif u == target_good:
                found_good.append(w)
    assert found_bad == []
    assert found_good == [(name_of["y1"], name_of["z5"], name_of["y9"])]


def test_certify_pass_and_fail():
    A = algebra(2, ["z1", "z2"])
    exterior = [{(0, 0): QQ(1)}, {(1, 1): QQ(1)},
                {(1, 0): QQ(1), (0, 1): QQ(1)}]
    system = ReductionSystem(A, exterior)
    cert = certify_groebner_by_dims(system, {0: 1, 1: 2, 2: 1}, 3)
    assert cert.passed
    # drop a rule: too many reduced words survive
    broken = ReductionSystem(A, exterior[:-1])
    cert2 = certify_groebner_by_dims(broken, {0: 1, 1: 2, 2: 1}, 3)
    assert not cert2.passed and cert2.excess


def test_certify_deficit_raises():
    A = algebra(2)
    system = ReductionSystem(A, [{(0, 0): QQ(1)}, {(0, 1): QQ(1)},
                                 {(1, 0): QQ(1)}, {(1, 1): QQ(1)}])
    with pytest.raises(ValueError):
        certify_groebner_by_dims(system, {0: 1, 1: 2, 2: 3}, 2)


def test_certify_path_counts_match_multigraded_dims():
    from koszul.homology import homology
    n = 5
    ring, cert = path_certify(n)
    H = homology(ring, n, n)
    strand_dims = {0: 1}
    for (i, j), d in H.dims().items():
        if (i, j) != (0, 0):
            strand_dims[j - i] = strand_dims.get(j - i, 0) + d
    A = cert.presentation.algebra
    system = ReductionSystem(A, cert.presentation.relations)
    check = certify_groebner_by_dims(system, strand_dims, 4)
    assert check.passed


def test_mutated_path_system_fails():
    ring, cert = path_certify(5)
    A = cert.presentation.algebra
    rules = list(cert.presentation.relations)
    # remove one overlap rule (a single monomial of type (7)-(10))
    victim = next(k for k, r in enumerate(rules) if len(r) == 1)
    del rules[victim]
    system = ReductionSystem(A, rules)
    targets = cert.certification.targets
    out = certify_groebner_by_dims(system, targets, 3)
    assert not out.passed


def test_overlap_completion_exterior_already_complete():
    A = algebra(2, ["z1", "z2"])
    gens = [{(0, 0): QQ(1)}, {(1, 1): QQ(1)}, {(1, 0): QQ(1), (0, 1): QQ(1)}]
    system = overlap_completion(gens, 4, A)
    assert {A.leading_word(p) for p in system.elements} == {(0, 0), (1, 1), (1, 0)}


def test_overlap_completion_commutators_close():
    A = algebra(3)
    gens = []
    for a in range(3):
        for b in range(a + 1, 3):
            gens.append({(b, a): QQ(1), (a, b): QQ(-1)})
    system = overlap_completion(gens, 4, A)
    assert len(system.elements) == 3


def test_overlap_completion_empty():
    A = algebra(2)
    assert overlap_completion([], 3, A).elements == []


def test_overlap_completion_finds_missing_element():
    # y^2 -> xy overlaps itself at yyy and forces the rule yxy -> x^2 y
    A = algebra(2, ["x", "y"])
    gens = [{(1, 1): QQ(1), (0, 1): QQ(-1)}]
    system = overlap_completion(gens, 3, A)
    assert {A.leading_word(p) for p in system.elements} == {(1, 1), (1, 0, 1)}
    # the S-element of the overlap now resolves to zero
    s = {(1, 0, 1): QQ(1), (0, 0, 1): QQ(-1)}
    assert system.reduce(s) == {}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1,
                max_size=3))
def test_spanning_property(words):
    # reduced-word count dominates the quotient dimension for any system
    A = algebra(2)
    gens = [{w: QQ(1)} for w in set(words)]
    system = ReductionSystem(A, gens)
    # quotient by a monomial ideal: dimension = reduced words exactly
    for d in range(4):
        count = len(system.reduced_words(d))
        assert count >= 0
        survivors = [w for w in A.words_of_degree(d)
                     if system.is_reduced_word(w)]
        assert count == len(survivors)


def _mixed_system():
    # generators of degrees 1, 2, 1, 1; leading words of lengths 1 to 3
    A = FreeAlgebra(["a", "b", "c", "d"], [1, 2, 1, 1], QQ)
    rules = [{(3,): QQ(1)}, {(0, 2): QQ(1)}, {(1, 1): QQ(1)},
             {(2, 1, 0): QQ(1), (0, 1, 2): QQ(-1)}, {(0, 0, 1): QQ(1)}]
    return A, rules


def test_reduced_words_match_filtered_words_mixed_degrees():
    A, rules = _mixed_system()
    system = ReductionSystem(A, rules)
    assert sorted({len(lw) for lw in system.leading}) == [1, 2, 3]
    for d in range(8):
        expected = [w for w in A.words_of_degree(d) if system.is_reduced_word(w)]
        assert system.reduced_words(d) == expected
    assert system.reduced_words(-1) == []


def test_reduced_words_cache_is_per_system_and_private():
    A, rules = _mixed_system()
    expected = {d: [w for w in A.words_of_degree(d)
                    if ReductionSystem(A, rules).is_reduced_word(w)]
                for d in range(8)}
    system = ReductionSystem(A, rules)
    other = ReductionSystem(A, rules[1:3])   # a different system, same algebra
    for d in reversed(range(8)):             # deepest degree first
        assert system.reduced_words(d) == expected[d]
        assert other.reduced_words(d) == [w for w in A.words_of_degree(d)
                                          if other.is_reduced_word(w)]
    for d in range(8):                       # and again, now from the cache
        assert system.reduced_words(d) == expected[d]
    words = system.reduced_words(5)
    words.append((0,))
    words.reverse()
    assert system.reduced_words(5) == expected[5]
    assert system.reduced_words(6) == expected[6]
