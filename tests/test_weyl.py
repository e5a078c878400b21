"""Weyl group machinery: dominance conjugation, words, coset reps."""

import itertools
from fractions import Fraction as Q

import numpy as np
import pytest

from liecheck.cases import CLASSICAL_FAMILIES, FIXED_FAMILIES, get_case
from liecheck.pencil import parabolic_bound
from liecheck.rootdata import (
    RootSystem,
    coroot_pairing,
    inner,
    norm_sq,
    vadd,
    vec,
)
from liecheck.weyl import (
    apply_word,
    minimal_coset_reps,
    to_dominant,
)

from oracle import longest_element, orbit, word_length, word_matrices

B2 = RootSystem.from_simples([vec(1, -1), vec(0, 1)])
A3 = RootSystem.from_simples([vec(1, -1, 0, 0), vec(0, 1, -1, 0), vec(0, 0, 1, -1)])


def is_dominant(v, system):
    return all(coroot_pairing(v, a) >= 0 for a in system.simple_roots)


def test_to_dominant_fixes_dominant():
    v = vec(3, 1)
    dom, word = to_dominant(v, B2)
    assert dom == v and word == ()


def test_to_dominant_produces_dominant_orbit_member():
    for v in [vec(-3, 2), vec(0, -5), vec(Q(1, 2), Q(-7, 2))]:
        dom, word = to_dominant(v, B2)
        assert is_dominant(dom, B2)
        assert norm_sq(dom) == norm_sq(v)
        # the reported word conjugates v to its dominant form
        assert apply_word(word, v, B2) == dom


def test_to_dominant_constant_on_orbit():
    v = vec(4, 1)
    for w in orbit(v, B2):
        dom, _ = to_dominant(w, B2)
        assert dom == v
    assert len(orbit(v, B2)) == 8


def test_apply_word_composes_right_to_left():
    # word (i, j) acts as s_i after s_j
    v = vec(2, -1)
    one_then_zero = apply_word((0, 1), v, B2)
    step = apply_word((1,), v, B2)
    assert apply_word((0,), step, B2) == one_then_zero


def test_word_matrix_agrees_with_apply():
    word = (0, 1, 0, 1)
    (m,) = word_matrices([word], B2)
    for v in [vec(1, 0), vec(0, 1), vec(Q(3, 2), Q(-5, 2))]:
        coords = B2.root_coords(v)
        image = [sum(int(x) * c for x, c in zip(row, coords)) for row in m]
        assert image == B2.root_coords(apply_word(word, v, B2))


def test_word_length_counts_inversions():
    assert word_length((), B2) == 0
    assert word_length((0,), B2) == 1
    assert word_length((0, 0), B2) == 0
    w0 = longest_element(B2)
    assert word_length(w0, B2) == len(B2.positive_roots)


def test_longest_element_negates_chamber():
    for system in (B2, A3):
        w0 = longest_element(system)
        assert len(w0) == len(system.positive_roots)
        rho = system.half_positive_sum()
        image = apply_word(w0, rho, system)
        assert is_dominant(vec(*(-c for c in image)), system)
        assert all(
            coroot_pairing(image, a) <= 0 for a in system.simple_roots
        )


@pytest.mark.parametrize("family, n", [(f, None) for f in FIXED_FAMILIES] + [
    (f, n) for f in CLASSICAL_FAMILIES for n in (2, 3, 5)
])
def test_parabolic_bound_is_the_longest_element_of_the_kept_subsystem(family, n):
    # parabolic_bound(case, k) = 2 <rho_c, w0'(beta)>, w0' the longest
    # element of the sub-system of k-simple roots without the k-th
    case = get_case(family, n)
    simples = case.k_system.simple_roots
    for k in range(1, case.rank_k + 1):
        kept = [a for i, a in enumerate(simples) if i != k - 1]
        moved = case.beta
        if kept:
            sub = RootSystem.from_simples(kept)
            moved = apply_word(longest_element(sub), case.beta, sub)
        assert parabolic_bound(case, k) == 2 * inner(case.rho_c, moved), k


def test_minimal_coset_reps_small():
    # B2 over its long-root A1 subsystem: index |W(B2)| / |W(A1)| = 4
    sub = RootSystem.from_simples([vec(1, -1)])
    reps, matrices = minimal_coset_reps(B2, sub)
    assert len(reps) == 4
    assert () in reps
    assert len({tuple(m.flat) for m in matrices}) == len(reps)
    rho = B2.half_positive_sum()
    for word in reps:
        image = apply_word(word, rho, B2)
        assert coroot_pairing(image, vec(1, -1)) > 0


@pytest.mark.parametrize("family", ["G", "EI", "EII", "EVIII", "EIX", "SP4R"])
def test_coset_rep_matrices_are_their_words(family):
    # the matrices the search multiplies out (the case's W^1 matrices) are
    # the products of their words' reflection matrices, and they move rho
    # as apply_word does
    case = get_case(family)
    g = case.g_restricted
    rho = g.half_positive_sum()
    coords = g.root_coords(rho)
    rebuilt = word_matrices(case.w1, g)
    for word, m, expected in zip(case.w1, case.w1_matrices, rebuilt, strict=True):
        assert np.array_equal(m, expected), word
        image = [sum(int(x) * c for x, c in zip(row, coords)) for row in m]
        assert image == g.root_coords(apply_word(word, rho, g)), word


def test_minimal_reps_map_chamber_into_sub_chamber():
    case = get_case("G")
    rho = case.g_restricted.half_positive_sum()
    for word in case.w1:
        image = apply_word(word, rho, case.g_restricted)
        assert all(
            coroot_pairing(image, gamma) > 0
            for gamma in case.k_system.simple_roots
        )


def test_reduced_words_identity_telescopes():
    """Telescoping positive-root expansion of rho - w(rho).

    For any reduced word s_{d1}...s_{dn} in simple reflections,
    rho - s_{d1}...s_{dn}(rho) equals the sum of s_{d1}...s_{d(k-1)}(d_k),
    each summand a positive root, each coroot pairing against rho exactly 1.
    """
    system = B2
    rho = system.half_positive_sum()
    for n in range(0, 5):
        for letters in itertools.product(range(system.rank), repeat=n):
            if word_length(letters, system) != n:
                continue
            image = apply_word(letters, rho, system)
            assert norm_sq(image) == norm_sq(rho)
            total = vec(*([0] * len(rho)))
            for k in range(n):
                prefix = letters[:k]
                summand = apply_word(prefix, system.simple_roots[letters[k]], system)
                assert system.is_positive_root(summand)
                assert coroot_pairing(rho, system.simple_roots[letters[k]]) == 1
                total = vadd(total, summand)
            assert vadd(image, total) == rho
