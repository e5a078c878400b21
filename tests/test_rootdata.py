"""Root system construction and exact vector arithmetic."""

from fractions import Fraction as Q

import pytest

from liecheck.cases import ALL_FAMILIES
from liecheck.errors import ConstructionError
from liecheck.rootdata import (
    RootSystem,
    combine,
    coroot_pairing,
    generate_positive_roots,
    half_sum,
    inner,
    norm_sq,
    reflect,
    solve_linear,
    vadd,
    vec,
    vneg,
    vsub,
)

from conftest import sample_case

A2 = RootSystem.from_simples([vec(1, -1, 0), vec(0, 1, -1)])
B2 = RootSystem.from_simples([vec(1, -1), vec(0, 1)])
G2 = RootSystem.from_simples([vec(1, -1, 0), vec(-2, 1, 1)])


def test_positive_root_counts():
    assert len(A2.positive_roots) == 3
    assert len(B2.positive_roots) == 4
    assert len(G2.positive_roots) == 6


def test_simple_roots_are_positive():
    for system in (A2, B2, G2):
        for alpha in system.simple_roots:
            assert system.is_positive_root(alpha)


def test_reflection_permutes_other_positives():
    # s_alpha permutes the positive roots other than alpha itself
    for system in (A2, B2, G2):
        for alpha in system.simple_roots:
            others = [r for r in system.positive_roots if r != alpha]
            images = {reflect(r, alpha) for r in others}
            assert images == set(others)
    assert reflect(vec(1, -1, 0), vec(1, -1, 0)) == vec(-1, 1, 0)


def test_fundamental_weights_dual_to_coroots():
    for system in (A2, B2, G2):
        for i, w in enumerate(system.fundamental_weights):
            for j, alpha in enumerate(system.simple_roots):
                assert coroot_pairing(w, alpha) == (1 if i == j else 0)


def test_half_sum_matches_weight_sum():
    # rho = half the positive sum = sum of fundamental weights, up to the
    # component orthogonal to the root span (zero for B2 and G2's span)
    rho = B2.half_positive_sum()
    assert rho == vec(Q(3, 2), Q(1, 2))
    total = B2.fundamental_weights[0]
    total = vadd(total, B2.fundamental_weights[1])
    assert total == rho


def test_inner_and_norms_exact():
    u = vec(Q(1, 2), Q(-1, 3))
    v = vec(2, 3)
    assert inner(u, v) == 0
    assert norm_sq(u) == Q(1, 4) + Q(1, 9)
    assert vsub(vadd(u, v), v) == u
    assert vneg(vneg(u)) == u


def test_solve_linear_exact():
    rows = [[Q(2), Q(1)], [Q(1), Q(3)]]
    sol = solve_linear(rows, [Q(4), Q(7)])
    assert sol == [Q(1), Q(2)]
    with pytest.raises(ConstructionError):
        solve_linear([[Q(1), Q(2)], [Q(2), Q(4)]], [Q(1), Q(1)])


def test_dependent_simple_roots_rejected():
    # pairwise obtuse and integral, but they sum to zero (affine A2)
    dependent = [vec(1, -1, 0), vec(0, 1, -1), vec(-1, 0, 1)]
    with pytest.raises(ConstructionError, match="linearly dependent"):
        RootSystem.from_simples(dependent)
    with pytest.raises(ConstructionError, match="linearly dependent"):
        RootSystem.non_reduced(dependent, dependent)


def test_generate_positive_roots_closure():
    positives = generate_positive_roots([vec(1, -1, 0), vec(0, 1, -1)])
    assert vec(1, 0, -1) in positives
    assert len(positives) == 3


def test_rejects_bad_positive_set():
    with pytest.raises(ConstructionError):
        RootSystem(
            (vec(1, -1),),
            (vec(1, -1), vec(Q(1, 2), Q(-1, 2))),
        )


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_case_systems_internally_consistent(family):
    case = sample_case(family)
    for system in (case.g_restricted, case.k_system):
        rho = system.half_positive_sum()
        assert rho == half_sum(system.positive_roots)
        for r in system.positive_roots:
            coeffs = system.root_coords(r)
            assert all(c >= 0 and c.denominator == 1 for c in coeffs)
        if system.reduced:
            regenerated = generate_positive_roots(system.simple_roots)
            assert regenerated == set(system.positive_roots)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_root_coords_match_direct_solve(family):
    case = sample_case(family)
    for system in (case.g_restricted, case.k_system):
        simples = system.simple_roots
        gram = [[inner(a, b) for b in simples] for a in simples]
        for r in system.positive_roots:
            coords = system.root_coords(r)
            assert coords == solve_linear(gram, [inner(r, a) for a in simples])
            assert combine(simples, coords) == r
