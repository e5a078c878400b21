"""Root system construction and exact vector arithmetic."""

import sys
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from liecheck import rootdata, usmall
from liecheck.cases import (
    ALL_FAMILIES,
    CLASSICAL_FAMILIES,
    FIXED_FAMILIES,
    _e8_simples,
    _f4_short_first_simples,
    get_case,
)
from liecheck.errors import ConstructionError, UsageError
from liecheck.fastscan import build_tables
from liecheck.rootdata import (
    RootSystem,
    combine,
    coroot_pairing,
    half_sum,
    inner,
    norm_sq,
    reflect,
    root_closure,
    vadd,
    vec,
    vneg,
    vsub,
)

from conftest import sample_case
from oracle import solve_linear

A2 = RootSystem.from_simples([vec(1, -1, 0), vec(0, 1, -1)])
B2 = RootSystem.from_simples([vec(1, -1), vec(0, 1)])
G2 = RootSystem.from_simples([vec(1, -1, 0), vec(-2, 1, 1)])


def test_positive_root_counts():
    assert len(A2.positive_roots) == 3
    assert len(B2.positive_roots) == 4
    assert len(G2.positive_roots) == 6


def _cartan_c(n):
    """Cartan matrix of C_n: type A_{n-1}, then the long simple root."""
    cartan = [[2 if i == j else -(abs(i - j) == 1) for j in range(n)] for i in range(n)]
    cartan[n - 2][n - 1] = -1
    cartan[n - 1][n - 2] = -2
    return cartan


def test_root_closure_reaches_the_highest_root_of_c33():
    # the highest root of C_n has height 2n - 1, above the 64 that once
    # capped the closure
    roots = [r for r, _, _ in root_closure(_cartan_c(33))]
    assert len(roots) == 33 * 33
    assert max(map(sum, roots)) == 2 * 33 - 1


def test_root_closure_refuses_an_infinite_system():
    with pytest.raises(ConstructionError, match="did not stabilize"):
        list(root_closure([[2, -2], [-2, 2]]))


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


def test_from_simples_closure():
    system = RootSystem.from_simples([vec(1, -1, 0), vec(0, 1, -1)])
    positives = set(system.positive_roots)
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
            regenerated = naive_positive_roots(system.simple_roots)
            assert regenerated == set(system.positive_roots)


def _calls(function, run):
    """How often function is entered while run() runs (each resumption of a
    generator counts), seen by a profile hook, so a name bound by another
    module's import is counted too."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is function.__code__:
            count += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


def test_from_simples_eliminates_once():
    simples = _e8_simples()
    assert _calls(rootdata._gauss_jordan, lambda: RootSystem.from_simples(simples)) == 1


@pytest.mark.parametrize("family", FIXED_FAMILIES)
def test_tables_and_usmall_rows_take_no_fraction_inner_product(family):
    case = get_case(family)
    assert _calls(rootdata._dot, lambda: build_tables.__wrapped__(case)) == 0
    assert _calls(rootdata._dot, lambda: usmall._build_system(case)) == 0


@pytest.mark.parametrize("family", ["G", "EVIII", "SP4R"])
def test_build_tables_reads_the_root_table(family):
    case = get_case(family)
    assert _calls(rootdata.root_closure, lambda: build_tables.__wrapped__(case)) == 0


CASE_SYSTEM_IDS = [(f, n) for f in CLASSICAL_FAMILIES for n in (2, 4)] + [
    (f, None) for f in ALL_FAMILIES if f not in CLASSICAL_FAMILIES
]


@pytest.mark.parametrize("family, n", CASE_SYSTEM_IDS)
def test_cartan_and_root_table_match_the_roots(family, n):
    case = get_case(family, n)
    for system in (case.g_restricted, case.k_system):
        simples = system.simple_roots
        assert system.cartan == tuple(
            tuple(coroot_pairing(a, b) for b in simples) for a in simples
        )
        assert len(system.root_table) == len(system.positive_roots)
        for coords, root in zip(system.root_table, system.positive_roots):
            assert all(type(c) is int for c in coords)
            assert combine(simples, coords) == root


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


# -- the exact primitives against per-term Fraction formulas -----------------
#
# inner, coroot_pairing, reflect and combine sum integer products over one
# common denominator; the oracles below are the per-term Fraction formulas
# they replaced.


def oracle_inner(u, v):
    return sum((Q(a) * Q(b) for a, b in zip(u, v)), Q(0))


def oracle_pairing(v, alpha):
    return 2 * oracle_inner(v, alpha) / oracle_inner(alpha, alpha)


def oracle_reflect(v, alpha):
    c = oracle_pairing(v, alpha)
    return tuple(Q(x) - c * Q(a) for x, a in zip(v, alpha))


# mixed denominators, zeros (int and Fraction) and plain ints
coordinate = st.one_of(
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([0, Q(0)]),
)


def vectors(count):
    return st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(*[st.tuples(*[coordinate] * n)] * count)
    )


@settings(max_examples=300, deadline=None, database=None)
@given(vectors(2))
def test_inner_and_norm_match_per_term_fractions(pair):
    u, v = pair
    for got, want in ((inner(u, v), oracle_inner(u, v)),
                      (norm_sq(u), oracle_inner(u, u))):
        assert type(got) is Q
        assert got == want


@settings(max_examples=300, deadline=None, database=None)
@given(vectors(2))
def test_pairing_and_reflection_match_per_term_fractions(pair):
    v, alpha = pair
    if oracle_inner(alpha, alpha) == 0:
        with pytest.raises(UsageError, match="zero vector"):
            coroot_pairing(v, alpha)
        with pytest.raises(UsageError, match="zero vector"):
            reflect(v, alpha)
        return
    pairing = coroot_pairing(v, alpha)
    assert type(pairing) is Q and pairing == oracle_pairing(v, alpha)
    image = reflect(v, alpha)
    assert image == oracle_reflect(v, alpha)
    if pairing == 0:
        assert image is v
    # a reflection is an involution
    assert reflect(image, alpha) == oracle_reflect(oracle_reflect(v, alpha), alpha)


@settings(max_examples=200, deadline=None, database=None)
@given(vectors(3), st.tuples(coordinate, coordinate, coordinate))
def test_combine_matches_per_term_fractions(vs, coeffs):
    got = combine(vs, coeffs)
    want = tuple(
        sum((Q(c) * Q(v[d]) for c, v in zip(coeffs, vs)), Q(0))
        for d in range(len(vs[0]))
    )
    assert got == want and all(type(x) is Q for x in got)


@settings(max_examples=100, deadline=None, database=None)
@given(vectors(1), st.integers(min_value=1, max_value=3))
def test_length_mismatch_raises(single, extra):
    (u,) = single
    longer = u + (Q(1),) * extra
    for call in (lambda: inner(u, longer), lambda: coroot_pairing(u, longer),
                 lambda: reflect(u, longer)):
        with pytest.raises(UsageError, match="dimension mismatch"):
            call()


def naive_positive_roots(simples):
    """The closure on ambient vectors with per-term Fraction pairings."""
    roots = set(simples)
    level = list(simples)
    while level:
        nxt = []
        for r in level:
            for s in simples:
                cand = tuple(a + b for a, b in zip(r, s))
                if cand in roots:
                    continue
                p = 0
                down = tuple(a - b for a, b in zip(r, s))
                while down in roots:
                    p += 1
                    down = tuple(a - b for a, b in zip(down, s))
                if p - oracle_pairing(r, s) >= 1:
                    roots.add(cand)
                    nxt.append(cand)
        level = nxt
    return roots


# simple roots and number of positive roots
CLOSURE_CASES = {
    "G2": ((vec(1, -1, 0), vec(-2, 1, 1)), 6),
    "B2": ((vec(1, -1), vec(0, 1)), 4),
    "F4": (_f4_short_first_simples(), 24),
    "E6": (_e8_simples()[:6], 36),
    "E7": (_e8_simples()[:7], 63),
    "E8": (_e8_simples(), 120),
}


@pytest.mark.parametrize("name", CLOSURE_CASES)
def test_positive_roots_match_naive_closure(name):
    simples, count = CLOSURE_CASES[name]
    roots = set(RootSystem.from_simples(simples).positive_roots)
    assert roots == naive_positive_roots(simples)
    assert len(roots) == count


@pytest.mark.parametrize(
    "simples, message",
    [
        ((), "empty simple system"),
        ((vec(1, 0), vec(0, 0)), "zero vector"),
        ((vec(1, 0), vec(-1, 2)), "non-integral Cartan pairing"),
        ((vec(1, 0), vec(1, 1)), "obtuse-angle"),
    ],
)
def test_positive_roots_keep_their_checks(simples, message):
    with pytest.raises(ConstructionError, match=message):
        RootSystem.from_simples(simples)
