"""Enumeration of unitarily small k-types."""

import itertools

import numpy as np
import pytest

from liecheck import usmall
from liecheck.cases import get_case, ktype_is_dominant
from liecheck.errors import ConstructionError, UsageError
from liecheck.usmall import enumerate_usmall, is_usmall, iter_usmall, usmall_system

SMALL_COUNTS = {
    "G": 29,
    "FII": 27,
    "EIV": 37,
    "EI": 922,
    "FI": 1045,
    "SP4R": 25,
}


@pytest.mark.parametrize("family,expected", sorted(SMALL_COUNTS.items()))
def test_counts_small_families(family, expected):
    assert enumerate_usmall(get_case(family)) == expected


def test_count_eii_recomputed_value():
    # The golden table carries the printed tally 22122 for EII, and its
    # errata block corrects it to 20995: the printed inequality list admits
    # 22112 points and lacks the mirror row [5,4,3,2,1,3] <= 60; the
    # mirror-symmetric list admits 20995. The acceptance suite proves that
    # correction from the paper's data; this test pins the count the
    # hyperplane construction yields, independently of golden.json.
    assert enumerate_usmall(get_case("EII")) == 20995


@pytest.mark.parametrize("family", ["G", "FII", "EIV", "SP4R"])
def test_iterator_agrees_with_count(family):
    case = get_case(family)
    points = list(iter_usmall(case))
    assert len(points) == enumerate_usmall(case)
    assert len(set(points)) == len(points)
    assert points == sorted(points)
    for mu in points:
        assert ktype_is_dominant(case, mu)
        assert is_usmall(case, mu)


def test_is_usmall_requires_dominant():
    case = get_case("G")
    with pytest.raises(UsageError):
        is_usmall(case, (-1, 0))
    sp4r = get_case("SP4R")
    with pytest.raises(UsageError):
        is_usmall(sp4r, (0, 1))


def test_zero_weight_always_usmall():
    for family in SMALL_COUNTS:
        case = get_case(family)
        assert is_usmall(case, (0,) * case.ktype_dim)


@pytest.mark.parametrize("family", ["G", "FII", "EIV"])
def test_usmall_closed_under_coordinate_decrease(family):
    # hyperplane rows have nonnegative coefficients, so lowering any
    # coordinate of a dominant u-small k-type keeps it u-small
    case = get_case(family)
    for mu in iter_usmall(case):
        for i in range(len(mu)):
            if mu[i] == 0:
                continue
            smaller = mu[:i] + (mu[i] - 1,) + mu[i + 1 :]
            assert is_usmall(case, smaller)


def test_system_rows_have_nonnegative_coefficients():
    for family in ("G", "FI", "FII", "EI", "EIV", "EII"):
        system = usmall_system(get_case(family))
        for coeffs, bound in system.rows:
            assert all(c >= 0 for c in coeffs)
            assert bound > 0


def test_membership_outside_every_bound():
    case = get_case("G")
    system = usmall_system(case)
    cap = 1 + max(bound for _, bound in system.rows)
    assert not is_usmall(case, (cap, cap))


def test_jobs_partitioning_stable():
    case = get_case("EI")
    assert enumerate_usmall(case, jobs=1) == enumerate_usmall(case, jobs=3)


def test_sp4r_region_explicitly():
    case = get_case("SP4R")
    members = set(iter_usmall(case))
    expected = {
        (p, q)
        for p in range(-3, 4)
        for q in range(-3, p + 1)
        if p <= 3 and q >= -3 and p - q <= 4
    }
    assert members == expected
    assert len(members) == 25


def test_brute_force_count_matches_iterator():
    # independent tally: walk the bounding box and test each dominant point
    case = get_case("G")
    system = usmall_system(case)
    caps = []
    for i in range(2):
        caps.append(
            min(
                bound // coeffs[i]
                for coeffs, bound in system.rows
                if coeffs[i] > 0
            )
        )
    brute = sum(
        1
        for mu in itertools.product(range(caps[0] + 1), range(caps[1] + 1))
        if is_usmall(case, mu)
    )
    assert brute == SMALL_COUNTS["G"]


def _grid_admitted(rows):
    """The admitted points of the rows' bounding box, swept one first
    coordinate at a time; the sweep is lexicographic."""
    a = np.array([coeffs for coeffs, _ in rows], dtype=np.int64)
    b = np.array([bound for _, bound in rows], dtype=np.int64)
    caps = [
        min(bound // coeffs[i] for coeffs, bound in rows if coeffs[i] > 0)
        for i in range(a.shape[1])
    ]
    grids = np.meshgrid(*[np.arange(c + 1) for c in caps[1:]], indexing="ij")
    tail = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
    for first in range(caps[0] + 1):
        head = np.full((len(tail), 1), first, dtype=np.int64)
        pts = np.concatenate([head, tail], axis=1)
        yield pts[(pts @ a.T <= b).all(axis=1)]


@pytest.mark.parametrize(
    "family,n",
    [(f, None) for f in ("G", "FII", "EIV", "EI", "FI", "EII")]
    + [(f, n) for f in ("SL2nR", "SL2n1R", "SLnH") for n in (2, 3)],
)
def test_walk_matches_grid_sweep(family, n):
    # an independent numpy sweep of the bounding box (1.57 M points for EII)
    # admits exactly the walk's points, in the same lexicographic order
    case = get_case(family, n)
    admitted = np.concatenate(list(_grid_admitted(usmall_system(case).rows)))
    assert list(iter_usmall(case)) == [tuple(p) for p in admitted.tolist()]
    assert enumerate_usmall(case) == len(admitted)


@pytest.mark.parametrize("frontier", [1, 7])
def test_walk_does_not_depend_on_frontier_groups(frontier, monkeypatch):
    cases = [get_case(f) for f in ("EI", "EII", "EV")]
    expected = [(enumerate_usmall(c), list(iter_usmall(c))) for c in cases]
    monkeypatch.setattr(usmall, "_FRONTIER_ROWS", frontier)
    for case, (count, points) in zip(cases, expected):
        assert enumerate_usmall(case) == count
        assert list(iter_usmall(case)) == points
    for chunk in usmall.usmall_chunks(cases[0]):
        assert len(chunk) <= frontier or (chunk[:, :-1] == chunk[0, :-1]).all()
    ev = cases[2]
    assert enumerate_usmall(ev, jobs=2) == enumerate_usmall(ev, jobs=1)


def test_walk_refuses_rows_beyond_int64():
    rows = (((1, 0), 2**31), ((0, 1), 3))
    with pytest.raises(ConstructionError):
        usmall._int64_rows(rows)
    with pytest.raises(ConstructionError):
        usmall._int64_rows((((1, 1), -1),))
    with pytest.raises(ConstructionError):
        usmall._int64_rows((((2**63, 1), 5), ((0, 1), 3)))
