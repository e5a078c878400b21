"""Enumeration of unitarily small k-types."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liecheck import usmall
from liecheck.cases import get_case, ktype_is_dominant
from liecheck.errors import ConstructionError, UsageError
from liecheck.fastscan import build_tables
from liecheck.report_cli import main
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


def test_jobs_partitioning_stable(capsys):
    # usmall count accepts --jobs and counts serially: the count is the
    # same for any --jobs
    counts = []
    for jobs in ("1", "3"):
        assert main(["usmall", "count", "EI", "--jobs", jobs]) == 0
        counts.append(int(capsys.readouterr().out))
    assert counts == [enumerate_usmall(get_case("EI"))] * 2


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


def _screened_points(case):
    """The u-small points of case that a walk with a screen keeps: the
    screen rejects the frontier rows whose coordinate sum plus level is 3
    mod 4, a rule that depends on the row alone."""

    def screen(level, coords, slack):
        return (coords.sum(axis=1) + level) % 4 != 3

    walk = usmall._walk(*zip(*usmall_system(case).rows), screen=screen)
    return [p for caps, coords, _ in walk for p in usmall._children(coords, caps)[0].tolist()]


@pytest.mark.parametrize("frontier", [1, 7])
def test_walk_does_not_depend_on_frontier_groups(frontier, monkeypatch):
    cases = [get_case(f) for f in ("EI", "EII", "EV")]
    expected = [(enumerate_usmall(c), list(iter_usmall(c))) for c in cases]
    screened = [_screened_points(c) for c in cases]
    for (count, _), kept in zip(expected, screened):
        assert 0 < len(kept) < count
    monkeypatch.setattr(usmall, "_FRONTIER_ROWS", frontier)
    for case, (count, points), kept in zip(cases, expected, screened):
        assert enumerate_usmall(case) == count
        assert list(iter_usmall(case)) == points
        assert _screened_points(case) == kept
    for chunk in usmall.usmall_chunks(cases[0]):
        assert len(chunk) <= frontier or (chunk[:, :-1] == chunk[0, :-1]).all()


def _rows(dim, lo):
    """Up to two rows (coeffs, bound) on dim coordinates, coefficients in
    0..3 and bounds in lo..8."""
    row = st.tuples(st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
                    st.integers(lo, 8))
    return st.lists(row, min_size=1, max_size=2)


def _arrays(rows):
    return (np.array([c for c, _ in rows], dtype=np.int64),
            np.array([b for _, b in rows], dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_walk_with_drop_sets_matches_grid_filter(data):
    # the walk keeps exactly the grid points under its rows that lie in no
    # drop set, in lexicographic order; a drop set with a bound below zero
    # holds no point
    dim = data.draw(st.integers(1, 3))
    edges = data.draw(st.lists(st.integers(0, 4), min_size=dim, max_size=dim))
    extra = data.draw(_rows(dim, 0))
    coeffs = np.vstack([np.eye(dim, dtype=np.int64), _arrays(extra)[0]])
    bounds = np.concatenate([edges, _arrays(extra)[1]])
    drops = [_arrays(d) for d in data.draw(st.lists(_rows(dim, -3), max_size=3))]
    walked = [
        p for caps, coords, start in usmall._walk(coeffs, bounds, drops)
        for p in usmall._children(coords, caps, start)[0].tolist()
    ]
    grid = np.array(list(itertools.product(*(range(e + 1) for e in edges))))
    kept = (grid @ coeffs.T <= bounds).all(axis=1)
    for c, b in drops:
        kept &= ~(grid @ c.T <= b).all(axis=1)
    assert walked == grid[kept].tolist()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_walk_with_a_screen_drops_exactly_the_rejected_subtrees(data):
    # a screen sees each new frontier row with one or more coordinates
    # free, with its slacks; the walk yields exactly the grid points under
    # its rows and outside its drop sets, in lexicographic order, minus the
    # subtrees of the rows the screen rejects, and never expands such a row
    dim = data.draw(st.integers(2, 4))
    edges = data.draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim))
    extra = data.draw(_rows(dim, 0))
    coeffs = np.vstack([np.eye(dim, dtype=np.int64), _arrays(extra)[0]])
    bounds = np.concatenate([edges, _arrays(extra)[1]])
    drops = [_arrays(d) for d in data.draw(st.lists(_rows(dim, -3), max_size=2))]
    prefix = st.integers(0, dim - 1).flatmap(
        lambda n: st.tuples(*(st.integers(0, e) for e in edges[:n]))
    )
    chosen = data.draw(st.sets(prefix, max_size=4))
    screened = []

    def screen(level, coords, slack):
        assert level < dim and coords.shape == (len(slack), level)
        assert np.array_equal(slack, bounds - coords @ coeffs[:, :level].T)
        rows = [tuple(row) for row in coords.tolist()]
        screened.extend(rows)
        return np.array([row not in chosen for row in rows], dtype=bool)

    walked = [
        p for caps, coords, start in usmall._walk(coeffs, bounds, drops, screen)
        for p in usmall._children(coords, caps, start)[0].tolist()
    ]
    grid = np.array(list(itertools.product(*(range(e + 1) for e in edges))))
    kept = (grid @ coeffs.T <= bounds).all(axis=1)
    for c, b in drops:
        kept &= ~(grid @ c.T <= b).all(axis=1)
    under = [any(tuple(p[:n]) in chosen for n in range(dim)) for p in grid.tolist()]
    assert walked == grid[kept & ~np.array(under, dtype=bool)].tolist()
    # no row below a rejected one reached the screen
    for row in screened:
        assert not any(row[:n] in chosen for n in range(len(row)))
    assert len(set(screened)) == len(screened)


def test_walk_refuses_negative_drop_coefficients():
    # refused before a drop set with a negative bound would be skipped
    drop = (np.array([[-1]]), np.array([-1]))
    with pytest.raises(ConstructionError, match="negative"):
        list(usmall._walk([(1,)], [3], [drop]))


def test_walk_refuses_rows_beyond_int64():
    rows = (((1, 0), 2**31), ((0, 1), 3))
    with pytest.raises(ConstructionError):
        usmall._int64_rows(rows)
    with pytest.raises(ConstructionError):
        usmall._int64_rows((((1, 1), -1),))
    with pytest.raises(ConstructionError):
        usmall._int64_rows((((2**63, 1), 5), ((0, 1), 3)))


def _key(derived):
    """derived data as a hashable value: a u-small system is one, while
    scan tables hold arrays."""
    if isinstance(derived, usmall.InequalitySystem):
        return derived
    return tuple(str(np.asarray(v).tolist()) for v in vars(derived).values())


@pytest.mark.parametrize(
    "derive,build,scaled",
    [
        (usmall_system, usmall._build_system, "rho"),
        (build_tables, build_tables.__wrapped__, "rho_c"),
    ],
    ids=["usmall_system", "build_tables"],
)
def test_usmall_system_is_built_once_per_case_object(derive, build, scaled):
    case = get_case("EI")
    assert derive(case) is derive(case)
    # distinct cases with other data, each dropped after use: none may be
    # answered from another case's entry
    systems = {_key(derive(case))}
    for factor in range(2, 7):
        data = tuple(factor * x for x in getattr(case, scaled))
        other = dataclasses.replace(case, **{scaled: data})
        system = derive(other)
        assert _key(system) == _key(build(other))
        assert derive(other) is system
        systems.add(_key(system))
        del other
    assert len(systems) == 6
    # an equal but distinct case object gets an entry of its own
    twin = dataclasses.replace(case)
    assert _key(derive(twin)) == _key(derive(case))
    assert derive(twin) is not derive(case)
