"""Spin norm: exact evaluation, bounds, and the vectorized scanner."""

import itertools
import random
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liecheck.cases import (
    CLASSICAL_FAMILIES,
    ambient_to_ktype,
    get_case,
    ktype_is_dominant,
    ktype_to_ambient,
)
from liecheck import fastscan
from liecheck.fastscan import (
    build_tables,
    bulk_margins_scaled,
    bulk_spin_sq_scaled,
    conjugate_dominant_bulk,
    margin_lower_bounds,
)
from liecheck.pencil import step_margin_sq
from liecheck.rootdata import combine, coroot_pairing, inner, norm_sq, vadd, vsub
from liecheck.spin import spin_norm_sq, variant_norms_sq
from liecheck.usmall import iter_usmall
from liecheck.weyl import to_dominant

from conftest import BIG_FAMILIES, SMALL_FAMILIES, largest_accepted, run_points
from oracle import (
    margin_lower_bounds_one_point,
    margin_lower_bounds_two_floor,
    orbit,
    simplex_lower_bounds_exact,
)


def oracle_spin_sq(case, mu):
    """Independent evaluation via full Weyl orbits (small cases only)."""
    ambient = ktype_to_ambient(case, mu)
    best = None
    for variant in case.rho_n_variants:
        x = vsub(ambient, variant)
        for w in orbit(x, case.k_system):
            if all(
                coroot_pairing(w, g) >= 0 for g in case.k_system.simple_roots
            ):
                value = norm_sq(vadd(w, case.rho_c))
                if best is None or value < best:
                    best = value
                break
    return best


@pytest.mark.parametrize("family", ["G", "SP4R"])
def test_matches_orbit_oracle(family):
    case = get_case(family)
    lo = -4 if case.k_has_center else 0
    for p in range(lo, 7):
        for q in range(lo, 7):
            mu = (p, q)
            if not ktype_is_dominant(case, mu):
                continue
            assert spin_norm_sq(case, mu) == oracle_spin_sq(case, mu)


def test_variant_norms_min_is_spin_norm():
    for family in ("G", "FII", "EI", "SP4R"):
        case = get_case(family)
        mu = tuple([1] * case.ktype_dim)
        values = variant_norms_sq(case, mu)
        assert len(values) == case.num_variants
        assert min(values) == spin_norm_sq(case, mu)
        argmin = {j for j, v in enumerate(values) if v == spin_norm_sq(case, mu)}
        assert argmin == {j for j, v in enumerate(values) if v == min(values)}


@pytest.mark.parametrize("family", ["G", "FII", "EIV", "EI", "FI", "SP4R"])
def test_floor_and_ceiling_on_usmall(family):
    case = get_case(family)
    floor = norm_sq(case.rho_c)
    ceiling = norm_sq(case.rho)
    for mu in iter_usmall(case):
        value = spin_norm_sq(case, mu)
        assert floor <= value <= ceiling, mu


@pytest.mark.parametrize("family", ["G", "FII", "EIV", "EI", "FI", "EII", "SP4R"])
def test_floor_attained_on_conjugated_variants(family):
    case = get_case(family)
    floor = norm_sq(case.rho_c)
    for variant in case.rho_n_variants:
        dom, _ = to_dominant(variant, case.k_system)
        mu = dom if case.k_has_center else ambient_to_ktype(case, dom)
        assert spin_norm_sq(case, mu) == floor


def test_zero_weight_norm_is_rho_norm():
    for family in ("G", "FII", "EIV", "EI", "FI", "EII", "SP4R"):
        case = get_case(family)
        zero = (0,) * case.ktype_dim
        assert spin_norm_sq(case, zero) == norm_sq(case.rho)


def test_sp4r_contragredient_symmetry():
    # (p, q) -> (-q, -p) preserves the chamber, the variant set, and rho_c,
    # hence the spin norm
    case = get_case("SP4R")
    for p in range(-5, 6):
        for q in range(-5, p + 1):
            assert spin_norm_sq(case, (p, q)) == spin_norm_sq(case, (-q, -p))


@pytest.mark.parametrize("family", ["G", "FI", "EI", "EII", "SP4R"])
def test_bulk_scanner_matches_exact(family, rng):
    case = get_case(family)
    tables = build_tables(case)
    dim = case.ktype_dim
    lo = -6 if case.k_has_center else 0
    coords = []
    while len(coords) < 40:
        mu = tuple(rng.randint(lo, 9) for _ in range(dim))
        if ktype_is_dominant(case, mu):
            coords.append(mu)
    arr = np.array(coords, dtype=np.int64)
    scaled = bulk_spin_sq_scaled(tables, arr)
    for row, value in zip(coords, scaled):
        assert Q(int(value), tables.scale) == spin_norm_sq(case, row)


@pytest.mark.parametrize("family", ["G", "EI", "SP4R"])
def test_bulk_margins_match_step_margin(family, rng):
    case = get_case(family)
    tables = build_tables(case)
    beta = case.beta_ktype
    dim = case.ktype_dim
    picked = []
    while len(picked) < 25:
        mu = tuple(rng.randint(0, 8) for _ in range(dim))
        if case.k_has_center:
            mu = (mu[0], mu[1] - 6)
        down = tuple(m - b for m, b in zip(mu, beta))
        if ktype_is_dominant(case, mu) and ktype_is_dominant(case, down):
            picked.append(mu)
    arr = np.array(picked, dtype=np.int64)
    margins = bulk_margins_scaled(tables, arr)
    for mu, value in zip(picked, margins):
        assert Q(int(value), tables.scale) == step_margin_sq(case, mu)


# -- best-first kernel against the exact norm --------------------------------


def _variant_floors(case, mu):
    """Sweep-free floor |x + rho_c|^2 of each variant, x = mu - rho_n
    variant, in exact arithmetic."""
    ambient = ktype_to_ambient(case, mu)
    return [
        norm_sq(vadd(vsub(ambient, variant), case.rho_c))
        for variant in case.rho_n_variants
    ]


@pytest.mark.parametrize("family", ["G", "FII", "EI", "FI", "SP4R"])
def test_bulk_kernel_exact_on_tied_floors(family):
    # rows whose lowest floor is attained by two or more variants: the
    # kernel sweeps one of them first and must not lose the others; G has
    # only 4 such rows in 0..3, so its grid reaches 5
    case = get_case(family)
    tables = build_tables(case)
    lo = -3 if case.k_has_center else 0
    hi = 6 if family == "G" else 4
    tied = []
    for mu in itertools.product(range(lo, hi), repeat=case.ktype_dim):
        if not ktype_is_dominant(case, mu):
            continue
        floors = _variant_floors(case, mu)
        if floors.count(min(floors)) > 1:
            tied.append(mu)
    assert len(tied) >= 5
    values = bulk_spin_sq_scaled(tables, np.array(tied, dtype=np.int64))
    for mu, value in zip(tied, values):
        assert Q(int(value), tables.scale) == spin_norm_sq(case, mu), mu


@pytest.mark.parametrize("family", ["G", "SP4R"])
def test_bulk_kernel_exact_across_chunks(family, rng):
    # one shuffled array of more than two kernel chunks, so that rows of
    # every kind meet at the chunk boundaries
    case = get_case(family)
    tables = build_tables(case)
    lo = -40 if case.k_has_center else 0
    points = [
        mu
        for mu in itertools.product(range(lo, 61), repeat=2)
        if ktype_is_dominant(case, mu)
    ]
    coords = rng.sample(points, 2 * fastscan._CHUNK_ROWS + 37)
    values = bulk_spin_sq_scaled(tables, np.array(coords, dtype=np.int64))
    assert len(values) == len(coords)
    for mu, value in zip(coords, values):
        assert Q(int(value), tables.scale) == spin_norm_sq(case, mu), mu


@pytest.mark.parametrize("family", ["G", "EII", "SP4R"])
def test_bulk_kernel_on_zero_and_one_row(family):
    case = get_case(family)
    tables = build_tables(case)
    empty = np.zeros((0, case.ktype_dim), dtype=np.int64)
    for kernel in (bulk_spin_sq_scaled, bulk_margins_scaled, margin_lower_bounds):
        out = kernel(tables, empty)
        assert out.shape == (0,) and out.dtype == np.int64
    mu = case.beta_ktype if not case.k_has_center else (3, -2)
    value = bulk_spin_sq_scaled(tables, np.array([mu], dtype=np.int64))
    assert value.shape == (1,)
    assert Q(int(value[0]), tables.scale) == spin_norm_sq(case, mu)


# -- the margin lower bound that screens kernel batches ----------------------


def _tied(tables, coords):
    """Rows whose lowest sweep-free floor is attained by two variants: the
    table lin + c differs from the floors by a per-row constant."""
    floor = fastscan._table(tables, coords)
    return (floor == floor.min(axis=1, keepdims=True)).sum(axis=1) > 1


@pytest.mark.parametrize("family", SMALL_FAMILIES + BIG_FAMILIES)
def test_margin_lower_bounds_never_exceed_the_margin(family):
    # sampled rows with mu and mu - beta dominant, around beta; SP4R takes
    # the center-torus path with negative coordinates
    case = get_case(family)
    tables = build_tables(case)
    beta = np.array(case.beta_ktype, dtype=np.int64)
    lo = -6 if case.k_has_center else 0
    sample = np.random.default_rng(20250814).integers(
        lo, 7, size=(3000, case.ktype_dim)
    ) + np.maximum(beta, 0)
    coords = np.array(
        [
            mu for mu in sample
            if ktype_is_dominant(case, tuple(map(int, mu)))
            and ktype_is_dominant(case, tuple(map(int, mu - beta)))
        ],
        dtype=np.int64,
    )
    assert len(coords) >= 1000
    if case.num_variants > 1:
        # ties decide which variant of mu - beta is swept
        assert _tied(tables, coords - beta).sum() >= 100
        assert _tied(tables, coords).sum() >= 100
    bounds = margin_lower_bounds(tables, coords)
    margins = bulk_margins_scaled(tables, coords)
    assert bounds.dtype == np.int64
    assert (bounds <= margins).all()
    # the bound is the margin on most rows, which is what makes it a screen
    assert (bounds == margins).mean() > 0.5


def _screen_rows(case, rng, count, low, high):
    """count rows mu with mu and mu - beta dominant, mu - max(beta, 0)
    drawn from [low, high) per coordinate; SP4R's rows are (p, q) with
    p - q drawn from [low, high) and q from [-20, 20)."""
    beta = np.array(case.beta_ktype, dtype=np.int64)
    dim = case.ktype_dim
    if case.k_has_center:
        q = rng.integers(-20, 20, size=count)
        rows = np.stack([q + rng.integers(low, high, size=count), q], axis=1)
    else:
        rows = rng.integers(low, high, size=(count, dim)) + np.maximum(beta, 0)
    keep = [
        ktype_is_dominant(case, tuple(map(int, mu)))
        and ktype_is_dominant(case, tuple(map(int, mu - beta)))
        for mu in rows
    ]
    return rows[keep]


@pytest.mark.parametrize("family,n", [
    (family, None) for family in SMALL_FAMILIES + BIG_FAMILIES
] + [("SL2nR", 3), ("SL2n1R", 3), ("SLnH", 3)])
def test_one_table_screen_equals_the_two_floor_screen(family, n):
    # away from the walls of k margin_lower_bounds gives the same integers
    # as the tighter two-floor form it replaced; near them, and on chunks
    # mixing the two, it is the simplex bound of a simplex of one point
    # and at most the margin; rows whose lowest floor is tied between
    # variants occur among them
    case = get_case(family, n)
    tables = build_tables(case)
    rng = np.random.default_rng(20251019)
    near = _screen_rows(case, rng, 2000, 0, 3)
    far = _screen_rows(case, rng, 2000, 12, 60)
    wall = 2 * tables.rho_c_var_s.max()
    beta = tables.beta_coords
    assert ((far - beta) @ tables.rho_c_lin_s * 2 >= wall).all()
    assert ((far @ tables.rho_c_lin_s) * 2 >= wall).all()
    assert ((near - beta) @ tables.rho_c_lin_s * 2 < wall).any()
    mixed = np.concatenate([far[:300], near[:10], far[300:]])
    assert len(far) > fastscan._CHUNK_ROWS
    assert np.array_equal(
        margin_lower_bounds(tables, far), margin_lower_bounds_two_floor(tables, far)
    )
    for rows in (near, mixed):
        assert len(rows) > fastscan._CHUNK_ROWS
        bounds = margin_lower_bounds(tables, rows)
        reach = np.zeros((len(rows), 1), dtype=np.int64)
        point = fastscan.simplex_lower_bounds(tables, rows, [0], reach)
        assert np.array_equal(bounds, point)
        assert (bounds <= bulk_margins_scaled(tables, rows)).all()
    if case.num_variants > 1:
        assert _tied(tables, far - beta).any() or _tied(tables, near - beta).any()


# Before the float64 products, magnitude_bound accepted box coordinates up to
# these values; it must accept each of them still.
ACCEPTED_BEFORE = {
    ("G", None): 1073741817, ("FII", None): 331363918, ("EIV", None): 243154639,
    ("EI", None): 392075075, ("FI", None): 554477890, ("EII", None): 206641707,
    ("EV", None): 117154834, ("EVI", None): 203830124, ("EVIII", None): 128336691,
    ("EIX", None): 107374179, ("SP4R", None): 1073741819,
    ("SL2nR", 2): 1518500243, ("SL2nR", 3): 480191936, ("SL2nR", 4): 405836257,
    ("SL2n1R", 2): 960383877, ("SL2n1R", 3): 362990983, ("SL2n1R", 4): 331363916,
    ("SLnH", 2): 960383880, ("SLnH", 3): 573939143, ("SLnH", 4): 392075075,
}


@pytest.mark.parametrize("family,n", sorted(ACCEPTED_BEFORE, key=str))
def test_magnitude_bound_accepts_what_it_accepted_before(family, n):
    tables = build_tables(get_case(family, n))
    assert largest_accepted(tables) >= ACCEPTED_BEFORE[family, n]


# -- the simplex bound on one free axis, which screens whole walker runs -----

RUN_CASES = [(family, None) for family in SMALL_FAMILIES + BIG_FAMILIES] + [
    (family, n) for family in CLASSICAL_FAMILIES for n in (2, 3, 4)
]


def _random_runs(case, tables, rng, count):
    """count runs (low, top) of 3 to 24 points along one coordinate, with
    every point mu and mu - beta dominant: a third near the walls of k,
    a third at offsets 12..60 above max(beta, 0), and a third mixing
    coordinates up to the largest that magnitude_bound accepts with small
    ones."""
    top_coord = largest_accepted(tables)
    beta = tables.beta_coords
    dim = case.ktype_dim
    pairing = tables.pairing.T
    runs = {"near": [], "far": [], "large": []}
    while min(map(len, runs.values())) < count:
        kind = ("near", "far", "large")[int(rng.integers(3))]
        if len(runs[kind]) == count:
            continue
        length = int(rng.integers(3, 25))
        if kind == "large":
            pick = rng.integers(3, size=dim)
            low = np.select(
                [pick == 0, pick == 1],
                [rng.integers(0, top_coord - length, size=dim),
                 top_coord - length - rng.integers(0, 1000, size=dim)],
                rng.integers(0, 20, size=dim),
            )
        else:
            offsets = (0, 3) if kind == "near" else (12, 60)
            low = rng.integers(*offsets, size=dim) + np.maximum(beta, 0)
            if case.k_has_center:  # (p, q): p - q drawn, q in [-20, 20)
                q = int(rng.integers(-20, 20))
                low = np.array([q + int(rng.integers(*offsets)), q])
        low = low.astype(np.int64)
        top = low.copy()
        top[int(rng.integers(dim))] += length - 1
        ends = np.stack([low, top])
        if (ends @ pairing < 0).any() or ((ends - beta) @ pairing < 0).any():
            continue
        if np.abs(ends).max() > top_coord:
            continue
        runs[kind].append((low, top))
    return [run for kind in runs.values() for run in kind]


@pytest.mark.parametrize("family,n", RUN_CASES)
def test_run_lower_bounds_never_exceed_a_margin_on_the_run(family, n):
    # the simplex bound with one free axis, the walk's screen of a run at
    # the last level, is at most the exact margin of every point of its
    # run: near the walls of k, away from them, and at the largest
    # coordinates magnitude_bound accepts; for G, FII and EI also against
    # the Fraction margin
    case = get_case(family, n)
    tables = build_tables(case)
    rng = np.random.default_rng(20251019)
    runs = _random_runs(case, tables, rng, 60)
    low = np.array([r[0] for r in runs])
    top = np.array([r[1] for r in runs])
    axis = (top != low).argmax(axis=1)
    bounds = np.empty(len(runs), dtype=np.int64)
    for a in np.unique(axis).tolist():
        at = axis == a
        part = fastscan.simplex_lower_bounds(tables, low[at], [a], (top - low)[at][:, [a]])
        assert part.dtype == np.int64 and len(part) == at.sum()
        bounds[at] = part
    lows = []
    for (lo, hi), b in zip(runs, bounds.tolist()):
        margins = bulk_margins_scaled(tables, run_points(lo, hi))
        assert b <= margins.min(), (lo, hi)
        lows.append(margins.min())
    # the bound is the smallest margin of many runs: the screen is sharp
    assert (bounds == np.array(lows)).sum() >= 10
    if family in ("G", "FII", "EI"):
        for (lo, hi), b in list(zip(runs, bounds.tolist()))[::6]:
            for mu in run_points(lo, hi).tolist():
                assert Q(b, tables.scale) <= step_margin_sq(case, tuple(mu))


# -- the vertex bound that screens whole walker subtrees ---------------------

SIMPLEX_CASES = [
    (family, None) for family in SMALL_FAMILIES + BIG_FAMILIES if family != "SP4R"
] + [(family, n) for family in CLASSICAL_FAMILIES for n in (2, 3)]


def _random_frontier_rows(case, tables, rng, count):
    """count frontier rows (corner, axes, reach) of the box walk: corner
    a point with corner and corner - beta dominant, near the walls of k,
    at offsets 12..60 above max(beta, 0), or mixing coordinates up to the
    largest that magnitude_bound accepts with small ones; axes its 2 or
    more free coordinates; reach ceil(s / c_i) over them for a slack s of
    the cheap row (coefficients c) small enough to list the simplex."""
    top_coord = largest_accepted(tables)
    beta = tables.beta_coords
    dim = case.ktype_dim
    coef = tables.cheap_coef_s
    rows = []
    while len(rows) < count:
        kind = ("near", "far", "large")[len(rows) % 3]
        axes = rng.permutation(dim)[: int(rng.integers(2, dim + 1))]
        slack = int(rng.integers(0, 3 * coef[axes].max() + 1))
        reach = -(-slack // coef[axes])
        if kind == "large":
            corner = np.where(
                rng.integers(2, size=dim) == 0,
                top_coord - reach.max() - rng.integers(0, 1000, size=dim),
                rng.integers(0, 20, size=dim),
            )
        else:
            offsets = (0, 3) if kind == "near" else (12, 60)
            corner = rng.integers(*offsets, size=dim)
        corner = (corner + np.maximum(beta, 0)).astype(np.int64)
        if corner.max() + reach.max() > top_coord:
            continue
        rows.append((corner, axes, reach))
    return rows


def _simplex_points(corner, axes, reach):
    """The lattice points corner + y with y >= 0 supported on axes and
    sum y_i / reach_i <= 1 (y_i = 0 where reach_i = 0), one axis at a
    time: with scale the lcm of the reaches, y_i costs y_i * scale /
    reach_i of a budget of scale."""
    scale = int(np.lcm.reduce(np.maximum(reach, 1)))
    weight = np.where(reach > 0, scale // np.maximum(reach, 1), scale + 1)
    y, used = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for w in weight.tolist():
        counts = (scale - used) // w + 1
        values = np.concatenate([np.arange(c) for c in counts.tolist()])
        y = np.column_stack([np.repeat(y, counts, axis=0), values])
        used = np.repeat(used, counts) + values * w
    points = np.repeat(corner[None, :], len(y), axis=0)
    points[:, axes] += y
    return points


@pytest.mark.parametrize("family,n", SIMPLEX_CASES)
def test_simplex_lower_bounds_never_exceed_a_margin_on_the_simplex(family, n):
    # the vertex bound of a frontier row is at most the exact margin of
    # every lattice point of the row's simplex, and equals the bound
    # computed with object integers, near the walls of k, away from them,
    # and at coordinates up to the largest that magnitude_bound accepts;
    # for G, FII and EI also against the Fraction margin
    case = get_case(family, n)
    tables = build_tables(case)
    rng = np.random.default_rng(20261019)
    for corner, axes, reach in _random_frontier_rows(case, tables, rng, 30):
        (bound,) = fastscan.simplex_lower_bounds(tables, corner[None, :], axes, reach[None, :])
        exact = simplex_lower_bounds_exact(tables, corner[None, :], axes, reach[None, :])
        assert bound == exact[0], (corner, axes, reach)
        points = _simplex_points(corner, axes, reach)
        assert bound <= bulk_margins_scaled(tables, points).min(), (corner, axes, reach)
        if family in ("G", "FII", "EI") and corner.max() < 100:
            for mu in points[:: max(1, len(points) // 8)].tolist():
                assert Q(int(bound), tables.scale) <= step_margin_sq(case, tuple(mu))
    # the largest reach magnitude_bound accepts: a vertex at its largest
    # coordinate, checked at the vertices and at sampled points inside
    top = largest_accepted(tables)
    dim = case.ktype_dim
    corner = (np.maximum(tables.beta_coords, 0) + rng.integers(0, 5, size=dim)).astype(np.int64)
    axes = np.arange(dim)
    reach = top - corner
    (bound,) = fastscan.simplex_lower_bounds(tables, corner[None, :], axes, reach[None, :])
    assert bound == simplex_lower_bounds_exact(tables, corner[None, :], axes, reach[None, :])[0]
    inside = rng.dirichlet(np.ones(dim + 1), size=200)[:, :dim] * reach
    samples = corner + np.floor(inside).astype(np.int64)
    vertices = corner + np.vstack([np.zeros(dim, np.int64), np.diag(reach)])
    assert bound <= bulk_margins_scaled(tables, np.vstack([vertices, samples])).min()


# -- the cheap bound far outside every box ----------------------------------


@pytest.mark.parametrize("family,n", SIMPLEX_CASES)
@settings(max_examples=50, deadline=None, database=None)
@given(data=st.data())
def test_cheap_bound_never_exceeds_the_exact_margin_far_outside_the_boxes(family, n, data):
    # the cheap-bound lemma of the fastscan docstring holds for every mu
    # with mu - beta dominant: mu = beta + y, y >= 0, with coordinates up to
    # 10^6 (far past every box) mixed with small ones near the walls of k,
    # against the Fraction margin
    case = get_case(family, n)
    tables = build_tables(case)
    beta = tables.beta_coords.tolist()
    assert min(beta) >= 0
    coordinate = st.one_of(st.integers(0, 10**6), st.integers(0, 5))
    y = data.draw(st.tuples(*[coordinate] * case.ktype_dim))
    mu = tuple(b + v for b, v in zip(beta, y))
    cheap = sum(c * x for c, x in zip(tables.cheap_coef_s.tolist(), mu)) - tables.cheap_const_s
    assert Q(cheap, tables.scale) <= step_margin_sq(case, mu)


# -- the int64 engine at the largest coordinates the guard accepts -----------


@pytest.mark.parametrize("family", ["G", "FII", "EI", "EIX"])
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_bulk_engine_exact_up_to_the_magnitude_bound(family, data):
    # every coordinate up to what magnitude_bound accepts (about 1.07e9 for
    # G), mixed with small ones so that the sweeps take many reflections;
    # EIX has 120 variants, so its float64 tables are among the widest
    case = get_case(family)
    tables = build_tables(case)
    top = largest_accepted(tables)
    coordinate = st.one_of(
        st.integers(min_value=0, max_value=top),
        st.integers(min_value=top - 1000, max_value=top),
        st.integers(min_value=0, max_value=20),
    )
    rows = data.draw(
        st.lists(st.tuples(*[coordinate] * case.ktype_dim), min_size=1, max_size=6)
    )
    scaled = bulk_spin_sq_scaled(tables, np.array(rows, dtype=np.int64))
    for mu, value in zip(rows, scaled):
        assert Q(int(value), tables.scale) == spin_norm_sq(case, mu)
    # the same rows raised to beta, so that mu - beta is dominant too: the
    # margins kernel is the exact margin, and the margin lower bound is at
    # most it
    beta = case.beta_ktype
    stepped = [tuple(max(x, b) for x, b in zip(mu, beta)) for mu in rows]
    arr = np.array(stepped, dtype=np.int64)
    bounds = margin_lower_bounds(tables, arr)
    assert np.array_equal(
        bounds, margin_lower_bounds_one_point(tables, np.array(stepped, dtype=object))
    )
    exact = [step_margin_sq(case, mu) for mu in stepped]
    margins = bulk_margins_scaled(tables, arr)
    assert [Q(int(m), tables.scale) for m in margins] == exact
    for value, margin in zip(bounds, exact):
        assert Q(int(value), tables.scale) <= margin


@pytest.mark.parametrize("family", ["EVIII", "EIX"])
def test_bulk_engine_exact_on_e8_rows_up_to_the_magnitude_bound(family):
    # the same coordinate mix as above on the two largest families, whose
    # variants number 135 and 120, against the Fraction oracle
    case = get_case(family)
    tables = build_tables(case)
    top = largest_accepted(tables)
    rng = random.Random(20251019)

    def coordinate():
        return rng.choice(
            (rng.randint(0, top), rng.randint(top - 1000, top), rng.randint(0, 20))
        )

    rows = [tuple(coordinate() for _ in range(8)) for _ in range(40)]
    scaled = bulk_spin_sq_scaled(tables, np.array(rows, dtype=np.int64))
    for mu, value in zip(rows, scaled):
        assert Q(int(value), tables.scale) == spin_norm_sq(case, mu)
    beta = case.beta_ktype
    stepped = [tuple(max(x, b) for x, b in zip(mu, beta)) for mu in rows[:12]]
    arr = np.array(stepped, dtype=np.int64)
    bounds = margin_lower_bounds(tables, arr)
    margins = bulk_margins_scaled(tables, arr)
    for mu, bound, margin in zip(stepped, bounds, margins):
        assert Q(int(margin), tables.scale) == step_margin_sq(case, mu)
        assert bound <= margin


# -- the root sum: the rho_c pairing of a dominant conjugate without a sweep --

IDENTITY_CASES = [(family, None) for family in SMALL_FAMILIES + BIG_FAMILIES] + [
    (family, n) for family in CLASSICAL_FAMILIES for n in (2, 3, 4)
]


def _random_coords(rng, dim):
    """Coordinates mixing small, negative and large values, so that most
    rows are far from the dominant chamber."""
    return [
        rng.choice((rng.randint(-6, 6), rng.randint(-10**6, 10**6)))
        for _ in range(dim)
    ]


@pytest.mark.parametrize("family,n", IDENTITY_CASES)
def test_root_sum_is_the_rho_c_pairing_of_the_dominant_conjugate(family, n, rng):
    # 2 <dom x, rho_c> = sum over alpha in Delta+(k) of |<x, alpha>|, in
    # Fractions, for x = mu - rho_n^j with mu anywhere in the lattice
    case = get_case(family, n)
    k = case.k_system
    for _ in range(50):
        x = vsub(
            combine(case.ktype_basis, _random_coords(rng, case.ktype_dim)),
            rng.choice(case.rho_n_variants),
        )
        dom, _ = to_dominant(x, k)
        assert 2 * inner(dom, case.rho_c) == sum(
            abs(inner(x, alpha)) for alpha in k.positive_roots
        )


@pytest.mark.parametrize("family,n", IDENTITY_CASES)
def test_root_sum_matches_the_swept_kernel(family, n):
    # the integer root tables against the Weyl sweep they replace: for every
    # (row, variant), scale * 2 <dom x, rho_c> from conjugate_dominant_bulk
    # equals the root sum, and the minimum over the variants of the swept
    # values is bulk_spin_sq_scaled
    case = get_case(family, n)
    tables = build_tables(case)
    k = case.k_system
    cartan = np.array(
        [[int(coroot_pairing(a, b)) for b in k.simple_roots] for a in k.simple_roots],
        dtype=np.int64,
    )
    rho_c_pair = [inner(w, case.rho_c) for w in k.fundamental_weights]
    rng = random.Random(20251019)
    coords = np.array(
        [_random_coords(rng, case.ktype_dim) for _ in range(60)], dtype=np.int64
    )
    lin = -2 * coords @ tables.variant_s.T
    root_pair = coords @ tables.root_s
    swept = np.empty(lin.shape, dtype=object)
    for j in range(case.num_variants):
        c = conjugate_dominant_bulk(
            coords @ tables.pairing.T - tables.shift[j], cartan
        )
        assert (c >= 0).all()
        pair2 = [2 * tables.scale * sum(ci * p for ci, p in zip(row, rho_c_pair))
                 for row in c.tolist()]
        roots = np.abs(root_pair - tables.root_var_s[j]).sum(axis=1)
        assert [Q(int(r)) for r in roots] == pair2
        swept[:, j] = [
            int(l) + int(tables.variant_nrm_s[j]) + int(p)
            for l, p in zip(lin[:, j], pair2)
        ]
    expected = swept.min(axis=1) + fastscan._row_constant(tables, coords)
    assert bulk_spin_sq_scaled(tables, coords).tolist() == expected.tolist()
