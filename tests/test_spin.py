"""Spin norm: exact evaluation, bounds, and the vectorized scanner."""

import itertools
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liecheck.cases import (
    ambient_to_ktype,
    get_case,
    ktype_is_dominant,
    ktype_to_ambient,
)
from liecheck import fastscan
from liecheck.fastscan import build_tables, bulk_margins_scaled, bulk_spin_sq_scaled
from liecheck.pencil import step_margin_sq
from liecheck.rootdata import coroot_pairing, inner, norm_sq, vadd, vsub
from liecheck.spin import spin_argmin, spin_norm_sq, variant_norms_sq
from liecheck.usmall import iter_usmall
from liecheck.weyl import orbit, to_dominant

from conftest import largest_accepted


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
        argmin = spin_argmin(case, mu)
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
    """Sweep-free floor |x|^2 + 2 max(0, <x, rho_c>) + |rho_c|^2 of each
    variant, x = mu - rho_n variant, in exact arithmetic."""
    ambient = ktype_to_ambient(case, mu)
    floors = []
    for variant in case.rho_n_variants:
        x = vsub(ambient, variant)
        floors.append(
            norm_sq(x) + 2 * max(0, inner(x, case.rho_c)) + norm_sq(case.rho_c)
        )
    return floors


@pytest.mark.parametrize("family", ["G", "FII", "EI", "FI", "SP4R"])
def test_bulk_kernel_exact_on_tied_floors(family):
    # rows whose lowest floor is attained by two or more variants: the
    # kernel sweeps one of them first and must not lose the others
    case = get_case(family)
    tables = build_tables(case)
    lo = -3 if case.k_has_center else 0
    tied = []
    for mu in itertools.product(range(lo, 4), repeat=case.ktype_dim):
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
    for kernel in (bulk_spin_sq_scaled, bulk_margins_scaled):
        out = kernel(tables, empty)
        assert out.shape == (0,) and out.dtype == np.int64
    mu = case.beta_ktype if not case.k_has_center else (3, -2)
    value = bulk_spin_sq_scaled(tables, np.array([mu], dtype=np.int64))
    assert value.shape == (1,)
    assert Q(int(value[0]), tables.scale) == spin_norm_sq(case, mu)


# -- the int64 engine at the largest coordinates the guard accepts -----------


@pytest.mark.parametrize("family", ["G", "FII", "EI"])
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_bulk_engine_exact_up_to_the_magnitude_bound(family, data):
    # every coordinate up to what magnitude_bound accepts (about 1.07e9 for
    # G), mixed with small ones so that the sweeps take many reflections
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
