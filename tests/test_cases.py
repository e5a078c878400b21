"""Case registry: construction, validation, coordinate conversions."""

import dataclasses
from fractions import Fraction as Q

import numpy as np
import pytest

from liecheck.cases import (
    ALL_FAMILIES,
    CLASSICAL_FAMILIES,
    FIXED_FAMILIES,
    CaseId,
    ambient_to_ktype,
    get_case,
    ktype_is_dominant,
    ktype_to_ambient,
    list_cases,
    validate_case,
)
from liecheck.errors import UnknownCaseError, UsageError
from liecheck.fastscan import build_tables
from liecheck.rootdata import coroot_pairing, half_sum, norm_sq, vadd
from liecheck.usmall import usmall_system

from conftest import sample_case
from oracle import (
    fraction_coset_reps,
    fraction_system,
    fraction_tables,
    fraction_usmall_rows,
    fraction_variants,
)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_validate_sample_cases(family):
    case = sample_case(family)
    failures = [c for c in validate_case(case) if not c.ok]
    assert not failures, failures


@pytest.mark.parametrize("family", CLASSICAL_FAMILIES)
@pytest.mark.parametrize("n", [3, 4])
def test_validate_classical_larger_n(family, n):
    case = get_case(family, n)
    failures = [c for c in validate_case(case) if not c.ok]
    assert not failures, failures


def test_unknown_family_rejected():
    with pytest.raises(UnknownCaseError):
        get_case("BADCASE")


def test_classical_parameter_policy():
    with pytest.raises(UsageError):
        get_case("SL2nR")
    with pytest.raises(UsageError):
        get_case("SL2nR", 1)
    with pytest.raises(UsageError):
        get_case("G", 3)
    assert get_case("SL2nR", 2).id.label == get_case("SL2nR", 2).id.label


def test_case_id_labels():
    assert CaseId("G").label == "G"
    assert "2" in CaseId("SLnH", 2).label


def test_get_case_caches():
    assert get_case("G") is get_case("G")
    assert get_case("SLnH", 3) is get_case("SLnH", 3)


@pytest.mark.parametrize(
    "families", [("EVIII", "EIX"), ("EV", "EVI"), ("FI", "FII", "EIV")]
)
def test_cases_on_one_g_share_its_root_system(families):
    first, *rest = (get_case(f).g_restricted for f in families)
    assert all(g is first for g in rest)


ORACLE_IDS = [(f, None) for f in FIXED_FAMILIES] + [
    (f, n) for f in CLASSICAL_FAMILIES for n in range(2, 7)
]


@pytest.mark.parametrize("family, n", ORACLE_IDS)
def test_integer_derivations_match_the_fraction_oracle(family, n):
    case = get_case(family, n)
    g, k = case.g_restricted, case.k_system
    for system in (g, k):
        for name, value in fraction_system(system).items():
            assert getattr(system, name) == value, name
    words, matrices = fraction_coset_reps(g, k)
    assert case.w1 == tuple(words)
    assert len(case.w1_matrices) == len(matrices)
    for m, expected in zip(case.w1_matrices, matrices):
        assert m.dtype == expected.dtype and np.array_equal(m, expected)
    assert case.rho_n_variants == fraction_variants(case)
    assert usmall_system(case).rows == fraction_usmall_rows(case)
    tables = build_tables(case)
    oracle = fraction_tables(case)
    assert set(oracle) == {f.name for f in dataclasses.fields(tables)}
    for name, expected in oracle.items():
        value = getattr(tables, name)
        assert type(value) is type(expected), name
        if isinstance(expected, np.ndarray):
            assert value.dtype == expected.dtype, name
            assert np.array_equal(value, expected), name
        else:
            assert value == expected, name


def test_sp4r_ambient_to_ktype_refuses_a_non_integral_weight():
    case = get_case("SP4R")
    assert ambient_to_ktype(case, (Q(3), Q(-1))) == (3, -1)
    for v in [(Q(3, 2), Q(3, 2)), (Q(2), Q(1, 3))]:
        with pytest.raises(UsageError, match="not a k-integral weight"):
            ambient_to_ktype(case, v)


def test_list_cases_covers_registry():
    rows = list_cases()
    assert sorted(d.family for d in rows) == sorted(ALL_FAMILIES)
    by_family = {d.family: d for d in rows}
    assert by_family["SP4R"].k_has_center
    assert by_family["EVIII"].num_variants == 135
    assert all(by_family[f].parametrized for f in CLASSICAL_FAMILIES)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_rho_splits_into_compact_and_noncompact(family):
    # rho counts restricted roots with multiplicity: a root contributing to
    # both the compact and noncompact halves appears in each half sum, so
    # the deduplicated g system's half sum is not the right comparison
    case = sample_case(family)
    rho_n = case.rho_n_variants[0]
    assert case.rho == vadd(case.rho_c, rho_n)
    assert case.rho_c == case.k_system.half_positive_sum()
    assert rho_n == half_sum(case.p_positive)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_beta_is_highest_noncompact_weight(family):
    # beta is a noncompact root, k-dominant, and weakly above every other
    # noncompact positive in the k-dominance order
    case = sample_case(family)
    assert case.beta in case.p_positive
    assert ktype_is_dominant(case, case.beta_ktype)
    for gamma in case.k_system.simple_roots:
        assert coroot_pairing(case.beta, gamma) >= 0


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_ktype_ambient_roundtrip(family):
    case = sample_case(family)
    dim = case.ktype_dim
    samples = [
        tuple(range(1, dim + 1))[::-1],
        (3,) + (0,) * (dim - 1),
        tuple([2] * dim),
    ]
    for coords in samples:
        if not ktype_is_dominant(case, coords):
            continue
        ambient = ktype_to_ambient(case, coords)
        assert ambient_to_ktype(case, ambient) == coords


def test_ktype_dimension_checked():
    case = get_case("G")
    with pytest.raises(UsageError):
        ktype_to_ambient(case, (1, 2, 3))


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_variants_all_distinct_same_rho_norm(family):
    case = sample_case(family)
    assert len(set(case.rho_n_variants)) == case.num_variants
    target = norm_sq(case.rho)
    for variant in case.rho_n_variants:
        assert norm_sq(vadd(variant, case.rho_c)) == target


def test_w1_words_are_reduced_and_distinct():
    from oracle import word_length

    for family in ("G", "FI", "EI", "SP4R"):
        case = sample_case(family)
        matrices = set()
        for word, m in zip(case.w1, case.w1_matrices, strict=True):
            assert word_length(word, case.g_restricted) == len(word)
            matrices.add(tuple(m.flat))
        assert len(matrices) == case.num_variants
        assert case.w1[0] == ()
