"""Case registry: construction, validation, coordinate conversions."""

import pytest

from liecheck.cases import (
    ALL_FAMILIES,
    CLASSICAL_FAMILIES,
    CaseId,
    ambient_to_ktype,
    get_case,
    ktype_is_dominant,
    ktype_to_ambient,
    list_cases,
    validate_case,
)
from liecheck.errors import UnknownCaseError, UsageError
from liecheck.rootdata import coroot_pairing, half_sum, norm_sq, vadd

from conftest import sample_case


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
