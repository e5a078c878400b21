"""Acceptance suite: one test per published-figure or property item.

Every item prints through pytest's own PASSED/FAILED line (run with -v).

Three published figures are misprints, each provably wrong from the
paper's own data: the EII u-small tally, the EII inequality list, and the
ascending-family middle closed form for SP4R. The golden table keeps the
figures as printed; its "errata" block records, next to each printed
value, the corrected one and the reason. The figure tests compare against
the printed table with the errata applied, and section 9 proves every
correction from the data of the paper (mirror symmetry and an exact
convex-hull oracle for EII, the (p, q) -> (-q, -p) shift for SP4R), so a
corrected value other than the proven one fails.

Section 5 scans every published box, the EVIII and EIX ones included
(about a minute each with two worker processes), without checkpoints, so
each run scans them afresh.
"""

import itertools
import os
import time
from fractions import Fraction as Q

import numpy as np
import pytest

from liecheck.cases import (
    ALL_FAMILIES,
    CLASSICAL_FAMILIES,
    FIXED_FAMILIES,
    ambient_to_ktype,
    get_case,
    ktype_is_dominant,
    ktype_to_ambient,
    validate_case,
)
from liecheck.fastscan import build_tables, bulk_spin_sq_scaled
from liecheck.pencil import (
    default_box,
    naive_bound,
    parabolic_bound,
    pencil_member,
    sp4r_family,
    step_margin_sq,
    verify_box,
)
from liecheck.rootdata import inner, norm_sq, vadd, vscale, vsub
from liecheck.spin import spin_norm_sq
from liecheck.usmall import enumerate_usmall, iter_usmall, usmall_system
from liecheck.weyl import apply_word, to_dominant

from conftest import sample_case
from oracle import decompose_step, word_length

SEED = 20250814

COUNT_FAMILIES = (
    "G", "FI", "FII", "EI", "EII", "EIV", "EV", "EVI", "EVIII", "EIX", "SP4R",
)
COUNT_BUDGET_S = {"EVIII": 1800, "EIX": 1800}
SCAN_BUDGET_S = {
    "G": 1, "FII": 1, "EIV": 1, "EI": 1, "FI": 10,
    "EII": 120, "EV": 1800, "EVI": 1800,
}
RANK_LE_4 = ("G", "FI", "FII", "EI", "EIV", "SP4R")
PRINTED_SYSTEM_FAMILIES = ("G", "FI", "FII", "EI", "EIV", "EII")


def _at_path(data, path):
    for key in path:
        data = data[key]
    return data


def _published(golden_data, *path):
    """The golden figure at path, with its recorded erratum applied."""
    for entry in golden_data["errata"]:
        if tuple(entry["path"]) == path:
            return entry["corrected"]
    return _at_path(golden_data, path)


def _erratum(golden_data, *path):
    (entry,) = [e for e in golden_data["errata"] if tuple(e["path"]) == path]
    return entry


# ----------------------------------------------------- 1. u-small counts


@pytest.mark.parametrize("family", COUNT_FAMILIES)
def test_usmall_count_matches_published(family, golden_data):
    expected = _published(golden_data, "usmall_counts", family)
    t0 = time.monotonic()
    count = enumerate_usmall(get_case(family))
    elapsed = time.monotonic() - t0
    assert elapsed < COUNT_BUDGET_S.get(family, 300)
    assert count == expected, (
        f"{family}: published count {expected} (errata applied), recomputed "
        f"{count}. For EII the printed tally 22122 is corrected to 20995, the "
        "count of the mirror-symmetric inequality list (section 9)."
    )


# ------------------------------------------------ 2. minimal coset sizes


def test_minimal_coset_sizes_match_published(golden_data):
    t0 = time.monotonic()
    for family, expected in golden_data["min_coset_counts"].items():
        assert sample_case(family).num_variants == expected, family
    assert time.monotonic() - t0 < 60


@pytest.mark.parametrize("family", ["G", "EI", "FII", "FI"])
def test_minimal_coset_words_match_published(family, golden_data):
    words = [list(w) for w in get_case(family).w1]
    assert words == golden_data["min_coset_words"][family]


# ------------------------------------- 3. printed noncompact shift lists


@pytest.mark.parametrize("family", [f for f in FIXED_FAMILIES if f != "SP4R"])
def test_printed_step_direction_ktypes(family, golden_data):
    assert list(get_case(family).beta_ktype) == golden_data["beta_ktype"][family]


def test_printed_step_directions_sp4r(golden_data):
    case = get_case("SP4R")
    printed = tuple(tuple(Q(c) for c in v) for v in golden_data["sp4r_beta_pair"])
    assert (case.beta, case.beta_second) == printed


@pytest.mark.parametrize("family", ["G", "EI", "FII", "FI"])
def test_printed_shift_lists_fundamental_coords(family, golden_data):
    case = get_case(family)
    computed = sorted(
        ambient_to_ktype(case, v) for v in case.rho_n_variants
    )
    printed = sorted(tuple(row) for row in golden_data["rho_n_ktype"][family])
    assert computed == printed


def test_printed_shift_list_sp4r(golden_data):
    case = get_case("SP4R")
    computed = sorted(case.rho_n_variants)
    printed = sorted(
        tuple(Q(c) for c in row) for row in golden_data["sp4r_rho_n_ambient"]
    )
    assert computed == printed


@pytest.mark.parametrize("family", CLASSICAL_FAMILIES)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_printed_shift_closed_forms_classical(family, n):
    case = get_case(family, n)
    checks = {c.name: c for c in validate_case(case)}
    check = checks["variant-closed-form"]
    assert check.ok, check.detail


# ---------------------------------------------------- 4. bound tables


@pytest.mark.parametrize("family", ["EV", "EVI", "EVIII", "EIX"])
def test_parabolic_bound_tables(family, golden_data):
    case = get_case(family)
    computed = [parabolic_bound(case, k) for k in range(1, case.rank_k + 1)]
    assert computed == [Q(v) for v in golden_data["parabolic_bounds"][family]]


@pytest.mark.parametrize("family", ["G", "EI"])
def test_naive_bounds(family, golden_data):
    assert naive_bound(get_case(family)) == Q(golden_data["naive_bounds"][family])


# ------------------------------------------- 5. box verification scans


@pytest.mark.parametrize("family", [f for f in FIXED_FAMILIES if f != "SP4R"])
def test_published_boxes_end_below_the_margin_thresholds(family, golden_data):
    # each published box is [lo, threshold - 1] in every coordinate, and
    # verify scans it as printed; SP4R has neither a box nor thresholds
    boxes, thresholds = golden_data["boxes"], golden_data["margin_thresholds"]
    assert set(boxes) == set(thresholds) == set(FIXED_FAMILIES) - {"SP4R"}
    box = [tuple(r) for r in boxes[family]]
    assert len(box) == len(thresholds[family]) == get_case(family).rank_k
    assert [hi for _, hi in box] == [t - 1 for t in thresholds[family]]
    assert all(lo <= hi for lo, hi in box)
    assert default_box(get_case(family)).ranges == tuple(box)


@pytest.mark.parametrize("family", sorted(SCAN_BUDGET_S))
def test_box_scan_no_violations(family):
    t0 = time.monotonic()
    rep = verify_box(get_case(family))
    elapsed = time.monotonic() - t0
    assert rep.ok, rep.violations[:5]
    assert rep.min_margin_sq > 0
    assert elapsed < SCAN_BUDGET_S[family], f"{elapsed:.1f}s over budget"


@pytest.mark.parametrize("family", ["EVIII", "EIX"])
def test_box_scan_no_violations_long(family, monkeypatch):
    # no checkpoint records: they would only cost disk writes
    monkeypatch.delenv("LIECHECK_CHECKPOINT_DIR", raising=False)
    jobs = min(8, os.cpu_count() or 1)
    t0 = time.monotonic()
    rep = verify_box(get_case(family), jobs=jobs)
    elapsed = time.monotonic() - t0
    assert rep.ok, rep.violations[:5]
    assert rep.min_margin_sq > 0
    assert elapsed < 1800, f"{elapsed:.1f}s over budget"


# ------------------------------------------ 6. SP4R closed-form families


def _published_quadratic(golden_data, direction, key):
    a, b, c = _published(golden_data, "sp4r_pencils", direction, key)
    return lambda m: a * m * m + b * m + c


@pytest.mark.parametrize("key", ["good", "mid", "bad"])
def test_sp4r_descending_closed_forms(key, golden_data):
    quad = _published_quadratic(golden_data, "descending", key)
    for m in range(5, 101):
        point = sp4r_family(m, "descending")
        assert getattr(point, f"{key}_sq") == quad(m), f"m={m}"


@pytest.mark.parametrize("key", ["good", "mid", "bad"])
def test_sp4r_ascending_closed_forms(key, golden_data):
    quad = _published_quadratic(golden_data, "ascending", key)
    for m in range(5, 101):
        point = sp4r_family(m, "ascending")
        value = getattr(point, f"{key}_sq")
        assert value == quad(m), (
            f"ascending m={m}, {key}: published closed form (errata applied) "
            f"gives {quad(m)}, recomputed squared spin norm is {value}. The "
            "printed middle form 2m^2+2 is corrected to 2m^2-2m+5: the "
            "(p,q) -> (-q,-p) symmetry maps the ascending member at m onto "
            "the descending member at m+2 (section 9)."
        )


def test_sp4r_orderings_strict():
    for direction in ("descending", "ascending"):
        for m in range(5, 101):
            point = sp4r_family(m, direction)
            assert point.good_sq < point.mid_sq < point.bad_sq, (direction, m)


# --------------------------------------------------- 7. property suites


@pytest.mark.parametrize("family", RANK_LE_4)
def test_spin_floor_ceiling_exhaustive(family):
    case = get_case(family)
    floor = norm_sq(case.rho_c)
    ceiling = norm_sq(case.rho)
    for mu in iter_usmall(case):
        value = spin_norm_sq(case, mu)
        assert floor <= value <= ceiling, mu


@pytest.mark.parametrize("family", ["EII", "EV", "EVI", "EVIII", "EIX"])
def test_spin_floor_ceiling_sampled(family):
    case = get_case(family)
    tables = build_tables(case)
    count = enumerate_usmall(case)
    stride = max(1, count // 10_000)
    sampled = np.array(
        list(itertools.islice(iter_usmall(case), 0, None, stride)),
        dtype=np.int64,
    )
    assert len(sampled) >= 10_000
    values = bulk_spin_sq_scaled(tables, sampled)
    floor_scaled = tables.rho_c_nrm_s
    assert int(values.min()) >= floor_scaled
    assert Q(int(values.max()), tables.scale) <= norm_sq(case.rho)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_spin_floor_attained_on_shifts(family):
    case = sample_case(family)
    floor = norm_sq(case.rho_c)
    if case.k_has_center:
        for variant in case.rho_n_variants:
            mu = tuple(sorted(variant, reverse=True))
            assert spin_norm_sq(case, mu) == floor
        return
    coords = []
    for variant in case.rho_n_variants:
        dom, _ = to_dominant(variant, case.k_system)
        coords.append(ambient_to_ktype(case, dom))
    if case.num_variants > 40:
        tables = build_tables(case)
        values = bulk_spin_sq_scaled(tables, np.array(coords, dtype=np.int64))
        assert all(int(v) == tables.rho_c_nrm_s for v in values)
    else:
        for mu in coords:
            assert spin_norm_sq(case, mu) == floor


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_spin_ceiling_attained_at_zero(family):
    case = sample_case(family)
    zero = (0,) * case.ktype_dim
    assert spin_norm_sq(case, zero) == norm_sq(case.rho)


def test_counterexample_margin_at_step_weight():
    # the first pencil member above zero in the G case: the margin there
    # is 2 - 14 = -12, the documented strictness counterexample at the
    # u-small/u-large boundary
    case = get_case("G")
    mu = case.beta_ktype
    assert spin_norm_sq(case, mu) == 2
    assert spin_norm_sq(case, pencil_member(case, mu, -1)) == 14
    assert step_margin_sq(case, mu) == -12


@pytest.mark.parametrize(
    "family", [f for f in ALL_FAMILIES if sample_case(f).rank_k <= 4]
)
def test_reduced_word_expansion_identity(family):
    """rho_c - w(rho_c) telescopes over any reduced word in k-simples.

    For reduced s_{d1}...s_{dn}: the difference equals the sum of the
    positive roots s_{d1}...s_{d(k-1)}(d_k), with every coroot pairing
    <rho_c, d_k^v> equal to 1. All reduced words of length <= 6.
    """
    case = sample_case(family)
    system = case.k_system
    rho_c = case.rho_c
    zero = tuple(Q(0) for _ in rho_c)
    for n in range(0, 7):
        for letters in itertools.product(range(system.rank), repeat=n):
            if word_length(letters, system) != n:
                continue
            image = apply_word(letters, rho_c, system)
            total = zero
            for k in range(n):
                alpha = system.simple_roots[letters[k]]
                from liecheck.rootdata import coroot_pairing

                assert coroot_pairing(rho_c, alpha) == 1
                summand = apply_word(letters[:k], alpha, system)
                assert system.is_positive_root(summand)
                total = vadd(total, summand)
            assert vadd(image, total) == rho_c


def _system_caps(rows, dim):
    caps = []
    for i in range(dim):
        bounds = [
            bound // coeffs[i] for coeffs, bound in rows if coeffs[i] > 0
        ]
        caps.append(min(bounds))
    return caps


def _joint_caps(systems, dim):
    return [max(col) for col in zip(*(_system_caps(rows, dim) for rows in systems))]


def _grid_chunks(caps):
    """Every lattice point of the box [0, caps], one array per first coordinate."""
    grids = np.meshgrid(*[np.arange(c + 1) for c in caps[1:]], indexing="ij")
    tail = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
    for first in range(caps[0] + 1):
        yield np.concatenate(
            [np.full((len(tail), 1), first, dtype=np.int64), tail], axis=1
        )


def _admits(rows, pts):
    a = np.array([coeffs for coeffs, _ in rows], dtype=np.int64)
    b = np.array([bound for _, bound in rows], dtype=np.int64)
    return (pts @ a.T <= b).all(axis=1)


@pytest.mark.parametrize("family", PRINTED_SYSTEM_FAMILIES)
def test_printed_inequalities_match_construction(family, golden_data):
    # the derived hyperplane system and the published inequality list must
    # classify every dominant point of the joint bounding box identically
    case = get_case(family)
    derived = usmall_system(case).rows
    printed = [
        (tuple(coeffs), bound)
        for coeffs, bound in _published(golden_data, "usmall_rows", family)
    ]
    disagreements = 0
    sample = None
    for pts in _grid_chunks(_joint_caps((derived, printed), case.ktype_dim)):
        diff = _admits(derived, pts) != _admits(printed, pts)
        if diff.any():
            disagreements += int(diff.sum())
            if sample is None:
                sample = tuple(int(c) for c in pts[diff.argmax()])
    assert disagreements == 0, (
        f"{family}: published inequality list (errata applied) and the "
        f"derived hyperplane system disagree on {disagreements} dominant "
        f"lattice points, first at {sample}. For EII the printed list lacks "
        "the mirror row [5,4,3,2,1,3] <= 60 and admits 1117 points outside "
        "the convex hull (section 9)."
    )


def test_printed_inequalities_match_construction_sp4r(golden_data):
    # SP4R's rows live in ambient (p, q); the derived rows mix signs, so the
    # joint box of the other families does not apply. Its dominant points
    # are p >= q, compared on a window well beyond the u-small set.
    case = get_case("SP4R")
    derived = usmall_system(case).rows
    printed = [
        (tuple(coeffs), bound)
        for coeffs, bound in _published(golden_data, "usmall_rows", "SP4R")
    ]
    axis = np.arange(-20, 21)
    pts = np.stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], axis=1)
    pts = pts[pts[:, 0] >= pts[:, 1]]
    assert np.array_equal(_admits(derived, pts), _admits(printed, pts))
    assert _admits(printed, pts).sum() == golden_data["usmall_counts"]["SP4R"]


def test_partitioned_scan_reports_identical():
    case = get_case("EI")
    single = verify_box(case, jobs=1)
    partitioned = verify_box(case, jobs=4)
    assert (
        single.scanned,
        single.filtered,
        single.violations,
        single.min_margin_sq,
    ) == (
        partitioned.scanned,
        partitioned.filtered,
        partitioned.violations,
        partitioned.min_margin_sq,
    )


# --------------------------------------- 8. margin decomposition identity


def _variant_norm(case, mu, j):
    ambient = ktype_to_ambient(case, mu)
    shifted = vsub(ambient, case.rho_n_variants[j])
    dom, _ = to_dominant(shifted, case.k_system)
    return norm_sq(vadd(dom, case.rho_c))


def _random_pencil_points(case, rng, count):
    beta = case.beta_ktype
    dim = case.ktype_dim
    out = []
    while len(out) < count:
        base = tuple(int(rng.integers(0, 7)) for _ in range(dim))
        if case.k_has_center:
            base = (max(base), min(base))
        mu = tuple(b + s for b, s in zip(base, beta))
        out.append(mu)
    return out


def test_margin_decomposition_identity_bulk():
    rng = np.random.default_rng(SEED)
    plan = [(f, 10_000) for f in RANK_LE_4]
    plan += [(f, 10_000) for f in CLASSICAL_FAMILIES]
    plan += [(f, 2_000) for f in ("EII", "EV", "EVI", "EVIII", "EIX")]
    total = 0
    for family, count in plan:
        case = sample_case(family)
        beta = case.beta_ktype
        for mu in _random_pencil_points(case, rng, count):
            j = int(rng.integers(case.num_variants))
            down = tuple(m - s for m, s in zip(mu, beta))
            delta, term_conj, term_linear = decompose_step(case, mu, j)
            assert term_conj + term_linear == _variant_norm(
                case, mu, j
            ) - _variant_norm(case, down, j)
            total += 1
    assert total == 100_000


@pytest.mark.parametrize("family", ["G", "EI", "FI", "FII"])
def test_printed_linear_terms_exact(family, golden_data):
    entry = golden_data["step_linear_exact"][family]
    coeffs = entry["coeffs"]
    rng = np.random.default_rng(SEED)
    case = get_case(family)
    for _ in range(1000):
        mu = _random_pencil_points(case, rng, 1)[0]
        j = int(rng.integers(case.num_variants))
        offset = entry["by_variant"].get(str(j), entry["default"])
        _, _, term_linear = decompose_step(case, mu, j)
        assert term_linear == sum(c * m for c, m in zip(coeffs, mu)) + offset


CLASSICAL_LINEAR_FORMS = {
    # printed j=0 squared-norm differences, in ambient coordinates a_i
    "SL2nR": lambda a, n: 4 * (a[0] - n - 1),
    "SL2n1R": lambda a, n: 4 * (a[0] - n - Q(3, 2)),
    "SLnH": lambda a, n: 2 * (a[0] + a[1] - 2 * n + 2),
}


@pytest.mark.parametrize("family", CLASSICAL_FAMILIES)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_printed_linear_terms_classical(family, n):
    rng = np.random.default_rng(SEED)
    case = get_case(family, n)
    form = CLASSICAL_LINEAR_FORMS[family]
    for _ in range(1000):
        mu = _random_pencil_points(case, rng, 1)[0]
        ambient = ktype_to_ambient(case, mu)
        _, _, term_linear = decompose_step(case, mu, 0)
        assert term_linear == form(ambient, n)


# ------------------------------------------------- 9. errata, proven


def test_errata_record_standing_discrepancies(golden_data):
    # each erratum quotes the golden figure exactly as printed and corrects
    # it to something else, so the discrepancy itself stays asserted
    paths = [tuple(entry["path"]) for entry in golden_data["errata"]]
    assert len(set(paths)) == len(paths)
    for entry in golden_data["errata"]:
        assert entry["printed"] == _at_path(golden_data, entry["path"])
        assert entry["corrected"] != entry["printed"], entry["path"]
        assert entry["reason"].strip(), entry["path"]


def _mirror_eii(coords):
    # reverse the EII k-type coordinates a..e, keep f
    return tuple(coords[4::-1]) + tuple(coords[5:])


def _row_set(rows):
    return {(tuple(coeffs), bound) for coeffs, bound in rows}


def _mirrored_rows(rows):
    return {(_mirror_eii(coeffs), bound) for coeffs, bound in rows}


def test_eii_erratum_mirror_is_a_symmetry():
    """The E6 diagram automorphism (alpha1 <-> alpha6, alpha3 <-> alpha5)
    is an isometry permuting the positive roots. It fixes rho and rho_c,
    fixes theta and reverses k's simple roots [alpha6, alpha5, alpha4,
    alpha3, alpha1], so it reverses k-type coordinates a..e and maps
    mu + 2 rho_c into the convex hull of W.2rho exactly when mu does: the
    u-small set is mirror-symmetric."""
    case = get_case("EII")
    g = case.g_restricted
    simples = g.simple_roots
    perm = (5, 1, 4, 3, 2, 0)
    for i, j in itertools.product(range(g.rank), repeat=2):
        assert inner(simples[perm[i]], simples[perm[j]]) == inner(
            simples[i], simples[j]
        )

    def sigma(v):
        total = tuple(Q(0) for _ in v)
        for c, i in zip(g.root_coords(v), perm):
            total = vadd(total, vscale(c, simples[i]))
        return total

    assert {sigma(r) for r in g.positive_roots} == set(g.positive_roots)
    gammas = case.k_system.simple_roots
    assert [sigma(gm) for gm in gammas] == [*gammas[4::-1], gammas[5]]
    assert sigma(case.rho) == case.rho
    assert sigma(case.rho_c) == case.rho_c


def test_eii_erratum_rows_are_the_mirror_closure(golden_data):
    entry = _erratum(golden_data, "usmall_rows", "EII")
    printed = _row_set(entry["printed"])
    corrected = _row_set(entry["corrected"])
    assert _mirrored_rows(printed) != printed
    assert corrected == printed | _mirrored_rows(printed)
    assert _mirrored_rows(corrected) == corrected
    # the printed list admits a point but not its mirror image
    point = (0, 1, 0, 0, 0, 19)
    assert _admits(sorted(printed), np.array([point])).all()
    assert not _admits(sorted(printed), np.array([_mirror_eii(point)])).any()


@pytest.fixture(scope="module")
def eii_lists(golden_data):
    """Brute-force classification of the EII box by the printed and the
    corrected inequality lists: both tallies, the points on which the two
    lists disagree, and the maximal points of the corrected region."""
    entry = _erratum(golden_data, "usmall_rows", "EII")
    printed, corrected = entry["printed"], entry["corrected"]
    counts = {"printed": 0, "corrected": 0}
    disputed, maximal = [], []
    steps = np.eye(6, dtype=np.int64)
    for pts in _grid_chunks(_joint_caps((printed, corrected), 6)):
        ok_p, ok_c = _admits(printed, pts), _admits(corrected, pts)
        counts["printed"] += int(ok_p.sum())
        counts["corrected"] += int(ok_c.sum())
        disputed += [tuple(mu) for mu in pts[ok_p != ok_c].tolist()]
        inside = pts[ok_c]
        top = np.ones(len(inside), dtype=bool)
        for step in steps:
            top &= ~_admits(corrected, inside + step)
        maximal += [tuple(mu) for mu in inside[top].tolist()]
    return counts, disputed, maximal


def test_eii_erratum_tally_is_the_corrected_grid_count(golden_data, eii_lists):
    counts, _, _ = eii_lists
    entry = _erratum(golden_data, "usmall_counts", "EII")
    # the printed tally does not even count the printed list
    assert counts["printed"] != entry["printed"]
    assert counts["corrected"] == entry["corrected"]


def _in_convex_hull(case, mu):
    """Exact u-small test that never reads a hyperplane row: mu + 2 rho_c
    lies in the convex hull of W.2rho iff 2rho minus its g-dominant
    conjugate is a nonnegative combination of simple roots."""
    g = case.g_restricted
    point = vadd(ktype_to_ambient(case, mu), vscale(2, case.rho_c))
    dominant, _ = to_dominant(point, g)
    gap = vsub(vscale(2, case.rho), dominant)
    return all(c >= 0 for c in g.root_coords(gap))


def test_eii_erratum_hull_oracle_sides_with_correction(eii_lists):
    case = get_case("EII")
    counts, disputed, maximal = eii_lists
    # the corrected region lies inside the printed one ...
    assert len(disputed) == counts["printed"] - counts["corrected"] > 0
    # ... and every point only the printed list admits is outside the hull
    assert not any(_in_convex_hull(case, mu) for mu in disputed)
    # positive control: corners of the corrected region lie in the hull
    assert maximal
    assert all(_in_convex_hull(case, mu) for mu in maximal[::8])


def _tau(v):
    p, q = v
    return (-q, -p)


def _shifted_quadratic(coeffs, s):
    # coefficients of m -> a (m + s)^2 + b (m + s) + c
    a, b, c = coeffs
    return [a, 2 * a * s + b, a * s * s + b * s + c]


def test_sp4r_erratum_tau_is_a_symmetry():
    # tau = (p, q) -> (-q, -p) is an isometry fixing k's simple root, hence
    # commuting with conjugation into the k-dominant chamber; it fixes
    # rho_c and permutes the variants, so it preserves the spin norm. It
    # swaps beta and beta_second, so good steps map to good steps.
    case = get_case("SP4R")
    assert {_tau(v) for v in case.rho_n_variants} == set(case.rho_n_variants)
    assert _tau(case.rho_c) == case.rho_c
    assert [_tau(r) for r in case.k_system.simple_roots] == list(
        case.k_system.simple_roots
    )
    assert _tau(case.beta) == case.beta_second


def test_sp4r_erratum_mid_is_the_shifted_descending_form(golden_data):
    pencils = golden_data["sp4r_pencils"]
    asc, desc = pencils["ascending"], pencils["descending"]

    def member(rec, m):
        return tuple(s + m * d for s, d in zip(rec["start"], rec["direction"]))

    assert asc["min_m"] + 2 == desc["min_m"]
    for m in range(asc["min_m"], 101):
        assert _tau(member(asc, m)) == member(desc, m + 2)
    for key in ("good", "bad"):
        assert asc[key] == _shifted_quadratic(desc[key], 2), key
    entry = _erratum(golden_data, "sp4r_pencils", "ascending", "mid")
    assert entry["printed"] != _shifted_quadratic(desc["mid"], 2)
    assert entry["corrected"] == _shifted_quadratic(desc["mid"], 2)
