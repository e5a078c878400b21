"""Pencil margins, bound tables, and the box verification engine."""

import itertools
import json
from fractions import Fraction as Q

import numpy as np
import pytest

from liecheck.cases import get_case, ktype_is_dominant
from liecheck.errors import ConstructionError, UsageError
from liecheck.fastscan import build_tables
from liecheck.pencil import (
    Box,
    coordinate_names,
    decompose_step,
    default_box,
    naive_bound,
    parabolic_bound,
    parse_box,
    pencil_member,
    sp4r_family,
    step_margin_sq,
    verify_box,
)
from liecheck.spin import spin_norm_sq, variant_norms_sq
from liecheck.usmall import usmall_system

from conftest import largest_accepted

# frozen outcomes of the default-box scans for the quick families
EXPECTED_SCANS = {
    "G": (12, 3, Q(12)),
    "FII": (144, 131, Q(6)),
    "EIV": (48, 28, Q(8)),
    "EI": (5096, 4527, Q(24)),
}


def test_parse_box_roundtrip():
    case = get_case("G")
    box = parse_box("a:3..6,b:1..3", case)
    assert box.ranges == ((3, 6), (1, 3))
    assert box.render(coordinate_names(case)) == "a:3..6,b:1..3"
    assert box.dim == 2 and box.size == 12
    assert box.contains((4, 2)) and not box.contains((4, 4))


def test_parse_box_rejects_malformed():
    case = get_case("G")
    for text in (
        "a:3..6",  # wrong dimension
        "b:1..3,a:3..6",  # wrong order
        "a:6..3,b:1..3",  # empty range
        "a:-1..6,b:1..3",  # negative for semisimple k
        "a:3..6;b:1..3",  # wrong separator
        "x:3..6,b:1..3",  # unknown name
    ):
        with pytest.raises(UsageError):
            parse_box(text, case)


def test_sp4r_box_allows_negative_coordinates():
    case = get_case("SP4R")
    box = parse_box("p:-3..4,q:-4..3", case)
    assert box.ranges == ((-3, 4), (-4, 3))


def test_default_boxes_match_golden(golden_data):
    for family, ranges in golden_data["boxes"].items():
        case = get_case(family)
        assert default_box(case).ranges == tuple(
            (lo, hi) for lo, hi in ranges
        )


def test_sp4r_has_no_default_box():
    with pytest.raises(UsageError):
        default_box(get_case("SP4R"))


def test_classical_fallback_box_exists():
    case = get_case("SL2nR", 2)
    box = default_box(case)
    assert box.dim == case.ktype_dim
    assert "sanity" in box.note


def test_pencil_member_steps():
    case = get_case("G")
    beta = case.beta_ktype
    mu = (4, 2)
    up = pencil_member(case, mu, 3)
    assert up == tuple(m + 3 * b for m, b in zip(mu, beta))
    with pytest.raises(UsageError):
        pencil_member(case, (0, 0), -1)


def test_step_margin_matches_direct_difference():
    for family in ("G", "FII", "EI", "SP4R"):
        case = get_case(family)
        beta = case.beta_ktype
        base = (
            (4, 4) if case.k_has_center else tuple([2] * case.ktype_dim)
        )
        mu = tuple(m + 2 * b for m, b in zip(base, beta))
        down = tuple(m - b for m, b in zip(mu, beta))
        assert ktype_is_dominant(case, down)
        assert step_margin_sq(case, mu) == spin_norm_sq(case, mu) - spin_norm_sq(
            case, down
        )


def test_decompose_recovers_variant_difference(rng):
    for family in ("G", "FI", "EI", "SP4R"):
        case = get_case(family)
        beta = case.beta_ktype
        for _ in range(20):
            mu = tuple(rng.randint(0, 7) for _ in range(case.ktype_dim))
            if case.k_has_center:
                mu = (max(mu), min(mu))
            down = tuple(m - b for m, b in zip(mu, beta))
            if not (
                ktype_is_dominant(case, mu) and ktype_is_dominant(case, down)
            ):
                continue
            j = rng.randrange(case.num_variants)
            delta, term_conj, term_linear = decompose_step(case, mu, j)
            total = variant_norms_sq(case, mu)[j] - variant_norms_sq(case, down)[j]
            assert term_conj + term_linear == total
        with pytest.raises(UsageError):
            decompose_step(case, tuple([3] * case.ktype_dim), case.num_variants)


def test_bound_tables_match_golden(golden_data):
    for family, printed in golden_data["parabolic_bounds"].items():
        case = get_case(family)
        computed = [parabolic_bound(case, k) for k in range(1, case.rank_k + 1)]
        assert len(computed) == len(printed)
        for value, target in zip(computed, printed):
            if target == "pos":
                assert value > 0
            elif target == "nonneg":
                assert value >= 0
            else:
                assert value == Q(target)
    for family, target in golden_data["naive_bounds"].items():
        assert naive_bound(get_case(family)) == Q(target)


def test_naive_never_beats_parabolic():
    for family in ("G", "FI", "FII", "EI", "EII", "EV", "EVI", "EVIII", "EIX"):
        case = get_case(family)
        table = [parabolic_bound(case, k) for k in range(1, case.rank_k + 1)]
        assert naive_bound(case) <= min(table)


def test_parabolic_bound_argument_checked():
    case = get_case("G")
    with pytest.raises(UsageError):
        parabolic_bound(case, 0)
    with pytest.raises(UsageError):
        parabolic_bound(case, case.rank_k + 1)


@pytest.mark.parametrize("family", sorted(EXPECTED_SCANS))
def test_default_box_scan_regressions(family):
    rep = verify_box(get_case(family))
    scanned, filtered, minimum = EXPECTED_SCANS[family]
    assert (rep.scanned, rep.filtered, rep.min_margin_sq) == (
        scanned,
        filtered,
        minimum,
    )
    assert rep.ok and rep.violations == ()


def test_shortcut_and_jobs_do_not_change_reports():
    case = get_case("EI")
    base = verify_box(case)
    no_shortcut = verify_box(case, shortcut=False)
    parallel = verify_box(case, jobs=3)
    for other in (no_shortcut, parallel):
        assert other.scanned == base.scanned
        assert other.filtered == base.filtered
        assert other.violations == base.violations
        assert other.min_margin_sq == base.min_margin_sq


def test_sp4r_negative_margins_reported():
    # the rank-two symplectic case has no strict-growth guarantee;
    # small boxes genuinely contain non-positive step margins
    case = get_case("SP4R")
    box = parse_box("p:-3..4,q:-4..3", case)
    rep = verify_box(case, box)
    beta = case.beta_ktype
    expected = []
    for p in range(-3, 5):
        for q in range(-4, 4):
            mu = (p, q)
            down = (p - beta[0], q - beta[1])
            if not (
                ktype_is_dominant(case, mu) and ktype_is_dominant(case, down)
            ):
                continue
            from liecheck.usmall import is_usmall

            if is_usmall(case, mu):
                continue
            margin = step_margin_sq(case, mu)
            if margin <= 0:
                expected.append((mu, margin))
    assert list(rep.violations) == sorted(expected)
    assert not rep.ok


def test_checkpoint_resume_preserves_report(tmp_path):
    case = get_case("FII")
    box = default_box(case)
    fresh = verify_box(case, box)
    first = verify_box(case, box, checkpoint_dir=str(tmp_path))
    files = list(tmp_path.glob("scan-*.json"))
    assert len(files) == 1
    # drop some finished slices to simulate an interrupted run
    state = json.loads(files[0].read_text())
    kept = dict(list(state["slices"].items())[:1])
    files[0].write_text(json.dumps({"slices": kept}))
    resumed = verify_box(case, box, checkpoint_dir=str(tmp_path))
    for rep in (first, resumed):
        assert rep.scanned == fresh.scanned
        assert rep.filtered == fresh.filtered
        assert rep.violations == fresh.violations
        assert rep.min_margin_sq == fresh.min_margin_sq


def test_checkpoint_ignores_other_boxes(tmp_path):
    case = get_case("G")
    verify_box(case, parse_box("a:3..6,b:1..3", case), checkpoint_dir=str(tmp_path))
    rep = verify_box(
        case, parse_box("a:3..7,b:1..3", case), checkpoint_dir=str(tmp_path)
    )
    assert rep.scanned == 15
    assert len(list(tmp_path.glob("scan-*.json"))) == 2


def _payload(rep):
    return (rep.scanned, rep.filtered, rep.violations, rep.min_margin_sq)


def _only_checkpoint(directory):
    (path,) = directory.glob("scan-*.json")
    return path


def _assert_damaged_record_is_rescanned(tmp_path, damage):
    # FII's lowest slice record gets a bogus minimum plus damage(record);
    # the resumed scan must scan that slice again
    case = get_case("FII")
    box = default_box(case)
    fresh = verify_box(case, box)
    verify_box(case, box, checkpoint_dir=str(tmp_path))
    path = _only_checkpoint(tmp_path)
    state = json.loads(path.read_text())
    rec = state["slices"][min(state["slices"], key=int)]
    damage(rec)
    rec["min_scaled"] = -10**6
    path.write_text(json.dumps(state))
    assert _payload(verify_box(case, box, checkpoint_dir=str(tmp_path))) == _payload(fresh)


def test_checkpoint_rejects_slice_of_wrong_size(tmp_path):
    def damage(rec):
        rec["scanned"] -= 1

    _assert_damaged_record_is_rescanned(tmp_path, damage)


def test_checkpoint_rejects_record_with_missing_field(tmp_path):
    # not read with the missing field's default (no violations)
    _assert_damaged_record_is_rescanned(tmp_path, lambda rec: rec.pop("violations"))


def _assert_damaged_file_is_rescanned(tmp_path, damage):
    # the checkpoint file of FII's default box is replaced by damage(state),
    # with every record's minimum made bogus first; verify must not crash,
    # and every slice it cannot read back is scanned again
    case = get_case("FII")
    box = default_box(case)
    fresh = verify_box(case, box)
    verify_box(case, box, checkpoint_dir=str(tmp_path))
    path = _only_checkpoint(tmp_path)
    state = json.loads(path.read_text())
    for rec in state["slices"].values():
        rec["min_scaled"] = -10**6
    path.write_text(json.dumps(damage(state)))
    assert _payload(verify_box(case, box, checkpoint_dir=str(tmp_path))) == _payload(fresh)


def test_checkpoint_that_is_not_an_object_is_absent(tmp_path):
    _assert_damaged_file_is_rescanned(tmp_path, lambda state: [1, 2])


def test_checkpoint_slices_that_are_not_an_object_are_absent(tmp_path):
    _assert_damaged_file_is_rescanned(
        tmp_path, lambda state: {"slices": list(state["slices"].values())}
    )


def test_checkpoint_record_that_is_not_an_object_is_absent(tmp_path):
    def damage(state):
        return {"slices": {key: [1, 2] for key in state["slices"]}}

    _assert_damaged_file_is_rescanned(tmp_path, damage)


def test_checkpoint_record_with_a_non_integer_key_is_absent(tmp_path):
    def damage(state):
        return {"slices": {f"{key}.0": rec for key, rec in state["slices"].items()}}

    _assert_damaged_file_is_rescanned(tmp_path, damage)


def test_checkpoint_ignores_records_of_older_scan_format(tmp_path):
    # slice records written before the box seed were keyed by case, ranges
    # and shortcut alone; a file under that key must not be read back
    import hashlib

    case = get_case("FII")
    box = default_box(case)
    fresh = verify_box(case, box)
    verify_box(case, box, checkpoint_dir=str(tmp_path))
    path = _only_checkpoint(tmp_path)
    state = json.loads(path.read_text())
    for rec in state["slices"].values():
        rec["min_scaled"] = -10**6
    path.unlink()
    old_key = json.dumps(
        {"case": case.id.label, "ranges": [list(r) for r in box.ranges],
         "shortcut": True},
        sort_keys=True,
    )
    digest = hashlib.sha1(old_key.encode()).hexdigest()[:16]
    (tmp_path / f"scan-{case.id.family}-{digest}.json").write_text(json.dumps(state))
    assert _payload(verify_box(case, box, checkpoint_dir=str(tmp_path))) == _payload(fresh)


@pytest.mark.parametrize("key", ["__version__", "golden_digest"])
def test_checkpoint_ignores_records_of_other_code_or_data(key, tmp_path, monkeypatch):
    # a record written by another package version or under another
    # golden.json is scanned again, not read back
    from liecheck import fastscan

    case = get_case("FII")
    box = default_box(case)
    fresh = verify_box(case, box)
    other = "0.0.0" if key == "__version__" else (lambda: "0" * 40)
    with monkeypatch.context() as patch:
        patch.setattr(fastscan, key, other, raising=False)
        verify_box(case, box, checkpoint_dir=str(tmp_path))
    path = _only_checkpoint(tmp_path)
    state = json.loads(path.read_text())
    for rec in state["slices"].values():
        rec["min_scaled"] = -10**6
    path.write_text(json.dumps(state))
    assert _payload(verify_box(case, box, checkpoint_dir=str(tmp_path))) == _payload(fresh)
    assert len(list(tmp_path.glob("scan-*.json"))) == 2


# Boxes for the exactness of the seeded cheap-bound prune. EI's minimum lies
# outside its lowest slice; the EII sub-box is walked along a, its default
# box along f; the SP4R box has violations and an empty lowest slice. The
# EVIII sub-box of its lowest published slice has a seed (57) far above its
# minimum (10), so walk levels end early under a cutoff above the minimum.
SEEDED_BOXES = {
    "EI": None,
    "FI": None,
    "EII": "a:0..14,b:0..3,c:1..4,d:0..3,e:0..6,f:17..19",
    "EVIII": "a:0..0,b:0..15,c:0..0,d:0..0,e:0..0,f:0..15,g:1..1,h:0..15",
    "SP4R": "p:-3..4,q:-4..3",
}


def _seeded_box(family):
    case = get_case(family)
    spec = SEEDED_BOXES[family]
    return case, default_box(case) if spec is None else parse_box(spec, case)


def test_seeded_boxes_cover_the_hard_cases():
    from liecheck.fastscan import _Scanner

    case, box = _seeded_box("EI")
    axis = _Scanner(case, box.ranges, True).perm[0]
    lowest = list(box.ranges)
    lowest[axis] = (box.ranges[axis][0],) * 2
    box_min = verify_box(case, box).min_margin_sq
    assert verify_box(case, Box(tuple(lowest))).min_margin_sq > box_min

    case, box = _seeded_box("EII")
    walked = _Scanner(case, box.ranges, True).perm[0]
    assert walked != _Scanner(case, default_box(case).ranges, True).perm[0]

    case, box = _seeded_box("EVIII")
    scanner = _Scanner(case, box.ranges, True)
    seed = scanner.first_batch_min(range(scanner.lo_p[0], scanner.hi_p[0] + 1))
    assert Q(seed, build_tables(case).scale) - verify_box(case, box).min_margin_sq > 40


@pytest.mark.parametrize("family", sorted(SEEDED_BOXES))
def test_seeded_prune_is_exact(family):
    case, box = _seeded_box(family)
    exhaustive = verify_box(case, box, shortcut=False)
    assert _payload(verify_box(case, box)) == _payload(exhaustive)
    assert _payload(verify_box(case, box, jobs=2)) == _payload(exhaustive)


@pytest.mark.parametrize("family", sorted(SEEDED_BOXES))
def test_seeded_prune_resume_is_exact(family, tmp_path):
    case, box = _seeded_box(family)
    fresh = verify_box(case, box)
    verify_box(case, box, checkpoint_dir=str(tmp_path))
    path = _only_checkpoint(tmp_path)
    state = json.loads(path.read_text())
    kept = dict(sorted(state["slices"].items(), key=lambda kv: int(kv[0]))[1::2])
    path.write_text(json.dumps({"slices": kept}))
    resumed = verify_box(case, box, checkpoint_dir=str(tmp_path), jobs=2)
    assert _payload(resumed) == _payload(fresh)


def test_resume_starts_from_the_records_without_a_probe(tmp_path, monkeypatch):
    # the loaded records' smallest minimum starts the running minimum, so a
    # resumed scan with records present walks no probe batch
    from liecheck.fastscan import _Scanner

    case, box = _seeded_box("EI")
    fresh = verify_box(case, box)
    verify_box(case, box, checkpoint_dir=str(tmp_path))
    path = _only_checkpoint(tmp_path)
    state = json.loads(path.read_text())
    kept = dict(sorted(state["slices"].items(), key=lambda kv: int(kv[0]))[1::2])
    path.write_text(json.dumps({"slices": kept}))

    def no_probe(self, values):
        raise AssertionError("probe walked on resume")

    monkeypatch.setattr(_Scanner, "first_batch_min", no_probe)
    resumed = verify_box(case, box, checkpoint_dir=str(tmp_path))
    assert _payload(resumed) == _payload(fresh)


def test_serial_scan_prunes_at_the_box_minimum_once_found(monkeypatch):
    # a serial scan carries its running minimum from slice to slice: once a
    # batch has reached the box minimum, no later batch holds a point whose
    # cheap bound lies above max(0, minimum)
    from liecheck import fastscan

    batches = []
    kernel = fastscan.bulk_margins_scaled

    def recorded(tables, coords):
        batches.append(coords.copy())
        return kernel(tables, coords)

    monkeypatch.setattr(fastscan, "bulk_margins_scaled", recorded)
    case, box = _seeded_box("EI")
    rep = verify_box(case, box)
    tables = build_tables(case)
    minimum = rep.min_margin_sq * tables.scale
    assert minimum.denominator == 1
    cutoff = max(0, int(minimum))
    lows = [int(kernel(tables, coords).min()) for coords in batches]
    first = lows.index(int(minimum))
    later = batches[first + 1:]
    assert later
    for coords in later:
        assert (coords @ tables.cheap_coef_s - tables.cheap_const_s <= cutoff).all()


def test_prune_skips_points_only_with_the_shortcut(monkeypatch):
    # --no-shortcut sends every filtered point to the kernel exactly once,
    # with no seed probe; the seeded shortcut sends fewer
    from liecheck import fastscan

    rows = []
    kernel = fastscan.bulk_margins_scaled

    def counted(tables, coords):
        rows.append(len(coords))
        return kernel(tables, coords)

    monkeypatch.setattr(fastscan, "bulk_margins_scaled", counted)
    case, box = _seeded_box("EI")
    full = verify_box(case, box, shortcut=False)
    assert sum(rows) == full.filtered
    rows.clear()
    verify_box(case, box)
    assert sum(rows) < full.filtered


# -- the walk over u-large blocks ----------------------------------------------

# Sub-boxes of the last slices of the long EVIII and EIX boxes: every block
# the walk reaches is u-large by a single u-small row, the box seed equals
# the box minimum, and the cheap bound ends many walk levels early.
LARGE_BOXES = {
    "EVIII": "a:42..42,b:0..1,c:0..1,d:0..1,e:0..1,f:0..15,g:1..16,h:0..15",
    "EIX": "a:0..1,b:1..2,c:0..3,d:0..11,e:0..3,f:0..1,g:1..12,h:55..55",
}


def _large_box_points(family):
    """The box, its lattice points, and which of them are filtered
    (dominant, with mu - beta dominant, and not u-small), by direct count."""
    case = get_case(family)
    box = parse_box(LARGE_BOXES[family], case)
    axes = [np.arange(lo, hi + 1) for lo, hi in box.ranges]
    points = np.stack(
        [g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1
    )
    system = usmall_system(case)
    coeffs = np.array([list(c) for c, _ in system.rows])
    bounds = np.array([b for _, b in system.rows])
    dominant = (points >= 0).all(axis=1) & (points >= case.beta_ktype).all(axis=1)
    small = (points @ coeffs.T <= bounds).all(axis=1)
    return case, box, points, dominant & ~small


def _walk_order(points, ranges):
    """points sorted as the walk visits them: lexicographically, longest
    range first, ties by coordinate index."""
    order = sorted(range(len(ranges)), key=lambda k: (ranges[k][0] - ranges[k][1], k))
    return points[np.lexsort([points[:, k] for k in reversed(order)])]


@pytest.mark.parametrize("family", sorted(LARGE_BOXES))
def test_large_block_walk_counts_and_payload(family, monkeypatch):
    from liecheck.fastscan import _Scanner

    case, box, points, filtered = _large_box_points(family)
    flags = []
    block = _Scanner._block

    def recorded(self, prefix, partial, cheap_partial, prefix_dom, large, state):
        flags.append(large)
        return block(self, prefix, partial, cheap_partial, prefix_dom, large, state)

    monkeypatch.setattr(_Scanner, "_block", recorded)
    rep = verify_box(case, box)
    assert flags and all(flags)
    assert rep.scanned == len(points)
    assert rep.filtered == int(filtered.sum())
    assert _payload(verify_box(case, box, shortcut=False)) == _payload(rep)
    assert _payload(verify_box(case, box, jobs=2)) == _payload(rep)


@pytest.mark.parametrize("family", sorted(LARGE_BOXES))
def test_large_block_walk_evaluates_points_under_the_minimum(family, monkeypatch):
    # The seed equals the box minimum here, so the cutoff stays at it: after
    # the seed probe, the kernel sees exactly the filtered points whose
    # cheap bound is at most the minimum, in walk order.
    from liecheck import fastscan

    case, box, points, filtered = _large_box_points(family)
    batches = []
    kernel = fastscan.bulk_margins_scaled

    def recorded(tables, coords):
        batches.append(coords.copy())
        return kernel(tables, coords)

    monkeypatch.setattr(fastscan, "bulk_margins_scaled", recorded)
    rep = verify_box(case, box)
    tables = build_tables(case)
    scaled = rep.min_margin_sq * tables.scale
    assert scaled.denominator == 1 and scaled > 0
    minimum = int(scaled)
    cheap = points @ tables.cheap_coef_s - tables.cheap_const_s
    probe, *scan = batches
    assert kernel(tables, probe).min() == minimum
    assert (filtered & (cheap > minimum)).any()
    assert (filtered & (cheap == minimum)).any()
    needed = _walk_order(points[filtered & (cheap <= minimum)], box.ranges)
    assert np.array_equal(np.concatenate(scan), needed)


def test_walk_refuses_negative_coefficients_for_semisimple_k(monkeypatch):
    # the per-level exit assumes every u-small coefficient is >= 0
    from dataclasses import replace

    from liecheck import fastscan

    case = get_case("G")
    system = usmall_system(case)
    (coeffs, bound), *rest = system.rows
    flipped = ((-coeffs[0],) + tuple(coeffs[1:]), bound)
    monkeypatch.setattr(
        fastscan, "usmall_system", lambda c: replace(system, rows=(flipped, *rest))
    )
    with pytest.raises(ConstructionError, match="negative"):
        verify_box(case)


# -- int64 magnitude guard ----------------------------------------------------


def test_box_beyond_int64_is_rejected():
    # at k-type coordinates 3e9 the int64 kernel wraps around (it returned
    # a negative squared norm for G), so such a box must be refused
    case = get_case("G")
    box = parse_box("a:3000000000..3000000001,b:3000000000..3000000001", case)
    with pytest.raises(ConstructionError, match="2\\^63"):
        verify_box(case, box)


@pytest.mark.parametrize("family", ["G", "SP4R"])
def test_largest_accepted_box_is_exact(family):
    # the guard admits a box only where the int64 scan is still exact: at
    # the largest accepted coordinates the report equals a Fraction recount
    case = get_case(family)
    top = largest_accepted(build_tables(case))
    assert top > 10**8
    if case.k_has_center:
        box = Box(((top - 2, top), (-top, -top + 2)))
    else:
        box = Box(((top - 2, top),) * 2)
    beyond = Box(tuple((lo, hi + 1) for lo, hi in box.ranges))
    with pytest.raises(ConstructionError):
        verify_box(case, beyond)
    rep = verify_box(case, box)
    beta = case.beta_ktype
    margins = {
        mu: step_margin_sq(case, mu)
        for mu in itertools.product(*(range(lo, hi + 1) for lo, hi in box.ranges))
        if ktype_is_dominant(case, mu)
        and ktype_is_dominant(case, tuple(m - b for m, b in zip(mu, beta)))
    }
    assert rep.filtered == len(margins) > 0
    assert rep.min_margin_sq == min(margins.values())
    assert list(rep.violations) == sorted(
        (mu, m) for mu, m in margins.items() if m <= 0
    )


def test_sp4r_families_closed_forms():
    # descending members reproduce the published quadratics; the ascending
    # middle value follows the recomputed closed form 2m^2-2m+5, matching
    # the descending family through the (p,q) -> (-q,-p) symmetry
    for m in range(5, 30):
        down = sp4r_family(m, "descending")
        assert down.good_sq == 2 * m * m - 14 * m + 25
        assert down.mid_sq == 2 * m * m - 10 * m + 17
        assert down.bad_sq == 2 * m * m - 6 * m + 5
        up = sp4r_family(m, "ascending")
        assert up.good_sq == 2 * m * m - 6 * m + 5
        assert up.mid_sq == 2 * m * m - 2 * m + 5
        assert up.bad_sq == 2 * m * m + 2 * m + 1
        assert up.good_sq < up.mid_sq < up.bad_sq
        assert down.good_sq < down.mid_sq < down.bad_sq
        assert up.mid_sq == sp4r_family(m + 2, "descending").mid_sq


def test_sp4r_family_argument_checks():
    with pytest.raises(UsageError):
        sp4r_family(3, "descending")
    with pytest.raises(UsageError):
        sp4r_family(5, "sideways")


def test_linear_term_lower_bounds_sampled(golden_data):
    # for each stored linear lower bound: the per-variant squared-norm
    # difference (an affine function of mu) stays above it for every
    # variant, on 1e5 random dominant points in the default box
    import math

    import numpy as np

    from liecheck.rootdata import inner, norm_sq

    rng = np.random.default_rng(7)
    for family, entry in golden_data["step_linear_lower"].items():
        case = get_case(family)
        box = default_box(case)
        coeffs = entry["coeffs"]
        offset = entry["offset"]
        pairs = [
            2 * inner(w, case.beta) for w in case.k_fund_weights
        ]
        consts = [
            -2 * inner(v, case.beta) - norm_sq(case.beta)
            for v in case.rho_n_variants
        ]
        scale = math.lcm(*(value.denominator for value in pairs + consts))
        coef_s = np.array([int(p * scale) for p in pairs], dtype=np.int64)
        worst_const = min(int(c * scale) for c in consts)
        bound_coef = np.array(coeffs, dtype=np.int64) * scale
        samples = np.stack(
            [
                rng.integers(lo, hi + 1, size=100_000)
                for lo, hi in box.ranges
            ],
            axis=1,
        )
        lhs = samples @ coef_s + worst_const
        rhs = samples @ bound_coef + offset * scale
        assert (lhs >= rhs).all(), family


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classical_split_odd_box_exhaustive(n):
    # exhaustive scan over [0, 4n]^n: strict margin growth throughout, and
    # the printed linear term 4(a_1 - n - 3/2) is positive wherever the
    # step stays dominant
    case = get_case("SL2n1R", n)
    box = Box(tuple((0, 4 * n) for _ in range(n)))
    rep = verify_box(case, box)
    assert rep.ok
    assert rep.min_margin_sq > 0
    from liecheck.cases import ktype_to_ambient

    beta = case.beta_ktype
    for mu in ((4 * n,) * n, (2 * n + 1,) + (0,) * (n - 1)):
        down = tuple(m - b for m, b in zip(mu, beta))
        if not ktype_is_dominant(case, down):
            continue
        ambient = ktype_to_ambient(case, mu)
        _, _, term_linear = decompose_step(case, mu, 0)
        assert term_linear == 4 * (ambient[0] - n - Q(3, 2))
        assert term_linear > 0
