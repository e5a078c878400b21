"""Pencil margins, bound tables, and the box verification engine."""

import itertools
import json
import sys
from fractions import Fraction as Q

import numpy as np
import pytest

from liecheck import fastscan
from liecheck.cases import CLASSICAL_FAMILIES, get_case, ktype_is_dominant
from liecheck.errors import ConstructionError, UsageError
from liecheck.fastscan import build_tables
from liecheck.pencil import (
    Box,
    coordinate_names,
    default_box,
    naive_bound,
    parabolic_bound,
    parse_box,
    pencil_member,
    sp4r_family,
    sp4r_min_m,
    step_margin_sq,
    verify_box,
)
from liecheck.spin import spin_norm_sq, variant_norms_sq
from liecheck.usmall import usmall_chunks, usmall_system

from conftest import largest_accepted
from oracle import decompose_step

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
    size = 1
    for lo, hi in box.ranges:
        size *= hi - lo + 1
    assert box.dim == 2 and size == 12

    def inside(coords):
        return all(lo <= c <= hi for c, (lo, hi) in zip(coords, box.ranges))

    assert inside((4, 2)) and not inside((4, 4))


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
    # the classical series have no published box: verify scans 0..2n + 2
    for family in CLASSICAL_FAMILIES:
        for n in (2, 3, 6):
            case = get_case(family, n)
            box = default_box(case)
            assert box.ranges == ((0, 2 * n + 2),) * case.ktype_dim


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
    assert no_shortcut.scanned == base.scanned
    assert no_shortcut.filtered == base.filtered
    assert no_shortcut.violations == base.violations
    assert no_shortcut.min_margin_sq == base.min_margin_sq


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


@pytest.fixture
def ckdir(tmp_path, monkeypatch):
    """tmp_path as LIECHECK_CHECKPOINT_DIR: every scan of the test writes
    its slice records there."""
    monkeypatch.setenv("LIECHECK_CHECKPOINT_DIR", str(tmp_path))
    return tmp_path


def test_checkpoint_resume_preserves_report(ckdir):
    case = get_case("FII")
    box = default_box(case)
    fresh = verify_box(case, box)
    first = verify_box(case, box)
    files = list(ckdir.glob("scan-*.json"))
    assert len(files) == 1
    # a file that lost some records, as after an interrupted run, is not
    # read back: the rerun scans every slice again
    state = json.loads(files[0].read_text())
    kept = dict(list(state["slices"].items())[:1])
    files[0].write_text(json.dumps({"slices": kept}))
    resumed = verify_box(case, box)
    for rep in (first, resumed):
        assert rep.scanned == fresh.scanned
        assert rep.filtered == fresh.filtered
        assert rep.violations == fresh.violations
        assert rep.min_margin_sq == fresh.min_margin_sq


def test_checkpoint_ignores_other_boxes(ckdir):
    case = get_case("G")
    verify_box(case, parse_box("a:3..6,b:1..3", case))
    rep = verify_box(case, parse_box("a:3..7,b:1..3", case))
    assert rep.scanned == 15
    assert len(list(ckdir.glob("scan-*.json"))) == 2


def _payload(rep):
    return (rep.scanned, rep.filtered, rep.violations, rep.min_margin_sq)


def _only_checkpoint(directory):
    (path,) = directory.glob("scan-*.json")
    return path


def _assert_damaged_record_is_rescanned(ckdir, damage):
    # FII's lowest slice record gets damage(record) on top of a bogus minimum
    def damage_lowest(state):
        damage(state["slices"][min(state["slices"], key=int)])
        return state

    _assert_damaged_file_is_rescanned(ckdir, damage_lowest)


def test_checkpoint_rejects_slice_of_wrong_size(ckdir):
    def damage(rec):
        rec["scanned"] -= 1

    _assert_damaged_record_is_rescanned(ckdir, damage)


def test_checkpoint_rejects_record_with_missing_field(ckdir):
    # not read with the missing field's default (no violations)
    _assert_damaged_record_is_rescanned(ckdir, lambda rec: rec.pop("violations"))


@pytest.mark.parametrize(
    "name, value",
    [
        ("violations", 5),
        ("violations", [5]),
        ("violations", [[[1, 2], "x"]]),
        ("violations", [[[1, 2.5], 3]]),
        ("min_scaled", "7"),
        ("min_scaled", 1.5),
        ("filtered", "3"),
        ("filtered", True),
    ],
)
def test_checkpoint_rejects_record_with_a_field_of_the_wrong_type(ckdir, name, value):
    # a record of the wrong type changes nothing: the rerun scans afresh
    def damage(rec):
        rec[name] = value

    _assert_damaged_record_is_rescanned(ckdir, damage)


def _assert_damaged_file_is_rescanned(ckdir, damage):
    # the checkpoint file of FII's default box is replaced by damage(state),
    # with every record's minimum made bogus first; records are never read
    # back, so a rerun into the same directory gives the payload of a fresh
    # scan and rewrites the file with fresh records
    case = get_case("FII")
    box = default_box(case)
    fresh = verify_box(case, box)
    verify_box(case, box)
    path = _only_checkpoint(ckdir)
    written = path.read_text()
    state = json.loads(written)
    for rec in state["slices"].values():
        rec["min_scaled"] = -10**6
    path.write_text(json.dumps(damage(state)))
    assert _payload(verify_box(case, box)) == _payload(fresh)
    assert path.read_text() == written


def test_checkpoint_records_are_never_read_back(ckdir):
    # an invented violation in every record does not reach the report
    def damage(state):
        for rec in state["slices"].values():
            rec["violations"].append([[0, 2, 0, 2], -10**6])
        return state

    _assert_damaged_file_is_rescanned(ckdir, damage)


def test_checkpoint_that_is_not_an_object_is_absent(ckdir):
    _assert_damaged_file_is_rescanned(ckdir, lambda state: [1, 2])


def test_checkpoint_slices_that_are_not_an_object_are_absent(ckdir):
    _assert_damaged_file_is_rescanned(
        ckdir, lambda state: {"slices": list(state["slices"].values())}
    )


def test_checkpoint_record_that_is_not_an_object_is_absent(ckdir):
    def damage(state):
        return {"slices": {key: [1, 2] for key in state["slices"]}}

    _assert_damaged_file_is_rescanned(ckdir, damage)


def test_checkpoint_record_with_a_non_integer_key_is_absent(ckdir):
    def damage(state):
        return {"slices": {f"{key}.0": rec for key, rec in state["slices"].items()}}

    _assert_damaged_file_is_rescanned(ckdir, damage)


def test_checkpoint_ignores_records_of_older_scan_format(ckdir):
    # slice records written before the box seed were keyed by case, ranges
    # and shortcut alone; a file under that key must not be read back
    import hashlib

    case = get_case("FII")
    box = default_box(case)
    fresh = verify_box(case, box)
    verify_box(case, box)
    path = _only_checkpoint(ckdir)
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
    (ckdir / f"scan-{case.id.family}-{digest}.json").write_text(json.dumps(state))
    assert _payload(verify_box(case, box)) == _payload(fresh)


def test_checkpoint_records_add_up_to_the_report(ckdir):
    # one record per value of the first walked coordinate, whose counts and
    # violations make up the report of a scan with violations
    from liecheck.fastscan import _Scanner

    case = get_case("SP4R")
    box = parse_box("p:-3..4,q:-4..3", case)
    rep = verify_box(case, box)
    assert rep.violations
    scanner = _Scanner(case, box.ranges, True)
    axis = scanner.perm[0]
    walked = range(int(scanner.lo[axis]), int(scanner.hi[axis]) + 1)
    slices = json.loads(_only_checkpoint(ckdir).read_text())["slices"]
    assert sorted(slices, key=int) == [str(v) for v in walked]
    assert sum(rec["scanned"] for rec in slices.values()) == rep.scanned
    assert sum(rec["filtered"] for rec in slices.values()) == rep.filtered
    scale = scanner.tables.scale
    recorded = sorted(
        (tuple(coords), Q(m, scale))
        for rec in slices.values()
        for coords, m in rec["violations"]
    )
    assert recorded == list(rep.violations)


@pytest.mark.parametrize("family", ["SP4R", "EII"])
def test_each_record_is_the_scan_of_its_slice(family, ckdir, monkeypatch):
    # a record covers one value of the first walked coordinate: its scanned
    # and filtered counts and its violations are those of a scan of that
    # slice alone (SP4R's box has violations, EII's seeded box none)
    case, box = _seeded_box(family)
    verify_box(case, box)
    records = json.loads(_only_checkpoint(ckdir).read_text())["slices"]
    monkeypatch.delenv("LIECHECK_CHECKPOINT_DIR")
    axis = fastscan._Scanner(case, box.ranges, True).perm[0]
    scale = build_tables(case).scale
    assert len(records) == box.ranges[axis][1] - box.ranges[axis][0] + 1
    assert any(rec["violations"] for rec in records.values()) == (family == "SP4R")
    for value, rec in records.items():
        ranges = list(box.ranges)
        ranges[axis] = (int(value), int(value))
        alone = verify_box(case, Box(tuple(ranges)))
        assert (rec["scanned"], rec["filtered"]) == (alone.scanned, alone.filtered)
        found = sorted((tuple(coords), Q(m, scale)) for coords, m in rec["violations"])
        assert found == list(alone.violations)


# Boxes from 0 to top in every coordinate, whose counts pass 2^63, and
# FI's counts as figures
HUGE_BOXES = {
    "FI": (100_000, (100004000060000400001, 100002000009999999459)),
    "EIV": (10_000_000, None),
}


@pytest.mark.parametrize("family", sorted(HUGE_BOXES))
def test_counts_stay_exact_past_int64(family):
    # scanned is the box size and filtered the dominant sub-box minus its
    # u-small points, as exact integers, on boxes from 0 to top in every
    # coordinate; the u-small points are counted here from usmall_chunks
    case = get_case(family)
    top, figures = HUGE_BOXES[family]
    dim = len(default_box(case).ranges)
    rep = verify_box(case, Box(((0, top),) * dim))
    base = np.maximum(build_tables(case).beta_coords, 0)
    small = sum(int((rows >= base).all(axis=1).sum()) for rows in usmall_chunks(case))
    dominant = 1
    for b in base.tolist():
        dominant *= top + 1 - b
    assert rep.scanned == (top + 1) ** dim
    assert rep.filtered == dominant - small > 2**63
    if figures is not None:
        assert (rep.scanned, rep.filtered) == figures


def _first_pass_only(monkeypatch):
    """Make every scan walk pass 1 ({cheap <= 0}) alone."""
    batches = fastscan._Scanner._batches
    monkeypatch.setattr(fastscan._Scanner, "_batches",
                        lambda self, band: iter(()) if band[0] == 0 else batches(self, band))


def test_checkpoint_records_hold_each_slice_final_result(tmp_path, monkeypatch):
    # the records are written once, after the scan: one record per slice
    # with its scanned and filtered counts and its violations, and no
    # minimum. EII's sub-box has its minimum in pass 2 only.
    writes = []
    save = fastscan._save_checkpoint

    def recorded(path, records):
        save(path, records)
        writes.append(json.loads(open(path, encoding="utf-8").read()))

    monkeypatch.setattr(fastscan, "_save_checkpoint", recorded)
    case, box = _seeded_box("EII")
    monkeypatch.setenv("LIECHECK_CHECKPOINT_DIR", str(tmp_path))
    rep = verify_box(case, box)
    monkeypatch.delenv("LIECHECK_CHECKPOINT_DIR")
    assert _payload(rep) == _payload(verify_box(case, box, shortcut=False))
    (w,) = writes
    assert set(w) == {"slices"}
    for rec in w["slices"].values():
        assert set(rec) == {"scanned", "filtered", "violations"}
    assert sum(rec["scanned"] for rec in w["slices"].values()) == rep.scanned
    assert sum(rec["filtered"] for rec in w["slices"].values()) == rep.filtered
    # pass 1 alone misses the minimum
    _first_pass_only(monkeypatch)
    assert verify_box(case, box).min_margin_sq > rep.min_margin_sq


# Boxes for the exactness of the cheap-bound prune. EI's minimum lies
# outside its lowest slice; the EII sub-box is walked along a, its default
# box along f, and its minimum lies in pass 2 only; the SP4R box has
# violations and an empty lowest slice. In the EVIII sub-box of its lowest
# published slice, the first slice with a point in pass 1 finds 52 there,
# far above the minimum (10).
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


def test_seeded_boxes_cover_the_hard_cases(monkeypatch):
    from liecheck.fastscan import _Scanner

    case, box = _seeded_box("EI")
    axis = _Scanner(case, box.ranges, True).perm[0]
    lowest = list(box.ranges)
    lowest[axis] = (box.ranges[axis][0],) * 2
    box_min = verify_box(case, box).min_margin_sq
    assert verify_box(case, Box(tuple(lowest))).min_margin_sq > box_min

    eii, eviii = _seeded_box("EII"), _seeded_box("EVIII")
    eii_min, eviii_min = (verify_box(*seeded).min_margin_sq for seeded in (eii, eviii))
    _first_pass_only(monkeypatch)  # scans walk pass 1 alone from here on
    case, box = eii
    scanner = _Scanner(case, box.ranges, True)
    assert scanner.perm[0] != _Scanner(case, default_box(case).ranges, True).perm[0]
    scanner.scan()
    first_min = Q(scanner.best, scanner.tables.scale)
    assert first_min > eii_min

    case, box = eviii
    axis = _Scanner(case, box.ranges, True).perm[0]

    def one_slice(v):
        ranges = list(box.ranges)
        ranges[axis] = (v, v)
        return Box(tuple(ranges))

    lo, hi = box.ranges[axis]
    first = next(
        m for v in range(lo, hi + 1)
        if (m := verify_box(case, one_slice(v)).min_margin_sq) is not None
    )
    assert first - eviii_min > 40


@pytest.mark.parametrize("family", sorted(SEEDED_BOXES))
def test_seeded_prune_is_exact(family):
    case, box = _seeded_box(family)
    exhaustive = verify_box(case, box, shortcut=False)
    assert _payload(verify_box(case, box)) == _payload(exhaustive)


@pytest.mark.parametrize("family", sorted(SEEDED_BOXES))
def test_seeded_prune_resume_is_exact(family, ckdir):
    # a rerun over a file holding every other record scans the whole box
    # afresh
    case, box = _seeded_box(family)
    fresh = verify_box(case, box)
    verify_box(case, box)
    path = _only_checkpoint(ckdir)
    state = json.loads(path.read_text())
    kept = dict(sorted(state["slices"].items(), key=lambda kv: int(kv[0]))[1::2])
    path.write_text(json.dumps({"slices": kept}))
    resumed = verify_box(case, box)
    assert _payload(resumed) == _payload(fresh)


def test_serial_scan_prunes_at_the_box_minimum_once_found(monkeypatch):
    # a serial scan carries its running minimum from slice to slice: once a
    # batch has reached the box minimum, no later batch holds a point whose
    # cheap bound lies above max(0, minimum)
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
    # --no-shortcut sends every filtered point to the kernel exactly once;
    # the shortcut sends fewer, for k with center (SP4R) too
    rows = []
    kernel = fastscan.bulk_margins_scaled

    def counted(tables, coords):
        rows.append(len(coords))
        return kernel(tables, coords)

    monkeypatch.setattr(fastscan, "bulk_margins_scaled", counted)
    for family in ("EI", "SP4R"):
        case, box = _seeded_box(family)
        rows.clear()
        full = verify_box(case, box, shortcut=False)
        assert sum(rows) == full.filtered
        rows.clear()
        verify_box(case, box)
        assert sum(rows) < full.filtered


# -- the walk over boxes of u-large points ------------------------------------

# Sub-boxes of the last slices of the long EVIII and EIX boxes: every point
# is u-large with mu - beta dominant, and the cheap bound leaves out most of
# them. EVIII's minimum is found in pass 1; EIX has no point in pass 1, so
# the first point of pass 2 goes to the kernel alone.
LARGE_BOXES = {
    "EVIII": "a:42..42,b:0..1,c:0..1,d:0..1,e:0..1,f:0..15,g:1..16,h:0..15",
    "EIX": "a:0..1,b:1..2,c:0..3,d:0..11,e:0..3,f:0..1,g:1..12,h:55..55",
}


def _box_points(case, box):
    """The lattice points of the box, which of them are dominant with
    mu - beta dominant, and which are u-small, by direct test of each
    point. The filtered points are the dominant ones that are not
    u-small."""
    axes = [np.arange(lo, hi + 1) for lo, hi in box.ranges]
    points = np.stack(
        [g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1
    )
    system = usmall_system(case)
    coeffs = np.array([list(c) for c, _ in system.rows])
    bounds = np.array([b for _, b in system.rows])
    stepped = points - build_tables(case).beta_coords
    dominant = np.array([
        ktype_is_dominant(case, mu) and ktype_is_dominant(case, down)
        for mu, down in zip(points.tolist(), stepped.tolist())
    ], dtype=bool)
    small = (points @ coeffs.T <= bounds).all(axis=1)
    return points, dominant, small


def _large_box_points(family):
    """The box, its lattice points, and which of them are filtered."""
    case = get_case(family)
    box = parse_box(LARGE_BOXES[family], case)
    points, dominant, small = _box_points(case, box)
    return case, box, points, dominant & ~small


@pytest.mark.parametrize("family", sorted(LARGE_BOXES))
def test_large_block_walk_counts_and_payload(family):
    case, box, points, filtered = _large_box_points(family)
    rep = verify_box(case, box)
    assert filtered.all()
    assert rep.scanned == len(points)
    assert rep.filtered == int(filtered.sum())
    assert _payload(verify_box(case, box, shortcut=False)) == _payload(rep)


def _subtree(points, corner, axes, band):
    """The points of a box walk's subtree under the frontier row whose
    simplex has corner and free axes, in a band (above, upto] of the cheap
    bound cheap(points): by brute force, the points that agree with corner
    off axes, lie at or above it on axes, and are in the band."""
    cheap, above, upto = band
    fixed = np.setdiff1d(np.arange(points.shape[1]), axes)
    under = (points[:, fixed] == corner[fixed]).all(axis=1)
    under &= (points[:, axes] >= corner[axes]).all(axis=1)
    if above is not None:
        under &= cheap > above
    if upto is not None:
        under &= cheap <= upto
    return points[under]


@pytest.mark.parametrize("family", sorted(LARGE_BOXES))
def test_large_block_walk_evaluates_points_under_the_minimum(family, monkeypatch):
    # The walk visits each point at most once, over every pass, and every
    # filtered point whose cheap bound is at most the minimum either
    # reaches the row screen or lies under a frontier row (at the last
    # level, a run) that the simplex screen rejected: its vertex bound
    # exceeded max(0, running minimum) and is at most the exact margin of
    # each of its points. A row's subtree holds its points with cheap bound
    # at most that cutoff, to which the walk lowers the row's cheap slack.
    # Until a margin is known every walked point reaches the kernel; after
    # that, exactly the walked points whose cheap bound and margin lower
    # bound are at most max(0, running minimum).
    case, box, points, filtered = _large_box_points(family)
    events = []
    bound = fastscan.margin_lower_bounds
    simplex_bound = fastscan.simplex_lower_bounds
    kernel = fastscan.bulk_margins_scaled
    batches = fastscan._Scanner._batches
    band = []

    def banded(self, bounds):
        band[:] = bounds
        return batches(self, bounds)

    def bounded(tables, coords):
        events.append(("screen", coords.copy()))
        return bound(tables, coords)

    def simplex_bounded(tables, corner, axes, reach):
        bounds = simplex_bound(tables, corner, axes, reach)
        events.append(("simplex", corner.copy(), np.array(axes), reach.copy(), bounds,
                       tuple(band)))
        return bounds

    def recorded(tables, coords):
        margins = kernel(tables, coords)
        events.append(("kernel", coords.copy(), margins))
        return margins

    monkeypatch.setattr(fastscan._Scanner, "_batches", banded)
    monkeypatch.setattr(fastscan, "margin_lower_bounds", bounded)
    monkeypatch.setattr(fastscan, "simplex_lower_bounds", simplex_bounded)
    monkeypatch.setattr(fastscan, "bulk_margins_scaled", recorded)
    rep = verify_box(case, box)
    tables = build_tables(case)
    scaled = rep.min_margin_sq * tables.scale
    assert scaled.denominator == 1 and scaled > 0
    minimum = int(scaled)
    cheap = points @ tables.cheap_coef_s - tables.cheap_const_s
    assert (filtered & (cheap > minimum)).any()
    assert (filtered & (cheap == minimum)).any()

    best, walked, kept, subtrees = None, [], 0, []
    for i, (kind, coords, *rest) in enumerate(events):
        if kind == "simplex":
            axes, reach, bounds, (above, upto) = rest
            assert best is not None
            for corner, r, b in zip(coords, reach, bounds.tolist()):
                if b <= max(0, best):
                    continue
                top = min(upto, max(0, best))
                sub = _subtree(points[filtered], corner, axes, (cheap[filtered], above, top))
                # every point of the subtree lies in the row's simplex
                y = sub[:, axes] - corner[axes]
                scale = int(np.lcm.reduce(np.maximum(r, 1)))
                assert (y[:, r == 0] == 0).all()
                assert ((y * (scale // np.maximum(r, 1))).sum(axis=1) <= scale).all()
                if len(sub):
                    assert (b <= kernel(tables, sub)).all()
                    subtrees.append(sub)
            continue
        if kind == "screen":
            walked.append(coords)
            cutoff = max(0, best)
            assert (coords @ tables.cheap_coef_s - tables.cheap_const_s <= cutoff).all()
            expected = coords[bound(tables, coords) <= cutoff]
            if len(expected):
                assert events[i + 1][0] == "kernel"
                assert np.array_equal(events[i + 1][1], expected)
            continue
        if i == 0 or events[i - 1][0] != "screen":
            assert best is None
            walked.append(coords)
        kept += len(coords)
        low = int(rest[0].min())
        best = low if best is None else min(best, low)
    assert subtrees
    walked = np.concatenate(walked)
    seen = [tuple(p) for p in np.concatenate([walked, *subtrees]).tolist()]
    assert len(set(seen)) == len(seen)
    needed = {tuple(p) for p in points[filtered & (cheap <= minimum)].tolist()}
    assert needed <= set(seen)
    assert kept < len(walked)


def test_walk_screen_spares_the_row_screen_on_the_last_eviii_slice(monkeypatch):
    # With every walked point screened row by row, the row screen saw
    # 633,131 points of the last EVIII slice, all in pass 2, and rejected
    # every one; the walk's simplex screen, which also takes each run at
    # the last level, leaves it fewer than a quarter of them.
    case = get_case("EVIII")
    box = parse_box(
        "a:42..42,b:0..15,c:0..15,d:0..15,e:0..15,f:0..15,g:1..16,h:0..15", case
    )
    seen = []
    bound = fastscan.margin_lower_bounds

    def counted(tables, coords):
        seen.append(len(coords))
        return bound(tables, coords)

    monkeypatch.setattr(fastscan, "margin_lower_bounds", counted)
    rep = verify_box(case, box)
    assert rep.min_margin_sq == 56 and not rep.violations
    assert 0 < sum(seen) < 633_131 // 4


def test_screen_products_stay_under_the_chunk_size_on_the_last_eviii_slice(monkeypatch):
    # every float64 product of a verify of the last EVIII slice (kernel,
    # row screen, simplex screen with up to nine vertices per row) has at
    # most _CHUNK_ROWS rows, the size up to which OpenBLAS runs EVIII's
    # 9 x 135 table on one thread and the size of the workspace it writes to
    case = get_case("EVIII")
    box = parse_box(
        "a:42..42,b:0..15,c:0..15,d:0..15,e:0..15,f:0..15,g:1..16,h:0..15", case
    )
    rows = []
    product = fastscan._product

    def recorded(m, table, out=None):
        rows.append(len(m))
        return product(m, table, out)

    monkeypatch.setattr(fastscan, "_product", recorded)
    rep = verify_box(case, box)
    assert rep.min_margin_sq == 56 and not rep.violations
    assert rows and max(rows) <= fastscan._CHUNK_ROWS


# the four engine calls, each on fresh tables, so with a fresh workspace
_FRESH_CALLS = """
import dataclasses, json, sys
import numpy as np
from liecheck import fastscan
from liecheck.cases import get_case

out = []
for family, coords, axes, reach in json.load(sys.stdin):
    tables = fastscan.build_tables(dataclasses.replace(get_case(family)))
    coords = np.array(coords, dtype=np.int64)
    out.append([
        fastscan.bulk_spin_sq_scaled(tables, coords).tolist(),
        fastscan.bulk_margins_scaled(tables, coords).tolist(),
        fastscan.margin_lower_bounds(tables, coords).tolist(),
        fastscan.simplex_lower_bounds(
            tables, coords, axes, np.array(reach, dtype=np.int64)
        ).tolist(),
    ])
json.dump(out, sys.stdout)
"""


def test_workspace_never_leaks_into_a_result():
    # every chunk writes its float64 tables into one workspace per case; no
    # result shares memory with it, and calls interleaved over two cases
    # and over 1, _CHUNK_ROWS and 2 _CHUNK_ROWS + 3 rows each equal the
    # same call made in a fresh process
    import os
    import subprocess
    from pathlib import Path

    import liecheck

    rng = np.random.default_rng(20261020)
    chunk = fastscan._CHUNK_ROWS
    calls = []
    for family in ("EVIII", "EIX", "EVIII"):
        beta = np.array(get_case(family).beta_ktype, dtype=np.int64)
        for rows in (1, chunk, 2 * chunk + 3):
            coords = beta + rng.integers(0, 12, size=(rows, len(beta)))
            axes = sorted(rng.choice(len(beta), size=3, replace=False).tolist())
            reach = rng.integers(0, 6, size=(rows, len(axes)))
            calls.append((family, coords, axes, reach))
    workspaces = [vars(build_tables(get_case(f)).workspace).values() for f in ("EVIII", "EIX")]
    got = []
    for family, coords, axes, reach in calls:
        tables = build_tables(get_case(family))
        results = [
            fastscan.bulk_spin_sq_scaled(tables, coords),
            fastscan.bulk_margins_scaled(tables, coords),
            fastscan.margin_lower_bounds(tables, coords),
            fastscan.simplex_lower_bounds(tables, coords, axes, reach),
        ]
        for result in results:
            assert result.shape == (len(coords),) and result.dtype == np.int64
            for buffers in workspaces:
                assert not any(np.shares_memory(result, b) for b in buffers)
        got.append([r.tolist() for r in results])
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(liecheck.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_CALLS], env=env, capture_output=True, text=True,
        input=json.dumps([(f, c.tolist(), a, r.tolist()) for f, c, a, r in calls]),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == got


def test_warm_scan_of_the_last_eix_slice_takes_few_page_faults():
    # the chunks write their tables into the case's workspace instead of
    # allocating them: per 512-row chunk those were tables of 492 and 262 kB
    # on EIX, above glibc's mmap threshold, so each was mapped and faulted
    # in afresh, about 6,500 minor faults for a warm scan of this slice in
    # a fresh process and 3,200 inside this suite
    resource = pytest.importorskip("resource")
    if not sys.platform.startswith("linux"):
        pytest.skip("minor page faults are counted on Linux")
    case = get_case("EIX")
    box = parse_box("a:0..11,b:0..11,c:0..9,d:0..9,e:0..9,f:0..11,g:1..12,h:55..55", case)
    verify_box(case, box)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    rep = verify_box(case, box)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert rep.min_margin_sq == 56 and not rep.violations
    assert faults < 1000


def test_walk_refuses_negative_coefficients_for_semisimple_k(monkeypatch):
    # the lattice walk needs every u-small coefficient >= 0
    from dataclasses import replace

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


def test_pass_beyond_the_reach_guard_keeps_only_the_slack_screen(monkeypatch):
    # on G's largest accepted box pass 1 is empty and the vertices of pass
    # 2's simplices reach past the largest coordinate magnitude_bound
    # accepts: pass 2 is walked, not refused, with a screen that lowers the
    # cheap slack to the cutoff and computes no simplex bound, and the
    # report is that of the scan without the shortcut
    case = get_case("G")
    top = largest_accepted(build_tables(case))
    box = Box(((top - 2, top),) * 2)
    walk, simplex_bound = fastscan._walk, fastscan.simplex_lower_bounds
    screened, simplices = [], []

    def recorded(coeffs, bounds, drops=(), screen=None):
        if drops:  # a pass's walk, not the count of filtered points
            screened.append(screen is not None)
        return walk(coeffs, bounds, drops, screen)

    def counted(tables, corner, axes, reach):
        simplices.append(len(corner))
        return simplex_bound(tables, corner, axes, reach)

    monkeypatch.setattr(fastscan, "_walk", recorded)
    monkeypatch.setattr(fastscan, "simplex_lower_bounds", counted)
    rep = verify_box(case, box)
    assert screened == [True] and simplices == []
    assert rep.filtered == 9 and rep.min_margin_sq > 0
    assert _payload(verify_box(case, box, shortcut=False)) == _payload(rep)


def test_scan_without_pass_1_points_walks_pass_2_once(monkeypatch):
    # the a = 0 slice of the last EIX slice has no point in pass 1: pass 2
    # is walked once, not in bands, and its first point goes to the kernel
    # alone, so that its margin screens the rest
    case = get_case("EIX")
    box = parse_box("a:0..0,b:0..11,c:0..9,d:0..9,e:0..9,f:0..11,g:1..12,h:55..55", case)
    walk, kernel = fastscan._walk, fastscan.bulk_margins_scaled
    walks, calls = [], []

    def recorded(coeffs, bounds, drops=(), screen=None):
        if drops:  # a pass's walk, not the count of filtered points
            walks.append(screen is not None)
        return walk(coeffs, bounds, drops, screen)

    def counted(tables, coords):
        calls.append(len(coords))
        return kernel(tables, coords)

    monkeypatch.setattr(fastscan, "_walk", recorded)
    monkeypatch.setattr(fastscan, "bulk_margins_scaled", counted)
    rep = verify_box(case, box)
    assert walks == [True, True]
    assert calls[0] == 1
    assert rep.min_margin_sq == 56
    assert _payload(verify_box(case, box, shortcut=False)) == _payload(rep)


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


def test_sp4r_min_m_is_the_published_one(golden_data):
    # the first unitarily large member index, derived from the u-small
    # k-types, is golden's min_m; the member before it is u-small
    case = get_case("SP4R")
    small = set(map(tuple, np.concatenate(list(usmall_chunks(case))).tolist()))
    for direction, rec in golden_data["sp4r_pencils"].items():
        min_m = sp4r_min_m(direction)
        assert min_m == rec["min_m"], direction
        before = tuple(s + (min_m - 1) * d for s, d in zip(rec["start"], rec["direction"]))
        assert before in small
        assert sp4r_family(min_m, direction).member not in small


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


# -- the simplex walk against the exhaustive scan --------------------------


def _walker_boxes(family):
    """Three small boxes of the family, each from a u-small point up, so
    that each mixes u-small points, points with mu - beta not dominant,
    and filtered points."""
    case = get_case(family, 3 if family in ("SL2nR", "SL2n1R", "SLnH") else None)
    if case.k_has_center:
        specs = ("p:-8..9,q:-9..2", "p:-3..4,q:-4..3", "p:2..12,q:-5..5")
        return case, [parse_box(spec, case) for spec in specs]
    small = np.concatenate(list(usmall_chunks(case)))
    rng = np.random.default_rng(sum(map(ord, family)))
    width = 3 if case.ktype_dim > 6 else 5
    boxes = []
    for lo in small[rng.integers(0, len(small), size=3)].tolist():
        boxes.append(Box(tuple((x, x + int(rng.integers(1, width))) for x in lo)))
    return case, boxes


WALKER_FAMILIES = (
    "G", "FII", "EIV", "EI", "FI", "EII", "EV", "EVI", "EVIII", "EIX",
    "SP4R", "SL2nR", "SL2n1R", "SLnH",
)


def _brute_force_payload(case, box):
    """The payload of a scan of the box from every lattice point: a direct
    test of each point, and the margin kernel on every filtered one. It
    shares no walk, count or screen with the scan."""
    points, dominant, small = _box_points(case, box)
    tables = build_tables(case)
    picked = points[dominant & ~small]
    margins = fastscan.bulk_margins_scaled(tables, picked).tolist()
    violations = sorted(
        (tuple(mu), Q(m, tables.scale))
        for mu, m in zip(picked.tolist(), margins) if m <= 0
    )
    low = Q(min(margins), tables.scale) if margins else None
    return len(points), len(picked), tuple(violations), low


@pytest.mark.parametrize("family", WALKER_FAMILIES)
def test_simplex_walk_matches_the_exhaustive_scan(family):
    # scanned, filtered, minimum and violations of the two-pass walk equal
    # those of a brute force over every lattice point, and of --no-shortcut
    case, boxes = _walker_boxes(family)
    reports = [verify_box(case, box) for box in boxes]
    for box, rep in zip(boxes, reports):
        assert _payload(rep) == _brute_force_payload(case, box)
        assert _payload(verify_box(case, box, shortcut=False)) == _payload(rep)
    # some box has u-small points with mu - beta dominant, which the walk drops
    assert any(
        (dom & small).any() for _, dom, small in (_box_points(case, b) for b in boxes)
    )
    assert all(rep.filtered < rep.scanned for rep in reports)
    assert any(rep.filtered for rep in reports)
    if case.k_has_center:
        assert all(rep.violations for rep in reports[:2])


# -- walk order and the float64 product ----------------------------------------

# Boxes walked in three orders of the coordinates after the slice
# coordinate. None stands for the family's default box; the EVI box is the
# first slice of the published one.
WALK_ORDER_BOXES = {
    "default": ("EI", None),
    "one-value middle": ("EII", "a:0..6,b:0..3,c:2..2,d:0..3,e:0..5,f:1..9"),
    "EVI g:1..1": ("EVI", "a:0..22,b:0..7,c:0..7,d:0..7,e:0..7,f:1..8,g:1..1"),
    "custom lower bounds": ("FI", "a:2..8,b:1..7,c:2..5,d:3..13"),
    "SP4R violations": ("SP4R", "p:-3..4,q:-4..3"),
}


def _walk_in_order(monkeypatch, order):
    """Make every _Scanner walk the coordinates after its slice coordinate
    shortest edge first (the scan's own order), longest edge first, or in
    the reverse of its own order."""
    init = fastscan._Scanner.__init__

    def patched(self, *args, **kwargs):
        init(self, *args, **kwargs)
        edge = (self.hi - self.lo).tolist()
        tail = self.perm[1:]
        assert tail == sorted(tail, key=lambda k: (edge[k], k))
        if order == "longest first":
            tail = sorted(tail, key=lambda k: (-edge[k], k))
        elif order == "reverse":
            tail = tail[::-1]
        self.perm = self.perm[:1] + tail

    monkeypatch.setattr(fastscan._Scanner, "__init__", patched)


@pytest.mark.parametrize("name", sorted(WALK_ORDER_BOXES))
def test_walk_order_does_not_change_the_report(name, monkeypatch):
    # the order of the walked coordinates changes which points are screened
    # and evaluated, never the payload: on every order it equals a brute
    # force over the box, or for the large EVI slice the --no-shortcut scan
    family, spec = WALK_ORDER_BOXES[name]
    case = get_case(family)
    box = default_box(case) if spec is None else parse_box(spec, case)
    if family == "EVI":
        expected = _payload(verify_box(case, box, shortcut=False))
    else:
        expected = _brute_force_payload(case, box)
    assert expected[1] > 0
    for order in ("shortest first", "longest first", "reverse"):
        with monkeypatch.context() as patch:
            _walk_in_order(patch, order)
            assert _payload(verify_box(case, box)) == expected, order
            if family != "EVI":
                assert _payload(verify_box(case, box, shortcut=False)) == expected, order


@pytest.mark.parametrize("family", WALKER_FAMILIES)
def test_float_product_is_exact_at_the_largest_accepted_coordinate(family):
    # _product returns the float64 matrix product; at the largest coordinate
    # magnitude_bound accepts it still equals the exact integer product, for
    # the screen's linear table and the root table, on a row count that is
    # not a multiple of _CHUNK_ROWS. So do the values of _value and
    # _down_value, whose root sums are taken in float64, chunk by chunk
    case = get_case(family, 2 if family in ("SL2nR", "SL2n1R", "SLnH") else None)
    tables = build_tables(case)
    top = largest_accepted(tables)
    rng = np.random.default_rng(sum(map(ord, family)))
    rows = 2 * fastscan._CHUNK_ROWS + 3
    mu = rng.integers(-top, top + 1, size=(rows, len(tables.beta_coords)))
    mu[0], mu[1] = top, -top  # corners, where the entries are largest
    const = tables.variant_nrm_s - 2 * tables.rho_c_var_s
    lin_const = np.vstack([-2 * tables.variant_s.T, const])
    for m, table in (
        (np.column_stack([mu, np.ones(rows, np.int64)]), lin_const),
        (mu - tables.beta_coords, tables.root_s),
    ):
        got = fastscan._product(m, table)
        exact = m.astype(object) @ table.astype(object)
        assert got.dtype == np.float64 and got.shape == exact.shape
        assert (got.astype(object) == exact).all()
        assert max(abs(x) for x in exact.flat) > 2**20

    def values(m, variants):  # per row, its variant's value less the row constant
        m = m.astype(object)
        lin = -2 * (m * tables.variant_s[variants].astype(object)).sum(axis=1)
        terms = m @ tables.root_s.astype(object) - tables.root_var_s[variants].astype(object)
        return lin + tables.variant_nrm_s[variants].astype(object) + abs(terms).sum(axis=1)

    beta = tables.beta_coords
    linear = (mu.astype(object) @ tables.cheap_coef_s.astype(object)
              - int(beta @ tables.gram_s @ beta))
    for start in range(0, rows, fastscan._CHUNK_ROWS):
        m = mu[start:start + fastscan._CHUNK_ROWS]
        n = len(m)
        variants = rng.integers(0, len(tables.shift), size=n)
        picked = rng.integers(0, n, size=n)
        table = fastscan._table(tables, m)
        root_pair = fastscan._product(m, tables.root_s)
        got = fastscan._value(tables, table, root_pair, None, variants)
        assert got.tolist() == values(m, variants).tolist()
        got = fastscan._value(tables, table, root_pair, picked, variants)
        assert got.tolist() == values(m[picked], variants).tolist()
        down = fastscan._table(tables, m - beta)
        got = fastscan._down_value(tables, m, variants, down)
        want = values(m - beta, variants) - linear[start:start + n]
        assert got.tolist() == want.tolist()
        assert max(abs(x) for x in want) > 2**20
