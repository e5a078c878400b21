"""Spin-norm growth along beta-translation chains of k-types.

The central quantity is the step margin

    margin(mu) = |mu|^2_spin - |mu - beta|^2_spin,

defined whenever mu and mu - beta are both dominant. A chain
mu, mu + beta, mu + 2beta, ... has strictly growing spin norm exactly
when every step margin along it is positive, and verify_box certifies
positivity for every unitarily large k-type inside a coordinate box.

Margins split, one rho_n variant at a time, into a conjugation term
(termI), which parabolic_bound and naive_bound bound from below, plus an
exact linear term (termII); the fastscan docstring derives the scan's
cheap bound from that split.
"""

from __future__ import annotations

import math
import re
import string
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cache

import numpy as np

from .cases import (
    CaseData,
    _normalize_ktype,
    get_case,
    ktype_is_dominant,
)
from .data import golden
from .errors import UsageError
from .fastscan import scan_box
from .rootdata import inner, vadd, vneg, vscale, vsub
from .spin import spin_norm_sq
from .usmall import usmall_chunks
from .weyl import to_dominant

_LETTERS = string.ascii_lowercase
# A box of k with center is listed whole before it is filtered
# (fastscan._Scanner._grid), at about 77 bytes per point at the peak, so
# this many points take about 1.3 GB.
_GRID_LIMIT = 2**24


def coordinate_names(case: CaseData) -> tuple[str, ...]:
    """a, b, c, ... for the k-type coordinates, or p, q for k with center;
    a rank beyond the alphabet is refused."""
    if case.k_has_center:
        return ("p", "q")
    if case.rank_k > len(_LETTERS):
        raise UsageError(
            f"{case.id.label} has {case.rank_k} k-type coordinates; they are "
            f"named a..z, so at most {len(_LETTERS)}"
        )
    return tuple(_LETTERS[: case.rank_k])


@dataclass(frozen=True)
class Box:
    """Inclusive per-coordinate ranges of k-type coordinates."""

    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for lo, hi in self.ranges:
            if lo > hi:
                raise UsageError(f"empty range {lo}..{hi} in box")

    @property
    def dim(self) -> int:
        return len(self.ranges)

    def render(self, names) -> str:
        return ",".join(
            f"{name}:{lo}..{hi}" for name, (lo, hi) in zip(names, self.ranges)
        )


_RANGE_RE = re.compile(r"^([A-Za-z]\w*):(-?\d+)\.\.(-?\d+)$")


def parse_box(text: str, case: CaseData) -> Box:
    """Parse 'a:0..12,b:0..7' style text against the case's coordinates."""
    names = coordinate_names(case)
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if len(parts) != len(names):
        raise UsageError(
            f"{case.id.label} needs ranges for {','.join(names)}, got {text!r}"
        )
    ranges = []
    for part, name in zip(parts, names):
        m = _RANGE_RE.match(part)
        if not m:
            raise UsageError(f"cannot parse range {part!r} (want name:lo..hi)")
        if m.group(1) != name:
            raise UsageError(f"expected coordinate {name!r}, got {m.group(1)!r}")
        ranges.append((int(m.group(2)), int(m.group(3))))
    box = Box(tuple(ranges))
    _validate_box(case, box)
    return box


def _validate_box(case: CaseData, box: Box) -> None:
    names = coordinate_names(case)
    if box.dim != len(names):
        raise UsageError(
            f"{case.id.label} boxes have {len(names)} coordinates, got {box.dim}"
        )
    if case.k_has_center:
        points = math.prod(hi - lo + 1 for lo, hi in box.ranges)
        if points > _GRID_LIMIT:
            raise UsageError(
                f"{case.id.label} boxes are scanned point by point; "
                f"{box.render(names)} has {points} points, more than the "
                f"limit of 2^24 = {_GRID_LIMIT}"
            )
    else:
        for name, (lo, _) in zip(names, box.ranges):
            if lo < 0:
                raise UsageError(
                    f"coordinate {name} starts at {lo}; k-type coordinates "
                    f"of {case.id.label} are nonnegative"
                )


def default_box(case: CaseData) -> Box:
    """The scan box for the case: published ranges for the fixed families,
    and 0..2n + 2 in every coordinate for the classical series (a sanity
    range, not a published scan)."""
    boxes = golden()["boxes"]
    if case.id.family in boxes:
        return Box(tuple(tuple(r) for r in boxes[case.id.family]))
    if case.k_has_center:
        raise UsageError(
            "SP4R has no default box; pass one explicitly or use the "
            "closed-form families"
        )
    n = case.id.n
    return Box(tuple((0, 2 * n + 2) for _ in range(case.rank_k)))


@dataclass(frozen=True)
class PencilReport:
    case: str
    box: Box
    scanned: int
    filtered: int
    violations: tuple  # ((coords, margin), ...) sorted by coordinates
    min_margin_sq: Q | None
    elapsed_ms: int

    @property
    def ok(self) -> bool:
        return not self.violations


def pencil_member(case: CaseData, mu, steps: int) -> tuple:
    """The k-type mu + steps * beta, in k-type coordinates.

    Raises UsageError when the result leaves the dominant cone, naming the
    first offending coordinate.
    """
    coords = _normalize_ktype(case, mu)
    if not ktype_is_dominant(case, coords):
        raise UsageError(f"{case.id.label} k-type {coords} is not dominant")
    beta = case.beta_ktype
    member = tuple(c + steps * b for c, b in zip(coords, beta))
    names = coordinate_names(case)
    if case.k_has_center:
        if member[0] < member[1]:
            raise UsageError(
                f"member {member} has p < q, outside the dominant cone"
            )
    else:
        for name, value in zip(names, member):
            if value < 0:
                raise UsageError(
                    f"coordinate {name} of member {member} is negative"
                )
    return member


def step_margin_sq(case: CaseData, mu) -> Q:
    """spin norm squared of mu minus that of mu - beta (both dominant)."""
    coords = _normalize_ktype(case, mu)
    try:
        stepped = pencil_member(case, coords, -1)
    except UsageError as exc:
        raise UsageError(f"step down from {coords} is undefined: {exc}") from exc
    return spin_norm_sq(case, coords) - spin_norm_sq(case, stepped)


def parabolic_bound(case: CaseData, k: int) -> Q:
    """Lower bound 2 <rho_c, w0k(beta)> for the conjugation term, where w0k
    is the longest element of the parabolic omitting the k-th k-simple root
    (1-based).

    w0k(beta) = -dom'(-beta), dom' the conjugation into the parabolic's
    dominant chamber (to_dominant on its letters). Proof: w0k maps that
    chamber onto its negative, and beta, being k-dominant, lies in it, so
    both sides are the one point of the parabolic orbit of beta in the
    negative chamber."""
    if not 1 <= k <= case.rank_k:
        raise UsageError(f"parabolic index {k} out of range 1..{case.rank_k}")
    kept = tuple(i for i in range(case.rank_k) if i != k - 1)
    dom, _ = to_dominant(vneg(case.beta), case.k_system, letters=kept)
    return 2 * inner(case.rho_c, vneg(dom))


def naive_bound(case: CaseData) -> Q:
    """Lower bound -2 <rho_c, beta> for the conjugation term, with no
    parabolic information."""
    return -2 * inner(case.rho_c, case.beta)


def verify_box(
    case: CaseData,
    box: Box | None = None,
    *,
    shortcut: bool = True,
    log=None,
) -> PencilReport:
    """Check every unitarily large k-type mu in the box with mu - beta
    dominant for a positive step margin.

    scanned counts all lattice points of the box, filtered the ones meeting
    the dominance and largeness filter. Violations (margin <= 0) come back
    sorted by coordinates with their exact margins; min_margin_sq is the
    exact minimum margin over all filtered points, so the report does not
    depend on shortcut. With the LIECHECK_CHECKPOINT_DIR variable set, one
    record per value of the first walked coordinate (the longest edge) is
    written to that directory once, after the scan: the points at that
    value scanned and filtered, and the violations among them, with no
    minimum. Records are never read back.
    """
    if box is None:
        box = default_box(case)
    _validate_box(case, box)
    raw = scan_box(case, box.ranges, shortcut=shortcut, log=log)
    return PencilReport(
        case=case.id.label,
        box=box,
        scanned=raw["scanned"],
        filtered=raw["filtered"],
        violations=tuple(raw["violations"]),
        min_margin_sq=raw["min_margin_sq"],
        elapsed_ms=raw["elapsed_ms"],
    )


@dataclass(frozen=True)
class Sp4rFamilyPoint:
    """One member of an SP4R closed-form family with its two comparison
    steps: good is the member stepped down by the highest weight aligned
    with the family direction (strictly smaller norm for valid m), bad the
    step down by the other highest weight (strictly larger norm)."""

    member: tuple[int, int]
    good_member: tuple[int, int]
    bad_member: tuple[int, int]
    good_sq: Q
    mid_sq: Q
    bad_sq: Q


@cache
def sp4r_min_m(direction: str) -> int:
    """The first unitarily large member index of an SP4R family: one more
    than the largest m whose member start + m * direction is u-small."""
    rec = golden()["sp4r_pencils"][direction]
    start, step = np.array(rec["start"]), np.array(rec["direction"])
    offset = np.concatenate(list(usmall_chunks(get_case("SP4R")))) - start
    m = offset @ step // (step @ step)
    on_family = (np.outer(m, step) == offset).all(axis=1)
    return int(m[on_family].max(initial=-1)) + 1


def sp4r_family(m: int, direction: str) -> Sp4rFamilyPoint:
    """Closed-form SP4R family member and its squared spin norms."""
    table = golden()["sp4r_pencils"]
    if direction not in table:
        raise UsageError(
            f"unknown family {direction!r}; choose from {sorted(table)}"
        )
    rec = table[direction]
    min_m = sp4r_min_m(direction)
    if m < min_m:
        raise UsageError(
            f"{direction} family members are unitarily large only for "
            f"m >= {min_m}, got {m}"
        )
    case = get_case("SP4R")
    step = tuple(Q(c) for c in rec["direction"])
    member = vadd(tuple(Q(c) for c in rec["start"]), vscale(Q(m), step))
    weights = (case.beta, case.beta_second)
    aligned = weights[0] if inner(step, weights[0]) > 0 else weights[1]
    other = weights[1] if aligned is weights[0] else weights[0]
    good_member = vsub(member, aligned)
    bad_member = vsub(member, other)

    def pair(v):
        return tuple(int(c) for c in v)

    return Sp4rFamilyPoint(
        member=pair(member),
        good_member=pair(good_member),
        bad_member=pair(bad_member),
        good_sq=spin_norm_sq(case, pair(good_member)),
        mid_sq=spin_norm_sq(case, pair(member)),
        bad_sq=spin_norm_sq(case, pair(bad_member)),
    )
