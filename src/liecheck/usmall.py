"""Membership test and exhaustive enumeration of unitarily small k-types.

A k-type mu is unitarily small when every twisted fundamental-weight
hyperplane bound holds: <mu + 2 rho_c, w xi> <= 2 <rho, xi> over all
minimal coset representatives w and restricted fundamental weights xi.
For semisimple k each such bound is, in k-type coordinates, a linear
inequality with nonnegative coefficients. Counting and listing share one
breadth-first int64 walk: each frontier row carries the slack every
inequality has left, and its next coordinate takes every value up to the
least slack // c over the rows with c > 0. Groups of frontier rows are
expanded depth-first, so memory stays bounded and the points come out in
lexicographic order; counting never builds the last coordinate. The walk
also takes drop sets, further rows with nonnegative coefficients whose
points are left out: at the last coordinate each set drops a run of
values from 0 up, so a frontier row keeps the values from one start on.
The box scan (fastscan) walks a box this way, dropping its u-small
points, and hands the walk a screen that drops frontier rows, each with
its whole subtree, before they are expanded.

SP4R's k-types are ambient pairs (p, q) with p >= q, and its rows mix
signs; it is counted and listed from the ranges they give. It is not
folded into the walk: its rows bound the central coordinate q from both
sides, and take nonnegative coefficients only in the coordinates
(p - q, q - q_min), where the rows bounding q from below hold for every
point. Finding the origin q_min is the vertex computation that
_sp4r_ranges already does, so the walk would trade one SP4R special case
for another.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd, lcm

import numpy as np

from .cases import CaseData, ktype_is_dominant, per_case, _normalize_ktype
from .errors import ConstructionError, UsageError
from .rootdata import inner
from .weyl import int_root_coords

_FRONTIER_ROWS = 1_024  # rows of a frontier group of the walk


@dataclass(frozen=True)
class InequalitySystem:
    """Rows (coeffs, bound) meaning sum(coeff_i * a_i) <= bound."""

    rows: tuple[tuple[tuple[int, ...], int], ...]

    def satisfied(self, coords) -> bool:
        return all(
            sum(c * a for c, a in zip(coeffs, coords)) <= bound
            for coeffs, bound in self.rows
        )


def _primitive_row(coeffs: list[int], bound: int) -> tuple[tuple[int, ...], int]:
    g = gcd(*coeffs, bound)
    if g > 1:
        coeffs, bound = [c // g for c in coeffs], bound // g
    return tuple(coeffs), bound


def _prune_dominated(rows: set[tuple[tuple[int, ...], int]]):
    """Drop rows implied pairwise by a stronger row.

    Row (c, b) is redundant next to (c', b') when c_k * b' <= c'_k * b for
    every coordinate: then c.mu <= (b/b') c'.mu <= b on the nonnegative
    orthant. This is scale-invariant, so differently scaled duplicates
    collapse too.
    """
    kept = []
    for coeffs, bound in sorted(rows):
        redundant = any(
            (ocoeffs, obound) != (coeffs, bound)
            and obound > 0
            and all(c * obound <= oc * bound for c, oc in zip(coeffs, ocoeffs))
            for ocoeffs, obound in rows
        )
        if not redundant:
            kept.append((coeffs, bound))
    return tuple(kept)


@per_case
def usmall_system(case: CaseData) -> InequalitySystem:
    """The hyperplane rows in k-type coordinates. For k with center (SP4R)
    those are ambient coordinates: coefficients may be negative, and the
    rows are kept unpruned, as the pruning is valid only where every
    coordinate is >= 0."""
    return _build_system(case)


def _build_system(case: CaseData) -> InequalitySystem:
    g = case.g_restricted
    # the xi on simple-root coordinates, and what w(xi) is paired with: the
    # k-type basis vectors and rho_c against the simple roots, and rho
    # against xi, all over one common denominator den
    xis, scale = int_root_coords(g, case.g_fund_weights)
    pairs = [[inner(b, a) for a in g.simple_roots] for b in case.ktype_basis]
    pairs.append([inner(case.rho_c, a) for a in g.simple_roots])
    rho_xi = [inner(case.rho, xi) for xi in case.g_fund_weights]
    den = lcm(*(x.denominator for x in chain(rho_xi, *pairs)))
    pairs = [[int(x * den) for x in row] for row in pairs]
    rho_xi = [int(x * den) for x in rho_xi]
    raw = set()
    for word, m in zip(case.w1, case.w1_matrices):
        # column i: scale times the coordinates of w(xi_i); each row comes
        # out as den * scale times its coefficients and bound
        for image, r_xi in zip((m @ xis).T.tolist(), rho_xi):
            *coeffs, rho_c_pair = (
                sum(p * x for p, x in zip(row, image)) for row in pairs
            )
            if not case.k_has_center and any(c < 0 for c in coeffs):
                raise ConstructionError(
                    f"{case.id.label}: negative coefficient for word {word}"
                )
            raw.add(_primitive_row(coeffs, 2 * (r_xi * scale - rho_c_pair)))
    if case.k_has_center:
        return InequalitySystem(tuple(sorted(raw)))
    return InequalitySystem(_prune_dominated(raw))


def is_usmall(case: CaseData, mu) -> bool:
    coords = _normalize_ktype(case, mu)
    if not ktype_is_dominant(case, coords):
        raise UsageError(f"{coords} is not dominant for {case.id.label}")
    return usmall_system(case).satisfied(coords)


def _sp4r_ranges(case: CaseData):
    """(p, q) bounds read off three of the derived rows plus dominance
    p >= q, which implies the other two."""
    rows = dict(usmall_system(case).rows)
    p_hi = rows[(1, 0)]
    q_lo = -rows[(0, -1)]
    gap = rows[(1, -1)]
    return p_hi, q_lo, gap


def _int64_rows(rows):
    """The rows (coeffs, bound) as int64 arrays, refused unless they fit
    the int64 walk: every coefficient and bound in [0, 2**63), and every
    coordinate's cap, the least bound // c over the rows with c > 0, below
    2**31. Then the walk cannot overflow: a slack starts at its row bound
    and only falls, as a value v is taken only where v * c <= slack for
    every row with c > 0; and a group's at most max(_FRONTIER_ROWS, 2**31)
    rows sum their values cap + 1 below 2**63."""
    rows = [(list(cs), b) for cs, b in rows]
    flat = [b for _, b in rows] + [c for cs, _ in rows for c in cs]
    if min(flat) < 0:
        raise ConstructionError(f"rows {rows} have a negative coefficient or bound")
    if max(flat) >= 2**63:
        raise ConstructionError(f"rows {rows} do not fit the int64 walk")
    coeffs = np.array([cs for cs, _ in rows], dtype=np.int64)
    bounds = np.array([b for _, b in rows], dtype=np.int64)
    # a column with no c > 0 (an unbounded coordinate) keeps the cap 2**31
    caps = np.where(coeffs > 0, bounds[:, None] // np.maximum(coeffs, 1), 2**31)
    if (caps.min(axis=0) >= 2**31).any():
        raise ConstructionError(f"rows {rows} do not fit the int64 walk")
    return coeffs, bounds


def _caps(coeffs, slack, level: int):
    """Per frontier row, the least slack // c over the rows with c > 0."""
    col = coeffs[:, level]
    return (slack[:, col > 0] // col[col > 0]).min(axis=1)


def _run(caps) -> int:
    """How many leading rows have at most _FRONTIER_ROWS children; >= 1."""
    return max(1, int(np.searchsorted(np.cumsum(caps + 1), _FRONTIER_ROWS, "right")))


def _children(coords, caps, start=0):
    """Every row of coords extended by each value start..cap, in order."""
    counts = np.maximum(caps - start + 1, 0)
    values = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - start, counts)
    return np.column_stack([np.repeat(coords, counts, axis=0), values]), values


def _first_kept(coords, drops):
    """Per row of coords (all coordinates but the last), the least last
    value v >= 0 outside every drop set: one above the largest v with
    c @ (row, v) <= b for every row (c, b) of the set, as coefficients
    are >= 0."""
    start = np.zeros(len(coords), dtype=np.int64)
    for coeffs, bounds in drops:
        slack = bounds - coords @ coeffs[:, :-1].T
        col = coeffs[:, -1]
        # a row with c = 0 holds for every v or for none
        free = np.where(slack < 0, -1, 2**62)
        top = np.where(col > 0, slack // np.maximum(col, 1), free).min(axis=1)
        np.maximum(start, top + 1, out=start)
    return start


def _walk(coeffs, bounds, drops=(), screen=None):
    """Yield (caps, coords, start) over the lattice points e >= 0 with
    coeffs @ e <= bounds and outside every drop set, in lexicographic
    order, for runs of rows at the last coordinate: each row of coords
    extends by every last value start..cap (none if start > cap).
    coeffs and bounds pass the _int64_rows guard. A drop set is a pair
    (coeffs, bounds) of int64 arrays naming the points with
    coeffs @ e <= bounds; its coefficients must be >= 0, and one with a
    negative bound holds no point e >= 0, so it is skipped. screen, if
    given, is called as screen(level, coords, slack) on each new group of
    frontier rows (coords their level leading coordinates, slack their
    rows' slacks) and returns a keep mask: a row it does not keep is
    dropped with its whole subtree, at the last level its run.
    A stack entry is a group's level, slacks, coords and caps; a group is
    taken a run of rows at a time, the rest waiting below the children, so
    a group or run has at most _FRONTIER_ROWS rows or children, or one
    row."""
    coeffs, bounds = _int64_rows(zip(coeffs, bounds))
    for c, _ in drops:
        if (c < 0).any():
            raise ConstructionError(f"drop set with a negative coefficient: {c.tolist()}")
    drops = [(c, b) for c, b in drops if (b >= 0).all()]
    last = coeffs.shape[1] - 1

    def group(level, slack, coords):
        if screen is not None:
            keep = screen(level, coords, slack)
            slack, coords = slack[keep], coords[keep]
        return level, slack, coords, _caps(coeffs, slack, level)

    stack = [group(0, bounds[None, :], np.zeros((1, 0), dtype=np.int64))]
    while stack:
        level, slack, coords, caps = stack.pop()
        stop = _run(caps)
        if stop < len(caps):
            stack.append((level, slack[stop:], coords[stop:], caps[stop:]))
        slack, coords, caps = slack[:stop], coords[:stop], caps[:stop]
        if not len(caps):  # a group the screen emptied
            continue
        if level == last:
            yield caps, coords, _first_kept(coords, drops)
            continue
        kids, values = _children(coords, caps)
        slack = np.repeat(slack, caps + 1, axis=0) - values[:, None] * coeffs[:, level]
        stack.append(group(level + 1, slack, kids))


def usmall_chunks(case: CaseData):
    """Yield all unitarily small dominant k-types in lexicographic order, as
    int64 arrays of at most _FRONTIER_ROWS rows or one row's children."""
    if case.id.family == "SP4R":
        p_hi, q_lo, gap = _sp4r_ranges(case)
        pairs = [(p, q) for p in range(q_lo, p_hi + 1)
                 for q in range(max(q_lo, p - gap), p + 1)]
        yield np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return
    for caps, coords, _ in _walk(*zip(*usmall_system(case).rows)):
        yield _children(coords, caps)[0]


def iter_usmall(case: CaseData):
    """Yield all unitarily small dominant k-types in lexicographic order."""
    for chunk in usmall_chunks(case):
        yield from map(tuple, chunk.tolist())


def enumerate_usmall(case: CaseData) -> int:
    """Count the unitarily small k-types by the lattice walk. It runs
    serially, since a worker pool costs more than the whole count."""
    if case.id.family == "SP4R":
        return len(next(usmall_chunks(case)))
    walk = _walk(*zip(*usmall_system(case).rows))
    return sum(len(caps) + int(caps.sum()) for caps, _, _ in walk)
