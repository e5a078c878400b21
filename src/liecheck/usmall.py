"""Membership test and exhaustive enumeration of unitarily small k-types.

A k-type mu is unitarily small when every twisted fundamental-weight
hyperplane bound holds: <mu + 2 rho_c, w xi> <= 2 <rho, xi> over all
minimal coset representatives w and restricted fundamental weights xi.
For semisimple k each such bound is, in k-type coordinates, a linear
inequality with nonnegative coefficients, so exhaustive enumeration prunes
monotonically. SP4R's k-types are ambient pairs (p, q) with p >= q, and
its rows mix signs; it is counted from the ranges they give.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import gcd, lcm

from .cases import CaseData, KType, ktype_is_dominant, _normalize_ktype
from .errors import ConstructionError, UsageError
from .rootdata import inner
from .weyl import int_root_coords


@dataclass(frozen=True)
class InequalitySystem:
    """Rows (coeffs, bound) meaning sum(coeff_i * a_i) <= bound."""

    rows: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def dim(self) -> int:
        return len(self.rows[0][0])

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


@lru_cache(maxsize=None)
def usmall_system(case: CaseData) -> InequalitySystem:
    """The hyperplane rows in k-type coordinates. For k with center (SP4R)
    those are ambient coordinates: coefficients may be negative, and the
    rows are kept unpruned, as the pruning is valid only where every
    coordinate is >= 0."""
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


def _level_cap(rows, slack, level: int) -> int:
    """The largest value of coordinate level that every row's slack allows:
    the least slack // c over the rows with coefficient c > 0 there."""
    caps = [
        s // coeffs[level] for (coeffs, _), s in zip(rows, slack) if coeffs[level] > 0
    ]
    if not caps:
        raise ConstructionError(f"coordinate {level} is unbounded")
    return min(caps)


def iter_usmall(case: CaseData):
    """Yield all unitarily small dominant k-types in lexicographic order."""
    if case.id.family == "SP4R":
        p_hi, q_lo, gap = _sp4r_ranges(case)
        for p in range(q_lo, p_hi + 1):
            for q in range(max(q_lo, p - gap), p + 1):
                yield (p, q)
        return
    system = usmall_system(case)
    rows = system.rows
    dim = system.dim
    coords = [0] * dim

    def rec(level: int, slack: tuple[int, ...]):
        hi = _level_cap(rows, slack, level)
        if level == dim - 1:
            for v in range(hi + 1):
                coords[level] = v
                yield tuple(coords)
            return
        for v in range(hi + 1):
            coords[level] = v
            yield from rec(
                level + 1,
                tuple(s - coeffs[level] * v for (coeffs, _), s in zip(rows, slack)),
            )

    yield from rec(0, tuple(b for _, b in rows))


def _count_semisimple(rows, dim, level, slack) -> int:
    hi = _level_cap(rows, slack, level)
    if level == dim - 1:
        return hi + 1
    total = 0
    for v in range(hi + 1):
        total += _count_semisimple(
            rows,
            dim,
            level + 1,
            tuple(s - coeffs[level] * v for (coeffs, _), s in zip(rows, slack)),
        )
    return total


def _count_first_fixed(case: CaseData, first: int) -> int:
    system = usmall_system(case)
    rows = system.rows
    slack = tuple(b - coeffs[0] * first for coeffs, b in rows)
    if any(s < 0 for s in slack):
        return 0
    if system.dim == 1:
        return 1
    return _count_semisimple(rows, system.dim, 1, slack)


def enumerate_usmall(case: CaseData, jobs: int = 1) -> int:
    """Count the unitarily small k-types by monotone depth-first scan."""
    if case.id.family == "SP4R":
        p_hi, q_lo, gap = _sp4r_ranges(case)
        return sum(
            p - max(q_lo, p - gap) + 1 for p in range(q_lo, p_hi + 1)
        )
    rows = usmall_system(case).rows
    firsts = range(_level_cap(rows, [b for _, b in rows], 0) + 1)
    workers = min(jobs, len(firsts))
    if workers > 1:
        import multiprocessing as mp

        with mp.Pool(workers) as pool:
            parts = pool.starmap(_count_first_fixed, [(case, v) for v in firsts])
        return sum(parts)
    return sum(_count_first_fixed(case, v) for v in firsts)
