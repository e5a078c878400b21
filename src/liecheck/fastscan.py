"""Bulk integer engine behind box verification.

Everything here works in exact integer arithmetic: k-type coordinates are
integers, pairings against coroots are integers, and every rational
constant (weight Gram matrix, rho_c pairings) is cleared to a common
denominator once per case. Squared spin norms come out as int64 values
scaled by that single denominator, so comparisons and minima are exact.
A box whose coordinates could carry an intermediate beyond int64 is
refused before the scan starts (magnitude_bound).

The rho_c part of a spin norm needs no Weyl walk: for every x,
2 <dom x, rho_c> = sum over alpha in Delta+(k) of |<x, alpha>| (the root
sum of x, one row of an integer (rows x roots) table). Proof:
  1. Take w in W_k with w x = dom x. Then <dom x, alpha> =
     <x, w^-1 alpha>, and w^-1 permutes Delta(k) = Delta+ u -Delta+, so
     the |<dom x, alpha>| and the |<x, alpha>| over Delta+(k) agree as
     multisets.
  2. dom x is dominant, so <dom x, alpha> = |<dom x, alpha>| on Delta+(k),
     and their sum is <dom x, 2 rho_c>.

The cheap bound cheap(mu) = 2<mu,beta> - 2<rho_c,beta> - 2 max_j
<rho_n^j,beta> - |beta|^2 (cheap_coef_s, cheap_const_s) is at most the
margin spin(mu)^2 - spin(mu - beta)^2 for every mu with mu - beta
dominant, not only inside a box. With x = mu - rho_n^j, y = x - beta,
A_j = |dom x + rho_c|^2, B_j = |dom y + rho_c|^2 and
termII_j = |x|^2 - |y|^2 = 2<mu,beta> - 2<rho_n^j,beta> - |beta|^2:
  1. With j* the variant where spin(mu)^2 is attained,
     margin >= A_j* - B_j*.
  2. A_j - B_j = termII_j + 2<rho_c, dom x - dom y>.
  3. <rho_c, dom x> >= <rho_c, w_y x> = <rho_c, dom y> + <rho_c, w_y beta>,
     where w_y is the Weyl element of k that sends y to dom y.
  4. <rho_c, w beta> >= -<rho_c, beta> for k-dominant beta.
So margin >= termII_j* - 2<rho_c, beta> >= cheap(mu).

The box scan walks the cheap simplex, not the box. For semisimple k,
mu - beta is dominant exactly when mu >= beta, so with base =
max(box lo, beta) the points to check are e = mu - base >= 0 under the
rows e_i <= hi_i - base_i, minus the u-small points. Every u-small and
cheap coefficient is >= 0 (the walk refuses others), so cheap(mu) <= b is
one more row, and usmall._walk lists the points of these rows; the walker
drops the u-small values and those at or below the band's lower end.
scanned is the box size and filtered the dominant sub-box minus its
u-small points, neither depending on what is evaluated. The walk takes
the slice coordinate first (the longest edge, first on ties), then the
others shortest edge first, so its last coordinate, whose values
usmall._walk yields as runs, is the longest of the others. With the
longest edges first, a last slice's one-value coordinate came last, and a
verify of the last EVIII slice walked 633,601 runs for 633,366 points
(140,926 runs in this order). The order changes what is evaluated, not
the report (below). With one running minimum best per process, the scan
walks the slices (all at once in a serial scan, one per task with --jobs)
in passes:
  * pass 1 walks {cheap <= 0}, which holds every violation, as
    cheap <= margin <= 0 for each one;
  * pass 2 walks {0 < cheap <= max(0, best)}. If pass 1 evaluated
    nothing, bands of doubling width above 0 come first, until a point is
    evaluated or the box is covered.
A point of the band reaches the kernel only if the simplex bound of each
frontier row above it (below), its cheap bound and its
margin_lower_bounds are all at most max(0, best), best falling after
every kernel batch. The three bounds are at most margin(m*) = min <= best
for the minimizer m* and for every violation (a simplex bound is at most
the margin of each point under its row), so they are evaluated, and the
report depends neither on --jobs nor on which process saw which slice.
k with center (SP4R: rows of both signs, small boxes) lists each slice's
filtered points from its grid in one pass, under the same two tests.
--no-shortcut evaluates every filtered point.

Each variant j has the floor |x + rho_c|^2 <= |dom x + rho_c|^2, x =
mu - rho_n^j: dom x - x is a sum of positive roots of k, each with
<alpha, rho_c> > 0, so <x, rho_c> <= <dom x, rho_c>. With lin_j =
-2 <mu, rho_n^j>, c_j = |rho_n^j|^2 - 2 <rho_n^j, rho_c> and r =
2 <mu, rho_c>, the floor is lin_j + c_j + r plus the row constant
|mu|^2 + |rho_c|^2, and the floors of mu - beta are lin_j + step_j + c_j
plus its own r and row constant, step_j = 2 <beta, rho_n^j>: one
(rows x variants) table lin + c (_screen_table) holds the floors of mu
and, plus step, those of mu - beta, up to per-row constants that move no
row minimum or argmin. The kernel evaluates the lowest floor first and
skips every variant whose floor is not below the value found.

The screens rest on one concave bound. Fix a variant j' of mu - beta.
  1. F(mu) = min_j (lin_j + c_j) + r + |mu|^2 + |rho_c|^2, the lowest
     floor, is at most spin(mu)^2; less |mu|^2 it is a minimum of affine
     functions of mu, so concave.
  2. The value V(mu) of mu - beta at j' is at least spin(mu - beta)^2;
     less |mu - beta|^2 it is an affine function plus the root sum, a sum
     of absolute values of affine functions, so convex.
  3. So F - V <= margin, and F - V is concave, as the |mu|^2 -
     |mu - beta|^2 = 2 <mu, beta> - |beta|^2 that the two leave is linear.
margin_lower_bounds is F - V at each row, j' the row argmin of lin + c +
step, the lowest-floor variant of mu - beta; magnitude_bound covers
every integer and float64 value it computes, as for any row of the box.

The simplex screen drops whole subtrees of the walk. Take a frontier row
that fixes the first l walked coordinates (the prefix) and leaves k >= 1
free, with slack s >= 0 on the cheap row, and c_i the cheap coefficients
of the free coordinates, all > 0 (else the band is not screened).
  1. Every point under the row is e = (prefix, y) with y >= 0 integral and
     c @ y <= s.
  2. Such a y lies in the lattice simplex with the k + 1 vertices 0 and
     t_i e_i, t_i = ceil(s / c_i): sum_i y_i / t_i <= sum_i y_i c_i / s
     <= 1 (for s = 0, y = 0, and every vertex is the corner (prefix, 0)).
  3. F - V with j' fixed is concave on all of R^n, not only on the
     dominant cone: F less |mu|^2 is a minimum of affine functions of
     real mu, and V less |mu - beta|^2 an affine function plus a sum of
     absolute values of affine functions.
  4. So on the simplex F - V is least at a vertex, and its least vertex
     value bounds the margin at every point under the row.
simplex_lower_bounds takes that least value, with j' the lowest-floor
variant of the corner less beta; where it exceeds max(0, best), the
screen that _Scanner._batches hands usmall._walk drops the row before
_children expands it. At the last level a row's subtree is its run,
start..cap with cap <= floor(s / c), and its simplex is the segment from
(prefix, 0) to (prefix, ceil(s / c)): a point is a simplex of one
vertex, and the row screen and the walk's screen share one body
(_concave_bounds). The vertices need not be points of the box:
a vertex coordinate is at most base_i + ceil(budget / c_i), as s is at
most the band's budget. So each band checks magnitude_bound at that
reach, and a band whose reach fails the check (the second band of G's
largest accepted box) is walked without the simplex screen.

On the last EVIII slice the walk yields 220 runs of 1,512 points, all in
pass 2, and the screens evaluate F - V at 16,448 points: 15,171 vertices
of 4,463 frontier rows and 1,277 rows; 235 rows reach the kernel.

A tighter floor, |x|^2 + 2 max(0, <x, rho_c>) + |rho_c|^2, and a second
pair of floor tables for rows near the walls of k were measured against
this one and dropped: on every published box, the last EVIII and EIX
slices, an EVI slice and two SP4R boxes they sent the same rows to the
kernel. Two screen sets with the simplex screen stopping above the last
level were dropped as well. With a separate run screen on the two ends of
each run of at least three points, a second code path, the last EVIII
slice took 15,192 evaluations of F - V for the same 235 kernel rows.
Without it the row screen saw 13,123 points there, and the long-slices
benchmark took a median 0.183 s of wall time against 0.168 s with the
screen at the last level (six alternating runs each, 2-core machine).
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction as Q
from math import isqrt, lcm

import numpy as np

from .cases import CaseData, ambient_to_ktype, per_case
from .errors import ConstructionError
from .rootdata import coroot_pairing, inner, norm_sq, root_closure
from .usmall import _children, _walk, usmall_system

# Walked points per screen-and-kernel batch; the running minimum falls
# between batches. Screening each walker chunk on its own instead took
# 277-380 ms on the last EVIII slice in process, against 261-345 ms (five
# runs each on a 2-core machine).
_BATCH_ROWS = 4_096
# Rows per best-first kernel chunk, and per screen chunk over all the
# vertices of its rows. Its (rows x variants) tables and pair arrays grow
# with it: on the published boxes, 1,024 rows raised peak memory by 7% over a
# per-variant kernel and 512 rows by 2%, at the same speed. It also keeps
# each float64 product on one OpenBLAS thread (_product).
_CHUNK_ROWS = 512
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class ScanTables:
    """Per-case integer data for bulk squared-spin-norm evaluation."""

    scale: int
    pairing: np.ndarray  # (lk, l): coroot pairings of the coordinate basis
    shift: np.ndarray  # (s, lk): coroot pairings of each rho_n variant
    root_s: np.ndarray  # (l, |Delta+(k)|): scale * <basis_k, alpha>
    root_var_s: np.ndarray  # (s, |Delta+(k)|): scale * <rho_n variant, alpha>
    gram_s: np.ndarray  # (l, l): scale * <basis_k, basis_l>
    variant_s: np.ndarray  # (s, l): scale * <basis_k, rho_n variant>
    variant_nrm_s: np.ndarray  # (s,): scale * ||rho_n variant||^2
    rho_c_nrm_s: int  # scale * ||rho_c||^2
    rho_c_lin_s: np.ndarray  # (l,): scale * <basis_k, rho_c>
    rho_c_var_s: np.ndarray  # (s,): scale * <rho_n variant, rho_c>
    beta_coords: np.ndarray  # (l,) k-type coordinates of beta
    cheap_coef_s: np.ndarray  # (l,): 2 * scale * <basis_k, beta>, nonneg
    cheap_const_s: int  # scale * (2<rho_c,beta> + 2 max_j<rho_n_j,beta> + |beta|^2)
    # the screens' constants (module docstring)
    step_s: np.ndarray  # (s,): 2 * scale * <beta, rho_n variant>
    floor_const_s: np.ndarray  # (s,): c_j = variant_nrm_s - 2 rho_c_var_s
    screen_s: np.ndarray  # (l + 1, s): -2 variant_s.T over c_j, float64


def _ints(values, what: str, scale=1) -> np.ndarray:
    """scale times values (a list, or a list of rows) as int64, refused
    unless every entry is an integer."""

    def one(v):  # v an int or a Fraction
        num, den = v.numerator * scale, v.denominator
        if num % den:
            raise ConstructionError(f"{what} is not integral: {Q(num, den)}")
        return num // den

    return np.array(
        [[one(v) for v in row] if isinstance(row, (list, tuple)) else one(row)
         for row in values],
        dtype=np.int64,
    )


@per_case
def build_tables(case: CaseData) -> ScanTables:
    k = case.k_system
    basis = case.ktype_basis
    deltas = k.simple_roots

    pairing = _ints(
        [[coroot_pairing(b, d) for b in basis] for d in deltas], "coordinate pairing"
    )
    shift = _ints(
        [[coroot_pairing(v, d) for d in deltas] for v in case.rho_n_variants],
        "variant pairing",
    )
    # <v, alpha> = sum_i <v, delta_i coroot> |delta_i|^2 / 2 * n_i for the
    # positive root alpha = sum_i n_i delta_i, so both root tables are the
    # integer pairing tables times half_sq times integer root coordinates
    cartan = [[int(coroot_pairing(di, dj)) for dj in deltas] for di in deltas]
    roots = np.array([r for r, _, _ in root_closure(cartan)], dtype=np.int64).T
    half_sq = [norm_sq(d) / 2 for d in deltas]

    gram = [[inner(a, b) for b in basis] for a in basis]
    variant = [[inner(b, v) for b in basis] for v in case.rho_n_variants]
    variant_nrm = [norm_sq(v) for v in case.rho_n_variants]
    rho_c_lin = [inner(b, case.rho_c) for b in basis]
    rho_c_var = [inner(v, case.rho_c) for v in case.rho_n_variants]
    beta_c = case.beta if case.k_has_center else ambient_to_ktype(case, case.beta)
    cheap_coef = [2 * inner(b, case.beta) for b in basis]
    # rho_c norm and cheap constant
    consts = [
        norm_sq(case.rho_c),
        2 * inner(case.rho_c, case.beta)
        + 2 * max(inner(v, case.beta) for v in case.rho_n_variants)
        + norm_sq(case.beta),
    ]
    rationals = [x for row in gram + variant for x in row] + (
        variant_nrm + half_sq + rho_c_lin + rho_c_var + cheap_coef + consts
    )
    scale = lcm(*(Q(x).denominator for x in rationals))
    rho_c_nrm_s, cheap_const_s = _ints(consts, "scaled constant", scale).tolist()
    root_half_s = _ints(half_sq, "scaled table", scale)[:, None] * roots
    variant_s = _ints(variant, "scaled table", scale)
    variant_nrm_s = _ints(variant_nrm, "scaled table", scale)
    rho_c_lin_s = _ints(rho_c_lin, "scaled table", scale)
    rho_c_var_s = _ints(rho_c_var, "scaled table", scale)
    beta_coords = _ints(list(beta_c), "beta coordinates")
    floor_const_s = variant_nrm_s - 2 * rho_c_var_s
    return ScanTables(
        scale=scale,
        pairing=pairing,
        shift=shift,
        root_s=pairing.T @ root_half_s,
        root_var_s=shift @ root_half_s,
        gram_s=_ints(gram, "scaled table", scale),
        variant_s=variant_s,
        variant_nrm_s=variant_nrm_s,
        rho_c_nrm_s=rho_c_nrm_s,
        rho_c_lin_s=rho_c_lin_s,
        rho_c_var_s=rho_c_var_s,
        beta_coords=beta_coords,
        cheap_coef_s=_ints(cheap_coef, "scaled table", scale),
        cheap_const_s=cheap_const_s,
        step_s=2 * (variant_s @ beta_coords),
        floor_const_s=floor_const_s,
        # C-ordered (_product)
        screen_s=np.vstack([-2 * variant_s.T, floor_const_s]).astype(np.float64),
    )


def magnitude_bound(tables: ScanTables, coord_max: int) -> int:
    """Bound on the absolute value of every integer that the kernel, the
    screen and the cheap bound compute for k-type coordinates of absolute
    value at most coord_max (rows mu and mu - beta alike), or 2^10 times a
    bound on every float64 value (_product), if larger: the int64 test
    bound <= 2^63 - 1 then keeps those below 2^53, where float64 is exact.
    A float64 entry is bounded by the sum of the absolute values of its
    addends, which bounds every partial sum too, so the matrix product is
    exact in whatever order BLAS adds.

    Each term bounds one family of intermediates by the sum of the absolute
    values of its addends. The root sum of a variant is
    scale * 2 <dom x, rho_c> <= 2 sqrt(scale |x|^2 * scale |rho_c|^2), and
    its addends and partial sums are nonnegative and at most the whole.
    A floor is a table entry plus r (at most lin_part + rho_c_term). The
    row screen, at rows of the box, adds a floor, one variant value
    (lin_part plus a root sum) and m @ cheap_coef_s - |beta|^2 (|beta|^2
    is at most the a^2 part of norm_x), so its partial sums stay below the
    total.

    The simplex screen computes the same at its vertices, which are not
    rows of the box: a vertex coordinate reaches up to
    base_i + ceil(budget / c_i), past the box edge. So the scan calls this
    bound once more per band, at that reach, and walks a band it refuses
    without the simplex screen (_Scanner._reach_fits).
    """

    def abs_sum(arr):
        return int(np.abs(arr).sum())

    def abs_max(arr):  # largest absolute entry, or row sum for a matrix
        arr = np.abs(arr)
        return int((arr.sum(axis=1) if arr.ndim == 2 else arr).max(initial=0))

    a = coord_max + abs_max(tables.beta_coords)
    # a linear-table entry plus its per-variant constants
    lin_part = 2 * a * abs_max(tables.variant_s) + abs_max(tables.variant_nrm_s)
    # scale * |x|^2 for x = mu - rho_n^j, and each of its parts
    norm_x = a * a * abs_sum(tables.gram_s) + lin_part
    rho_c_term = 2 * (a * abs_sum(tables.rho_c_lin_s) + abs_max(tables.rho_c_var_s))
    root_sum = isqrt(4 * norm_x * tables.rho_c_nrm_s) + 1
    # one entry scale * <x, alpha> of the root table, addend by addend
    root_entry = a * abs_max(tables.root_s.T) + int(np.abs(tables.root_var_s).max())
    cheap = coord_max * abs_sum(tables.cheap_coef_s) + abs(tables.cheap_const_s)
    total = 2 * norm_x + rho_c_term + root_sum + root_entry + tables.rho_c_nrm_s + cheap
    floats = max(lin_part + rho_c_term, root_entry, root_sum)
    return max(total, floats << 10)


def conjugate_dominant_bulk(c: np.ndarray, cartan: np.ndarray) -> np.ndarray:
    """Sweep pairing-coordinate rows into the dominant chamber in place,
    reflecting at the lowest-index negative pairing like the single-vector
    conjugation. The scan does not call it (the root sum replaces it); the
    tests hold the root sum against it."""
    active = np.nonzero((c < 0).any(axis=1))[0]
    while active.size:
        neg = c[active] < 0
        busy = neg.any(axis=1)
        active = active[busy]
        if not active.size:
            break
        idx = neg[busy].argmax(axis=1)
        vals = c[active, idx]
        c[active] -= vals[:, None] * cartan[idx]
    return c


def bulk_spin_sq_scaled(tables: ScanTables, coords: np.ndarray) -> np.ndarray:
    """Squared spin norms (times tables.scale) for rows of coords.

    The norm is the minimum over the rho_n variants j of
    |dom(x_j) + rho_c|^2 with x_j = mu - rho_n^j, whose rho_c part
    2 <dom x_j, rho_c> is the root sum of x_j. Each variant has the floor
    |x_j + rho_c|^2 <= that value (module docstring), which costs no root
    sum. The kernel is best-first: it evaluates each row's lowest-floor
    variant, then only the (row, variant) pairs whose floor is still below
    the row's value. A skipped pair has floor >= value, so it cannot lower
    the minimum, and the result is exact. Rows go in chunks of
    _CHUNK_ROWS, and so do the pairs of the second pass, because the
    (rows x variants) floor table and the (pairs x roots) tables grow with
    them.
    """
    out = np.empty(len(coords), dtype=np.int64)
    for start in range(0, len(coords), _CHUNK_ROWS):
        chunk = coords[start:start + _CHUNK_ROWS]
        out[start:start + len(chunk)] = _best_first(tables, chunk, _linear(tables, chunk))
    return out


def _product(m: np.ndarray, table: np.ndarray) -> np.ndarray:
    """m @ table for integer rows and an integer table, as one float64
    matrix product. Exact: magnitude_bound bounds the sum of the absolute
    values of each entry's addends below 2^53, so every product and every
    partial sum is an integer below 2^53, in any BLAS blocking or
    summation order, with or without FMA.

    On a 2-core machine (OpenBLAS 0.3.31) a 512 x 9 by 9 x 135 screen
    table took 47 us, against 189 us for the float64 einsum used before.
    OpenBLAS ran it on one thread, and with two processes at once, as
    under --jobs 2, it took 44 us; from 9 x 300 tables on it used two
    threads, and no family that verify scans has tables beyond EVIII's
    9 x 135 and EIX's 8 x 64. Rows count too: with 1,024 rows the 9 x 135
    product ran on two threads (cpu time twice wall time, 4,608 rows as
    well), 768 rows still on one, so no caller passes more than
    _CHUNK_ROWS rows. The table must be C-ordered: with a
    transposed one the same product took 333 us on two threads, and a
    --jobs 2 scan of the last EVIII slice four times as long."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    return m.astype(np.float64) @ table


def _linear(tables: ScanTables, m: np.ndarray) -> np.ndarray:
    """The (rows x variants) table scale * -2 <mu, rho_n^j>."""
    return _product(m, -2 * tables.variant_s.T).astype(np.int64)


def _row_constant(tables: ScanTables, m: np.ndarray) -> np.ndarray:
    return ((m @ tables.gram_s) * m).sum(axis=1) + tables.rho_c_nrm_s


def _value(tables: ScanTables, root_pair: np.ndarray, lin_at: np.ndarray,
           variants: np.ndarray) -> np.ndarray:
    """Values of the given variants, without the row constant, for rows
    with root table root_pair = mu @ root_s and linear terms lin_at."""
    roots = np.abs(root_pair - tables.root_var_s[variants]).sum(axis=1)
    return lin_at + tables.variant_nrm_s[variants] + roots


def _best_first(tables: ScanTables, m: np.ndarray, lin: np.ndarray) -> np.ndarray:
    """Scaled squared spin norms of the rows m, whose linear-term table is
    lin. The floors lin + c + r, like the values, leave out the row
    constant scale * (|mu|^2 + |rho_c|^2)."""
    floor = lin + tables.floor_const_s + 2 * (m @ tables.rho_c_lin_s)[:, None]
    root_pair = _product(m, tables.root_s).astype(np.int64)

    def value(rows, variants):
        return _value(tables, root_pair[rows], lin[rows, variants], variants)

    rows = np.arange(len(m))
    first = floor.argmin(axis=1)
    best = value(rows, first)
    again = floor < best[:, None]
    again[rows, first] = False
    rows, variants = np.divmod(np.flatnonzero(again), again.shape[1])
    for start in range(0, rows.size, _CHUNK_ROWS):
        part = slice(start, start + _CHUNK_ROWS)
        np.minimum.at(best, rows[part], value(rows[part], variants[part]))
    best += _row_constant(tables, m)
    return best


def bulk_margins_scaled(tables: ScanTables, coords: np.ndarray) -> np.ndarray:
    """Scaled step margins spin(mu)^2 - spin(mu - beta)^2 for rows of coords.

    The linear-term table of mu - beta is that of mu plus the per-variant
    constant 2 scale <beta, rho_n^j>, so each chunk builds it once.
    """
    out = np.empty(len(coords), dtype=np.int64)
    for start in range(0, len(coords), _CHUNK_ROWS):
        m = coords[start:start + _CHUNK_ROWS]
        lin = _linear(tables, m)
        upper = _best_first(tables, m, lin)
        lin += tables.step_s
        out[start:start + len(m)] = upper - _best_first(tables, m - tables.beta_coords, lin)
    return out


def _screen_table(tables: ScanTables, m: np.ndarray) -> np.ndarray:
    """The float64 (rows x variants) table lin_j + c_j of mu (module
    docstring), from one product: a column of ones meets the row c."""
    return _product(np.column_stack([m, np.ones(len(m), np.int64)]), tables.screen_s)


def _down_value(tables: ScanTables, m: np.ndarray, first: np.ndarray,
                lin_at: np.ndarray) -> np.ndarray:
    """Per row, the value of mu - beta at variant first, whose linear term
    is lin_at, without its row constant, minus the linear
    |mu|^2 - |mu - beta|^2 = 2 <mu, beta> - |beta|^2 (2 gram beta is
    cheap_coef_s). A floor of mu without its row constant, minus this,
    bounds the margin from below."""
    beta = tables.beta_coords
    roots = _product(m - beta, tables.root_s)
    roots -= tables.root_var_s[first]
    roots = np.abs(roots).sum(axis=1).astype(np.int64)
    linear = m @ tables.cheap_coef_s - int(beta @ tables.gram_s @ beta)
    return lin_at + tables.variant_nrm_s[first] + roots - linear


def margin_lower_bounds(tables: ScanTables, coords: np.ndarray) -> np.ndarray:
    """Exact integer lower bounds on bulk_margins_scaled for rows of coords:
    the concave bound of the module docstring at each row, its variant of
    mu - beta the row's lowest-floor one. It costs one (rows x variants)
    table and one root sum per row, where the kernel needs at least two
    root sums and usually more."""
    return _concave_bounds(tables, [coords])


def simplex_lower_bounds(tables: ScanTables, corner: np.ndarray, axes,
                         reach: np.ndarray) -> np.ndarray:
    """Per row of corner (k-type coordinates), an exact integer lower bound
    on bulk_margins_scaled at every lattice point of the simplex with the
    vertices corner and corner + reach[:, i] e_axes[i], reach >= 0: the
    least vertex value of the concave bound of the module docstring, its
    variant of mu - beta the lowest-floor one of corner - beta."""
    ends = [corner]
    for i, axis in enumerate(axes):
        vertex = corner.copy()
        vertex[:, axis] += reach[:, i]
        ends.append(vertex)
    return _concave_bounds(tables, ends)


def _concave_bounds(tables: ScanTables, ends: list) -> np.ndarray:
    """Per simplex, the least value of the concave bound over its vertices,
    the rows of ends (arrays of equal length, one row per simplex in each),
    with the variant of mu - beta fixed at the first. Simplices go in
    chunks of _CHUNK_ROWS // len(ends), so that no product has more than
    _CHUNK_ROWS rows: that bounds the memory of the tables and keeps
    OpenBLAS on one thread (_product)."""
    out = np.empty(len(ends[0]), dtype=np.int64)
    step = max(1, _CHUNK_ROWS // len(ends))
    for start in range(0, len(out), step):
        part = [e[start:start + step] for e in ends]
        n = len(part[0])
        m = np.concatenate(part)
        table = _screen_table(tables, m)
        upper = table.min(axis=1).astype(np.int64) + 2 * (m @ tables.rho_c_lin_s)
        first = np.tile((table[:n] + tables.step_s).argmin(axis=1), len(ends))
        lin_at = table[np.arange(len(m)), first].astype(np.int64)
        lin_at += tables.step_s[first] - tables.floor_const_s[first]
        bound = upper - _down_value(tables, m, first, lin_at)
        out[start:start + n] = bound.reshape(len(ends), n).min(axis=0)
    return out


# ---------------------------------------------------------------------------
# box scanning
# ---------------------------------------------------------------------------


@dataclass
class _SliceResult:
    scanned: int = 0
    filtered: int = 0
    min_scaled: int | None = None
    violations: list = field(default_factory=list)
    passes: int = 0  # cheap-bound passes finished, for checkpoint records

    def add(self, other: _SliceResult) -> None:
        self.scanned += other.scanned
        self.filtered += other.filtered
        mins = [m for m in (self.min_scaled, other.min_scaled) if m is not None]
        self.min_scaled = min(mins, default=None)
        self.violations += other.violations


class _Scanner:
    """One box: its tables, its slices along the longest coordinate, and
    the running minimum of the margins this process has evaluated."""

    def __init__(self, case: CaseData, ranges, shortcut: bool):
        self.tables = build_tables(case)
        self.coord_max = coord_max = max(abs(v) for r in ranges for v in r)
        bound = magnitude_bound(self.tables, coord_max)
        if bound > _INT64_MAX:
            raise ConstructionError(
                f"{case.id.label}: box coordinates up to {coord_max} are too "
                f"large for the exact int64 scan (intermediates up to {bound}, "
                f"beyond 2^63 - 1)"
            )
        system = usmall_system(case)
        self.row_coeffs = np.array([c for c, _ in system.rows], dtype=np.int64)
        self.row_bounds = np.array([b for _, b in system.rows], dtype=np.int64)
        self.semisimple = not case.k_has_center
        self.shortcut = shortcut
        self.dim = len(ranges)
        self.lo = np.array([r[0] for r in ranges], dtype=np.int64)
        self.hi = np.array([r[1] for r in ranges], dtype=np.int64)
        # the slice coordinate first, then shortest edge first (module
        # docstring); max and sorted keep the first of equal edges first
        edge = (self.hi - self.lo).tolist()
        axis = max(range(self.dim), key=edge.__getitem__)
        rest = [k for k in range(self.dim) if k != axis]
        self.perm = [axis] + sorted(rest, key=edge.__getitem__)
        self.lo_p = self.lo[self.perm]
        self.hi_p = self.hi[self.perm]
        # the sub-box of mu with mu - beta dominant, for semisimple k
        self.base = np.maximum(self.lo, self.tables.beta_coords)
        self.best = None  # smallest margin this process has evaluated

    def cheap(self, coords) -> np.ndarray:
        return coords @ self.tables.cheap_coef_s - self.tables.cheap_const_s

    def cutoff(self) -> int | None:
        """max(0, best), or None (no screen) before a margin is known or
        without the shortcut."""
        return None if not self.shortcut or self.best is None else max(0, self.best)

    def scan_slices(self, first: int, last: int, band=(None, None),
                    best=None) -> dict[int, _SliceResult]:
        """Evaluate the slices first..last of the first walked coordinate
        over the points with cheap bound in band = (above, upto], None for
        no limit, and return each slice's minimum and violations (scanned
        and filtered are slice_counts'). best, when given, lowers
        self.best. A slice's min_scaled covers only the points evaluated,
        and is None if there are none."""
        if best is not None and (self.best is None or best < self.best):
            self.best = best
        axis = self.perm[0]
        results = {v: _SliceResult() for v in range(first, last + 1)}
        for coords in self._batches(first, last, band):
            cutoff = self.cutoff()
            if cutoff is not None:
                coords = coords[self.cheap(coords) <= cutoff]
                coords = coords[margin_lower_bounds(self.tables, coords) <= cutoff]
                if not len(coords):
                    continue
            margins = bulk_margins_scaled(self.tables, coords)
            low = int(margins.min())
            self.best = low if self.best is None else min(self.best, low)
            values = coords[:, axis]  # nondecreasing, in walk order
            starts = np.flatnonzero(np.diff(values, prepend=values[0] - 1))
            lows = np.minimum.reduceat(margins, starts)
            for v, low in zip(values[starts].tolist(), lows.tolist()):
                results[v].add(_SliceResult(min_scaled=low))
            for i in np.flatnonzero(margins <= 0):
                results[int(values[i])].violations.append(
                    (tuple(int(x) for x in coords[i]), int(margins[i]))
                )
        return results

    def slice_counts(self) -> dict[int, _SliceResult]:
        """Per slice value, a record of its scanned and filtered points:
        the slice size, and the dominant sub-box minus its u-small points,
        counted by one walk with the slice coordinate first."""
        values = range(int(self.lo_p[0]), int(self.hi_p[0]) + 1)
        size = int(np.prod((self.hi_p[1:] - self.lo_p[1:] + 1).astype(object)))
        counts = {v: _SliceResult(scanned=size) for v in values}
        if not self.semisimple:
            for v in values:
                counts[v].filtered = sum(len(c) for c in self._grid_batches(v))
            return counts
        base, order = self.base, self.perm
        if (self.hi < base).any():
            return counts
        edges = self.hi[order] - base[order]
        for v in range(int(base[order[0]]), int(self.hi_p[0]) + 1):
            counts[v].filtered = int(np.prod((edges[1:] + 1).astype(object)))
        small = self.row_bounds - self.row_coeffs @ base
        if (small < 0).any():
            return counts
        eye = np.eye(self.dim, dtype=np.int64)
        coeffs = np.vstack([self.row_coeffs[:, order], eye])
        per_slice = np.zeros(int(edges[0]) + 1, dtype=np.int64)
        for caps, prefix, _ in _walk(coeffs, np.concatenate([small, edges])):
            np.add.at(per_slice, prefix[:, 0], caps + 1)
        for e, n in enumerate(per_slice.tolist()):
            counts[int(base[order[0]]) + e].filtered -= n
        return counts

    def _grid_batches(self, value):
        """The filtered points of one slice of a box of k with center,
        tested point by point against the u-small rows and dominance."""
        axes = [np.arange(self.lo[k], self.hi[k] + 1) for k in range(self.dim)]
        axes[self.perm[0]] = np.array([value])
        grid = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([g.reshape(-1) for g in grid], axis=1).astype(np.int64)
        large = ~(coords @ self.row_coeffs.T <= self.row_bounds).all(axis=1)
        pairing = self.tables.pairing.T
        dominant = (coords @ pairing >= 0).all(axis=1)
        dominant &= ((coords - self.tables.beta_coords) @ pairing >= 0).all(axis=1)
        coords = coords[large & dominant]
        if len(coords):
            yield coords

    def _reach_fits(self, base, budget: int) -> bool:
        """Whether magnitude_bound covers every vertex of the simplex screen
        in a band whose walk starts at base with cheap budget: a vertex
        coordinate is at most the box's largest or base_i plus the reach
        ceil(budget / c_i), as a row's slack is at most the budget."""
        coef = self.tables.cheap_coef_s.tolist()
        if min(coef) <= 0:  # an unbounded simplex
            return False
        reach = max(b - (-budget // c) for b, c in zip(base.tolist(), coef))
        return magnitude_bound(self.tables, max(self.coord_max, reach)) <= _INT64_MAX

    def _batches(self, first, last, band):
        """Yield the filtered points of slices first..last in the band, in
        batches of at least _BATCH_ROWS rows but the last: the walk of the
        module docstring over e = mu - base, slice coordinate first, but
        the subtrees the simplex screen rejects at the cutoff of the
        moment."""
        if not self.semisimple:
            for value in range(first, last + 1):
                yield from self._grid_batches(value)
            return
        above, upto = band
        order = self.perm
        base = self.base.copy()
        base[order[0]] = max(first, base[order[0]])
        edges = self.hi[order] - base[order]
        edges[0] = last - base[order[0]]
        if (edges < 0).any():
            return
        coef = self.tables.cheap_coef_s[order][None, :]
        coeffs, bounds = [np.eye(self.dim, dtype=np.int64)], [edges]
        if upto is not None:
            budget = upto - int(self.cheap(base))
            if budget < 0:
                return
            coeffs.append(coef)
            bounds.append([budget])
        drops = [(self.row_coeffs[:, order], self.row_bounds - self.row_coeffs @ base)]
        if above is not None:
            drops.append((coef, np.array([above - int(self.cheap(base))])))

        def place(e):  # walk rows e to k-type coordinates
            points = np.empty_like(e)
            points[:, order] = e + base[order]
            return points

        def screen(level, prefix, slack):  # the simplex screen
            cutoff = self.cutoff()
            if cutoff is None:
                return np.ones(len(prefix), dtype=bool)
            corner = place(np.pad(prefix, ((0, 0), (0, self.dim - level))))
            # the cheap row is the walk's last: its slack s bounds c @ y
            reach = -(-slack[:, -1:] // coef[:, level:])
            return simplex_lower_bounds(self.tables, corner, order[level:], reach) <= cutoff

        if upto is None or not self._reach_fits(base, budget):
            screen = None
        pending, rows = [], 0
        walk = _walk(np.vstack(coeffs), np.concatenate(bounds), drops, screen)
        for caps, prefix, start in walk:
            e, _ = _children(prefix, caps, start)
            if not len(e):
                continue
            pending.append(place(e))
            rows += len(e)
            if rows >= _BATCH_ROWS:
                yield np.concatenate(pending)
                pending, rows = [], 0
        if pending:
            yield np.concatenate(pending)


def _merge(results, scale) -> dict:
    total = _SliceResult()
    for r in results:
        total.add(r)
    low = total.min_scaled
    return {
        "scanned": total.scanned,
        "filtered": total.filtered,
        "violations": sorted((coords, Q(m, scale)) for coords, m in total.violations),
        "min_margin_sq": None if low is None else Q(low, scale),
    }


_worker = None  # the _Scanner of a --jobs pool worker


def _start_worker(scanner):
    global _worker
    _worker = scanner


def _slice_for_pool(task):
    return _worker.scan_slices(*task)


def _checkpoint_path(directory, case, ranges):
    """Slice-record file of one box scan, named by family and box, e.g.
    scan-FII-0-3_0-2_0-2_1-4.json. Records are written for inspection and
    never read back: every scan runs fresh."""
    box = "_".join(f"{lo}-{hi}" for lo, hi in ranges)
    return os.path.join(directory, f"scan-{case.id.family}-{box}.json")


def _save_checkpoint(path, done, finished=False):
    payload = {
        "finished": finished,
        "slices": {str(v): asdict(r) for v, r in sorted(done.items())},
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def _bands(scanner, best):
    """The cheap-bound bands (above, upto] of a scan, in order; best() is
    the smallest margin evaluated so far, read before each next band.
    While it is None, the bands above 0 reach the lowest cheap bound of
    the dominant sub-box, then double their width until they cover the
    box."""
    if not (scanner.shortcut and scanner.semisimple):
        yield None, None
        return
    yield None, 0
    above = 0
    low, top = int(scanner.cheap(scanner.base)), int(scanner.cheap(scanner.hi))
    while best() is None and above < top:
        upto = low if above < low else low + 2 * (above - low) + 1
        yield above, upto
        above = upto
    if best() is not None and best() > above:
        yield above, best()


def scan_box(case: CaseData, ranges, *, jobs: int = 1, shortcut: bool = True,
             checkpoint_dir: str | None = None, log=None) -> dict:
    """Scan every lattice point of the box; see pencil.verify_box."""
    ranges = tuple((int(lo), int(hi)) for lo, hi in ranges)
    scanner = _Scanner(case, ranges, shortcut)
    values = list(range(int(scanner.lo_p[0]), int(scanner.hi_p[0]) + 1))

    if checkpoint_dir is None:
        checkpoint_dir = os.environ.get("LIECHECK_CHECKPOINT_DIR") or None
    ckpath = None
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
        ckpath = _checkpoint_path(checkpoint_dir, case, ranges)

    t0 = time.monotonic()
    done = scanner.slice_counts()

    def best():
        mins = [r.min_scaled for r in done.values() if r.min_scaled is not None]
        return min(mins) if mins else None

    # A serial scan walks all slices of a pass at once: walking them one by
    # one took 1.5 to 3 times as long on the published boxes, whose slices
    # are small enough for the per-walk cost of the walk, screen and kernel
    # calls to dominate. A --jobs pool hands out one slice per task.
    workers = min(jobs, len(values))
    pool = None
    spans = [(values[0], values[-1])]
    scan, run = (lambda task: scanner.scan_slices(*task)), map
    if workers > 1:
        import multiprocessing as mp

        pool = mp.Pool(workers, initializer=_start_worker, initargs=(scanner,))
        spans = [(value, value) for value in values]
        scan, run = _slice_for_pool, pool.imap_unordered
    with pool or contextlib.nullcontext():
        for number, band in enumerate(_bands(scanner, best), 1):
            tasks = [(first, last, band, best()) for first, last in spans]
            finished = 0
            for part in run(scan, tasks):
                for value, result in part.items():
                    done[value].add(result)
                    done[value].passes = number
                finished += len(part)
                if ckpath:
                    _save_checkpoint(ckpath, done)
                if log:
                    log(
                        f"pass {number}: {finished}/{len(values)} slices done, "
                        f"{time.monotonic() - t0:.1f}s elapsed"
                    )
    if ckpath:
        _save_checkpoint(ckpath, done, finished=True)

    merged = _merge([done[v] for v in sorted(done)], scanner.tables.scale)
    merged["elapsed_ms"] = int((time.monotonic() - t0) * 1000)
    return merged
