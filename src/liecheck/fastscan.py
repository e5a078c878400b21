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

The box scan is a depth-first walk over coordinate prefixes with these
prunes, none of which can change the reported outcome:
  * a subtree entirely unitarily small contributes no checked points;
  * a subtree entirely unitarily large with no dominant mu - beta
    contributes no checked points;
  * a subtree whose cheap lower bound already exceeds the cutoff is
    counted but not evaluated. Each process keeps one running minimum per
    box, the smallest margin it has evaluated so far (seeded from one probe
    batch), and every cutoff is max(0, m) for such an m. As m is a margin
    of a filtered point of the box, every cutoff is at least
    max(0, box minimum), and the bound is a valid lower bound for every
    margin inside, so no violation and no point attaining the minimum can
    hide there. scanned and filtered do not depend on pruning, so the
    report does not depend on --jobs or on which process saw which slice;
  * a block (the innermost coordinates as one numpy grid) that one u-small
    row already makes u-large skips the per-point u-small test: every
    point is u-large, so its checked points are exactly the dominant tail
    points, and those under the cutoff are a prefix of the dominant tail
    points sorted by cheap bound. The picks are put back in walk order, so
    the kernel batches are the same as with the per-point test;
  * for semisimple k every u-small and cheap-bound coefficient is >= 0
    (checked per scan), so once a walk level reaches a value whose subtree
    is u-large, has a dominant prefix and lies above the cutoff, every
    larger value of that level does too. Its points are counted in one
    step and the level stops. The cutoff never rises, so none of them
    would have been evaluated later;
  * a walked point whose margin lower bound (margin_lower_bounds: the
    lowest floor of mu minus the value of mu - beta at its
    lowest-floor variant) exceeds the cutoff is counted but not sent to
    the margin kernel. Its margin is above the cutoff >= max(0, m), so it
    is neither a violation nor below the running minimum, and the running
    minimum evolves as without this prune. The seed probe and
    --no-shortcut have no cutoff and evaluate every point they walk.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction as Q
from math import isqrt, lcm

import numpy as np

from .cases import CaseData, ambient_to_ktype
from .errors import ConstructionError
from .rootdata import coroot_pairing, inner, norm_sq, root_closure
from .usmall import usmall_system

_BLOCK_TAIL = 4  # innermost coordinates enumerated as one numpy block
_FLUSH_SEEDED = 50_000
# Rows per best-first kernel chunk. Its (rows x variants) tables and pair
# arrays grow with it: on the published boxes, 1,024 rows raised peak memory
# by 7% over a per-variant kernel and 512 rows by 2%, at the same speed.
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
    return ScanTables(
        scale=scale,
        pairing=pairing,
        shift=shift,
        root_s=pairing.T @ root_half_s,
        root_var_s=shift @ root_half_s,
        gram_s=_ints(gram, "scaled table", scale),
        variant_s=_ints(variant, "scaled table", scale),
        variant_nrm_s=_ints(variant_nrm, "scaled table", scale),
        rho_c_nrm_s=rho_c_nrm_s,
        rho_c_lin_s=_ints(rho_c_lin, "scaled table", scale),
        rho_c_var_s=_ints(rho_c_var, "scaled table", scale),
        beta_coords=_ints(list(beta_c), "beta coordinates"),
        cheap_coef_s=_ints(cheap_coef, "scaled table", scale),
        cheap_const_s=cheap_const_s,
    )


def magnitude_bound(tables: ScanTables, coord_max: int) -> int:
    """Bound on the absolute value of every integer that the margin kernel
    and the cheap-bound prune compute for k-type coordinates of absolute
    value at most coord_max (rows mu and mu - beta alike).

    Each term bounds one family of intermediates by the sum of the absolute
    values of its addends. The root sum of a variant is
    scale * 2 <dom x, rho_c> <= 2 sqrt(scale |x|^2 * scale |rho_c|^2), and
    its addends and partial sums are nonnegative and at most the whole.
    margin_lower_bounds computes only floor entries, one variant value per
    row and their difference, which the kernel computes too, so the same
    bound covers it.
    """

    def abs_sum(arr):
        return int(np.abs(arr).sum())

    def abs_max(arr):  # largest absolute entry, or row sum for a matrix
        arr = np.abs(arr)
        return int((arr.sum(axis=1) if arr.ndim == 2 else arr).max(initial=0))

    a = coord_max + abs_max(tables.beta_coords)
    # scale * |x|^2 for x = mu - rho_n^j, and each of its parts
    norm_x = (
        a * a * abs_sum(tables.gram_s)
        + 2 * a * abs_max(tables.variant_s)
        + abs_max(tables.variant_nrm_s)
    )
    rho_c_term = 2 * (a * abs_sum(tables.rho_c_lin_s) + abs_max(tables.rho_c_var_s))
    root_sum = isqrt(4 * norm_x * tables.rho_c_nrm_s) + 1
    # one entry scale * <x, alpha> of the root table, addend by addend
    root_entry = a * abs_max(tables.root_s.T) + int(np.abs(tables.root_var_s).max())
    cheap = coord_max * abs_sum(tables.cheap_coef_s) + abs(tables.cheap_const_s)
    return 2 * norm_x + rho_c_term + root_sum + root_entry + tables.rho_c_nrm_s + cheap


def conjugate_dominant_bulk(c: np.ndarray, cartan: np.ndarray) -> np.ndarray:
    """Sweep pairing-coordinate rows into the dominant chamber in place.

    The scan does not call it: the kernel takes the rho_c pairing of each
    dominant conjugate from the root sum instead (see the module
    docstring). It stays as the oracle the tests hold that sum against.
    Applies the simple reflection at the lowest-index negative pairing,
    exactly like the single-vector conjugation, so the two agree on which
    dominant representative (and implicitly which Weyl word) is reached.
    Keeps an active row set so finished rows cost nothing.
    """
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


def bulk_spin_sq_scaled(tables: ScanTables, coords: np.ndarray,
                        lin: np.ndarray | None = None) -> np.ndarray:
    """Squared spin norms (times tables.scale) for rows of coords.

    The norm is the minimum over the rho_n variants j of
    |dom(x_j) + rho_c|^2 with x_j = mu - rho_n^j, whose rho_c part
    2 <dom x_j, rho_c> is the root sum of x_j (module docstring). Each
    variant has the floor |x_j|^2 + 2 max(0, <x_j, rho_c>) + |rho_c|^2 <=
    that value (the dominant conjugate maximizes the rho_c pairing over
    the orbit, and that pairing is nonnegative), which costs no root sum.
    The kernel is best-first: it evaluates each row's lowest-floor
    variant, then only the (row, variant) pairs whose floor is still below
    the row's value. A skipped pair has floor >= value, so it cannot lower
    the minimum, and the result is exact. Rows go in chunks of
    _CHUNK_ROWS, and so do the pairs of the second pass, because the
    (rows x variants) floor table and the (pairs x roots) tables grow with
    them.

    lin, if given, is the linear-term table _linear(tables, coords); a
    caller that already holds it for related rows passes it to save the
    largest product of the kernel.
    """
    out = np.empty(len(coords), dtype=np.int64)
    for start in range(0, len(coords), _CHUNK_ROWS):
        chunk = coords[start:start + _CHUNK_ROWS]
        chunk_lin = (
            _linear(tables, chunk) if lin is None
            else lin[start:start + _CHUNK_ROWS]
        )
        out[start:start + len(chunk)] = _best_first(tables, chunk, chunk_lin)
    return out


def _linear(tables: ScanTables, m: np.ndarray) -> np.ndarray:
    """The (rows x variants) table scale * -2 <mu, rho_n^j>; einsum beats
    matmul on int64 here."""
    return np.einsum("nk,ks->ns", -2 * m, np.ascontiguousarray(tables.variant_s.T))


def _floor(tables: ScanTables, m: np.ndarray, lin: np.ndarray) -> np.ndarray:
    """The (rows x variants) floor table of mu, without the row constant
    scale * (|mu|^2 + |rho_c|^2): it changes neither the argmin nor a
    comparison of floors with values of the same row.
    Entry: scale * (|rho_n^j|^2 + 2 max(0, <x_j, rho_c>)) + lin."""
    floor = np.add.outer(
        2 * (m @ tables.rho_c_lin_s), tables.variant_nrm_s - 2 * tables.rho_c_var_s
    )
    np.maximum(floor, tables.variant_nrm_s, out=floor)
    floor += lin
    return floor


def _row_constant(tables: ScanTables, m: np.ndarray) -> np.ndarray:
    return ((m @ tables.gram_s) * m).sum(axis=1) + tables.rho_c_nrm_s


def _value(tables: ScanTables, root_pair: np.ndarray, lin_at: np.ndarray,
           variants: np.ndarray) -> np.ndarray:
    """Values of the given variants, without the row constant, for rows
    with root table root_pair = mu @ root_s and linear terms lin_at."""
    roots = np.abs(root_pair - tables.root_var_s[variants]).sum(axis=1)
    return lin_at + tables.variant_nrm_s[variants] + roots


def _best_first(tables: ScanTables, m: np.ndarray, lin: np.ndarray) -> np.ndarray:
    floor = _floor(tables, m, lin)
    root_pair = m @ tables.root_s

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
    step = 2 * (tables.variant_s @ tables.beta_coords)
    out = np.empty(len(coords), dtype=np.int64)
    for start in range(0, len(coords), _CHUNK_ROWS):
        m = coords[start:start + _CHUNK_ROWS]
        lin = _linear(tables, m)
        upper = bulk_spin_sq_scaled(tables, m, lin)
        lin += step
        out[start:start + len(m)] = upper - bulk_spin_sq_scaled(
            tables, m - tables.beta_coords, lin
        )
    return out


def margin_lower_bounds(tables: ScanTables, coords: np.ndarray) -> np.ndarray:
    """Exact integer lower bounds on bulk_margins_scaled for rows of coords.

    spin(mu)^2 is at least the lowest floor of mu, and
    spin(mu - beta)^2 is at most the value of mu - beta at its own
    lowest-floor variant, so their difference bounds the margin from
    below. It costs the floor tables and one root sum per row, where the
    kernel needs at least two and usually more. Rows go in chunks of
    _CHUNK_ROWS, like the kernel's, to bound the memory of its tables.
    """
    step = 2 * (tables.variant_s @ tables.beta_coords)
    out = np.empty(len(coords), dtype=np.int64)
    for start in range(0, len(coords), _CHUNK_ROWS):
        m = coords[start:start + _CHUNK_ROWS]
        down = m - tables.beta_coords
        lin = _linear(tables, m)
        upper = _floor(tables, m, lin).min(axis=1) + _row_constant(tables, m)
        lin += step
        first = _floor(tables, down, lin).argmin(axis=1)
        lower = _value(
            tables, down @ tables.root_s, lin[np.arange(len(m)), first], first
        )
        out[start:start + len(m)] = upper - lower - _row_constant(tables, down)
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


class _Scanner:
    def __init__(self, case: CaseData, ranges, shortcut: bool):
        self.case = case
        self.tables = build_tables(case)
        coord_max = max(abs(v) for r in ranges for v in r)
        bound = magnitude_bound(self.tables, coord_max)
        if bound > _INT64_MAX:
            raise ConstructionError(
                f"{case.id.label}: box coordinates up to {coord_max} are too "
                f"large for the exact int64 scan (intermediates up to {bound}, "
                f"beyond 2^63 - 1)"
            )
        self.shortcut = shortcut
        system = usmall_system(case)
        self.row_coeffs = np.array(
            [list(c) for c, _ in system.rows], dtype=np.int64
        )
        self.row_bounds = np.array([b for _, b in system.rows], dtype=np.int64)
        self.semisimple = not case.k_has_center
        if self.semisimple and (
            (self.row_coeffs < 0).any() or (self.tables.cheap_coef_s < 0).any()
        ):
            # the u-large and cheap-bound prunes of the walk rely on it
            raise ConstructionError(
                f"{case.id.label}: negative u-small or cheap-bound coefficient"
            )
        self.dim = len(ranges)
        self.lo = np.array([r[0] for r in ranges], dtype=np.int64)
        self.hi = np.array([r[1] for r in ranges], dtype=np.int64)
        order = sorted(
            range(self.dim), key=lambda k: (-(self.hi[k] - self.lo[k]), k)
        )
        self.perm = order
        self.lo_p = self.lo[order]
        self.hi_p = self.hi[order]
        self.coeff_p = self.row_coeffs[:, order]
        self.beta_p = self.tables.beta_coords[order]
        self.cheap_p = self.tables.cheap_coef_s[order]

        # suffix tables, sign-aware so SP4R's negative coefficients work too
        nrows = len(self.row_bounds)
        self.min_rest = np.zeros((self.dim + 1, nrows), dtype=np.int64)
        self.max_rest = np.zeros((self.dim + 1, nrows), dtype=np.int64)
        self.cheap_rest = [0] * (self.dim + 1)
        # points of the subtree below each depth, and its dominant points
        # when the prefix is dominant
        self.size_at = [1] * (self.dim + 1)
        self.dom_at = [1] * (self.dim + 1)
        for d in range(self.dim - 1, -1, -1):
            col = self.coeff_p[:, d]
            self.min_rest[d] = self.min_rest[d + 1] + np.where(
                col > 0, col * self.lo_p[d], col * self.hi_p[d]
            )
            self.max_rest[d] = self.max_rest[d + 1] + np.where(
                col > 0, col * self.hi_p[d], col * self.lo_p[d]
            )
            lo, hi = int(self.lo_p[d]), int(self.hi_p[d])
            self.cheap_rest[d] = self.cheap_rest[d + 1] + int(self.cheap_p[d]) * lo
            self.size_at[d] = self.size_at[d + 1] * (hi - lo + 1)
            self.dom_at[d] = self.dom_at[d + 1] * max(
                0, hi - max(lo, int(self.beta_p[d])) + 1
            )
        self.block_depth = max(1, self.dim - _BLOCK_TAIL)

        # Every block shares one tail grid over the innermost coordinates,
        # so its inequality, dominance, and cheap-bound contributions are
        # computed once; per block only the fixed prefix's scalars shift.
        d0 = self.block_depth
        tail_axes = [
            np.arange(self.lo_p[k], self.hi_p[k] + 1, dtype=np.int64)
            for k in range(d0, self.dim)
        ]
        self.tail_orig = [self.perm[k] for k in range(d0, self.dim)]
        if tail_axes:
            grids = np.meshgrid(*tail_axes, indexing="ij")
            self.tail_coords = np.stack([g.reshape(-1) for g in grids], axis=1)
        else:
            self.tail_coords = np.zeros((1, 0), dtype=np.int64)
        self.tail_count = len(self.tail_coords)
        tail_coeffs = self.row_coeffs[:, self.tail_orig]
        self.tail_lhs = self.tail_coords @ tail_coeffs.T
        self.tail_cheap = (
            self.tail_coords @ self.tables.cheap_coef_s[self.tail_orig]
        )
        if self.semisimple:
            tail_beta = self.tables.beta_coords[self.tail_orig]
            self.tail_dom = (self.tail_coords >= tail_beta).all(axis=1)
            # the dominant tail points by ascending cheap bound, for the
            # blocks in which every point is u-large
            dom_rows = np.flatnonzero(self.tail_dom)
            self.dom_by_cheap = dom_rows[
                np.argsort(self.tail_cheap[dom_rows], kind="stable")
            ]
            self.dom_cheap = self.tail_cheap[self.dom_by_cheap]
        else:
            self.tail_dom = None
        # smallest margin this process has evaluated in this box, or None
        self.best = None

    def scan_slice(self, first_value: int) -> _SliceResult:
        """Scan the slice whose first walked coordinate is first_value.

        With the shortcut, subtrees are pruned against self.best, which is
        lowered after every kernel batch, and the kernel gets only the rows
        of a batch whose margin_lower_bounds is at most the cutoff;
        min_scaled covers only the points this slice evaluated, and is None
        if it evaluated none.
        """
        state = _SliceResult()
        for coords in self._batches(first_value, state):
            cutoff = self._cutoff()
            if cutoff is not None:
                coords = coords[margin_lower_bounds(self.tables, coords) <= cutoff]
                if not len(coords):
                    continue
            margins = bulk_margins_scaled(self.tables, coords)
            low = int(margins.min())
            if state.min_scaled is None or low < state.min_scaled:
                state.min_scaled = low
            self.best = low if self.best is None else min(self.best, low)
            for i in np.nonzero(margins <= 0)[0]:
                state.violations.append(
                    (tuple(int(x) for x in coords[i]), int(margins[i]))
                )
        return state

    def first_batch_min(self, values) -> int | None:
        """Minimum margin of the first kernel batch of a walk over the
        slices in values, taken in order, while self.best is None; None if
        none has a point to evaluate. scan_box starts self.best with it."""
        for value in values:
            for coords in self._batches(value, _SliceResult()):
                return int(bulk_margins_scaled(self.tables, coords).min())
        return None

    def _cutoff(self):
        """Cheap bound above which a point cannot matter, or None."""
        if not self.shortcut or self.best is None:
            return None
        return max(0, self.best)

    def _batches(self, first_value, state):
        """Yield the points of one slice to evaluate, in kernel batches.

        The walk reads the cutoff at every prune, so a caller that lowers
        self.best between batches tightens the rest of the walk.
        """
        prefix = np.zeros(self.dim, dtype=np.int64)
        prefix[0] = first_value
        args = (
            prefix,
            self.coeff_p[:, 0] * first_value,
            int(self.cheap_p[0]) * first_value,
            first_value >= int(self.beta_p[0]),
            state,
        )
        picks = self._walk(1, *args)
        buffer, buffered = [], 0
        for coords in picks:
            if coords is not None:
                buffer.append(coords)
                buffered += len(coords)
            flush = _CHUNK_ROWS if self.best is None else _FLUSH_SEEDED
            if buffered >= flush:
                yield np.concatenate(buffer, axis=0)
                buffer, buffered = [], 0
        if buffered:
            yield np.concatenate(buffer, axis=0)

    def _walk(self, depth, prefix, partial, cheap_partial, prefix_dom, state):
        """Yield, block by block, the points of this subtree to evaluate
        (None for a block with none). Return True if the subtree is
        u-large, has dominant points and lies above the cheap cutoff."""
        if np.all(partial + self.max_rest[depth] <= self.row_bounds):
            state.scanned += self.size_at[depth]
            return
        large = self.semisimple and np.any(
            partial + self.min_rest[depth] > self.row_bounds
        )
        if large:
            dom = self.dom_at[depth] if prefix_dom else 0
            if dom == 0:
                state.scanned += self.size_at[depth]
                return
            cutoff = self._cutoff()
            if (
                cutoff is not None
                and cheap_partial + self.cheap_rest[depth] - self.tables.cheap_const_s
                > cutoff
            ):
                state.scanned += self.size_at[depth]
                state.filtered += dom
                return True
        if depth >= self.block_depth:
            yield self._block(prefix, partial, cheap_partial, prefix_dom, large, state)
            return
        col = self.coeff_p[:, depth]
        cheap_c = int(self.cheap_p[depth])
        beta_d = int(self.beta_p[depth])
        hi = int(self.hi_p[depth])
        for v in range(int(self.lo_p[depth]), hi + 1):
            prefix[depth] = v
            pruned = yield from self._walk(
                depth + 1,
                prefix,
                partial + col * v,
                cheap_partial + cheap_c * v,
                prefix_dom and v >= beta_d,
                state,
            )
            if pruned:
                # Coefficients are >= 0 and the cutoff never rises, so every
                # later value of this level is pruned the same way.
                state.scanned += (hi - v) * self.size_at[depth + 1]
                state.filtered += (hi - v) * self.dom_at[depth + 1]
                break

    def _build_coords(self, prefix, rows):
        coords = np.empty((len(rows), self.dim), dtype=np.int64)
        for k in range(self.block_depth):
            coords[:, self.perm[k]] = prefix[k]
        for i, orig in enumerate(self.tail_orig):
            coords[:, orig] = self.tail_coords[rows, i]
        return coords

    def _block(self, prefix, partial, cheap_partial, prefix_dom, large, state):
        """The points of one block to evaluate, or None. large: the walk
        found every point of the block u-large, and some of them dominant."""
        state.scanned += self.tail_count
        if large:
            state.filtered += len(self.dom_by_cheap)
            cutoff = self._cutoff()
            count = len(self.dom_by_cheap) if cutoff is None else np.searchsorted(
                self.dom_cheap,
                cutoff - (cheap_partial - self.tables.cheap_const_s),
                side="right",
            )
            rows = np.sort(self.dom_by_cheap[:count])
            return self._build_coords(prefix, rows) if rows.size else None
        small = (self.tail_lhs + partial <= self.row_bounds).all(axis=1)
        if self.semisimple:
            if not prefix_dom:
                return None
            eligible = ~small & self.tail_dom
        else:
            coords = self._build_coords(prefix, np.arange(self.tail_count))
            stepped = coords - self.tables.beta_coords
            dominant = (stepped @ self.tables.pairing.T >= 0).all(axis=1)
            dominant &= (coords @ self.tables.pairing.T >= 0).all(axis=1)
            eligible = ~small & dominant
        count = int(eligible.sum())
        if count == 0:
            return None
        state.filtered += count
        picked = eligible
        cutoff = self._cutoff()
        if cutoff is not None:
            cheap = self.tail_cheap + (cheap_partial - self.tables.cheap_const_s)
            picked = eligible & (cheap <= cutoff)
        rows = np.nonzero(picked)[0]
        return self._build_coords(prefix, rows) if rows.size else None


def _merge(results, scale) -> dict:
    scanned = sum(r.scanned for r in results)
    filtered = sum(r.filtered for r in results)
    mins = [r.min_scaled for r in results if r.min_scaled is not None]
    violations = sorted(
        (coords, Q(m, scale)) for r in results for coords, m in r.violations
    )
    return {
        "scanned": scanned,
        "filtered": filtered,
        "violations": violations,
        "min_margin_sq": Q(min(mins), scale) if mins else None,
    }


_worker = None  # the _Scanner of a --jobs pool worker


def _start_worker(scanner):
    global _worker
    _worker = scanner


def _slice_for_pool(value):
    return value, _worker.scan_slice(value)


def _checkpoint_path(directory, case, ranges):
    """Slice-record file of one box scan, named by family and box, e.g.
    scan-FII-0-3_0-2_0-2_1-4.json. Records are written for inspection and
    never read back: every scan runs fresh."""
    box = "_".join(f"{lo}-{hi}" for lo, hi in ranges)
    return os.path.join(directory, f"scan-{case.id.family}-{box}.json")


def _save_checkpoint(path, done):
    payload = {"slices": {str(v): asdict(r) for v, r in sorted(done.items())}}
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def scan_box(case: CaseData, ranges, *, jobs: int = 1, shortcut: bool = True,
             checkpoint_dir: str | None = None, log=None) -> dict:
    """Scan every lattice point of the box; see pencil.verify_box."""
    ranges = tuple((int(lo), int(hi)) for lo, hi in ranges)
    probe = _Scanner(case, ranges, shortcut)
    scale = probe.tables.scale
    slice_values = list(range(int(probe.lo_p[0]), int(probe.hi_p[0]) + 1))

    if checkpoint_dir is None:
        checkpoint_dir = os.environ.get("LIECHECK_CHECKPOINT_DIR") or None
    ckpath = None
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
        ckpath = _checkpoint_path(checkpoint_dir, case, ranges)

    t0 = time.monotonic()
    if shortcut:
        probe.best = probe.first_batch_min(slice_values)

    def results():
        workers = min(jobs, len(slice_values))
        if workers > 1:
            import multiprocessing as mp

            with mp.Pool(workers, initializer=_start_worker, initargs=(probe,)) as pool:
                yield from pool.imap_unordered(_slice_for_pool, slice_values)
        else:
            for value in slice_values:
                yield value, probe.scan_slice(value)

    done = {}
    for completed, (value, result) in enumerate(results(), 1):
        done[value] = result
        if ckpath:
            _save_checkpoint(ckpath, done)
        if log:
            log(
                f"slice {value} done ({completed}/{len(slice_values)}), "
                f"{time.monotonic() - t0:.1f}s elapsed"
            )

    merged = _merge([done[v] for v in sorted(done)], scale)
    merged["elapsed_ms"] = int((time.monotonic() - t0) * 1000)
    return merged
