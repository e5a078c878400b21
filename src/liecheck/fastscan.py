"""Bulk integer engine behind box verification.

Everything here works in exact integer arithmetic: k-type coordinates are
integers, pairings against coroots are integers, and every rational
constant (weight Gram matrix, rho_c pairings) is read from one integer
Gram matrix and cleared to a common denominator once per case
(build_tables). Squared spin norms come out as int64 values
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
drops the u-small values and, in pass 2, those with cheap(mu) <= 0.
scanned is the box size and filtered the dominant sub-box minus its
u-small points, neither depending on what is evaluated; both are exact
integers, the u-small points counted by a walk of their own. The walk
takes the longest edge first (first on ties), then the others shortest
edge first, so its last coordinate, whose values usmall._walk yields as
runs, is the longest of the others. The order stays because it measured
best (README, "Long scans"); it changes what is evaluated, not the
report (below). The scan keeps one running minimum best and one list of
violations, and walks two passes over the whole box:
  * pass 1 walks {cheap <= 0}, which holds every violation, as
    cheap <= margin <= 0 for each one;
  * pass 2 walks {0 < cheap <= max(0, best)} once. Its cheap budget starts
    at the box's top, or at max(0, best) if lower, and the walk's screen
    lowers the cheap slack of each new frontier row to max(0, best) -
    cheap(prefix), dropping the rows left below 0. This is exact, as
    max(0, best) only falls, and it never cuts pass 1, whose budget is <= 0.
A point reaches the kernel only if the simplex bound of each frontier row
above it (below), its cheap bound and its margin_lower_bounds are all at
most max(0, best). The walk hands its points on in batches of about
_CHUNK_ROWS rows, one kernel chunk, and best falls after every batch;
the first point walked goes to the kernel alone, so that a margin is
known before anything is screened. The three bounds are at most
margin(m*) = min <= best for the minimizer m* and for every violation
(a simplex bound is at most the margin of each point under its row), so
they are evaluated.
k with center (SP4R: rows of both signs, small boxes) lists the filtered
points of its whole box grid once and evaluates them in two batches,
{cheap <= 0} first, so that the same two tests cut the second by the
minimum of the first. --no-shortcut evaluates every filtered point.

With LIECHECK_CHECKPOINT_DIR set, scan_box writes a record file for
inspection: one record per value of the first walked coordinate, with
the points of the box at that value scanned and filtered (the u-small
count walk that gives the report its filtered count, tallied by that
coordinate) and the violations among them.
A record holds no minimum: the least margin a value's evaluated points
reach depends on the cutoff that the other values set.

Each variant j has the floor |x + rho_c|^2 <= |dom x + rho_c|^2, x =
mu - rho_n^j: dom x - x is a sum of positive roots of k, each with
<alpha, rho_c> > 0, so <x, rho_c> <= <dom x, rho_c>. With lin_j =
-2 <mu, rho_n^j>, c_j = |rho_n^j|^2 - 2 <rho_n^j, rho_c> and r =
2 <mu, rho_c>, the floor is lin_j + c_j + r and the value lin_j + c_j +
2 <rho_n^j, rho_c> plus the root sum, each plus the row constant
|mu|^2 + |rho_c|^2. So the kernel's float64 (rows x variants) table
lin + c (_table) gives a floor as an entry plus r, and a value as an
entry plus 2 <rho_n^j, rho_c> plus the root sum. The kernel evaluates
the lowest floor first and skips every variant whose floor is not below
the value found; bulk_margins_scaled is the difference of two kernel
calls, so the kernel builds the table of mu - beta with its own product.
Every table entry and floor is an integer below 2^53 (magnitude_bound),
so the float64 table is exact. The kernel asks whether a floor is below
a value as whether the table entry is below the int64 value less r, and
that comparison is exact too: a difference below 2^53 in absolute value
converts exactly, and one beyond to a float beyond 2^53 of the same sign
(rounding is monotone), beyond every entry. The root sum is taken in
float64 and only its (rows,) result is cast to int64: magnitude_bound's
root_entry and root_sum terms, which bound each addend and each partial
sum, lie inside its floats bound, so every one is a nonnegative integer
below 2^53.

The lowest floor has a closed form. Let Delta+(p) be the noncompact
positive roots (case.p_positive), so that 2 rho_n = sum of Delta+(p)
and rho_n^j = w_j rho - rho_c for w_j in W^1, the w with w^-1 Delta+(k)
in Delta+(g). For mu k-dominant,
  min_j (lin_j + c_j) = |rho|^2 - |rho_c|^2
                        - sum over gamma in Delta+(p) of |<mu + 2 rho_c, gamma>|.
  1. |rho_n^j + rho_c| = |w_j rho| = |rho| (validate_case checks it), so
     c_j = |rho|^2 - |rho_c|^2 - 4 <rho_n^j, rho_c>, and lin_j + c_j =
     |rho|^2 - |rho_c|^2 - <mu + 2 rho_c, 2 rho_n^j>.
  2. w_j in W^1 keeps Delta+(k) positive: Delta+(k) lies in w_j Delta+(g).
     The roots of k and of p, counted with multiplicity, are W(g)-stable,
     so 2 w_j rho, the sum of their members in w_j Delta+(g), is 2 rho_c
     plus one of +gamma, -gamma for each gamma in Delta+(p): 2 rho_n^j =
     sum of +-gamma, and <mu + 2 rho_c, 2 rho_n^j> is at most the sum of
     the |<mu + 2 rho_c, gamma>|.
  3. The chamber of v = mu + 2 rho_c attains it: take w in W(g) with
     w^-1 v dominant. v is strictly k-dominant, so w^-1 sends Delta+(k)
     into Delta+(g) and w is some w_j; every root in w Delta+(g) pairs
     with v to at least 0, so each sign in step 2 is that of the pairing.
The screens take F from this form, so they need no (rows x variants)
table. For semisimple k their rows lie in the orthant mu >= 0 (k-type
coordinates on the fundamental weights of k, base >= beta >= 0), where
the pairing sum_i mu_i <omega_i, gamma> + <2 rho_c, gamma> keeps one sign
exactly when its coefficients share it. The absolute value of such a
sign-fixed root is linear on the orthant and joins the bound's linear
column (screen_s, column 0); the others keep theirs (screen_s, the
remaining columns): 29 of 64 roots on EVIII, 35 of 56 on EIX, 15 of 20 on
EII, 0 or 1 on the classical series. For k with center (SP4R) the rows
fill no orthant, and every root keeps its absolute value.

Every chunk writes its float64 tables into one workspace per process
(_Workspace), each role's buffer grown to a full chunk of the widest
table asked for: the kernel's (rows x variants) table, its (rows x
roots) root table and the two gathers of its root sum, and the screens'
vertex rows, corner table, floor and root tables, each at most
_CHUNK_ROWS rows. Allocated per chunk, the kernel's and screens' tables
were 553 and 229 kB on EVIII and 492 and 262 kB on EIX, above glibc's
mmap threshold, so each chunk mapped fresh pages and faulted them in: a
warm verify of the last EVIII slice took 2,290 minor page faults and the
last EIX slice 6,456-6,483. In a workspace they take 0 and 6 (2-core
machine, Python 3.11.7, NumPy 2.4.6). A workspace per case kept one set
of buffers per case scanned: verify on the ten published boxes in one
process peaked at 40.9 MB RSS with one per case, 37.5 MB with one per
process.

The screens rest on one concave bound. Fix a variant j' of mu - beta.
  1. F(mu) = min_j (lin_j + c_j) + r + |mu|^2 + |rho_c|^2, the lowest
     floor, is at most spin(mu)^2; less |mu|^2 it is a minimum of affine
     functions of mu, so concave, and on the rows of the screens it is
     the closed form above, a constant plus a linear function less a sum
     of absolute values of affine functions, concave on all of R^n.
  2. The value V(mu) of mu - beta at j' is at least spin(mu - beta)^2;
     less |mu - beta|^2 it is an affine function plus the root sum, a sum
     of absolute values of affine functions, so convex.
  3. So F - V <= margin, and F - V is concave, as the |mu|^2 -
     |mu - beta|^2 = 2 <mu, beta> - |beta|^2 that the two leave is linear.
Less the absolute values, F - V is one linear column over all j', with
the sign-fixed roots and that linear remainder folded in, less the value
of mu - beta at j' without its root sum (_concave_bounds).
margin_lower_bounds is F - V at each row, j' the row argmin of lin + c +
step_j (down_table_s, step_j = 2 <beta, rho_n^j>, as lin_j moves by
step_j from mu to mu - beta), the lowest-floor variant of mu - beta;
magnitude_bound covers every integer and float64 value it computes, as
for any row of the box.

The simplex screen drops whole subtrees of the walk. Take a frontier row
that fixes the first l walked coordinates (the prefix) and leaves k >= 1
free, with slack s >= 0 on the cheap row, and c_i the cheap coefficients
of the free coordinates, all > 0 (else no simplex is screened).
  1. Every point under the row is e = (prefix, y) with y >= 0 integral and
     c @ y <= s.
  2. Such a y lies in the lattice simplex with the k + 1 vertices 0 and
     t_i e_i, t_i = ceil(s / c_i): sum_i y_i / t_i <= sum_i y_i c_i / s
     <= 1 (for s = 0, y = 0, and every vertex is the corner (prefix, 0)).
  3. The screen's F - V with j' fixed, the closed form with the
     sign-fixed roots taken as linear, is concave on all of R^n: F less
     |mu|^2 is then a linear function less a sum of absolute values of
     affine functions, and V less |mu - beta|^2 an affine function plus
     such a sum. It is the true F - V on the orthant mu >= 0, which holds
     the simplex, as it holds every vertex (coordinates >= base >= 0).
  4. So on the simplex F - V is least at a vertex, and its least vertex
     value bounds the margin at every point under the row.
simplex_lower_bounds takes that least value, with j' the lowest-floor
variant of the corner less beta; where it exceeds max(0, best), the
screen that _Scanner._batches hands usmall._walk drops the row before
_children expands it. At the last level a row's subtree is its run,
start..cap with cap <= floor(s / c), and its simplex is the segment from
(prefix, 0) to (prefix, ceil(s / c)): a point is a simplex of one
vertex, and the row screen and the walk's screen share one body
(_concave_bounds). The vertices need not be points of the box: a vertex
coordinate is at most base_i + ceil(budget / c_i), as s only falls from
the pass's budget, so each pass checks magnitude_bound at that reach once
(_Scanner._reach_fits); past it (pass 2 of G's largest accepted box) the
screen only lowers slacks.

On the last EVIII slice pass 1 is empty, and pass 2 yields 220 runs of
1,512 points; its first point, alone in the kernel, is the minimum, and
the screens evaluate F - V at 16,682 points: 15,171 vertices of 4,463
frontier rows and 1,511 rows.

A tighter floor, |x|^2 + 2 max(0, <x, rho_c>) + |rho_c|^2, and a second
pair of floor tables for rows near the walls of k were measured against
this one and dropped: on every published box, the last EVIII and EIX
slices, an EVI slice and two SP4R boxes they sent the same rows to the
kernel. Two screen sets with the simplex screen stopping above the last
level, and a separate run screen on the two ends of each run of at least
three points, a second code path, were measured and dropped as well.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd, isqrt

import numpy as np

from .cases import CaseData, per_case
from .errors import ConstructionError
from .rootdata import int_product, int_rows
from .usmall import _children, _walk, usmall_system

# Rows per scan batch, per best-first kernel chunk, and per screen chunk
# over all the vertices of its rows. Its (rows x variants) tables and pair
# arrays grow with it: on the published boxes, 1,024 rows raised peak memory
# by 7% over a per-variant kernel and 512 rows by 2%, at the same speed. It
# also keeps each float64 product on one OpenBLAS thread (_product), and it
# sizes the workspace (_Workspace) that every chunk writes its float64
# tables into: made per chunk, those tables cost a warm verify of the last
# EIX slice about 6,500 minor page faults, and 6 in the workspace (module
# docstring).
_CHUNK_ROWS = 512
_INT64_MAX = 2**63 - 1


class _Workspace:
    """The float64 scratch tables that every chunk of every scan in the
    process writes into (module docstring): one flat buffer per role,
    grown to a full chunk of the widest table asked for, so a chunk
    writes into the leading rows of a reused buffer. No array that a
    public function returns is a view of these. Being shared scratch, it
    admits one scan at a time: the package starts no threads."""

    def __init__(self):
        self.buffers = {}

    def __call__(self, role: str, rows: int, width: int) -> np.ndarray:
        """A C-ordered (rows, width) view of the role's buffer, rows at
        most _CHUNK_ROWS."""
        size = rows * width
        buf = self.buffers.get(role)
        if buf is None or len(buf) < size:
            buf = self.buffers[role] = np.empty(_CHUNK_ROWS * width)
        return buf[:size].reshape(rows, width)


_WORKSPACE = _Workspace()


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
    # the floor table's constants (module docstring)
    table_s: np.ndarray  # (l + 1, s): -2 variant_s.T over c_j, float64
    down_table_s: np.ndarray  # (l + 1, s): table_s with c_j + step_j, float64
    # the screen's concave bound (module docstring): its linear column (with
    # the sign-fixed roots), then per noncompact positive root gamma whose
    # pairing with mu + 2 rho_c can change sign on the scan domain
    # scale * <basis_k, gamma>; each over its constant, <2 rho_c, gamma>
    # for a root. The root table of mu - beta, likewise over a constant row
    screen_s: np.ndarray  # (l + 1, 1 + c)
    screen_f: np.ndarray  # screen_s as float64
    root_down_s: np.ndarray  # (l + 1, |Delta+(k)|): root_s over -beta @ root_s, float64
    # the per-call constants of _value
    rho_c_var2_s: np.ndarray  # (s,): 2 * rho_c_var_s
    root_var_f: np.ndarray  # root_var_s as float64
    beta_nrm_s: int  # scale * |beta|^2


def _exact(num: np.ndarray, den, what: str) -> np.ndarray:
    """num / den (den > 0, broadcast), refused unless it is integral."""
    quo, rem = np.divmod(num, den)
    if rem.any():
        raise ConstructionError(f"{what} is not integral")
    return quo


@per_case
def build_tables(case: CaseData) -> ScanTables:
    """The scan tables of a case, every inner product read from one integer
    Gram matrix G = X X^T, X the k-type basis, the rho_n variants, the
    k-simple roots, the noncompact positive roots, rho_c and beta times
    their common denominator D. Each rational table entry is then an
    integer over E = 2 D^2 (half_sq is G / E, every other entry 2 G / E or
    4 G / E), so scale, the least common denominator of the entries, is
    E / gcd(E, every numerator). The coroot pairings 2 G[v, delta] /
    G[delta, delta] must be integers, and so must the noncompact root
    pairings of the screen at that scale."""
    k = case.k_system
    l, s, r = len(case.ktype_basis), len(case.rho_n_variants), len(k.simple_roots)
    x, den = int_rows(case.ktype_basis + case.rho_n_variants + k.simple_roots
                      + tuple(sorted(case.p_positive)) + (case.rho_c, case.beta))
    gram = int_product(x, x.T, 16)  # room for the cheap constant's 10 G
    b, v, d = slice(0, l), slice(l, l + s), slice(l + s, l + s + r)
    n, c, e = slice(l + s + r, -2), -2, -1
    d_sq = gram.diagonal()[d]
    pairing = _exact(2 * gram[d, b], d_sq[:, None], "coordinate pairing")
    shift = _exact(2 * gram[v, d], d_sq, "variant pairing")
    # beta's pairings with the k-simple coroots, or for k with center with
    # the orthonormal basis; either way they must give beta back
    if case.k_has_center:
        beta_coords = _exact(gram[b, e], den * den, "beta coordinate")
    else:
        beta_coords = _exact(2 * gram[d, e], d_sq, "beta coordinate")
    if (beta_coords @ x[b] != x[e]).any():
        raise ConstructionError(f"{case.id.label}: beta is not in the k-type span")
    # the numerators over E: gram, variant, variant_nrm, half_sq, rho_c_lin,
    # rho_c_var, cheap_coef and the two constants
    parts = (2 * gram[b, b], 2 * gram[v, b], 2 * gram.diagonal()[v], d_sq,
             2 * gram[b, c], 2 * gram[v, c], 4 * gram[b, e],
             np.array([2 * gram[c, c],
                       4 * gram[c, e] + 4 * gram[v, e].max() + 2 * gram[e, e]]))
    common = gcd(2 * den * den, *(int(np.gcd.reduce(p, axis=None)) for p in parts))
    (gram_s, variant_s, variant_nrm_s, half_sq_s, rho_c_lin_s, rho_c_var_s,
     cheap_coef_s, consts_s) = (p // common for p in parts)
    # <v, alpha> = sum_i <v, delta_i coroot> |delta_i|^2 / 2 * n_i for the
    # positive root alpha = sum_i n_i delta_i, so both root tables are the
    # integer pairing tables times half_sq times integer root coordinates
    root_half_s = half_sq_s[:, None] * np.array(k.root_table, dtype=np.int64).T
    root_s = pairing.T @ root_half_s
    root_var_s = shift @ root_half_s
    step_s = 2 * (variant_s @ beta_coords)
    beta_nrm_s = int(beta_coords @ gram_s @ beta_coords)
    # per noncompact positive root gamma, scale * <basis_k, gamma> over
    # scale * <2 rho_c, gamma>; for semisimple k the scan domain is the
    # orthant mu >= 0, where the pairing of mu + 2 rho_c with gamma keeps
    # one sign exactly when the whole column does (module docstring)
    roots_s = _exact(np.vstack([2 * gram[b, n], 4 * gram[c, n]]), common,
                     "noncompact root pairing")
    sign = np.zeros(roots_s.shape[1], dtype=np.int64)
    if not case.k_has_center:
        sign = np.where((roots_s >= 0).all(axis=0), 1, np.where((roots_s <= 0).all(axis=0), -1, 0))
    # the linear column over its constant, scale * (|rho|^2 - |rho_c|^2)
    # read at the variant rho_n
    lin = np.append(2 * rho_c_lin_s + cheap_coef_s,
                    variant_nrm_s[0] + 2 * rho_c_var_s[0] - beta_nrm_s) - roots_s @ sign
    screen_s = np.column_stack([lin, roots_s[:, sign == 0]])
    return ScanTables(
        scale=2 * den * den // common,
        pairing=pairing,
        shift=shift,
        root_s=root_s,
        root_var_s=root_var_s,
        gram_s=gram_s,
        variant_s=variant_s,
        variant_nrm_s=variant_nrm_s,
        rho_c_nrm_s=int(consts_s[0]),
        rho_c_lin_s=rho_c_lin_s,
        rho_c_var_s=rho_c_var_s,
        beta_coords=beta_coords,
        cheap_coef_s=cheap_coef_s,
        cheap_const_s=int(consts_s[1]),
        # C-ordered (_product); the last row is c_j, or c_j + step_j
        table_s=np.vstack(
            [-2 * variant_s.T, variant_nrm_s - 2 * rho_c_var_s]
        ).astype(np.float64),
        down_table_s=np.vstack(
            [-2 * variant_s.T, variant_nrm_s - 2 * rho_c_var_s + step_s]
        ).astype(np.float64),
        screen_s=screen_s,
        screen_f=screen_s.astype(np.float64),
        root_down_s=np.vstack([root_s, -(beta_coords @ root_s)]).astype(np.float64),
        rho_c_var2_s=2 * rho_c_var_s,
        root_var_f=root_var_s.astype(np.float64),
        beta_nrm_s=beta_nrm_s,
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
    The kernel and the screens take it in float64 (_value,
    _concave_bounds), which is exact as root_entry, bounding each
    root-table entry less a variant's, and root_sum both lie inside floats.
    A floor is a table entry plus r (at most lin_part + rho_c_term), and
    so is an entry of the screens' corner table (down_table_s).

    The screens take their whole bound in float64 (_concave_bounds): the
    linear column (at most lin_col), less the absolute values of the floor
    roots (each at most its addends, together at most floor_sum) and of
    the root table of mu - beta less a variant's (root_sum), less a
    variant value of mu - beta without its root sum (lin_part, and so are
    the moves along each axis). Each sum and partial sum, and the bound,
    is at most screen = lin_col + floor_sum + root_sum + lin_part in
    absolute value, which lies inside floats; so the bound is an exact
    integer, cast to int64 once. The simplex screen computes the same at
    its vertices, which may lie past the box edge; _Scanner._reach_fits
    calls this bound at their reach once per pass (module docstring).
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
    # the screen's row: its linear column, the absolute sum of its floor
    # roots, the root sum, and a variant value of mu - beta
    lin_col = a * abs_sum(tables.screen_s[:-1, 0]) + abs(int(tables.screen_s[-1, 0]))
    floor_sum = a * abs_sum(tables.screen_s[:-1, 1:]) + abs_sum(tables.screen_s[-1, 1:])
    screen = lin_col + floor_sum + root_sum + lin_part
    floats = max(lin_part + rho_c_term, root_entry, screen)
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
    (rows x variants) table and the (pairs x roots) tables grow with them.
    """
    out = np.empty(len(coords), dtype=np.int64)
    for start in range(0, len(coords), _CHUNK_ROWS):
        chunk = coords[start:start + _CHUNK_ROWS]
        out[start:start + len(chunk)] = _best_first(tables, chunk)
    return out


def _product(m: np.ndarray, table: np.ndarray, out=None) -> np.ndarray:
    """m @ table for integer rows and an integer table, as one float64
    matrix product, written into out (a C-ordered float64 array of the
    result's shape, a workspace table) or, without out, into a new array.
    Exact: magnitude_bound bounds the sum of the absolute
    values of each entry's addends below 2^53, so every product and every
    partial sum is an integer below 2^53, in any BLAS blocking or
    summation order, with or without FMA.

    On a 2-core machine (OpenBLAS 0.3.31) a 512 x 9 by 9 x 135 table
    took 47 us, against 189 us for the float64 einsum used before.
    OpenBLAS ran it on one thread; from 9 x 300 tables on it used two
    threads, and no family that verify scans has tables beyond EVIII's
    9 x 135 and EIX's 8 x 64. Rows count too: with 1,024 rows the 9 x 135
    product ran on two threads (cpu time twice wall time, 4,608 rows as
    well), 768 rows still on one, so no caller passes more than
    _CHUNK_ROWS rows. The table must be C-ordered: with a transposed one
    the same product took 333 us on two threads."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    return np.matmul(np.asarray(m, dtype=np.float64), table, out=out)


def _table(tables: ScanTables, m: np.ndarray, out=None) -> np.ndarray:
    """The float64 (rows x variants) table lin_j + c_j of mu (module
    docstring), from one product: a column of ones meets the row c."""
    padded = np.ones((len(m), m.shape[1] + 1))
    padded[:, :-1] = m
    return _product(padded, tables.table_s, out)


def _row_constant(tables: ScanTables, m: np.ndarray) -> np.ndarray:
    return ((m @ tables.gram_s) * m).sum(axis=1) + tables.rho_c_nrm_s


def _value(tables: ScanTables, table: np.ndarray, root_pair: np.ndarray, rows,
           variants: np.ndarray) -> np.ndarray:
    """Values of the given (row, variant) pairs, without the row constant,
    for rows with float64 tables table (_table) and root_pair = mu @ root_s:
    an entry plus 2 <rho_n^j, rho_c> plus the root sum. rows None takes
    the rows in order, one per variant, and skips the row gather of the
    root table. The root sum is taken in the workspace in float64
    and only its (pairs,) result is cast: every entry of root_pair less a
    row of root_var_s is an integer of absolute value at most
    magnitude_bound's root_entry, and the sum of their absolute values,
    like each partial sum, a nonnegative integer at most its root_sum; both
    lie inside its floats bound, below 2^53, so every float64 step is
    exact in any summation order."""
    n, width = len(variants), root_pair.shape[1]
    at = table[np.arange(n) if rows is None else rows, variants].astype(np.int64)
    # mode "clip" writes straight into out, where "raise" buffers first;
    # every index is in range
    terms = np.take(tables.root_var_f, variants, axis=0, out=_WORKSPACE("terms", n, width),
                    mode="clip")
    if rows is not None:
        root_pair = np.take(root_pair, rows, axis=0, out=_WORKSPACE("picked", n, width),
                            mode="clip")
    np.subtract(root_pair, terms, out=terms)
    roots = np.abs(terms, out=terms).sum(axis=1).astype(np.int64)
    return at + tables.rho_c_var2_s[variants] + roots


def _best_first(tables: ScanTables, m: np.ndarray) -> np.ndarray:
    """Scaled squared spin norms of the rows m, at most _CHUNK_ROWS. The
    floors, a table entry plus r = 2 <mu, rho_c>, and the int64 values
    leave out the row constant scale * (|mu|^2 + |rho_c|^2). A floor is
    below a value exactly when the float64 table entry is below the int64
    value less r, and comparing the two is exact (module docstring)."""
    n = len(m)
    table = _table(tables, m, _WORKSPACE("table", n, tables.table_s.shape[1]))
    root_pair = _product(m, tables.root_s, _WORKSPACE("roots", n, tables.root_s.shape[1]))
    first = table.argmin(axis=1)
    best = _value(tables, table, root_pair, None, first)
    again = table < (best - 2 * (m @ tables.rho_c_lin_s))[:, None]
    again[np.arange(n), first] = False
    rows, variants = np.divmod(np.flatnonzero(again), again.shape[1])
    for start in range(0, rows.size, _CHUNK_ROWS):
        part = slice(start, start + _CHUNK_ROWS)
        pairs = _value(tables, table, root_pair, rows[part], variants[part])
        np.minimum.at(best, rows[part], pairs)
    best += _row_constant(tables, m)
    return best


def bulk_margins_scaled(tables: ScanTables, coords: np.ndarray) -> np.ndarray:
    """Scaled step margins spin(mu)^2 - spin(mu - beta)^2 for rows of coords.
    It forms mu - beta for all the rows at once; the scan keeps that small
    by handing it batches of about _CHUNK_ROWS rows."""
    return (bulk_spin_sq_scaled(tables, coords)
            - bulk_spin_sq_scaled(tables, coords - tables.beta_coords))


def margin_lower_bounds(tables: ScanTables, coords: np.ndarray) -> np.ndarray:
    """Exact integer lower bounds on bulk_margins_scaled for rows of coords,
    mu and mu - beta dominant: the concave bound of the module docstring at
    each row, its variant of mu - beta the row's lowest-floor one. It costs
    one root sum per row, where the kernel needs at least two and usually
    more."""
    return _concave_bounds(tables, coords, [], coords[:, :0])


def simplex_lower_bounds(tables: ScanTables, corner: np.ndarray, axes,
                         reach: np.ndarray) -> np.ndarray:
    """Per row of corner (k-type coordinates, corner - beta dominant), an
    exact integer lower bound on bulk_margins_scaled at every lattice point
    of the simplex with the vertices corner and corner + reach[:, i]
    e_axes[i], reach >= 0: the least vertex value of the concave bound of
    the module docstring, its variant of mu - beta the lowest-floor one of
    corner - beta."""
    return _concave_bounds(tables, corner, axes, reach)


def _concave_bounds(tables: ScanTables, corner: np.ndarray, axes,
                    reach: np.ndarray) -> np.ndarray:
    """Per simplex, the least value of the concave bound over its vertices
    corner and corner + reach[:, i] e_axes[i], with the variant j' of
    mu - beta the lowest-floor one of the corner. Simplices go in chunks
    of _CHUNK_ROWS // (1 + len(axes)), so that no product has more than
    _CHUNK_ROWS rows: that fits the workspace, which holds the tables, and
    keeps OpenBLAS on one thread (_product). Each chunk writes its vertex
    rows (v, 1), one block per vertex of every simplex, into the workspace
    and runs three products: the corners' table of mu - beta
    (down_table_s), whose row argmin is j'; screen_f, the bound's linear
    part and its floor roots; and root_down_s, the root table of mu - beta,
    less the row of j'. Absolute values and sums against ones finish the
    two sums. The value of mu - beta at j' less its root sum is the
    corner's table entry plus 2 <rho_n^j', rho_c>, moved along axis i by
    -2 reach_i <e_i, rho_n^j'>. Every float64 value is an integer below
    2^53 (magnitude_bound)."""
    dim, blocks = corner.shape[1], len(axes) + 1
    axes = np.asarray(axes, dtype=np.intp)
    variants, floors = tables.down_table_s.shape[1], tables.screen_f.shape[1]
    roots = tables.root_down_s.shape[1]
    floor_ones, root_ones = np.ones(floors), np.ones(roots)
    floor_ones[0] = 0.0  # the linear column is kept, not summed
    moves = -2.0 * tables.variant_s[:, axes]  # (variants, free axes)
    out = np.empty(len(corner), dtype=np.int64)
    step = max(1, _CHUNK_ROWS // blocks)
    for start in range(0, len(out), step):
        part = corner[start:start + step]
        n, size = len(part), blocks * len(part)
        rows = _WORKSPACE("rows", size, dim + 1)
        vertices = rows.reshape(blocks, n, dim + 1)
        vertices[:, :, :dim] = part
        rows[:, dim] = 1.0
        gone = reach[start:start + n].T  # (free axes, n)
        vertices[np.arange(1, blocks)[:, None], np.arange(n), axes[:, None]] += gone
        down = _product(rows[:n], tables.down_table_s, _WORKSPACE("table", n, variants))
        first = down.argmin(axis=1)
        lows = down[np.arange(n), first] + tables.rho_c_var2_s[first]
        floor = _product(rows, tables.screen_f, _WORKSPACE("floor", size, floors))
        root = _product(rows, tables.root_down_s, _WORKSPACE("roots", size, roots))
        # mode "clip" writes straight into out; every index is in range
        picked = np.take(tables.root_var_f, first, axis=0, mode="clip",
                         out=_WORKSPACE("picked", n, roots))
        by_vertex = root.reshape(blocks, n, roots)
        np.subtract(by_vertex, picked, out=by_vertex)
        bound = floor[:, 0].copy()
        bound -= np.matmul(np.abs(floor, out=floor), floor_ones)
        bound -= np.matmul(np.abs(root, out=root), root_ones)
        bound = bound.reshape(blocks, n)
        bound -= lows
        bound[1:] -= moves[first].T * gone
        out[start:start + n] = bound.min(axis=0)
    return out


# ---------------------------------------------------------------------------
# box scanning
# ---------------------------------------------------------------------------


class _Scanner:
    """One box: its tables, its walk order, the running minimum of the
    margins the scan has evaluated and the violations it has found."""

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
        # the longest edge first, then shortest edge first (module
        # docstring); max and sorted keep the first of equal edges first
        edge = (self.hi - self.lo).tolist()
        axis = max(range(self.dim), key=edge.__getitem__)
        rest = [k for k in range(self.dim) if k != axis]
        self.perm = [axis] + sorted(rest, key=edge.__getitem__)
        # the sub-box of mu with mu - beta dominant, for semisimple k
        self.base = np.maximum(self.lo, self.tables.beta_coords)
        self.best = None  # smallest margin the scan has evaluated
        self.violations = []  # (coords, scaled margin) of each margin <= 0
        # k with center: the filtered points, listed once from the grid
        self.grid = None if self.semisimple else self._grid()

    def cheap(self, coords) -> np.ndarray:
        return coords @ self.tables.cheap_coef_s - self.tables.cheap_const_s

    def cutoff(self) -> int | None:
        """max(0, best), or None (no screen) before a margin is known or
        without the shortcut."""
        return None if not self.shortcut or self.best is None else max(0, self.best)

    def scan(self) -> None:
        """Evaluate the box in its cheap-bound passes (above, upto] (module
        docstring), lowering self.best and collecting self.violations."""
        passes = [(None, None)]
        if self.shortcut and self.semisimple:
            passes = [(None, 0), (0, int(self.cheap(self.hi)))]
        for band in passes:
            for coords in self._batches(band):
                cutoff = self.cutoff()
                if cutoff is not None:
                    coords = coords[self.cheap(coords) <= cutoff]
                    coords = coords[margin_lower_bounds(self.tables, coords) <= cutoff]
                    if not len(coords):
                        continue
                margins = bulk_margins_scaled(self.tables, coords)
                low = int(margins.min())
                self.best = low if self.best is None else min(self.best, low)
                for i in np.flatnonzero(margins <= 0):
                    self.violations.append(
                        (tuple(int(x) for x in coords[i]), int(margins[i]))
                    )

    def scanned(self) -> int:
        return int(np.prod((self.hi - self.lo + 1).astype(object)))

    def small_points(self):
        """The u-small points of the dominant sub-box of semisimple k, by
        one walk with the first walked coordinate first: per walk chunk,
        that coordinate's value and the number of points of each run."""
        base, order = self.base, self.perm
        small = self.row_bounds - self.row_coeffs @ base
        if (self.hi < base).any() or (small < 0).any():
            return
        coeffs = np.vstack([self.row_coeffs[:, order], np.eye(self.dim, dtype=np.int64)])
        edges = self.hi[order] - base[order]
        for caps, prefix, _ in _walk(coeffs, np.concatenate([small, edges])):
            yield prefix[:, 0] + base[order[0]], caps + 1

    def _grid(self):
        """The filtered points of a box of k with center, tested point by
        point against the u-small rows and dominance."""
        axes = [np.arange(lo, hi + 1) for lo, hi in zip(self.lo, self.hi)]
        grid = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([g.reshape(-1) for g in grid], axis=1).astype(np.int64)
        large = ~(coords @ self.row_coeffs.T <= self.row_bounds).all(axis=1)
        pairing = self.tables.pairing.T
        dominant = (coords @ pairing >= 0).all(axis=1)
        dominant &= ((coords - self.tables.beta_coords) @ pairing >= 0).all(axis=1)
        return coords[large & dominant]

    def _reach_fits(self, base, budget: int) -> bool:
        """Whether magnitude_bound covers every vertex of the simplex screen
        in a pass whose walk starts at base with cheap budget: a vertex
        coordinate is at most the box's largest or base_i plus the reach
        ceil(budget / c_i), as a row's slack only falls from the budget."""
        coef = self.tables.cheap_coef_s.tolist()
        if min(coef) <= 0:  # an unbounded simplex
            return False
        reach = max(b - (-budget // c) for b, c in zip(base.tolist(), coef))
        return magnitude_bound(self.tables, max(self.coord_max, reach)) <= _INT64_MAX

    def _batches(self, band):
        """Yield the filtered points of the box in the pass: the walk of
        the module docstring over e = mu - base, but the subtrees its
        screen rejects at the cutoff of the moment. The first point goes
        alone, then a batch joins walk chunks until it holds at least
        _CHUNK_ROWS rows, so the cutoff falls after about every kernel
        chunk. For k with center, the grid in two batches, {cheap <= 0}
        first, so that the screens cut the second by the first's minimum."""
        if self.grid is not None:
            first = self.cheap(self.grid) <= 0
            yield from (part for part in (self.grid[first], self.grid[~first]) if len(part))
            return
        above, upto = band
        order, base = self.perm, self.base
        edges = self.hi[order] - base[order]
        if (edges < 0).any():
            return
        coef = self.tables.cheap_coef_s[order][None, :]
        coeffs, bounds = [np.eye(self.dim, dtype=np.int64)], [edges]
        if upto is not None:
            cutoff = self.cutoff()
            upto = upto if cutoff is None else min(upto, cutoff)
            budget = upto - int(self.cheap(base))
            if budget < 0 or (above is not None and upto <= above):
                return
            coeffs.append(coef)
            bounds.append([budget])
            fits = self._reach_fits(base, budget)
        drops = [(self.row_coeffs[:, order], self.row_bounds - self.row_coeffs @ base)]
        if above is not None:
            drops.append((coef, np.array([above - int(self.cheap(base))])))

        def place(e):  # walk rows e to k-type coordinates
            points = np.empty_like(e)
            points[:, order] = e + base[order]
            return points

        def screen(level, prefix, slack):  # the cheap slack, then the simplex screen
            cutoff = self.cutoff()
            if cutoff is None:
                return np.ones(len(prefix), dtype=bool)
            corner = np.repeat(base[None, :], len(prefix), axis=0)
            corner[:, order[:level]] += prefix
            # the cheap row is the walk's last: its slack s bounds c @ y, and
            # falls to cutoff - cheap(corner) as the cutoff falls
            np.minimum(slack[:, -1], cutoff - self.cheap(corner), out=slack[:, -1])
            keep = slack[:, -1] >= 0
            if fits:
                reach = -(-slack[keep, -1:] // coef[:, level:])
                bound = simplex_lower_bounds(self.tables, corner[keep], order[level:], reach)
                keep[keep] = bound <= cutoff
            return keep

        pending, rows = [], 0
        walk = _walk(np.vstack(coeffs), np.concatenate(bounds), drops,
                     None if upto is None else screen)
        for caps, prefix, start in walk:
            e, _ = _children(prefix, caps, start)
            if not len(e):
                continue
            points = place(e)
            if self.best is None:  # a margin to screen the rest by
                yield points[:1]
                points = points[1:]
            pending.append(points)
            rows += len(points)
            if rows >= _CHUNK_ROWS:
                yield np.concatenate(pending)
                pending, rows = [], 0
        if rows:
            yield np.concatenate(pending)


def _checkpoint_path(directory, case, ranges):
    """Record file of one box scan, named by family and box, e.g.
    scan-FII-0-3_0-2_0-2_1-4.json. Records are written for inspection and
    never read back: every scan runs fresh."""
    box = "_".join(f"{lo}-{hi}" for lo, hi in ranges)
    return os.path.join(directory, f"scan-{case.id.family}-{box}.json")


def _save_checkpoint(path, records):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"slices": {str(v): r for v, r in records.items()}}, fh)
    os.replace(tmp, path)


def _filtered(scanner):
    """The filtered points of the box: their number and, per value v of
    the first walked coordinate from lo to hi, the number with that value.
    For semisimple k they are the dominant sub-box less its u-small points,
    tallied by v in one walk of scanner.small_points; for k with center
    the points of the grid. The per-value counts come lazily, as only the
    record file reads them and an edge may pass 10^7."""
    axis = scanner.perm[0]
    lo, hi = int(scanner.lo[axis]), int(scanner.hi[axis])
    if scanner.grid is not None:
        tally = np.bincount(scanner.grid[:, axis] - lo, minlength=hi - lo + 1)
        return len(scanner.grid), iter(tally.tolist())
    first = int(scanner.base[axis])
    tally = np.zeros(0, dtype=np.int64)  # the u-small points at first + index
    for values, counts in scanner.small_points():
        grow = int(values.max()) - first + 1 - len(tally)
        if grow > 0:
            tally = np.concatenate([tally, np.zeros(max(grow, len(tally)), dtype=np.int64)])
        np.add.at(tally, values - first, counts)
    dominant = np.maximum(scanner.hi - scanner.base + 1, 0).astype(object)
    size, small = int(np.prod(dominant[scanner.perm[1:]])), dict(enumerate(tally.tolist(), first))
    by_value = ((size if v >= first else 0) - small.get(v, 0) for v in range(lo, hi + 1))
    return size * int(dominant[axis]) - int(tally.sum()), by_value


def _records(scanner, by_value) -> dict:
    """The records of the record file: per value v of the first walked
    coordinate, the points of the box with that value scanned and
    filtered (by_value, from _filtered), and the violations among them."""
    axis = scanner.perm[0]
    lo, hi = int(scanner.lo[axis]), int(scanner.hi[axis])
    scanned = scanner.scanned() // (hi - lo + 1)
    records = {v: {"scanned": scanned, "filtered": n, "violations": []}
               for v, n in zip(range(lo, hi + 1), by_value)}
    for coords, margin in scanner.violations:
        records[coords[axis]]["violations"].append((coords, margin))
    return records


def scan_box(case: CaseData, ranges, *, shortcut: bool = True, log=None) -> dict:
    """Scan every lattice point of the box; see pencil.verify_box."""
    ranges = tuple((int(lo), int(hi)) for lo, hi in ranges)
    scanner = _Scanner(case, ranges, shortcut)

    checkpoint_dir = os.environ.get("LIECHECK_CHECKPOINT_DIR")
    ckpath = None
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
        ckpath = _checkpoint_path(checkpoint_dir, case, ranges)

    t0 = time.monotonic()
    scanner.scan()
    if log:
        log(f"scan done, {time.monotonic() - t0:.1f}s elapsed")
    filtered, by_value = _filtered(scanner)
    if ckpath:
        _save_checkpoint(ckpath, _records(scanner, by_value))
    scale, low = scanner.tables.scale, scanner.best
    return {
        "scanned": scanner.scanned(),
        "filtered": filtered,
        "violations": sorted((coords, Q(m, scale)) for coords, m in scanner.violations),
        "min_margin_sq": None if low is None else Q(low, scale),
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }
