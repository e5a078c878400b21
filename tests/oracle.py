"""Exact helpers that only the tests use: longest elements, word lengths,
whole orbits and word matrices, on top of the package's single-vector
reflections; a rational linear solver; the split of a step into its
conjugation and linear terms; the margin lower bounds of the screen; and
the Fraction derivations of the case data that the package now derives
by integer products."""

from fractions import Fraction as Q
from math import lcm

import numpy as np

from liecheck.cases import _normalize_ktype, ktype_to_ambient
from liecheck.errors import ConstructionError, UsageError
from liecheck.pencil import pencil_member
from liecheck.rootdata import (
    RootSystem,
    Vector,
    combine,
    coroot_pairing,
    inner,
    norm_sq,
    reflect,
    root_closure,
    vadd,
    vneg,
    vsub,
)
from liecheck.usmall import _primitive_row, _prune_dominated
from liecheck.weyl import WeylWord, apply_word, to_dominant


def dominance_vector(system: RootSystem) -> Vector:
    """Sum of fundamental weights: strictly dominant, regular for W."""
    total = system.fundamental_weights[0]
    for w in system.fundamental_weights[1:]:
        total = vadd(total, w)
    return total


def longest_element(system: RootSystem) -> WeylWord:
    """Reduced word for the longest element (sends the dominant chamber to
    its negative)."""
    anti = vneg(dominance_vector(system))
    _, word = to_dominant(anti, system)
    return word


def word_length(word: WeylWord, system: RootSystem) -> int:
    """Length of the group element: positive roots sent negative.

    In a non-reduced system the doubled roots 2r are skipped, leaving the
    positive system of the underlying reduced Weyl group.
    """
    pos = set(system.positive_roots)
    count = 0
    for r in system.positive_roots:
        if tuple(c / 2 for c in r) in pos:
            continue
        img = apply_word(word, r, system)
        if all(c <= 0 for c in system.root_coords(img)):
            count += 1
    return count


def orbit(v: Vector, system: RootSystem) -> set[Vector]:
    """Full Weyl orbit of v (breadth-first; use only on small groups)."""
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for s in system.simple_roots:
                img = reflect(u, s)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def word_matrices(words, system: RootSystem) -> list[np.ndarray]:
    """Integer matrix of each word's element on simple-root coordinates,
    the product of its letters' reflection matrices. Column j holds the
    simple-root coordinates of the image of simple root j, so
    matrix @ root_coords(v) == root_coords(apply_word(word, v))."""
    simples = system.simple_roots
    refl = []
    for i, alpha in enumerate(simples):
        m = np.eye(system.rank, dtype=np.int64)
        m[i] -= [int(coroot_pairing(beta, alpha)) for beta in simples]
        refl.append(m)
    out = []
    for word in words:
        m = np.eye(system.rank, dtype=np.int64)
        for i in word:
            m = m @ refl[i]
        out.append(m)
    return out


def solve_linear(rows, rhs) -> list[Q]:
    """Solve a square rational linear system by elimination and back
    substitution, apart from the package's Gauss-Jordan. Raises
    ConstructionError if the matrix is singular."""
    n = len(rows)
    aug = [[Q(x) for x in row] + [Q(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ConstructionError("singular linear system")
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(col + 1, n):
            f = aug[r][col] / aug[col][col]
            aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    x = [Q(0)] * n
    for i in reversed(range(n)):
        rest = sum(aug[i][j] * x[j] for j in range(i + 1, n))
        x[i] = (aug[i][n] - rest) / aug[i][i]
    return x


def decompose_step(case, mu, j: int):
    """Split one variant's contribution to the step at mu.

    Returns (delta, term_conj, term_linear) where, writing x = mu - rho_n(j)
    and y = mu - beta - rho_n(j) in ambient coordinates and {.} for the
    dominant conjugate, delta = {x} - {y},

        term_conj   = 2 <rho_c, delta>,
        term_linear = |x|^2 - |y|^2 = 2 <mu - rho_n(j), beta> - |beta|^2,

    and term_conj + term_linear equals the difference of the variant's
    norm contributions at mu and mu - beta.
    """
    if not 0 <= j < case.num_variants:
        raise UsageError(
            f"variant index {j} out of range 0..{case.num_variants - 1}"
        )
    coords = _normalize_ktype(case, mu)
    stepped = pencil_member(case, coords, -1)
    x = vsub(ktype_to_ambient(case, coords), case.rho_n_variants[j])
    y = vsub(ktype_to_ambient(case, stepped), case.rho_n_variants[j])
    dx, _ = to_dominant(x, case.k_system)
    dy, _ = to_dominant(y, case.k_system)
    delta = vsub(dx, dy)
    term_conj = 2 * inner(case.rho_c, delta)
    term_linear = norm_sq(x) - norm_sq(y)
    return delta, term_conj, term_linear


def _floor_bounds(tables, coords, floor, first=None):
    """The spin norm floor of mu minus the value of mu - beta at the
    variant first (by default its own lowest-floor one), for every row,
    from int64 or object products: a lower bound on the scaled margin.
    floor(m, lin) is the (rows x variants) floor table of m without the
    row constant, lin its linear-term table."""
    beta = tables.beta_coords

    def row_constant(m):
        return ((m @ tables.gram_s) * m).sum(axis=1) + tables.rho_c_nrm_s

    rows = np.arange(len(coords))
    down = coords - beta
    lin = -2 * coords @ tables.variant_s.T
    upper = floor(coords, lin).min(axis=1) + row_constant(coords)
    lin += 2 * (tables.variant_s @ beta)
    if first is None:
        first = floor(down, lin).argmin(axis=1)
    roots = np.abs(down @ tables.root_s - tables.root_var_s[first]).sum(axis=1)
    lower = lin[rows, first] + tables.variant_nrm_s[first] + roots
    return upper - lower - row_constant(down)


def _pair(tables, m):
    """scale * 2 <m - rho_n^j, rho_c> per row and variant."""
    return 2 * (m @ tables.rho_c_lin_s)[:, None] - 2 * tables.rho_c_var_s


def margin_lower_bounds_one_point(tables, coords):
    """fastscan.margin_lower_bounds with the floor |x + rho_c|^2: the
    concave bound at each row. With object coords every integer is exact
    at any size."""
    return _floor_bounds(tables, coords, _one_point_floor(tables))


def _one_point_floor(tables):
    return lambda m, lin: lin + tables.variant_nrm_s + _pair(tables, m)


def simplex_lower_bounds_exact(tables, corner, axes, reach):
    """fastscan.simplex_lower_bounds with object products: the least
    value of the concave bound over the vertices corner and
    corner + reach[:, i] e_axes[i], the variant of mu - beta fixed at the
    lowest-floor one of corner - beta."""
    floor = _one_point_floor(tables)
    corner = corner.astype(object)
    down = corner - tables.beta_coords
    lin = -2 * down @ tables.variant_s.T
    first = floor(down, lin).argmin(axis=1)
    bounds = _floor_bounds(tables, corner, floor, first)
    for i, axis in enumerate(axes):
        vertex = corner.copy()
        vertex[:, axis] += reach[:, i].astype(object)
        bounds = np.minimum(bounds, _floor_bounds(tables, vertex, floor, first))
    return bounds


def fraction_lowest_floor(case, mu):
    """The lowest floor min_j |mu - rho_n^j + rho_c|^2 over the rho_n
    variants, in Fraction arithmetic on the ambient weight of the k-type
    coordinates mu."""
    x = vadd(ktype_to_ambient(case, mu), case.rho_c)
    return min(norm_sq(vsub(x, v)) for v in case.rho_n_variants)


def margin_lower_bounds_two_floor(tables, coords):
    """The screen fastscan used before the single floor: the tighter floor
    |x|^2 + 2 max(0, <x, rho_c>) + |rho_c|^2 for mu and for mu - beta.
    Away from the walls of k, where every pairing is nonnegative, it
    equals fastscan.margin_lower_bounds."""
    return _floor_bounds(
        tables, coords,
        lambda m, lin: lin + tables.variant_nrm_s + np.maximum(_pair(tables, m), 0),
    )


# -- the Fraction derivations of the case data --------------------------------
#
# rootdata, weyl.minimal_coset_reps, cases.build_case, usmall._build_system
# and fastscan.build_tables derive a case's data by integer products; these
# are Fraction derivations of the same data, one inner product or
# reflection at a time, for the tests to hold them to.


def fraction_system(system: RootSystem) -> dict:
    """The derived fields of a root system from its simple roots alone:
    the Cartan matrix from coroot pairings, the simple-root coordinates of
    each fundamental weight by a linear solve, the weights by combine, and
    (for a reduced system) the positive roots as Fraction sums along the
    closure, sorted as Fraction vectors, with their coordinates."""
    simples = system.simple_roots
    n = len(simples)
    gram = [[inner(a, b) for b in simples] for a in simples]
    coords = tuple(
        tuple(solve_linear(gram, [gram[i][i] / 2 * (i == j) for j in range(n)]))
        for i in range(n)
    )
    cartan = tuple(tuple(int(coroot_pairing(a, b)) for b in simples) for a in simples)
    out = {
        "cartan": cartan,
        "weight_coords": coords,
        "fundamental_weights": tuple(combine(simples, c) for c in coords),
    }
    if system.reduced:
        ambient = {}
        for root, parent, i in root_closure(cartan):
            ambient[root] = simples[i] if parent is None else vadd(ambient[parent], simples[i])
        positives, table = zip(*sorted((v, r) for r, v in ambient.items()))
        out.update(positive_roots=positives, root_table=table)
    return out


def fraction_coset_reps(g: RootSystem, k: RootSystem):
    """(words, matrices) of the minimal coset representatives by a
    breadth-first search over Fraction vectors: member w s_i when
    s_i w^{-1}(gamma) is a positive root of g for every k-simple gamma,
    first found by word length, then frontier order, then letter; an
    element w is known by w^{-1} of the dominance vector."""
    seed = dominance_vector(g)
    seen = {seed}
    words = [()]
    frontier = [((), seed, k.simple_roots)]
    while frontier:
        nxt = []
        for word, fingerprint, images in frontier:
            for i, alpha in enumerate(g.simple_roots):
                new = reflect(fingerprint, alpha)
                if new in seen:
                    continue
                seen.add(new)
                moved = tuple(reflect(v, alpha) for v in images)
                if all(g.is_positive_root(v) for v in moved):
                    words.append(word + (i,))
                    nxt.append((word + (i,), new, moved))
        frontier = nxt
    return words, word_matrices(words, g)


def fraction_variants(case) -> tuple[Vector, ...]:
    """w(rho) - rho_c for every coset representative w, word by word."""
    g = case.g_restricted
    return tuple(vsub(apply_word(w, case.rho, g), case.rho_c) for w in case.w1)


def fraction_usmall_rows(case):
    """The rows of usmall_system from Fraction inner products with each
    w(xi), w applied word by word, cleared of denominators."""
    g = case.g_restricted
    raw = set()
    for word in case.w1:
        for xi in g.fundamental_weights:
            image = apply_word(word, xi, g)
            row = [inner(b, image) for b in case.ktype_basis]
            row.append(2 * (inner(case.rho, xi) - inner(case.rho_c, image)))
            den = lcm(*(x.denominator for x in row))
            row = [int(x * den) for x in row]
            raw.add(_primitive_row(row[:-1], row[-1]))
    if case.k_has_center:
        return tuple(sorted(raw))
    return _prune_dominated(raw)


def fraction_tables(case) -> dict:
    """Every field of fastscan.build_tables, from Fraction coroot pairings
    and inner products over their least common denominator. A noncompact
    positive root's pairing with mu + 2 rho_c keeps its sign on the dominant
    orthant mu >= 0 of semisimple k when every basis pairing and the rho_c
    pairing share it; for k with center every root counts as changing."""
    k = case.k_system
    basis, deltas, variants = case.ktype_basis, k.simple_roots, case.rho_n_variants
    rho_c, beta = case.rho_c, case.beta

    def ints(values, scale=1):
        out = np.array(values, dtype=object) * scale
        assert all(x.denominator == 1 for x in out.flat)
        return out.astype(np.int64)

    pairing = ints([[coroot_pairing(b, d) for b in basis] for d in deltas])
    shift = ints([[coroot_pairing(v, d) for d in deltas] for v in variants])
    roots = np.array(k.root_table, dtype=np.int64).T
    half_sq = [norm_sq(d) / 2 for d in deltas]
    gram = [[inner(a, b) for b in basis] for a in basis]
    variant = [[inner(b, v) for b in basis] for v in variants]
    variant_nrm = [norm_sq(v) for v in variants]
    rho_c_lin = [inner(b, rho_c) for b in basis]
    rho_c_var = [inner(v, rho_c) for v in variants]
    cheap_coef = [2 * inner(b, beta) for b in basis]
    consts = [
        norm_sq(rho_c),
        2 * inner(rho_c, beta) + 2 * max(inner(v, beta) for v in variants) + norm_sq(beta),
    ]
    flat = [x for row in gram + variant for x in row]
    rationals = flat + variant_nrm + half_sq + rho_c_lin + rho_c_var + cheap_coef + consts
    scale = lcm(*(Q(x).denominator for x in rationals))
    root_half_s = ints(half_sq, scale)[:, None] * roots
    variant_s = ints(variant, scale)
    variant_nrm_s = ints(variant_nrm, scale)
    rho_c_var_s = ints(rho_c_var, scale)
    root_var_s = shift @ root_half_s
    gram_s = ints(gram, scale)
    beta_coords = ints(list(case.beta_ktype))
    beta_nrm_s = int(beta_coords @ gram_s @ beta_coords)
    rho_c_lin_s, cheap_coef_s = ints(rho_c_lin, scale), ints(cheap_coef, scale)
    p_roots = sorted(case.p_positive)
    noncompact = ints([[inner(b, g) for g in p_roots] for b in basis]
                      + [[2 * inner(rho_c, g) for g in p_roots]], scale)
    changing, fixed = [], np.zeros(len(basis) + 1, dtype=np.int64)
    for column in noncompact.T:
        if case.k_has_center or not ((column >= 0).all() or (column <= 0).all()):
            changing.append(column)
        else:
            fixed += column if (column >= 0).all() else -column
    lin = np.append(2 * rho_c_lin_s + cheap_coef_s,
                    int((norm_sq(case.rho) - norm_sq(rho_c)) * scale) - beta_nrm_s) - fixed
    screen_s = np.column_stack([lin] + changing)
    root_s = pairing.T @ root_half_s
    const = variant_nrm_s - 2 * rho_c_var_s
    return {
        "scale": scale,
        "pairing": pairing,
        "shift": shift,
        "root_s": root_s,
        "root_var_s": root_var_s,
        "gram_s": gram_s,
        "variant_s": variant_s,
        "variant_nrm_s": variant_nrm_s,
        "rho_c_nrm_s": int(consts[0] * scale),
        "rho_c_lin_s": rho_c_lin_s,
        "rho_c_var_s": rho_c_var_s,
        "beta_coords": beta_coords,
        "cheap_coef_s": cheap_coef_s,
        "cheap_const_s": int(consts[1] * scale),
        "table_s": np.vstack([-2 * variant_s.T, const]).astype(np.float64),
        "down_table_s": np.vstack(
            [-2 * variant_s.T, const + 2 * (variant_s @ beta_coords)]
        ).astype(np.float64),
        "screen_s": screen_s,
        "screen_f": screen_s.astype(np.float64),
        "root_down_s": np.vstack([root_s, -(beta_coords @ root_s)]).astype(np.float64),
        "rho_c_var2_s": 2 * rho_c_var_s,
        "root_var_f": root_var_s.astype(np.float64),
        "beta_nrm_s": beta_nrm_s,
    }
