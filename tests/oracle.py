"""Exact helpers that only the tests use: longest elements, word lengths,
whole orbits and word matrices, on top of the package's single-vector
reflections; a rational linear solver; the split of a step into its
conjugation and linear terms; and the margin lower bounds of the screen."""

from fractions import Fraction as Q

import numpy as np

from liecheck.cases import _normalize_ktype, ktype_to_ambient
from liecheck.errors import ConstructionError, UsageError
from liecheck.pencil import pencil_member
from liecheck.rootdata import (
    RootSystem,
    Vector,
    coroot_pairing,
    inner,
    norm_sq,
    reflect,
    vneg,
    vsub,
)
from liecheck.weyl import WeylWord, apply_word, to_dominant


def longest_element(system: RootSystem) -> WeylWord:
    """Reduced word for the longest element (sends the dominant chamber to
    its negative)."""
    anti = vneg(system.dominance_vector())
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


def margin_lower_bounds_two_floor(tables, coords):
    """The screen fastscan used before the single floor: the tighter floor
    |x|^2 + 2 max(0, <x, rho_c>) + |rho_c|^2 for mu and for mu - beta.
    Away from the walls of k, where every pairing is nonnegative, it
    equals fastscan.margin_lower_bounds."""
    return _floor_bounds(
        tables, coords,
        lambda m, lin: lin + tables.variant_nrm_s + np.maximum(_pair(tables, m), 0),
    )
