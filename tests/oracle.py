"""Exact helpers that only the tests use: longest elements, word lengths
and whole orbits, on top of the package's single-vector reflections, and
the two-floor margin lower bound."""

import numpy as np

from liecheck.rootdata import RootSystem, Vector, reflect, vneg
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


def margin_lower_bounds_two_floor(tables, coords):
    """fastscan.margin_lower_bounds as it was computed before the one-table
    form: the floor tables of mu and of mu - beta, both in int64 products,
    for every row. Its integers must equal the scan's exactly."""
    beta = tables.beta_coords

    def floor(m, lin):
        # scale * (|rho_n^j|^2 + 2 max(0, <m - rho_n^j, rho_c>)) + lin
        pair = 2 * (m @ tables.rho_c_lin_s)[:, None] - 2 * tables.rho_c_var_s
        return lin + tables.variant_nrm_s + np.maximum(pair, 0)

    def row_constant(m):
        return ((m @ tables.gram_s) * m).sum(axis=1) + tables.rho_c_nrm_s

    rows = np.arange(len(coords))
    down = coords - beta
    lin = -2 * coords @ tables.variant_s.T
    upper = floor(coords, lin).min(axis=1) + row_constant(coords)
    lin += 2 * (tables.variant_s @ beta)
    first = floor(down, lin).argmin(axis=1)
    roots = np.abs(down @ tables.root_s - tables.root_var_s[first]).sum(axis=1)
    lower = lin[rows, first] + tables.variant_nrm_s[first] + roots
    return upper - lower - row_constant(down)
