"""Exact Weyl-group helpers that only the tests use: longest elements,
word lengths and whole orbits, on top of the package's single-vector
reflections."""

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
