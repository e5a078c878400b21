"""Weyl-group algorithms on top of rootdata.

Group elements are named by words in the simple reflections of a
designated RootSystem. A word (i1, ..., in) denotes the composition
s_{i1} s_{i2} ... s_{in} with the LEFTMOST letter applied LAST; indices are
0-based positions into system.simple_roots. To act with an element in
bulk, minimal_coset_reps returns each representative's integer matrix on
simple-root coordinates with its word; apply_word is the single-vector
exact path.

For a non-reduced system the simple roots are those of the underlying
reduced system, so every function here works unchanged.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from .errors import ConstructionError, UsageError
from .rootdata import RootSystem, Vector, inner, reflect

WeylWord = tuple[int, ...]

__all__ = [
    "WeylWord",
    "apply_word",
    "to_dominant",
    "minimal_coset_reps",
    "int_root_coords",
]


def apply_word(word: WeylWord, v: Vector, system: RootSystem) -> Vector:
    """Apply s_{i1}...s_{in} to v (rightmost letter first)."""
    simples = system.simple_roots
    for i in reversed(word):
        if not 0 <= i < len(simples):
            raise UsageError(f"letter {i} out of range for rank {len(simples)}")
        v = reflect(v, simples[i])
    return v


def to_dominant(
    v: Vector, system: RootSystem, letters: tuple[int, ...] | None = None
) -> tuple[Vector, WeylWord]:
    """Conjugate v into the closed dominant chamber.

    Repeatedly reflects at the lowest-index simple root with negative
    pairing. Returns (dominant vector, word) with
    apply_word(word, v, system) == dominant vector. The optional letters
    argument restricts to a parabolic subgroup.

    >>> from .rootdata import vec, RootSystem
    >>> sys2 = RootSystem.from_simples([vec(1, -1), vec(0, 2)])
    >>> to_dominant(vec(-3, 1), sys2)[0]
    (Fraction(3, 1), Fraction(1, 1))
    """
    simples = system.simple_roots
    if letters is None:
        letters = tuple(range(len(simples)))
    applied: list[int] = []
    while True:
        for i in letters:
            # <v, alpha> has the sign of the coroot pairing
            if inner(v, simples[i]) < 0:
                v = reflect(v, simples[i])
                applied.append(i)
                break
        else:
            break
    return v, tuple(reversed(applied))


def _reflection_matrices(system: RootSystem) -> list[np.ndarray]:
    """Matrix of each simple reflection in the simple-root basis (integer):
    s_i sends alpha_j to alpha_j - cartan[j][i] alpha_i, so it is the
    identity less column i of the Cartan matrix in row i."""
    cartan = np.array(system.cartan, dtype=np.int64)
    mats = []
    for i in range(system.rank):
        m = np.eye(system.rank, dtype=np.int64)
        m[i] -= cartan[:, i]
        mats.append(m)
    return mats


def int_root_coords(system: RootSystem, vectors) -> tuple[np.ndarray, int]:
    """Simple-root coordinates of the vectors as the columns of one integer
    matrix, times their least common denominator; returns (matrix, scale)."""
    coords = [system.root_coords(v) for v in vectors]
    scale = lcm(*(c.denominator for col in coords for c in col))
    cols = [[int(c * scale) for c in col] for col in coords]
    return np.array(cols, dtype=np.int64).reshape(len(cols), system.rank).T, scale


def minimal_coset_reps(
    g_system: RootSystem, k_system: RootSystem
) -> tuple[list[WeylWord], list[np.ndarray]]:
    """Kostant representatives: all w in W(g) mapping the g-dominant chamber
    into the k-dominant chamber, as their words and their integer matrices
    on simple-root coordinates. Column j of a matrix holds the simple-root
    coordinates of the image of simple root j, so matrix @ root_coords(v)
    == root_coords(apply_word(word, v)).

    Membership test: w^{-1}(gamma) is a positive g-root for every k-simple
    gamma. Search is breadth-first over words by length, expanding members
    on the right by simple reflections (the member set is closed under
    taking prefixes of reduced words), deduplicating by the image of a
    strictly dominant regular vector. Words come out in length-then-lex
    order with the identity first.
    """
    for gamma in k_system.simple_roots:
        if not g_system.is_positive_root(gamma):
            raise ConstructionError(
                f"k-simple {gamma} is not a positive root of the ambient system"
            )
    rank = g_system.rank
    refl = _reflection_matrices(g_system)
    gammas, _ = int_root_coords(g_system, k_system.simple_roots)
    seed, _ = int_root_coords(g_system, [g_system.dominance_vector()])
    fingerprint_seed = seed[:, 0]

    def member(m_inv: np.ndarray) -> bool:
        return not (m_inv @ gammas < 0).any()

    ident = np.eye(rank, dtype=np.int64)
    words: list[WeylWord] = [()]
    matrices = [ident]
    seen = {tuple(fingerprint_seed)}
    frontier: list[tuple[WeylWord, np.ndarray, np.ndarray]] = [((), ident, ident)]
    while frontier:
        nxt = []
        for word, mat, mat_inv in frontier:
            for i in range(rank):
                new_mat = mat @ refl[i]
                fp = tuple(new_mat @ fingerprint_seed)
                if fp in seen:
                    continue
                seen.add(fp)
                new_inv = refl[i] @ mat_inv
                if member(new_inv):
                    new_word = word + (i,)
                    words.append(new_word)
                    matrices.append(new_mat)
                    nxt.append((new_word, new_mat, new_inv))
        frontier = nxt
    return words, matrices
