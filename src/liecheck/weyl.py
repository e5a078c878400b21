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
from .rootdata import RootSystem, Vector, inner, int_rows, reflect

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
    taking prefixes of reduced words), deduplicating by w^{-1} of the sum
    of the fundamental weights, a strictly dominant regular vector. A
    frontier carries those w^{-1} images and the gammas' in integer
    simple-root coordinates, where (w s_i)^{-1} = s_i w^{-1} lowers
    coordinate i by the pairing with the i-th simple coroot (column i of
    the Cartan matrix). Only members get a matrix, their parent's times
    s_i. Words come out in length-then-lex order with the identity first.
    """
    for gamma in k_system.simple_roots:
        if not g_system.is_positive_root(gamma):
            raise ConstructionError(
                f"k-simple {gamma} is not a positive root of the ambient system"
            )
    rank = g_system.rank
    cartan = np.array(g_system.cartan, dtype=np.int64)
    gammas, _ = int_root_coords(g_system, k_system.simple_roots)
    seed = int_rows(g_system.weight_coords)[0].sum(axis=0)[:, None]
    letters = np.arange(rank)
    words: list[WeylWord] = [()]
    seen = {tuple(seed[:, 0].tolist())}
    # (members, rank, 1 + k-rank): the w^{-1} images of the seed and gammas
    images = np.concatenate([seed, gammas], axis=1)[None]
    mats = np.eye(rank, dtype=np.int64)[None]
    levels, front = [mats], [()]
    while len(front):
        # cand[f, i]: s_i applied to member f's images
        cand = np.repeat(images[:, None], rank, axis=1)
        cand[:, letters, letters] -= np.einsum("fjc,ji->fic", images, cartan)
        cand = cand.reshape(-1, rank, images.shape[2])
        member = (cand[:, :, 1:] >= 0).all(axis=(1, 2)).tolist()
        kept = []
        for idx, fingerprint in enumerate(map(tuple, cand[:, :, 0].tolist())):
            if member[idx] and fingerprint not in seen:
                seen.add(fingerprint)
                kept.append(idx)
        parent, letter = np.divmod(np.array(kept, dtype=np.int64), rank)
        # m s_i = m less column i of m times column i of the Cartan matrix
        mats = mats[parent] - mats[parent, :, letter][:, :, None] * cartan.T[letter][:, None, :]
        front = [front[f] + (i,) for f, i in zip(parent.tolist(), letter.tolist())]
        words += front
        levels.append(mats)
        images = cand[kept]
    return words, list(np.concatenate(levels))
