"""Exact rational linear algebra and root-system construction.

Vectors are plain tuples of Fraction living in a fixed ambient Euclidean
space; the inner product is the standard dot product in those coordinates.
No floating point is used anywhere in this module.

A RootSystem bundles the simple roots of one (possibly reducible, possibly
non-reduced) root system together with its positive roots and fundamental
weights. Root coordinates and fundamental weights both come from the
inverse Gram matrix of the simple roots, computed once per system, so they
live inside the span of the simple roots and systems of rank lower than
the ambient dimension work too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from typing import Iterable, Sequence

from .errors import ConstructionError, UsageError

Vector = tuple[Q, ...]

__all__ = [
    "Vector",
    "vec",
    "vadd",
    "vsub",
    "vneg",
    "vscale",
    "inner",
    "norm_sq",
    "coroot_pairing",
    "reflect",
    "combine",
    "half_sum",
    "generate_positive_roots",
    "solve_linear",
    "RootSystem",
]


def vec(*coords) -> Vector:
    """Build a rational vector; accepts ints, Fractions and 'p/q' strings.

    >>> vec(1, "-1/2", 0)
    (Fraction(1, 1), Fraction(-1, 2), Fraction(0, 1))
    """
    return tuple(Q(c) for c in coords)


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vneg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def vscale(c, u: Vector) -> Vector:
    c = Q(c)
    return tuple(c * a for a in u)


def inner(u: Vector, v: Vector) -> Q:
    """Euclidean dot product; exact."""
    if len(u) != len(v):
        raise UsageError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Q(0))


def norm_sq(u: Vector) -> Q:
    return inner(u, u)


def coroot_pairing(v: Vector, alpha: Vector) -> Q:
    """2<v,alpha>/<alpha,alpha>."""
    nn = inner(alpha, alpha)
    if nn == 0:
        raise UsageError("coroot pairing with the zero vector")
    return 2 * inner(v, alpha) / nn


def reflect(v: Vector, alpha: Vector) -> Vector:
    """Reflection of v in the hyperplane orthogonal to alpha."""
    return vsub(v, vscale(coroot_pairing(v, alpha), alpha))


def combine(vectors: Sequence[Vector], coeffs: Iterable) -> Vector:
    """The linear combination sum_i coeffs[i] * vectors[i]."""
    terms = [(Q(c), v) for c, v in zip(coeffs, vectors, strict=True) if c]
    return tuple(
        sum((c * v[d] for c, v in terms), Q(0)) for d in range(len(vectors[0]))
    )


def half_sum(roots: Iterable[Vector]) -> Vector:
    """Half the sum of the given vectors (a multiset: repeats count)."""
    roots = list(roots)
    if not roots:
        raise UsageError("half_sum of an empty collection")
    total = roots[0]
    for r in roots[1:]:
        total = vadd(total, r)
    return vscale(Q(1, 2), total)


def solve_linear(rows: Sequence[Sequence[Q]], rhs: Sequence[Q]) -> list[Q]:
    """Solve a square rational linear system by Gaussian elimination.

    Raises ConstructionError if the matrix is singular.
    """
    n = len(rows)
    aug = [[Q(x) for x in row] + [Q(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ConstructionError("singular linear system")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _gram_inverse(simples: Sequence[Vector]) -> tuple[tuple[Q, ...], ...]:
    """Inverse of the Gram matrix of the simple roots.

    Raises ConstructionError if the roots are linearly dependent, which is
    exactly when their Gram matrix is singular.
    """
    n = len(simples)
    gram = [[inner(a, b) for b in simples] for a in simples]
    try:
        # solved column by column; the inverse is symmetric, so these are rows
        return tuple(
            tuple(solve_linear(gram, [Q(int(i == j)) for j in range(n)]))
            for i in range(n)
        )
    except ConstructionError:
        raise ConstructionError("simple roots are linearly dependent") from None


_MAX_HEIGHT = 64  # any honest finite system stabilizes far below this


def generate_positive_roots(simple_roots: Sequence[Vector]) -> set[Vector]:
    """Saturate a simple system into its full positive system.

    Uses root strings: for a root r and simple s, r+s is a root iff
    p - <r, s-check> >= 1 where p is the largest k with r - k*s a root.
    Builds by height, so the downward string is always known already.

    Raises ConstructionError if the input is not a linearly independent
    crystallographic simple system or fails to stabilize.
    """
    simples = [tuple(Q(c) for c in s) for s in simple_roots]
    if not simples:
        raise ConstructionError("empty simple system")
    if any(norm_sq(s) == 0 for s in simples):
        raise ConstructionError("zero vector in simple system")
    _gram_inverse(simples)  # raises on dependent simples
    for a in simples:
        for b in simples:
            pairing = coroot_pairing(a, b)
            if pairing.denominator != 1:
                raise ConstructionError(
                    f"non-integral Cartan pairing {pairing}: not crystallographic"
                )
            if a != b and pairing > 0:
                raise ConstructionError("obtuse-angle condition violated for simples")
    roots: set[Vector] = set(simples)
    level = list(simples)
    height = 1
    while level:
        height += 1
        if height > _MAX_HEIGHT:
            raise ConstructionError("root closure did not stabilize")
        nxt = []
        for r in level:
            for s in simples:
                cand = vadd(r, s)
                if cand in roots:
                    continue
                p = 0
                down = vsub(r, s)
                while down in roots:
                    p += 1
                    down = vsub(down, s)
                if p - coroot_pairing(r, s) >= 1:
                    roots.add(cand)
                    nxt.append(cand)
        level = nxt
    return roots


@dataclass(frozen=True)
class RootSystem:
    """Simple roots plus derived data for one root system.

    positive_roots is a sorted tuple for deterministic iteration; the set
    view is cached for membership tests. reduced=False marks a non-reduced
    (BC-type) system whose positive roots are supplied directly rather than
    generated; its Weyl group is that of the underlying reduced system and
    all reflection machinery uses the simple roots only.
    """

    simple_roots: tuple[Vector, ...]
    positive_roots: tuple[Vector, ...]
    reduced: bool = True
    _pos_set: frozenset[Vector] = field(init=False, repr=False, compare=False)
    _gram_inv: tuple[tuple[Q, ...], ...] = field(init=False, repr=False, compare=False)
    _weights: tuple[Vector, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_pos_set", frozenset(self.positive_roots))
        object.__setattr__(self, "_gram_inv", _gram_inverse(self.simple_roots))
        # <w_i, alpha_j> = delta_ij |alpha_i|^2 / 2 puts the i-th fundamental
        # weight at |alpha_i|^2 / 2 times row i of the inverse Gram matrix
        object.__setattr__(
            self,
            "_weights",
            tuple(
                combine(self.simple_roots, [norm_sq(a) / 2 * c for c in row])
                for a, row in zip(self.simple_roots, self._gram_inv)
            ),
        )
        for r in self.positive_roots:
            coeffs = self.root_coords(r)
            if any(c < 0 or c.denominator != 1 for c in coeffs):
                raise ConstructionError(
                    f"positive root {r} is not a nonneg integer combo of simples"
                )

    @classmethod
    def from_simples(cls, simple_roots: Sequence[Vector]) -> "RootSystem":
        simples = tuple(tuple(Q(c) for c in s) for s in simple_roots)
        positives = generate_positive_roots(simples)
        return cls(simples, tuple(sorted(positives)), reduced=True)

    @classmethod
    def non_reduced(
        cls, simple_roots: Sequence[Vector], positive_roots: Iterable[Vector]
    ) -> "RootSystem":
        simples = tuple(tuple(Q(c) for c in s) for s in simple_roots)
        positives = tuple(sorted(tuple(Q(c) for c in r) for r in positive_roots))
        return cls(simples, positives, reduced=False)

    @property
    def rank(self) -> int:
        return len(self.simple_roots)

    @property
    def ambient_dim(self) -> int:
        return len(self.simple_roots[0])

    @property
    def fundamental_weights(self) -> tuple[Vector, ...]:
        return self._weights

    def is_positive_root(self, v: Vector) -> bool:
        return v in self._pos_set

    def root_coords(self, v: Vector) -> list[Q]:
        """Coordinates of v in the simple-root basis: its pairings with the
        simple roots times the cached inverse Gram matrix (v must lie in the
        span of the simple roots)."""
        pairings = [inner(v, a) for a in self.simple_roots]
        return [inner(row, pairings) for row in self._gram_inv]

    def half_positive_sum(self) -> Vector:
        return half_sum(self.positive_roots)

    def dominance_vector(self) -> Vector:
        """Sum of fundamental weights: strictly dominant, regular for W."""
        total = self._weights[0]
        for w in self._weights[1:]:
            total = vadd(total, w)
        return total
