"""Exact rational linear algebra and root-system construction.

Vectors are plain tuples of Fraction living in a fixed ambient Euclidean
space; the inner product is the standard dot product in those coordinates.
No floating point is used anywhere in this module.

Exactness is kept without a Fraction per term: inner products, coroot
pairings and the coordinates of linear combinations sum the integer
products of their nonzero terms over one common denominator and make one
Fraction at the end, and a reflection rebuilds only the coordinates where
the root is nonzero, each as one Fraction. root_closure closes a system
in integer simple-root coordinates against its integer Cartan matrix, and
generate_positive_roots builds each ambient root once from it.

A RootSystem bundles the simple roots of one (possibly reducible, possibly
non-reduced) root system together with its positive roots and fundamental
weights. Root coordinates and fundamental weights both come from the
inverse Gram matrix of the simple roots, computed once per system by one
Gauss-Jordan elimination over all unit right-hand sides, so they
live inside the span of the simple roots and systems of rank lower than
the ambient dimension work too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from math import gcd
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
    "root_closure",
    "generate_positive_roots",
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


def _dot(u: Sequence, v: Sequence) -> tuple[int, int]:
    """<u, v> as an unreduced pair (numerator, denominator > 0) of ints.

    The integer products of the nonzero terms are summed over one common
    denominator, so no Fraction (and no gcd) is made per term.
    """
    if len(u) != len(v):
        raise UsageError(f"dimension mismatch: {len(u)} vs {len(v)}")
    num, den = 0, 1
    for a, b in zip(u, v):
        an = a.numerator
        if an:
            bn = b.numerator
            if bn:
                d = a.denominator * b.denominator
                if d == den:
                    num += an * bn
                elif den % d == 0:
                    num += an * bn * (den // d)
                else:
                    g = gcd(den, d)
                    num = num * (d // g) + an * bn * (den // g)
                    den *= d // g
    return num, den


def inner(u: Vector, v: Vector) -> Q:
    """Euclidean dot product; exact."""
    return Q(*_dot(u, v))


def norm_sq(u: Vector) -> Q:
    return inner(u, u)


def _pairing(v: Vector, alpha: Vector) -> tuple[int, int]:
    """2<v,alpha>/<alpha,alpha> as an unreduced pair of ints."""
    nn, nd = _dot(alpha, alpha)
    if nn == 0:
        raise UsageError("coroot pairing with the zero vector")
    vn, vd = _dot(v, alpha)
    return 2 * vn * nd, vd * nn


def coroot_pairing(v: Vector, alpha: Vector) -> Q:
    """2<v,alpha>/<alpha,alpha>."""
    return Q(*_pairing(v, alpha))


def reflect(v: Vector, alpha: Vector) -> Vector:
    """Reflection of v in the hyperplane orthogonal to alpha. Only the
    coordinates where alpha is nonzero change; v itself comes back when it
    is orthogonal to alpha."""
    cn, cd = _pairing(v, alpha)
    if cn == 0:
        return v
    out = []
    for x, a in zip(v, alpha):
        an = a.numerator
        if an:
            ad, xd = a.denominator * cd, x.denominator
            x = Q(x.numerator * ad - cn * an * xd, xd * ad)
        out.append(x)
    return tuple(out)


def combine(vectors: Sequence[Vector], coeffs: Iterable) -> Vector:
    """The linear combination sum_i coeffs[i] * vectors[i]."""
    cs = [Q(c) for c, _ in zip(coeffs, vectors, strict=True)]
    return tuple(Q(*_dot(cs, column)) for column in zip(*vectors))


def half_sum(roots: Iterable[Vector]) -> Vector:
    """Half the sum of the given vectors (a multiset: repeats count)."""
    roots = list(roots)
    if not roots:
        raise UsageError("half_sum of an empty collection")
    total = roots[0]
    for r in roots[1:]:
        total = vadd(total, r)
    return vscale(Q(1, 2), total)


def _gauss_jordan(
    rows: Sequence[Sequence[Q]], columns: Sequence[Sequence[Q]]
) -> list[list[Q]]:
    """Solve rows @ x = c for every right-hand side c in columns by one
    Gauss-Jordan elimination; with no columns it only tests regularity.

    Raises ConstructionError if the matrix is singular.
    """
    n = len(rows)
    aug = [
        [Q(x) for x in row] + [Q(c[i]) for c in columns] for i, row in enumerate(rows)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ConstructionError("singular linear system")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv if x else x for x in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and f != 0:
                aug[r] = [x - f * y if y else x for x, y in zip(aug[r], aug[col])]
    return [[aug[r][n + k] for r in range(n)] for k in range(len(columns))]


def _gram(simples: Sequence[Vector]) -> list[list[Q]]:
    return [[inner(a, b) for b in simples] for a in simples]


def _solve_gram(gram: list[list[Q]], columns) -> list[list[Q]]:
    """_gauss_jordan on the Gram matrix of the simple roots, which is
    singular exactly when the roots are linearly dependent."""
    try:
        return _gauss_jordan(gram, columns)
    except ConstructionError:
        raise ConstructionError("simple roots are linearly dependent") from None


def root_closure(cartan: Sequence[Sequence[int]]):
    """Yield (root, parent, i) for every positive root, by height: its
    integer simple-root coordinates, and either parent None and root =
    alpha_i, or a root parent of height one less with root = parent +
    alpha_i. cartan[i][j] = <alpha_i, alpha_j-check>.

    Uses root strings: for a root r and simple s, r+s is a root iff
    p - <r, s-check> >= 1 where p is the largest k with r - k*s a root.
    Builds by height, so the downward string is always known already.
    Every root height is below the Coxeter number h of its simple
    component, and h <= max(2r, 30) for rank r (2r for B_r and C_r, 30
    for E8), so a closure still growing at that height is not finite.
    """
    rank = len(cartan)
    max_height = max(2 * rank, 30)
    level = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    known = set(level)
    for i, unit in enumerate(level):
        yield unit, None, i
    height = 1
    while level:
        height += 1
        if height > max_height:
            raise ConstructionError("root closure did not stabilize")
        nxt = []
        for r in level:
            for i in range(rank):
                cand = r[:i] + (r[i] + 1,) + r[i + 1:]
                if cand in known:
                    continue
                p = 0
                while r[i] > p and r[:i] + (r[i] - p - 1,) + r[i + 1:] in known:
                    p += 1
                if p - sum(c * row[i] for c, row in zip(r, cartan)) >= 1:
                    known.add(cand)
                    nxt.append(cand)
                    yield cand, r, i
        level = nxt


def generate_positive_roots(simple_roots: Sequence[Vector]) -> set[Vector]:
    """Saturate a simple system into its full positive system.

    The closure (root_closure) runs on integer simple-root coordinates
    against the integer Cartan matrix; each ambient root is built once, as
    its parent plus a simple root.

    Raises ConstructionError if the input is not a linearly independent
    crystallographic simple system or fails to stabilize.
    """
    simples = [tuple(Q(c) for c in s) for s in simple_roots]
    if not simples:
        raise ConstructionError("empty simple system")
    gram = _gram(simples)
    rank = len(simples)
    if any(gram[i][i] == 0 for i in range(rank)):
        raise ConstructionError("zero vector in simple system")
    _solve_gram(gram, [])  # raises on dependent simples
    # cartan[i][j] = <alpha_i, alpha_j-check>
    cartan = [[2 * gram[i][j] / gram[j][j] for j in range(rank)] for i in range(rank)]
    for i, row in enumerate(cartan):
        for j, pairing in enumerate(row):
            if pairing.denominator != 1:
                raise ConstructionError(
                    f"non-integral Cartan pairing {pairing}: not crystallographic"
                )
            if i != j and pairing > 0:
                raise ConstructionError("obtuse-angle condition violated for simples")
    cartan = [[int(x) for x in row] for row in cartan]
    ambient = {}  # root coordinates -> ambient root
    for root, parent, i in root_closure(cartan):
        s = simples[i]
        ambient[root] = s if parent is None else vadd(ambient[parent], s)
    return set(ambient.values())


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
        n = self.rank
        # the inverse is symmetric, so its solution columns are its rows
        units = [[int(i == j) for j in range(n)] for i in range(n)]
        gram_inv = _solve_gram(_gram(self.simple_roots), units)
        object.__setattr__(self, "_gram_inv", tuple(map(tuple, gram_inv)))
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
