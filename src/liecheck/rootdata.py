"""Exact rational linear algebra and root-system construction.

Vectors are plain tuples of Fraction living in a fixed ambient Euclidean
space; the inner product is the standard dot product in those coordinates.
No floating point is used anywhere in this module.

Exactness is kept without a Fraction per term: inner products, coroot
pairings and the coordinates of linear combinations sum the integer
products of their nonzero terms over one common denominator and make one
Fraction at the end. Bulk data is integer: int_rows writes vectors as the
rows of an int64 matrix over their least common denominator D,
int_product multiplies under a magnitude guard, and rational_rows makes
one Fraction per distinct value of integer rows over one denominator.

A RootSystem derives everything in one pass on construction from
scaled_simples, its simple roots times D: the Gram matrix, its inverse by
one fraction-free Gauss-Jordan elimination (which refuses dependent
simple roots), the integer Cartan matrix (cartan) and the simple-root
coordinates of the fundamental weights (weight_coords). Built from its
simple roots alone (from_simples), a system is closed by one root_closure
in integer simple-root coordinates, kept as root_table, and its positive
roots are root_table @ scaled_simples over D, sorted as integer rows: with
one positive denominator, the order of the Fraction vectors. Given
positive roots are each checked to be nonnegative integer combinations of
the simple roots, which fills root_table. root_coords and the fundamental
weights live inside the span of the simple roots, so systems of rank
lower than the ambient dimension work too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from math import gcd, lcm
from operator import add
from typing import Iterable, Sequence

import numpy as np

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
    "int_rows",
    "int_product",
    "rational_rows",
    "root_closure",
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
    """Half the sum of the given vectors (a multiset: repeats count),
    summed as integers over their common denominator."""
    rows, den = _int_lists(list(roots))
    if not rows:
        raise UsageError("half_sum of an empty collection")
    return rational_rows([[sum(col) for col in zip(*rows, strict=True)]], 2 * den)[0]


def _int_lists(vectors: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    den = lcm(*(x.denominator for v in vectors for x in v))
    return [[x.numerator * (den // x.denominator) for x in v] for v in vectors], den


def int_rows(vectors: Sequence[Sequence]) -> tuple[np.ndarray, int]:
    """(M, D): the vectors (ints or Fractions) times D, the least common
    denominator of their entries, as the rows of one int64 matrix M.
    Raises ConstructionError if an entry of M is beyond int64."""
    rows, den = _int_lists(vectors)
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), -1), den
    except OverflowError:
        raise ConstructionError("vectors beyond int64 over their denominator") from None


def int_product(a: np.ndarray, b: np.ndarray, headroom: int = 1) -> np.ndarray:
    """a @ b in int64 (either may be a stack of matrices). Raises
    ConstructionError unless headroom * k * max|a| * max|b| < 2**63, k the
    inner dimension: that bounds every partial sum, and leaves room to
    take headroom times each entry."""
    top = [max(int(m.max(initial=0)), -int(m.min(initial=0))) for m in (a, b)]
    if headroom * a.shape[-1] * top[0] * top[1] >= 2**63:
        raise ConstructionError("integer product beyond int64")
    return a @ b


def rational_rows(rows, den: int) -> tuple[Vector, ...]:
    """Integer rows (lists or an array) over den as Fraction vectors, one
    Fraction made per distinct value."""
    rows = np.asarray(rows).tolist()
    made = {x: Q(x, den) for x in {x for row in rows for x in row}}
    return tuple(tuple(map(made.__getitem__, row)) for row in rows)


def _gauss_jordan(rows: Sequence[Sequence[int]], den: int = 1) -> list[list[Q]]:
    """The inverse of the rational matrix rows / den (rows an integer
    matrix), by one fraction-free Gauss-Jordan elimination over all unit
    right-hand sides: a row operation cross-multiplies, then divides the
    row by the gcd of its entries; each row of the inverse is divided by
    its pivot at the end. Raises ConstructionError if it is singular."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ConstructionError("singular linear system")
        aug[col], aug[piv] = aug[piv], aug[col]
        top = aug[col]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                row = [top[col] * x - f * y for x, y in zip(aug[r], top)]
                g = gcd(*row)
                aug[r] = [x // g for x in row]
    return [[Q(x * den, row[i]) for x in row[n:]] for i, row in enumerate(aug)]


def root_closure(cartan: Sequence[Sequence[int]]):
    """Yield (root, parent, i) for every positive root, by height: its
    integer simple-root coordinates, and either parent None and root =
    alpha_i, or a root parent of height one less with root = parent +
    alpha_i. cartan[i][j] = <alpha_i, alpha_j-check>.

    Uses root strings: for a root r and simple s, r+s is a root iff
    p - <r, s-check> >= 1 where p is the largest k with r - k*s a root.
    Builds by height, so the downward string is always known already; a
    root carries its pairings with the simple coroots (its parent's plus
    row i of the Cartan matrix).
    Every root height is below the Coxeter number h of its simple
    component, and h <= max(2r, 30) for rank r (2r for B_r and C_r, 30
    for E8), so a closure still growing at that height is not finite.
    """
    rank = len(cartan)
    max_height = max(2 * rank, 30)
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    level = [(unit, tuple(cartan[i])) for i, unit in enumerate(units)]
    known = set(units)
    for i, unit in enumerate(units):
        yield unit, None, i
    height = 1
    while level:
        height += 1
        if height > max_height:
            raise ConstructionError("root closure did not stabilize")
        nxt = []
        for r, pairings in level:
            for i in range(rank):
                cand = r[:i] + (r[i] + 1,) + r[i + 1:]
                if cand in known:
                    continue
                p = 0
                while r[i] > p and r[:i] + (r[i] - p - 1,) + r[i + 1:] in known:
                    p += 1
                if p - pairings[i] >= 1:
                    known.add(cand)
                    nxt.append((cand, tuple(map(add, pairings, cartan[i]))))
                    yield cand, r, i
        level = nxt


def _derived():
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class RootSystem:
    """Simple roots plus derived data for one root system.

    positive_roots is a sorted tuple for deterministic iteration, and
    positive_set its set view, built once. Left empty (from_simples), it is
    generated by one root_closure. root_table holds the integer simple-root
    coordinates of each positive root, in the same order, and
    cartan[i][j] = <alpha_i, alpha_j-check>. scaled_simples is the simple
    roots times den (module docstring). reduced=False marks a
    non-reduced (BC-type) system whose positive roots are supplied directly
    rather than generated; its Weyl group is that of the underlying reduced
    system and all reflection machinery uses the simple roots only.
    """

    simple_roots: tuple[Vector, ...]
    positive_roots: tuple[Vector, ...]
    reduced: bool = True
    cartan: tuple[tuple[int, ...], ...] = _derived()
    root_table: tuple[tuple[int, ...], ...] = _derived()
    weight_coords: tuple[tuple[Q, ...], ...] = _derived()
    scaled_simples: np.ndarray = _derived()
    den: int = _derived()
    positive_set: frozenset[Vector] = _derived()
    _gram_inv: tuple[tuple[Q, ...], ...] = _derived()
    _weights: tuple[Vector, ...] = _derived()

    def __post_init__(self):
        simples, n = self.simple_roots, self.rank
        if not n:
            raise ConstructionError("empty simple system")
        scaled, den = int_rows(simples)
        gram_int = int_product(scaled, scaled.T, 2)
        diag = gram_int.diagonal().tolist()
        if 0 in diag:
            raise ConstructionError("zero vector in simple system")
        try:
            # the inverse is symmetric, so its rows are its columns
            gram_inv = _gauss_jordan(gram_int.tolist(), den * den)
        except ConstructionError:
            raise ConstructionError("simple roots are linearly dependent") from None
        # cartan[i][j] = 2 G_ij / G_jj
        cartan, rest = np.divmod(2 * gram_int, gram_int.diagonal())
        if rest.any():
            raise ConstructionError("non-integral Cartan pairing: not crystallographic")
        if (cartan[~np.eye(n, dtype=bool)] > 0).any():
            raise ConstructionError("obtuse-angle condition violated for simples")
        cartan = tuple(map(tuple, cartan.tolist()))
        # <w_i, alpha_j> = delta_ij |alpha_i|^2 / 2 puts the i-th fundamental
        # weight at |alpha_i|^2 / 2 times row i of the inverse Gram matrix
        coords = tuple(tuple(Q(diag[i], 2 * den * den) * c for c in row)
                       for i, row in enumerate(gram_inv))
        weights, weight_den = int_rows(coords)
        weights = rational_rows(int_product(weights, scaled), weight_den * den)
        for name, value in (("cartan", cartan), ("weight_coords", coords),
                            ("scaled_simples", scaled), ("den", den),
                            ("_gram_inv", tuple(map(tuple, gram_inv))),
                            ("_weights", weights)):
            object.__setattr__(self, name, value)
        if self.positive_roots:
            table = []
            for r in self.positive_roots:
                coeffs = self.root_coords(r)
                if any(c < 0 or c.denominator != 1 for c in coeffs):
                    raise ConstructionError(
                        f"positive root {r} is not a nonneg integer combo of simples"
                    )
                table.append(tuple(int(c) for c in coeffs))
            table = tuple(table)
        else:
            # the ambient roots times den, sorted as integer rows
            table = [root for root, _, _ in root_closure(cartan)]
            ambient = int_product(np.array(table, dtype=np.int64), scaled)
            ambient, table = zip(*sorted(zip(ambient.tolist(), table)))
            object.__setattr__(self, "positive_roots", rational_rows(ambient, den))
        object.__setattr__(self, "root_table", table)
        object.__setattr__(self, "positive_set", frozenset(self.positive_roots))

    @classmethod
    def from_simples(cls, simple_roots: Sequence[Vector]) -> "RootSystem":
        """Raises ConstructionError unless the simple roots are a linearly
        independent crystallographic simple system of a finite system."""
        simples = tuple(tuple(Q(c) for c in s) for s in simple_roots)
        return cls(simples, (), reduced=True)

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
        return v in self.positive_set

    def root_coords(self, v: Vector) -> list[Q]:
        """Coordinates of v in the simple-root basis: its pairings with the
        simple roots times the cached inverse Gram matrix (v must lie in the
        span of the simple roots)."""
        pairings = [inner(v, a) for a in self.simple_roots]
        return [inner(row, pairings) for row in self._gram_inv]

    def half_positive_sum(self) -> Vector:
        return half_sum(self.positive_roots)
