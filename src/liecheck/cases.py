"""Registry of the fourteen real-form cases.

Each case packages a restricted root system, the compact-side subsystem,
the noncompact positive weights, the distinguished pencil direction beta,
the half sums rho_c / rho_n and all Weyl-twisted variants of rho_n, both
families of fundamental weights, and the minimal coset representatives.

Coordinates: k-types are given by nonnegative integer coordinates against
the k-fundamental weights, except for SP4R where the group U(2) has central
torus and a k-type is a plain integer pair (p, q) with p >= q.

The data is derived by integer products (rootdata, weyl), each Fraction
made once at the end, and each g's root system is built once per process
(_root_system) and shared by the cases on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache, wraps

import numpy as np

from .errors import ConstructionError, UnknownCaseError, UsageError
from .rootdata import (
    RootSystem,
    Vector,
    combine,
    coroot_pairing,
    half_sum,
    int_product,
    norm_sq,
    rational_rows,
    vadd,
    vec,
    vneg,
    vsub,
)
from .weyl import (
    WeylWord,
    apply_word,
    int_root_coords,
    minimal_coset_reps,
)

FIXED_FAMILIES = (
    "EI",
    "EII",
    "EIV",
    "EV",
    "EVI",
    "EVIII",
    "EIX",
    "FI",
    "FII",
    "G",
    "SP4R",
)
CLASSICAL_FAMILIES = ("SL2nR", "SL2n1R", "SLnH")
ALL_FAMILIES = CLASSICAL_FAMILIES + FIXED_FAMILIES

KType = tuple[int, ...]


@dataclass(frozen=True)
class CaseId:
    family: str
    n: int | None = None

    def __post_init__(self):
        if self.family not in ALL_FAMILIES:
            raise UnknownCaseError(f"unknown case family {self.family!r}")
        if self.family in CLASSICAL_FAMILIES:
            if self.n is None:
                raise UsageError(f"{self.family} requires the parameter n")
            floor = 1 if self.family == "SL2n1R" else 2
            if not isinstance(self.n, int) or self.n < floor:
                raise UsageError(f"{self.family} requires integer n >= {floor}")
        elif self.n is not None:
            raise UsageError(f"{self.family} does not take a parameter n")

    @property
    def label(self) -> str:
        if self.n is None:
            return self.family
        return f"{self.family}(n={self.n})"


@dataclass(frozen=True)
class CaseData:
    id: CaseId
    g_restricted: RootSystem
    k_system: RootSystem
    p_positive: frozenset[Vector]
    beta: Vector
    beta_second: Vector | None
    rho: Vector
    rho_c: Vector
    rho_n_variants: tuple[Vector, ...]
    k_fund_weights: tuple[Vector, ...]
    g_fund_weights: tuple[Vector, ...]
    k_has_center: bool
    w1: tuple[WeylWord, ...]
    # integer matrix of each w1 element on g's simple-root coordinates
    w1_matrices: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    # data derived from the case, built once per case object (per_case)
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def rank_k(self) -> int:
        return self.k_system.rank

    @property
    def num_variants(self) -> int:
        return len(self.w1)

    @property
    def beta_ktype(self) -> KType:
        return ambient_to_ktype(self, self.beta)

    @property
    def ktype_dim(self) -> int:
        """Number of coordinates in a k-type for this case."""
        return len(self.beta) if self.k_has_center else self.k_system.rank

    @property
    def ktype_basis(self) -> tuple[Vector, ...]:
        """Ambient vectors of the k-type coordinates: the k-fundamental
        weights, or for SP4R the ambient unit vectors."""
        if not self.k_has_center:
            return tuple(self.k_fund_weights)
        dim = len(self.beta)
        return tuple(vec(*(int(j == i) for j in range(dim))) for i in range(dim))


def per_case(build):
    """Cache build(case) on the case object, so it runs once per case.
    A copy made by dataclasses.replace starts with an empty cache."""

    @wraps(build)
    def cached(case: CaseData):
        if build not in case.derived:
            case.derived[build] = build(case)
        return case.derived[build]

    return cached


def _normalize_ktype(case: CaseData, mu) -> KType:
    coords = tuple(mu)
    if len(coords) != case.ktype_dim:
        raise UsageError(
            f"{case.id.label} expects {case.ktype_dim} k-type coordinates, "
            f"got {len(coords)}"
        )
    return coords


def ktype_is_dominant(case: CaseData, mu) -> bool:
    coords = _normalize_ktype(case, mu)
    if case.k_has_center:
        return coords[0] >= coords[1]
    return all(c >= 0 for c in coords)


def ktype_to_ambient(case: CaseData, mu) -> Vector:
    """Ambient coordinates of a k-type.

    For semisimple k this is the combination of k-fundamental weights; for
    SP4R the pair (p, q) already lives in the ambient plane.
    """
    coords = _normalize_ktype(case, mu)
    if case.k_has_center:
        return vec(*coords)
    return combine(case.k_fund_weights, coords)


def ambient_to_ktype(case: CaseData, v: Vector) -> KType:
    """Inverse of ktype_to_ambient for vectors in the k-weight lattice span."""
    if case.k_has_center:
        coords = [Q(c) for c in v]
        if any(c.denominator != 1 for c in coords):
            raise UsageError(f"{v} is not a k-integral weight")
        return tuple(map(int, coords))
    coords = []
    for gamma in case.k_system.simple_roots:
        c = coroot_pairing(v, gamma)
        if c.denominator != 1:
            raise UsageError(f"{v} is not a k-integral weight")
        coords.append(int(c))
    back = ktype_to_ambient(case, coords)
    if back != tuple(v):
        raise UsageError(f"{v} is not in the span of the k-fundamental weights")
    return tuple(coords)


# ---------------------------------------------------------------------------
# per-family construction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _root_system(simples: tuple[Vector, ...]) -> RootSystem:
    """One root system per simple system and process, shared by the cases
    on it: E8, E7, the short-first F4 and C_n each serve two or three."""
    return RootSystem.from_simples(simples)


def _build_g2():
    a1, a2 = vec(1, -1, 0), vec(-2, 1, 1)
    g = RootSystem.from_simples([a1, a2])
    k = RootSystem.from_simples([a1, combine((a1, a2), (3, 2))])
    p = g.positive_set - k.positive_set
    beta = combine((a1, a2), (3, 1))
    return g, k, p, beta


def _f4_short_first_simples() -> tuple[Vector, ...]:
    """F4 simple roots ordered with the two short ones first."""
    return (
        vec("1/2", "-1/2", "-1/2", "-1/2"),
        vec(0, 0, 0, 1),
        vec(0, 0, 1, -1),
        vec(0, 1, -1, 0),
    )


def _build_f1():
    simples = _f4_short_first_simples()
    g = _root_system(simples)
    gamma4 = combine(simples, (2, 4, 3, 2))
    k = RootSystem.from_simples([simples[0], simples[1], simples[2], gamma4])
    p = g.positive_set - k.positive_set
    beta = vec(1, 0, 1, 0)
    return g, k, p, beta


def _build_f2():
    g = _root_system(_f4_short_first_simples())
    k = RootSystem.from_simples(
        [vec(1, -1, 0, 0), vec(0, 1, -1, 0), vec(0, 0, 1, -1), vec(0, 0, 0, 1)]
    )
    p = g.positive_set - k.positive_set
    beta = vec("1/2", "1/2", "1/2", "1/2")
    return g, k, p, beta


def _build_e1():
    # F4 realized at doubled metric scale: the short roots come out at
    # squared norm 2 so that k is a standard C4 and every half sum below
    # matches the tabulated coordinates.
    a1, a2, a3, a4 = (
        vec(0, 1, -1, 0),
        vec(0, 0, 1, -1),
        vec(0, 0, 0, 2),
        vec(1, -1, -1, -1),
    )
    g = RootSystem.from_simples([a1, a2, a3, a4])
    gamma1 = vadd(vadd(a2, a3), a4)
    k = RootSystem.from_simples([gamma1, a1, a2, a3])
    kpos = k.positive_set
    # noncompact weights: the complement of k plus a second appearance of
    # every short root (the short root spaces have multiplicity two)
    p = frozenset(
        r for r in g.positive_roots if r not in kpos or norm_sq(r) == 2
    )
    beta = vec(1, 1, 1, 1)
    return g, k, p, beta


def _build_e4():
    simples = _f4_short_first_simples()
    g = _root_system(simples)
    k = g
    p = frozenset(r for r in g.positive_roots if norm_sq(r) == 1)
    beta = vec(1, 0, 0, 0)
    return g, k, p, beta


def _e8_simples() -> tuple[Vector, ...]:
    rows = [
        ("1/2", "-1/2", "-1/2", "-1/2", "-1/2", "-1/2", "-1/2", "1/2"),
        (1, 1, 0, 0, 0, 0, 0, 0),
        (-1, 1, 0, 0, 0, 0, 0, 0),
        (0, -1, 1, 0, 0, 0, 0, 0),
        (0, 0, -1, 1, 0, 0, 0, 0),
        (0, 0, 0, -1, 1, 0, 0, 0),
        (0, 0, 0, 0, -1, 1, 0, 0),
        (0, 0, 0, 0, 0, -1, 1, 0),
    ]
    return tuple(vec(*r) for r in rows)


_E6_THETA = (1, 2, 2, 3, 2, 1)  # highest root of the rank-6 subsystem
_E7_THETA = (2, 2, 3, 4, 3, 2, 1)
_E8_THETA = (2, 3, 4, 6, 5, 4, 3, 2)


def _build_e_case(family: str):
    alpha = _e8_simples()

    def comb(coeffs):
        return combine(alpha[: len(coeffs)], coeffs)

    if family == "EII":
        g = _root_system(alpha[:6])
        gammas = [alpha[5], alpha[4], alpha[3], alpha[2], alpha[0], comb(_E6_THETA)]
        beta_coords = (0, 0, 1, 0, 0, 1)
    elif family == "EV":
        g = _root_system(alpha[:7])
        gammas = [alpha[0]] + [alpha[i] for i in range(2, 7)] + [comb(_E6_THETA)]
        beta_coords = (0, 0, 0, 1, 0, 0, 0)
    elif family == "EVI":
        g = _root_system(alpha[:7])
        gammas = [alpha[6], alpha[5], alpha[4], alpha[3], alpha[1], alpha[2],
                  comb(_E7_THETA)]
        beta_coords = (0, 0, 0, 0, 0, 1, 1)
    elif family == "EVIII":
        g = _root_system(alpha)
        gammas = [comb(_E7_THETA)] + [alpha[9 - i] for i in range(2, 7)] + [
            alpha[1], alpha[2]]
        beta_coords = (0, 0, 0, 0, 0, 0, 1, 0)
    elif family == "EIX":
        g = _root_system(alpha)
        gammas = [alpha[i] for i in range(7)] + [comb(_E8_THETA)]
        beta_coords = (0, 0, 0, 0, 0, 0, 1, 1)
    else:
        raise UnknownCaseError(f"unknown case family {family!r}")
    k = RootSystem.from_simples(gammas)
    p = g.positive_set - k.positive_set
    beta = combine(k.fundamental_weights, beta_coords)
    return g, k, p, beta


def _unit(dim: int, i: int, value=1) -> Vector:
    return tuple(Q(value) if j == i else Q(0) for j in range(dim))


def _build_classical(family: str, n: int):
    type_a = [vsub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
    c_simples = type_a + [_unit(n, n - 1, 2)]
    b_simples = type_a + [_unit(n, n - 1)]

    pairs = [
        f(i, j)
        for i in range(n)
        for j in range(i + 1, n)
        for f in (lambda i, j: vsub(_unit(n, i), _unit(n, j)),
                  lambda i, j: vadd(_unit(n, i), _unit(n, j)))
    ]
    doubles = [_unit(n, i, 2) for i in range(n)]
    singles = [_unit(n, i) for i in range(n)]

    if family == "SL2nR":
        g = _root_system(tuple(c_simples))
        d_simples = type_a + [vadd(_unit(n, n - 2), _unit(n, n - 1))]
        k = RootSystem.from_simples(d_simples)
        p = frozenset(pairs) | frozenset(doubles)
        beta = _unit(n, 0, 2)
    elif family == "SL2n1R":
        reduced = RootSystem.from_simples(b_simples)
        g = RootSystem.non_reduced(
            reduced.simple_roots, reduced.positive_roots + tuple(doubles)
        )
        k = reduced
        p = frozenset(pairs) | frozenset(singles) | frozenset(doubles)
        beta = _unit(n, 0, 2)
    elif family == "SLnH":
        g = _root_system(tuple(c_simples))
        k = g
        p = frozenset(pairs)
        beta = vadd(_unit(n, 0), _unit(n, 1))
    else:
        raise UnknownCaseError(f"unknown case family {family!r}")
    return g, k, p, beta


def _build_sp4r():
    g = RootSystem.from_simples([vec(1, -1), vec(0, 2)])
    k = RootSystem.from_simples([vec(1, -1)])
    p = frozenset({vec(2, 0), vec(0, 2), vec(1, 1)})
    return g, k, p, vec(2, 0), vec(0, -2)


@lru_cache(maxsize=None)
def build_case(case_id: CaseId) -> CaseData:
    """Construct and internally cross-check the full data sheet of a case."""
    family = case_id.family
    beta_second = None
    k_has_center = False
    if family == "G":
        g, k, p, beta = _build_g2()
    elif family == "FI":
        g, k, p, beta = _build_f1()
    elif family == "FII":
        g, k, p, beta = _build_f2()
    elif family == "EI":
        g, k, p, beta = _build_e1()
    elif family == "EIV":
        g, k, p, beta = _build_e4()
    elif family in ("EII", "EV", "EVI", "EVIII", "EIX"):
        g, k, p, beta = _build_e_case(family)
    elif family in CLASSICAL_FAMILIES:
        g, k, p, beta = _build_classical(family, case_id.n)
    elif family == "SP4R":
        g, k, p, beta, beta_second = _build_sp4r()
        k_has_center = True
    else:
        raise UnknownCaseError(f"unknown case family {family!r}")

    rho_c = k.half_positive_sum()
    rho_n = half_sum(p)
    rho = vadd(rho_c, rho_n)
    w1, w1_matrices = map(tuple, minimal_coset_reps(g, k))
    # every w(rho) - rho_c on simple-root coordinates (each term < 2**62)
    coords, scale = int_root_coords(g, [rho, rho_c])
    shifted = int_product(np.array(w1_matrices), coords, 2)[:, :, 0] - coords[:, 1]
    variants = rational_rows(int_product(shifted, g.scaled_simples), scale * g.den)
    if variants[0] != rho_n:
        raise ConstructionError(
            f"{case_id.label}: identity coset image disagrees with the "
            f"half sum of the noncompact weights"
        )
    if not all(coroot_pairing(beta, gmm) >= 0 for gmm in k.simple_roots):
        raise ConstructionError(f"{case_id.label}: beta is not k-dominant")
    if beta not in p:
        raise ConstructionError(
            f"{case_id.label}: beta is not among the noncompact positives"
        )
    case = CaseData(
        id=case_id,
        g_restricted=g,
        k_system=k,
        p_positive=frozenset(p),
        beta=beta,
        beta_second=beta_second,
        rho=rho,
        rho_c=rho_c,
        rho_n_variants=variants,
        k_fund_weights=k.fundamental_weights,
        g_fund_weights=g.fundamental_weights,
        k_has_center=k_has_center,
        w1=w1,
        w1_matrices=w1_matrices,
    )
    return case


def get_case(family: str, n: int | None = None) -> CaseData:
    return build_case(CaseId(family, n))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _classical_rho_n_expected(case: CaseData) -> list[Vector]:
    n = case.id.n
    if case.id.family == "SL2nR":
        base = vec(*range(n, 0, -1))
        flipped = base[:-1] + (-base[-1],)
        return [base, flipped]
    if case.id.family == "SL2n1R":
        return [tuple(Q(2 * k + 3, 2) for k in range(n - 1, -1, -1))]
    return [vec(*range(n - 1, -1, -1))]


def validate_case(case: CaseData) -> list[CheckResult]:
    """Re-derive every stored invariant; failures are reported, not raised."""
    checks: list[CheckResult] = []

    def record(name: str, ok: bool, detail: str = ""):
        checks.append(CheckResult(name, bool(ok), "" if ok else detail))

    record(
        "rho-decomposition",
        case.rho == vadd(case.rho_c, case.rho_n_variants[0]),
        f"rho={case.rho} differs from rho_c + rho_n",
    )
    g = case.g_restricted
    # positive roots, then the noncompact ones, on simple-root coordinates
    coords, scale = int_root_coords(g, g.positive_roots + tuple(case.p_positive))
    roots = coords[:, : len(g.positive_roots)]
    noncompact = {tuple(c) for c in coords[:, len(g.positive_roots):].T}
    plus_minus_p = noncompact | {tuple(-c for c in r) for r in noncompact}
    for j, (word, m, variant) in enumerate(
        zip(case.w1, case.w1_matrices, case.rho_n_variants)
    ):
        image = apply_word(word, case.rho, g)
        record(
            f"variant-{j}-via-word",
            image == vadd(case.rho_c, variant),
            f"word {word} image {image}",
        )
        # the noncompact weights that stay positive in the twisted order
        kept = [s for s in (m @ roots).T if tuple(s) in plus_minus_p]
        twisted = combine(
            g.simple_roots, [Q(int(c), 2 * scale) for c in np.sum(kept, axis=0)]
        )
        record(
            f"variant-{j}-via-halfsum",
            twisted == variant,
            f"twisted-order noncompact half sum is {twisted}, stored {variant}",
        )
        record(
            f"variant-{j}-norm",
            norm_sq(vadd(variant, case.rho_c)) == norm_sq(case.rho),
            "Weyl image of rho changed its length",
        )
    record(
        "beta-k-dominant",
        all(coroot_pairing(case.beta, gmm) >= 0 for gmm in case.k_system.simple_roots),
        f"beta={case.beta}",
    )
    record(
        "beta-noncompact",
        case.beta in case.p_positive,
        f"beta={case.beta} missing from the noncompact positives",
    )
    if case.id.family == "SP4R":
        record(
            "second-beta-present",
            case.beta_second is not None
            and (
                case.beta_second in case.p_positive
                or vneg(case.beta_second) in case.p_positive
            ),
            f"second highest weight {case.beta_second}",
        )
    else:
        record("second-beta-absent", case.beta_second is None)
    for i, gamma in enumerate(case.k_system.simple_roots):
        record(
            f"gamma-{i + 1}-is-positive-root",
            case.g_restricted.is_positive_root(gamma),
            f"gamma={gamma}",
        )
    record(
        "coset-count",
        len(case.w1) == len(case.rho_n_variants)
        and case.w1[0] == (),
        f"{len(case.w1)} reps for {len(case.rho_n_variants)} variants, "
        f"first {case.w1[:1]}",
    )
    if case.id.family in CLASSICAL_FAMILIES:
        expected = _classical_rho_n_expected(case)
        record(
            "variant-closed-form",
            list(case.rho_n_variants) == expected,
            f"stored {case.rho_n_variants}, closed form {expected}",
        )
    return checks


@dataclass(frozen=True)
class CaseDescriptor:
    family: str
    parametrized: bool
    rank_g: int
    rank_k: int
    k_has_center: bool
    num_variants: int | None


def list_cases() -> list[CaseDescriptor]:
    """Registry summary; classical families are described at n=2."""
    out = []
    for family in ALL_FAMILIES:
        parametrized = family in CLASSICAL_FAMILIES
        sample = get_case(family, 2) if parametrized else get_case(family)
        out.append(
            CaseDescriptor(
                family=family,
                parametrized=parametrized,
                rank_g=sample.g_restricted.rank,
                rank_k=sample.k_system.rank,
                k_has_center=sample.k_has_center,
                num_variants=None if parametrized else sample.num_variants,
            )
        )
    return out
