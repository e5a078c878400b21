"""Spin norm of a k-type and the spin module's extremal weight data.

The squared spin norm of a dominant k-type mu is the minimum over the
twist variants j of ||{mu - rho_n_j} + rho_c||^2, where {.} conjugates
into the k-dominant chamber. The minimizing variants index the lowest
weights -rho_n_j of the spin module that mu sits closest to.
"""

from __future__ import annotations

from fractions import Fraction as Q

from .cases import CaseData, _normalize_ktype, ktype_is_dominant, ktype_to_ambient
from .errors import UsageError
from .rootdata import Vector, norm_sq, vadd, vsub
from .weyl import to_dominant


def _variant_norm_sq(case: CaseData, ambient: Vector, j: int) -> Q:
    shifted = vsub(ambient, case.rho_n_variants[j])
    dominant, _ = to_dominant(shifted, case.k_system)
    return norm_sq(vadd(dominant, case.rho_c))


def _checked_ambient(case: CaseData, mu) -> Vector:
    coords = _normalize_ktype(case, mu)
    if not ktype_is_dominant(case, coords):
        raise UsageError(f"{coords} is not dominant for {case.id.label}")
    return ktype_to_ambient(case, coords)


def spin_norm_sq(case: CaseData, mu) -> Q:
    """Exact squared spin norm of a dominant k-type."""
    return min(variant_norms_sq(case, mu))


def variant_norms_sq(case: CaseData, mu) -> tuple[Q, ...]:
    """All per-variant squared norms, in variant order."""
    ambient = _checked_ambient(case, mu)
    return tuple(
        _variant_norm_sq(case, ambient, j) for j in range(case.num_variants)
    )
