import random

import numpy as np
import pytest

from liecheck.cases import CLASSICAL_FAMILIES, get_case
from liecheck.data import golden
from liecheck.fastscan import _INT64_MAX, magnitude_bound

SMALL_FAMILIES = ("G", "FII", "EIV", "EI", "FI", "SP4R")
BIG_FAMILIES = ("EII", "EV", "EVI", "EVIII", "EIX")


def sample_case(family: str):
    return get_case(family, 2 if family in CLASSICAL_FAMILIES else None)


def largest_accepted(tables) -> int:
    """The largest box coordinate magnitude_bound accepts for tables."""
    lo, hi = 0, 1 << 40
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if magnitude_bound(tables, mid) <= _INT64_MAX:
            lo = mid
        else:
            hi = mid - 1
    return lo


def run_points(low, top):
    """The lattice points of the segment between rows low and top, which
    differ in one coordinate, in increasing order."""
    (axis,) = np.flatnonzero(top != low)
    run = np.repeat(np.minimum(low, top)[None, :], abs(top[axis] - low[axis]) + 1, axis=0)
    run[:, axis] += np.arange(len(run))
    return run


@pytest.fixture(scope="session")
def golden_data():
    return golden()


@pytest.fixture
def rng():
    return random.Random(20250814)
