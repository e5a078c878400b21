import os
import random

import pytest

from liecheck.cases import CLASSICAL_FAMILIES, get_case
from liecheck.data import golden
from liecheck.fastscan import _INT64_MAX, magnitude_bound

SMALL_FAMILIES = ("G", "FII", "EIV", "EI", "FI", "SP4R")
BIG_FAMILIES = ("EII", "EV", "EVI", "EVIII", "EIX")


def long_runs_enabled() -> bool:
    return os.environ.get("LIECHECK_LONG", "") == "1"


def require_long_runs():
    if not long_runs_enabled():
        pytest.skip("multi-hour scan; set LIECHECK_LONG=1 to include it")


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


@pytest.fixture(scope="session")
def golden_data():
    return golden()


@pytest.fixture
def rng():
    return random.Random(20250814)
