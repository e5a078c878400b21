"""Loader for the frozen reference constants shipped with the package."""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

_GOLDEN = Path(__file__).with_name("golden.json")


@lru_cache(maxsize=1)
def golden() -> dict:
    with open(_GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)

