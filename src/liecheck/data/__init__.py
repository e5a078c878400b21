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


@lru_cache(maxsize=1)
def golden_digest() -> str:
    """sha1 of the packaged golden.json, as stored."""
    # imported here: hashlib loads OpenSSL, several MB of resident memory
    # that only checkpointed scans need
    from hashlib import sha1

    return sha1(_GOLDEN.read_bytes()).hexdigest()
