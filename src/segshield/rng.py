"""Seedable randomness plumbing.

Every stochastic routine in the package takes an explicit generator (or a
plain integer seed) so experiments replay bit-for-bit.
"""

from __future__ import annotations

import hashlib
import random

from .errors import NON_NEGATIVE, check_value

Seedable = random.Random | int


def make_rng(source: Seedable) -> random.Random:
    """Return ``source`` itself if it is already a generator, else seed one
    from it; raise TypeError unless it is a generator or an int (not a bool),
    and ConfigurationError if the int is negative: Random(-n) repeats Random(n)."""
    if isinstance(source, random.Random):
        return source
    if isinstance(source, bool) or not isinstance(source, int):
        raise TypeError(f"rng must be a random.Random or an int seed, got {source!r}")
    return random.Random(check_value(source, "rng", int, NON_NEGATIVE))


def derive_seed(master: int, *tags: object) -> int:
    """Stable 64-bit sub-seed for a named pipeline stage.

    Hashing keeps sibling stages statistically independent even for
    adjacent master seeds.
    """
    text = "/".join([str(master), *(str(t) for t in tags)])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")

