"""Seedable randomness plumbing.

Every stochastic routine in the package takes an explicit generator (or a
plain integer seed) so experiments replay bit-for-bit.
"""

from __future__ import annotations

import hashlib
import random

Seedable = random.Random | int


def make_rng(source: Seedable) -> random.Random:
    """Return ``source`` itself if it is already a generator, else seed one."""
    if isinstance(source, random.Random):
        return source
    return random.Random(source)


def derive_seed(master: int, *tags: object) -> int:
    """Stable 64-bit sub-seed for a named pipeline stage.

    Hashing keeps sibling stages statistically independent even for
    adjacent master seeds.
    """
    text = "/".join([str(master), *(str(t) for t in tags)])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def draws_as_random(rng: random.Random) -> bool:
    """Whether ``rng`` draws integers as ``random.Random`` does.

    ``random.Random`` draws ``randrange`` and ``randint`` by
    ``_randbelow_with_getrandbits``: ``getrandbits(k)``, k = n.bit_length(),
    until the value is below n. A subclass that overrides ``random()`` alone
    gets ``_randbelow_without_getrandbits`` (CPython's ``__init_subclass__``),
    which draws through ``random()`` instead; one that overrides
    ``_randbelow``, ``getrandbits``, ``randrange`` or ``randint`` draws its
    own way too. Code that inlines the ``getrandbits`` loop makes the draws
    of ``randrange`` and ``randint`` only when this is true.
    """
    cls = type(rng)
    return cls is random.Random or (
        cls._randbelow is random.Random._randbelow_with_getrandbits
        and cls.getrandbits is random.Random.getrandbits
        and cls.randrange is random.Random.randrange
        and cls.randint is random.Random.randint
    )


def below_draws(words, n: int):
    """Every attempt ``randrange(n)`` could make, starting at each word of
    ``words``, a uint64 array of a generator's 32-bit words in stream order.

    CPython draws ``randrange(n)`` as ``getrandbits(k)``, k = n.bit_length(),
    repeated until the value is below ``n``. ``getrandbits(k)`` takes
    ceil(k / 32) words, lowest bits first, and keeps the top bits of the last.
    Returns ``(values, accepted, width)``: ``values[j]`` is the attempt that
    starts at ``words[j]`` (one entry per start with a whole attempt left),
    ``accepted[j]`` is ``values[j] < n``, and ``width`` is the words one
    attempt takes. ``n`` must lie in [1, 2**64).
    """
    if not 1 <= n < 2**64:
        raise ValueError(f"n must lie in [1, 2**64), got {n}")
    k = n.bit_length()
    if k <= 32:
        values = words >> (32 - k)
        width = 1
    else:
        values = words[:-1] | (words[1:] >> (64 - k)) << 32
        width = 2
    return values, values < n, width
