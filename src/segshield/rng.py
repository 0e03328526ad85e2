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
    own way too. Code that replays or inlines the ``getrandbits`` loop makes
    the draws of ``randrange`` and ``randint`` only when this is true.
    """
    cls = type(rng)
    return cls is random.Random or (
        cls._randbelow is random.Random._randbelow_with_getrandbits
        and cls.getrandbits is random.Random.getrandbits
        and cls.randrange is random.Random.randrange
        and cls.randint is random.Random.randint
    )


class RawWords:
    """The 32-bit words of a ``random.Random``'s MT19937 stream, as numpy
    arrays, so a loop of scalar draws can be replayed on whole blocks.

    ``peek(n)`` returns the next ``n`` words and leaves the generator where
    it was; ``advance(k)`` moves the generator past ``k`` words, so a caller
    that advances by the words its replayed draws took leaves the generator
    where those scalar calls would have left it. Both rest on CPython's
    ``getrandbits(32 * n)``, which returns the next ``n`` words of the
    stream, the first in the lowest bits.
    """

    def __init__(self, rng: random.Random):
        if not draws_as_random(rng):
            raise TypeError(
                f"rng must draw as random.Random does, but {type(rng).__name__} "
                "draws integers its own way"
            )
        self._rng = rng

    def peek(self, n: int):
        """The next ``n`` words, as a uint64 array of values below 2**32."""
        # numpy is imported here, not at module level, so the live sender,
        # which imports this module, does not load numpy at start-up.
        import numpy as np

        state = random.Random.getstate(self._rng)
        words = self._rng.getrandbits(32 * n).to_bytes(4 * n, "little")
        random.Random.setstate(self._rng, state)
        return np.frombuffer(words, "<u4").astype(np.uint64)

    def advance(self, k: int) -> None:
        self._rng.getrandbits(32 * k)


def below_draws(words, n: int):
    """Every attempt ``randrange(n)`` could make, starting at each word.

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
