"""The raw MT19937 words against random.Random on this interpreter.

Cover injection replays CPython's scalar draws from the raw words, read
with getrandbits(32 * n). Python promises a stable stream only for
random(); these tests fail if getrandbits or randrange ever draw differently
from what the replay assumes.
"""

import random

import numpy as np
import pytest

from segshield.tracesim import below_draws


def read_words(rng, n):
    """The next ``n`` words of ``rng``, read as cover injection reads them."""
    words = rng.getrandbits(32 * n).to_bytes(4 * n, "little")
    return np.frombuffer(words, "<u4").astype(np.uint64)


def test_words_are_getrandbits_32():
    words = read_words(random.Random(11), 2000)
    expected = random.Random(11)
    assert words.tolist() == [expected.getrandbits(32) for _ in range(2000)]


def test_random_is_two_words():
    # random() = (a >> 5, b >> 6) as a 53-bit fraction, a and b two words.
    words = read_words(random.Random(12), 2000).tolist()
    expected = random.Random(12)
    for a, b in zip(words[::2], words[1::2]):
        assert ((a >> 5) * 67108864 + (b >> 6)) / 9007199254740992 == expected.random()


def replay_randrange(words, n):
    """randrange(n) draws in order, as below_draws lays them out."""
    values, accepted, width = below_draws(words, n)
    draws, at = [], 0
    while at < len(values):
        if accepted[at]:
            draws.append(int(values[at]))
        at += width
    return draws


@pytest.mark.parametrize(
    "n",
    [1, 2, 3, 2**16, 2**16 - 1, 2**16 + 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1,
     2**40, 2**63 - 1],
)
def test_randrange_replay(n):
    draws = replay_randrange(read_words(random.Random(n), 3000), n)
    expected = random.Random(n)
    assert len(draws) > 500
    assert draws == [expected.randrange(n) for _ in draws]


def test_below_draws_rejects_out_of_range():
    words = read_words(random.Random(0), 4)
    for n in (0, 2**64):
        with pytest.raises(ValueError, match="n must lie"):
            below_draws(words, n)


@pytest.mark.parametrize("used", [0, 1, 623, 624, 625, 5000])
def test_advance_leaves_generator_where_scalar_calls_would(used):
    # Blocks read one after another go on with the stream as scalar calls do.
    rng = random.Random(7)
    rng.gauss(0, 1)  # the cached second normal must survive too
    expected = random.Random(7)
    expected.gauss(0, 1)
    first, second = read_words(rng, used // 2 + 1), read_words(rng, used - used // 2 + 1)
    words = [*first.tolist(), *second.tolist()]
    assert words == [expected.getrandbits(32) for _ in range(used + 2)]
    assert rng.getstate() == expected.getstate()
    assert rng.gauss(0, 1) == expected.gauss(0, 1)
    assert rng.random() == expected.random()

