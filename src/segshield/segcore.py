"""Random segmentation of application messages, plus the undefended baseline
it is measured against: default MSS-sized segmentation. The random-padding
baseline works on whole traces, in ``tracesim.pad_trace``.

Everything here is pure and deterministic given the caller's random source,
so traces and live transfers replay exactly from a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import NON_NEGATIVE, POSITIVE, ConfigurationError, check_fields, check_value, rule

# IPv4 + TCP headers without options; a segment payload larger than
# mtu - this would force IP fragmentation.
TCP_IP_HEADER_BYTES = 40
DEFAULT_MTU = 1500


def payload_capacity(mtu: int) -> int:
    return mtu - TCP_IP_HEADER_BYTES


# The largest chunk a band may draw: one full segment at the default MTU.
_MAX_SEG = payload_capacity(DEFAULT_MTU)

# The rule of a segmentation probability, checked by errors.check_value.
PROBABILITY = (lambda v: 0 <= v <= 1, "in [0, 1]")


@dataclass(frozen=True)
class LevelBand:
    """One segmentation level: messages up to ``upper_threshold`` bytes are
    split into chunks drawn uniformly from [min_seg, max_seg].

    ``upper_threshold=None`` marks the catch-all band for larger messages.
    """

    min_seg: int = rule(int, POSITIVE)
    max_seg: int = rule(int, POSITIVE)
    upper_threshold: int | None = rule(int | None, POSITIVE, default=None)

    def __post_init__(self):
        check_fields(self)
        if self.min_seg > self.max_seg:
            raise ConfigurationError(
                f"band requires min_seg <= max_seg, got [{self.min_seg}, {self.max_seg}]"
            )

    def covers(self, msg_len: int) -> bool:
        return self.upper_threshold is None or msg_len <= self.upper_threshold


@dataclass(frozen=True)
class SegmentationConfig:
    """Tunable knobs of the defense: firing probability and level bands, whose
    chunks fit one segment at the default MTU. ``seed`` seeds a live
    connection that is given no ``rng``; it is no config key."""

    prob: float = rule(float, PROBABILITY)
    bands: tuple[LevelBand, ...] = rule([LevelBand], (lambda v: len(v) > 0, "non-empty"))
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "seed", check_value(self.seed, "seed", int, NON_NEGATIVE))
        thresholds = [b.upper_threshold for b in self.bands]
        for i, t in enumerate(thresholds):
            if t is None and i != len(thresholds) - 1:
                raise ConfigurationError("only the final band may be open-ended")
        finite = [t for t in thresholds if t is not None]
        if any(a >= b for a, b in zip(finite, finite[1:])):
            raise ConfigurationError("band thresholds must strictly increase")
        for b in self.bands:
            if b.max_seg > _MAX_SEG:
                raise ConfigurationError(
                    f"band max_seg {b.max_seg} exceeds MTU payload capacity {_MAX_SEG}"
                )


@dataclass(frozen=True)
class SegmentPlan:
    """Chunk lengths for one message. ``segmented`` records whether the
    random split fired or the message passed through untouched. Unchecked:
    ``iter_chunks`` checks a plan before it cuts a message by it."""

    lengths: tuple[int, ...]
    segmented: bool

    @property
    def total(self) -> int:
        return sum(self.lengths)


def plan_default_segments(n: int, mss: int) -> SegmentPlan:
    """Undefended transport behaviour: ceil(n/mss) segments, all of size mss
    except a final remainder."""
    if n < 1:
        raise ValueError(f"message length must be >= 1, got {n}")
    if mss < 1:
        raise ValueError(f"mss must be >= 1, got {mss}")
    full, rem = divmod(n, mss)
    lengths = [mss] * full
    if rem:
        lengths.append(rem)
    return SegmentPlan(tuple(lengths), segmented=False)


def segment_lengths(n: int, config: SegmentationConfig, rng: random.Random) -> SegmentPlan:
    """Split an ``n``-byte message into randomly sized chunks.

    The message's band is the first whose threshold admits ``n``
    (inclusive); the final band takes any message that none admits.
    Messages shorter than the band's min_seg, or losing the probability
    draw (a uniform draw in [0, 1) wins only below prob, so prob=0 never
    segments), pass through whole. Otherwise chunk lengths are drawn
    uniformly from [min_seg, max_seg]; once the remaining bytes fit inside
    one draw the final chunk takes them all, so only the final chunk may be
    shorter than min_seg (and it never exceeds max_seg).
    """
    if n < 1:
        raise ValueError(f"message length must be >= 1, got {n}")
    for band in config.bands:
        if band.upper_threshold is None or n <= band.upper_threshold:
            break
    min_seg = band.min_seg
    # Short-circuit keeps the probability draw unconsumed for ineligible
    # messages, mirroring the send-path behaviour exactly.
    if n < min_seg or rng.random() >= config.prob:
        lengths, segmented = (n,), False
    else:
        # rng.randint(min_seg, max_seg) as CPython's random.Random draws it:
        # getrandbits(k) until the value is below the span. Inlined, it costs
        # no Python frame.
        span = band.max_seg - min_seg + 1
        k = span.bit_length()
        getrandbits = rng.getrandbits
        chunks: list[int] = []
        append = chunks.append
        remaining = n
        while True:
            r = getrandbits(k)
            while r >= span:
                r = getrandbits(k)
            r += min_seg
            if r >= remaining:
                append(remaining)
                break
            append(r)
            remaining -= r
        lengths, segmented = tuple(chunks), True
    return SegmentPlan(lengths, segmented)


def segment_message(
    data: bytes | bytearray | memoryview, config: SegmentationConfig, rng: random.Random
) -> SegmentPlan:
    """Plan the random segmentation of a concrete message."""
    if len(data) == 0:
        raise ValueError("cannot segment an empty message")
    return segment_lengths(len(data), config, rng)


def iter_chunks(data: bytes | bytearray | memoryview, plan: SegmentPlan) -> Iterator[memoryview]:
    """Yield the chunk views a plan prescribes; concatenation == data. Reject
    a plan with no chunk, a chunk <= 0, or a total other than the message's."""
    view = memoryview(data)
    if not plan.lengths:
        raise ValueError("a plan needs at least one chunk")
    if min(plan.lengths) <= 0:
        raise ValueError(f"chunk lengths must be positive, got {min(plan.lengths)}")
    if len(view) != plan.total:
        raise ValueError(f"plan covers {plan.total} bytes, message has {len(view)}")
    start = 0
    for length in plan.lengths:
        yield view[start : start + length]
        start += length
