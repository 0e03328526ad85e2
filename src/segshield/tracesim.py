"""Offline defense simulator over labeled packet traces.

A trace is a time-ordered list of signed frame sizes (positive = incoming,
negative = outgoing) for one device. The simulator replays the defense on
each frame's payload, applies the random-padding baseline, and injects
flagged cover traffic to equalize data rates between devices.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConfigurationError, TraceFormatError
from .rng import make_rng
from .segcore import DEFAULT_MTU, SegmentationConfig, pad_packet_random, segment_lengths

DEFAULT_HEADER_BYTES = 82  # MAC-level frame header; IP-level accounting uses 54
IP_HEADER_BYTES = 54
DEFAULT_MTU_FRAME = DEFAULT_MTU + DEFAULT_HEADER_BYTES
DEFAULT_DURATION_S = 3600.0
DEFAULT_TIME_OVERHEAD = 0.2


@dataclass(frozen=True)
class PacketRecord:
    """One observed packet: when, how big, which way, and whether it is a
    flagged cover packet the receiver will discard."""

    timestamp_us: int
    signed_size: int
    covered: bool = False
    device: str = ""

    def __post_init__(self):
        if self.signed_size == 0:
            raise ValueError("signed_size must be nonzero")
        if self.timestamp_us < 0:
            raise ValueError("timestamp_us must be >= 0")

    @property
    def size(self) -> int:
        return abs(self.signed_size)

    @property
    def outgoing(self) -> bool:
        return self.signed_size < 0


@dataclass(frozen=True)
class Trace:
    records: tuple[PacketRecord, ...]
    device: str
    header_bytes: int = DEFAULT_HEADER_BYTES

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if self.header_bytes < 0:
            raise ValueError("header_bytes must be >= 0")
        prev = -1
        for i, rec in enumerate(self.records):
            if rec.device != self.device:
                raise ValueError(
                    f"record {i} is labeled {rec.device!r}, trace is {self.device!r}"
                )
            if rec.timestamp_us < prev:
                raise ValueError(f"record {i} breaks timestamp ordering")
            prev = rec.timestamp_us

    def __len__(self) -> int:
        return len(self.records)

    @property
    def total_bytes(self) -> int:
        return sum(r.size for r in self.records)

    @property
    def payload_bytes(self) -> int:
        return sum(max(r.size - self.header_bytes, 0) for r in self.records)

    @property
    def duration_us(self) -> int:
        return self.records[-1].timestamp_us if self.records else 0

    def without_cover(self) -> "Trace":
        kept = tuple(r for r in self.records if not r.covered)
        return Trace(kept, self.device, self.header_bytes)


@dataclass(frozen=True)
class DeviceProfile:
    """Synthetic stand-in for a captured device: a packet-rate process plus
    per-direction frame-size distributions.

    ``incoming`` / ``outgoing`` are (frame_length, weight) pairs; the two
    weight totals set the direction mix. ``mode_schedule`` entries
    (start_s, end_s, multiplier) scale the rate inside their interval.
    """

    name: str
    mean_rate: float
    incoming: tuple[tuple[int, float], ...] = ()
    outgoing: tuple[tuple[int, float], ...] = ()
    mode_schedule: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "incoming", tuple((int(l), float(w)) for l, w in self.incoming))
        object.__setattr__(self, "outgoing", tuple((int(l), float(w)) for l, w in self.outgoing))
        object.__setattr__(
            self,
            "mode_schedule",
            tuple((float(a), float(b), float(m)) for a, b, m in self.mode_schedule),
        )
        if self.mean_rate <= 0:
            raise ConfigurationError("mean_rate must be positive")
        if not self.incoming and not self.outgoing:
            raise ConfigurationError("profile needs at least one size distribution")
        for length, weight in (*self.incoming, *self.outgoing):
            if length < 1:
                raise ConfigurationError("frame lengths must be >= 1")
            if not (weight > 0 and math.isfinite(weight)):
                raise ConfigurationError("weights must be positive and finite")
        for start, end, mult in self.mode_schedule:
            if end <= start or mult < 0:
                raise ConfigurationError("bad mode_schedule entry")

    def rate_at(self, t: float) -> float:
        rate = self.mean_rate
        for start, end, mult in self.mode_schedule:
            if start <= t < end:
                rate = self.mean_rate * mult
        return rate

    @classmethod
    def from_dict(cls, raw: dict) -> "DeviceProfile":
        """Parse and check a full profile object (see profiles.resolve_device)."""
        from .profiles import resolve_device  # profiles builds on this module

        return resolve_device(raw)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "mean_rate": self.mean_rate,
            "incoming": [list(p) for p in self.incoming],
            "outgoing": [list(p) for p in self.outgoing],
            "mode_schedule": [list(p) for p in self.mode_schedule],
        }


def load_profile(path: str | Path) -> DeviceProfile:
    with open(path) as fh:
        return DeviceProfile.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# trace I/O


_COLUMNS = ("timestamp_us", "signed_size", "covered", "device")


def write_trace(trace: Trace, path: str | Path, format: str = "jsonl") -> None:
    path = Path(path)
    if format == "jsonl":
        with open(path, "w") as fh:
            for r in trace.records:
                fh.write(
                    json.dumps(
                        {
                            "timestamp_us": r.timestamp_us,
                            "signed_size": r.signed_size,
                            "covered": r.covered,
                            "device": r.device,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
    elif format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_COLUMNS)
            for r in trace.records:
                writer.writerow([r.timestamp_us, r.signed_size, int(r.covered), r.device])
    else:
        raise TraceFormatError(f"unknown trace format {format!r}")


def _parse_covered(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    if isinstance(value, str) and value.lower() in ("0", "1", "true", "false"):
        return value.lower() in ("1", "true")
    raise ValueError(f"bad covered flag {value!r}")


def ingest_trace(
    path: str | Path, format: str | None = None, header_bytes: int = DEFAULT_HEADER_BYTES
) -> Trace:
    """Load and validate one device's trace from a jsonl or csv file."""
    path = Path(path)
    if format is None:
        format = "csv" if path.suffix.lower() == ".csv" else "jsonl"
    if format not in ("jsonl", "csv"):
        raise TraceFormatError(f"unknown trace format {format!r}")

    rows: list[tuple[int, dict]] = []
    if format == "jsonl":
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rows.append((lineno, json.loads(line)))
                except json.JSONDecodeError as exc:
                    raise TraceFormatError(f"invalid JSON: {exc}", line=lineno) from exc
    else:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or tuple(reader.fieldnames) != _COLUMNS:
                raise TraceFormatError(
                    f"csv header must be {','.join(_COLUMNS)}", line=1
                )
            for lineno, row in enumerate(reader, start=2):
                rows.append((lineno, row))

    records: list[PacketRecord] = []
    for lineno, row in rows:
        try:
            record = PacketRecord(
                timestamp_us=int(row["timestamp_us"]),
                signed_size=int(row["signed_size"]),
                covered=_parse_covered(row.get("covered", False)),
                device=str(row["device"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(str(exc), line=lineno) from exc
        if records and record.timestamp_us < records[-1].timestamp_us:
            raise TraceFormatError(
                f"timestamp {record.timestamp_us} breaks ordering", line=lineno
            )
        if records and record.device != records[0].device:
            raise TraceFormatError(
                f"device {record.device!r} differs from {records[0].device!r}", line=lineno
            )
        records.append(record)

    if not records:
        raise TraceFormatError(f"{path} holds no records")
    return Trace(tuple(records), records[0].device, header_bytes)


# ---------------------------------------------------------------------------
# synthesis


def synthesize_trace(
    profile: DeviceProfile,
    duration_s: float,
    rng: random.Random | int,
    header_bytes: int = DEFAULT_HEADER_BYTES,
) -> Trace:
    """Sample a trace from a device profile.

    Packet times come from an inhomogeneous Poisson process (thinned
    against the schedule's peak rate); sizes and directions from the
    weighted per-direction distributions.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    rng = make_rng(rng)

    in_sizes = [l for l, _ in profile.incoming]
    in_weights = [w for _, w in profile.incoming]
    out_sizes = [l for l, _ in profile.outgoing]
    out_weights = [w for _, w in profile.outgoing]
    w_in = sum(in_weights)
    w_out = sum(out_weights)
    p_out = w_out / (w_in + w_out)

    peak = profile.mean_rate * max([1.0, *(m for _, _, m in profile.mode_schedule)])
    records: list[PacketRecord] = []
    t = 0.0
    while True:
        t += rng.expovariate(peak)
        if t >= duration_s:
            break
        if rng.random() * peak > profile.rate_at(t):
            continue
        if rng.random() < p_out:
            size = -rng.choices(out_sizes, out_weights)[0]
        else:
            size = rng.choices(in_sizes, in_weights)[0]
        records.append(
            PacketRecord(
                timestamp_us=round(t * 1e6),
                signed_size=size,
                covered=False,
                device=profile.name,
            )
        )
    return Trace(tuple(records), profile.name, header_bytes)


# ---------------------------------------------------------------------------
# defenses


def obfuscate_trace(
    trace: Trace,
    config: SegmentationConfig,
    time_overhead: float = DEFAULT_TIME_OVERHEAD,
    rng: random.Random | int | None = None,
) -> Trace:
    """Replay random segmentation over every frame's payload.

    Each chunk becomes its own frame (chunk + header bytes, same direction)
    at the parent's timestamp; all timestamps are then dilated by
    (1 + time_overhead). Total payload bytes are conserved exactly.
    """
    if time_overhead < 0:
        raise ValueError("time_overhead must be >= 0")
    rng = make_rng(config.seed if rng is None else rng)
    header = trace.header_bytes
    if trace.records:
        smallest = min(r.size for r in trace.records)
        if header >= smallest:
            raise ConfigurationError(
                f"header_bytes {header} leaves no payload in {smallest}-byte frames"
            )
    scale = 1.0 + time_overhead
    out: list[PacketRecord] = []
    for r in trace.records:
        payload = max(r.size - header, 1)
        plan = segment_lengths(payload, config, rng)
        ts = round(r.timestamp_us * scale)
        sign = -1 if r.outgoing else 1
        for chunk in plan.lengths:
            out.append(
                PacketRecord(
                    timestamp_us=ts,
                    signed_size=sign * (chunk + header),
                    covered=r.covered,
                    device=r.device,
                )
            )
    return Trace(tuple(out), trace.device, header)


def pad_trace(trace: Trace, mtu_frame: int, rng: random.Random | int) -> Trace:
    """Random-padding baseline: every frame grows to a uniform size up to
    the frame ceiling; packet count and timing stay unchanged."""
    rng = make_rng(rng)
    out: list[PacketRecord] = []
    for i, r in enumerate(trace.records):
        if r.size > mtu_frame:
            raise ValueError(
                f"record {i} is {r.size} bytes, above the {mtu_frame}-byte ceiling"
            )
        padded = pad_packet_random(r.size, mtu_frame, rng)
        sign = -1 if r.outgoing else 1
        out.append(
            PacketRecord(
                timestamp_us=r.timestamp_us,
                signed_size=sign * padded,
                covered=r.covered,
                device=r.device,
            )
        )
    return Trace(tuple(out), trace.device, trace.header_bytes)


@dataclass(frozen=True)
class CoverResult:
    """Cover-injected trace plus the byte accounting behind the cover
    percentage (cover_bytes / original_bytes)."""

    trace: Trace
    cover_bytes: int
    original_bytes: int

    @property
    def cover_fraction(self) -> float:
        if self.original_bytes == 0:
            return 0.0
        return self.cover_bytes / self.original_bytes


def inject_cover_traffic(
    target: Trace,
    reference: Trace,
    window_s: float,
    rng: random.Random | int = 0,
) -> CoverResult:
    """Add flagged cover packets to ``target`` until its per-window byte
    volume matches ``reference``'s (within one packet, and only upward).

    Cover sizes and directions are resampled from the target's own records
    so the filler does not import the reference's size fingerprint.
    """
    if window_s <= 0:
        raise ValueError("window must be positive")
    rng = make_rng(rng)
    window_us = round(window_s * 1e6)

    def volumes(trace: Trace) -> dict[int, int]:
        vols: dict[int, int] = {}
        for r in trace.records:
            idx = r.timestamp_us // window_us
            vols[idx] = vols.get(idx, 0) + r.size
        return vols

    target_vols = volumes(target)
    reference_vols = volumes(reference)
    pool = [(r.size, -1 if r.outgoing else 1) for r in target.records]

    cover: list[PacketRecord] = []
    cover_bytes = 0
    for idx in sorted(reference_vols):
        deficit = reference_vols[idx] - target_vols.get(idx, 0)
        if deficit <= 0:
            continue
        if not pool:
            raise ConfigurationError("target trace is empty; no size distribution for cover")
        while deficit > 0:
            size, sign = pool[rng.randrange(len(pool))]
            ts = idx * window_us + rng.randrange(window_us)
            cover.append(
                PacketRecord(
                    timestamp_us=ts,
                    signed_size=sign * size,
                    covered=True,
                    device=target.device,
                )
            )
            cover_bytes += size
            deficit -= size

    # Stable sort keeps original records ahead of cover at equal timestamps,
    # so stripping the flag restores the input byte-for-byte.
    merged = sorted([*target.records, *cover], key=lambda r: r.timestamp_us)
    injected = Trace(tuple(merged), target.device, target.header_bytes)
    return CoverResult(trace=injected, cover_bytes=cover_bytes, original_bytes=target.total_bytes)
