"""Offline defense simulator over labeled packet traces.

A trace holds one device's time-ordered signed frame sizes (positive =
incoming, negative = outgoing) as numpy columns. The simulator replays the
defense on each frame's payload, applies the random-padding baseline, and
injects flagged cover traffic to equalize data rates between devices.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from array import array
from bisect import bisect
from dataclasses import dataclass, replace
from itertools import accumulate, chain, islice
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, TraceFormatError, TraceRecordError
from .errors import NON_NEGATIVE, POSITIVE, check_value
from .profiles import DeviceProfile
from .rng import make_rng
from .segcore import DEFAULT_MTU, SegmentationConfig, segment_lengths

DEFAULT_HEADER_BYTES = 82  # MAC-level frame header; IP-level accounting uses 54
DEFAULT_MTU_FRAME = DEFAULT_MTU + DEFAULT_HEADER_BYTES
DEFAULT_DURATION_S = 3600.0
DEFAULT_TIME_OVERHEAD = 0.2


# The rule for a window length in seconds: round(v * 1e6) is in [1, 2**63).
WINDOW = (
    lambda v: 0.5 < v * 1e6 < 2**63,
    "at least 1 µs and below 2**63 µs once rounded to whole microseconds",
)


def window_us(window_s: float) -> int:
    """A window length in whole microseconds, the unit traces are cut in.
    Raise ConfigurationError naming window_s unless it passes WINDOW."""
    return round(check_value(window_s, "window_s", float, WINDOW) * 1e6)


_COLUMN_TYPES = {"timestamp_us": np.int64, "signed_size": np.int64, "covered": np.bool_}


def _frozen(column: np.ndarray) -> np.ndarray:
    """``column``, made read-only so that a Trace adopts it without a copy.
    Only for an array that its maker hands over and no longer writes to."""
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class Trace:
    """One device's packets in time order, as read-only columns of equal
    length: ``timestamp_us`` (int64), ``signed_size`` (int64, negative is
    outgoing) and ``covered`` (bool). Every trace rule is checked here,
    whichever code built the trace: no size is zero, no timestamp is
    negative, timestamps never decrease, and the absolute sizes total below
    2**63 bytes, so that every byte sum fits in 64 bits. A broken rule
    raises TraceRecordError naming the first bad record.

    A column that is a read-only array owning its memory is adopted as it
    is; any other column is copied, so no later write to it reaches the
    trace."""

    timestamp_us: np.ndarray
    signed_size: np.ndarray
    covered: np.ndarray
    device: str
    header_bytes: int = DEFAULT_HEADER_BYTES

    def __post_init__(self):
        for name, dtype in _COLUMN_TYPES.items():
            column = getattr(self, name)
            if not (
                isinstance(column, np.ndarray)
                and column.flags.owndata
                and not column.flags.writeable
            ):
                column = np.array(column)
            if column.size and not np.can_cast(column.dtype, dtype, "same_kind"):
                raise TypeError(f"{name} must hold {np.dtype(dtype)} values, got {column.dtype}")
            column = column.astype(dtype, copy=False)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        check_value(self.header_bytes, "header_bytes", int, NON_NEGATIVE)
        lengths = {name: len(getattr(self, name)) for name in _COLUMN_TYPES}
        if len(set(lengths.values())) > 1:
            raise TraceRecordError(f"columns differ in length {lengths}", min(lengths.values()))
        ts, size = self.timestamp_us, self.signed_size
        broken = (size == 0) | (ts < 0)
        broken[1:] |= ts[1:] < ts[:-1]
        if broken.any():
            i = int(broken.argmax())
            raise TraceRecordError(
                "signed_size must be nonzero" if size[i] == 0
                else f"timestamp_us {ts[i]} is negative" if ts[i] < 0
                else f"timestamp_us {ts[i]} is before the previous {ts[i - 1]}",
                i,
            )
        # Exact in Python ints: np.abs(-2**63) wraps to itself.
        if len(size) and max(-int(size.min()), int(size.max())) * len(size) >= 2**63:
            for i, total in enumerate(accumulate(map(abs, size.tolist()))):
                if total >= 2**63:
                    raise TraceRecordError(f"sizes total {total} bytes here, 2**63 or more", i)

    def __len__(self) -> int:
        return len(self.timestamp_us)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.device, self.header_bytes) == (other.device, other.header_bytes) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMN_TYPES
        )

    @property
    def total_bytes(self) -> int:
        return int(np.abs(self.signed_size).sum())

    @property
    def payload_bytes(self) -> int:
        return int(np.maximum(np.abs(self.signed_size) - self.header_bytes, 0).sum())

    @property
    def duration_us(self) -> int:
        return int(self.timestamp_us[-1]) if len(self) else 0

    def without_cover(self) -> "Trace":
        kept = ~self.covered
        return replace(self, **{name: getattr(self, name)[kept] for name in _COLUMN_TYPES})


# ---------------------------------------------------------------------------
# trace I/O


_COLUMNS = (*_COLUMN_TYPES, "device")


_WRITE_ROWS = 1 << 12  # rows formatted at a time, to bound the memory a write takes
# Sizes whose line texts one row format keeps: a padded trace holds about
# 3,000, and 2**14 sizes hold about 4 MB of texts.
_KNOWN_SIZES = 1 << 14
# Bytes read at a time by the columnar jsonl reader, then extended to the end
# of a line. Parsing a block holds up to 2.7 times its size, mostly the text
# rendered back and its encoded copy, and at 1 MiB that set the peak memory of
# an experiment over recorded traces; blocks of 128 KiB to 1 MiB read a 2.9 MB
# trace in the same 12-15 ms (2 CPUs).
_READ_BYTES = 1 << 18


def _trace_format(path: str | Path) -> str:
    """csv for a ``.csv`` suffix, jsonl for any other."""
    return "csv" if Path(path).suffix.lower() == ".csv" else "jsonl"


def _row_format(device: str, format: str):
    """(header, newline, render) of write_trace's ``format`` for ``device``:
    render(timestamp_us, signed_size, covered) is the text of those rows."""
    if format == "jsonl":
        # The same bytes as json.dumps(record, sort_keys=True) for each record.
        device = json.dumps(device)
        header, newline, line = "", None, "%s%d}\n"

        def text(size, covered):
            flag = "true" if covered else "false"
            return f'{{"covered": {flag}, "device": {device}, "signed_size": {size}, "timestamp_us": '

    else:
        # The same bytes as csv.writer: its quoting of the device, its \r\n.
        buffer = io.StringIO()
        csv.writer(buffer).writerows([_COLUMNS, (0, device)])
        header, row = buffer.getvalue().split("\r\n", 1)
        device = row.removeprefix("0,")  # with the line end
        header, newline, line = header + "\r\n", "", "%d,%s"

        def text(size, covered):
            return f"{size},{int(covered)},{device}"

    # A line is the timestamp plus a text fixed by (signed_size, covered).
    # Each size's two texts are formatted once for every call of render, for
    # up to _KNOWN_SIZES sizes; texts of further sizes are formatted per call.
    known: dict[int, tuple[str, str]] = {}

    def new_texts(size):
        pair = text(size, False), text(size, True)
        if len(known) < _KNOWN_SIZES:
            known[size] = pair
        return pair

    def render(timestamp_us, signed_size, covered) -> str:
        sizes, size_index = np.unique(signed_size, return_inverse=True)
        texts = [known.get(size) or new_texts(size) for size in sizes.tolist()]
        texts = np.array([*chain.from_iterable(texts)], object)
        kinds = texts[2 * size_index + covered].tolist()
        timestamps = timestamp_us.tolist()
        pairs = zip(kinds, timestamps) if format == "jsonl" else zip(timestamps, kinds)
        return line * len(timestamps) % tuple(chain.from_iterable(pairs))

    return header, newline, render


def write_trace(trace: Trace, path: str | Path) -> None:
    """Write a csv trace file for a ``.csv`` suffix, else a jsonl one."""
    header, newline, render = _row_format(trace.device, _trace_format(path))
    with open(path, "w", newline=newline) as fh:
        fh.write(header)
        for start in range(0, len(trace), _WRITE_ROWS):
            rows = slice(start, start + _WRITE_ROWS)
            fh.write(render(trace.timestamp_us[rows], trace.signed_size[rows], trace.covered[rows]))


def _parse_integer(value, key: str) -> int:
    """A whole number in int64 range; a bool or a fractional float is an error."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    number = int(value)
    if not -(2**63) <= number < 2**63:
        raise ValueError(f"{key} {number} does not fit in 64 bits")
    return number


def _parse_covered(value) -> bool:
    """A JSON bool, 0 or 1, or one of the strings 0, 1, true, false (any case)."""
    text = str(value).lower()
    if text not in ("0", "1", "true", "false"):
        raise ValueError(f"bad covered flag {value!r}")
    return text in ("1", "true")


def _parse_device(value) -> str:
    """A JSON or csv string; null, a number or a missing csv field is an error."""
    if not isinstance(value, str):
        raise ValueError(f"device must be a string, got {value!r}")
    return value


def _read_rows(fh, format: str):
    """(line number, row) for each record of an open jsonl or csv file."""
    if format == "csv":
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != _COLUMNS:
            raise TraceFormatError(f"csv header must be {','.join(_COLUMNS)}", line=1)
        for row in reader:
            # The reader skips blank lines, so its own count is the row's line.
            if None in row:  # DictReader files fields beyond the header under None
                fields = len(_COLUMNS) + len(row[None])
                raise TraceFormatError(
                    f"{fields} fields where the header has {len(_COLUMNS)}", line=reader.line_num
                )
            yield reader.line_num, row
        return
    for lineno, line in enumerate(fh, start=1):
        if line.strip():
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"invalid JSON: {exc}", line=lineno) from exc
            if not isinstance(record, dict):
                raise TraceFormatError(
                    f"record must be a JSON object, got {type(record).__name__}", line=lineno
                )
            yield lineno, record


def _ingest_lines(path: str | Path, format: str, header_bytes: int) -> Trace:
    """Read a jsonl or csv trace record by record, naming the line of the
    first bad record. Records fill typed columns, 8 bytes a number and one
    a flag, so a read holds no Python object per record."""
    timestamps, sizes, covered = array("q"), array("q"), bytearray()
    device = None
    with open(path, newline="") as fh:
        for lineno, row in _read_rows(fh, format):
            try:
                timestamps.append(_parse_integer(row["timestamp_us"], "timestamp_us"))
                sizes.append(_parse_integer(row["signed_size"], "signed_size"))
                covered.append(_parse_covered(row.get("covered", False)))
                label = _parse_device(row["device"])
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceFormatError(str(exc), line=lineno) from exc
            if device is not None and label != device:
                raise TraceFormatError(f"device {label!r} differs from {device!r}", line=lineno)
            device = label
    if device is None:
        raise TraceFormatError(f"{path} holds no records")
    columns = []
    for column, dtype in ((timestamps, np.int64), (sizes, np.int64), (covered, np.bool_)):
        # One column at a time: its owned copy replaces it before the next.
        columns.append(_frozen(np.frombuffer(column, dtype).copy()))
        del column[:]
    try:
        return Trace(*columns, device, header_bytes)
    except TraceRecordError as exc:
        # The read keeps no line numbers: find the bad record's line again.
        with open(path, newline="") as fh:
            found = next(islice(_read_rows(fh, format), exc.index, None), None)
        if found is None:  # the file changed since; name the record instead
            raise TraceFormatError(str(exc)) from exc
        raise TraceFormatError(exc.reason, line=found[0]) from exc


def _line_blocks(fh):
    """The bytes of an open binary file, in blocks of _READ_BYTES extended
    to the end of the line they stop in; a last line without its newline
    ends the last block as it is."""
    while block := fh.read(_READ_BYTES):
        block += fh.readline()  # rebinds, so only the extended block is held
        yield block


# A written jsonl line keeps its digits, its commas and line end become
# spaces, and every other byte goes: what is left is its numbers.
_SPACES = bytes.maketrans(b",\n", b"  ")
_NOT_NUMBERS = bytes(sorted(set(range(256)) - set(b"0123456789,\n")))


def _written_block_columns(block: bytes, render, device: str):
    """(timestamp_us, signed_size, covered) of a block of whole lines that
    ``render`` gives back byte for byte, else None.

    Each line of ``device`` leaves the same count of numbers: any in its
    device text, then the size's magnitude and the timestamp. The covered
    flag and the size's sign are at fixed offsets from the line's start.
    Whatever this finds is only kept if rendering it gives the block back,
    and a rendered line json.loads to exactly its values.
    """
    text = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(text == ord("\n"))
    # Text with no number parses as [0], and a number beyond 64 bits as the
    # largest: the count check and the render-back catch both.
    numbers = np.fromstring(block.translate(_SPACES, _NOT_NUMBERS), np.uint64, sep=" ")
    if not len(ends) or len(numbers) < 2 * len(ends) or len(numbers) % len(ends):
        return None
    step = len(numbers) // len(ends)
    # A magnitude of 2**63 reads as -2**63, the one size it can be.
    sizes = numbers[step - 2 :: step].astype(np.int64)
    timestamps = numbers[step - 1 :: step].astype(np.int64)
    starts = np.concatenate([[0], ends[:-1] + 1])
    covered = text.take(starts + len('{"covered": '), mode="clip") == ord("t")
    # A covered line's "true" is a byte shorter than "false".
    sign_at = len(f'{{"covered": false, "device": {json.dumps(device)}, "signed_size": ')
    minus = text.take(starts + sign_at - covered, mode="clip") == ord("-")
    np.negative(sizes, out=sizes, where=minus)
    if render(timestamps, sizes, covered).encode() != block:
        return None
    return timestamps, sizes, covered


def _ingest_written_jsonl(path: str | Path, header_bytes: int) -> Trace | None:
    """Read a jsonl file in write_trace's own line format as numpy columns,
    a block of lines at a time; None if any block is in another form."""
    with open(path, "rb") as fh:
        try:
            device = json.loads(fh.readline())["device"]
        except (ValueError, TypeError, KeyError):
            return None
        if not isinstance(device, str):
            return None
        render = _row_format(device, "jsonl")[2]
        fh.seek(0)
        columns = ([], [], [])  # each column's blocks
        for block in _line_blocks(fh):
            found = _written_block_columns(block, render, device)
            if found is None:
                return None
            for blocks, part in zip(columns, found):
                blocks.append(part)
    joined = []
    for blocks in columns:
        # One column at a time: its blocks go once they are joined.
        joined.append(_frozen(np.concatenate(blocks)))
        blocks.clear()
    try:
        return Trace(*joined, device, header_bytes)
    except TraceRecordError as exc:
        raise TraceFormatError(exc.reason, line=exc.index + 1) from exc


def ingest_trace(path: str | Path, header_bytes: int = DEFAULT_HEADER_BYTES) -> Trace:
    """Load and validate one device's trace from a csv file (by its ``.csv``
    suffix) or a jsonl one. Errors name the line of the first bad record.

    A jsonl file in write_trace's own format is read as columns; any other
    file, or one with any line in another form, is read line by line.
    """
    format = _trace_format(path)
    trace = _ingest_written_jsonl(path, header_bytes) if format == "jsonl" else None
    return trace if trace is not None else _ingest_lines(path, format, header_bytes)


# The rule for a list of trace files to tell apart: checked before any is read.
TRACE_PATHS = (
    lambda v: len(v) >= 2 and all(isinstance(p, str) for p in v),
    "two or more path strings",
)


def traces_by_device(paths, traces, key: str = "traces") -> dict[str, Trace]:
    """The traces read from ``paths``, in order, keyed by device. Two files
    that hold the same device raise ConfigurationError naming both; a
    generator of traces is read no further than that."""
    found: dict[str, Trace] = {}
    for path, trace in zip(paths, traces):
        if trace.device in found:
            first = paths[list(found).index(trace.device)]
            raise ConfigurationError(f"{key}: {first} and {path} both hold {trace.device!r}")
        found[trace.device] = trace
    return found


# ---------------------------------------------------------------------------
# synthesis


# The rule for a synthesis duration in seconds: its timestamps fit in 64 bits.
DURATION = (lambda v: 0 < v * 1e6 < 2**63, "positive and below 2**63 µs (about 9.2e12 s)")


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
    duration_s = check_value(duration_s, "duration_s", float, DURATION)
    random_ = make_rng(rng).random

    # rng.choices(sizes, weights)[0] as CPython's random.Random draws it: one
    # random() times the weights' total, placed by bisect in their running
    # sums. A direction without sizes is never drawn from (p_out is 0 or 1).
    tables = []
    for pairs in (profile.incoming, profile.outgoing):
        running = list(accumulate(w for _, w in pairs))
        total = running[-1] + 0.0 if running else 0.0
        tables.append(([l for l, _ in pairs], running, total, len(running) - 1))
    (in_sizes, in_running, in_total, in_last), (out_sizes, out_running, out_total, out_last) = tables
    p_out = out_total / (in_total + out_total)

    peak = profile.mean_rate * max([1.0, *(m for _, _, m in profile.mode_schedule)])
    rate_at = profile.rate_at
    timestamps: list[int] = []
    sizes: list[int] = []
    t = 0.0
    while True:
        # rng.expovariate(peak) as CPython draws it.
        t += -math.log(1.0 - random_()) / peak
        if t >= duration_s:
            break
        if random_() * peak > rate_at(t):
            continue
        if random_() < p_out:
            sizes.append(-out_sizes[bisect(out_running, random_() * out_total, 0, out_last)])
        else:
            sizes.append(in_sizes[bisect(in_running, random_() * in_total, 0, in_last)])
        timestamps.append(round(t * 1e6))
    return Trace(timestamps, sizes, np.zeros(len(sizes), bool), profile.name, header_bytes)


# ---------------------------------------------------------------------------
# defenses
#
# Loops that draw random numbers keep their order of draws, so a seed gives
# the same trace bytes; the rest works on whole columns.


def check_time_overhead(trace: Trace, time_overhead: float) -> None:
    """Raise ConfigurationError naming time_overhead unless it is finite, at
    least 0 and dilates ``trace``'s last timestamp to one within 64 bits."""
    time_overhead = check_value(time_overhead, "time_overhead", float, NON_NEGATIVE)
    # The float product obfuscate_trace rounds: below 2**63 it fits an int64.
    if trace.duration_us * (1.0 + time_overhead) >= 2**63:
        raise ConfigurationError(
            f"time_overhead: {time_overhead!r} dilates {trace.device!r}'s last timestamp "
            f"{trace.duration_us} µs beyond 64 bits"
        )


def check_header_bytes(trace: Trace) -> None:
    """Raise ConfigurationError naming header_bytes unless every frame of
    ``trace`` holds more than its header: segmentation needs a payload."""
    sizes = np.abs(trace.signed_size)
    if len(sizes) and trace.header_bytes >= sizes.min():
        raise ConfigurationError(
            f"header_bytes: {trace.header_bytes} leaves no payload in {trace.device!r}'s "
            f"{sizes.min()}-byte frames"
        )


def dilate_timestamps(timestamp_us: np.ndarray, time_overhead: float) -> np.ndarray:
    """``timestamp_us`` dilated by (1 + time_overhead), as obfuscate_trace writes them."""
    # np.rint rounds half to even, as round() does on the same float product.
    return np.rint(timestamp_us * (1.0 + time_overhead)).astype(np.int64)


# Frames planned at a time: their plans are the only per-frame Python objects
# held. Appending each frame's plan on its own was about 8 % slower.
_PLAN_ROWS = 1 << 12


def obfuscate_trace(
    trace: Trace, config: SegmentationConfig, time_overhead: float, rng: random.Random | int
) -> Trace:
    """Replay random segmentation over every frame's payload.

    Each chunk becomes its own frame (chunk + header bytes, same direction)
    at the parent's timestamp; all timestamps are then dilated by
    (1 + time_overhead). Total payload bytes are conserved exactly.
    """
    check_time_overhead(trace, time_overhead)
    check_header_bytes(trace)
    rng = make_rng(rng)
    header = trace.header_bytes
    sizes = np.abs(trace.signed_size)
    chunk_column, count_column = array("q"), array("q")  # 8 bytes an entry
    for start in range(0, len(sizes), _PLAN_ROWS):
        payloads = (sizes[start : start + _PLAN_ROWS] - header).tolist()
        plans = [segment_lengths(payload, config, rng).lengths for payload in payloads]
        chunk_column.extend(chain.from_iterable(plans))
        count_column.extend(map(len, plans))
    chunks = np.array(chunk_column, np.int64)
    del chunk_column
    counts = np.frombuffer(count_column, np.int64)
    chunks += header
    np.negative(chunks, out=chunks, where=np.repeat(trace.signed_size < 0, counts))
    scaled = dilate_timestamps(trace.timestamp_us, time_overhead)
    columns = np.repeat(scaled, counts), chunks, np.repeat(trace.covered, counts)
    return Trace(*map(_frozen, columns), trace.device, header)


def check_mtu_frame(trace: Trace, mtu_frame: int) -> int:
    """Return ``mtu_frame`` as an int. Raise ConfigurationError naming it
    unless it is a positive int, no frame of ``trace`` is above it, and frames
    padded up to it total below 2**63 bytes, within 64 bits."""
    mtu_frame = check_value(mtu_frame, "mtu_frame", int, POSITIVE)
    if len(trace) * mtu_frame >= 2**63:
        raise ConfigurationError(
            f"mtu_frame: {mtu_frame} pads {trace.device!r}'s {len(trace)} records "
            "to a byte total that may not fit in 64 bits"
        )
    above = np.abs(trace.signed_size) > mtu_frame
    if above.any():
        i = int(above.argmax())
        raise ConfigurationError(
            f"mtu_frame: {mtu_frame} is below {trace.device!r}'s record {i}, "
            f"{abs(int(trace.signed_size[i]))} bytes"
        )
    return mtu_frame


def pad_trace(trace: Trace, mtu_frame: int, rng: random.Random | int) -> Trace:
    """Random-padding baseline: every frame grows to a uniform size up to
    the frame ceiling; packet count and timing stay unchanged."""
    mtu_frame = check_mtu_frame(trace, mtu_frame)
    # Each frame below the ceiling grows by rng.randint(1, mtu_frame - size)
    # as CPython's random.Random draws it: 1 + getrandbits(k) until the value
    # is below the span. Inlined, it costs no Python frame. A full frame
    # draws nothing.
    getrandbits = make_rng(rng).getrandbits
    padded = array("q")  # 8 bytes an entry
    append = padded.append
    for size in np.abs(trace.signed_size).tolist():
        span = mtu_frame - size
        if span:
            k = span.bit_length()
            r = getrandbits(k)
            while r >= span:
                r = getrandbits(k)
            size += 1 + r
        append(size)
    padded = np.frombuffer(padded, np.int64) * np.sign(trace.signed_size)
    # The timestamp and covered columns are the input's own, shared read-only.
    return replace(trace, signed_size=_frozen(padded))


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


def window_starts(timestamp_us: np.ndarray, width_us: int) -> np.ndarray:
    """The row at which each non-empty window of ``width_us`` starts, in
    sorted timestamps: each row whose window number differs from the row
    before it."""
    windows = timestamp_us // width_us
    first = np.ones(len(windows), bool)
    np.not_equal(windows[1:], windows[:-1], out=first[1:])
    return np.flatnonzero(first)


def window_profile(trace: Trace, width_us: int) -> Trace:
    """One record per non-empty window of ``trace``, at the window's start
    and as large as the window's byte volume. Its window volumes are
    ``trace``'s, and they are all that inject_cover_traffic reads of a
    reference, so the profile stands in for the whole trace there."""
    starts = window_starts(trace.timestamp_us, width_us)
    volumes = np.add.reduceat(np.abs(trace.signed_size), starts)
    timestamps = trace.timestamp_us[starts] // width_us * width_us
    zeros = np.zeros(len(starts), bool)
    return Trace(_frozen(timestamps), _frozen(volumes), zeros, trace.device, trace.header_bytes)


def _window_volumes(trace: Trace, width_us: int) -> dict[int, int]:
    """Byte volume of each non-empty window, by window number, in time order."""
    profile = window_profile(trace, width_us)
    return dict(zip((profile.timestamp_us // width_us).tolist(), profile.signed_size.tolist()))


def inject_cover_traffic(
    target: Trace,
    reference: Trace,
    window_s: float,
    rng: random.Random | int,
) -> CoverResult:
    """Add flagged cover packets to ``target`` until its per-window byte
    volume matches ``reference``'s (within one packet, and only upward).

    Cover sizes and directions are resampled from the target's own records
    so the filler does not import the reference's size fingerprint.

    For each cover packet the draws are ``randrange(len(target))`` for the
    record to copy, then ``randrange(width)`` for the offset in the window.
    """
    getrandbits = make_rng(rng).getrandbits
    width = window_us(window_s)
    target_volumes = _window_volumes(target, width)
    deficits = [
        (idx, volume - target_volumes.get(idx, 0))
        for idx, volume in _window_volumes(reference, width).items()
        if volume > target_volumes.get(idx, 0)
    ]
    if deficits and not len(target):
        raise ConfigurationError("target trace is empty; no size distribution for cover")
    if deficits and (deficits[-1][0] + 1) * width > 2**63:
        raise ValueError(f"window_s {window_s!r} puts cover timestamps beyond 64 bits")

    # randrange(n) as CPython's random.Random draws it: getrandbits(k) until
    # the value is below n. Inlined, it costs no Python frame.
    pool, sizes = len(target), np.abs(target.signed_size).tolist()
    pick_bits, offset_bits = pool.bit_length(), width.bit_length()
    picks = array("q")  # 8 bytes an entry; a cover trace can hold millions
    cover_ts = array("q")
    add_pick, add_ts = picks.append, cover_ts.append
    for idx, deficit in deficits:
        start = idx * width
        while deficit > 0:
            r = getrandbits(pick_bits)
            while r >= pool:
                r = getrandbits(pick_bits)
            add_pick(r)
            deficit -= sizes[r]
            r = getrandbits(offset_bits)
            while r >= width:
                r = getrandbits(offset_bits)
            add_ts(start + r)
    cover = target.signed_size[np.frombuffer(picks, np.int64)]
    del sizes, picks, add_pick, add_ts  # the bound appends hold their arrays

    # Cover records go in a stable time order, each after every target
    # record of an equal timestamp, so stripping the flag restores the input
    # byte-for-byte. A target record's row in the output is its own index
    # plus the cover records of earlier timestamps.
    timestamps = np.frombuffer(cover_ts, np.int64)
    order = np.argsort(timestamps, kind="stable")
    timestamps[:] = timestamps[order]  # in place: the cover can be millions of records
    cover[:] = cover[order]
    del order
    cover_bytes = int(np.abs(cover).sum())
    rows = np.searchsorted(timestamps, target.timestamp_us, side="left")
    rows += np.arange(len(target))
    kept = np.zeros(len(target) + len(cover), bool)
    kept[rows] = True
    added = ~kept

    def merged(column, cover_column):
        out = np.empty(len(kept), column.dtype)
        out[kept] = column
        out[added] = cover_column
        return _frozen(out)

    # Each cover buffer goes as soon as its merged column is filled.
    merged_ts = merged(target.timestamp_us, timestamps)
    del timestamps, cover_ts
    merged_sizes = merged(target.signed_size, cover)
    del cover
    injected = Trace(
        merged_ts, merged_sizes, merged(target.covered, True), target.device, target.header_bytes
    )
    return CoverResult(trace=injected, cover_bytes=cover_bytes, original_bytes=target.total_bytes)
