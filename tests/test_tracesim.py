import csv
import json
import math
import random
import re
import tracemalloc
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import run_bounded, small_traces
from segshield.errors import ConfigurationError, TraceFormatError, TraceRecordError
from segshield.profiles import DeviceProfile, resolve_device
from segshield.segcore import LevelBand, SegmentationConfig
from segshield import tracesim
from segshield.tracesim import (
    Trace,
    _window_volumes,
    ingest_trace,
    inject_cover_traffic,
    obfuscate_trace,
    pad_trace,
    synthesize_trace,
    window_profile,
    window_starts,
    window_us,
    write_trace,
)


def mk_trace(sizes, device="dev", step_us=1000, header_bytes=82):
    n = len(sizes)
    return Trace(np.arange(n) * step_us, sizes, np.zeros(n, bool), device, header_bytes)


def as_rows(trace):
    """(timestamp_us, signed_size, covered) for each record, as Python values."""
    columns = (trace.timestamp_us, trace.signed_size, trace.covered)
    return list(zip(*(column.tolist() for column in columns)))


def bucket_volumes(trace, width):
    """The per-record bucket loop the column sums replaced."""
    vols = {}
    for ts, size, _ in as_rows(trace):
        idx = ts // width
        vols[idx] = vols.get(idx, 0) + abs(size)
    return vols


def unique_starts(timestamp_us, width):
    """The np.unique cut window_starts replaced."""
    return np.unique(timestamp_us // width, return_index=True)[1]


def bucket_cover(target, reference, width, rng):
    """Cover injection as a per-record loop: (merged trace, cover bytes)."""
    target_vols = bucket_volumes(target, width)
    reference_vols = bucket_volumes(reference, width)
    pool = [(abs(size), -1 if size < 0 else 1) for _, size, _ in as_rows(target)]
    cover = []
    cover_bytes = 0
    for idx in sorted(reference_vols):
        deficit = reference_vols[idx] - target_vols.get(idx, 0)
        while deficit > 0:
            size, sign = pool[rng.randrange(len(pool))]
            ts = idx * width + rng.randrange(width)
            cover.append((ts, sign * size, True))
            cover_bytes += size
            deficit -= size
    merged = sorted([*as_rows(target), *cover], key=lambda r: r[0])
    return Trace(*zip(*merged), target.device, target.header_bytes), cover_bytes


def read_line_by_line(path, header_bytes=82):
    """The per-line jsonl reader the columnar reader replaced for files in
    write_trace's format: one json.loads and one check per field a line."""
    lines, timestamps, sizes, covered = [], [], [], []
    device = None
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"invalid JSON: {exc}", line=lineno) from exc
            try:
                timestamps.append(tracesim._parse_integer(row["timestamp_us"], "timestamp_us"))
                sizes.append(tracesim._parse_integer(row["signed_size"], "signed_size"))
                covered.append(tracesim._parse_covered(row.get("covered", False)))
                label = str(row["device"])
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceFormatError(str(exc), line=lineno) from exc
            if lines and label != device:
                raise TraceFormatError(f"device {label!r} differs from {device!r}", line=lineno)
            device = label
            lines.append(lineno)
    if not lines:
        raise TraceFormatError(f"{path} holds no records")
    try:
        return Trace(timestamps, sizes, covered, device, header_bytes)
    except TraceRecordError as exc:
        raise TraceFormatError(exc.reason, line=lines[exc.index]) from exc


def read_outcome(read, path):
    """The trace ``read`` returns, or the text and line of its TraceFormatError."""
    try:
        return read(path)
    except TraceFormatError as exc:
        return str(exc), exc.line


def refuse_line_by_line(*args):
    raise AssertionError("read line by line")


def recorded_like_trace(rows):
    """A trace shaped like a recorded one: 3600 s, three frame sizes each
    way, some records covered."""
    rng = np.random.default_rng(rows)
    sizes = rng.choice([102, 116, 130], rows) * rng.choice([-1, 1], rows)
    timestamps = np.sort(rng.integers(0, 3600 * 10**6, rows))
    return Trace(timestamps, sizes, rng.random(rows) < 0.1, "plug-like")


def column_bytes(trace):
    return sum(getattr(trace, name).nbytes for name in tracesim._COLUMN_TYPES)


def traced_peak(read, *args):
    """What ``read(*args)`` returns, and the most bytes tracemalloc saw
    allocated while it ran (numpy reports its buffers there too)."""
    tracemalloc.start()
    try:
        return read(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def written_line(row, **changes):
    """A record as write_trace writes it, with ``changes`` made."""
    return json.dumps({**row, **changes}, sort_keys=True) + "\n"


# Ways to break one line of a written file; each gets (record, previous timestamp).
LINE_BREAKS = {
    "none": lambda row, before: written_line(row),
    "key order": lambda row, before: json.dumps(dict(reversed(row.items()))) + "\n",
    "spacing": lambda row, before: json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n",
    "blank line": lambda row, before: "\n" + written_line(row),
    "crlf": lambda row, before: written_line(row)[:-1] + "\r\n",
    "whole float": lambda row, before: written_line(row, signed_size=float(row["signed_size"])),
    "true for a number": lambda row, before: written_line(row, timestamp_us=True),
    "second device": lambda row, before: written_line(row, device=row["device"] + "2"),
    "beyond int64": lambda row, before: written_line(row, timestamp_us=2**63),
    "invalid json": lambda row, before: written_line(row)[:-3] + "\n",
    "decreasing timestamp": lambda row, before: written_line(row, timestamp_us=before - 1),
    "zero size": lambda row, before: written_line(row, signed_size=0),
}


FLAT_PROFILE = DeviceProfile(
    name="flat", mean_rate=10.0, incoming=((130, 0.7),), outgoing=((130, 0.3),)
)


def stdlib_synthesize_trace(profile, duration_s, rng):
    """synthesize_trace as it drew with rng.expovariate and rng.choices: the
    oracle for the inlined draws."""
    in_sizes = [l for l, _ in profile.incoming]
    in_weights = [w for _, w in profile.incoming]
    out_sizes = [l for l, _ in profile.outgoing]
    out_weights = [w for _, w in profile.outgoing]
    p_out = sum(out_weights) / (sum(in_weights) + sum(out_weights))
    peak = profile.mean_rate * max([1.0, *(m for _, _, m in profile.mode_schedule)])
    timestamps, sizes = [], []
    t = 0.0
    while True:
        t += rng.expovariate(peak)
        if t >= duration_s:
            break
        if rng.random() * peak > profile.rate_at(t):
            continue
        if rng.random() < p_out:
            sizes.append(-rng.choices(out_sizes, out_weights)[0])
        else:
            sizes.append(rng.choices(in_sizes, in_weights)[0])
        timestamps.append(round(t * 1e6))
    return Trace(timestamps, sizes, np.zeros(len(sizes), bool), profile.name)


def randint_pad_trace(trace, mtu_frame, rng):
    """pad_trace's sizes as it padded each frame with rng.randint: the oracle
    for the inlined getrandbits draw."""
    padded = []
    for size in np.abs(trace.signed_size).tolist():
        available = mtu_frame - size
        padded.append(size if available == 0 else size + rng.randint(1, available))
    return (np.array(padded, np.int64) * np.sign(trace.signed_size)).tolist()


size_weights = st.lists(
    st.tuples(st.integers(1, 1500), st.floats(1e-3, 1e3)), min_size=1, max_size=6
)


@st.composite
def synthesis_profiles(draw):
    """Profiles with both directions, incoming only or outgoing only, and
    schedules that silence, keep or raise the rate."""
    directions = draw(st.sampled_from(["both", "incoming", "outgoing"]))
    schedule = draw(
        st.lists(
            st.tuples(st.floats(0, 20), st.floats(0.1, 20), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
            max_size=3,
        )
    )
    return DeviceProfile(
        name="drawn",
        mean_rate=draw(st.floats(0.5, 50)),
        incoming=draw(size_weights) if directions != "outgoing" else (),
        outgoing=draw(size_weights) if directions != "incoming" else (),
        mode_schedule=tuple((start, start + length, m) for start, length, m in schedule),
    )


class TestRecordAndTrace:
    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="record 1: signed_size"):
            Trace([0, 5], [60, 0], [False, False], "d")

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError, match="record 0: timestamp_us -1"):
            Trace([-1], [100], [False], "d")

    def test_trace_rejects_unsorted(self):
        with pytest.raises(ValueError, match="record 1: timestamp_us 50"):
            Trace([100, 50], [60, 60], [False, False], "d")

    @pytest.mark.parametrize("header_bytes", [1.5, True])
    def test_header_bytes_that_is_not_an_int_rejected(self, header_bytes):
        expected = f"^header_bytes: expected int, got {header_bytes}$"
        with pytest.raises(ConfigurationError, match=expected):
            Trace([0], [130], [False], "d", header_bytes)

    def test_sizes_total_below_2_63(self):
        assert Trace([0, 1], [2**62, 1 - 2**62], [False, False], "d").total_bytes == 2**63 - 1
        with pytest.raises(TraceRecordError, match=f"^record 1: sizes total {2**63} bytes here"):
            Trace([0, 1], [2**62, -(2**62)], [False, False], "d")
        # np.abs(-2**63) is -2**63 in int64.
        with pytest.raises(TraceRecordError, match=f"^record 0: sizes total {2**63} bytes here"):
            Trace([0], [-(2**63)], [False], "d")

    @pytest.mark.parametrize(
        "columns,index",
        [
            (([0, 1, 2], [60, 60, 60], [False, False]), 2),
            (([0, 1], [60], [False, False]), 1),
            (([], [60], []), 0),
        ],
    )
    def test_trace_rejects_column_lengths_that_differ(self, columns, index):
        with pytest.raises(TraceRecordError, match="differ in length") as err:
            Trace(*columns, "d")
        assert err.value.index == index

    def test_first_bad_record_is_named(self):
        # Record 2 breaks ordering before record 3 breaks the size rule.
        with pytest.raises(TraceRecordError) as err:
            Trace([0, 10, 5, 20], [60, 60, 60, 0], [False] * 4, "d")
        assert err.value.index == 2
        assert str(err.value) == "record 2: timestamp_us 5 is before the previous 10"

    @pytest.mark.parametrize(
        "columns",
        [([0.5], [60], [False]), ([0], [60.0], [False]), ([0], [60], [1])],
    )
    def test_columns_must_hold_their_type(self, columns):
        with pytest.raises(TypeError):
            Trace(*columns, "d")

    def test_columns_are_read_only_copies(self):
        sizes = np.array([60, -70])
        trace = Trace([0, 1], sizes, [False, True], "d")
        sizes[0] = 0
        assert trace.signed_size.tolist() == [60, -70]
        with pytest.raises(ValueError):
            trace.signed_size[0] = 0

    def test_read_only_array_owning_its_memory_is_adopted(self):
        adopted = np.array([60, -70])
        adopted.flags.writeable = False
        assert np.shares_memory(Trace([0, 1], adopted, [False, True], "d").signed_size, adopted)
        writeable = np.array([60, -70])
        assert not np.shares_memory(
            Trace([0, 1], writeable, [False, True], "d").signed_size, writeable
        )
        view = np.array([60, -70, 80])[:2]
        view.flags.writeable = False
        assert not np.shares_memory(Trace([0, 1], view, [False, True], "d").signed_size, view)

    def test_equality_compares_every_field(self):
        trace = Trace([0, 7], [60, -70], [False, True], "d", 54)
        assert as_rows(trace) == [(0, 60, False), (7, -70, True)]
        assert trace == Trace([0, 7], [60, -70], [False, True], "d", 54)
        assert trace != Trace([0, 7], [60, -70], [False, False], "d", 54)
        assert trace != Trace([0, 7], [60, -70], [False, True], "e", 54)
        assert trace != Trace([0, 7], [60, -70], [False, True], "d", 82)
        assert trace.without_cover() == Trace([0], [60], [False], "d", 54)

    def test_byte_accounting(self):
        trace = mk_trace([130, -116])
        assert trace.total_bytes == 246
        assert trace.payload_bytes == (130 - 82) + (116 - 82)
        assert trace.duration_us == 1000


class TestTraceIO:
    def test_jsonl_roundtrip(self, tmp_path):
        trace = mk_trace([130, -116, 144])
        path = tmp_path / "t.jsonl"
        write_trace(trace, path)
        assert ingest_trace(path) == trace

    @pytest.mark.parametrize(
        "name,text", [("e.jsonl", "\n"), ("e.csv", "timestamp_us,signed_size,covered,device\n")]
    )
    def test_empty_file_rejected(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(TraceFormatError, match=re.escape(str(path))):
            ingest_trace(path)

    def test_csv_roundtrip(self, tmp_path):
        trace = mk_trace([130, -116, 144])
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        assert ingest_trace(path) == trace

    @pytest.mark.parametrize("device", ["dev", 'a%d "b",c', "", " é\nx"])
    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_sliced_writes_match_json_and_csv_writers(self, tmp_path, monkeypatch, device, rows):
        monkeypatch.setattr(tracesim, "_WRITE_ROWS", rows)
        trace = Trace(
            [0, 5, 5, 90, 2**40], [130, -116, 144, -1, 2**40], [False, True, False, False, True],
            device,
        )
        write_trace(trace, tmp_path / "t.jsonl")
        write_trace(trace, tmp_path / "t.csv")
        keys = ("timestamp_us", "signed_size", "covered")
        lines = [
            json.dumps({**dict(zip(keys, row)), "device": device}, sort_keys=True) + "\n"
            for row in as_rows(trace)
        ]
        assert (tmp_path / "t.jsonl").read_text() == "".join(lines)
        with open(tmp_path / "expected.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp_us", "signed_size", "covered", "device"])
            writer.writerows(
                (ts, size, int(covered), device) for ts, size, covered in as_rows(trace)
            )
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_sliced_writes_of_a_padded_trace_match_json_and_csv_writers(
        self, tmp_path, monkeypatch
    ):
        # Padded sizes repeat across slices, so later slices reuse texts that
        # earlier ones formatted; sizes past the kept ones are formatted anew.
        monkeypatch.setattr(tracesim, "_WRITE_ROWS", 64)
        monkeypatch.setattr(tracesim, "_KNOWN_SIZES", 100)
        trace = pad_trace(replace(recorded_like_trace(2000), device='a "b",c'), 400, 7)
        assert len(np.unique(trace.signed_size)) > 100
        write_trace(trace, tmp_path / "t.jsonl")
        write_trace(trace, tmp_path / "t.csv")
        keys = ("timestamp_us", "signed_size", "covered")
        lines = [
            json.dumps({**dict(zip(keys, row)), "device": trace.device}, sort_keys=True) + "\n"
            for row in as_rows(trace)
        ]
        assert (tmp_path / "t.jsonl").read_text() == "".join(lines)
        with open(tmp_path / "expected.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp_us", "signed_size", "covered", "device"])
            writer.writerows(
                (ts, size, int(covered), trace.device) for ts, size, covered in as_rows(trace)
            )
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
        # The columnar reader renders each block back through the same texts.
        monkeypatch.setattr(tracesim, "_READ_BYTES", 1 << 12)
        monkeypatch.setattr(tracesim, "_ingest_lines", refuse_line_by_line)
        assert ingest_trace(tmp_path / "t.jsonl") == trace

    def test_three_row_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(mk_trace([10, 20, -30]), path)
        assert len(ingest_trace(path)) == 3

    def test_bad_covered_flag_names_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        row = {"timestamp_us": 0, "signed_size": 60, "covered": "yes", "device": "d"}
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(TraceFormatError) as err:
            ingest_trace(path)
        assert str(err.value) == "line 1: bad covered flag 'yes'"

    def test_zero_size_names_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rows = [
            {"timestamp_us": 0, "signed_size": 60, "covered": False, "device": "d"},
            {"timestamp_us": 10, "signed_size": 0, "covered": False, "device": "d"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(TraceFormatError) as err:
            ingest_trace(path)
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("timestamp_us", 1.9),
            ("signed_size", 60.7),
            ("timestamp_us", True),
            ("signed_size", True),
            ("timestamp_us", float("nan")),
            ("signed_size", 2**64),
        ],
    )
    def test_non_integer_numbers_rejected(self, tmp_path, key, value):
        path = tmp_path / "t.jsonl"
        rows = [
            {"timestamp_us": 0, "signed_size": 60, "covered": False, "device": "d"},
            {"timestamp_us": 10, "signed_size": 60, "covered": False, "device": "d", key: value},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(TraceFormatError, match=f"line 2: {key}") as err:
            ingest_trace(path)
        assert err.value.line == 2

    def test_whole_float_reads_as_integer(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"timestamp_us": 10.0, "signed_size": -60.0, "device": "d"}\n')
        assert ingest_trace(path) == Trace([10], [-60], [False], "d")

    def test_rule_error_names_line_past_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        row = '{{"timestamp_us": {}, "signed_size": 60, "device": "d"}}\n'
        path.write_text(row.format(5) + "\n\n" + row.format(9) + row.format(7))
        with pytest.raises(TraceFormatError) as err:
            ingest_trace(path)
        assert err.value.line == 5
        assert str(err.value) == "line 5: timestamp_us 7 is before the previous 9"

    def test_unsorted_timestamps_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rows = [
            {"timestamp_us": 50, "signed_size": 60, "covered": False, "device": "d"},
            {"timestamp_us": 10, "signed_size": 60, "covered": False, "device": "d"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(TraceFormatError) as err:
            ingest_trace(path)
        assert err.value.line == 2

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"timestamp_us": 0, "signed_size": 60, "device": "d"}\n{oops\n')
        with pytest.raises(TraceFormatError) as err:
            ingest_trace(path)
        assert err.value.line == 2

    def test_mixed_devices_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rows = [
            {"timestamp_us": 0, "signed_size": 60, "covered": False, "device": "a"},
            {"timestamp_us": 10, "signed_size": 60, "covered": False, "device": "b"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(TraceFormatError):
            ingest_trace(path)

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("when,size\n1,2\n")
        with pytest.raises(TraceFormatError) as err:
            ingest_trace(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("value", [None, 7, ["d"]])
    @pytest.mark.parametrize("line", [1, 2])
    def test_jsonl_device_must_be_a_string(self, tmp_path, value, line):
        path = tmp_path / "t.jsonl"
        rows = [
            {"covered": False, "device": "d", "signed_size": 60, "timestamp_us": ts} for ts in (0, 10)
        ]
        rows[line - 1]["device"] = value
        path.write_text("".join(map(written_line, rows)))
        with pytest.raises(TraceFormatError, match=f"line {line}: device must be a string") as err:
            ingest_trace(path)
        assert err.value.line == line

    def test_csv_row_without_its_device_field(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("timestamp_us,signed_size,covered,device\n0,60,0,d\n10,60,0\n")
        with pytest.raises(TraceFormatError, match="line 3: device must be a string") as err:
            ingest_trace(path)
        assert err.value.line == 3

    def test_csv_row_with_more_fields_than_the_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("timestamp_us,signed_size,covered,device\n0,60,0,d\n1,5,0,d,extra\n")
        with pytest.raises(TraceFormatError) as err:
            ingest_trace(path)
        assert str(err.value) == "line 3: 5 fields where the header has 4"

    def test_csv_error_names_line_past_blank_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("timestamp_us,signed_size,covered,device\n0,60,0,d\n\n\n10,0,0,d\n")
        with pytest.raises(TraceFormatError) as err:
            ingest_trace(path)
        assert str(err.value) == "line 5: signed_size must be nonzero"

    @pytest.mark.parametrize(
        "text,kind", [("[1, 2, 3]", "list"), ('"str"', "str"), ("7", "int"), ("null", "NoneType")]
    )
    @pytest.mark.parametrize("line", [1, 2])
    def test_jsonl_line_that_is_not_an_object(self, tmp_path, text, kind, line):
        path = tmp_path / "t.jsonl"
        record = {"covered": False, "device": "d", "signed_size": 60, "timestamp_us": 0}
        lines = [written_line(record)] * 2
        lines[line - 1] = text + "\n"
        path.write_text("".join(lines))
        with pytest.raises(TraceFormatError) as err:
            ingest_trace(path)
        assert str(err.value) == f"line {line}: record must be a JSON object, got {kind}"

    @pytest.mark.parametrize("block", [1, 97, 1 << 18])
    def test_last_line_without_its_newline(self, tmp_path, monkeypatch, block):
        trace = mk_trace([130, -116, 144])
        path = tmp_path / "t.jsonl"
        write_trace(trace, path)
        path.write_bytes(path.read_bytes()[:-1])
        monkeypatch.setattr(tracesim, "_READ_BYTES", block)
        assert ingest_trace(path) == trace

    def test_columnar_read_holds_one_block_of_scratch(self, tmp_path, monkeypatch):
        trace = recorded_like_trace(30_000)
        path = tmp_path / "t.jsonl"
        write_trace(trace, path)  # 2.6 MB, several blocks
        monkeypatch.setattr(tracesim, "_ingest_lines", refuse_line_by_line)
        read, peak = traced_peak(ingest_trace, path)
        assert read == trace
        # The blocks' columns and their concatenation, plus 1 MiB for parsing
        # a 256 KiB block; 1 MiB blocks held over 6 MB here.
        assert peak <= 2 * column_bytes(read) + (1 << 20)

    def test_parsing_a_block_holds_under_three_times_it(self, tmp_path):
        trace = recorded_like_trace(30_000)
        path = tmp_path / "t.jsonl"
        write_trace(trace, path)
        render = tracesim._row_format(trace.device, "jsonl")[2]
        with open(path, "rb") as fh:
            blocks = list(tracesim._line_blocks(fh))
        assert len(blocks) > 1
        for block in blocks:
            found, peak = traced_peak(tracesim._written_block_columns, block, render, trace.device)
            assert found is not None  # read as columns, not handed to the per-line reader
            # The rendered text and its encoded copy, about 2.7 times the
            # block; the digit-by-digit parse held 3.32 times it.
            assert peak < 3 * len(block)

    def test_line_by_line_read_holds_typed_columns(self, tmp_path):
        trace = recorded_like_trace(30_000)
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        read, peak = traced_peak(ingest_trace, path)
        assert read == trace
        # Typed columns and line numbers (25 bytes a record), then the
        # trace's own copy (17): about 2.5 times the columns. Lists of Python
        # ints held over 7 times them, more with every record.
        assert peak <= 3 * column_bytes(read) + (1 << 18)

    def test_columnar_read_joins_one_column_at_a_time(self, tmp_path, monkeypatch):
        trace = recorded_like_trace(300_000)
        path = tmp_path / "t.jsonl"
        write_trace(trace, path)
        monkeypatch.setattr(tracesim, "_ingest_lines", refuse_line_by_line)
        read, peak = traced_peak(ingest_trace, path)
        assert read == trace
        # Every block's columns, then one joined column freeing its blocks
        # (1.48 times the columns), plus one block of scratch. Joining all
        # three at the end held 2.13 times them.
        assert peak <= 1.6 * column_bytes(read) + (1 << 20)

    def test_line_by_line_read_hands_over_owned_columns(self, tmp_path):
        trace = recorded_like_trace(100_000)
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        read, peak = traced_peak(ingest_trace, path)
        assert read == trace
        # Typed columns and line numbers, then each column's copy while its
        # typed column is emptied: about 2 times the columns. Copying all
        # three at once, with the typed columns alive, held 2.7 times them.
        assert peak <= 2.1 * column_bytes(read) + (1 << 18)

    def test_line_by_line_read_keeps_no_line_numbers(self, tmp_path):
        trace = recorded_like_trace(100_000)
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        read, peak = traced_peak(ingest_trace, path)
        assert read == trace
        # Typed columns (17 bytes a record), then one column's copy at a
        # time: about 1.5 times the columns. A column of line numbers, 8
        # bytes more a record, held 1.98 times them.
        assert peak <= 1.6 * column_bytes(read) + (1 << 18)

    def test_rule_error_past_the_end_of_a_reread_names_the_record(self, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        path.write_text("timestamp_us,signed_size,covered,device\n0,5,0,d\n1,0,0,d\n")
        with pytest.raises(TraceFormatError) as err:
            ingest_trace(path)
        assert str(err.value) == "line 3: signed_size must be nonzero"
        read_rows = tracesim._read_rows
        reads = []

        def shrinking(fh, format):
            # The second read, which looks for the bad record's line, finds
            # a file that has lost its records since.
            reads.append(format)
            return read_rows(fh, format) if len(reads) == 1 else iter(())

        monkeypatch.setattr(tracesim, "_read_rows", shrinking)
        with pytest.raises(TraceFormatError) as err:
            ingest_trace(path)
        assert str(err.value) == "record 1: signed_size must be nonzero"
        assert len(reads) == 2

    @given(
        trace=st.sampled_from(["dev", 'a%d "b",c', "é: x"]).flatmap(
            lambda device: small_traces(device=device)
        ),
        data=st.data(),
        block=st.sampled_from([1, 97, 1 << 20]),
    )
    def test_reads_what_the_per_line_reader_reads(self, tmp_path_factory, trace, data, block):
        path = tmp_path_factory.mktemp("drawn") / "t.jsonl"
        write_trace(trace, path)
        if len(trace):
            lines = path.read_text().splitlines(keepends=True)
            i = data.draw(st.integers(0, len(lines) - 1), label="line")
            broken = data.draw(st.sampled_from(sorted(LINE_BREAKS)), label="break")
            before = int(trace.timestamp_us[i - 1]) if i else 0
            lines[i] = LINE_BREAKS[broken](json.loads(lines[i]), before)
            path.write_text("".join(lines))
        with mock.patch.object(tracesim, "_READ_BYTES", block):
            assert read_outcome(ingest_trace, path) == read_outcome(read_line_by_line, path)

    # A minus sign or digits in the device text: the parser drops the one
    # and reads the other as numbers on every line.
    @pytest.mark.parametrize(
        "device", ["dev", 'say "%d%%" or "%s"', "é ü ☃ 设备", "plug-like", "cam-2", "a1b2"]
    )
    @pytest.mark.parametrize("rows", [1, 4096, 10_000])
    @pytest.mark.parametrize("shift", [None, -1, 0, 1])
    def test_written_files_are_read_as_columns(self, tmp_path, monkeypatch, device, rows, shift):
        rng = np.random.default_rng(rows)
        timestamps = np.sort(rng.integers(0, 2**63 - 1, rows) >> rng.integers(0, 63, rows))
        # Sizes stay below 2**63 in total, which a trace must.
        bound = (2**63 - 1) // rows
        sizes = rng.integers(-bound, bound, rows) >> rng.integers(0, 64, rows)
        trace = Trace(timestamps, np.where(sizes == 0, 1, sizes), rng.random(rows) < 0.3, device)
        path = tmp_path / "t.jsonl"
        write_trace(trace, path)
        if shift is not None:  # a block ends just before, at or just after a line's end
            line_end = sum(map(len, path.read_bytes().splitlines(keepends=True)[:4096]))
            monkeypatch.setattr(tracesim, "_READ_BYTES", line_end + shift)
        monkeypatch.setattr(tracesim, "_ingest_lines", refuse_line_by_line)
        assert ingest_trace(path, header_bytes=54) == replace(trace, header_bytes=54)

    def test_rule_error_in_a_written_file_names_its_line(self, tmp_path, monkeypatch):
        path = tmp_path / "t.jsonl"
        write_trace(mk_trace([130, -116, 144, 60]), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = written_line(json.loads(lines[2]), signed_size=0)
        path.write_text("".join(lines))
        monkeypatch.setattr(tracesim, "_ingest_lines", refuse_line_by_line)
        with pytest.raises(TraceFormatError) as err:
            ingest_trace(path)
        assert str(err.value) == "line 3: signed_size must be nonzero"

    @pytest.mark.parametrize(
        "sizes,index,total",
        [([2**62, 2**62], 1, 2**63), ([-(2**63)], 0, 2**63), ([5, 2**63 - 1], 1, 2**63 + 4)],
    )
    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_sizes_totalling_2_63_are_rejected(
        self, tmp_path, monkeypatch, sizes, index, total, format
    ):
        # int64 byte sums would wrap: 2**62 + 2**62 reads as -2**63.
        rows = [
            {"covered": False, "device": "dev", "signed_size": size, "timestamp_us": t}
            for t, size in enumerate(sizes)
        ]
        path = tmp_path / f"t.{format}"
        if format == "jsonl":  # write_trace's own format, read as columns
            path.write_text("".join(map(written_line, rows)))
            monkeypatch.setattr(tracesim, "_ingest_lines", refuse_line_by_line)
            line = index + 1
        else:  # read line by line, after a header line
            with open(path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, ["timestamp_us", "signed_size", "covered", "device"])
                writer.writeheader()
                writer.writerows(rows)
            line = index + 2
        with pytest.raises(TraceFormatError) as err:
            ingest_trace(path)
        assert str(err.value) == f"line {line}: sizes total {total} bytes here, 2**63 or more"


class TestDeviceProfile:
    def test_rejects_empty_distribution(self):
        with pytest.raises(ConfigurationError):
            DeviceProfile(name="x", mean_rate=1.0)

    def test_rejects_bad_weight(self):
        with pytest.raises(ConfigurationError):
            DeviceProfile(name="x", mean_rate=1.0, incoming=((100, 0.0),))

    def test_rejects_weights_whose_total_overflows(self):
        with pytest.raises(ConfigurationError, match="total a finite number"):
            DeviceProfile(name="x", mean_rate=1.0, outgoing=((100, 1e308), (116, 1e308)))

    # An infinite or NaN rate would never end the synthesis loop.
    @pytest.mark.parametrize("rate", [0.0, math.inf, math.nan])
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(ConfigurationError, match="mean_rate"):
            DeviceProfile(name="x", mean_rate=rate, incoming=((100, 1.0),))

    # An infinite multiplier would never end the synthesis loop.
    @pytest.mark.parametrize(
        "entry,message",
        [
            ((20.0, 10.0, 3.0), "bad mode_schedule entry"),
            ((10.0, 20.0, -1.0), "bad mode_schedule entry"),
            ((10.0, 20.0, math.inf), "mode_schedule[0][2]: must be finite, got inf"),
            ((math.nan, 20.0, 3.0), "mode_schedule[0][0]: must be finite, got nan"),
        ],
    )
    def test_rejects_bad_schedule_entry(self, entry, message):
        with pytest.raises(ConfigurationError) as err:
            DeviceProfile(name="x", mean_rate=1.0, incoming=((100, 1.0),), mode_schedule=(entry,))
        assert str(err.value) == message

    def test_rejects_frame_length_below_one(self):
        with pytest.raises(ConfigurationError) as err:
            DeviceProfile("x", 1.0, ((0, 1.0),))
        assert str(err.value) == "frame lengths must be >= 1"

    def test_schedule_scales_rate(self):
        profile = DeviceProfile(
            name="x",
            mean_rate=2.0,
            incoming=((100, 1.0),),
            mode_schedule=((10.0, 20.0, 3.0),),
        )
        assert profile.rate_at(5.0) == 2.0
        assert profile.rate_at(15.0) == 6.0

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(asdict(FLAT_PROFILE)))
        assert resolve_device(json.loads(path.read_text())) == FLAT_PROFILE


class TestSynthesize:
    def test_rate_within_three_sigma(self):
        trace = synthesize_trace(FLAT_PROFILE, 60.0, rng=42)
        expected = 600
        assert abs(len(trace) - expected) <= 3 * math.sqrt(expected)

    def test_single_length_distribution(self):
        trace = synthesize_trace(FLAT_PROFILE, 30.0, rng=1)
        assert set(np.abs(trace.signed_size).tolist()) == {130}

    def test_deterministic_given_seed(self):
        one = synthesize_trace(FLAT_PROFILE, 30.0, rng=9)
        two = synthesize_trace(FLAT_PROFILE, 30.0, rng=9)
        assert one == two

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            synthesize_trace(FLAT_PROFILE, 0.0, rng=0)

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_rejects_non_finite_duration(self, duration):
        # No sample time reaches such a duration, so the sampling loop would
        # never end: it runs in a bounded interpreter.
        done = run_bounded(
            "from segshield.profiles import device_profile\n"
            "from segshield.tracesim import synthesize_trace\n"
            f"synthesize_trace(device_profile('bulb-like'), float('{duration}'), 0)\n"
        )
        assert done.returncode == 1
        assert done.stderr.rstrip().endswith(
            f"ConfigurationError: duration_s: must be finite, got {duration}"
        )

    def test_rejects_duration_beyond_64_bits_before_any_draw(self):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match=r"^duration_s: must be positive and below 2\*\*63 µs"):
            synthesize_trace(FLAT_PROFILE, 1e15, rng)
        assert rng.getstate() == state

    @given(profile=synthesis_profiles(), duration=st.floats(0.5, 30), seed=st.integers(0, 2**32))
    def test_matches_expovariate_and_choices(self, profile, duration, seed):
        inlined, stdlib = random.Random(seed), random.Random(seed)
        assert synthesize_trace(profile, duration, inlined) == stdlib_synthesize_trace(
            profile, duration, stdlib
        )
        assert inlined.getstate() == stdlib.getstate()

    def test_direction_mix(self):
        trace = synthesize_trace(FLAT_PROFILE, 600.0, rng=3)
        outgoing = (trace.signed_size < 0).mean()
        assert abs(outgoing - 0.3) < 0.05


class TestObfuscate:
    def test_prob_zero_scales_timestamps_only(self):
        trace = mk_trace([130, -116, 144])
        config = SegmentationConfig(prob=0.0, bands=(LevelBand(5, 20),))
        out = obfuscate_trace(trace, config, time_overhead=0.2, rng=0)
        assert out.signed_size.tolist() == [130, -116, 144]
        assert out.timestamp_us.tolist() == [round(ts * 1.2) for ts in trace.timestamp_us.tolist()]

    def test_single_frame_chunks_frozen_seed(self, low_bandwidth):
        # 130-byte frame, 82-byte header: the 48-byte payload splits into
        # 3..10 chunks; with this seed every chunk stays >= min_seg.
        trace = mk_trace([130])
        out = obfuscate_trace(trace, low_bandwidth, 0.2, rng=1)
        sizes = np.abs(out.signed_size).tolist()
        assert sizes == [89, 95, 90, 102]
        assert all(87 <= s <= 102 for s in sizes)

    @pytest.mark.parametrize("seed", range(30))
    def test_single_frame_chunk_ranges(self, low_bandwidth, seed):
        out = obfuscate_trace(mk_trace([130]), low_bandwidth, 0.2, rng=seed)
        sizes = np.abs(out.signed_size).tolist()
        if len(sizes) > 1:
            assert 3 <= len(sizes) <= 10
            # non-final chunks sit in the band; the tail may fold short
            assert all(87 <= s <= 102 for s in sizes[:-1])
            assert 83 <= sizes[-1] <= 102
        else:
            assert sizes == [130]

    def test_payload_conserved_headers_account_for_growth(self, low_bandwidth):
        rng = random.Random(11)
        sizes = [rng.choice([100, 130, -116, -144, 400]) for _ in range(300)]
        trace = mk_trace(sizes)
        out = obfuscate_trace(trace, low_bandwidth, 0.2, rng=5)
        assert out.payload_bytes == trace.payload_bytes
        growth = (len(out) - len(trace)) * trace.header_bytes
        assert out.total_bytes - trace.total_bytes == growth

    def test_direction_and_order_preserved(self, low_bandwidth):
        trace = mk_trace([130, -400, 144])
        out = obfuscate_trace(trace, low_bandwidth, 0.2, rng=2)
        signs = {ts: size > 0 for ts, size, _ in as_rows(out)}
        stamps = out.timestamp_us.tolist()
        assert stamps == sorted(stamps)
        assert all((size > 0) == signs[ts] for ts, size, _ in as_rows(out))

    def test_header_swallowing_frame_rejected(self, low_bandwidth):
        trace = mk_trace([82, 130])
        with pytest.raises(ConfigurationError):
            obfuscate_trace(trace, low_bandwidth, 0.2, rng=0)

    def test_rejects_negative_dilation(self, low_bandwidth):
        with pytest.raises(ValueError):
            obfuscate_trace(mk_trace([130]), low_bandwidth, -0.1, rng=0)

    def test_rejects_dilation_beyond_64_bits_before_any_draw(self, low_bandwidth):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match="^time_overhead: 1e\\+20 dilates "):
            obfuscate_trace(mk_trace([130, 400]), low_bandwidth, 1e20, rng)
        assert rng.getstate() == state

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_plan_blocks_give_the_same_trace(self, low_bandwidth, monkeypatch, block):
        trace = mk_trace([130, 400, -144, 1582, -1582] * 4)
        expected = obfuscate_trace(trace, low_bandwidth, 0.2, rng=5)
        monkeypatch.setattr(tracesim, "_PLAN_ROWS", block)
        assert obfuscate_trace(trace, low_bandwidth, 0.2, rng=5) == expected

    def test_zero_record_trace(self, low_bandwidth):
        out = obfuscate_trace(mk_trace([]), low_bandwidth, 0.2, rng=0)
        assert len(out) == 0 and out == mk_trace([])

    def test_deterministic(self, low_bandwidth):
        trace = mk_trace([130, 400, -144] * 20)
        assert obfuscate_trace(trace, low_bandwidth, 0.2, rng=8) == obfuscate_trace(
            trace, low_bandwidth, 0.2, rng=8
        )


class TestPadTrace:
    def test_record_at_ceiling_unchanged(self):
        trace = mk_trace([1582, -1582])
        out = pad_trace(trace, 1582, rng=0)
        assert out.signed_size.tolist() == [1582, -1582]

    def test_total_bytes_strictly_increase(self):
        trace = mk_trace([130, -116, 400])
        out = pad_trace(trace, 1582, rng=0)
        assert out.total_bytes > trace.total_bytes
        assert len(out) == len(trace)

    def test_timing_and_direction_unchanged(self):
        trace = mk_trace([130, -116])
        out = pad_trace(trace, 1582, rng=1)
        assert out.timestamp_us.tolist() == [0, 1000]
        assert out.signed_size[1] < 0

    def test_oversize_record_rejected(self):
        with pytest.raises(ValueError):
            pad_trace(mk_trace([2000]), 1582, rng=0)

    @pytest.mark.parametrize("ceiling", [1500.0, "1500"])
    def test_ceiling_that_is_not_an_int_names_mtu_frame(self, ceiling):
        with pytest.raises(ConfigurationError) as err:
            pad_trace(mk_trace([130]), ceiling, 0)
        assert str(err.value) == f"mtu_frame: expected int, got {ceiling!r}"

    def test_rejects_ceiling_beyond_64_bits_before_any_draw(self):
        # Eight frames padded up to 2**62 bytes may total 2**65: the int64
        # total_bytes would wrap.
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match=r"^mtu_frame: 4611686018427387904 pads 'dev'"):
            pad_trace(mk_trace([130, -116, 400, 1582] * 2), 2**62, rng)
        assert rng.getstate() == state

    def test_ceiling_just_within_64_bits_pads(self):
        ceiling = (2**63 - 1) // 8
        out = pad_trace(mk_trace([130, -116, 400, 1582] * 2), ceiling, rng=0)
        assert out.total_bytes == sum(abs(size) for size in out.signed_size.tolist())

    @given(
        frames=st.lists(
            st.tuples(
                st.integers(1, 2000), st.sampled_from(["drawn", "full", "one short"]), st.booleans()
            ),
            min_size=1,
            max_size=40,
        ),
        ceiling=st.sampled_from(["largest frame", 2000, 2048, 2049, 4096]),
        seed=st.integers(0, 2**32),
    )
    def test_matches_randint_body(self, frames, ceiling, seed):
        # A full frame draws nothing, so full frames and a ceiling equal to
        # the largest frame must skip their draw exactly as randint's
        # caller did; a frame one byte short draws from a span of one.
        if ceiling == "largest frame":
            ceiling = max(size for size, _, _ in frames)
        lengths = {"full": ceiling, "one short": max(ceiling - 1, 1)}
        sizes = [
            lengths.get(kind, size) * (-1 if outgoing else 1) for size, kind, outgoing in frames
        ]
        trace = mk_trace(sizes)
        inlined, stdlib = random.Random(seed), random.Random(seed)
        padded = pad_trace(trace, ceiling, inlined).signed_size.tolist()
        assert padded == randint_pad_trace(trace, ceiling, stdlib)
        assert inlined.getstate() == stdlib.getstate()

    @given(seed=st.integers(0, 2**32))
    def test_padded_sizes_bounded(self, seed):
        trace = mk_trace([130, -116, 400, 1582])
        out = pad_trace(trace, 1582, rng=seed)
        for before, after in zip(trace.signed_size.tolist(), out.signed_size.tolist()):
            assert abs(before) <= abs(after) <= 1582
            assert (before < 0) == (after < 0)


class TestPadOneFrame:
    """The random-padding rule for one frame, through tracesim.pad_trace."""

    @staticmethod
    def padded(sizes, ceiling, rng):
        trace = Trace(range(len(sizes)), sizes, [False] * len(sizes), "d")
        return pad_trace(trace, ceiling, rng).signed_size.tolist()

    def test_at_ceiling_unchanged(self):
        rng = random.Random(0)
        state = rng.getstate()
        assert self.padded([1400, -1400], 1400, rng) == [1400, -1400]
        assert rng.getstate() == state  # a full frame draws nothing

    def test_one_byte_short(self):
        assert self.padded([1399, -1399], 1400, random.Random(0)) == [1400, -1400]

    def test_draws_cover_range_only(self):
        values = set(self.padded([100] * 10**4, 1400, random.Random(5)))
        assert min(values) >= 101
        assert max(values) <= 1400

    @pytest.mark.parametrize("payload,ceiling", [(0, 1400), (1401, 1400), (-11, 10)])
    def test_rejects_out_of_range(self, payload, ceiling):
        with pytest.raises(ValueError):
            self.padded([payload], ceiling, random.Random(0))

    @given(
        payload=st.integers(1, 1400),
        seed=st.integers(0, 2**32),
    )
    def test_never_shrinks_never_overflows(self, payload, seed):
        [padded] = self.padded([payload], 1400, random.Random(seed))
        assert payload <= padded <= 1400


class TestCoverTraffic:
    def test_reference_equal_to_target_needs_no_cover(self):
        trace = mk_trace([130, -116] * 50)
        result = inject_cover_traffic(trace, trace, window_s=30, rng=0)
        assert result.cover_bytes == 0
        assert result.trace == trace

    def test_volume_matched_within_one_packet(self):
        rng = random.Random(4)
        low = mk_trace([rng.choice([130, -134]) for _ in range(40)], step_us=700_000)
        high = mk_trace(
            [rng.choice([400, 482, -360]) for _ in range(400)], step_us=70_000
        )
        window_us = 10 * 10**6
        result = inject_cover_traffic(low, high, window_s=10, rng=7)
        max_packet = int(np.abs(low.signed_size).max())

        def volumes(trace):
            out = {}
            for ts, size, _ in as_rows(trace):
                out[ts // window_us] = out.get(ts // window_us, 0) + abs(size)
            return out

        ref = volumes(high)
        got = volumes(result.trace)
        before = volumes(low)
        for idx, ref_vol in ref.items():
            if before.get(idx, 0) >= ref_vol:
                continue
            assert got[idx] >= ref_vol
            assert got[idx] - ref_vol < max_packet

    def test_strip_restores_input_exactly(self):
        low = mk_trace([130] * 20, step_us=1_000_000)
        high = mk_trace([400] * 200, step_us=100_000)
        result = inject_cover_traffic(low, high, window_s=5, rng=3)
        assert result.cover_bytes > 0
        assert result.trace.without_cover() == low

    def test_cover_sizes_come_from_target(self):
        low = mk_trace([130, -134] * 10, step_us=1_000_000)
        high = mk_trace([997] * 200, step_us=100_000)
        result = inject_cover_traffic(low, high, window_s=5, rng=9)
        cover_sizes = set(np.abs(result.trace.signed_size[result.trace.covered]).tolist())
        assert cover_sizes <= {130, 134}

    def test_asymmetric_volume_asymmetric_cover(self):
        quiet = mk_trace([130] * 30, step_us=1_000_000, device="quiet")
        busy = mk_trace([482] * 600, step_us=50_000, device="busy")
        quiet_cover = inject_cover_traffic(quiet, busy, 10, rng=1)
        busy_cover = inject_cover_traffic(busy, quiet, 10, rng=1)
        assert busy_cover.cover_bytes == 0
        assert quiet_cover.cover_fraction > 10 * busy_cover.cover_fraction

    def test_zero_window_rejected(self):
        trace = mk_trace([130])
        with pytest.raises(ValueError):
            inject_cover_traffic(trace, trace, window_s=0, rng=0)

    def test_window_below_one_microsecond_rejected(self):
        trace = mk_trace([130])
        with pytest.raises(ValueError, match="window_s"):
            inject_cover_traffic(trace, trace, window_s=1e-7, rng=0)

    def test_empty_target_rejected(self):
        empty = Trace([], [], [], "dev")
        with pytest.raises(ConfigurationError) as err:
            inject_cover_traffic(empty, mk_trace([130]), window_s=30, rng=0)
        assert str(err.value) == "target trace is empty; no size distribution for cover"

    @given(
        target=small_traces(min_size=1),
        reference=small_traces(device="ref"),
        width=st.sampled_from([1, 1000, 500_000, 2_000_000, 30_000_000]),
        seed=st.integers(0, 2**32),
    )
    def test_matches_bucket_loop(self, target, reference, width, seed):
        for trace in (target, reference):
            assert _window_volumes(trace, width) == bucket_volumes(trace, width)
        result = inject_cover_traffic(target, reference, width / 1e6, rng=seed)
        expected, cover_bytes = bucket_cover(target, reference, width, random.Random(seed))
        assert result.trace == expected
        assert result.cover_bytes == cover_bytes
        assert result.trace.device == target.device

    @given(
        target=small_traces(min_size=1),
        reference=small_traces(device="ref"),
        window_s=st.sampled_from([1e-6, 0.03, 30.0, 4294.967295, 4294.967296, 4294.967297,
                                  5000.0, 1099511.627779]),
        stretch=st.sampled_from([1, 5_000, 2_000_000]),
        seed=st.integers(0, 2**32),
    )
    def test_wide_windows_match_the_bucket_loop(self, target, reference, window_s, stretch, seed):
        # Windows of 2**32 µs and more take two words per offset draw.
        target, reference = (
            replace(trace, timestamp_us=trace.timestamp_us * stretch) for trace in (target, reference)
        )
        result = inject_cover_traffic(target, reference, window_s, rng=seed)
        expected, cover_bytes = bucket_cover(
            target, reference, window_us(window_s), random.Random(seed)
        )
        assert result.trace == expected
        assert result.cover_bytes == cover_bytes

    @given(
        target=small_traces(min_size=1),
        reference=small_traces(device="ref"),
        window_s=st.sampled_from([0.5, 5000.0]),
        seed=st.integers(0, 2**32),
    )
    def test_reads_no_word_twice(self, target, reference, window_s, seed):
        # Exactly the words the bucket loop draws: none read ahead.
        requested = []
        getrandbits = random.Random.getrandbits

        def counted(rng, k):
            requested.append(-(-k // 32))
            return getrandbits(rng, k)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(random.Random, "getrandbits", counted)
            inject_cover_traffic(target, reference, window_s, seed)
            read = sum(requested)
            requested.clear()
            bucket_cover(target, reference, window_us(window_s), random.Random(seed))
        drawn = sum(requested)
        assert read == drawn

    @given(seed=st.integers(0, 2**32))
    def test_generator_gives_the_cover_of_its_seed(self, seed):
        low = mk_trace([130] * 5, step_us=1_000_000)
        high = mk_trace([400] * 50, step_us=100_000)
        from_generator = inject_cover_traffic(low, high, 5, random.Random(seed))
        assert from_generator.trace == inject_cover_traffic(low, high, 5, seed).trace

    @pytest.mark.parametrize("seed", [True, 1.0, "1"])
    @pytest.mark.parametrize("stage", ["synthesize", "obfuscate", "pad", "cover"])
    def test_seed_that_is_not_an_int_is_rejected_by_every_stage(self, stage, seed):
        trace = mk_trace([130] * 5, step_us=1_000_000)
        config = SegmentationConfig(prob=1.0, bands=(LevelBand(5, 20),))
        run = {
            "synthesize": lambda: synthesize_trace(FLAT_PROFILE, 10.0, seed),
            "obfuscate": lambda: obfuscate_trace(trace, config, 0.2, seed),
            "pad": lambda: pad_trace(trace, 1582, seed),
            "cover": lambda: inject_cover_traffic(trace, trace, 5, seed),
        }[stage]
        expected = f"^rng must be a random.Random or an int seed, got {seed!r}$"
        with pytest.raises(TypeError, match=expected):
            run()

    def test_timestamps_beyond_64_bits_rejected(self):
        # Window 1 of 5e18 µs ends past 2**63 µs.
        low = mk_trace([130])
        high = Trace([0, 5 * 10**18 + 1], [400, 400], [False, False], "high")
        with pytest.raises(ValueError, match="beyond 64 bits"):
            inject_cover_traffic(low, high, window_s=5e12, rng=0)

    @given(
        target=small_traces(min_size=1),
        reference=small_traces(device="ref"),
        width=st.sampled_from([1, 1000, 500_000, 2_000_000, 30_000_000, 2**41 + 3]),
        seed=st.integers(0, 2**32),
    )
    def test_window_profile_stands_in_for_the_reference(self, target, reference, width, seed):
        profile = window_profile(reference, width)
        assert _window_volumes(profile, width) == _window_volumes(reference, width)
        assert profile.device == reference.device and not profile.covered.any()
        result = inject_cover_traffic(target, profile, width / 1e6, rng=seed)
        expected = inject_cover_traffic(target, reference, width / 1e6, rng=seed)
        assert result.trace == expected.trace
        assert result.cover_bytes == expected.cover_bytes

    def test_cover_flag_metadata_only(self):
        low = mk_trace([130] * 5, step_us=1_000_000)
        high = mk_trace([400] * 50, step_us=100_000)
        result = inject_cover_traffic(low, high, window_s=5, rng=2)
        original = as_rows(low)
        assert all(row[2] for row in as_rows(result.trace) if row not in original)
        assert result.original_bytes == low.total_bytes


class TestWindowStarts:
    @given(
        trace=small_traces(),
        width=st.one_of(
            st.integers(1, 5_000_000), st.integers(2**40 - 5, 2**41), st.just(2**63 - 1)
        ),
    )
    def test_matches_the_unique_cut(self, trace, width):
        starts = window_starts(trace.timestamp_us, width)
        assert starts.tolist() == unique_starts(trace.timestamp_us, width).tolist()
        assert _window_volumes(trace, width) == bucket_volumes(trace, width)

    def test_one_window_per_run_of_equal_window_numbers(self):
        timestamps = np.array([0, 5, 9, 10, 10, 35, 99, 100])
        assert window_starts(timestamps, 10).tolist() == [0, 3, 5, 6, 7]
        assert window_starts(timestamps[:0], 10).tolist() == []
