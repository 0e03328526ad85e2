import json
import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from segshield.errors import ConfigurationError, TraceFormatError
from segshield.segcore import LevelBand, SegmentationConfig
from segshield.tracesim import (
    DeviceProfile,
    PacketRecord,
    Trace,
    ingest_trace,
    inject_cover_traffic,
    load_profile,
    obfuscate_trace,
    pad_trace,
    synthesize_trace,
    write_trace,
)


def mk_trace(sizes, device="dev", step_us=1000, header_bytes=82):
    records = tuple(
        PacketRecord(timestamp_us=i * step_us, signed_size=s, device=device)
        for i, s in enumerate(sizes)
    )
    return Trace(records, device, header_bytes)


FLAT_PROFILE = DeviceProfile(
    name="flat", mean_rate=10.0, incoming=((130, 0.7),), outgoing=((130, 0.3),)
)


class TestRecordAndTrace:
    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            PacketRecord(timestamp_us=0, signed_size=0)

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            PacketRecord(timestamp_us=-1, signed_size=100)

    def test_direction_from_sign(self):
        assert PacketRecord(0, -70).outgoing is True
        assert PacketRecord(0, 70).outgoing is False
        assert PacketRecord(0, -70).size == 70

    def test_trace_rejects_unsorted(self):
        records = (PacketRecord(100, 60, device="d"), PacketRecord(50, 60, device="d"))
        with pytest.raises(ValueError):
            Trace(records, "d")

    def test_trace_rejects_foreign_device(self):
        with pytest.raises(ValueError):
            Trace((PacketRecord(0, 60, device="other"),), "d")

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
        back = ingest_trace(path)
        assert back.records == trace.records
        assert back.device == trace.device

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
        write_trace(trace, path, format="csv")
        assert ingest_trace(path).records == trace.records

    def test_three_row_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(mk_trace([10, 20, -30]), path)
        assert len(ingest_trace(path)) == 3

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

    def test_unknown_format(self, tmp_path):
        with pytest.raises(TraceFormatError):
            ingest_trace(tmp_path / "t.xyz", format="pcap")

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("when,size\n1,2\n")
        with pytest.raises(TraceFormatError) as err:
            ingest_trace(path)
        assert err.value.line == 1


class TestDeviceProfile:
    def test_rejects_empty_distribution(self):
        with pytest.raises(ConfigurationError):
            DeviceProfile(name="x", mean_rate=1.0)

    def test_rejects_bad_weight(self):
        with pytest.raises(ConfigurationError):
            DeviceProfile(name="x", mean_rate=1.0, incoming=((100, 0.0),))

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            DeviceProfile(name="x", mean_rate=0.0, incoming=((100, 1.0),))

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
        path.write_text(json.dumps(FLAT_PROFILE.to_dict()))
        assert load_profile(path) == FLAT_PROFILE


class TestSynthesize:
    def test_rate_within_three_sigma(self):
        trace = synthesize_trace(FLAT_PROFILE, 60.0, rng=42)
        expected = 600
        assert abs(len(trace) - expected) <= 3 * math.sqrt(expected)

    def test_single_length_distribution(self):
        trace = synthesize_trace(FLAT_PROFILE, 30.0, rng=1)
        assert {r.size for r in trace.records} == {130}

    def test_deterministic_given_seed(self):
        one = synthesize_trace(FLAT_PROFILE, 30.0, rng=9)
        two = synthesize_trace(FLAT_PROFILE, 30.0, rng=9)
        assert one.records == two.records

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            synthesize_trace(FLAT_PROFILE, 0.0, rng=0)

    def test_direction_mix(self):
        trace = synthesize_trace(FLAT_PROFILE, 600.0, rng=3)
        outgoing = sum(r.outgoing for r in trace.records) / len(trace)
        assert abs(outgoing - 0.3) < 0.05


class TestObfuscate:
    def test_prob_zero_scales_timestamps_only(self):
        trace = mk_trace([130, -116, 144])
        config = SegmentationConfig(prob=0.0, bands=(LevelBand(5, 20),))
        out = obfuscate_trace(trace, config, time_overhead=0.2, rng=0)
        assert [r.signed_size for r in out.records] == [130, -116, 144]
        assert [r.timestamp_us for r in out.records] == [
            round(r.timestamp_us * 1.2) for r in trace.records
        ]

    def test_single_frame_chunks_frozen_seed(self, low_bandwidth):
        # 130-byte frame, 82-byte header: the 48-byte payload splits into
        # 3..10 chunks; with this seed every chunk stays >= min_seg.
        trace = mk_trace([130])
        out = obfuscate_trace(trace, low_bandwidth, 0.2, rng=1)
        sizes = [r.size for r in out.records]
        assert sizes == [89, 95, 90, 102]
        assert all(87 <= s <= 102 for s in sizes)

    @pytest.mark.parametrize("seed", range(30))
    def test_single_frame_chunk_ranges(self, low_bandwidth, seed):
        out = obfuscate_trace(mk_trace([130]), low_bandwidth, 0.2, rng=seed)
        sizes = [r.size for r in out.records]
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
        signs = {r.timestamp_us: r.signed_size > 0 for r in out.records}
        stamps = [r.timestamp_us for r in out.records]
        assert stamps == sorted(stamps)
        assert all(
            (r.signed_size > 0) == signs[r.timestamp_us] for r in out.records
        )

    def test_header_swallowing_frame_rejected(self, low_bandwidth):
        trace = mk_trace([82, 130])
        with pytest.raises(ConfigurationError):
            obfuscate_trace(trace, low_bandwidth, 0.2, rng=0)

    def test_rejects_negative_dilation(self, low_bandwidth):
        with pytest.raises(ValueError):
            obfuscate_trace(mk_trace([130]), low_bandwidth, -0.1, rng=0)

    def test_deterministic(self, low_bandwidth):
        trace = mk_trace([130, 400, -144] * 20)
        assert (
            obfuscate_trace(trace, low_bandwidth, 0.2, rng=8).records
            == obfuscate_trace(trace, low_bandwidth, 0.2, rng=8).records
        )


class TestPadTrace:
    def test_record_at_ceiling_unchanged(self):
        trace = mk_trace([1582, -1582])
        out = pad_trace(trace, 1582, rng=0)
        assert [r.signed_size for r in out.records] == [1582, -1582]

    def test_total_bytes_strictly_increase(self):
        trace = mk_trace([130, -116, 400])
        out = pad_trace(trace, 1582, rng=0)
        assert out.total_bytes > trace.total_bytes
        assert len(out) == len(trace)

    def test_timing_and_direction_unchanged(self):
        trace = mk_trace([130, -116])
        out = pad_trace(trace, 1582, rng=1)
        assert [r.timestamp_us for r in out.records] == [0, 1000]
        assert out.records[1].outgoing

    def test_oversize_record_rejected(self):
        with pytest.raises(ValueError):
            pad_trace(mk_trace([2000]), 1582, rng=0)

    @given(seed=st.integers(0, 2**32))
    def test_padded_sizes_bounded(self, seed):
        trace = mk_trace([130, -116, 400, 1582])
        out = pad_trace(trace, 1582, rng=seed)
        for before, after in zip(trace.records, out.records):
            assert before.size <= after.size <= 1582
            assert before.outgoing == after.outgoing


class TestCoverTraffic:
    def test_reference_equal_to_target_needs_no_cover(self):
        trace = mk_trace([130, -116] * 50)
        result = inject_cover_traffic(trace, trace, window_s=30, rng=0)
        assert result.cover_bytes == 0
        assert result.trace.records == trace.records

    def test_volume_matched_within_one_packet(self):
        rng = random.Random(4)
        low = mk_trace([rng.choice([130, -134]) for _ in range(40)], step_us=700_000)
        high = mk_trace(
            [rng.choice([400, 482, -360]) for _ in range(400)], step_us=70_000
        )
        window_us = 10 * 10**6
        result = inject_cover_traffic(low, high, window_s=10, rng=7)
        max_packet = max(r.size for r in low.records)

        def volumes(trace):
            out = {}
            for r in trace.records:
                out[r.timestamp_us // window_us] = (
                    out.get(r.timestamp_us // window_us, 0) + r.size
                )
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
        assert result.trace.without_cover().records == low.records

    def test_cover_sizes_come_from_target(self):
        low = mk_trace([130, -134] * 10, step_us=1_000_000)
        high = mk_trace([997] * 200, step_us=100_000)
        result = inject_cover_traffic(low, high, window_s=5, rng=9)
        cover_sizes = {r.size for r in result.trace.records if r.covered}
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

    def test_cover_flag_metadata_only(self):
        low = mk_trace([130] * 5, step_us=1_000_000)
        high = mk_trace([400] * 50, step_us=100_000)
        result = inject_cover_traffic(low, high, window_s=5, rng=2)
        assert all(r.covered for r in result.trace.records if r not in low.records)
        assert result.original_bytes == low.total_bytes
