import json
import re
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from segshield import report as report_module
from segshield.cli import main_segshield
from segshield.errors import ConfigurationError, TraceFormatError
from segshield.profiles import device_profile, resolve_device, resolve_segmentation
from segshield.report import (
    ExperimentConfig,
    OverheadResult,
    Report,
    StageError,
    byte_overhead,
    run_experiment,
    time_overhead,
    write_report,
)
from segshield.tracesim import Trace, synthesize_trace, write_trace

TINY_PAIR = {
    "seed": 11,
    "duration_s": 420,
    "devices": ["bulb-like", "plug-like"],
    "n_trees": 10,
}


class TestByteOverhead:
    def test_reported_seven_percent_row(self):
        b = byte_overhead(704.6, 757.2)
        assert abs(float(b) * 100 - 7) <= 1

    def test_reported_fifty_four_percent_row(self):
        b = byte_overhead(704.6, 1084.7)
        assert abs(float(b) * 100 - 54) <= 1

    def test_no_delta(self):
        assert byte_overhead(500, 500) == 0

    def test_exact_rational(self):
        assert byte_overhead(200, 308) == Fraction(27, 50)

    def test_rejects_zero_baseline(self):
        with pytest.raises(ValueError):
            byte_overhead(0, 100)


class TestTimeOverhead:
    def test_no_delta(self):
        assert time_overhead(42.0, 42.0) == 0

    def test_twenty_percent_mean(self):
        assert time_overhead(100, 120.5) == Fraction(41, 200)

    def test_speedup_is_negative(self):
        assert time_overhead(10, 5) == Fraction(-1, 2)

    def test_rejects_zero_baseline(self):
        with pytest.raises(ValueError):
            time_overhead(0, 1)


class TestOverheadResult:
    def test_cover_bytes_deducted(self):
        row = OverheadResult(w_b=1000, d_b=1700, w_t_us=10, d_t_us=12, cover_bytes=200)
        assert row.b == Fraction(500, 1000)
        assert byte_overhead(row.w_b, row.d_b) - row.b == Fraction(200, 1000)

    def test_time_fraction(self):
        row = OverheadResult(w_b=10, d_b=10, w_t_us=1_000_000, d_t_us=1_200_000)
        assert row.t == Fraction(1, 5)


class TestRunExperiment:
    def test_defended_accuracy_drops(self, tmp_path):
        report = run_experiment(TINY_PAIR, tmp_path / "out")
        assert report.metrics["undefended"].accuracy > report.metrics["segmented"].accuracy

    def test_padding_costs_more_bytes(self, tmp_path):
        report = run_experiment(TINY_PAIR, tmp_path / "out")
        assert (
            report.overheads["padded"]["total"].b
            > report.overheads["segmented"]["total"].b
        )

    def test_reruns_byte_identical(self, tmp_path):
        run_experiment(TINY_PAIR, tmp_path / "a")
        run_experiment(TINY_PAIR, tmp_path / "b")
        for name in ("report.json", "metrics.csv", "overhead.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_stage_artifacts_written(self, tmp_path):
        run_experiment(TINY_PAIR, tmp_path / "out")
        traces = tmp_path / "out" / "traces"
        for device in ("bulb-like", "plug-like"):
            for arm in ("undefended", "padded", "segmented"):
                assert (traces / f"{device}.{arm}.jsonl").exists()

    def test_report_numbers_match_artifacts(self, tmp_path):
        report = run_experiment(TINY_PAIR, tmp_path / "out")
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        assert data["metrics"]["segmented"]["accuracy"] == pytest.approx(
            report.metrics["segmented"].accuracy
        )
        assert data["seeds"]["master"] == 11

    def test_noop_defense_collapses_arms(self, tmp_path):
        config = {
            "seed": 5,
            "duration_s": 300,
            "n_trees": 10,
            "time_overhead": 0.0,
            "mtu_frame": 1582,
            "segmentation": {"profile": "low-bandwidth", "prob": 0.0},
            "devices": [
                {
                    "name": "steady-a",
                    "mean_rate": 4.0,
                    "incoming": [[1582, 1.0]],
                },
                {
                    "name": "steady-b",
                    "mean_rate": 8.0,
                    "incoming": [[1582, 1.0]],
                },
            ],
        }
        report = run_experiment(config, tmp_path / "out")
        blocks = {arm: m.to_dict() for arm, m in report.metrics.items()}
        assert blocks["undefended"] == blocks["padded"] == blocks["segmented"]
        assert report.overheads["padded"]["total"].b == 0
        assert report.overheads["segmented"]["total"].b == 0

    def test_config_from_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(TINY_PAIR))
        report = run_experiment(path, tmp_path / "out")
        assert set(report.metrics) == {"undefended", "padded", "segmented"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment({**TINY_PAIR, "wat": 1})

    def test_devices_or_traces_exactly_one(self):
        with pytest.raises(ConfigurationError):
            run_experiment({"seed": 0})
        with pytest.raises(ConfigurationError):
            run_experiment({**TINY_PAIR, "traces": ["x.jsonl"]})

    def test_stage_failure_names_stage(self, monkeypatch, tmp_path):
        # Bad inputs fail before any write, so a late failure is a stage's own.
        def broken_padding(*args, **kwargs):
            raise RuntimeError("broken padding")

        monkeypatch.setattr(report_module, "pad_trace", broken_padding)
        with pytest.raises(StageError) as err:
            run_experiment(TINY_PAIR, tmp_path / "out")
        assert err.value.stage == "padding"
        # artifacts from the completed stage survive
        assert (tmp_path / "out" / "traces" / "bulb-like.undefended.jsonl").exists()

    def test_cover_reference_must_exist(self, tmp_path):
        config = {**TINY_PAIR, "cover": {"enabled": True, "reference": "nope"}}
        with pytest.raises(ConfigurationError):
            run_experiment(config, tmp_path / "out")

    def test_cover_bytes_tracked_and_deducted(self, tmp_path):
        config = {
            **TINY_PAIR,
            "duration_s": 300,
            "cover": {"enabled": True, "reference": "plug-like"},
        }
        report = run_experiment(config, tmp_path / "out")
        row = report.overheads["segmented"]["bulb-like"]
        assert row.cover_bytes > 0
        assert byte_overhead(row.w_b, row.d_b) > row.b
        assert report.overheads["segmented"]["plug-like"].cover_bytes == 0


class TestOneDeviceAtATime:
    CONFIG = {
        "seed": 3,
        "duration_s": 120,
        "devices": ["bulb-like", "plug-like", "doorbell-like"],
        "n_trees": 3,
        "cover": {"enabled": True, "reference": "plug-like"},
    }

    def test_earlier_devices_traces_are_gone(self, monkeypatch, tmp_path):
        made = []  # (device, stage, weak reference) of each trace a stage built
        calls = []

        def alive():
            return {(device, stage) for device, stage, ref in made if ref() is not None}

        def watch(stage):
            original = getattr(report_module, stage)

            def watched(trace, *args, **kwargs):
                calls.append((trace.device, stage, alive()))
                result = original(trace, *args, **kwargs)
                made.append((trace.device, stage, weakref.ref(getattr(result, "trace", result))))
                return result

            monkeypatch.setattr(report_module, stage, watched)

        for stage in ("pad_trace", "obfuscate_trace", "inject_cover_traffic"):
            watch(stage)
        train = report_module.train_forest

        def train_forest(*args, **kwargs):
            calls.append((None, "train_forest", alive()))
            return train(*args, **kwargs)

        monkeypatch.setattr(report_module, "train_forest", train_forest)
        run_experiment(self.CONFIG, tmp_path / "out")

        # The cover reference goes first, then the rest by name.
        assert calls[0] == ("plug-like", "pad_trace", set())
        devices = [device for device, stage, _ in calls if stage == "pad_trace"]
        assert devices == ["plug-like", "bulb-like", "doorbell-like"]
        for device, stage, seen in calls[1:]:
            if stage == "train_forest":
                assert seen == set()
            else:
                assert {(d, s) for d, s in seen if d != device} == set(), (device, stage)
        assert [stage for _, stage, _ in calls].count("train_forest") == 3

    def test_failed_run_leaves_each_finished_device_and_earlier_arms(
        self, monkeypatch, tmp_path
    ):
        def broken_cover(*args, **kwargs):
            raise RuntimeError("broken cover")

        monkeypatch.setattr(report_module, "inject_cover_traffic", broken_cover)
        with pytest.raises(StageError) as err:
            run_experiment(self.CONFIG, tmp_path / "out")
        assert err.value.stage == "cover"
        # The reference (plug-like) finished; bulb-like, next by name, failed
        # at its cover step after writing its first two arms.
        written = sorted(path.name for path in (tmp_path / "out" / "traces").iterdir())
        assert written == [
            "bulb-like.padded.jsonl",
            "bulb-like.undefended.jsonl",
            "plug-like.padded.jsonl",
            "plug-like.segmented.jsonl",
            "plug-like.undefended.jsonl",
        ]

    def test_reference_segmented_trace_is_dead_before_the_first_padding(
        self, monkeypatch, tmp_path
    ):
        segmented = []  # a weak reference to each segmented trace, in order
        alive_at_padding = []
        obfuscate, pad = report_module.obfuscate_trace, report_module.pad_trace

        def watched_obfuscate(trace, *args, **kwargs):
            result = obfuscate(trace, *args, **kwargs)
            segmented.append((trace.device, weakref.ref(result)))
            return result

        def watched_pad(trace, *args, **kwargs):
            alive_at_padding.append([device for device, ref in segmented if ref() is not None])
            return pad(trace, *args, **kwargs)

        monkeypatch.setattr(report_module, "obfuscate_trace", watched_obfuscate)
        monkeypatch.setattr(report_module, "pad_trace", watched_pad)
        run_experiment(self.CONFIG, tmp_path / "out")

        assert segmented[0][0] == "plug-like"
        # The reference pads first; at each later padding no segmented trace
        # of an earlier device, the reference's included, is alive.
        assert alive_at_padding == [[], [], []]
        written = sorted(path.name for path in (tmp_path / "out" / "traces").iterdir())
        assert "plug-like.segmented.jsonl" in written and len(written) == 9


CUSTOM_DEVICE = {"name": "custom", "mean_rate": 2.0, "incoming": [[130, 1.0]]}
FULL_SEGMENTATION = {"prob": 0.5, "bands": [{"min_seg": 5, "max_seg": 20}]}


class TestExperimentConfig:
    def test_defaults_typed_and_echoed(self):
        cfg = ExperimentConfig.from_dict(TINY_PAIR)
        assert cfg.duration_s == 420.0 and isinstance(cfg.duration_s, float)
        assert cfg.n_trees == 10 and cfg.window_s == 30.0 and cfg.mtu_frame == 1582
        assert cfg.segmentation.prob == 0.8 and cfg.cover_reference is None
        assert [p.name for p in cfg.devices] == ["bulb-like", "plug-like"]
        assert cfg.source["duration_s"] == 420
        assert cfg.source["segmentation"] == {"profile": "low-bandwidth"}
        assert cfg.source["cover"] == {"enabled": False}

    @pytest.mark.parametrize(
        "change,path",
        [
            ({"n_trees": "many"}, "n_trees"),
            ({"cover": True}, "cover"),
            ({"cover": {"enabeld": True}}, "cover.enabeld"),
            ({"segmentation": {"profile": "low-bandwidth", "prb": 0.0}}, "segmentation.prb"),
            ({"devices": [{**CUSTOM_DEVICE, "colour": "red"}, "plug-like"]}, "devices[0].colour"),
            ({"window_s": 1e-7}, "window_s"),
            (
                {"cover": {"enabled": True, "reference": "plug-like", "window_s": 1e-7}},
                "cover.window_s",
            ),
            ({"window_s": 1e13}, "window_s"),
            (
                {"cover": {"enabled": True, "reference": "plug-like", "window_s": 1e13}},
                "cover.window_s",
            ),
            ({"segmentation": {**FULL_SEGMENTATION, "seed": 1}}, "segmentation.seed"),
            ({"segmentation": {**FULL_SEGMENTATION, "mss": 1460}}, "segmentation.mss"),
            ({"segmentation": {**FULL_SEGMENTATION, "mtu": 1500}}, "segmentation.mtu"),
            ({"duration_s": 1e15}, "duration_s"),
            # Beyond the float range: no OverflowError escapes the check.
            ({"window_s": 1e303}, "window_s"),
            ({"duration_s": 10**400}, "duration_s"),
        ],
    )
    def test_bad_config_fails_before_any_output(self, tmp_path, capsys, change, path):
        config = {**TINY_PAIR, **change}
        out = tmp_path / "out"
        with pytest.raises(ConfigurationError, match="^" + re.escape(path) + ":"):
            run_experiment(config, out)
        assert not out.exists()
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        assert main_segshield(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "change,path",
        [
            ({"train_fraction": 1.0}, "train_fraction"),
            ({"max_depth": 0}, "max_depth"),
            ({"seed": True}, "seed"),
            ({"duration_s": float("inf")}, "duration_s"),
            ({"devices": ["bulb-like"]}, "devices"),
            ({"devices": ["bulb-like", "bulb-like"]}, "devices"),
            ({"devices": ["bulb-like", "nope"]}, "devices[1]"),
            ({"cover": {"enabled": True}}, "cover.reference"),
            (
                {"segmentation": {"prob": 0.5, "bands": [{"min_seg": 5}]}},
                "segmentation.bands[0].max_seg",
            ),
            ({"segmentation": {"profile": "low-bandwidth", "prob": 1.5}}, "segmentation.prob"),
        ],
    )
    def test_rejected_with_key_path(self, change, path):
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_dict({**TINY_PAIR, **change})
        assert str(err.value).startswith(f"{path}:")

    def test_full_objects_resolve(self):
        bands = [{"min_seg": 5, "max_seg": 20, "upper_threshold": None}]
        seg = resolve_segmentation({"prob": 0.5, "bands": bands})
        assert seg.prob == 0.5 and seg.bands[0].max_seg == 20
        device = resolve_device({**CUSTOM_DEVICE, "outgoing": [[116, 0.5]]})
        assert device.incoming == ((130, 1.0),) and device.outgoing == ((116, 0.5),)
        assert resolve_device({"profile": "bulb-like", "mean_rate": 3}) == device_profile(
            "bulb-like", 3.0
        )
        with pytest.raises(ConfigurationError, match=r"^device\.incoming\[0\]\[0\]:"):
            resolve_device({**CUSTOM_DEVICE, "incoming": [["130", 1.0]]})


class TestBadInputsWriteNothing:
    def _write(self, tmp_path, name, profile, seed):
        path = tmp_path / name
        write_trace(synthesize_trace(device_profile(profile), 120, seed), path)
        return str(path)

    def test_duplicate_device_labels(self, tmp_path):
        first = self._write(tmp_path, "a.jsonl", "bulb-like", 1)
        second = self._write(tmp_path, "b.jsonl", "bulb-like", 2)
        out = tmp_path / "out"
        with pytest.raises(ConfigurationError) as err:
            run_experiment({"traces": [first, second], "n_trees": 5}, out)
        assert first in str(err.value) and second in str(err.value)
        assert list((out / "traces").iterdir()) == []

    def test_empty_trace_file(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        good = self._write(tmp_path, "a.jsonl", "bulb-like", 1)
        out = tmp_path / "out"
        with pytest.raises(TraceFormatError, match=re.escape(str(empty))):
            run_experiment({"traces": [good, str(empty)], "n_trees": 5}, out)
        assert list((out / "traces").iterdir()) == []

    def test_device_without_records(self, tmp_path, capsys):
        silent = {**CUSTOM_DEVICE, "name": "silent", "mean_rate": 1e-9}
        config = {**TINY_PAIR, "devices": ["bulb-like", silent, "plug-like"]}
        out = tmp_path / "out"
        with pytest.raises(ConfigurationError, match=r"^devices\[1\]: 'silent' "):
            run_experiment(config, out)
        assert list((out / "traces").iterdir()) == []
        assert not (out / "report.json").exists()
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        assert main_segshield(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: devices[1]: 'silent' ")
        assert list((out / "traces").iterdir()) == []
        assert not (out / "report.json").exists()

    def test_time_overhead_beyond_64_bits(self, tmp_path, capsys):
        config = {**TINY_PAIR, "time_overhead": 1e20}
        out = tmp_path / "out"
        with pytest.raises(ConfigurationError, match=r"^time_overhead: 1e\+20 dilates "):
            run_experiment(config, out)
        assert list((out / "traces").iterdir()) == []
        assert not (out / "report.json").exists()
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        assert main_segshield(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: time_overhead: 1e+20 dilates ")
        assert list((out / "traces").iterdir()) == []
        assert not (out / "report.json").exists()

    def test_mtu_frame_beyond_64_bits(self, tmp_path, capsys):
        config = {**TINY_PAIR, "mtu_frame": 2**62}
        out = tmp_path / "out"
        with pytest.raises(ConfigurationError, match=r"^mtu_frame: 4611686018427387904 pads "):
            run_experiment(config, out)
        assert list((out / "traces").iterdir()) == []
        assert not (out / "report.json").exists()
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        assert main_segshield(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: mtu_frame: 4611686018427387904 pads ")
        assert list((out / "traces").iterdir()) == []
        assert not (out / "report.json").exists()

    def test_header_bytes_leaving_no_payload(self, tmp_path):
        config = {**TINY_PAIR, "header_bytes": 110}
        out = tmp_path / "out"
        with pytest.raises(
            ConfigurationError, match=r"^header_bytes: 110 leaves no payload in 'bulb-like''s "
        ):
            run_experiment(config, out)
        assert list((out / "traces").iterdir()) == []
        assert not (out / "report.json").exists()

    def test_device_that_fills_one_window(self, tmp_path):
        # 20 s of traffic fills one 30 s window, which cannot go to both train and test.
        config = {"seed": 1, "duration_s": 20, "devices": ["bulb-like", "plug-like"], "n_trees": 3}
        out = tmp_path / "out"
        match = r"^window_s: 30.0 cuts 'bulb-like' into 1 window\(s\); need >= 2$"
        with pytest.raises(ConfigurationError, match=match):
            run_experiment(config, out)
        assert list((out / "traces").iterdir()) == []
        assert not (out / "report.json").exists()

    def test_trace_file_that_fills_one_window(self, tmp_path):
        first = self._write(tmp_path, "a.jsonl", "bulb-like", 1)
        second = self._write(tmp_path, "b.jsonl", "plug-like", 2)
        out = tmp_path / "out"
        with pytest.raises(ConfigurationError, match=r"^window_s: 200.0 cuts 'bulb-like' into 1 "):
            run_experiment({"traces": [first, second], "n_trees": 3, "window_s": 200}, out)
        assert list((out / "traces").iterdir()) == []

    def test_dilation_that_merges_a_device_into_one_window(self, tmp_path):
        # 29.9 s and 30.0 s fill two 30 s windows; dilated by 1.2 they fall
        # at 35.88 s and 36.0 s, in one.
        pair = tmp_path / "pair.jsonl"
        write_trace(Trace([29_900_000, 30_000_000], [200, -200], [False, False], "pair"), pair)
        bulb = self._write(tmp_path, "b.jsonl", "bulb-like", 2)
        out = tmp_path / "out"
        config = {"traces": [str(pair), bulb], "n_trees": 3, "time_overhead": 0.2}
        match = (
            r"^window_s: 30.0 cuts 'pair' into 1 window\(s\) once time_overhead 0.2 dilates it; "
            r"need >= 2$"
        )
        with pytest.raises(ConfigurationError, match=match):
            run_experiment(config, out)
        assert list((out / "traces").iterdir()) == []

    @pytest.mark.parametrize("cover", [False, True])
    def test_frame_above_mtu_frame(self, tmp_path, cover):
        large = {**CUSTOM_DEVICE, "name": "large", "incoming": [[2000, 1.0]]}
        config = {**TINY_PAIR, "devices": ["bulb-like", large]}
        if cover:  # the cover reference's segmented arm is written first
            config["cover"] = {"enabled": True, "reference": "large"}
        out = tmp_path / "out"
        with pytest.raises(
            ConfigurationError, match=r"^mtu_frame: 1582 is below 'large''s record 0, 2000 bytes$"
        ):
            run_experiment(config, out)
        assert list((out / "traces").iterdir()) == []
        assert not (out / "report.json").exists()

    def test_device_named_total(self, tmp_path):
        config = {**TINY_PAIR, "devices": ["bulb-like", {**CUSTOM_DEVICE, "name": "total"}]}
        out = tmp_path / "out"
        with pytest.raises(ConfigurationError) as err:
            run_experiment(config, out)
        assert str(err.value) == "devices[1]: the name 'total' is reserved"
        assert not out.exists()

    def test_trace_labelled_total(self, tmp_path):
        good = self._write(tmp_path, "a.jsonl", "bulb-like", 1)
        total = tmp_path / "b.jsonl"
        device = resolve_device({**CUSTOM_DEVICE, "name": "total"}, "device")
        write_trace(synthesize_trace(device, 120, 2), total)
        out = tmp_path / "out"
        with pytest.raises(ConfigurationError) as err:
            run_experiment({"traces": [good, str(total)], "n_trees": 5}, out)
        assert str(err.value) == f"traces: {total} holds device 'total', a reserved name"
        assert list((out / "traces").iterdir()) == []
        assert not (out / "report.json").exists()

    def test_report_that_cannot_render_writes_no_file(self, tmp_path):
        rows = {"padded": {"silent": OverheadResult(w_b=0, d_b=0, w_t_us=0, d_t_us=0)}}
        report = Report(config={}, seeds={}, metrics={}, overheads=rows)
        with pytest.raises(ValueError, match="baseline byte count"):
            write_report(report, tmp_path / "out")
        assert not (tmp_path / "out" / "report.json").exists()
