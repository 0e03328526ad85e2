import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from segshield.cli import main_segshield
from segshield.errors import ConfigurationError, TraceFormatError
from segshield.profiles import device_profile, resolve_device, resolve_segmentation
from segshield.report import (
    ExperimentConfig,
    OverheadResult,
    StageError,
    byte_overhead,
    run_experiment,
    time_overhead,
)
from segshield.tracesim import synthesize_trace, write_trace

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
        assert row.b_with_cover == Fraction(700, 1000)
        assert row.b_with_cover - row.b == Fraction(200, 1000)

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

    def test_stage_failure_names_stage(self, tmp_path):
        config = {**TINY_PAIR, "mtu_frame": 100}  # every frame oversize
        with pytest.raises(StageError) as err:
            run_experiment(config, tmp_path / "out")
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
        assert row.b_with_cover > row.b
        assert report.overheads["segmented"]["plug-like"].cover_bytes == 0


CUSTOM_DEVICE = {"name": "custom", "mean_rate": 2.0, "incoming": [[130, 1.0]]}


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
            ({"segmentation": {"profile": "low-bandwidth", "prob": 1.5}}, "segmentation"),
        ],
    )
    def test_rejected_with_key_path(self, change, path):
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_dict({**TINY_PAIR, **change})
        assert str(err.value).startswith(f"{path}:")

    def test_full_objects_resolve(self):
        bands = [{"min_seg": 5, "max_seg": 20, "upper_threshold": None}]
        seg = resolve_segmentation({"prob": 0.5, "bands": bands}, seed=3)
        assert seg.prob == 0.5 and seg.bands[0].max_seg == 20 and seg.seed == 3
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
