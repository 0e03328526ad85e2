import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import segshield
from segshield.attackeval import FeatureVector, extract_windows, split_dataset, train_forest
from segshield.cli import main_attackeval, main_segshield, main_shaper, main_tracesim
from segshield.errors import ConfigurationError
from segshield.profiles import (
    device_profile,
    device_profile_names,
    segmentation_profile,
    segmentation_profile_names,
)
from segshield.report import ExperimentConfig
from segshield.shaper import bound_port
from segshield.tracesim import Trace, ingest_trace, obfuscate_trace, synthesize_trace


@pytest.fixture
def synth_pair(tmp_path):
    paths = {}
    for name, seed in (("bulb-like", 1), ("plug-like", 2)):
        out = tmp_path / f"{name}.jsonl"
        code = main_tracesim(
            [
                "synth",
                "--profile",
                name,
                "--duration",
                "120",
                "--seed",
                str(seed),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        paths[name] = out
    return paths


class TestTracesimCli:
    def test_synth_writes_trace(self, synth_pair):
        trace = ingest_trace(synth_pair["bulb-like"])
        assert len(trace) > 0
        assert trace.device == "bulb-like"

    def test_obfuscate_grows_record_count(self, synth_pair, tmp_path):
        out = tmp_path / "seg.jsonl"
        code = main_tracesim(
            [
                "obfuscate",
                "--in",
                str(synth_pair["bulb-like"]),
                "--profile",
                "low-bandwidth",
                "--time-overhead",
                "0.2",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert len(ingest_trace(out)) > len(ingest_trace(synth_pair["bulb-like"]))

    def test_pad_grows_bytes(self, synth_pair, tmp_path):
        out = tmp_path / "pad.jsonl"
        code = main_tracesim(
            ["pad", "--in", str(synth_pair["bulb-like"]), "--mtu-frame", "1582",
             "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        assert (
            ingest_trace(out).total_bytes
            > ingest_trace(synth_pair["bulb-like"]).total_bytes
        )

    def test_cover_marks_records(self, synth_pair, tmp_path):
        out = tmp_path / "cov.jsonl"
        code = main_tracesim(
            [
                "cover",
                "--target",
                str(synth_pair["bulb-like"]),
                "--reference",
                str(synth_pair["plug-like"]),
                "--window",
                "30",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert ingest_trace(out).covered.any()

    def test_cover_window_below_one_microsecond_fails_cleanly(self, synth_pair, tmp_path, capsys):
        out = tmp_path / "cov.jsonl"
        code = main_tracesim(
            ["cover", "--target", str(synth_pair["bulb-like"]), "--reference",
             str(synth_pair["plug-like"]), "--window", "1e-7", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --window:") and "Traceback" not in err
        assert not out.exists()

    def test_synth_from_profile_json(self, tmp_path, capsys):
        profile = {"name": "custom", "mean_rate": 2.0, "incoming": [[130, 1.0]]}
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(profile))
        out = tmp_path / "custom.jsonl"
        args = ["synth", "--profile", str(path), "--duration", "60", "--out", str(out)]
        assert main_tracesim(args) == 0
        assert ingest_trace(out).device == "custom"
        path.write_text(json.dumps({**profile, "colour": "red"}))
        assert main_tracesim(args) == 1
        assert "error: --profile.colour: unknown key" in capsys.readouterr().err

    def test_csv_suffix_round_trips(self, tmp_path):
        raw, padded = tmp_path / "raw.csv", tmp_path / "pad.csv"
        synth = ["synth", "--profile", "bulb-like", "--duration", "60", "--out", str(raw)]
        assert main_tracesim(synth) == 0
        assert raw.read_text().startswith("timestamp_us,signed_size,covered,device\n")
        assert main_tracesim(["pad", "--in", str(raw), "--seed", "4", "--out", str(padded)]) == 0
        assert padded.read_text().startswith("timestamp_us,signed_size,covered,device\n")
        assert ingest_trace(padded).total_bytes > ingest_trace(raw).total_bytes

    def test_synth_without_records_writes_no_file(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        argv = ["synth", "--profile", "doorbell-like", "--duration", "0.3", "--out", str(out)]
        assert main_tracesim(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --profile: 'doorbell-like' synthesized no records")
        assert "--duration 0.3 s" in err
        assert not out.exists()

    @pytest.mark.parametrize("duration", ["nan", "inf", "0", "1e15"])
    def test_synth_duration_checked_before_the_profile_is_read(self, tmp_path, capsys, duration):
        out = tmp_path / "d.jsonl"
        argv = ["synth", "--profile", str(tmp_path / "nonexistent.json"),
                "--duration", duration, "--out", str(out)]
        assert main_tracesim(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --duration:") and "nonexistent" not in err
        assert not out.exists()

    def test_pad_ceiling_beyond_64_bits_is_an_error(self, synth_pair, tmp_path, capsys):
        out = tmp_path / "pad.jsonl"
        argv = ["pad", "--in", str(synth_pair["bulb-like"]), "--mtu-frame",
                "4611686018427387904", "--out", str(out)]
        assert main_tracesim(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mtu_frame: 4611686018427387904 pads 'bulb-like'")
        assert "Traceback" not in err and not out.exists()

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        code = main_tracesim(
            ["obfuscate", "--in", str(tmp_path / "none.jsonl"), "--out",
             str(tmp_path / "x.jsonl")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "main,args,name",
    [
        (main_attackeval, ["--window", "0"], "--window"),
        (main_attackeval, ["--window", "1e-7"], "--window"),
        (main_attackeval, ["--veclen", "0"], "--veclen"),
        (main_attackeval, ["--train-fraction", "1.5"], "--train-fraction"),
        (main_attackeval, ["--trees", "0"], "--trees"),
        (main_attackeval, ["--max-depth", "0"], "--max-depth"),
        (main_tracesim, ["--window", "0"], "--window"),
        (main_attackeval, ["--window", "inf"], "--window"),
        (main_tracesim, ["--window", "inf"], "--window"),
        (main_attackeval, ["--window", "1e13"], "--window"),
        (main_tracesim, ["--window", "1e13"], "--window"),
    ],
)
def test_bad_flag_reported_before_missing_files(tmp_path, capsys, main, args, name):
    missing = [str(tmp_path / "nonexistent_a.jsonl"), str(tmp_path / "nonexistent_b.jsonl")]
    if main is main_attackeval:
        argv = ["run", "--traces", *missing, *args]
    else:
        argv = ["cover", "--target", missing[0], "--reference", missing[1], *args,
                "--out", str(tmp_path / "cov.jsonl")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}:") and "Traceback" not in err
    assert "nonexistent" not in err


@pytest.mark.parametrize(
    "main,argv,flag",
    [
        (main_tracesim, ["obfuscate", "--time-overhead", "-1"], "--time-overhead"),
        (main_tracesim, ["obfuscate", "--header-bytes", "-5"], "--header-bytes"),
        (main_tracesim, ["pad", "--mtu-frame", "0"], "--mtu-frame"),
        (main_tracesim, ["obfuscate", "--prob", "nan"], "--prob"),
    ],
)
def test_flag_checked_before_the_input_is_read(tmp_path, capsys, main, argv, flag):
    missing = str(tmp_path / "nonexistent.jsonl")
    inputs = ["--in", missing] if main is main_tracesim else ["--traces", missing, missing]
    assert main([*argv, *inputs, "--out", str(tmp_path / "out.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}:") and "Traceback" not in err
    assert "nonexistent" not in err


TRACE = Trace([0, 1], [130, -130], [False, False], "dev")
TRAIN = [FeatureVector((1,), "a"), FeatureVector((2,), "b")]
WINDOW_RULE = "at least 1 µs and below 2**63 µs once rounded to whole microseconds"
DURATION_RULE = "positive and below 2**63 µs (about 9.2e12 s)"


@pytest.mark.parametrize(
    "key,value,rule,argv,cli_name,library",
    [
        ("window_s", 0.0, WINDOW_RULE, ["run", "--window"], "--window",
         lambda v: extract_windows(TRACE, v)),
        ("vector_len", 0, "positive", ["run", "--veclen"], "--veclen",
         lambda v: extract_windows(TRACE, 30.0, v)),
        ("train_fraction", 1.5, "in (0, 1)", ["run", "--train-fraction"], "--train-fraction",
         lambda v: split_dataset(TRAIN, v)),
        ("n_trees", 0, "positive", ["run", "--trees"], "--trees",
         lambda v: train_forest(TRAIN, v)),
        ("max_depth", 0, "positive", ["run", "--max-depth"], "--max-depth",
         lambda v: train_forest(TRAIN, 1, v)),
        ("duration_s", -1.0, DURATION_RULE, ["synth", "--duration"], "--duration",
         lambda v: synthesize_trace(device_profile("bulb-like"), v, 0)),
        ("time_overhead", -1.0, "non-negative", ["obfuscate", "--time-overhead"],
         "--time-overhead",
         lambda v: obfuscate_trace(TRACE, segmentation_profile("low-bandwidth"), v, 0)),
        ("header_bytes", -5, "non-negative", ["obfuscate", "--header-bytes"], "--header-bytes",
         lambda v: Trace([0], [130], [False], "dev", v)),
    ],
)
def test_each_shared_rule_is_written_once(
    tmp_path, capsys, key, value, rule, argv, cli_name, library
):
    # The same bad value fails the experiment config, the CLI flag and the
    # library argument with the same rule text, each naming what it was given.
    def message(name):
        return f"{name}: must be {rule}, got {value!r}"

    with pytest.raises(ConfigurationError) as config_error:
        ExperimentConfig.from_dict({"devices": ["bulb-like", "plug-like"], key: value})
    assert str(config_error.value) == message(key)

    command, flag = argv
    missing = str(tmp_path / "nonexistent.jsonl")
    if command == "run":
        main, inputs = main_attackeval, ["--traces", missing, missing]
    else:
        main = main_tracesim
        inputs = ["--profile", "bulb-like"] if command == "synth" else ["--in", missing]
    out = str(tmp_path / "out.jsonl")
    assert main([command, *inputs, flag, str(value), "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message(cli_name)}\n"

    with pytest.raises(ConfigurationError) as library_error:
        library(value)
    assert str(library_error.value) == message(key)


def refuse_socket(*args, **kwargs):
    raise AssertionError("a socket was opened")


@pytest.mark.parametrize(
    "main,argv",
    [
        (main_tracesim, ["synth", "--profile", "bulb-like", "--duration", "60"]),
        (main_tracesim, ["obfuscate", "--in", "nonexistent.jsonl"]),
        (main_tracesim, ["pad", "--in", "nonexistent.jsonl"]),
        (main_tracesim, ["cover", "--target", "nonexistent.jsonl", "--reference", "b.jsonl"]),
        (main_attackeval, ["run", "--traces", "nonexistent.jsonl", "b.jsonl"]),
        (main_shaper, ["send", "--addr", "127.0.0.1:9", "--size", "10"]),
    ],
)
def test_negative_seed_rejected_before_any_input(tmp_path, capsys, monkeypatch, main, argv):
    # random.Random(-3) seeds as random.Random(3) does: -3 would repeat 3's output.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("segshield.cli.send_seeded_payload", refuse_socket)
    assert main([*argv, "--seed", "-3", "--out", "out.json"]) == 1
    assert capsys.readouterr().err == "error: --seed: must be non-negative, got -3\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "main,argv,presets",
    [
        (main_tracesim, ["synth"], device_profile_names()),
        (main_tracesim, ["obfuscate", "--in", "a.jsonl"], segmentation_profile_names()),
        (
            main_shaper,
            ["send", "--addr", "127.0.0.1:9", "--size", "10"],
            segmentation_profile_names(),
        ),
    ],
)
def test_profile_neither_preset_nor_file(tmp_path, capsys, monkeypatch, main, argv, presets):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("segshield.cli.send_seeded_payload", refuse_socket)
    assert main([*argv, "--profile", "nope", "--out", "out.json"]) == 1
    assert capsys.readouterr().err == (
        f"error: --profile: 'nope' is neither a preset ({', '.join(presets)}) nor a file\n"
    )
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "main,argv",
    [
        (main_tracesim, ["synth", "--profile", "bulb-like"]),
        (main_tracesim, ["pad", "--in", "a.jsonl"]),
        (main_tracesim, ["cover", "--target", "a.jsonl", "--reference", "b.jsonl"]),
        (main_attackeval, ["run", "--traces", "a.jsonl", "b.jsonl"]),
    ],
)
def test_header_bytes_only_on_obfuscate(tmp_path, capsys, main, argv):
    out = tmp_path / "out.jsonl"
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--header-bytes", "54", "--out", str(out)])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --header-bytes 54" in capsys.readouterr().err
    assert not out.exists()


class TestAttackevalCli:
    def test_run_writes_metrics(self, synth_pair, tmp_path):
        out = tmp_path / "metrics.json"
        code = main_attackeval(
            [
                "run",
                "--traces",
                str(synth_pair["bulb-like"]),
                str(synth_pair["plug-like"]),
                "--window",
                "10",
                "--veclen",
                "120",
                "--trees",
                "15",
                "--seed",
                "6",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        metrics = json.loads(out.read_text())
        assert set(metrics["labels"]) == {"bulb-like", "plug-like"}
        assert 0.0 <= metrics["accuracy"] <= 1.0

    @pytest.mark.parametrize("depth", ["0", "-2"])
    def test_depth_below_one_fails_cleanly(self, synth_pair, tmp_path, capsys, depth):
        out = tmp_path / "metrics.json"
        code = main_attackeval(
            ["run", "--traces", str(synth_pair["bulb-like"]), str(synth_pair["plug-like"]),
             "--window", "10", "--max-depth", depth, "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --max-depth:") and "Traceback" not in err
        assert not out.exists()


    def test_same_device_in_two_files_is_rejected(self, synth_pair, tmp_path, capsys):
        again = tmp_path / "again.jsonl"
        synth = ["synth", "--profile", "bulb-like", "--duration", "120", "--seed", "9"]
        assert main_tracesim([*synth, "--out", str(again)]) == 0
        capsys.readouterr()
        first, other = str(synth_pair["bulb-like"]), str(synth_pair["plug-like"])
        out = tmp_path / "metrics.json"
        code = main_attackeval(
            ["run", "--traces", first, other, str(again), "--window", "10", "--trees", "5",
             "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --traces:") and "Traceback" not in err
        assert first in err and str(again) in err and other not in err
        assert not out.exists()

    def test_one_file_is_rejected_before_it_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.jsonl")
        out = tmp_path / "metrics.json"
        assert main_attackeval(["run", "--traces", missing, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --traces: must be two or more") and "Traceback" not in err
        assert "No such file" not in err
        assert not out.exists()


class TestSegshieldCli:
    def test_experiment_writes_report(self, tmp_path):
        config = {
            "seed": 2,
            "duration_s": 240,
            "devices": ["bulb-like", "plug-like"],
            "n_trees": 8,
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "report"
        code = main_segshield(
            ["experiment", "--config", str(cfg_path), "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["metrics"]) == {"undefended", "padded", "segmented"}


class TestShaperCli:
    def test_send_recv_roundtrip(self, tmp_path):
        port = bound_port()
        rx_out = tmp_path / "rx.json"
        tx_out = tmp_path / "tx.json"
        receiver = threading.Thread(
            target=main_shaper,
            args=(
                [
                    "recv",
                    "--port",
                    str(port),
                    "--host",
                    "127.0.0.1",
                    "--reps",
                    "2",
                    "--out",
                    str(rx_out),
                ],
            ),
            daemon=True,
        )
        receiver.start()
        import time

        deadline = time.time() + 5
        code = None
        while time.time() < deadline:
            code = main_shaper(
                [
                    "send",
                    "--addr",
                    f"127.0.0.1:{port}",
                    "--size",
                    "50000",
                    "--profile",
                    "rand-high",
                    "--reps",
                    "2",
                    "--seed",
                    "7",
                    "--out",
                    str(tx_out),
                ]
            )
            if code == 0:
                break
            time.sleep(0.1)
        receiver.join(10)
        assert code == 0
        tx = json.loads(tx_out.read_text())
        rx = json.loads(rx_out.read_text())
        assert [r["checksum"] for r in tx["runs"]] == [
            r["checksum"] for r in rx["runs"]
        ]

    def test_send_to_nowhere_fails(self, tmp_path, capsys):
        code = main_shaper(
            [
                "send",
                "--addr",
                f"127.0.0.1:{bound_port()}",
                "--size",
                "10",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["send", "--size", "0"], "--size"),
            (["send", "--size", "-5"], "--size"),
            (["send", "--size", "10", "--send-buf", "0"], "--send-buf"),
            (["send", "--size", "10", "--send-buf", "-1"], "--send-buf"),
            (["send", "--size", "10", "--recv-buf", "0"], "--recv-buf"),
            (["send", "--size", "10", "--reps", "0"], "--reps"),
            (["recv", "--reps", "0"], "--reps"),
            (["recv", "--timeout", "0"], "--timeout"),
            (["recv", "--recv-buf", "-1"], "--recv-buf"),
            # setsockopt takes a C int: larger buffers were a TypeError traceback.
            (["send", "--size", "10", "--send-buf", "4294967296"], "--send-buf"),
            (["send", "--size", "10", "--send-buf", str(2**31)], "--send-buf"),
            (["send", "--size", "10", "--recv-buf", "8589934592"], "--recv-buf"),
            (["recv", "--recv-buf", str(2**31)], "--recv-buf"),
            (["send", "--size", "10", "--profile", "none", "--prob", "0.5"], "--prob"),
            (["send", "--size", "10", "--profile", "rand-high", "--prob", "1.5"], "--prob"),
        ],
    )
    def test_bad_number_reported_before_any_socket(self, tmp_path, capsys, monkeypatch, argv, flag):
        where = ["--addr", "127.0.0.1:9"] if argv[0] == "send" else ["--port", "9"]
        self.assert_rejected(tmp_path, capsys, monkeypatch, [*argv, *where], flag)

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["send", "--size", "10", "--addr", "127.0.0.1:70000"], "--addr"),
            (["send", "--size", "10", "--addr", "127.0.0.1:0"], "--addr"),
            (["send", "--size", "10", "--addr", "127.0.0.1:http"], "--addr"),
            (["send", "--size", "10", "--addr", "no-port"], "--addr"),
            (["recv", "--port", "70000"], "--port"),
            (["recv", "--port", "-5"], "--port"),
            (["recv", "--port", "0"], "--port"),
        ],
    )
    def test_bad_address_reported_before_any_socket(self, tmp_path, capsys, monkeypatch, argv, flag):
        self.assert_rejected(tmp_path, capsys, monkeypatch, argv, flag)

    @staticmethod
    def assert_rejected(tmp_path, capsys, monkeypatch, argv, flag):
        def connect(*args, **kwargs):
            raise AssertionError("a socket was opened")

        monkeypatch.setattr("segshield.cli.send_seeded_payload", connect)
        monkeypatch.setattr("segshield.cli.run_receiver", connect)
        assert main_shaper([*argv, "--out", str(tmp_path / "x.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}:") and "Traceback" not in err
        assert not (tmp_path / "x.json").exists()


LIVE_PATH_PROBE = """
import sys
import segshield
import segshield.cli
import segshield.profiles
import segshield.rng
import segshield.segcore
import segshield.shaper
try:
    segshield.cli.main_shaper(["send", "--help"])
except SystemExit:
    pass
offline = ("numpy", "segshield.tracesim", "segshield.attackeval", "segshield.report")
print(sorted(name for name in offline if name in sys.modules))
"""


def test_live_path_imports_only_the_standard_library():
    """The sender's modules and the shaper command load neither numpy nor
    the offline simulator."""
    src = str(Path(segshield.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", LIVE_PATH_PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
