import json
import threading

import pytest

from segshield.cli import main_attackeval, main_segshield, main_shaper, main_tracesim
from segshield.shaper import bound_port
from segshield.tracesim import ingest_trace


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
        covered = [r for r in ingest_trace(out).records if r.covered]
        assert covered

    def test_cover_window_below_one_microsecond_fails_cleanly(self, synth_pair, tmp_path, capsys):
        out = tmp_path / "cov.jsonl"
        code = main_tracesim(
            ["cover", "--target", str(synth_pair["bulb-like"]), "--reference",
             str(synth_pair["plug-like"]), "--window", "1e-7", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: window_s") and "Traceback" not in err
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

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        code = main_tracesim(
            ["obfuscate", "--in", str(tmp_path / "none.jsonl"), "--out",
             str(tmp_path / "x.jsonl")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


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
        assert err.startswith("error: max_depth") and "Traceback" not in err
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
