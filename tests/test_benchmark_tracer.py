"""The benchmark's tracer still finds every layer it measures.

perfbench/tracer.py patches segshield's stage functions, the planner (as
``tracesim`` and as ``shaper`` call it) and ``Trace.total_bytes`` from
outside. A refactor that renames or bypasses one of them would make a
per-layer metric read 0 without failing any run; this test catches that.
"""

import importlib.util
from pathlib import Path

from segshield import profiles, report, shaper, tracesim

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

CONFIG = {
    "seed": 3,
    "duration_s": 120,
    "devices": ["bulb-like", "plug-like", "doorbell-like"],
    "n_trees": 3,
    "cover": {"enabled": True, "reference": "plug-like"},
}

STAGES = (
    "synthesize_trace",
    "ingest_trace",
    "pad_trace",
    "obfuscate_trace",
    "inject_cover_traffic",
    "write_trace",
    "extract_windows",
    "split_dataset",
    "train_forest",
    "evaluate",
    "write_report",
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_experiment_counts_every_layer_and_uninstalls(tmp_path):
    perfbench_tracer = _load_tracer()
    originals = {name: getattr(report, name) for name in STAGES}
    planner = tracesim.segment_lengths
    total_bytes = tracesim.Trace.__dict__["total_bytes"]

    tracer = perfbench_tracer.Tracer()
    tracer.reset(1)
    tracer.install_experiment()
    try:
        tracer.call(
            "report", "report.run_experiment", report.run_experiment, CONFIG, tmp_path / "out"
        )
    finally:
        tracer.uninstall()

    counts, times = tracer.counts, tracer.name_time
    for stage in ("tracesim.synth", "tracesim.obfuscate", "tracesim.cover", "tracesim.write"):
        assert times[stage] > 0, stage
    for key in (
        "tracesim.synth_records",
        "tracesim.obfuscate_records_out",
        "tracesim.cover_records",
        "tracesim.cover_bytes",
        "tracesim.write_records",
        "segcore.plan_calls",
        "segcore.chunks",
        "tracesim.total_bytes.calls",
    ):
        assert counts[key] > 0, key
    assert len(tracer.keep["written"]) == 9  # three devices, three arms
    shape = perfbench_tracer.forest_shape(tracer.keep["forests"])
    assert shape["trees"] == 3 * CONFIG["n_trees"]
    assert shape["nodes"] > 0 and shape["features_used"] > 0

    assert {name: getattr(report, name) for name in STAGES} == originals
    assert tracesim.segment_lengths is planner
    assert tracesim.Trace.__dict__["total_bytes"] is total_bytes


def test_traced_experiment_on_trace_files_counts_every_record_read(tmp_path):
    perfbench_tracer = _load_tracer()
    paths, written = [], 0
    for i, (name, suffix) in enumerate(
        [("bulb-like", "jsonl"), ("plug-like", "jsonl"), ("doorbell-like", "csv")]
    ):
        trace = tracesim.synthesize_trace(profiles.device_profile(name), 120, i)
        paths.append(str(tmp_path / f"{name}.{suffix}"))
        tracesim.write_trace(trace, paths[-1])
        written += len(trace)
    config = {"seed": 3, "traces": paths, "n_trees": 3}

    tracer = perfbench_tracer.Tracer()
    tracer.reset(1)
    tracer.install_experiment()
    try:
        tracer.call(
            "report", "report.run_experiment", report.run_experiment, config, tmp_path / "out"
        )
    finally:
        tracer.uninstall()

    assert tracer.name_time["tracesim.ingest"] > 0
    assert tracer.counts["tracesim.ingest_records"] == written



def test_traced_loopback_send_counts_its_plan_and_uninstalls():
    perfbench_tracer = _load_tracer()
    planner = shaper.segment_message

    tracer = perfbench_tracer.Tracer()
    tracer.reset(1)
    tracer.install_shaper()
    try:
        config = profiles.segmentation_profile("rand-high")
        (stats,) = shaper.run_transfer_benchmark(50_000, config, repetitions=1)
    finally:
        tracer.uninstall()

    # One send, one plan: packets_sent is the number of chunks planned.
    assert stats.packets_sent > 1
    assert tracer.counts["segcore.plan_calls"] == 1
    assert tracer.counts["segcore.chunks"] == stats.packets_sent
    assert tracer.name_time["segcore.plan"] > 0
    assert shaper.segment_message is planner
