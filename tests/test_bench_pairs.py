"""The summary that tools/bench_pairs.py writes into a BENCH file, checked on
hand-made runs; no benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

END_TO_END = [
    {"name": "op_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "throughput_mib_s", "unit": "MiB/s", "better": "higher", "bound": 0.25},
]


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_script()


def result(op_s, throughput, attempted=3):
    """The last line of a perfbench run, parsed."""
    return {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {
            "op_s_p50": {"value": op_s, "unit": "s"},
            "throughput_mib_s": {"value": throughput, "unit": "MiB/s"},
        },
    }


def paired_runs(parent, change):
    """Runs of workload "w", pair i from the i-th (op_s, throughput) of each side."""
    runs = []
    for pair, sides in enumerate(zip(parent, change), start=1):
        for side, values in zip(("parent", "change"), sides):
            run = bench_pairs.record("w", pair, 100 + pair, side, "first", 0, result(*values), "")
            runs.append(run)
    return runs


@pytest.mark.parametrize(
    "values,expected",
    [
        ([3.0, 1.0, 2.0, 5.0, 4.0], [2.0, 3.0, 4.0]),
        ([4.0, 1.0, 3.0, 2.0], [1.75, 2.5, 3.25]),
        ([7.0], [7.0, 7.0, 7.0]),
    ],
)
def test_quartiles_interpolate_linearly(values, expected):
    assert bench_pairs.quartiles(values) == pytest.approx(expected)


def test_summary_counts_wins_by_each_metrics_direction():
    parent = [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
    # Pair 2 ties on both metrics; pair 3 is worse on time, better on throughput.
    change = [(0.5, 11.0), (2.0, 20.0), (3.5, 31.0), (3.0, 41.0)]
    summary = bench_pairs.summarize(paired_runs(parent, change), END_TO_END)
    block = summary["w"]
    assert block["all_correct"] is True
    assert block["attempted_ops"] == {"parent": 12, "change": 12}
    assert block["failed_ops"] == {"parent": 0, "change": 0}
    op_s = block["op_s_p50"]
    assert op_s["parent_q1_median_q3"] == [1.75, 2.5, 3.25]
    assert op_s["change_q1_median_q3"] == [1.625, 2.5, 3.125]
    assert op_s["median_change_over_parent"] == 0.0
    assert (op_s["change_better_pairs"], op_s["pairs"]) == (2, 4)
    throughput = block["throughput_mib_s"]
    assert throughput["change_q1_median_q3"] == [17.75, 25.5, 33.5]
    assert throughput["median_change_over_parent"] == round(25.5 / 25 - 1, 4)
    assert (throughput["change_better_pairs"], throughput["pairs"]) == (3, 4)


def test_failed_run_is_kept_and_counted():
    runs = paired_runs([(1.0, 10.0), (2.0, 20.0)], [(0.5, 11.0), (2.5, 19.0)])
    failed = bench_pairs.record("w", 3, 103, "change", "second", 1, None, "Traceback")
    runs += [bench_pairs.record("w", 3, 103, "parent", "first", 0, result(3.0, 30.0), ""), failed]
    assert failed["exit_code"] == 1 and failed["last_line"] == "Traceback"
    assert (failed["correct"], failed["attempted"], failed["failed"]) == (False, 1, 1)

    block = bench_pairs.summarize(runs, END_TO_END)["w"]
    assert block["all_correct"] is False
    assert block["attempted_ops"] == {"parent": 9, "change": 7}
    assert block["failed_ops"] == {"parent": 0, "change": 1}
    # The failed run's pair is left out of the comparison, and its parent
    # run still counts among the parent's values.
    op_s = block["op_s_p50"]
    assert op_s["parent_q1_median_q3"] == [1.5, 2.0, 2.5]
    assert op_s["change_q1_median_q3"] == [1.0, 1.5, 2.0]
    assert (op_s["change_better_pairs"], op_s["pairs"]) == (1, 2)


def test_bound_is_copied_and_a_change_worse_beyond_it_is_flagged():
    parent = [(1.0, 10.0)] * 4
    # Time: median 1.3 s is 30 % worse (bound 25 %). Throughput: 8.0 is 20 % worse.
    change = [(1.3, 8.0)] * 4
    block = bench_pairs.summarize(paired_runs(parent, change), END_TO_END)["w"]
    assert block["op_s_p50"]["bound"] == 0.25
    assert block["op_s_p50"]["worse_beyond_bound"] is True
    assert block["throughput_mib_s"]["worse_beyond_bound"] is False
    # The same distances the other way round are gains, never flagged.
    block = bench_pairs.summarize(paired_runs(change, parent), END_TO_END)["w"]
    assert block["op_s_p50"]["worse_beyond_bound"] is False
    assert block["throughput_mib_s"]["worse_beyond_bound"] is False


def test_higher_is_better_metric_worse_beyond_its_bound_is_flagged():
    parent = [(1.0, 10.0)] * 3
    change = [(1.0, 7.0)] * 3
    block = bench_pairs.summarize(paired_runs(parent, change), END_TO_END)["w"]
    assert block["throughput_mib_s"]["worse_beyond_bound"] is True
    assert block["op_s_p50"]["worse_beyond_bound"] is False


def test_parent_spread_beyond_the_bound_is_unresolved_unless_every_run_wins():
    # Parent op_s quartiles 1.0, 1.5, 2.0: an interquartile range of 2/3 of the median.
    parent = [(0.5, 10.0), (1.0, 10.0), (1.5, 10.0), (2.0, 10.0), (2.5, 10.0)]
    overlapping = [(0.4, 10.0), (1.1, 10.0), (1.4, 10.0), (2.1, 10.0), (2.4, 10.0)]
    block = bench_pairs.summarize(paired_runs(parent, overlapping), END_TO_END)["w"]
    assert block["op_s_p50"]["unresolved"] is True
    # Throughput has no spread at all on the parent.
    assert block["throughput_mib_s"]["unresolved"] is False
    # Every change run is faster than every parent run: resolved despite the spread.
    faster = [(0.1, 10.0), (0.2, 10.0), (0.3, 10.0), (0.4, 10.0), (0.45, 10.0)]
    block = bench_pairs.summarize(paired_runs(parent, faster), END_TO_END)["w"]
    assert block["op_s_p50"]["unresolved"] is False


def test_count_lines_skips_blank_and_comment_lines_only(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(
        '"""A docstring\n\nspans lines."""\n'  # 2 docstring lines count, the blank one not
        "\n"
        "   \t \n"
        "# a comment\n"
        "    # an indented comment\n"
        "x = 1  # code with a comment\n"
        "def f():\n"
        "    return '#'\n"
    )
    (tmp_path / "b.py").write_text("y = 2\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert bench_pairs.count_lines(tmp_path) == 6
    assert bench_pairs.main(["--count-lines", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "6\n"


def test_layer_summary_compares_each_measured_layer_side_by_side():
    per_layer = [
        {"name": "segcore.busy_s", "unit": "s", "better": "lower"},
        {"name": "tracesim.pad_s", "unit": "s", "better": "lower"},
        {"name": "shaper.send_s", "unit": "s", "better": "lower"},
        {"name": "segcore.chunks", "unit": "count", "better": "higher"},
        {"name": "tracesim.cover_s", "unit": "s", "better": "lower"},
    ]

    def traced(workload, side, values):
        """A --trace 1 run's record with these per-layer values."""
        metrics = {name: {"value": value, "unit": "s"} for name, value in values.items()}
        outcome = {"correct": True, "attempted": 4, "failed": 0, "metrics": metrics}
        return bench_pairs.record(workload, 0, 101, side, "traced", 0, outcome, "")

    exp_parent = {"segcore.busy_s": 0.2, "tracesim.pad_s": 0.0, "shaper.send_s": 0.0,
                  "segcore.chunks": 100, "tracesim.cover_s": 0.5}
    exp_change = {"segcore.busy_s": 0.15, "tracesim.pad_s": 0.01, "shaper.send_s": 0.0,
                  "segcore.chunks": 100}
    runs = [
        traced("exp", "parent", exp_parent),
        traced("exp", "change", exp_change),
        traced("loop", "parent", {"segcore.busy_s": 0.01}),
        # The change's traced run of "loop" failed: nothing to compare.
        bench_pairs.record("loop", 0, 101, "change", "traced", 1, None, "Traceback"),
    ]
    layers = bench_pairs.summarize_layers(runs, per_layer)
    assert layers == {
        "exp": {
            "segcore.busy_s": {"parent": 0.2, "change": 0.15, "change_over_parent": -0.25},
            # A parent value of 0 has no ratio.
            "tracesim.pad_s": {"parent": 0.0, "change": 0.01, "change_over_parent": None},
            "segcore.chunks": {"parent": 100, "change": 100, "change_over_parent": 0.0},
            # shaper.send_s reads 0 on both sides; cover_s only on one.
        },
        "loop": {},
    }
