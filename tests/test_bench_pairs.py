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
