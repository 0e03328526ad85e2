"""Run the benchmark in alternating parent/change pairs and write one BENCH file.

    python3 tools/bench_pairs.py --parent ../parent --change . --pairs 10 \
        --first-seed 701 --out BENCH_20.json

The workloads and end-to-end metrics come from BENCHMARK.json beside this
script's directory. Pair i (from 1) runs a workload at seed first-seed + i - 1
on both sides: odd pairs run the parent first, even pairs the change first.
Each run is the BENCHMARK.json command with ``--workload W --seed N --seconds T
--trace 0``, started in that side's directory; the last line of its output is
its result. A run that exits non-zero, or whose last line is not JSON, is kept
with its exit code and counted as one attempted operation that failed. No run
is dropped. The file is rewritten after every run, so an interrupted run
keeps what it measured. It also records ``src_lines``, each side's count of
non-blank, non-comment lines under ``src/``.

After a workload's pairs, each side makes one more run of it at the first
seed with ``--trace 1``, parent first. These are listed under ``layer_runs``,
and ``layers`` compares their per-layer metrics (each the median over that
run's traced operations) side by side, so that a BENCH file shows where a
change's time went.

    python3 tools/bench_pairs.py --count-lines src

prints that count for one directory and exits; CI reports the same figure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SIDES = ("parent", "change")


def count_lines(directory: str | Path) -> int:
    """Lines of the ``*.py`` files under ``directory`` that count: all but the
    blank ones and those whose first non-blank character is ``#``."""
    total = 0
    for path in sorted(Path(directory).rglob("*.py")):
        for line in path.read_text().split("\n"):
            text = line.lstrip(" \t\r\f\v")
            total += bool(text) and not text.startswith("#")
    return total


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3] by linear interpolation between the sorted values."""
    ordered = sorted(values)
    last = len(ordered) - 1

    def at(q: float) -> float:
        position = q * last
        low = int(position)
        high = min(low + 1, last)
        return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

    return [at(0.25), at(0.5), at(0.75)]


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: correctness, operation counts and, for each end-to-end
    metric, both sides' quartiles, the pairs in which the change won and
    the metric's bound. ``worse_beyond_bound``: the change's median is worse
    than the parent's by more than bound x the parent's median.
    ``unresolved``: the parent's interquartile range exceeds bound x its
    median, and not every change run beats every parent run."""
    summary = {}
    for workload in sorted({run["workload"] for run in runs}):
        mine = [run for run in runs if run["workload"] == workload]
        block = {"all_correct": all(run["correct"] for run in mine)}
        for key, field in (("attempted_ops", "attempted"), ("failed_ops", "failed")):
            block[key] = {s: sum(r[field] for r in mine if r["side"] == s) for s in SIDES}
        by_pair = {(run["pair"], run["side"]): run["metrics"] for run in mine}
        for metric in end_to_end:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            values = {
                side: [m[name] for (_, s), m in by_pair.items() if s == side and name in m]
                for side in SIDES
            }
            if not all(values.values()):
                continue
            pairs = [
                (by_pair[pair, "parent"][name], by_pair[pair, "change"][name])
                for pair in sorted({run["pair"] for run in mine})
                if name in by_pair.get((pair, "parent"), {})
                and name in by_pair.get((pair, "change"), {})
            ]
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            bound = metric["bound"]
            beats_every_run = min(sign * c for c in values["change"]) > max(
                sign * p for p in values["parent"]
            )
            block[name] = {
                "parent_q1_median_q3": [round(v, 6) for v in parent],
                "change_q1_median_q3": [round(v, 6) for v in change],
                "median_change_over_parent": round((change[1] - parent[1]) / parent[1], 4),
                "change_better_pairs": sum(sign * (c - p) > 0 for p, c in pairs),
                "pairs": len(pairs),
                "bound": bound,
                "worse_beyond_bound": sign * (parent[1] - change[1]) > bound * abs(parent[1]),
                "unresolved": parent[2] - parent[0] > bound * abs(parent[1]) and not beats_every_run,
            }
        summary[workload] = block
    return summary


def summarize_layers(runs: list[dict], per_layer: list[dict]) -> dict:
    """Per workload: for each per-layer metric of BENCHMARK.json that both
    sides' traced runs measured, each side's value and the change's over the
    parent's (None where the parent's is 0). A metric both sides read as 0,
    a layer the workload does not reach, is left out."""
    summary = {}
    for workload in sorted({run["workload"] for run in runs}):
        sides = {run["side"]: run["metrics"] for run in runs if run["workload"] == workload}
        parent, change = (sides.get(side, {}) for side in SIDES)
        block = {}
        for name in (metric["name"] for metric in per_layer):
            if name not in parent or name not in change or parent[name] == change[name] == 0:
                continue
            before, after = parent[name], change[name]
            block[name] = {
                "parent": before,
                "change": after,
                "change_over_parent": round((after - before) / before, 4) if before else None,
            }
        summary[workload] = block
    return summary


def run_once(
    directory: str, command: list[str], workload: str, seed: int, seconds: float, trace: int = 0
):
    """One benchmark run in ``directory``: (exit code, parsed result or None,
    last line of output)."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}"]
    done = subprocess.run(
        [*args, "--trace", str(trace)], cwd=directory, capture_output=True, text=True, check=False
    )
    lines = done.stdout.strip().splitlines()
    last = lines[-1] if lines else done.stderr.strip()[-500:]
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    if done.returncode != 0 or not isinstance(result, dict):
        result = None
    return done.returncode, result, last


def record(workload, pair, seed, side, ran, code, result, last) -> dict:
    """One run as BENCH files list it; a failed run keeps its last line."""
    run = {"workload": workload, "pair": pair, "seed": seed, "side": side, "ran": ran}
    run["exit_code"] = code
    if result is None:
        run.update(correct=False, attempted=1, failed=1, metrics={}, last_line=last)
    else:
        run.update(
            correct=result.get("correct") is True,
            attempted=result.get("attempted", 0),
            failed=result.get("failed", 0),
            metrics={name: m["value"] for name, m in result.get("metrics", {}).items()},
        )
    return run


def main(argv: list[str] | None = None) -> int:
    bench = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count-lines", metavar="DIR", help="print DIR's line count and exit")
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--first-seed", type=int)
    parser.add_argument("--seconds", type=float, default=bench.get("run_seconds", 25))
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--out", help="the BENCH json file to write")
    args = parser.parse_args(argv)
    if args.count_lines is not None:
        print(count_lines(args.count_lines))
        return 0
    needed = ("parent", "change", "pairs", "first_seed", "out")
    missing = [f"--{name.replace('_', '-')}" for name in needed if getattr(args, name) is None]
    if missing:
        parser.error(f"the following arguments are required: {', '.join(missing)}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    directories = {"parent": args.parent, "change": args.change}
    last_seed = args.first_seed + args.pairs - 1
    command = " ".join(bench["command"])
    numpy = metadata.version("numpy")
    doc = {
        "command": f"{command} --workload <workload> --seed <{args.first_seed - 1} + pair> "
        f"--seconds {args.seconds:g} --trace 0",
        "protocol": f"alternating pairs, same seed per pair (seeds {args.first_seed}-{last_seed}); "
        "odd pairs run the parent first, even pairs the change first; "
        f"{args.seconds:g} s runs; parent and change each run from their own directory; "
        "quartiles by linear interpolation; after each workload's pairs, one --trace 1 run "
        f"per side at seed {args.first_seed}, parent first, for layers; every run made is listed",
        "machine": f"{os.cpu_count()} CPUs, {platform.system()}, "
        f"Python {platform.python_version()}, numpy {numpy}",
        "claim": None,
        "src_lines": {side: count_lines(Path(directories[side]) / "src") for side in SIDES},
        "runs": [],
        "summary": {},
        "layer_runs": [],
        "layers": {},
    }

    def save():
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    for workload in args.workloads:
        for pair in range(1, args.pairs + 1):
            seed = args.first_seed + pair - 1
            order = SIDES if pair % 2 else SIDES[::-1]
            for ran, side in zip(("first", "second"), order):
                directory = directories[side]
                outcome = run_once(directory, bench["command"], workload, seed, args.seconds)
                run = record(workload, pair, seed, side, ran, *outcome)
                doc["runs"].append(run)
                doc["summary"] = summarize(doc["runs"], bench["end_to_end"])
                save()
                print(f"{workload} pair {pair} {side}: exit {run['exit_code']}, "
                      f"correct {run['correct']}, {run['metrics']}", file=sys.stderr)
        for side in SIDES:
            outcome = run_once(
                directories[side], bench["command"], workload, args.first_seed, args.seconds, 1
            )
            run = record(workload, 0, args.first_seed, side, "traced", *outcome)
            doc["layer_runs"].append(run)
            doc["layers"] = summarize_layers(doc["layer_runs"], bench["per_layer"])
            save()
            print(f"{workload} traced {side}: exit {run['exit_code']}, "
                  f"correct {run['correct']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
