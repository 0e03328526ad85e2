#!/usr/bin/env python3
"""Desk-scale defense evaluation over synthetic device traces.

For each seed, run the library's three-arm experiment (no output
directory) and report the attack's accuracy on the raw and the segmented
traces, plus the segmentation byte overhead. Prints a per-seed table;
optionally dumps the numbers as JSON.
"""

import argparse
import json
import sys

from segshield.profiles import DEFAULT_SEGMENTATION_PROFILE
from segshield.report import run_experiment

# Flags whose destination is an experiment config key of the same name; left
# unset, they stay out of the config and the experiment defaults apply.
CONFIG_KEYS = ("duration_s", "time_overhead", "window_s", "vector_len", "n_trees")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, argument_default=argparse.SUPPRESS)
    parser.add_argument(
        "--devices",
        nargs=2,
        default=["bulb-like", "plug-like"],
        metavar=("A", "B"),
        help="device profile presets to confuse (default: bulb-like plug-like)",
    )
    parser.add_argument(
        "--profile", default=DEFAULT_SEGMENTATION_PROFILE, help="segmentation preset"
    )
    parser.add_argument("--prob", type=float, default=None, help="override segmentation probability")
    parser.add_argument("--duration", dest="duration_s", type=float, help="trace length in seconds")
    parser.add_argument("--time-overhead", type=float, help="timestamp dilation factor")
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds to sweep")
    parser.add_argument("--window", dest="window_s", type=float, help="feature window in seconds")
    parser.add_argument("--veclen", dest="vector_len", type=int, help="feature vector length")
    parser.add_argument("--trees", dest="n_trees", type=int, help="forest size")
    parser.add_argument("--json", default=None, help="write results to this JSON file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    shared = {key: value for key, value in vars(args).items() if key in CONFIG_KEYS}
    segmentation = {"profile": args.profile, "prob": args.prob}
    rows = []
    print(f"{'seed':>4}  {'undefended':>10}  {'defended':>8}  {'gap':>6}  {'overhead':>8}")
    for seed in range(args.seeds):
        config = {**shared, "seed": seed, "devices": args.devices, "segmentation": segmentation}
        report = run_experiment(config)
        before = report.metrics["undefended"].accuracy
        after = report.metrics["segmented"].accuracy
        cost = float(report.overheads["segmented"]["total"].b)
        rows.append(
            {
                "seed": seed,
                "undefended_accuracy": before,
                "defended_accuracy": after,
                "byte_overhead": cost,
            }
        )
        print(
            f"{seed:>4}  {before:>10.3f}  {after:>8.3f}  {before - after:>+6.3f}"
            f"  {cost * 100:>7.1f}%"
        )

    mean_before = sum(r["undefended_accuracy"] for r in rows) / len(rows)
    mean_after = sum(r["defended_accuracy"] for r in rows) / len(rows)
    print(f"mean  {mean_before:>10.3f}  {mean_after:>8.3f}  {mean_before - mean_after:>+6.3f}")

    if args.json:
        payload = {
            "devices": args.devices,
            "profile": args.profile,
            "duration_s": report.config["duration_s"],
            "rows": rows,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
