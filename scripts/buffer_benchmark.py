#!/usr/bin/env python3
"""Loopback wall-time sweep over sender socket buffer sizes.

Each transfer pushes a pseudo-random payload through a shaped connection to
a bursty consumer (drain the backlog, stall, repeat). The stalls apply the
backpressure that loopback otherwise lacks, so the sender's SO_SNDBUF
setting shows up in wall time the way it would on a real link.
"""

import argparse
import json
import statistics
import sys

from segshield import shaper
from segshield.profiles import segmentation_profile
from segshield.shaper import SocketTuning, mean_wall_time, run_transfer_benchmark


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=4 * 1024 * 1024, help="payload bytes per run")
    parser.add_argument("--reps", type=int, default=12, help="runs per configuration")
    parser.add_argument(
        "--buffers",
        type=int,
        nargs="+",
        default=[shaper.DEFAULT_SEND_BUFFER // 2, shaper.DEFAULT_SEND_BUFFER],
        help="sender SO_SNDBUF values to sweep",
    )
    parser.add_argument(
        "--profiles",
        nargs="+",
        default=["rand-low", "rand-high"],
        help="segmentation presets to benchmark ('none' for unshaped)",
    )
    parser.add_argument("--pause", type=float, default=0.003, help="consumer stall seconds")
    parser.add_argument("--recv-buf", type=int, default=2**14, help="consumer SO_RCVBUF")
    parser.add_argument("--seed", type=int, default=10, help="payload and plan seed")
    parser.add_argument("--json", default=None, help="write results to this JSON file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sender_rcvbuf = max(2 * max(args.buffers), shaper.DEFAULT_RECV_BUFFER)
    results = []
    print(f"{'profile':>10}  {'sndbuf':>8}  {'mean':>9}  {'stdev':>8}  {'min':>9}  {'max':>9}")
    for name in args.profiles:
        config = None if name == "none" else segmentation_profile(name)
        for buf in args.buffers:
            tuning = SocketTuning(
                no_delay=True, send_buffer_bytes=buf, receive_buffer_bytes=sender_rcvbuf
            )
            runs = run_transfer_benchmark(
                args.size,
                config,
                tuning=tuning,
                repetitions=args.reps,
                seed=args.seed,
                receiver_recv_buffer=args.recv_buf,
                receiver_pause_s=args.pause,
            )
            walls = [r.wall_time for r in runs]
            spread = statistics.stdev(walls) if len(walls) > 1 else 0.0
            results.append(
                {
                    "profile": name,
                    "send_buffer": buf,
                    "mean_wall_s": mean_wall_time(runs),
                    "stdev_s": spread,
                    "min_s": min(walls),
                    "max_s": max(walls),
                }
            )
            row = results[-1]
            print(
                f"{name:>10}  {buf:>8}  {row['mean_wall_s'] * 1e3:>7.1f}ms"
                f"  {spread * 1e3:>6.1f}ms  {min(walls) * 1e3:>7.1f}ms  {max(walls) * 1e3:>7.1f}ms"
            )

    if args.json:
        payload = {
            "size": args.size,
            "reps": args.reps,
            "pause_s": args.pause,
            "receiver_recv_buffer": args.recv_buf,
            "rows": results,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
