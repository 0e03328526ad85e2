"""Command-line front ends: segshield, shaper, tracesim, attackeval."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import profiles, shaper
from .errors import NON_NEGATIVE, POSITIVE, ConfigurationError, SegShieldError, check_value
from .profiles import resolve_device, resolve_segmentation
from .segcore import PROBABILITY
from .shaper import SocketTuning, _receive, mean_wall_time, send_seeded_payload

# The offline stack (report, attackeval, tracesim) loads numpy, so each command
# that uses it imports it itself: `shaper` starts faster and holds less memory.


def _preset_or_json(arg: str, preset_names) -> str | dict:
    """A --profile that is a preset name passes through; any other must be
    a JSON file path."""
    if arg in preset_names:
        return arg
    if not Path(arg).is_file():
        raise ConfigurationError(
            f"--profile: {arg!r} is neither a preset ({', '.join(preset_names)}) nor a file"
        )
    with open(arg) as fh:
        return json.load(fh)


def _segmentation_flags(args):
    """The config that --profile (a preset name or JSON path) and --prob name."""
    check_value(args.prob, "--prob", float | None, PROBABILITY)
    spec = _preset_or_json(args.profile, profiles.segmentation_profile_names())
    config = resolve_segmentation(spec, "--profile")
    return config if args.prob is None else replace(config, prob=args.prob)


def _dump_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _run(main) -> int:
    try:
        main()
        return 0
    except (SegShieldError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# segshield


def main_segshield(argv=None) -> int:
    from .report import run_experiment

    parser = argparse.ArgumentParser(
        prog="segshield", description="Run the full defense/attack/overhead experiment."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    exp = sub.add_parser("experiment", help="run a configured experiment")
    exp.add_argument("--config", required=True, help="experiment config (JSON)")
    exp.add_argument("--out", required=True, help="output directory for the report")
    args = parser.parse_args(argv)

    def go():
        report = run_experiment(args.config, args.out)
        for arm in sorted(report.metrics):
            print(f"{arm}: accuracy {report.metrics[arm].accuracy:.4f}")
        print(f"report written to {args.out}")

    return _run(go)


# ---------------------------------------------------------------------------
# shaper


def main_shaper(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="shaper", description="Shaped TCP transfers.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--recv-buf", type=int, default=shaper.DEFAULT_RECV_BUFFER)
    common.add_argument("--reps", type=int, default=1)
    common.add_argument("--out", default=None, help="stats JSON path (default stdout)")

    send = sub.add_parser("send", parents=[common], help="send a pseudo-random payload")
    send.add_argument("--addr", required=True, help="receiver address host:port")
    send.add_argument("--size", type=int, required=True, help="payload bytes per run")
    send.add_argument("--profile", default="rand-low", help="segmentation profile or 'none'")
    send.add_argument("--prob", type=float, default=None, help="override probability")
    send.add_argument("--send-buf", type=int, default=shaper.DEFAULT_SEND_BUFFER)
    send.add_argument("--seed", type=int, default=0)

    recv = sub.add_parser("recv", parents=[common], help="receive and digest one or more transfers")
    recv.add_argument("--port", type=int, required=True)
    recv.add_argument("--host", default="0.0.0.0")
    recv.add_argument("--timeout", type=float, default=60.0)

    args = parser.parse_args(argv)

    def go():
        # Flags are checked before any socket is opened.
        check_value(args.reps, "--reps", int, POSITIVE)
        check_value(args.recv_buf, "--recv-buf", int, shaper.BUFFER_BYTES)
        if args.command == "send":
            try:
                shaper.parse_address(args.addr)
            except ValueError as exc:
                raise ConfigurationError(f"--addr: {exc}") from None
            check_value(args.seed, "--seed", int, NON_NEGATIVE)
            check_value(args.size, "--size", int, POSITIVE)
            check_value(args.send_buf, "--send-buf", int, shaper.BUFFER_BYTES)
            if args.profile == "none" and args.prob is not None:
                raise ConfigurationError("--prob: needs a segmentation --profile, not none")
            config = None if args.profile == "none" else _segmentation_flags(args)
            tuning = SocketTuning(
                no_delay=True, send_buffer_bytes=args.send_buf, receive_buffer_bytes=args.recv_buf
            )
            runs = [
                send_seeded_payload(args.addr, args.size, config, tuning, args.seed, rep)
                for rep in range(args.reps)
            ]
            _dump_json(
                {"runs": [r.to_dict() for r in runs], "mean_wall_time": mean_wall_time(runs)},
                args.out,
            )
        else:
            check_value(args.port, "--port", int, shaper.PORT)
            check_value(args.timeout, "--timeout", float, POSITIVE)
            # One listening socket for all --reps transfers.
            runs = _receive(args.port, args.host, args.timeout, args.recv_buf, 0.0, None, args.reps)
            _dump_json({"runs": [r.to_dict() for r in runs]}, args.out)

    return _run(go)


# ---------------------------------------------------------------------------
# tracesim


def main_tracesim(argv=None) -> int:
    from . import attackeval, tracesim
    from .tracesim import (
        ingest_trace,
        inject_cover_traffic,
        obfuscate_trace,
        pad_trace,
        synthesize_trace,
        write_trace,
    )

    parser = argparse.ArgumentParser(prog="tracesim", description="Offline trace defenses.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", required=True)

    ob = sub.add_parser("obfuscate", parents=[common], help="random segmentation over a trace")
    ob.add_argument("--in", dest="infile", required=True)
    ob.add_argument("--profile", default=profiles.DEFAULT_SEGMENTATION_PROFILE)
    ob.add_argument("--prob", type=float, default=None)
    ob.add_argument("--time-overhead", type=float, default=tracesim.DEFAULT_TIME_OVERHEAD)
    ob.add_argument("--header-bytes", type=int, default=tracesim.DEFAULT_HEADER_BYTES)

    pad = sub.add_parser("pad", parents=[common], help="random-padding baseline over a trace")
    pad.add_argument("--in", dest="infile", required=True)
    pad.add_argument("--mtu-frame", type=int, default=tracesim.DEFAULT_MTU_FRAME)

    cover = sub.add_parser("cover", parents=[common], help="rate-matching cover injection")
    cover.add_argument("--target", required=True)
    cover.add_argument("--reference", required=True)
    cover.add_argument("--window", type=float, default=attackeval.DEFAULT_WINDOW_S)

    synth = sub.add_parser(
        "synth", parents=[common], help="synthesize a trace from a device profile"
    )
    synth.add_argument("--profile", required=True, help="preset name or profile JSON path")
    synth.add_argument("--duration", type=float, default=tracesim.DEFAULT_DURATION_S)

    args = parser.parse_args(argv)

    def go():
        # Flags are checked before any file is read, by the experiment config's rules.
        check_value(args.seed, "--seed", int, NON_NEGATIVE)
        if args.command == "obfuscate":
            check_value(args.time_overhead, "--time-overhead", float, NON_NEGATIVE)
            check_value(args.header_bytes, "--header-bytes", int, NON_NEGATIVE)
            config = _segmentation_flags(args)
            trace = ingest_trace(args.infile, header_bytes=args.header_bytes)
            out = obfuscate_trace(trace, config, args.time_overhead, args.seed)
            write_trace(out, args.out)
            print(f"{len(trace)} -> {len(out)} records")
        elif args.command == "pad":
            check_value(args.mtu_frame, "--mtu-frame", int, POSITIVE)
            trace = ingest_trace(args.infile)
            out = pad_trace(trace, args.mtu_frame, args.seed)
            write_trace(out, args.out)
            print(f"{trace.total_bytes} -> {out.total_bytes} bytes")
        elif args.command == "cover":
            check_value(args.window, "--window", float, tracesim.WINDOW)
            target = ingest_trace(args.target)
            reference = ingest_trace(args.reference)
            result = inject_cover_traffic(target, reference, args.window, args.seed)
            write_trace(result.trace, args.out)
            print(
                f"cover bytes {result.cover_bytes} "
                f"({result.cover_fraction * 100:.1f}% of original)"
            )
        else:
            check_value(args.duration, "--duration", float, tracesim.DURATION)
            profile = resolve_device(
                _preset_or_json(args.profile, profiles.device_profile_names()), "--profile"
            )
            trace = synthesize_trace(profile, args.duration, args.seed)
            if not len(trace):
                raise ConfigurationError(
                    f"--profile: {profile.name!r} synthesized no records in --duration "
                    f"{args.duration} s; raise its mean_rate or --duration"
                )
            write_trace(trace, args.out)
            print(f"{len(trace)} records for {profile.name}")

    return _run(go)


# ---------------------------------------------------------------------------
# attackeval


def main_attackeval(argv=None) -> int:
    from . import attackeval, tracesim
    from .attackeval import TRAIN_FRACTION, run_attack
    from .tracesim import ingest_trace, traces_by_device

    parser = argparse.ArgumentParser(
        prog="attackeval", description="Window-based device fingerprinting attack."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="train and evaluate the forest on traces")
    run.add_argument(
        "--traces", nargs="+", required=True, help="one trace file per device, two or more"
    )
    run.add_argument("--window", type=float, default=attackeval.DEFAULT_WINDOW_S)
    run.add_argument("--veclen", type=int, default=attackeval.DEFAULT_VECTOR_LEN)
    run.add_argument("--train-fraction", type=float, default=attackeval.DEFAULT_TRAIN_FRACTION)
    run.add_argument("--trees", type=int, default=attackeval.DEFAULT_N_TREES)
    run.add_argument("--max-depth", type=int, default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default=None, help="metrics JSON path (default stdout)")
    args = parser.parse_args(argv)

    def go():
        # Flags are checked before any file is read, by the experiment config's rules.
        check_value(args.window, "--window", float, tracesim.WINDOW)
        check_value(args.veclen, "--veclen", int, POSITIVE)
        check_value(args.train_fraction, "--train-fraction", float, TRAIN_FRACTION)
        check_value(args.trees, "--trees", int, POSITIVE)
        check_value(args.max_depth, "--max-depth", int | None, POSITIVE)
        check_value(args.seed, "--seed", int, NON_NEGATIVE)
        check_value(args.traces, "--traces", list, tracesim.TRACE_PATHS)
        read = (ingest_trace(path) for path in args.traces)
        traces = traces_by_device(args.traces, read, "--traces")
        metrics = run_attack(
            list(traces.values()), args.window, args.veclen, args.train_fraction, args.trees,
            args.max_depth, args.seed,
        )
        _dump_json(metrics.to_dict(), args.out)

    return _run(go)


if __name__ == "__main__":
    sys.exit(main_segshield())
