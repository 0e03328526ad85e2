"""One measured process of the benchmark: set up, run timed operations, report.

Started by run.py in a fresh interpreter so that set-up time (interpreter
start to first timed call) and peak RSS belong to this process alone. It
drives segshield only through its public functions and prints one JSON
object as its last line of output.

    python3 perfbench/child.py --kind experiment --work DIR --seconds 15 \
        --spawned-at <time.monotonic() of the parent just before spawning>
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import socket
import struct
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_EXPERIMENT_OPS = 3  # a median, and reruns whose bytes must agree
PAYLOAD_BYTES = 16 * 2**20
CHUNK_BAND = (100, 1400)  # rand-high
TCP_INFO_LEN = 256

# Offsets into Linux `struct tcp_info` (include/uapi/linux/tcp.h).
_TCPI_FIELDS = {"rtt_us": 68, "retrans": 100, "wire_segs": 156}


def tcp_info(sock: socket.socket) -> dict[str, int]:
    """Kernel counters of one socket; a field the kernel omits is left out."""
    raw = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_INFO, TCP_INFO_LEN)
    return {
        name: struct.unpack_from("I", raw, offset)[0]
        for name, offset in _TCPI_FIELDS.items()
        if len(raw) >= offset + 4
    }


def _import_package() -> float:
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    # The console scripts load segshield.cli, which pulls in every layer.
    importlib.import_module("segshield.cli")
    return time.perf_counter() - start


def _emit(payload: dict) -> None:
    payload["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(payload))


def _keep_going(started: float, seconds: float, done: int, minimum: int) -> bool:
    return done < minimum or time.perf_counter() - started < seconds


# ---------------------------------------------------------------------------
# experiment workloads


def _experiment_layers(tracer, op: dict, out: Path) -> dict:
    from tracer import forest_shape

    c, t, s = tracer.counts, tracer.name_time, tracer.layer_self
    plan_calls = c["segcore.plan_calls"]
    busy = t["segcore.plan"]
    root = next(sp for sp in reversed(tracer.spans) if sp["parent"] is None)
    layers = {
        "segcore.plan_calls": plan_calls,
        "segcore.chunks": c["segcore.chunks"],
        "segcore.segmented_ratio": c["segcore.segmented"] / plan_calls if plan_calls else 0.0,
        "segcore.busy_s": busy,
        "segcore.chunks_per_s": c["segcore.chunks"] / busy if busy else 0.0,
        "tracesim.self_s": s["tracesim"],
        "tracesim.synth_s": t["tracesim.synth"],
        "tracesim.synth_records": c["tracesim.synth_records"],
        "tracesim.ingest_s": t["tracesim.ingest"],
        "tracesim.ingest_records": c["tracesim.ingest_records"],
        "tracesim.pad_s": t["tracesim.pad"],
        "tracesim.obfuscate_s": t["tracesim.obfuscate"],
        "tracesim.obfuscate_records_out": c["tracesim.obfuscate_records_out"],
        "tracesim.cover_s": t["tracesim.cover"],
        "tracesim.cover_records": c["tracesim.cover_records"],
        "tracesim.cover_bytes": c["tracesim.cover_bytes"],
        "tracesim.write_s": t["tracesim.write"],
        "tracesim.write_records": c["tracesim.write_records"],
        "tracesim.write_bytes": sum(os.path.getsize(p) for p in tracer.keep["written"]),
        "tracesim.total_bytes_calls": c["tracesim.total_bytes.calls"],
        "tracesim.total_bytes_s": t["tracesim.total_bytes"],
        "attackeval.self_s": s["attackeval"],
        "attackeval.windows_s": t["attackeval.windows"],
        "attackeval.windows": c["attackeval.windows"],
        "attackeval.split_s": t["attackeval.split"],
        "attackeval.train_rows": c["attackeval.train_rows"],
        "attackeval.test_rows": c["attackeval.test_rows"],
        "attackeval.train_s": t["attackeval.train"],
        **{f"attackeval.{k}": v for k, v in forest_shape(tracer.keep["forests"]).items()},
        "attackeval.predict_s": t["attackeval.predict"],
        "report.self_s": root["self_s"],
        "report.write_report_s": t["report.write_report"],
        "report.cpu_s": op["cpu_s"],
        "report.output_mb": sum(f.stat().st_size for f in out.rglob("*") if f.is_file()) / 1e6,
    }
    op["accounted_s"] = sum(s.values())
    return layers


def run_experiments(args, tracer) -> dict:
    from segshield.report import run_experiment

    work = Path(args.work)
    config = json.loads((work / "config.json").read_text())
    # Trace paths in the config are relative to the work dir, so report.json
    # does not depend on where the checkout lives.
    os.chdir(work)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        return {"setup_s": setup_s, "ops": []}

    ops = []
    started = time.perf_counter()
    while _keep_going(started, args.seconds, len(ops), MIN_EXPERIMENT_OPS):
        index = len(ops)
        traced = tracer is not None and index % 2 == 1
        out = Path(f"out{index}")
        op = {"index": index, "out": str(work / out), "traced": traced}
        if traced:
            tracer.reset(index)
            tracer.install_experiment()
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            if traced:
                report = tracer.call("report", "report.run_experiment", run_experiment, config, out)
            else:
                report = run_experiment(config, out)
            op["wall_s"] = time.perf_counter() - start
            op["cpu_s"] = time.process_time() - cpu
            op["input_bytes"] = report.overheads["padded"]["total"].w_b
        except Exception:
            op["error"] = traceback.format_exc(limit=3)
        finally:
            if traced:
                tracer.uninstall()
        if traced and "error" not in op:
            op["layers"] = _experiment_layers(tracer, op, out)
        ops.append(op)
    return {"setup_s": setup_s, "ops": ops}


# ---------------------------------------------------------------------------
# loopback workload


class _Receiver:
    """run_receiver on its own thread, with that thread's CPU time."""

    def __init__(self, run_receiver, port: int, recv_buffer: int):
        self.listening = threading.Event()
        self.result = None
        self.error = None
        self.cpu_s = 0.0
        self._thread = threading.Thread(
            target=self._run, args=(run_receiver, port, recv_buffer), daemon=True
        )
        self._thread.start()

    def _run(self, run_receiver, port, recv_buffer):
        cpu = time.thread_time()
        try:
            self.result = run_receiver(
                port, recv_buffer=recv_buffer, timeout=30.0, listening=self.listening
            )
        except Exception as exc:
            self.error = f"receiver: {exc!r}"
            self.listening.set()
        self.cpu_s = time.thread_time() - cpu

    def join(self) -> bool:
        self._thread.join(timeout=60)
        return not self._thread.is_alive()


def _check_transfer(stats, plan, payload_len: int, expected: str, receiver) -> list[str]:
    problems = []
    if receiver.error:
        problems.append(receiver.error)
    elif receiver.result is None:
        problems.append("receiver returned nothing")
    elif receiver.result.checksum != expected:
        problems.append(
            f"receiver digest {receiver.result.checksum[:12]}.. != sender {expected[:12]}.."
        )
    log = stats.segment_log
    if sum(log) != payload_len:
        problems.append(f"segment_log sums to {sum(log)}, payload is {payload_len}")
    if tuple(log) != plan.lengths:
        problems.append("segment_log differs from the planned chunks")
    lo, hi = CHUNK_BAND
    bad = [n for n in log[:-1] if not lo <= n <= hi]
    if bad:
        problems.append(f"{len(bad)} non-final chunks outside [{lo}, {hi}], first {bad[0]}")
    if log and not 1 <= log[-1] <= hi:
        problems.append(f"final chunk {log[-1]} outside [1, {hi}]")
    return problems


def run_loopback(args, tracer) -> dict:
    from segshield.profiles import segmentation_profile
    from segshield.rng import derive_seed
    from segshield.shaper import SocketTuning, bound_port, open_shaped_connection, run_receiver

    config = segmentation_profile("rand-high", seed=derive_seed(args.seed, "segmentation"))
    tuning = SocketTuning()
    setup_s = payload = expected = None
    ops = []
    started = time.perf_counter()
    while _keep_going(started, args.seconds, len(ops), 1):
        index = len(ops)
        traced = tracer is not None and index % 2 == 1
        call = tracer.call if traced else _untraced
        op = {"index": index, "traced": traced}
        port = bound_port()
        receiver = _Receiver(run_receiver, port, tuning.receive_buffer_bytes)
        try:
            if not receiver.listening.wait(timeout=10) or receiver.error:
                raise RuntimeError(receiver.error or "receiver did not come up")
            if traced:
                tracer.reset(index)
                tracer.install_shaper()
            conn = call(
                "shaper", "shaper.connect", open_shaped_connection,
                ("127.0.0.1", port), config, tuning, rng=derive_seed(args.seed, "plan", index),
            )
            with conn:
                if setup_s is None:
                    setup_s = time.monotonic() - args.spawned_at
                    if args.setup_only:
                        return {"setup_s": setup_s, "ops": []}
                    payload = random.Random(derive_seed(args.seed, "payload")).randbytes(
                        PAYLOAD_BYTES
                    )
                    expected = hashlib.sha256(payload).hexdigest()
                cpu = time.thread_time()
                start = time.perf_counter()
                plan = call("shaper", "shaper.send", conn.send, payload)
                op["send_cpu_s"] = time.thread_time() - cpu
                stats = call("shaper", "shaper.drain", conn.finish)
                end = time.perf_counter()
                op.update(tcp_info(conn.socket))
        except Exception:
            op["error"] = traceback.format_exc(limit=3)
        finally:
            if traced:
                tracer.uninstall()
            if not receiver.join():
                op.setdefault("error", "receiver thread did not finish")
        if "error" not in op:
            op.update(
                wall_s=end - start,
                recv_busy_s=receiver.cpu_s,
                chunks_sent=stats.packets_sent,
                payload_bytes=len(payload),
            )
            want = "0" * 64 if args.inject == "digest-mismatch" and index == 0 else expected
            problems = _check_transfer(stats, plan, len(payload), want, receiver)
            if problems:
                op["error"] = "; ".join(problems)
            elif traced:
                op["layers"] = _loopback_layers(tracer, op)
        ops.append(op)
    return {"setup_s": setup_s, "ops": ops}


def _untraced(layer, name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _loopback_layers(tracer, op: dict) -> dict:
    c, t = tracer.counts, tracer.name_time
    busy = t["segcore.plan"]
    layers = {
        "segcore.plan_calls": c["segcore.plan_calls"],
        "segcore.chunks": c["segcore.chunks"],
        "segcore.segmented_ratio": c["segcore.segmented"] / c["segcore.plan_calls"],
        "segcore.busy_s": busy,
        "segcore.chunks_per_s": c["segcore.chunks"] / busy if busy else 0.0,
        "shaper.connect_s": t["shaper.connect"],
        "shaper.send_s": t["shaper.send"],
        "shaper.send_cpu_s": op["send_cpu_s"],
        "shaper.drain_s": t["shaper.drain"],
        "shaper.recv_busy_s": op["recv_busy_s"],
        "shaper.chunks_sent": op["chunks_sent"],
    }
    for name in ("wire_segs", "retrans", "rtt_us"):
        if name in op:
            layers[f"shaper.{name}"] = op[name]
    if "wire_segs" in op:
        layers["shaper.wire_seg_ratio"] = op["wire_segs"] / op["chunks_sent"]
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=("experiment", "loopback"), required=True)
    parser.add_argument("--work", required=True, help="work directory of this run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="JSONL file for the recorded spans")
    parser.add_argument("--inject", choices=("digest-mismatch",))
    args = parser.parse_args(argv)

    import_s = _import_package()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    run = run_experiments if args.kind == "experiment" else run_loopback
    result = run(args, tracer)
    result["import_s"] = import_s
    if tracer is not None and args.spans:
        with open(args.spans, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
