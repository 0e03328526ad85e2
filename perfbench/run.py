"""segshield benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload exp-pair --seed 0 --seconds 15 --trace 0

Workloads (closed loop, one client, one operation at a time):

  exp-pair            run_experiment over two recorded 3600 s traces (bulb-like,
                      plug-like) written as JSONL from the seed; forest-bound,
                      and the only workload on the trace read path.
  exp-cover4          run_experiment synthesizing four devices for 900 s with
                      low-bandwidth segmentation and cover traffic (reference
                      camera-like); trace write, cover and obfuscate bound.
  loopback-rand-high  sequential 16 MiB shaped transfers with rand-high to a
                      run_receiver thread; shaper and planner bound.

Each run starts several fresh interpreters that only set up (their median is
`setup_s`), then one interpreter that repeats the workload's operation for
--seconds. Outputs are checked: experiment outputs against golden digests at
the golden seed, and at every seed against each other and against payload
and record-count invariants; loopback transfers by digest and chunk bounds.
A failed check counts the operation as failed and prints why.

--trace 0 prints the end-to-end metrics listed in BENCHMARK.json; --trace 1
alternates untraced and traced operations and prints the per-layer metrics.
The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 0
SETUP_ONLY_RUNS = 10
CHILD_TIMEOUT_S = 170
MIB = 2**20

EXPERIMENTS = {
    "exp-pair": {"recorded": ["bulb-like", "plug-like"], "duration_s": 3600.0},
    "exp-cover4": {
        "devices": ["bulb-like", "plug-like", "camera-like", "doorbell-like"],
        "duration_s": 450.0,
        "segmentation": "low-bandwidth",
        "cover": {"enabled": True, "reference": "camera-like"},
    },
}
WORKLOADS = [*EXPERIMENTS, "loopback-rand-high"]


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# set-up of inputs


def prepare_experiment(workload: str, seed: int, work: Path) -> None:
    """Write config.json (and, for recorded traces, the JSONL inputs)."""
    spec = dict(EXPERIMENTS[workload])
    config = {"seed": seed}
    recorded = spec.pop("recorded", None)
    if recorded:
        from segshield.profiles import device_profile
        from segshield.rng import derive_seed
        from segshield.tracesim import synthesize_trace, write_trace

        (work / "inputs").mkdir()
        config["traces"] = []
        for name in recorded:
            trace = synthesize_trace(
                device_profile(name), spec["duration_s"], derive_seed(seed, "bench-input", name)
            )
            path = f"inputs/{name}.jsonl"
            write_trace(trace, work / path)
            config["traces"].append(path)
        spec.pop("duration_s")
    config.update(spec)
    (work / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# children


def spawn(
    kind: str, work: Path, args, setup_only: bool, spans: Path | None
) -> tuple[dict | None, str]:
    """Run child.py to completion; return its JSON result or an error text."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--kind", kind, "--work", str(work), "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if setup_only:
        command.append("--setup-only")
    if args.trace and not setup_only:
        command += ["--trace", "--spans", str(spans)]
    if args.inject == "digest-mismatch" and kind == "loopback":
        command += ["--inject", "digest-mismatch"]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [*command, "--spawned-at", repr(spawned_at)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {CHILD_TIMEOUT_S}s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError as exc:
        return None, f"child printed no result ({exc}): {lines[-1][:200]}"


# ---------------------------------------------------------------------------
# output checks


def digest_tree(out: Path) -> tuple[dict[str, str], dict[str, tuple[int, int]]]:
    """sha256 of every file under out, plus (lines, covered records) per file."""
    digests, counts = {}, {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        sha = hashlib.sha256()
        lines = covered = 0
        tail = b""
        with open(path, "rb") as fh:
            while block := fh.read(MIB):
                sha.update(block)
                text = tail + block
                cut = text.rfind(b"\n") + 1
                lines += text.count(b"\n", 0, cut)
                covered += text.count(b'"covered": true', 0, cut)
                tail = text[cut:]
        rel = path.relative_to(out).as_posix()
        digests[rel] = sha.hexdigest()
        counts[rel] = (lines, covered)
    return digests, counts


def check_invariants(out: Path, counts: dict) -> tuple[list[str], float]:
    """Payload conservation and padded record counts, from report.json and
    the trace files. Returns problems and observed frames per MiB of payload."""
    report = json.loads((out / "report.json").read_text())
    header = report["config"]["header_bytes"]
    problems = []
    frames = payload = 0
    for device, row in report["overheads"]["segmented"].items():
        if device == "total":
            continue
        undefended = counts[f"traces/{device}.undefended.jsonl"][0]
        padded = counts[f"traces/{device}.padded.jsonl"][0]
        seg_lines, seg_cover = counts[f"traces/{device}.segmented.jsonl"]
        want = row["w_b"] - undefended * header
        got = row["d_b"] - row["cover_bytes"] - (seg_lines - seg_cover) * header
        if got != want:
            problems.append(f"{device}: segmented payload {got} B != undefended {want} B")
        if padded != undefended:
            problems.append(f"{device}: padded arm has {padded} records, undefended {undefended}")
        frames += seg_lines - seg_cover
        payload += want
    return problems, frames / (payload / MIB)


def _differing(a: dict, b: dict) -> str:
    return ", ".join(sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k)))


def check_experiment_ops(ops: list[dict], workload: str, args) -> None:
    """Hash each call's outputs, check them, mark failed ops, delete the outputs."""
    golden = None
    if args.seed == GOLDEN_SEED and GOLDEN.is_file() and not args.write_golden:
        golden = json.loads(GOLDEN.read_text()).get(workload)
        if golden and args.inject == "corrupt-golden":
            name = "report.json"
            golden[name] = ("0" if golden[name][0] != "0" else "1") + golden[name][1:]
    reference = None
    for op in ops:
        if "error" in op:
            continue
        out = Path(op["out"])
        digests, counts = digest_tree(out)
        if args.inject == "digest-mismatch" and op["index"] == 1:
            digests["report.json"] = "0" * 64
        op["output_mb"] = sum((out / rel).stat().st_size for rel in digests) / 1e6
        problems, op["frames_per_mib"] = check_invariants(out, counts)
        if golden is not None and digests != golden:
            problems.append(
                f"differs from golden seed-{GOLDEN_SEED} digests: {_differing(golden, digests)}"
            )
        if reference is None:
            reference = digests
        elif digests != reference:
            problems.append(
                f"rerun differs from the first call in: {_differing(reference, digests)}"
            )
        if problems:
            op["error"] = "; ".join(problems)
        op["digests"] = digests
        shutil.rmtree(out)


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it: (pct, value).
    None when that percentile would not lie above the median."""
    n = len(values)
    k = n - 11
    if 2 * (k + 1) <= n:
        return None
    return 100.0 * (k + 1) / n, sorted(values)[k]


def end_to_end(kind: str, child: dict, setups: list[float], ops: list[dict]) -> dict:
    timed = [op for op in ops if "wall_s" in op]
    walls = [op["wall_s"] for op in timed]
    if kind == "experiment":
        moved = sum(op["input_bytes"] for op in timed)
        frames = [op["frames_per_mib"] for op in timed if "frames_per_mib" in op]
    else:
        moved = sum(op["payload_bytes"] for op in timed)
        frames = [
            op["wire_segs"] / (op["payload_bytes"] / MIB) for op in timed if "wire_segs" in op
        ]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(walls),
        "throughput_mib_s": moved / sum(walls) / MIB,
        "peak_rss_mb": child["peak_rss_kb"] * 1024 / 1e6,
    }
    if frames:
        metrics["wire_frames_per_mib"] = statistics.median(frames)
    return metrics


# Layers each kind of workload reaches; per-layer metrics of the others read 0.
LAYERS = {
    "experiment": ("segcore", "tracesim", "attackeval", "report"),
    "loopback": ("segcore", "shaper"),
}


def per_layer(kind: str, names: list[str], children: list[dict], ops: list[dict]) -> dict:
    traced = [op for op in ops if op.get("layers")]
    plain = [op["wall_s"] for op in ops if "wall_s" in op and not op["traced"]]
    metrics = {
        "cli.import_s": statistics.median(c["import_s"] for c in children),
        "trace.overhead_s": statistics.median(op["wall_s"] for op in traced)
        - statistics.median(plain),
    }
    for name in names:
        if name in metrics:
            continue
        if name.split(".")[0] not in LAYERS[kind]:
            metrics[name] = 0.0
            continue
        values = [op["layers"][name] for op in traced if name in op["layers"]]
        if values:  # a kernel counter the socket does not give stays missing
            metrics[name] = statistics.median(values)
    return metrics


def summary_lines(kind: str, ops: list[dict], attempted: int, failed: int) -> list[str]:
    """Issue-named end-to-end figures that only some workloads have."""
    walls = [op["wall_s"] for op in ops if "wall_s" in op and not op["traced"]]
    lines = [f"error_rate {failed / attempted:.4f} ({failed} of {attempted} operations failed)"]
    if not walls:
        return lines
    if kind == "experiment":
        each = ", ".join(f"{w:.3f}" for w in walls)
        lines.append(f"experiment_s {statistics.median(walls):.4f} s (median of {each})")
        sizes = [op["output_mb"] for op in ops if "output_mb" in op]
        if sizes:
            lines.append(f"output_mb {statistics.median(sizes):.3f} MB")
        for op in ops:
            if op.get("layers"):
                lines.append(
                    f"op {op['index']}: layer self times account for "
                    f"{op['accounted_s']:.4f} s of {op['wall_s']:.4f} s wall"
                )
    else:
        ms = [w * 1e3 for w in walls]
        lines.append(f"transfer_ms_p50 {statistics.median(ms):.3f} ms (n={len(ms)})")
        high = tail(ms)
        lines.append(
            f"transfer_ms_tail {high[1]:.3f} ms at p{high[0]:.1f} (n={len(ms)})"
            if high else f"transfer_ms_tail n/a: {len(ms)} transfers are too few"
        )
        timed = [op for op in ops if "wall_s" in op]
        goodput = sum(op["payload_bytes"] for op in timed) / sum(op["wall_s"] for op in timed) / MIB
        lines.append(f"goodput_mib_s {goodput:.3f} MiB/s")
        ratios = [op["wire_segs"] / op["chunks_sent"] for op in timed if "wire_segs" in op]
        lines.append(
            f"wire_seg_ratio {statistics.median(ratios):.4f} (median of {len(ratios)})"
            if ratios else "wire_seg_ratio missing: kernel gives no tcpi_data_segs_out"
        )
    return lines


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="segshield benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject", choices=("corrupt-golden", "digest-mismatch"),
        help="force a failed check, to test the failure accounting",
    )
    parser.add_argument(
        "--write-golden", action="store_true",
        help=f"store the first operation's digests as the seed-{GOLDEN_SEED} golden",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "segshield" / "__init__.py").is_file():
        return _fail(f"no segshield sources under {ROOT / 'src'}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    kind = "experiment" if args.workload in EXPERIMENTS else "loopback"
    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    spans.parent.mkdir(exist_ok=True)
    try:
        if kind == "experiment":
            prepare_experiment(args.workload, args.seed, work)
        setups, children, messages = [], [], []

        def set_up_only() -> None:
            child, error = spawn(kind, work, args, True, None)
            if child is None:
                messages.append(f"set-up: {error}")
            elif child["setup_s"] is not None:
                setups.append(child["setup_s"])
                children.append(child)

        # Half the set-ups run before the measured process and half after, so
        # their median spans the run rather than one moment of a host whose
        # speed drifts.
        for _ in range(SETUP_ONLY_RUNS // 2):
            set_up_only()
        measured, error = spawn(kind, work, args, False, spans)
        for _ in range(SETUP_ONLY_RUNS - SETUP_ONLY_RUNS // 2):
            set_up_only()
        if measured is None:
            messages.append(f"measured run: {error}")
            ops = [{"index": 0, "traced": False, "error": error}]
        else:
            ops = measured["ops"]
            children.append(measured)
            if measured["setup_s"] is not None:
                setups.append(measured["setup_s"])
            if kind == "experiment":
                check_experiment_ops(ops, args.workload, args)
        if args.write_golden:
            if args.seed != GOLDEN_SEED or "digests" not in ops[0]:
                return _fail(f"--write-golden needs a clean run at seed {GOLDEN_SEED}")
            golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
            golden[args.workload] = ops[0]["digests"]
            GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(ops)
    failed = sum("error" in op for op in ops)
    for op in ops:
        if "error" in op:
            messages.append(f"op {op['index']} failed: {op['error'].strip()}")
    correct = failed == 0 and not messages and bool(setups)

    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        traced = any(op.get("layers") for op in ops) and any(
            "wall_s" in op and not op["traced"] for op in ops
        )
        metrics = per_layer(kind, names, children, ops) if traced else {}
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        timed = setups and any("wall_s" in op for op in ops)
        metrics = end_to_end(kind, measured, setups, ops) if timed else {}
    missing = [name for name in units if name not in metrics]
    if missing:
        messages.append(f"not measured on this system: {', '.join(missing)}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {len(setups)} set-ups")
    for line in messages:
        print(f"FAILED {line}")
    for line in summary_lines(kind, ops, attempted, failed):
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
