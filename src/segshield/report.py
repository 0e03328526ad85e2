"""Overhead arithmetic and the three-arm experiment orchestrator.

Overheads are kept as exact fractions of raw byte/microsecond counts;
percent values are rounded only when rendered. The orchestrator runs the
none / padding / segmentation comparison over identical inputs and seeds
and writes a reproducible report directory (same config in, same bytes
out).
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from pathlib import Path

from . import __version__, attackeval, profiles, tracesim
from .attackeval import Metrics, evaluate, extract_windows, split_dataset, train_forest
from .errors import NON_NEGATIVE, POSITIVE, ConfigurationError, SegShieldError, check_object, rule
from .profiles import DeviceProfile, resolve_device, resolve_segmentation
from .rng import derive_seed
from .segcore import SegmentationConfig
from .tracesim import (
    Trace,
    check_header_bytes,
    check_mtu_frame,
    check_time_overhead,
    dilate_timestamps,
    ingest_trace,
    inject_cover_traffic,
    obfuscate_trace,
    pad_trace,
    synthesize_trace,
    traces_by_device,
    window_profile,
    window_starts,
    window_us,
    write_trace,
)


def byte_overhead(w_b, d_b) -> Fraction:
    """(defended - baseline) / baseline, exact."""
    w = Fraction(w_b)
    if w <= 0:
        raise ValueError("baseline byte count must be positive")
    return (Fraction(d_b) - w) / w


def time_overhead(w_t, d_t) -> Fraction:
    """(defended - baseline) / baseline, exact; negative means speedup."""
    w = Fraction(w_t)
    if w <= 0:
        raise ValueError("baseline duration must be positive")
    return (Fraction(d_t) - w) / w


@dataclass(frozen=True)
class OverheadResult:
    """Byte and time accounting for one device under one defense arm.

    d_b includes cover bytes as transferred; the headline byte overhead
    deducts them (cover carries no real payload)."""

    w_b: int
    d_b: int
    w_t_us: int
    d_t_us: int
    cover_bytes: int = 0

    @property
    def b(self) -> Fraction:
        return byte_overhead(self.w_b, self.d_b - self.cover_bytes)

    @property
    def t(self) -> Fraction:
        if self.w_t_us == 0:
            return Fraction(0)
        return time_overhead(self.w_t_us, self.d_t_us)

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "b_exact": str(self.b),
            "b_percent": round(float(self.b) * 100, 6),
            "t_exact": str(self.t),
            "t_percent": round(float(self.t) * 100, 6),
        }


@dataclass(frozen=True)
class Report:
    config: dict
    seeds: dict
    metrics: dict[str, Metrics]
    overheads: dict[str, dict[str, OverheadResult]]

    def to_dict(self) -> dict:
        return {
            "version": __version__,
            "config": self.config,
            "seeds": self.seeds,
            "metrics": {arm: m.to_dict() for arm, m in self.metrics.items()},
            "overheads": {
                arm: {device: o.to_dict() for device, o in rows.items()}
                for arm, rows in self.overheads.items()
            },
        }


_DEVICES = (list, (lambda v: len(v) >= 2, "two or more entries"))
# The device name of each overhead table's totals row, so no device's own.
_TOTAL = "total"
_TRACES = (list, tracesim.TRACE_PATHS)
_COVER_KEYS = {"enabled": bool, "reference": str | None, "window_s": (float, tracesim.WINDOW)}


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment config, parsed and checked: values typed, presets resolved.
    Exactly one of ``devices`` and ``traces`` is non-empty. ``source`` is the
    input merged over the defaults, echoed verbatim in report.json."""

    source: dict
    segmentation: SegmentationConfig
    cover_window_s: float
    cover_reference: str | None = None
    devices: tuple[DeviceProfile, ...] = ()
    traces: tuple[str, ...] = ()
    seed: int = rule(int, NON_NEGATIVE, default=0)
    duration_s: float = rule(float, tracesim.DURATION, default=tracesim.DEFAULT_DURATION_S)
    window_s: float = rule(float, tracesim.WINDOW, default=attackeval.DEFAULT_WINDOW_S)
    vector_len: int = rule(int, POSITIVE, default=attackeval.DEFAULT_VECTOR_LEN)
    train_fraction: float = rule(
        float, attackeval.TRAIN_FRACTION, default=attackeval.DEFAULT_TRAIN_FRACTION
    )
    n_trees: int = rule(int, POSITIVE, default=attackeval.DEFAULT_N_TREES)
    max_depth: int | None = rule(int | None, POSITIVE, default=None)
    time_overhead: float = rule(float, NON_NEGATIVE, default=tracesim.DEFAULT_TIME_OVERHEAD)
    header_bytes: int = rule(int, NON_NEGATIVE, default=tracesim.DEFAULT_HEADER_BYTES)
    mtu_frame: int = rule(int, POSITIVE, default=tracesim.DEFAULT_MTU_FRAME)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Raise ConfigurationError, naming the key path, on an unknown key,
        a wrong type or an out-of-range value at any level."""
        scalars = [f for f in fields(cls) if f.metadata]
        schema = {f.name: f.metadata["check"] for f in scalars}
        schema.update(devices=_DEVICES, traces=_TRACES, segmentation=object, cover=dict)
        values = check_object(raw, "", schema)
        if ("devices" in values) == ("traces" in values):
            raise ConfigurationError("config needs exactly one of 'devices' or 'traces'")
        cover = check_object(values.pop("cover", {}), "cover", _COVER_KEYS)
        if cover.get("enabled") and cover.get("reference") is None:
            raise ConfigurationError("cover.reference: required when cover.enabled is true")
        source = {
            **{f.name: f.default for f in scalars},
            "segmentation": {"profile": profiles.DEFAULT_SEGMENTATION_PROFILE},
            **raw,
            "cover": {"enabled": False, **raw.get("cover", {})},
        }
        if "devices" in values:
            devices = [resolve_device(e, f"devices[{i}]") for i, e in enumerate(values["devices"])]
            names = [p.name for p in devices]
            if len(set(names)) < len(names):
                raise ConfigurationError(f"devices: device names repeat in {names}")
            if _TOTAL in names:
                i = names.index(_TOTAL)
                raise ConfigurationError(f"devices[{i}]: the name {_TOTAL!r} is reserved")
            values["devices"] = tuple(devices)
        else:
            values["traces"] = tuple(values["traces"])
        values["segmentation"] = resolve_segmentation(source["segmentation"])
        return cls(
            source=source,
            cover_reference=cover.get("reference") if cover.get("enabled") else None,
            cover_window_s=cover.get("window_s", values.get("window_s", cls.window_s)),
            **values,
        )


class StageError(SegShieldError):
    """A pipeline stage failed. The experiment runs one device at a time
    through every arm, the cover reference first and the rest by name, so
    the trace files already written stay on disk: every arm of each
    finished device, and the failing device's earlier arms. ``stage``
    names the step: inputs, padding, segmentation or cover (each with its
    arm's write, window cut and overhead row) or attack."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


_ARMS = ("undefended", "padded", "segmented")


def run_experiment(config: dict | str | Path, out_dir: str | Path | None = None) -> Report:
    """Run the full comparison and, when out_dir is given, write report.json,
    flat CSVs, and every intermediate trace for audit. The config is checked
    before anything runs, and the inputs before any trace is written. A
    device must fill two window_s windows as read and once time_overhead
    dilates it; cover traffic does not rescue one that fails.

    Devices go one at a time through their arms, the cover reference first
    and the rest by name. Of each defended trace only its window vectors and
    overhead row outlive the device, and of the reference's segmented trace
    its per-window byte volumes, so one device's traces are in memory at a
    time."""
    if not isinstance(config, dict):
        with open(config) as fh:
            config = json.load(fh)
    cfg = ExperimentConfig.from_dict(config)
    master = cfg.seed
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        (out / "traces").mkdir(parents=True, exist_ok=True)

    # What later stages read of each arm's traces, by arm and device.
    vectors: dict[str, dict[str, list]] = {arm: {} for arm in _ARMS}
    overheads: dict[str, dict[str, OverheadResult]] = {"padded": {}, "segmented": {}}

    def keep(trace: Trace, arm: str, baseline: tuple | None = None, cover_bytes: int = 0) -> None:
        """Write one arm's trace and keep its window vectors and, for a
        defended arm, its overhead row against the (bytes, µs) baseline."""
        if out is not None:
            write_trace(trace, out / "traces" / f"{trace.device}.{arm}.jsonl")
        vectors[arm][trace.device] = extract_windows(trace, cfg.window_s, cfg.vector_len)
        if baseline is not None:
            (w_b, w_t_us), d_b, d_t_us = baseline, trace.total_bytes, trace.duration_us
            overheads[arm][trace.device] = OverheadResult(w_b, d_b, w_t_us, d_t_us, cover_bytes)

    def defend(trace: Trace) -> None:
        """Write and keep one device's three arms; its traces die on return.
        The cover reference, which goes first, leaves its cover profile."""
        nonlocal stage, cover_profile
        device = trace.device
        stage = "inputs"
        keep(trace, "undefended")
        baseline = trace.total_bytes, trace.duration_us
        stage = "padding"
        padding_seed = derive_seed(master, "pad", device)
        keep(pad_trace(trace, cfg.mtu_frame, padding_seed), "padded", baseline)
        stage = "segmentation"
        seed = derive_seed(master, "seg", device)
        segmented = obfuscate_trace(trace, cfg.segmentation, cfg.time_overhead, seed)
        cover_bytes = 0
        if cover_profile is not None:  # None for the reference, which goes first
            stage = "cover"
            seed = derive_seed(master, "cover", device)
            result = inject_cover_traffic(segmented, cover_profile, cfg.cover_window_s, seed)
            segmented, cover_bytes = result.trace, result.cover_bytes
        keep(segmented, "segmented", baseline, cover_bytes)
        if device == cfg.cover_reference:
            # Cover injection reads only the reference's per-window byte volumes.
            cover_profile = window_profile(segmented, window_us(cfg.cover_window_s))

    stage, cover_profile = "inputs", None
    try:
        # Exactly one of cfg.traces and cfg.devices is non-empty.
        read = (ingest_trace(path, header_bytes=cfg.header_bytes) for path in cfg.traces)
        base = traces_by_device(cfg.traces, read)
        for path, device in zip(cfg.traces, base):  # base holds one device per path, in order
            if device == _TOTAL:
                raise ConfigurationError(f"traces: {path} holds device {_TOTAL!r}, a reserved name")
        for i, profile in enumerate(cfg.devices):
            base[profile.name] = synthesize_trace(
                profile,
                cfg.duration_s,
                derive_seed(master, "synth", profile.name),
                header_bytes=cfg.header_bytes,
            )
            if not len(base[profile.name]):
                raise ConfigurationError(
                    f"devices[{i}]: {profile.name!r} synthesized no records in "
                    f"{cfg.duration_s} s; raise its mean_rate or duration_s"
                )
        if cfg.cover_reference is not None and cfg.cover_reference not in base:
            raise ConfigurationError(f"cover.reference: {cfg.cover_reference!r} is not a device")
        for device in base:  # by name, so that no input outlives its turn below
            check_time_overhead(base[device], cfg.time_overhead)
            check_header_bytes(base[device])
            check_mtu_frame(base[device], cfg.mtu_frame)
            # The attack needs one window to train on and one to test, in
            # each arm; the segmented arm is counted before cover.
            undefended = base[device].timestamp_us
            segmented = dilate_timestamps(undefended, cfg.time_overhead)
            dilates = f" once time_overhead {cfg.time_overhead} dilates it"
            for timestamps, how in ((undefended, ""), (segmented, dilates)):
                windows = len(window_starts(timestamps, window_us(cfg.window_s)))
                if windows < 2:
                    raise ConfigurationError(
                        f"window_s: {cfg.window_s} cuts {device!r} into {windows} window(s)"
                        f"{how}; need >= 2"
                    )
        # The cover reference first, so that its cover profile serves the rest.
        for device in sorted(base, key=lambda d: (d != cfg.cover_reference, d)):
            defend(base.pop(device))

        stage = "attack"
        metrics: dict[str, Metrics] = {}
        for arm, by_device in vectors.items():
            joined = [vector for device in sorted(by_device) for vector in by_device[device]]
            # Split/forest seeds are shared across arms: identical inputs
            # (a no-op defense) then produce identical metric blocks.
            train, test = split_dataset(joined, cfg.train_fraction, derive_seed(master, "split"))
            model = train_forest(
                train, cfg.n_trees, cfg.max_depth, rng=derive_seed(master, "forest")
            )
            metrics[arm] = evaluate(model, test)
    except SegShieldError:
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc

    for rows in overheads.values():
        # Totals aggregate raw bytes first, then divide.
        rows[_TOTAL] = OverheadResult(
            *(sum(getattr(r, f.name) for r in rows.values()) for f in fields(OverheadResult))
        )

    seeds = {"master": master}
    report = Report(config=cfg.source, seeds=seeds, metrics=metrics, overheads=overheads)
    if out is not None:
        write_report(report, out)
    return report


def write_report(report: Report, out_dir: str | Path) -> None:
    # Rendered first, so that a report that cannot render leaves no file.
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(text)
    with open(out / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arm", "accuracy", "precision", "recall", "f1"])
        for arm, m in sorted(report.metrics.items()):
            writer.writerow([arm, m.accuracy, m.precision, m.recall, m.f1])
    with open(out / "overhead.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arm", "device", "w_b", "d_b", "cover_bytes", "b_percent", "t_percent"])
        for arm, rows in sorted(report.overheads.items()):
            for device, o in sorted(rows.items()):
                pct = o.to_dict()
                row = [o.w_b, o.d_b, o.cover_bytes, pct["b_percent"], pct["t_percent"]]
                writer.writerow([arm, device, *row])
