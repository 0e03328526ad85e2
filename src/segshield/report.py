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
import random
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from pathlib import Path

from . import __version__, attackeval, profiles, tracesim
from .attackeval import Metrics, evaluate, extract_windows, split_dataset, train_forest
from .errors import ConfigurationError, SegShieldError
from .profiles import NON_NEGATIVE, POSITIVE, check_object, resolve_device, resolve_segmentation
from .rng import derive_seed
from .segcore import SegmentationConfig
from .tracesim import (
    DeviceProfile,
    Trace,
    ingest_trace,
    inject_cover_traffic,
    obfuscate_trace,
    pad_trace,
    synthesize_trace,
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
    def b_with_cover(self) -> Fraction:
        return byte_overhead(self.w_b, self.d_b)

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
_TRACES = (
    list,
    (lambda v: len(v) >= 2 and all(isinstance(p, str) for p in v), "two or more path strings"),
)
_UNIT = (lambda v: 0 < v < 1, "in (0, 1)")
# Windows are cut in whole microseconds (tracesim.window_us).
_WINDOW = (lambda v: round(v * 1e6) >= 1, "at least 1 µs once rounded to whole microseconds")
_COVER_KEYS = {"enabled": bool, "reference": str | None, "window_s": (float, _WINDOW)}


def _key(default, kind, rule):
    """A field read from the top-level config key of the same name."""
    return field(default=default, metadata={"check": (kind, rule)})


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
    seed: int = _key(0, int, NON_NEGATIVE)
    duration_s: float = _key(tracesim.DEFAULT_DURATION_S, float, POSITIVE)
    window_s: float = _key(attackeval.DEFAULT_WINDOW_S, float, _WINDOW)
    vector_len: int = _key(attackeval.DEFAULT_VECTOR_LEN, int, POSITIVE)
    train_fraction: float = _key(attackeval.DEFAULT_TRAIN_FRACTION, float, _UNIT)
    n_trees: int = _key(attackeval.DEFAULT_N_TREES, int, POSITIVE)
    max_depth: int | None = _key(None, int | None, POSITIVE)
    time_overhead: float = _key(tracesim.DEFAULT_TIME_OVERHEAD, float, NON_NEGATIVE)
    header_bytes: int = _key(tracesim.DEFAULT_HEADER_BYTES, int, NON_NEGATIVE)
    mtu_frame: int = _key(tracesim.DEFAULT_MTU_FRAME, int, POSITIVE)

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
            values["devices"] = tuple(devices)
        else:
            values["traces"] = tuple(values["traces"])
        values["segmentation"] = resolve_segmentation(
            source["segmentation"], seed=values.get("seed", cls.seed)
        )
        return cls(
            source=source,
            cover_reference=cover.get("reference") if cover.get("enabled") else None,
            cover_window_s=cover.get("window_s", values.get("window_s", cls.window_s)),
            **values,
        )


class StageError(SegShieldError):
    """A pipeline stage failed; earlier artifacts are kept on disk."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


def run_experiment(config: dict | str | Path, out_dir: str | Path | None = None) -> Report:
    """Run the full comparison and, when out_dir is given, write report.json,
    flat CSVs, and every intermediate trace for audit. The config is checked
    before anything runs, and the inputs before any trace is written."""
    if not isinstance(config, dict):
        with open(config) as fh:
            config = json.load(fh)
    cfg = ExperimentConfig.from_dict(config)
    master = cfg.seed
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        (out / "traces").mkdir(parents=True, exist_ok=True)

    def save(traces: dict[str, Trace], arm: str) -> None:
        for device, trace in traces.items():
            if out is not None:
                write_trace(trace, out / "traces" / f"{device}.{arm}.jsonl")

    stage = "inputs"
    try:
        base: dict[str, Trace] = {}
        for profile in cfg.devices:
            base[profile.name] = synthesize_trace(
                profile,
                cfg.duration_s,
                derive_seed(master, "synth", profile.name),
                header_bytes=cfg.header_bytes,
            )
        for path in cfg.traces:
            trace = ingest_trace(path, header_bytes=cfg.header_bytes)
            if trace.device in base:
                first = cfg.traces[list(base).index(trace.device)]
                raise ConfigurationError(f"traces: {first} and {path} both hold {trace.device!r}")
            base[trace.device] = trace
        reference = cfg.cover_reference
        if reference is not None and reference not in base:
            raise ConfigurationError(f"cover.reference: {reference!r} is not a device")
        save(base, "undefended")

        stage = "padding"
        padded = {
            device: pad_trace(trace, cfg.mtu_frame, derive_seed(master, "pad", device))
            for device, trace in base.items()
        }
        save(padded, "padded")

        stage = "segmentation"
        segmented = {
            device: obfuscate_trace(
                trace, cfg.segmentation, cfg.time_overhead, derive_seed(master, "seg", device)
            )
            for device, trace in base.items()
        }
        cover_bytes = {device: 0 for device in base}
        if reference is not None:
            stage = "cover"
            for device in sorted(set(segmented) - {reference}):
                result = inject_cover_traffic(
                    segmented[device],
                    segmented[reference],
                    cfg.cover_window_s,
                    derive_seed(master, "cover", device),
                )
                segmented[device] = result.trace
                cover_bytes[device] = result.cover_bytes
        save(segmented, "segmented")

        stage = "attack"
        arms = {"undefended": base, "padded": padded, "segmented": segmented}
        metrics: dict[str, Metrics] = {}
        for arm, traces in arms.items():
            vectors = [
                vector
                for device in sorted(traces)
                for vector in extract_windows(traces[device], cfg.window_s, cfg.vector_len)
            ]
            # Split/forest seeds are shared across arms: identical inputs
            # (a no-op defense) then produce identical metric blocks.
            split_rng = random.Random(derive_seed(master, "split"))
            train, test = split_dataset(vectors, cfg.train_fraction, split_rng)
            forest_rng = random.Random(derive_seed(master, "forest"))
            model = train_forest(
                train, n_trees=cfg.n_trees, max_depth=cfg.max_depth, rng=forest_rng
            )
            metrics[arm] = evaluate(model, test)

        stage = "overheads"
        overheads: dict[str, dict[str, OverheadResult]] = {}
        for arm in ("padded", "segmented"):
            rows = {
                device: OverheadResult(
                    w_b=base[device].total_bytes,
                    d_b=arms[arm][device].total_bytes,
                    w_t_us=base[device].duration_us,
                    d_t_us=arms[arm][device].duration_us,
                    cover_bytes=cover_bytes[device] if arm == "segmented" else 0,
                )
                for device in sorted(base)
            }
            # Totals aggregate raw bytes first, then divide.
            rows["total"] = OverheadResult(
                *(sum(getattr(r, f.name) for r in rows.values()) for f in fields(OverheadResult))
            )
            overheads[arm] = rows
    except SegShieldError:
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc

    seeds = {"master": master}
    report = Report(config=cfg.source, seeds=seeds, metrics=metrics, overheads=overheads)
    if out is not None:
        write_report(report, out)
    return report


def write_report(report: Report, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
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
