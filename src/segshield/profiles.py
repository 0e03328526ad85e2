"""Named presets: segmentation parameter sets and synthetic device profiles.

Segmentation presets
    low-bandwidth   chatty low-rate devices, one band [5, 20]
    high-bandwidth  bulk senders, three bands keyed by message size
    rand-low        benchmark profile, near-MSS chunks [1200, 1400]
    rand-high       benchmark profile, wide chunk spread [100, 1400]

Device profiles are synthetic stand-ins for small-appliance traffic.
bulb-like and plug-like form a confusion pair: same frame sizes with
mirrored weights and different rates, so an undefended classifier
separates them but segmentation leaves little to key on.

``resolve_segmentation`` and ``resolve_device`` turn a config entry into
the typed value; their errors name the key path of the offending value.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import get_args

from .errors import ConfigurationError
from .segcore import LevelBand, SegmentationConfig

# The shared rules of a scalar value, checked by check_value.
POSITIVE = (lambda v: v > 0, "positive")
NON_NEGATIVE = (lambda v: v >= 0, "non-negative")


def check_value(value, path: str, kind, rule=None):
    """Return ``value`` if it has type ``kind`` (a JSON type, ``kind | None``
    to also allow null, or a tuple of kinds for a fixed-length row) and
    passes ``rule``, a (predicate, description) pair. A float is any finite
    real number and an int any integer, neither a bool, and each comes back
    as its kind; a list may be a tuple. Raise ConfigurationError naming
    ``path`` otherwise."""
    if isinstance(kind, types.UnionType):
        if value is None:
            return None
        kind = get_args(kind)[0]
    if isinstance(kind, tuple):  # a fixed-length row
        check_value(value, path, list, (lambda v: len(v) == len(kind), f"{len(kind)} long"))
        return tuple(check_value(v, f"{path}[{j}]", k) for j, (v, k) in enumerate(zip(value, kind)))
    if kind is float or kind is int:
        ok = isinstance(value, Real if kind is float else Integral) and not isinstance(value, bool)
    else:
        ok = isinstance(value, (list, tuple) if kind is list else kind)
    if not ok:
        raise ConfigurationError(f"{path}: expected {kind.__name__}, got {value!r}")
    checked = value
    if kind is int:
        checked = int(value)
    elif kind is float:
        try:
            checked = float(value)
        except OverflowError:  # an int beyond the float range
            checked = math.inf
        if not math.isfinite(checked):
            raise ConfigurationError(f"{path}: must be finite, got {value!r}")
    if rule is not None and not rule[0](checked):
        raise ConfigurationError(f"{path}: must be {rule[1]}, got {value!r}")
    return checked


DEFAULT_SEGMENTATION_PROFILE = "low-bandwidth"

_SEGMENTATION_PRESETS = {
    "low-bandwidth": SegmentationConfig(0.8, (LevelBand(5, 20),)),
    "high-bandwidth": SegmentationConfig(
        0.8, (LevelBand(20, 40, 200), LevelBand(100, 300, 500), LevelBand(500, 1000))
    ),
    # Benchmark profiles: always-on shaping, chunk ceiling at the common
    # 1400-byte application write size.
    "rand-low": SegmentationConfig(1.0, (LevelBand(1200, 1400),)),
    "rand-high": SegmentationConfig(1.0, (LevelBand(100, 1400),)),
}


def _preset(table: dict, kind: str, name: str):
    """The preset ``name`` of ``table``; a KeyError lists the known names."""
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table))
        raise KeyError(f"unknown {kind} profile {name!r} (known: {known})") from None


def segmentation_profile(name: str, prob: float | None = None, seed: int = 0) -> SegmentationConfig:
    """A named preset, with its ``prob`` and ``seed`` overridden."""
    preset = _preset(_SEGMENTATION_PRESETS, "segmentation", name)
    return replace(preset, prob=preset.prob if prob is None else prob, seed=seed)


def segmentation_profile_names() -> tuple[str, ...]:
    return tuple(sorted(_SEGMENTATION_PRESETS))


def _mixed(sizes: dict[int, float], fraction: float) -> tuple[tuple[int, float], ...]:
    return tuple((length, weight * fraction) for length, weight in sizes.items())


# Confusion pair: identical frame support {102, 116, 130}, mirrored weights,
# rates chosen so one device's 30 s windows stay under the default vector
# length while the other's overflow it.
_PAIR_SIZES_A = {102: 0.45, 116: 0.31, 130: 0.24}
_PAIR_SIZES_B = {102: 0.24, 116: 0.31, 130: 0.45}


@dataclass(frozen=True)
class DeviceProfile:
    """Synthetic stand-in for a captured device: a packet-rate process plus
    per-direction frame-size distributions.

    ``incoming`` / ``outgoing`` are (frame_length, weight) pairs; the two
    weight totals set the direction mix. ``mode_schedule`` entries
    (start_s, end_s, multiplier) scale the rate inside their interval.
    """

    name: str
    mean_rate: float
    incoming: tuple[tuple[int, float], ...] = ()
    outgoing: tuple[tuple[int, float], ...] = ()
    mode_schedule: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "incoming", tuple((int(l), float(w)) for l, w in self.incoming))
        object.__setattr__(self, "outgoing", tuple((int(l), float(w)) for l, w in self.outgoing))
        object.__setattr__(
            self,
            "mode_schedule",
            tuple((float(a), float(b), float(m)) for a, b, m in self.mode_schedule),
        )
        check_value(self.mean_rate, "mean_rate", float, POSITIVE)
        if not self.incoming and not self.outgoing:
            raise ConfigurationError("profile needs at least one size distribution")
        for length, weight in (*self.incoming, *self.outgoing):
            if length < 1:
                raise ConfigurationError("frame lengths must be >= 1")
            if not (weight > 0 and math.isfinite(weight)):
                raise ConfigurationError("weights must be positive and finite")
        # Synthesis scales a uniform draw by each direction's weight total.
        for pairs in (self.incoming, self.outgoing):
            if not math.isfinite(sum(w for _, w in pairs)):
                raise ConfigurationError("each direction's weights must total a finite number")
        for start, end, mult in self.mode_schedule:
            if not (start < end and 0 <= mult < math.inf):
                raise ConfigurationError("bad mode_schedule entry")

    def rate_at(self, t: float) -> float:
        rate = self.mean_rate
        for start, end, mult in self.mode_schedule:
            if start <= t < end:
                rate = self.mean_rate * mult
        return rate


_DEVICE_PRESETS = {
    "bulb-like": DeviceProfile(
        "bulb-like", 5.0, _mixed(_PAIR_SIZES_A, 0.7), _mixed(_PAIR_SIZES_A, 0.3)
    ),
    "plug-like": DeviceProfile(
        "plug-like", 9.0, _mixed(_PAIR_SIZES_B, 0.7), _mixed(_PAIR_SIZES_B, 0.3)
    ),
    # Volume extremes for cover-traffic calibration.
    "camera-like": DeviceProfile(
        "camera-like",
        40.0,
        incoming=((118, 0.35), (182, 0.15), (482, 0.08), (1382, 0.02)),
        outgoing=((118, 0.25), (182, 0.05), (482, 0.07), (1382, 0.03)),
    ),
    "doorbell-like": DeviceProfile(
        "doorbell-like", 0.8, incoming=((134, 0.5), (166, 0.2)), outgoing=((134, 0.2), (166, 0.1))
    ),
}


def device_profile(name: str, mean_rate: float | None = None) -> DeviceProfile:
    """A named preset, with its ``mean_rate`` overridden if given."""
    preset = _preset(_DEVICE_PRESETS, "device", name)
    return preset if mean_rate is None else replace(preset, mean_rate=mean_rate)


def device_profile_names() -> tuple[str, ...]:
    return tuple(sorted(_DEVICE_PRESETS))


# ---------------------------------------------------------------------------
# config entries


def check_object(obj, path: str, schema: dict, required=()) -> dict:
    """Check an object against ``schema`` ({key: kind or (kind, rule)}) and
    return its checked values; an empty ``path`` is the config root."""
    check_value(obj, path or "config", dict)
    prefix = f"{path}." if path else ""
    for key in required:
        if key not in obj:
            raise ConfigurationError(f"{prefix}{key}: required")
    values = {}
    for key, value in obj.items():
        if key not in schema:
            known = ", ".join(sorted(schema))
            raise ConfigurationError(f"{prefix}{key}: unknown key (known: {known})")
        kind, rule = schema[key] if isinstance(schema[key], tuple) else (schema[key], None)
        values[key] = check_value(value, prefix + key, kind, rule)
    return values


def _build(path: str, make, *args, **kwargs):
    """Call a constructor; its own range errors gain the key path."""
    try:
        return make(*args, **kwargs)
    except (ConfigurationError, KeyError) as exc:
        raise ConfigurationError(f"{path}: {exc.args[0]}") from None


_SEGMENTATION_PRESET_KEYS = {"profile": str, "prob": float | None}
_SEGMENTATION_KEYS = {"prob": float, "bands": list}
_BAND_KEYS = {"min_seg": int, "max_seg": int, "upper_threshold": int | None}
_DEVICE_PRESET_KEYS = {"profile": str, "mean_rate": float | None}
# Full device objects: the list keys hold rows of these kinds.
_DEVICE_ROWS = {"incoming": (int, float), "outgoing": (int, float), "mode_schedule": (float,) * 3}
_DEVICE_KEYS = {"name": str, "mean_rate": float, **dict.fromkeys(_DEVICE_ROWS, list)}


def resolve_segmentation(spec, path: str = "segmentation") -> SegmentationConfig:
    """A preset name, a ``{"profile", "prob"}`` override, or a full config
    object of ``prob`` and ``bands``."""
    if isinstance(spec, str):
        spec = {"profile": spec}
    if isinstance(spec, dict) and "profile" in spec:
        values = check_object(spec, path, _SEGMENTATION_PRESET_KEYS)
        return _build(path, segmentation_profile, values.pop("profile"), **values)
    values = check_object(spec, path, _SEGMENTATION_KEYS, required=("prob", "bands"))
    bands = []
    for i, band in enumerate(values["bands"]):
        where = f"{path}.bands[{i}]"
        checked = check_object(band, where, _BAND_KEYS, required=("min_seg", "max_seg"))
        bands.append(_build(where, LevelBand, **checked))
    return _build(path, SegmentationConfig, values["prob"], bands)


def resolve_device(spec, path: str = "device") -> DeviceProfile:
    """A preset name, a ``{"profile", "mean_rate"}`` override, or a full
    profile object."""
    if isinstance(spec, str):
        spec = {"profile": spec}
    if isinstance(spec, dict) and "profile" in spec:
        values = check_object(spec, path, _DEVICE_PRESET_KEYS)
        return _build(path, device_profile, values.pop("profile"), **values)
    values = check_object(spec, path, _DEVICE_KEYS, required=("name", "mean_rate"))
    for key, kinds in _DEVICE_ROWS.items():
        rows = enumerate(values.get(key, ()))
        values[key] = tuple(check_value(row, f"{path}.{key}[{i}]", kinds) for i, row in rows)
    return _build(path, DeviceProfile, **values)
