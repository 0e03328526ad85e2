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
from dataclasses import dataclass, fields, replace

from .errors import POSITIVE, ConfigurationError, build, check_fields, check_object, check_value, rule
from .segcore import LevelBand, SegmentationConfig

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

    name: str = rule(str)
    mean_rate: float = rule(float, POSITIVE)
    incoming: tuple[tuple[int, float], ...] = rule([(int, float)], default=())
    outgoing: tuple[tuple[int, float], ...] = rule([(int, float)], default=())
    mode_schedule: tuple[tuple[float, float, float], ...] = rule([(float,) * 3], default=())

    def __post_init__(self):
        check_fields(self)
        if not self.incoming and not self.outgoing:
            raise ConfigurationError("profile needs at least one size distribution")
        for length, weight in (*self.incoming, *self.outgoing):
            if length < 1:
                raise ConfigurationError("frame lengths must be >= 1")
            if weight <= 0:
                raise ConfigurationError("weights must be positive")
        # Synthesis scales a uniform draw by each direction's weight total.
        for pairs in (self.incoming, self.outgoing):
            if not math.isfinite(sum(w for _, w in pairs)):
                raise ConfigurationError("each direction's weights must total a finite number")
        for start, end, mult in self.mode_schedule:
            if not (start < end and mult >= 0):
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


def _resolve(spec, path: str, make, override: str, kind):
    """A preset name, a ``{"profile", override}`` object that ``make`` turns
    into a preset with ``override`` replaced, or a full ``kind`` object. The
    override is checked by the rule of its ``kind`` field, under its key path."""
    if isinstance(spec, str):
        spec = {"profile": spec}
    if isinstance(spec, dict) and "profile" in spec:
        field_kind, field_rule = {f.name: f for f in fields(kind)}[override].metadata["check"]
        values = check_object(spec, path, {"profile": str, override: (field_kind | None, field_rule)})
        return build(path, make, values.pop("profile"), **values)
    return check_value(spec, path, kind)


def resolve_segmentation(spec, path: str = "segmentation") -> SegmentationConfig:
    """A preset name, a ``{"profile", "prob"}`` override, or a full config
    object of ``prob`` and ``bands``."""
    return _resolve(spec, path, segmentation_profile, "prob", SegmentationConfig)


def resolve_device(spec, path: str = "device") -> DeviceProfile:
    """A preset name, a ``{"profile", "mean_rate"}`` override, or a full
    profile object."""
    return _resolve(spec, path, device_profile, "mean_rate", DeviceProfile)
