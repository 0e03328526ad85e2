import random
import re
from dataclasses import fields

import numpy as np
import pytest

from segshield.errors import ConfigurationError
from segshield.profiles import (
    DeviceProfile,
    device_profile,
    device_profile_names,
    resolve_device,
    resolve_segmentation,
    segmentation_profile,
    segmentation_profile_names,
)
from segshield.segcore import LevelBand, SegmentationConfig, segment_lengths
from segshield.shaper import SocketTuning

SEGMENTATION = {
    "low-bandwidth": (0.8, ((5, 20, None),)),
    "high-bandwidth": (0.8, ((20, 40, 200), (100, 300, 500), (500, 1000, None))),
    "rand-low": (1.0, ((1200, 1400, None),)),
    "rand-high": (1.0, ((100, 1400, None),)),
}

# name: (mean_rate, incoming, outgoing); mode_schedule is empty throughout.
DEVICES = {
    "bulb-like": (
        5.0,
        ((102, 0.315), (116, 0.217), (130, 0.16799999999999998)),
        ((102, 0.135), (116, 0.093), (130, 0.072)),
    ),
    "plug-like": (
        9.0,
        ((102, 0.16799999999999998), (116, 0.217), (130, 0.315)),
        ((102, 0.072), (116, 0.093), (130, 0.135)),
    ),
    "camera-like": (
        40.0,
        ((118, 0.35), (182, 0.15), (482, 0.08), (1382, 0.02)),
        ((118, 0.25), (182, 0.05), (482, 0.07), (1382, 0.03)),
    ),
    "doorbell-like": (0.8, ((134, 0.5), (166, 0.2)), ((134, 0.2), (166, 0.1))),
}


def test_names_are_sorted_and_complete():
    assert segmentation_profile_names() == tuple(sorted(SEGMENTATION))
    assert device_profile_names() == tuple(sorted(DEVICES))


@pytest.mark.parametrize("name", sorted(SEGMENTATION))
def test_segmentation_preset(name):
    prob, bands = SEGMENTATION[name]
    expected = SegmentationConfig(prob, tuple(LevelBand(*band) for band in bands), seed=0)
    assert segmentation_profile(name) == expected
    assert type(segmentation_profile(name).prob) is float


@pytest.mark.parametrize("name", sorted(SEGMENTATION))
def test_segmentation_overrides_only_prob_and_seed(name):
    base = segmentation_profile(name)
    assert segmentation_profile(name, prob=0.25, seed=7) == SegmentationConfig(
        0.25, base.bands, seed=7
    )
    assert segmentation_profile(name, seed=7) == SegmentationConfig(base.prob, base.bands, 7)


@pytest.mark.parametrize("name", sorted(DEVICES))
def test_device_preset(name):
    rate, incoming, outgoing = DEVICES[name]
    profile = device_profile(name)
    assert (profile.name, profile.mean_rate, profile.incoming, profile.outgoing) == (
        name, rate, incoming, outgoing,
    )
    assert profile.mode_schedule == ()


@pytest.mark.parametrize("name", sorted(DEVICES))
def test_device_overrides_only_mean_rate(name):
    _, incoming, outgoing = DEVICES[name]
    profile = device_profile(name, mean_rate=2.5)
    assert (profile.name, profile.mean_rate, profile.incoming, profile.outgoing) == (
        name, 2.5, incoming, outgoing,
    )


@pytest.mark.parametrize(
    "resolve,override,full,message",
    [
        (
            resolve_segmentation,
            {"profile": "low-bandwidth", "prob": 1.5},
            {"prob": 1.5, "bands": [{"min_seg": 5, "max_seg": 20}]},
            "segmentation.prob: must be in [0, 1], got 1.5",
        ),
        (
            lambda spec: resolve_device(spec, "devices[0]"),
            {"profile": "bulb-like", "mean_rate": -1},
            {"name": "x", "mean_rate": -1, "incoming": [[130, 1.0]]},
            "devices[0].mean_rate: must be positive, got -1",
        ),
    ],
)
def test_override_is_checked_by_its_field_rule(resolve, override, full, message):
    # A preset override and a full object fail alike, at the field's key path.
    for spec in (override, full):
        with pytest.raises(ConfigurationError) as err:
            resolve(spec)
        assert str(err.value) == message


def test_unknown_names_list_the_known_ones():
    with pytest.raises(KeyError) as seg:
        segmentation_profile("x")
    assert seg.value.args[0] == (
        "unknown segmentation profile 'x' "
        "(known: high-bandwidth, low-bandwidth, rand-high, rand-low)"
    )
    with pytest.raises(KeyError) as dev:
        device_profile("x", mean_rate=1.0)
    assert dev.value.args[0] == (
        "unknown device profile 'x' (known: bulb-like, camera-like, doorbell-like, plug-like)"
    )


# ---------------------------------------------------------------------------
# field declarations

BANDS = (LevelBand(5, 20),)
# Valid arguments of each config class, one field of which each test spoils.
VALID = {
    LevelBand: {"min_seg": 5, "max_seg": 20, "upper_threshold": 100},
    SegmentationConfig: {"prob": 0.5, "bands": BANDS, "seed": 3},
    DeviceProfile: {
        "name": "x",
        "mean_rate": 1.0,
        "incoming": ((100, 1.0),),
        "outgoing": ((116, 0.5),),
        "mode_schedule": ((0.0, 1.0, 2.0),),
    },
    SocketTuning: {"no_delay": True, "send_buffer_bytes": 2**16, "receive_buffer_bytes": 2**17},
}
# A bool and a string, each where its field's annotation does not name it.
SPOILED = [
    (cls, f.name, value)
    for cls in VALID
    for f in fields(cls)
    for value in (True, "5")
    if f.type != type(value).__name__
]


def test_every_config_field_but_the_live_seed_is_declared_with_a_rule():
    # The config parser reads these declarations; seed is no config key.
    for cls in VALID:
        for f in fields(cls):
            assert bool(f.metadata) != (cls is SegmentationConfig and f.name == "seed"), f.name


@pytest.mark.parametrize(
    "cls,name,value", SPOILED, ids=[f"{c.__name__}.{n}={v!r}" for c, n, v in SPOILED]
)
def test_every_field_rejects_a_value_of_another_type(cls, name, value):
    with pytest.raises(ConfigurationError, match=rf"^{name}(\[|:)"):
        cls(**{**VALID[cls], name: value})


# Each was accepted, truncated, or failed later with an unnamed error.
@pytest.mark.parametrize(
    "make,name",
    [
        (lambda: LevelBand(5, 20.5), "max_seg"),
        (lambda: SegmentationConfig(True, BANDS), "prob"),
        (lambda: SegmentationConfig("0.5", BANDS), "prob"),
        (lambda: SegmentationConfig(0.5, BANDS, seed=1.5), "seed"),
        (lambda: segmentation_profile("rand-high", seed=-1), "seed"),
        (lambda: DeviceProfile("x", 1.0, ((100.7, 1.0),)), "incoming[0][0]"),
        (lambda: DeviceProfile("x", 1.0, ((True, 1.0),)), "incoming[0][0]"),
        (lambda: SocketTuning(no_delay="no"), "no_delay"),
    ],
)
def test_fields_the_config_rejects_are_rejected_by_the_library(make, name):
    with pytest.raises(ConfigurationError, match="^" + re.escape(name) + ":"):
        make()


def test_fractional_band_fails_before_any_draw():
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ConfigurationError, match=r"^min_seg: expected int, got 5\.5$"):
        segment_lengths(300, SegmentationConfig(1.0, (LevelBand(5.5, 20.5),)), rng)
    assert rng.getstate() == state


def test_numpy_integers_are_accepted_as_ints():
    band = LevelBand(np.int64(5), 20)
    assert band == LevelBand(5, 20) and type(band.min_seg) is int
