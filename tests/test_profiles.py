import pytest

from segshield.profiles import (
    device_profile,
    device_profile_names,
    segmentation_profile,
    segmentation_profile_names,
)
from segshield.segcore import LevelBand, SegmentationConfig

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
