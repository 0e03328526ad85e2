import json
import math
import random
from dataclasses import asdict, replace

import pytest
from hypothesis import given, strategies as st

from segshield.errors import ConfigurationError
from segshield.segcore import (
    LevelBand,
    SegmentationConfig,
    SegmentPlan,
    iter_chunks,
    payload_capacity,
    plan_default_segments,
    segment_lengths,
    segment_message,
)
from segshield.profiles import (
    resolve_segmentation,
    segmentation_profile,
    segmentation_profile_names,
)


def reference_band(n, config):
    """The band whose bounds segment_lengths draws an n-byte message's chunks
    in, looked up as the planner once did in a call of its own: the first
    band whose threshold admits n (inclusive), else the final one."""
    for band in config.bands:
        if band.covers(n):
            return band
    return config.bands[-1]


def randint_segment_lengths(n, config, rng):
    """segment_lengths as it drew chunk lengths with rng.randint: the oracle
    for the inlined band scan and getrandbits draw."""
    band = reference_band(n, config)
    if n < band.min_seg or rng.random() >= config.prob:
        return SegmentPlan((n,), segmented=False)
    lengths = []
    start = 0
    while start < n:
        rand_len = rng.randint(band.min_seg, band.max_seg)
        index = n if start + rand_len >= n else start + rand_len
        lengths.append(index - start)
        start = index
    return SegmentPlan(tuple(lengths), segmented=True)


def test_payload_capacity():
    assert payload_capacity(1500) == 1460


class TestPlanDefaultSegments:
    def test_textbook_split(self):
        assert plan_default_segments(3500, 1500).lengths == (1500, 1500, 500)

    def test_exact_multiple(self):
        assert plan_default_segments(1500, 1500).lengths == (1500,)

    def test_sub_mss_message(self):
        assert plan_default_segments(1, 1500).lengths == (1,)

    @pytest.mark.parametrize("n,mss", [(0, 1500), (-4, 1500), (100, 0)])
    def test_rejects_non_positive(self, n, mss):
        with pytest.raises(ValueError):
            plan_default_segments(n, mss)

    def test_never_marked_segmented(self):
        assert plan_default_segments(3500, 1500).segmented is False

    @given(st.integers(1, 10**6), st.integers(1, 9000))
    def test_count_is_ceiling(self, n, mss):
        plan = plan_default_segments(n, mss)
        assert len(plan.lengths) == math.ceil(n / mss)
        assert plan.total == n
        assert all(length == mss for length in plan.lengths[:-1])


class TestBandRule:
    """The band rule, seen in the chunks that segment_lengths draws."""

    @staticmethod
    def drawn(n, config, seeds=20):
        """Every chunk but the last of always-firing plans for n bytes."""
        config = replace(config, prob=1.0)
        plans = (segment_lengths(n, config, random.Random(seed)) for seed in range(seeds))
        return {chunk for plan in plans for chunk in plan.lengths[:-1]}

    def test_small_message_first_band(self, high_bandwidth):
        chunks = self.drawn(150, high_bandwidth)
        assert 20 <= min(chunks) and max(chunks) <= 40

    def test_mid_message_second_band(self, high_bandwidth):
        chunks = self.drawn(400, high_bandwidth)
        assert 100 <= min(chunks) and max(chunks) <= 300

    def test_threshold_is_inclusive(self, high_bandwidth):
        assert max(self.drawn(200, high_bandwidth)) <= 40
        assert max(self.drawn(500, high_bandwidth)) <= 300

    def test_catch_all_band(self, high_bandwidth):
        assert min(self.drawn(10**6, high_bandwidth, seeds=2)) >= 500

    def test_message_above_every_threshold_takes_the_last_band(self):
        config = SegmentationConfig(1.0, (LevelBand(5, 20, 250), LevelBand(300, 400, 1000)))
        chunks = self.drawn(5000, config)
        assert 300 <= min(chunks) and max(chunks) <= 400


class TestSegmentLengths:
    def test_prob_zero_passes_through(self, low_bandwidth):
        config = SegmentationConfig(prob=0.0, bands=low_bandwidth.bands)
        plan = segment_lengths(300, config, random.Random(1))
        assert plan == SegmentPlan((300,), segmented=False)

    def test_prob_zero_never_segments_on_zero_draw(self, low_bandwidth):
        class ZeroDraw(random.Random):
            def random(self):
                return 0.0

        config = SegmentationConfig(prob=0.0, bands=low_bandwidth.bands)
        plan = segment_lengths(300, config, ZeroDraw(0))
        assert plan == SegmentPlan((300,), segmented=False)

    def test_degenerate_band_hand_trace(self):
        # min = max = 100 makes every draw 100: 350 bytes fold into
        # three full chunks plus the 50-byte tail.
        config = SegmentationConfig(prob=1.0, bands=(LevelBand(100, 100),))
        plan = segment_lengths(350, config, random.Random(0))
        assert plan.lengths == (100, 100, 100, 50)
        assert plan.segmented is True

    def test_below_min_seg_passes_through(self):
        config = SegmentationConfig(prob=1.0, bands=(LevelBand(100, 200),))
        plan = segment_lengths(99, config, random.Random(0))
        assert plan == SegmentPlan((99,), segmented=False)

    def test_ineligible_message_skips_probability_draw(self):
        config = SegmentationConfig(prob=1.0, bands=(LevelBand(100, 200),))
        used = random.Random(7)
        segment_lengths(50, config, used)
        assert used.random() == random.Random(7).random()

    @pytest.mark.parametrize("seed", range(50))
    def test_chunk_count_bounds_3500(self, seed):
        config = SegmentationConfig(prob=1.0, bands=(LevelBand(500, 1000),))
        plan = segment_lengths(3500, config, random.Random(seed))
        assert 4 <= len(plan.lengths) <= 7
        assert all(500 <= c <= 1000 for c in plan.lengths[:-1])
        assert plan.total == 3500

    def test_rejects_non_positive_length(self, low_bandwidth):
        with pytest.raises(ValueError):
            segment_lengths(0, low_bandwidth, random.Random(0))

    @given(
        n=st.integers(1, 5000),
        prob=st.floats(0.0, 1.0),
        min_seg=st.integers(1, 400),
        spread=st.integers(0, 400),
        seed=st.integers(0, 2**32),
    )
    def test_roundtrip_bounds_determinism(self, n, prob, min_seg, spread, seed):
        config = SegmentationConfig(
            prob=prob, bands=(LevelBand(min_seg, min_seg + spread),)
        )
        plan = segment_lengths(n, config, random.Random(seed))
        again = segment_lengths(n, config, random.Random(seed))
        assert plan == again
        assert plan.total == n
        assert all(c >= 1 for c in plan.lengths)
        if plan.segmented:
            band = config.bands[0]
            assert all(band.min_seg <= c <= band.max_seg for c in plan.lengths[:-1])
            assert plan.lengths[-1] <= band.max_seg

    @given(
        config=st.one_of(
            st.builds(
                segmentation_profile,
                st.sampled_from(segmentation_profile_names()),
                prob=st.one_of(st.none(), st.floats(0.0, 1.0)),
            ),
            # Spans of one, of a power of two and just either side of one.
            st.builds(
                lambda low, span, prob: SegmentationConfig(prob, (LevelBand(low, low + span - 1),)),
                st.integers(1, 300),
                st.sampled_from([1, 2, 3, 255, 256, 257, 1024]),
                st.floats(0.0, 1.0),
            ),
            # A final band with a threshold: longer messages fall back to it.
            st.builds(
                lambda first, last, prob: SegmentationConfig(
                    prob, (LevelBand(5, 20, first), LevelBand(30, 90, first + last))
                ),
                st.integers(1, 2000),
                st.integers(1, 2000),
                st.floats(0.0, 1.0),
            ),
        ),
        lengths=st.lists(st.integers(1, 4000), min_size=1, max_size=30),
        seed=st.integers(0, 2**32),
    )
    def test_matches_randint_body(self, config, lengths, seed):
        rng, oracle = random.Random(seed), random.Random(seed)
        for n in lengths:
            plan, expected = segment_lengths(n, config, rng), randint_segment_lengths(n, config, oracle)
            assert plan == expected
            assert hash(plan) == hash(expected)
        assert rng.getstate() == oracle.getstate()

    @pytest.mark.parametrize("seed", range(5))
    def test_subclass_drawing_bits_through_super_keeps_randint_draws(self, seed):
        # A subclass that defines getrandbits gets CPython's getrandbits
        # loop as its _randbelow, so randint runs the planner's loop through it.
        class CountingBits(random.Random):
            calls = 0

            def getrandbits(self, k):
                self.calls += 1
                return super().getrandbits(k)

        config = SegmentationConfig(prob=1.0, bands=(LevelBand(5, 20, 250), LevelBand(300, 1000)))
        rng, oracle = CountingBits(seed), CountingBits(seed)
        for n in (1, 7, 250, 4000, 9000):
            assert segment_lengths(n, config, rng) == randint_segment_lengths(n, config, oracle)
        assert rng.getstate() == oracle.getstate()
        assert rng.calls == oracle.calls > 0

    @pytest.mark.parametrize("name", segmentation_profile_names())
    def test_system_random_obeys_the_band_law(self, name):
        config = segmentation_profile(name, prob=1.0)
        rng = random.SystemRandom()
        for n in [1, 2, 5, 99, 100, 101, 499, 500, 1459, 1460, 3000, 20000, *range(1, 4000, 37)]:
            band = reference_band(n, config)
            plan = segment_lengths(n, config, rng)
            assert plan.segmented == (n >= band.min_seg)
            assert plan.total == n
            assert all(band.min_seg <= c <= band.max_seg for c in plan.lengths[:-1])
            assert plan.lengths[-1] <= band.max_seg

    def test_pass_through_rate_tracks_prob(self, low_bandwidth):
        rng = random.Random(123)
        config = SegmentationConfig(prob=0.7, bands=low_bandwidth.bands)
        n = 20000
        hits = sum(segment_lengths(500, config, rng).segmented for _ in range(n))
        se = math.sqrt(0.7 * 0.3 / n)
        assert abs(hits / n - 0.7) <= 3 * se


class TestSegmentMessage:
    def test_rejects_empty(self, low_bandwidth):
        with pytest.raises(ValueError):
            segment_message(b"", low_bandwidth, random.Random(0))

    def test_chunks_reassemble(self, low_bandwidth):
        data = bytes(range(256)) * 4
        rng = random.Random(9)
        plan = segment_message(data, low_bandwidth, rng)
        assert b"".join(iter_chunks(data, plan)) == data

    @pytest.mark.parametrize(
        "data,lengths,reason",
        [
            (b"abcd", (2, 3), "covers 5 bytes"),
            (b"", (), "at least one chunk"),
            (b"abcd", (2, 0, 2), "positive, got 0"),
            (b"abcd", (5, -1), "positive, got -1"),
        ],
    )
    def test_iter_chunks_validates_plan(self, data, lengths, reason):
        # At the call: no chunk need be taken for a bad plan to fail.
        with pytest.raises(ValueError, match=reason):
            iter_chunks(data, SegmentPlan(lengths, segmented=True))


class TestConfigValidation:
    def test_prob_out_of_range(self):
        for prob in (-0.1, 1.1):
            with pytest.raises(ValueError):
                SegmentationConfig(prob=prob, bands=(LevelBand(5, 20),))

    def test_bands_required(self):
        with pytest.raises(ValueError):
            SegmentationConfig(prob=0.5, bands=())

    def test_band_ordering(self):
        with pytest.raises(ValueError):
            LevelBand(30, 20)
        with pytest.raises(ValueError):
            LevelBand(0, 20)

    def test_only_last_band_open_ended(self):
        with pytest.raises(ValueError):
            SegmentationConfig(
                prob=0.5, bands=(LevelBand(5, 20), LevelBand(30, 40, 200))
            )

    def test_thresholds_strictly_increase(self):
        with pytest.raises(ValueError):
            SegmentationConfig(
                prob=0.5,
                bands=(LevelBand(5, 20, 200), LevelBand(30, 40, 200), LevelBand(50, 60)),
            )

    def test_max_seg_within_mtu_payload(self):
        with pytest.raises(ValueError):
            SegmentationConfig(prob=0.5, bands=(LevelBand(5, 1461),))

    def test_band_of_another_type_names_the_band_class(self):
        with pytest.raises(ConfigurationError) as err:
            SegmentationConfig(0.5, ("x",))
        assert str(err.value) == "bands[0]: expected LevelBand or dict, got 'x'"


def full_object(config):
    """A config as a full segmentation object: asdict without the seed,
    which only a live connection reads."""
    spec = asdict(config)
    del spec["seed"]
    return spec


class TestConfigIO:
    def test_json_roundtrip(self, high_bandwidth):
        text = json.dumps(full_object(high_bandwidth))
        assert resolve_segmentation(json.loads(text)) == high_bandwidth

    def test_dict_roundtrip(self, high_bandwidth):
        assert resolve_segmentation(full_object(high_bandwidth)) == high_bandwidth

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ValueError):
            resolve_segmentation({"prob": 0.5})

    def test_band_of_another_type_names_the_band_class(self):
        with pytest.raises(ConfigurationError) as err:
            resolve_segmentation({"prob": 0.5, "bands": ["x"]})
        assert str(err.value) == "segmentation.bands[0]: expected LevelBand or dict, got 'x'"
