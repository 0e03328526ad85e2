"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a one-line summary so ``pytest -v -s tests/test_acceptance.py``
reads as a checklist.  Where a guarantee includes a runtime budget the test
asserts it.  Everything here runs against the public API only.
"""

import hashlib
import json
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import brute_force_stump, random_vectors
from segshield.attackeval import metrics_from_confusion, run_attack, train_forest
from segshield.cli import main_segshield
from segshield.profiles import device_profile, segmentation_profile
from segshield.report import byte_overhead
from segshield.rng import derive_seed
from segshield.segcore import (
    LevelBand,
    SegmentationConfig,
    iter_chunks,
    plan_default_segments,
    segment_message,
)
from segshield.shaper import SocketTuning, mean_wall_time, run_transfer_benchmark
from segshield.tracesim import (
    inject_cover_traffic,
    obfuscate_trace,
    pad_trace,
    synthesize_trace,
)


# ---------------------------------------------------------------------------
# shared segmentation sweep for criteria 1 and 2


def _band(n: int, config: SegmentationConfig) -> LevelBand:
    """The band an n-byte message's chunks are drawn from: the first whose
    threshold admits n, else the final one."""
    return next((band for band in config.bands if band.covers(n)), config.bands[-1])


def _random_config(master: random.Random) -> SegmentationConfig:
    style = master.randrange(4)
    if style == 0:
        mn = master.randint(1, 200)
        bands = (LevelBand(mn, mn + master.randint(0, 300)),)
        return SegmentationConfig(prob=master.random(), bands=bands)
    if style == 1:
        mn = master.randint(1, 150)
        return SegmentationConfig(prob=1.0, bands=(LevelBand(mn, mn),))
    if style == 2:
        return segmentation_profile("low-bandwidth", prob=master.random())
    return segmentation_profile("high-bandwidth")


@pytest.fixture(scope="module")
def segmentation_sweep():
    """10k (message, config, seed) triples: plan, reassemble, record bounds."""
    master = random.Random(0xACCE97)
    trials = []
    start = time.perf_counter()
    for _ in range(10_000):
        config = _random_config(master)
        n = master.randint(1, 3000)
        data = master.randbytes(n)
        plan = segment_message(data, config, random.Random(master.getrandbits(64)))
        joined = b"".join(bytes(c) for c in iter_chunks(data, plan))
        band = _band(n, config)
        trials.append((n, band, plan, joined == data))
    elapsed = time.perf_counter() - start
    return trials, elapsed


def test_criterion_01_round_trip_10k_triples(segmentation_sweep):
    trials, elapsed = segmentation_sweep
    assert len(trials) == 10_000
    failures = sum(1 for _, _, _, ok in trials if not ok)
    assert failures == 0
    assert elapsed < 10.0
    print(f"criterion 1 PASS: 10000/10000 exact round-trips in {elapsed:.2f}s")


def test_criterion_02_bound_conformity(segmentation_sweep):
    trials, _ = segmentation_sweep
    segmented = 0
    for n, band, plan, _ in trials:
        assert sum(plan.lengths) == n
        if not plan.segmented:
            assert plan.lengths == (n,)
            continue
        segmented += 1
        for length in plan.lengths[:-1]:
            assert band.min_seg <= length <= band.max_seg
        assert 1 <= plan.lengths[-1] <= band.max_seg
    print(f"criterion 2 PASS: bounds hold on {segmented} segmented plans")


def test_criterion_03_default_segmentation_matches_ceiling():
    assert plan_default_segments(3500, 1500).lengths == (1500, 1500, 500)
    rng = random.Random(3)
    for _ in range(1000):
        n = rng.randint(1, 1_000_000)
        mss = rng.randint(1, 9000)
        lengths = plan_default_segments(n, mss).lengths
        assert len(lengths) == math.ceil(n / mss)
        assert sum(lengths) == n
        assert all(length == mss for length in lengths[:-1])
        assert 1 <= lengths[-1] <= mss
    print("criterion 3 PASS: default plans equal ceiling division on 1000 draws")


def test_criterion_04_byte_overhead_goldens():
    low = byte_overhead(Fraction("704.6"), Fraction("757.2"))
    high = byte_overhead(Fraction("704.6"), Fraction("1084.7"))
    assert abs(float(low) * 100 - 7) <= 1.0
    assert abs(float(high) * 100 - 54) <= 1.0
    print(
        "criterion 4 PASS: overhead goldens "
        f"{float(low) * 100:.2f}% ~ 7%, {float(high) * 100:.2f}% ~ 54%"
    )


def test_criterion_05_metric_identities_on_random_confusions():
    rng = random.Random(5)
    worst = 0.0
    for _ in range(1000):
        k = rng.randint(2, 6)
        confusion = [[rng.randint(0, 40) for _ in range(k)] for _ in range(k)]
        total = sum(map(sum, confusion))
        if total == 0:
            confusion[0][0] = 1
            total = 1
        m = metrics_from_confusion(confusion)
        for c in range(k):
            tp = confusion[c][c]
            fp = sum(confusion[r][c] for r in range(k)) - tp
            fn = sum(confusion[c]) - tp
            denom = 2 * tp + fp + fn
            expected = 0.0 if denom == 0 else 2 * tp / denom
            worst = max(worst, abs(m.per_class[c][2] - expected))
            assert abs(m.per_class[c][2] - expected) <= 1e-12
        diagonal = sum(confusion[i][i] for i in range(k))
        assert m.accuracy == diagonal / total
    print(f"criterion 5 PASS: 1000 confusions, max f1 deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# desk-scale defense evaluation for criteria 6 and 7


def _desk_traces(seed: int):
    bulb = synthesize_trace(device_profile("bulb-like"), 3600, derive_seed(seed, "a"))
    plug = synthesize_trace(device_profile("plug-like"), 3600, derive_seed(seed, "b"))
    return bulb, plug


def test_criterion_06_defense_drops_classifier_accuracy():
    config = segmentation_profile("low-bandwidth")
    start = time.perf_counter()
    rows = []
    for seed in range(10):
        bulb, plug = _desk_traces(seed)
        undefended = run_attack([bulb, plug], seed=seed).accuracy
        defended_pair = [
            obfuscate_trace(bulb, config, 0.2, derive_seed(seed, "da")),
            obfuscate_trace(plug, config, 0.2, derive_seed(seed, "db")),
        ]
        defended = run_attack(defended_pair, seed=seed).accuracy
        rows.append((undefended, defended))
    elapsed = time.perf_counter() - start
    strong_before = sum(1 for u, _ in rows if u >= 0.90)
    weak_after = sum(1 for _, d in rows if d <= 0.70)
    wide_gap = sum(1 for u, d in rows if u - d >= 0.2)
    assert strong_before >= 9
    assert weak_after >= 9
    assert wide_gap >= 9
    assert elapsed < 120.0
    print(
        "criterion 6 PASS: "
        f"undefended>=0.90 on {strong_before}/10, defended<=0.70 on {weak_after}/10, "
        f"gap>=0.2 on {wide_gap}/10 seeds in {elapsed:.1f}s"
    )


def test_criterion_07_padding_costs_triple_segmentation():
    config = segmentation_profile("low-bandwidth")
    start = time.perf_counter()
    original = padded = segmented = 0
    for name, trace in zip(("bulb", "plug"), _desk_traces(0)):
        original += trace.total_bytes
        padded += pad_trace(trace, 1582, derive_seed(0, "pad", name)).total_bytes
        segmented += obfuscate_trace(
            trace, config, 0.2, derive_seed(0, "seg", name)
        ).total_bytes
    pad_cost = byte_overhead(original, padded)
    seg_cost = byte_overhead(original, segmented)
    ratio = pad_cost / seg_cost
    elapsed = time.perf_counter() - start
    assert ratio >= 3
    assert elapsed < 60.0
    print(
        "criterion 7 PASS: padding adds "
        f"{float(pad_cost) * 100:.1f}% vs segmentation {float(seg_cost) * 100:.1f}% "
        f"(ratio {float(ratio):.2f}) in {elapsed:.1f}s"
    )


def test_criterion_08_cover_matches_reference_volume():
    config = segmentation_profile("low-bandwidth")
    target = obfuscate_trace(
        synthesize_trace(device_profile("doorbell-like"), 600, derive_seed(8, "t")),
        config,
        0.2,
        derive_seed(8, "dt"),
    )
    reference = obfuscate_trace(
        synthesize_trace(device_profile("camera-like"), 600, derive_seed(8, "r")),
        config,
        0.2,
        derive_seed(8, "dr"),
    )
    result = inject_cover_traffic(target, reference, 30.0, derive_seed(8, "c"))

    window_us = round(30.0 * 1e6)

    def volumes(trace):
        vols = {}
        for ts, size in zip(trace.timestamp_us.tolist(), trace.signed_size.tolist()):
            idx = ts // window_us
            vols[idx] = vols.get(idx, 0) + abs(size)
        return vols

    before = volumes(target)
    after = volumes(result.trace)
    wanted = volumes(reference)
    max_packet = max(abs(size) for size in target.signed_size.tolist())
    topped_up = 0
    for idx in sorted(set(before) | set(after) | set(wanted)):
        b = before.get(idx, 0)
        w = wanted.get(idx, 0)
        a = after.get(idx, 0)
        if b >= w:
            assert a == b
        else:
            topped_up += 1
            assert w <= a < w + max_packet
    assert topped_up > 0
    assert result.trace.without_cover() == target
    print(
        f"criterion 8 PASS: {topped_up} windows topped up within one packet, "
        f"cover fraction {result.cover_fraction:.3f}, strip restores exactly"
    )


def test_criterion_09_loopback_transfer_integrity():
    size = 10 * 1024 * 1024
    for name in ("rand-low", "rand-high"):
        config = segmentation_profile(name)
        band = config.bands[0]
        runs = run_transfer_benchmark(size, config, repetitions=10, seed=9)
        assert len(runs) == 10
        for rep, stats in enumerate(runs):
            payload = random.Random(derive_seed(9, "payload", rep)).randbytes(size)
            assert stats.bytes_sent == size
            assert stats.checksum == hashlib.sha256(payload).hexdigest()
            log = stats.segment_log
            assert len(log) == stats.packets_sent
            assert all(band.min_seg <= c <= band.max_seg for c in log[:-1])
            assert 1 <= log[-1] <= band.max_seg
        print(f"criterion 9 PASS: {name} 10/10 digests match, bounds hold")


def test_criterion_10_small_send_buffer_is_slower():
    # A greedy loopback consumer never applies backpressure, so the
    # comparison runs against a bursty one: drain the backlog, stall 3ms,
    # repeat, behind a small receive window.
    size = 4 * 1024 * 1024
    start = time.perf_counter()
    summary = []
    for name in ("rand-low", "rand-high"):
        config = segmentation_profile(name)
        means = {}
        for buf in (2**15, 2**16):
            tuning = SocketTuning(
                no_delay=True, send_buffer_bytes=buf, receive_buffer_bytes=2**17
            )
            runs = run_transfer_benchmark(
                size,
                config,
                tuning=tuning,
                repetitions=12,
                seed=10,
                receiver_recv_buffer=2**14,
                receiver_pause_s=0.003,
            )
            assert len(runs) == 12
            means[buf] = mean_wall_time(runs)
        assert means[2**15] > means[2**16]
        summary.append(f"{name} {means[2**15] * 1e3:.1f}ms > {means[2**16] * 1e3:.1f}ms")
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 10 PASS: {'; '.join(summary)} in {elapsed:.1f}s")


def test_criterion_11_single_stump_matches_exhaustive_search():
    rng = random.Random(11)
    for dataset in range(20):
        vectors = random_vectors(rng, 50, n_features=6, k=rng.choice((2, 3)))
        model = train_forest(
            vectors,
            n_trees=1,
            max_depth=1,
            rng=random.Random(derive_seed(11, "stump", dataset)),
            bootstrap=False,
            max_features=None,
        )
        assert model.predict(vectors) == brute_force_stump(vectors)
    print("criterion 11 PASS: 20/20 stumps equal exhaustive split search")


def test_criterion_12_experiment_reruns_are_byte_identical(tmp_path, capsys):
    config = {
        "seed": 7,
        "duration_s": 600,
        "devices": ["bulb-like", "plug-like"],
        "n_trees": 30,
    }
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(config))
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main_segshield(["experiment", "--config", str(config_path), "--out", str(first)]) == 0
    assert main_segshield(["experiment", "--config", str(config_path), "--out", str(second)]) == 0
    capsys.readouterr()
    for name in ("report.json", "metrics.csv", "overhead.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    print("criterion 12 PASS: rerun outputs byte-identical (report, metrics, overhead)")
