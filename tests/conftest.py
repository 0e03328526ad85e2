import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

import segshield
from segshield.attackeval import FeatureVector
from segshield.segcore import LevelBand, SegmentationConfig
from segshield.tracesim import Trace

settings.register_profile(
    "default",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def low_bandwidth():
    return SegmentationConfig(prob=0.8, bands=(LevelBand(5, 20),))


@pytest.fixture
def high_bandwidth():
    return SegmentationConfig(
        prob=0.8,
        bands=(
            LevelBand(20, 40, upper_threshold=200),
            LevelBand(100, 300, upper_threshold=500),
            LevelBand(500, 1000),
        ),
    )


def brute_force_stump(vectors):
    """Exhaustive best single-threshold rule, the oracle a depth-1 tree must
    match. Scans features ascending, thresholds ascending, keeps a split
    only on strict score improvement; score = sum(c^2)/n per side.
    """
    labels = sorted({v.label for v in vectors})
    index = {lab: i for i, lab in enumerate(labels)}
    X = [[int(x) for x in v.values] for v in vectors]
    y = [index[v.label] for v in vectors]
    n = len(y)
    k = len(labels)

    def majority(rows):
        counts = [0] * k
        for r in rows:
            counts[y[r]] += 1
        return counts.index(max(counts))

    best_score = -1.0
    best = None
    for f in range(len(X[0])):
        values = sorted({row[f] for row in X})
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = (lo + hi) / 2.0
            left = [i for i in range(n) if X[i][f] <= threshold]
            right = [i for i in range(n) if X[i][f] > threshold]
            score = 0.0
            for side in (left, right):
                counts = [0] * k
                for i in side:
                    counts[y[i]] += 1
                score += float(sum(c * c for c in counts)) / len(side)
            if score > best_score:
                best_score = score
                best = (f, threshold, majority(left), majority(right))
    if best is None:
        maj = majority(range(n))
        return [labels[maj]] * n
    f, threshold, left_label, right_label = best
    return [
        labels[left_label if row[f] <= threshold else right_label] for row in X
    ]


def random_vectors(rng: random.Random, n: int, n_features: int, k: int = 2):
    labels = [f"dev{c}" for c in range(k)]
    out = []
    for _ in range(n):
        lab = rng.randrange(k)
        values = tuple(
            rng.randint(-6, 6) + (2 if lab == 1 and rng.random() < 0.4 else 0)
            for _ in range(n_features)
        )
        out.append(FeatureVector(values=values, label=labels[lab]))
    # both classes must be present
    if len({v.label for v in out}) < k:
        out[0] = FeatureVector(values=out[0].values, label=labels[0])
        out[1] = FeatureVector(values=out[1].values, label=labels[1])
    return out


@st.composite
def small_traces(draw, min_size=0, device="dev"):
    """Short traces with runs of equal timestamps, both directions and some
    cover records."""
    n = draw(st.integers(min_size, 40))
    gap = st.sampled_from([0, 0, 1, 999, 400_000, 3_000_000])
    gaps = draw(st.lists(gap, min_size=n, max_size=n))
    sizes = draw(st.lists(st.integers(-1500, 1500).filter(bool), min_size=n, max_size=n))
    covered = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return Trace(np.cumsum(gaps, dtype=np.int64), sizes, covered, device)


def run_bounded(code: str, timeout_s: float = 2.0, address_space: int = 512 * 2**20):
    """Run ``code`` in a fresh interpreter that may map at most
    ``address_space`` bytes and is killed after ``timeout_s``; a loop that
    never ends then fails the test instead of hanging the suite."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    src = str(Path(segshield.__file__).resolve().parents[1])
    try:
        return subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=timeout_s,
            preexec_fn=cap,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"still running after {timeout_s} s")
