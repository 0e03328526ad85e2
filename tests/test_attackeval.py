import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import brute_force_stump, random_vectors
from segshield.attackeval import (
    FeatureVector,
    _best_split,
    evaluate,
    extract_windows,
    f1_score,
    metrics_from_confusion,
    run_attack,
    split_dataset,
    train_forest,
)
from segshield.tracesim import PacketRecord, Trace


def mk_trace(entries, device="dev"):
    records = tuple(
        PacketRecord(timestamp_us=ts, signed_size=s, device=device) for ts, s in entries
    )
    return Trace(records, device)


def labeled(values_label_pairs):
    return [FeatureVector(values=v, label=lab) for v, lab in values_label_pairs]


def reference_best_split(X, y, n_classes, feature_ids):
    """The per-feature split search the vectorized one replaced: features in
    ascending order, a later feature wins only on a strictly higher score."""
    n = len(y)
    best_score = -1.0
    best = None
    onehot = np.zeros((n, n_classes), dtype=np.int64)
    onehot[np.arange(n), y] = 1
    for f in feature_ids:
        values = X[:, f]
        order = np.argsort(values, kind="stable")
        v_sorted = values[order]
        cum = np.cumsum(onehot[order], axis=0)
        boundary = np.nonzero(v_sorted[:-1] != v_sorted[1:])[0]
        if boundary.size == 0:
            continue
        left_counts = cum[boundary]
        right_counts = cum[-1] - left_counts
        n_left = boundary + 1
        n_right = n - n_left
        scores = (
            np.sum(left_counts * left_counts, axis=1) / n_left
            + np.sum(right_counts * right_counts, axis=1) / n_right
        )
        i = int(np.argmax(scores))
        score = float(scores[i])
        if score > best_score:
            best_score = score
            b = boundary[i]
            best = (f, (float(v_sorted[b]) + float(v_sorted[b + 1])) / 2.0)
    return best


def walk_predict(model, vectors):
    """Majority vote of a per-row walk down each tree's nodes."""
    out = []
    for vec in vectors:
        votes = [0] * len(model.labels)
        for node in model.trees:
            while not node.is_leaf:
                node = node.left if vec.values[node.feature] <= node.threshold else node.right
            votes[node.label_index] += 1
        out.append(model.labels[votes.index(max(votes))])
    return out


@st.composite
def split_problems(draw):
    """Small int matrices with heavy ties, some constant columns, 2-4
    classes and a sorted subset of candidate features."""
    n = draw(st.integers(2, 30))
    n_features = draw(st.integers(1, 6))
    n_classes = draw(st.integers(2, 4))
    row = st.lists(st.integers(-2, 2), min_size=n_features, max_size=n_features)
    X = np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=np.int64)
    for f in draw(st.sets(st.integers(0, n_features - 1))):
        X[:, f] = X[0, f]
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    feature_ids = sorted(draw(st.sets(st.integers(0, n_features - 1), min_size=1)))
    return X, y, n_classes, feature_ids


class TestExtractWindows:
    def test_ninety_seconds_three_windows(self):
        trace = mk_trace([(int(t * 1e6), 130) for t in (1, 31, 61, 89)])
        vectors = extract_windows(trace, window_s=30, vector_len=4)
        assert len(vectors) == 3

    def test_zero_padding(self):
        trace = mk_trace([(0, 130), (5, -66)])
        (vec,) = extract_windows(trace, window_s=30, vector_len=4)
        assert vec.values == (130, -66, 0, 0)

    def test_truncation_keeps_first_sizes(self):
        trace = mk_trace([(i, 100 + i) for i in range(9)])
        (vec,) = extract_windows(trace, window_s=30, vector_len=4)
        assert vec.values == (100, 101, 102, 103)
        assert vec.packet_count == 9

    def test_empty_windows_dropped(self):
        trace = mk_trace([(0, 130), (int(95e6), 130)])
        vectors = extract_windows(trace, window_s=30, vector_len=2)
        assert len(vectors) == 2

    def test_window_accounting(self):
        rng = random.Random(0)
        trace = mk_trace(
            [(i * 250_000, rng.choice([130, -116])) for i in range(1200)]
        )
        vectors = extract_windows(trace, window_s=30, vector_len=50)
        assert sum(v.packet_count for v in vectors) == len(trace)

    def test_cover_records_included(self):
        records = (
            PacketRecord(0, 130, device="d"),
            PacketRecord(1, 130, covered=True, device="d"),
        )
        (vec,) = extract_windows(Trace(records, "d"), window_s=30, vector_len=4)
        assert vec.packet_count == 2

    @pytest.mark.parametrize("window_s,vector_len", [(0, 4), (-1, 4), (30, 0)])
    def test_rejects_bad_arguments(self, window_s, vector_len):
        with pytest.raises(ValueError):
            extract_windows(mk_trace([(0, 130)]), window_s, vector_len)

    def test_rejects_window_below_one_microsecond(self):
        with pytest.raises(ValueError, match="window_s"):
            extract_windows(mk_trace([(0, 130)]), 1e-7)


class TestSplitDataset:
    def _vectors(self, n_per_class=50):
        out = []
        for lab in ("a", "b"):
            out.extend(
                FeatureVector(values=(i,), label=lab) for i in range(n_per_class)
            )
        return out

    def test_seventy_thirty(self):
        train, test = split_dataset(self._vectors(50), 0.7, rng=0)
        assert len(train) == 70
        assert len(test) == 30

    def test_stratified(self):
        train, test = split_dataset(self._vectors(50), 0.7, rng=1)
        for part in (train, test):
            assert {v.label for v in part} == {"a", "b"}

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.1])
    def test_rejects_degenerate_fraction(self, fraction):
        with pytest.raises(ValueError):
            split_dataset(self._vectors(), fraction, rng=0)

    def test_rejects_singleton_class(self):
        vectors = self._vectors(5) + [FeatureVector(values=(0,), label="c")]
        with pytest.raises(ValueError):
            split_dataset(vectors, 0.7, rng=0)

    def test_deterministic(self):
        one = split_dataset(self._vectors(), 0.7, rng=5)
        two = split_dataset(self._vectors(), 0.7, rng=5)
        assert one == two


class TestTrainForest:
    def test_separable_toy_set(self):
        train = labeled(
            [((1, 0), "pos")] * 10 + [((-1, 0), "neg")] * 10
        )
        model = train_forest(train, n_trees=5, rng=0)
        assert model.predict(train) == [v.label for v in train]

    def test_identical_features_vote_majority(self):
        train = labeled([((3, 3), "maj")] * 6 + [((3, 3), "min")] * 4)
        model = train_forest(train, n_trees=15, rng=0)
        assert set(model.predict(train)) == {"maj"}

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            train_forest(labeled([((1,), "only")] * 4), rng=0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            train_forest([], rng=0)

    def test_rejects_length_mismatch(self):
        train = labeled([((1, 2), "a"), ((1,), "b")])
        with pytest.raises(ValueError):
            train_forest(train, rng=0)

    def test_deterministic_predictions(self):
        rng = random.Random(2)
        data = random_vectors(rng, 60, 8)
        test = random_vectors(rng, 20, 8)
        one = train_forest(data, n_trees=20, rng=7).predict(test)
        two = train_forest(data, n_trees=20, rng=7).predict(test)
        assert one == two

    def test_noise_features_stay_near_chance(self):
        rng = random.Random(3)
        vectors = [
            FeatureVector(
                values=tuple(rng.randint(-5, 5) for _ in range(10)),
                label=rng.choice(["a", "b"]),
            )
            for _ in range(200)
        ]
        train, test = split_dataset(vectors, 0.7, rng=0)
        model = train_forest(train, n_trees=30, rng=0)
        accuracy = evaluate(model, test).accuracy
        assert 0.3 <= accuracy <= 0.7

    def test_label_noise_does_not_help(self):
        rng = random.Random(4)
        clean = labeled(
            [((rng.randint(5, 9), rng.randint(-3, 3)), "hi") for _ in range(60)]
            + [((rng.randint(-9, -5), rng.randint(-3, 3)), "lo") for _ in range(60)]
        )
        scores = {}
        for tag, flip in (("clean", 0.0), ("noisy", 0.3)):
            accs = []
            for seed in range(3):
                noise = random.Random(seed)
                data = [
                    FeatureVector(
                        v.values,
                        ("hi" if v.label == "lo" else "lo")
                        if noise.random() < flip
                        else v.label,
                    )
                    for v in clean
                ]
                train, test = split_dataset(data, 0.7, rng=seed)
                model = train_forest(train, n_trees=15, rng=seed)
                clean_test = [
                    FeatureVector(t.values, "hi" if t.values[0] > 0 else "lo")
                    for t in test
                ]
                accs.append(evaluate(model, clean_test).accuracy)
            scores[tag] = sum(accs) / len(accs)
        assert scores["noisy"] <= scores["clean"] + 0.05


class TestForestParameters:
    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"max_depth": 0}, "max_depth"),
            ({"max_depth": -2}, "max_depth"),
            ({"max_features": "log2"}, "max_features"),
            ({"max_features": "SQRT"}, "max_features"),
        ],
    )
    def test_rejects_forest_that_does_nothing(self, kwargs, name):
        train = labeled([((1, 0), "a"), ((2, 0), "b")] * 3)
        with pytest.raises(ValueError, match=name):
            train_forest(train, n_trees=3, rng=0, **kwargs)


class TestFlatTrees:
    def test_deep_tree_grows_without_recursion(self):
        # One feature with alternating labels: every split peels off one row.
        train = [FeatureVector(values=(i,), label=f"c{i % 2}") for i in range(1500)]
        model = train_forest(train, n_trees=1, rng=0, bootstrap=False, max_features=None)
        assert model.predict(train) == [v.label for v in train]
        nodes = depth = 0
        todo = [(model.trees[0], 0)]
        while todo:
            node, level = todo.pop()
            nodes += 1
            depth = max(depth, level)
            if not node.is_leaf:
                todo.append((node.left, level + 1))
                todo.append((node.right, level + 1))
        assert (nodes, depth) == (2999, 1499)

    @given(split_problems())
    def test_split_matches_per_feature_loop(self, problem):
        X, y, n_classes, feature_ids = problem
        split = _best_split(X[:, feature_ids].T, y, n_classes)
        got = None if split is None else (feature_ids[split[0]], split[1])
        assert got == reference_best_split(X, y, n_classes, feature_ids)

    @pytest.mark.parametrize("seed", range(3))
    def test_predict_matches_walking_the_trees(self, seed):
        rng = random.Random(seed)
        train = random_vectors(rng, 120, 8, k=3)
        test = random_vectors(rng, 80, 8, k=3)
        model = train_forest(train, n_trees=30, rng=seed)
        assert model.n_trees == 30
        assert model.predict(test) == walk_predict(model, test)
        assert model.predict(train) == walk_predict(model, train)


class TestStumpOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_depth_one_tree_matches_exhaustive_search(self, seed):
        rng = random.Random(seed)
        vectors = random_vectors(rng, 50, rng.randint(3, 6))
        model = train_forest(
            vectors, n_trees=1, max_depth=1, rng=0, bootstrap=False, max_features=None
        )
        assert model.predict(vectors) == brute_force_stump(vectors)


class TestMetrics:
    def test_perfect_confusion(self):
        m = metrics_from_confusion([[5, 0], [0, 5]])
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_hand_computed_two_class(self):
        m = metrics_from_confusion([[3, 2], [1, 4]], labels=("pos", "neg"))
        assert m.accuracy == 0.7
        precision, recall, f1 = m.per_class[0]
        assert precision == 3 / 4
        assert recall == 3 / 5
        assert f1 == pytest.approx(2 / 3, abs=1e-15)

    def test_zero_denominators_define_zero(self):
        m = metrics_from_confusion([[0, 2], [0, 2]])
        assert m.per_class[0] == (0.0, 0.0, 0.0)
        assert f1_score(0.0, 0.0) == 0.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            metrics_from_confusion([[1, 2, 3], [4, 5, 6]])

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            metrics_from_confusion([[0, 0], [0, 0]])

    @pytest.mark.parametrize("seed", range(30))
    def test_f1_identity_and_exact_accuracy(self, seed):
        rng = random.Random(seed)
        k = rng.randint(2, 5)
        mat = [[rng.randint(0, 40) for _ in range(k)] for _ in range(k)]
        mat[0][0] += 1  # keep the matrix non-zero
        m = metrics_from_confusion(mat)
        total = sum(sum(row) for row in mat)
        assert m.accuracy == sum(mat[i][i] for i in range(k)) / total
        for i, (precision, recall, f1) in enumerate(m.per_class):
            tp = mat[i][i]
            fp = sum(mat[r][i] for r in range(k)) - tp
            fn = sum(mat[i]) - tp
            direct = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
            assert abs(f1 - direct) <= 1e-12


class TestEvaluateAndRunAttack:
    def test_rejects_empty_test(self):
        model = train_forest(labeled([((1,), "a"), ((2,), "b")] * 3), n_trees=3, rng=0)
        with pytest.raises(ValueError):
            evaluate(model, [])

    def test_disjoint_profiles_separate(self):
        a = mk_trace([(i * 100_000, 130) for i in range(3000)], device="a")
        b = mk_trace([(i * 100_000, 400) for i in range(3000)], device="b")
        metrics = run_attack([a, b], window_s=30, vector_len=50, n_trees=10, seed=0)
        assert metrics.accuracy >= 0.95

    def test_seeded_end_to_end_deterministic(self):
        a = mk_trace([(i * 400_000, 130) for i in range(900)], device="a")
        b = mk_trace([(i * 400_000, 134) for i in range(900)], device="b")
        one = run_attack([a, b], vector_len=30, n_trees=10, seed=4)
        two = run_attack([a, b], vector_len=30, n_trees=10, seed=4)
        assert one == two
