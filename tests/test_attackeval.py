import math
import random
from dataclasses import fields
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import brute_force_stump, random_vectors, small_traces
from segshield import attackeval
from segshield.attackeval import (
    FeatureVector,
    ForestNodes,
    _bootstrap_rows,
    _rank_keys,
    _search_splits,
    _sorted_sample,
    evaluate,
    extract_windows,
    f1_score,
    metrics_from_confusion,
    run_attack,
    split_dataset,
    train_forest,
)
from segshield.rng import derive_seed, make_rng
from segshield.tracesim import Trace, window_us


def mk_trace(entries, device="dev"):
    timestamps = [ts for ts, _ in entries]
    sizes = [s for _, s in entries]
    return Trace(timestamps, sizes, np.zeros(len(entries), bool), device)


def bucket_windows(trace, window_s, vector_len):
    """The per-record bucket loop the column cut replaced."""
    width = window_us(window_s)
    buckets = {}
    for ts, size in zip(trace.timestamp_us.tolist(), trace.signed_size.tolist()):
        buckets.setdefault(ts // width, []).append(size)
    vectors = []
    for idx in sorted(buckets):
        sizes = buckets[idx]
        padded = sizes[:vector_len] + [0] * max(vector_len - len(sizes), 0)
        vectors.append(
            FeatureVector(values=tuple(padded), label=trace.device, packet_count=len(sizes))
        )
    return vectors


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


def _best_split(values, y, n_classes):
    """Exhaustive best split over the rows of ``values`` (one row per
    candidate feature, one column per sample), as (row, threshold), or None
    when no row varies: ``_search_splits`` on one node."""
    keys, distinct = _rank_keys(values, y, n_classes)
    column, threshold = _search_splits(
        keys,
        distinct,
        np.bincount(y, minlength=n_classes)[None, :],
        [np.arange(len(y))],
        np.arange(len(values))[None, :],
    )
    if column[0] < 0:
        return None
    return int(column[0]), float(threshold[0])


def walk_predict(model, vectors):
    """Majority vote of a per-row walk down each tree's node arrays; a split
    node's left child is the node after it."""
    nodes = model.nodes
    out = []
    for vec in vectors:
        votes = [0] * len(model.labels)
        for node in model.roots:
            while nodes.feature[node] >= 0:
                goes_left = vec.values[nodes.feature[node]] <= nodes.threshold[node]
                node = node + 1 if goes_left else nodes.right[node]
            votes[nodes.label[node]] += 1
        out.append(model.labels[votes.index(max(votes))])
    return out


def reference_grow_tree(XT, y, rows, n_classes, max_depth, max_features, rng, first):
    """One tree from an explicit stack, one node and one split search at a
    time: the loop that lockstep growth replaced."""
    n_features = len(XT)
    feature, threshold, right, label = [], [], [], []
    stack = [(rows, 0, -1)]  # (rows, depth, parent whose right child this is)
    while stack:
        rows, depth, parent = stack.pop()
        node = len(label)
        if parent >= 0:
            right[parent] = first + node
        y_node = y[rows]
        counts = np.bincount(y_node, minlength=n_classes)
        majority = int(counts.argmax())
        label.append(majority)
        feature.append(-1)
        threshold.append(0.0)
        right.append(-1)
        if counts[majority] == len(rows) or (max_depth is not None and depth >= max_depth):
            continue
        if max_features is None or max_features >= n_features:
            feature_ids = np.arange(n_features)
        else:
            feature_ids = np.array(sorted(rng.sample(range(n_features), max_features)))
        split = _best_split(XT[feature_ids[:, None], rows], y_node, n_classes)
        if split is None:
            continue
        column, cut = split
        feature[node] = f = int(feature_ids[column])
        threshold[node] = cut
        goes_left = XT[f, rows] <= cut
        stack.append((rows[~goes_left], depth + 1, node))
        stack.append((rows[goes_left], depth + 1, -1))
    splits = np.array(feature, dtype=np.int64)
    return ForestNodes(
        feature=splits,
        threshold=np.array(threshold, dtype=np.float64),
        right=np.array(right, dtype=np.int64),
        label=np.array(label, dtype=np.int64),
    )


def reference_train_forest(
    train, n_trees=100, max_depth=None, rng=0, bootstrap=True, max_features="sqrt"
):
    """A forest grown tree by tree, each bootstrap drawn one randrange at a
    time; returns (nodes, roots, seed)."""
    labels = sorted({v.label for v in train})
    y = np.array([labels.index(v.label) for v in train])
    XT = np.array([v.values for v in train], dtype=np.int64).T
    n_features = len(XT)
    if max_features == "sqrt":
        max_features = max(isqrt(n_features), 1)
    seed = make_rng(rng).getrandbits(63)
    n = len(train)
    trees, roots, n_nodes = [], [], 0
    for t in range(n_trees):
        tree_rng = random.Random(derive_seed(seed, "tree", t))
        if bootstrap:
            rows = np.array([tree_rng.randrange(n) for _ in range(n)], dtype=np.int64)
        else:
            rows = np.arange(n)
        tree = reference_grow_tree(
            XT, y, rows, len(labels), max_depth, max_features, tree_rng, n_nodes
        )
        trees.append(tree)
        roots.append(n_nodes)
        n_nodes += len(tree.label)
    nodes = ForestNodes(
        *(np.concatenate([getattr(t, f.name) for t in trees]) for f in fields(ForestNodes))
    )
    return nodes, tuple(roots), seed


def tie_heavy_matrix(draw, n, n_features):
    """An n x n_features int matrix drawn from a few values, small ones and
    ones near +-2**62. The large ones lie 4096 apart, so the float midpoint
    of any two distinct values lies strictly between them."""
    near = st.builds(
        lambda sign, d: sign * 2**62 + 4096 * d, st.sampled_from([-1, 1]), st.integers(-3, 3)
    )
    palette = draw(st.lists(st.integers(-3, 3) | near, min_size=1, max_size=6))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array(palette, dtype=np.int64)[gen.integers(len(palette), size=(n, n_features))]


@st.composite
def forest_problems(draw):
    """Training sets of 2-300 rows, 1-250 features and 2-5 classes, and
    forest parameters. At most 21 features, CPython's ``sample`` draws from
    a pool; above that, from a set."""
    n = draw(st.integers(2, 300))
    n_features = draw(st.integers(1, 250))
    n_classes = draw(st.integers(2, 5))
    X = tie_heavy_matrix(draw, n, n_features)
    y = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(n_classes, size=n)
    y[:2] = [0, 1]
    train = [FeatureVector(tuple(row), f"c{c}") for row, c in zip(X.tolist(), y.tolist())]
    kwargs = {
        "n_trees": draw(st.integers(1, 4)),
        "max_depth": draw(st.sampled_from([None, 1, 3])),
        "rng": draw(st.integers(0, 2**32)),
        "bootstrap": draw(st.booleans()),
        "max_features": draw(
            st.sampled_from(["sqrt", None]) | st.integers(1, n_features)
        ),
    }
    return train, kwargs


@st.composite
def search_batches(draw):
    """A tie-heavy matrix and a batch of nodes: rows drawn with repeats, and
    the same number of ascending candidate features for every node."""
    n = draw(st.integers(2, 40))
    n_features = draw(st.integers(1, 8))
    n_classes = draw(st.integers(2, 4))
    XT = np.ascontiguousarray(tie_heavy_matrix(draw, n, n_features).T)
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    m = draw(st.integers(1, n_features))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=2, max_size=30).map(np.array),
            min_size=1,
            max_size=6,
        )
    )
    candidates = np.array(
        [
            sorted(draw(st.sets(st.integers(0, n_features - 1), min_size=m, max_size=m)))
            for _ in rows
        ]
    )
    return XT, y, n_classes, rows, candidates


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
        trace = Trace([0, 1], [130, 130], [False, True], "d")
        (vec,) = extract_windows(trace, window_s=30, vector_len=4)
        assert vec.packet_count == 2

    @given(
        trace=small_traces(),
        window_s=st.sampled_from([1e-6, 0.5, 1.0, 2.5, 30.0]),
        vector_len=st.integers(1, 6),
    )
    def test_matches_bucket_loop(self, trace, window_s, vector_len):
        assert extract_windows(trace, window_s, vector_len) == bucket_windows(
            trace, window_s, vector_len
        )

    @pytest.mark.parametrize("window_s,vector_len", [(0, 4), (-1, 4), (30, 0)])
    def test_rejects_bad_arguments(self, window_s, vector_len):
        with pytest.raises(ValueError):
            extract_windows(mk_trace([(0, 130)]), window_s, vector_len)

    def test_rejects_window_below_one_microsecond(self):
        with pytest.raises(ValueError, match="window_s"):
            extract_windows(mk_trace([(0, 130)]), 1e-7)

    @pytest.mark.parametrize("window_s", [math.inf, -math.inf, math.nan])
    def test_rejects_window_that_is_not_finite(self, window_s):
        with pytest.raises(ValueError, match="^window_s: must be finite"):
            extract_windows(mk_trace([(0, 130)]), window_s)


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

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"n_trees": True}, "n_trees"),
            ({"n_trees": 2.5}, "n_trees"),
            ({"n_trees": 2.0}, "n_trees"),
            ({"max_depth": 1.5}, "max_depth"),
            ({"max_depth": True}, "max_depth"),
            ({"max_features": True}, "max_features"),
            ({"max_features": 1.7}, "max_features"),
            ({"rng": -1}, "rng"),
        ],
    )
    def test_rejects_parameters_that_are_not_integers(self, kwargs, name):
        # The vectors differ in length: only a check made before the
        # training matrix is built names the parameter.
        train = labeled([((1, 0), "a"), ((2,), "b")])
        with pytest.raises(ValueError, match=name):
            train_forest(train, **{"n_trees": 3, "rng": 0, **kwargs})

    @pytest.mark.parametrize("rng", [-1, "x", 1.5])
    def test_rejects_rng_before_building_the_training_matrix(self, monkeypatch, rng):
        calls = []
        monkeypatch.setattr(attackeval, "_as_matrix", lambda *args: calls.append(args))
        train = labeled([((1, 0), "a"), ((2, 0), "b")] * 3)
        with pytest.raises((TypeError, ValueError), match="^rng"):
            train_forest(train, 3, rng=rng)
        assert calls == []

    @pytest.mark.parametrize("vector_len", [True, 2.5, 200.0])
    def test_rejects_vector_len_that_is_not_an_integer(self, vector_len):
        with pytest.raises(ValueError, match="vector_len"):
            extract_windows(Trace([0], [130], [False], "dev"), 30.0, vector_len)

    def test_accepts_numpy_integers(self):
        train = labeled([((1, 0), "a"), ((2, 0), "b")] * 3)
        model = train_forest(
            train, n_trees=np.int64(2), max_depth=np.int32(2), max_features=np.int64(1), rng=0
        )
        assert model.n_trees == 2

    def test_rejects_vectors_without_features(self):
        with pytest.raises(ValueError, match="feature"):
            train_forest(labeled([((), "a"), ((), "b")]), rng=0)

    def test_rejects_more_candidate_features_than_the_vectors_hold(self):
        train = labeled([((1, 0), "a"), ((2, 0), "b")] * 3)
        with pytest.raises(ValueError) as err:
            train_forest(train, n_trees=3, rng=0, max_features=3)
        assert str(err.value) == "max_features must be <= 2 features, got 3"


class TestFeatureVector:
    @pytest.mark.parametrize(
        "values,index",
        [
            ((1.7, True), 0),
            ((1, True), 1),
            ((1, np.bool_(False)), 1),
            ((0, 2, -0.5), 2),
            ((float("nan"),), 0),
            (("3",), 0),
        ],
    )
    def test_rejects_values_that_are_not_integers(self, values, index):
        with pytest.raises(ValueError, match=rf"values\[{index}\]"):
            FeatureVector(values, "x")

    def test_keeps_integral_values_as_ints(self):
        vec = FeatureVector((np.int64(5), np.int32(-2), 3.0, 7), "x")
        assert vec.values == (5, -2, 3, 7)
        assert {type(v) for v in vec.values} == {int}


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

    @pytest.mark.parametrize("max_depth", [20, None])
    def test_inseparable_float_midpoint_raises(self, max_depth):
        # Floats near 2**62 lie 1024 apart, so the midpoint rounds onto the upper value.
        train = labeled([((2**62 + 1024,), "a"), ((2**62 + 2048,), "b")])
        match = r"feature 0 between 4611686018427388928 and 4611686018427389952"
        with pytest.raises(ValueError, match=match):
            train_forest(
                train, n_trees=1, max_depth=max_depth, bootstrap=False, max_features=None
            )

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


class TestLockstepForest:
    @given(forest_problems())
    def test_matches_tree_by_tree_loop(self, problem):
        train, kwargs = problem
        model = train_forest(train, **kwargs)
        nodes, roots, seed = reference_train_forest(train, **kwargs)
        for f in fields(ForestNodes):
            got, want = getattr(model.nodes, f.name), getattr(nodes, f.name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert (model.roots, model.seed) == (roots, seed)

    @pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 538, 10**5])
    def test_block_bootstrap_matches_randrange(self, n):
        block, loop = random.Random(n), random.Random(n)
        rows = _bootstrap_rows(block, n)
        assert rows.dtype == np.int64
        assert rows.tolist() == [loop.randrange(n) for _ in range(n)]
        assert block.getstate() == loop.getstate()

    # CPython's sample draws from a pool of the unselected while n is at most
    # 21 + (k > 5 and 4 ** ceil(log(3k, 4))), else into a set of the selected:
    # pools up to n = 21, 85 and 277 here, sets just above.
    @pytest.mark.parametrize(
        "n,k",
        [(1, 1), (5, 5), (21, 5), (22, 1), (22, 5), (85, 6), (86, 6), (85, 21), (86, 21),
         (277, 22), (278, 22), (300, 300)],
    )
    def test_feature_sample_matches_sample_at_each_branch_edge(self, n, k):
        for seed in range(20):
            inlined, stdlib = random.Random(seed), random.Random(seed)
            assert _sorted_sample(inlined, n, k) == sorted(stdlib.sample(range(n), k))
            assert inlined.getstate() == stdlib.getstate()

    @given(n=st.integers(1, 300), data=st.data(), seed=st.integers(0, 2**32))
    def test_feature_sample_matches_sample(self, n, data, seed):
        # k of 1, up to 5 and above 5 take CPython's three set-size rules.
        k = data.draw(st.sampled_from([1, min(n, 5), n]) | st.integers(1, n))
        inlined, stdlib = random.Random(seed), random.Random(seed)
        for _ in range(3):  # successive nodes of one tree draw from one generator
            assert _sorted_sample(inlined, n, k) == sorted(stdlib.sample(range(n), k))
        assert inlined.getstate() == stdlib.getstate()

    @given(search_batches())
    def test_batched_search_matches_one_node_at_a_time(self, batch):
        XT, y, n_classes, rows, candidates = batch
        keys, values = _rank_keys(XT, y, n_classes)
        counts = np.array([np.bincount(y[r], minlength=n_classes) for r in rows])
        column, threshold = _search_splits(keys, values, counts, rows, candidates)
        for b, node in enumerate(zip(counts, rows, candidates)):
            one = _search_splits(keys, values, *(np.array([part]) for part in node))
            assert (column[b], threshold[b]) == (one[0][0], one[1][0])
            got = None if column[b] < 0 else (candidates[b][column[b]], threshold[b])
            want = reference_best_split(XT[:, rows[b]].T, y[rows[b]], n_classes, candidates[b])
            assert got == want


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

    def test_rejects_labels_that_do_not_name_every_class(self):
        with pytest.raises(ValueError) as err:
            metrics_from_confusion([[1, 0], [0, 1]], labels=("a",))
        assert str(err.value) == "labels length must match matrix size"

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
