"""Device-identification adversary: windowed size features, a from-scratch
random forest, and confusion-matrix metrics.

The classifier is rebuilt here rather than imported so that training is
bit-reproducible from a single integer seed and so a depth-1 single-tree
forest can be checked exactly against an exhaustive split search. Split
scores use integer squared class counts with one float division per side,
which keeps scores identical between the vectorized trainer and any naive
reimplementation.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from math import isqrt
from typing import Sequence

import numpy as np

from .rng import derive_seed, make_rng
from .tracesim import Trace

DEFAULT_VECTOR_LEN = 200
DEFAULT_WINDOW_S = 30.0
DEFAULT_TRAIN_FRACTION = 0.7
DEFAULT_N_TREES = 100


@dataclass(frozen=True)
class FeatureVector:
    """Signed sizes of one observation window, zero-padded or truncated to a
    fixed length. packet_count keeps the pre-truncation total."""

    values: tuple[int, ...]
    label: str
    packet_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))


def extract_windows(
    trace: Trace,
    window_s: float = DEFAULT_WINDOW_S,
    vector_len: int = DEFAULT_VECTOR_LEN,
) -> list[FeatureVector]:
    """Cut the trace into fixed windows and emit one vector per non-empty
    window. Cover records are included: the observer cannot strip them."""
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    if vector_len <= 0:
        raise ValueError("vector_len must be positive")
    window_us = round(window_s * 1e6)
    buckets: dict[int, list[int]] = {}
    for rec in trace.records:
        buckets.setdefault(rec.timestamp_us // window_us, []).append(rec.signed_size)
    vectors = []
    for idx in sorted(buckets):
        sizes = buckets[idx]
        padded = sizes[:vector_len] + [0] * max(vector_len - len(sizes), 0)
        vectors.append(
            FeatureVector(values=tuple(padded), label=trace.device, packet_count=len(sizes))
        )
    return vectors


def split_dataset(
    vectors: Sequence[FeatureVector],
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    rng: random.Random | int = 0,
) -> tuple[list[FeatureVector], list[FeatureVector]]:
    """Stratified shuffle split; every class lands in both partitions."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be strictly between 0 and 1")
    rng = make_rng(rng)
    by_label: dict[str, list[FeatureVector]] = {}
    for vec in vectors:
        by_label.setdefault(vec.label, []).append(vec)
    train: list[FeatureVector] = []
    test: list[FeatureVector] = []
    for label in sorted(by_label):
        group = by_label[label]
        if len(group) < 2:
            raise ValueError(f"class {label!r} has {len(group)} sample(s); need >= 2")
        order = list(range(len(group)))
        rng.shuffle(order)
        n_train = round(len(group) * train_fraction)
        n_train = min(max(n_train, 1), len(group) - 1)
        train.extend(group[i] for i in order[:n_train])
        test.extend(group[i] for i in order[n_train:])
    return train, test


# ---------------------------------------------------------------------------
# decision trees


@dataclass(frozen=True)
class TreeNode:
    """Axis-aligned split node; a leaf stores label_index and no children."""

    label_index: int
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _majority_index(counts: np.ndarray) -> int:
    # np.argmax takes the first maximum, i.e. the smallest label index on ties.
    return int(np.argmax(counts))


def _best_split(
    X: np.ndarray, y: np.ndarray, n_classes: int, feature_ids: Sequence[int]
) -> tuple[int, float] | None:
    """Exhaustive best split over the given features.

    Score to maximize: sum(left_counts^2)/n_left + sum(right_counts^2)/n_right,
    equivalent to minimizing weighted Gini impurity. Squared counts stay in
    integers; ties resolve to the lowest feature id, then lowest threshold.
    """
    n = len(y)
    best_score = -1.0
    best: tuple[int, float] | None = None
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


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    max_depth: int | None,
    max_features: int | None,
    rng: random.Random,
    depth: int = 0,
) -> TreeNode:
    counts = np.bincount(y, minlength=n_classes)
    label_index = _majority_index(counts)
    if np.count_nonzero(counts) <= 1:
        return TreeNode(label_index)
    if max_depth is not None and depth >= max_depth:
        return TreeNode(label_index)
    n_features = X.shape[1]
    if max_features is None or max_features >= n_features:
        feature_ids: Sequence[int] = range(n_features)
    else:
        feature_ids = sorted(rng.sample(range(n_features), max_features))
    split = _best_split(X, y, n_classes, feature_ids)
    if split is None:
        return TreeNode(label_index)
    f, threshold = split
    mask = X[:, f] <= threshold
    left = _grow_tree(X[mask], y[mask], n_classes, max_depth, max_features, rng, depth + 1)
    right = _grow_tree(X[~mask], y[~mask], n_classes, max_depth, max_features, rng, depth + 1)
    return TreeNode(label_index, f, threshold, left, right)


def _tree_predict(node: TreeNode, row: np.ndarray) -> int:
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.label_index


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[TreeNode, ...]
    labels: tuple[str, ...]
    n_features: int
    max_depth: int | None
    seed: int

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def predict(self, vectors: Sequence[FeatureVector]) -> list[str]:
        X = _as_matrix(vectors, self.n_features)
        out = []
        for row in X:
            votes = np.zeros(len(self.labels), dtype=np.int64)
            for tree in self.trees:
                votes[_tree_predict(tree, row)] += 1
            out.append(self.labels[_majority_index(votes)])
        return out


def _as_matrix(vectors: Sequence[FeatureVector], n_features: int) -> np.ndarray:
    X = np.zeros((len(vectors), n_features), dtype=np.int64)
    for i, vec in enumerate(vectors):
        if len(vec.values) != n_features:
            raise ValueError(
                f"vector {i} has length {len(vec.values)}, dataset uses {n_features}"
            )
        X[i] = vec.values
    return X


def train_forest(
    train: Sequence[FeatureVector],
    n_trees: int = DEFAULT_N_TREES,
    max_depth: int | None = None,
    rng: random.Random | int = 0,
    bootstrap: bool = True,
    max_features: int | str | None = "sqrt",
) -> ForestModel:
    """Fit a random forest on labeled vectors.

    bootstrap=False and max_features=None turn off both randomizations,
    which makes a 1-tree forest an exhaustive split optimizer.
    """
    if not train:
        raise ValueError("training set is empty")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    labels = tuple(sorted({v.label for v in train}))
    if len(labels) < 2:
        raise ValueError(f"training set has a single class {labels[0]!r}")
    label_index = {lab: i for i, lab in enumerate(labels)}
    n_features = len(train[0].values)
    X = _as_matrix(train, n_features)
    y = np.array([label_index[v.label] for v in train], dtype=np.int64)

    if max_features == "sqrt":
        n_candidates: int | None = max(isqrt(n_features), 1)
    elif max_features is None:
        n_candidates = None
    else:
        n_candidates = int(max_features)
        if not 1 <= n_candidates <= n_features:
            raise ValueError("max_features out of range")

    base = make_rng(rng)
    seed = base.getrandbits(63)
    n = len(train)
    trees = []
    for t in range(n_trees):
        tree_rng = random.Random(derive_seed(seed, "tree", t))
        if bootstrap:
            idx = np.array([tree_rng.randrange(n) for _ in range(n)], dtype=np.int64)
            Xt, yt = X[idx], y[idx]
        else:
            Xt, yt = X, y
        trees.append(_grow_tree(Xt, yt, len(labels), max_depth, n_candidates, tree_rng))
    return ForestModel(
        trees=tuple(trees),
        labels=labels,
        n_features=n_features,
        max_depth=max_depth,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class Metrics:
    """Confusion matrix (rows = true class, columns = predicted) plus
    accuracy and macro-averaged precision/recall/f1."""

    labels: tuple[str, ...]
    confusion: tuple[tuple[int, ...], ...]
    accuracy: float
    precision: float
    recall: float
    f1: float
    per_class: tuple[tuple[float, float, float], ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "labels": list(self.labels),
            "confusion": [list(row) for row in self.confusion],
            "per_class": {
                lab: {"precision": p, "recall": r, "f1": f}
                for lab, (p, r, f) in zip(self.labels, self.per_class)
            },
        }


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean; 0 when both rates are 0."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def metrics_from_confusion(
    confusion: Sequence[Sequence[int]], labels: Sequence[str] | None = None
) -> Metrics:
    mat = [[int(c) for c in row] for row in confusion]
    k = len(mat)
    if k == 0 or any(len(row) != k for row in mat):
        raise ValueError("confusion matrix must be square and non-empty")
    if labels is None:
        labels = tuple(str(i) for i in range(k))
    elif len(labels) != k:
        raise ValueError("labels length must match matrix size")
    total = sum(sum(row) for row in mat)
    if total == 0:
        raise ValueError("confusion matrix is all zeros")
    accuracy = sum(mat[i][i] for i in range(k)) / total
    per_class = []
    for i in range(k):
        tp = mat[i][i]
        col = sum(mat[r][i] for r in range(k))
        row = sum(mat[i])
        precision = tp / col if col else 0.0
        recall = tp / row if row else 0.0
        per_class.append((precision, recall, f1_score(precision, recall)))
    macro_p = sum(p for p, _, _ in per_class) / k
    macro_r = sum(r for _, r, _ in per_class) / k
    macro_f = sum(f for _, _, f in per_class) / k
    return Metrics(
        labels=tuple(labels),
        confusion=tuple(tuple(row) for row in mat),
        accuracy=accuracy,
        precision=macro_p,
        recall=macro_r,
        f1=macro_f,
        per_class=tuple(per_class),
    )


def evaluate(model: ForestModel, test: Sequence[FeatureVector]) -> Metrics:
    """Predict the test set and compute all metrics."""
    if not test:
        raise ValueError("test set is empty")
    predicted = model.predict(test)
    labels = tuple(sorted({*model.labels, *(v.label for v in test)}))
    index = {lab: i for i, lab in enumerate(labels)}
    mat = [[0] * len(labels) for _ in labels]
    for vec, pred in zip(test, predicted):
        mat[index[vec.label]][index[pred]] += 1
    return metrics_from_confusion(mat, labels)


def run_attack(
    traces: Sequence[Trace],
    window_s: float = DEFAULT_WINDOW_S,
    vector_len: int = DEFAULT_VECTOR_LEN,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    n_trees: int = DEFAULT_N_TREES,
    max_depth: int | None = None,
    seed: int = 0,
) -> Metrics:
    """End-to-end attack: windows -> split -> forest -> metrics."""
    vectors: list[FeatureVector] = []
    for trace in traces:
        vectors.extend(extract_windows(trace, window_s, vector_len))
    train, test = split_dataset(vectors, train_fraction, random.Random(derive_seed(seed, "split")))
    model = train_forest(
        train, n_trees=n_trees, max_depth=max_depth, rng=random.Random(derive_seed(seed, "forest"))
    )
    return evaluate(model, test)
