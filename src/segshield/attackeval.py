"""Device-identification adversary: windowed size features, a from-scratch
random forest, and confusion-matrix metrics.

The classifier is rebuilt here rather than imported so that training is
bit-reproducible from a single integer seed and so a depth-1 single-tree
forest can be checked exactly against an exhaustive split search.

A forest is a set of flat node arrays (feature, threshold, left, right,
label), one entry per node and the trees back to back, as in scikit-learn's
tree. Trees grow from an explicit stack, so depth is bounded by memory, not
by the interpreter's recursion limit. Each node's split search sorts and
accumulates class counts for all candidate features in one numpy pass; the
scores are integer squared class counts with one float division per side,
so they are bit-identical to a per-feature loop (kept in the tests as the
reference). Prediction routes every (row, tree) pair one level at a time.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, fields
from math import isqrt
from typing import Sequence

import numpy as np

from .rng import derive_seed, make_rng
from .tracesim import Trace, window_us

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


def check_attack_parameters(
    window_s: float = DEFAULT_WINDOW_S,
    vector_len: int = DEFAULT_VECTOR_LEN,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    n_trees: int = DEFAULT_N_TREES,
    max_depth: int | None = None,
) -> int:
    """The one check of the attack's parameters, which a caller can also run
    before it reads any trace. Raise ValueError naming the first bad one;
    return the window width in microseconds."""
    width = window_us(window_s)
    if vector_len <= 0:
        raise ValueError("vector_len must be positive")
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be strictly between 0 and 1")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    if max_depth is not None and max_depth < 1:
        raise ValueError(f"max_depth must be >= 1 or None, got {max_depth!r}")
    return width


def extract_windows(
    trace: Trace,
    window_s: float = DEFAULT_WINDOW_S,
    vector_len: int = DEFAULT_VECTOR_LEN,
) -> list[FeatureVector]:
    """Cut the trace into fixed windows and emit one vector per non-empty
    window. Cover records are included: the observer cannot strip them."""
    width = check_attack_parameters(window_s, vector_len)
    # Timestamps are sorted, so each window's records are a contiguous run.
    starts = np.unique(trace.timestamp_us // width, return_index=True)[1].tolist()
    sizes = trace.signed_size.tolist()
    return [
        FeatureVector((sizes[a:b] + [0] * vector_len)[:vector_len], trace.device, b - a)
        for a, b in zip(starts, [*starts[1:], len(sizes)])
    ]


def split_dataset(
    vectors: Sequence[FeatureVector],
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    rng: random.Random | int = 0,
) -> tuple[list[FeatureVector], list[FeatureVector]]:
    """Stratified shuffle split; every class lands in both partitions."""
    check_attack_parameters(train_fraction=train_fraction)
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


@dataclass(frozen=True, eq=False)
class ForestNodes:
    """Every node of a forest in flat arrays, one entry per node. A split
    node sends a row to ``left`` when ``row[feature] <= threshold``, else to
    ``right``; a leaf has ``feature == -1`` and children -1 and votes for
    ``label``."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    label: np.ndarray


@dataclass(frozen=True)
class TreeNode:
    """Read-only view of one node of a ``ForestNodes``."""

    nodes: ForestNodes
    index: int

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0

    @property
    def feature(self) -> int:
        return int(self.nodes.feature[self.index])

    @property
    def threshold(self) -> float:
        return float(self.nodes.threshold[self.index])

    @property
    def label_index(self) -> int:
        return int(self.nodes.label[self.index])

    @property
    def left(self) -> "TreeNode | None":
        return None if self.is_leaf else TreeNode(self.nodes, int(self.nodes.left[self.index]))

    @property
    def right(self) -> "TreeNode | None":
        return None if self.is_leaf else TreeNode(self.nodes, int(self.nodes.right[self.index]))


def _best_split(values: np.ndarray, y: np.ndarray, n_classes: int) -> tuple[int, float] | None:
    """Exhaustive best split over the rows of ``values`` (one row per
    candidate feature, one column per sample), as (row, threshold), or None
    when no row varies.

    Score to maximize: sum(left_counts^2)/n_left + sum(right_counts^2)/n_right,
    equivalent to minimizing weighted Gini impurity. Squared counts stay in
    integers; ties resolve to the lowest row, then the lowest threshold.
    """
    n = len(y)
    # Class counts are read only between distinct values, so the order
    # within a run of equal values does not matter.
    order = values.argsort(axis=1)
    v_sorted = np.sort(values, axis=1)
    classes = np.arange(n_classes)[:, None, None]
    cum = (y[order] == classes).cumsum(axis=2, dtype=np.int64)  # (k, F, n)
    left_counts = cum[:, :, :-1]
    right_counts = cum[:, :, -1:] - left_counts
    n_left = np.arange(1, n)
    scores = (left_counts * left_counts).sum(axis=0) / n_left + (
        right_counts * right_counts
    ).sum(axis=0) / (n - n_left)
    # Every real score is positive; -1 marks a cut between equal values.
    scores[v_sorted[:, :-1] == v_sorted[:, 1:]] = -1.0
    row, b = divmod(int(scores.argmax()), n - 1)
    if scores[row, b] < 0:
        return None
    return row, (float(v_sorted[row, b]) + float(v_sorted[row, b + 1])) / 2.0


def _grow_tree(
    XT: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    n_classes: int,
    max_depth: int | None,
    max_features: int | None,
    rng: random.Random,
    first: int,
) -> ForestNodes:
    """Grow one tree on the samples ``rows`` of ``XT`` (features x samples)
    into flat arrays whose node ids start at ``first``. Nodes are numbered in
    preorder, the order in which ``rng`` draws each node's candidate
    features, so a split node's left child is the next node."""
    n_features = len(XT)
    feature: list[int] = []
    threshold: list[float] = []
    right: list[int] = []
    label: list[int] = []
    stack = [(rows, 0, -1)]  # (rows, depth, parent whose right child this is)
    while stack:
        rows, depth, parent = stack.pop()
        node = len(label)
        if parent >= 0:
            right[parent] = first + node
        y_node = y[rows]
        counts = np.bincount(y_node, minlength=n_classes)
        # argmax takes the first maximum, i.e. the smallest label index on ties.
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
        left=np.where(splits >= 0, first + np.arange(1, len(label) + 1), -1),
        right=np.array(right, dtype=np.int64),
        label=np.array(label, dtype=np.int64),
    )


@dataclass(frozen=True)
class ForestModel:
    """A trained forest: its nodes, the node id of each tree's root, and the
    class labels that node ``label`` values index."""

    nodes: ForestNodes
    roots: tuple[int, ...]
    labels: tuple[str, ...]
    n_features: int
    max_depth: int | None
    seed: int

    @property
    def trees(self) -> tuple[TreeNode, ...]:
        """The root of each tree."""
        return tuple(TreeNode(self.nodes, root) for root in self.roots)

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    def predict(self, vectors: Sequence[FeatureVector]) -> list[str]:
        """Route every (row, tree) pair down one level at a time, then take
        each row's majority vote (the smallest label index on ties)."""
        X = _as_matrix(vectors, self.n_features)
        nodes = self.nodes
        n_rows, n_trees, k = len(X), len(self.roots), len(self.labels)
        row = np.repeat(np.arange(n_rows), n_trees)
        at = np.tile(np.array(self.roots, dtype=np.int64), n_rows)
        active = np.flatnonzero(nodes.feature[at] >= 0)
        while active.size:
            cur = at[active]
            goes_left = X[row[active], nodes.feature[cur]] <= nodes.threshold[cur]
            at[active] = np.where(goes_left, nodes.left[cur], nodes.right[cur])
            active = active[nodes.feature[at[active]] >= 0]
        votes = np.bincount(row * k + nodes.label[at], minlength=n_rows * k)
        return [self.labels[i] for i in np.argmax(votes.reshape(n_rows, k), axis=1)]


def _as_matrix(vectors: Sequence[FeatureVector], n_features: int) -> np.ndarray:
    for i, vec in enumerate(vectors):
        if len(vec.values) != n_features:
            raise ValueError(
                f"vector {i} has length {len(vec.values)}, dataset uses {n_features}"
            )
    return np.array([vec.values for vec in vectors], dtype=np.int64).reshape(
        len(vectors), n_features
    )


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
    check_attack_parameters(n_trees=n_trees, max_depth=max_depth)
    if isinstance(max_features, str) and max_features != "sqrt":
        raise ValueError(f"max_features must be 'sqrt', an int or None, got {max_features!r}")
    labels = tuple(sorted({v.label for v in train}))
    if len(labels) < 2:
        raise ValueError(f"training set has a single class {labels[0]!r}")
    label_index = {lab: i for i, lab in enumerate(labels)}
    n_features = len(train[0].values)
    XT = np.ascontiguousarray(_as_matrix(train, n_features).T)
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
    trees: list[ForestNodes] = []
    roots: list[int] = []
    n_nodes = 0
    for t in range(n_trees):
        tree_rng = random.Random(derive_seed(seed, "tree", t))
        if bootstrap:
            rows = np.array([tree_rng.randrange(n) for _ in range(n)], dtype=np.int64)
        else:
            rows = np.arange(n)
        tree = _grow_tree(XT, y, rows, len(labels), max_depth, n_candidates, tree_rng, n_nodes)
        trees.append(tree)
        roots.append(n_nodes)
        n_nodes += len(tree.label)
    return ForestModel(
        nodes=ForestNodes(
            *(np.concatenate([getattr(t, f.name) for t in trees]) for f in fields(ForestNodes))
        ),
        roots=tuple(roots),
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
