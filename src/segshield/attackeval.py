"""Device-identification adversary: windowed size features, a from-scratch
random forest, and confusion-matrix metrics.

The classifier is rebuilt here rather than imported so that training is
bit-reproducible from a single integer seed and so a depth-1 single-tree
forest can be checked exactly against an exhaustive split search.

A forest is a set of flat node arrays (feature, threshold, left, right,
label), one entry per node and the trees back to back, as in scikit-learn's
tree. Each tree grows from its own explicit stack, so depth is bounded by
memory, not by the interpreter's recursion limit. The trees of a forest grow
in lockstep: at each step every tree pops nodes up to the next one that
needs a split, and one batched search serves all of those nodes, however
few. It packs each (node, candidate feature, row) entry with its value rank
and class into one integer, sorts them all at once, and scores every place
where the rank changes inside a (node, feature) group from running class
counts. Scores are integer squared class counts with one float division per
side, so they are bit-identical to a per-feature loop, and the forest is the
one a tree-by-tree loop grows (both kept in the tests as references). One
gathered comparison with the thresholds then partitions the rows of every
split node of the step, and one ``bincount`` gives the children's class
counts. Prediction routes every (row, tree) pair one level at a time.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from itertools import chain
from math import ceil, isqrt, log
from typing import Iterable, Sequence

import numpy as np

from .errors import POSITIVE, check_value
from .rng import derive_seed, make_rng
from .tracesim import Trace, window_starts, window_us

DEFAULT_VECTOR_LEN = 200
DEFAULT_WINDOW_S = 30.0
DEFAULT_TRAIN_FRACTION = 0.7
DEFAULT_N_TREES = 100
# The rule for the share of each class's windows that trains the forest.
TRAIN_FRACTION = (lambda v: 0 < v < 1, "in (0, 1)")


@dataclass(frozen=True)
class FeatureVector:
    """Signed sizes of one observation window, zero-padded or truncated to a
    fixed length. packet_count keeps the pre-truncation total."""

    values: tuple[int, ...]
    label: str
    packet_count: int = 0

    def __post_init__(self):
        values = tuple(self.values)
        # Python ints pass as they are; anything else is checked one by one.
        if not set(map(type, values)) <= {int}:
            for i, v in enumerate(values):
                try:
                    integral = not isinstance(v, (bool, np.bool_)) and int(v) == v
                except (TypeError, ValueError, OverflowError):
                    integral = False
                if not integral:
                    raise ValueError(f"values[{i}] must be an integer, got {v!r}")
            values = tuple(int(v) for v in values)
        object.__setattr__(self, "values", values)


def extract_windows(
    trace: Trace,
    window_s: float = DEFAULT_WINDOW_S,
    vector_len: int = DEFAULT_VECTOR_LEN,
) -> list[FeatureVector]:
    """Cut the trace into fixed windows and emit one vector per non-empty
    window. Cover records are included: the observer cannot strip them."""
    width = window_us(window_s)
    check_value(vector_len, "vector_len", int, POSITIVE)
    # Timestamps are sorted, so each window's records are a contiguous run.
    starts = window_starts(trace.timestamp_us, width).tolist()
    sizes = trace.signed_size
    return [
        FeatureVector(
            (sizes[a:b][:vector_len].tolist() + [0] * vector_len)[:vector_len], trace.device, b - a
        )
        for a, b in zip(starts, [*starts[1:], len(sizes)])
    ]


def split_dataset(
    vectors: Sequence[FeatureVector],
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    rng: random.Random | int = 0,
) -> tuple[list[FeatureVector], list[FeatureVector]]:
    """Stratified shuffle split; every class lands in both partitions."""
    check_value(train_fraction, "train_fraction", float, TRAIN_FRACTION)
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
    """Read-only view of one node of a ``ForestNodes``: its split feature
    and children, enough to walk a tree's shape."""

    nodes: ForestNodes
    index: int

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0

    @property
    def feature(self) -> int:
        return int(self.nodes.feature[self.index])

    @property
    def left(self) -> "TreeNode | None":
        return None if self.is_leaf else TreeNode(self.nodes, int(self.nodes.left[self.index]))

    @property
    def right(self) -> "TreeNode | None":
        return None if self.is_leaf else TreeNode(self.nodes, int(self.nodes.right[self.index]))


# Entries, i.e. (node, candidate feature, row) triples, that one batched
# split search sorts at most, which keeps its working arrays under 1 MB. A
# node with more entries is searched alone, as a batch of one. On the
# exp-pair training sets, half this cap trained about 20 % slower and twice
# it no faster.
_SEARCH_ENTRIES = 1 << 13


def _rank_keys(XT: np.ndarray, y: np.ndarray, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Each entry of ``XT`` (features x samples) as the rank of its value
    among the distinct values, shifted left past the class bits, or'd with
    its sample's label; and the distinct values, ascending, as floats."""
    distinct = np.unique(XT)
    class_bits = (n_classes - 1).bit_length()
    keys = np.searchsorted(distinct, XT)
    if len(distinct) << class_bits < 2**31:
        keys = keys.astype(np.int32)
    keys <<= class_bits
    keys |= y.astype(keys.dtype)
    return keys, distinct.astype(np.float64)


def _search_splits(
    keys: np.ndarray,
    values: np.ndarray,
    counts: np.ndarray,
    rows: Sequence[np.ndarray],
    candidates: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive best split of each node of a batch of one or more, in one
    sort.

    ``keys`` and ``values`` come from ``_rank_keys``, and ``counts`` holds
    each node's class counts. Node b holds the samples ``rows[b]`` and
    searches the ascending features ``candidates[b]``. Returns, per node,
    the position in ``candidates[b]`` of the split feature (-1 when none
    varies) and the threshold.

    Each (node, candidate feature) pair is a group, and each of its rows
    one entry: the row's key plus the group's offset, so the entry is
    (group, rank, class) packed in one integer. One sort puts every group in
    value order; a split can fall wherever the rank changes inside a group,
    and a running count of each class gives the class counts left of it.
    The score to maximize, sum(left_counts^2)/n_left +
    sum(right_counts^2)/n_right, is equivalent to minimizing weighted Gini
    impurity. Squared counts stay in integers; ties resolve to the lowest
    feature, then the lowest threshold.
    """
    n_nodes, n_classes = counts.shape
    n_candidates = candidates.shape[1]
    class_bits = (n_classes - 1).bit_length()
    stride = len(values) << class_bits  # the keys of one group
    offset = np.arange(0, candidates.size * stride, stride).reshape(candidates.shape)
    if candidates.size * stride < 2**31:
        offset = offset.astype(np.int32)  # a 32-bit sort takes half as long
    n_rows = [len(r) for r in rows]
    row_node = np.arange(n_nodes).repeat(n_rows)
    index = (candidates * keys.shape[1])[row_node] + np.concatenate(rows)[:, None]
    key = (keys.ravel()[index] + offset[row_node]).ravel()
    key.sort()
    slot = key >> class_bits  # group * len(values) + rank
    group_rows = np.repeat(n_rows, n_candidates)
    group_end = group_rows.cumsum()
    change = slot[1:] != slot[:-1]
    change[group_end[:-1] - 1] = False  # the last entry of a group
    at = change.nonzero()[0]  # a split between entries at and at + 1
    column = np.full(n_nodes, -1)
    threshold = np.zeros(n_nodes)
    if not len(at):
        return column, threshold
    group = slot[at] // len(values)
    node = group // n_candidates
    start = (group_end - group_rows)[group]
    n_left = at + 1 - start
    n_right = group_rows[group] - n_left
    # Class 0 by subtraction; every other class from its running count.
    label = key & ((1 << class_bits) - 1)
    running = np.zeros(len(key) + 1, np.int64)
    left_0 = n_left
    left_sq = right_sq = 0
    for c in range(1, n_classes):
        np.cumsum(label == c, out=running[1:])
        left = running[at + 1] - running[start]
        right = counts[:, c][node] - left
        left_0 = left_0 - left
        left_sq = left_sq + left * left
        right_sq = right_sq + right * right
    right_0 = counts[:, 0][node] - left_0
    score = (left_sq + left_0 * left_0) / n_left + (right_sq + right_0 * right_0) / n_right
    # The first maximum of each node's run of scores.
    first = np.flatnonzero(np.concatenate(([True], node[1:] != node[:-1])))
    top = np.zeros(n_nodes)
    top[node[first]] = np.maximum.reduceat(score, first)
    hit = np.flatnonzero(score == top[node])
    best = hit[np.concatenate(([True], node[hit[1:]] != node[hit[:-1]]))]
    at, group, node = at[best], group[best], node[best]
    column[node] = group % n_candidates
    base = group * len(values)
    threshold[node] = (values[slot[at] - base] + values[slot[at + 1] - base]) / 2.0
    return column, threshold


def _bootstrap_rows(rng: random.Random, n: int) -> np.ndarray:
    """``[rng.randrange(n) for _ in range(n)]`` as one array, drawn as
    CPython draws it: ``getrandbits(k)`` until the value is below ``n``.
    Inlined, it costs no Python frame per row."""
    k = n.bit_length()
    getrandbits = rng.getrandbits
    rows = []
    for _ in range(n):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        rows.append(r)
    return np.array(rows, np.int64)


def _sorted_sample(rng: random.Random, n: int, k: int) -> list[int]:
    """``sorted(rng.sample(range(n), k))`` for 0 < k <= n, drawn as CPython
    draws it: each ``randbelow(m)`` is ``getrandbits(m.bit_length())`` until
    the value is below m. Inlined, it costs no Python frame per draw."""
    getrandbits = rng.getrandbits
    setsize = 21  # CPython's choice between its two branches, kept exactly
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    if n <= setsize:
        # A pool of the unselected: draw below its size, move its last entry
        # into the vacancy.
        pool = list(range(n))
        picked = []
        for m in range(n, n - k, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            picked.append(pool[j])
            pool[j] = pool[m - 1]
        picked.sort()
        return picked
    # A set of the selected: draw below n again while the value is taken.
    selected: set[int] = set()
    bits = n.bit_length()
    while len(selected) < k:
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        selected.add(j)
    return sorted(selected)


def _grow_forest(
    XT: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    samples: Iterable[np.ndarray],
    max_depth: int | None,
    max_features: int | None,
    rngs: Sequence[random.Random],
) -> tuple[ForestNodes, tuple[int, ...]]:
    """Grow one tree per entry of ``samples`` (its rows of ``XT``, features
    x samples) in lockstep; return their nodes back to back and the root of
    each.

    Each tree grows from its own explicit stack and numbers its nodes in
    preorder, the order in which its ``rngs`` entry draws each node's
    candidate features, so a split node's left child is the next node. At
    each step every tree pops nodes up to the next one that needs a split
    search, and batched searches serve all of those nodes. ``max_features``
    None searches every feature, with no draw.
    """
    keys, values = _rank_keys(XT, y, n_classes)
    all_features = np.arange(len(XT))
    # Per tree: (rows, depth, parent whose right child this is, class counts).
    stacks = [
        [(rows, 0, -1, np.bincount(y[rows], minlength=n_classes).tolist())] for rows in samples
    ]
    # Per tree: the feature, threshold, right child and label of each node.
    trees = [([], [], [], []) for _ in stacks]
    growing = list(range(len(stacks)))
    while growing:
        batch: list[tuple] = []  # (tree, node, rows, counts, depth, candidates)
        entries = 0
        for t in growing:
            feature, threshold, right, label = trees[t]
            stack = stacks[t]
            while stack:
                rows, depth, parent, counts = stack.pop()
                node = len(label)
                if parent >= 0:
                    right[parent] = node
                # The first maximum, i.e. the smallest label index on ties.
                majority = counts.index(max(counts))
                label.append(majority)
                feature.append(-1)
                threshold.append(0.0)
                right.append(-1)
                if counts[majority] == len(rows) or (max_depth is not None and depth >= max_depth):
                    continue
                if max_features is None:
                    candidates = all_features
                else:
                    candidates = _sorted_sample(rngs[t], len(XT), max_features)
                size = len(rows) * len(candidates)
                if batch and entries + size > _SEARCH_ENTRIES:
                    _split_batch(XT, keys, values, y, batch, trees, stacks)
                    batch, entries = [], 0
                batch.append((t, node, rows, counts, depth, candidates))
                entries += size
                break
        if batch:
            _split_batch(XT, keys, values, y, batch, trees, stacks)
        growing = [t for t in growing if stacks[t]]

    sizes = [len(label) for _, _, _, label in trees]
    first = np.cumsum(sizes) - sizes
    feature, threshold, right, label = (
        np.array(list(chain.from_iterable(column)), dtype)
        for column, dtype in zip(zip(*trees), (np.int64, np.float64, np.int64, np.int64))
    )
    return ForestNodes(
        feature=feature,
        threshold=threshold,
        left=np.where(feature >= 0, np.arange(1, len(feature) + 1), -1),
        right=np.where(right >= 0, right + np.repeat(first, sizes), -1),
        label=label,
    ), tuple(first.tolist())


def _split_batch(
    XT: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    y: np.ndarray,
    batch: list[tuple],
    trees: list[tuple[list, list, list, list]],
    stacks: list[list[tuple]],
) -> None:
    """Search a batch of popped nodes, and split each node that has a split:
    record its feature and threshold, and push its right, then its left
    child onto its tree's stack. The rows of all split nodes go left or
    right in one comparison, and their children's class counts come from one
    ``bincount``. Raise ValueError when a threshold sends every row of a
    node left, which only a float64 midpoint of two values beyond 2**52 in
    magnitude can do."""
    counts = np.array([item[3] for item in batch])
    candidates = np.array([item[5] for item in batch])
    rows = [item[2] for item in batch]
    column, threshold = _search_splits(keys, values, counts, rows, candidates)
    split = (column >= 0).nonzero()[0]
    if not len(split):
        return
    feature = candidates[split, column[split]]
    threshold = threshold[split]
    n_classes = counts.shape[1]
    rows = [rows[b] for b in split.tolist()]
    at = np.concatenate(rows)
    row_split = np.arange(len(rows)).repeat([len(r) for r in rows])
    goes_left = XT.ravel()[(feature * XT.shape[1])[row_split] + at] <= threshold[row_split]
    left_rows, right_rows = at[goes_left], at[~goes_left]
    left_counts = np.bincount(
        (y[at] + row_split * n_classes)[goes_left], minlength=len(rows) * n_classes
    ).reshape(len(rows), n_classes)
    right_counts = counts[split] - left_counts
    # A midpoint is never below the lower value, but it can round onto the
    # upper one; the left child would then repeat the same split forever.
    stuck = np.flatnonzero(right_counts.sum(axis=1) == 0)
    if len(stuck):
        i = stuck[0]
        v = np.unique(XT[feature[i], rows[i]])
        low = int(np.argmax((v[:-1].astype(np.float64) + v[1:]) / 2.0 == threshold[i]))
        raise ValueError(
            f"cannot split feature {feature[i]} between {v[low]} and {v[low + 1]}: "
            f"their float64 midpoint {float(threshold[i])!r} sends every row left"
        )
    left_end = right_end = 0
    for b, f, cut, left, right in zip(
        split.tolist(),
        feature.tolist(),
        threshold.tolist(),
        left_counts.tolist(),
        right_counts.tolist(),
    ):
        t, node, _, _, depth, _ = batch[b]
        trees[t][0][node] = f
        trees[t][1][node] = cut
        left_start, left_end = left_end, left_end + sum(left)
        right_start, right_end = right_end, right_end + sum(right)
        stacks[t].append((right_rows[right_start:right_end], depth + 1, node, right))
        stacks[t].append((left_rows[left_start:left_end], depth + 1, -1, left))


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
    check_value(n_trees, "n_trees", int, POSITIVE)
    check_value(max_depth, "max_depth", int | None, POSITIVE)
    n_features = len(train[0].values)
    if n_features == 0:
        raise ValueError("vectors have 0 features; need at least 1")
    if max_features == "sqrt":
        n_candidates: int | None = max(isqrt(n_features), 1)
    elif max_features is None:
        n_candidates = None
    elif isinstance(max_features, str):
        raise ValueError(f"max_features must be 'sqrt', an int or None, got {max_features!r}")
    else:
        n_candidates = check_value(max_features, "max_features", int, POSITIVE)
        if n_candidates > n_features:
            raise ValueError(f"max_features must be <= {n_features} features, got {max_features}")
    if n_candidates == n_features:
        n_candidates = None  # every feature, with no draw
    labels = tuple(sorted({v.label for v in train}))
    if len(labels) < 2:
        raise ValueError(f"training set has a single class {labels[0]!r}")
    label_index = {lab: i for i, lab in enumerate(labels)}
    XT = np.ascontiguousarray(_as_matrix(train, n_features).T)
    y = np.array([label_index[v.label] for v in train], dtype=np.int64)

    base = make_rng(rng)
    seed = base.getrandbits(63)
    n = len(train)
    rngs = [random.Random(derive_seed(seed, "tree", t)) for t in range(n_trees)]
    # A generator, so that no list keeps each root's rows once it is split.
    samples = (_bootstrap_rows(r, n) if bootstrap else np.arange(n) for r in rngs)
    nodes, roots = _grow_forest(XT, y, len(labels), samples, max_depth, n_candidates, rngs)
    return ForestModel(
        nodes=nodes,
        roots=roots,
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
    train, test = split_dataset(vectors, train_fraction, derive_seed(seed, "split"))
    model = train_forest(train, n_trees, max_depth, rng=derive_seed(seed, "forest"))
    return evaluate(model, test)
