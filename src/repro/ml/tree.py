"""CART decision trees with Gini impurity, grown and scored as arrays.

The building block for :class:`repro.ml.forest.RandomForestClassifier`,
and one kernel for both: :func:`grow_trees` grows any number of trees in
lockstep and :func:`apply_trees` routes every (row, tree) pair to its
leaf; a :class:`DecisionTreeClassifier` is the one-tree case.

A tree is a set of parallel arrays in depth-first preorder
(:class:`TreeArrays`), so nothing recurses: a tree of any depth grows and
scores with the same code.

Growth pops the next preorder node of every unfinished tree and searches
all of those nodes' splits at once.  Each node still draws its feature
subset from its own tree's generator, in its own preorder, and every
candidate split is scored with the same Gini arithmetic as a one-node
search would use, element for element, so a tree grown in a batch of
sixty is bit-identical to the same tree grown alone.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.ml.base import ClassifierMixin, check_array, check_X_y


class TreeArrays(NamedTuple):
    """The nodes of one or more trees as parallel preorder arrays.

    Node ``i`` is a leaf when ``feature[i] == -1``; otherwise rows with
    ``x[feature[i]] <= threshold[i]`` go to ``left[i]`` and the rest to
    ``right[i]``.  ``counts[i]`` holds the training class counts that
    reached the node and ``value[i]`` the same row normalized to sum to 1.
    """

    feature: np.ndarray  # (nodes,) int, -1 at leaves
    threshold: np.ndarray  # (nodes,) float
    left: np.ndarray  # (nodes,) int node index, -1 at leaves
    right: np.ndarray  # (nodes,) int node index, -1 at leaves
    counts: np.ndarray  # (nodes, classes) float
    value: np.ndarray  # (nodes, classes) float


def _gini(counts: np.ndarray) -> np.ndarray:
    """Gini impurity of each row of a (nodes, classes) count matrix."""
    proportions = counts / counts.sum(axis=1)[:, None]
    return 1.0 - np.sum(proportions * proportions, axis=1)


def resolve_max_features(value, n_features: int) -> int:
    """How many features each split samples (see ``max_features``)."""
    if value is None:
        return n_features
    if value == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if value == "log2":
        return max(1, int(np.log2(n_features)))
    if isinstance(value, float):
        if not 0.0 < value <= 1.0:
            raise ValueError("float max_features must be in (0, 1]")
        return max(1, int(value * n_features))
    if isinstance(value, int):
        if not 1 <= value <= n_features:
            raise ValueError("int max_features out of range")
        return value
    raise ValueError(f"bad max_features: {value!r}")


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Per column, the rank of each value among the column's distinct values."""
    order = np.argsort(X, axis=0, kind="stable")
    ordered = np.take_along_axis(X, order, axis=0)
    steps = np.zeros(X.shape, dtype=np.int64)
    steps[1:] = ordered[1:] != ordered[:-1]
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, np.cumsum(steps, axis=0), axis=0)
    return ranks


def _best_splits(X, ranks, rows, labels, sizes, features, counts, impurity, min_samples_leaf):
    """Best (feature, threshold) of many nodes in one segmented search.

    Node ``j`` owns the next ``sizes[j]`` entries of ``rows``/``labels``
    and searches the features ``features[j]`` in that order.  Sorting and
    counting run over all (feature slot, entry) pairs at once; the Gini
    arithmetic then runs on (candidate cut, class) rows, the same rows and
    the same operations as a one-node, one-feature search, so every gain
    is bit-identical to it.  Returns ``(split, feature, threshold)`` per
    node; ``split`` is False where no cut gains more than 1e-12.
    """
    n_nodes, n_slots = features.shape
    n_classes = counts.shape[1]
    total = rows.size
    starts = np.zeros(n_nodes, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    node = np.repeat(np.arange(n_nodes), sizes)

    # Sort by value within each node: the node id leads the key, and the
    # column's dense rank orders equal values together.  The order inside
    # a run of equal values is free: only a run's last entry is a candidate.
    columns = features[node].T
    keys = node * X.shape[0] + ranks[rows, columns]
    order = np.argsort(keys, axis=1)
    ordered_keys = np.take_along_axis(keys, order, axis=1)
    sorted_labels = labels[order]

    # Class counts left of each cut: integer-valued, so exact.
    one_hot = sorted_labels[:, :, None] == np.arange(n_classes)
    cumulative = np.cumsum(one_hot, axis=1)
    below = np.zeros((n_slots, n_nodes, n_classes), dtype=cumulative.dtype)
    below[:, 1:] = cumulative[:, starts[1:] - 1]

    # A cut after entry i is a candidate where the next key differs and
    # both sides keep min_samples_leaf (so never at a node's last entry,
    # where the key's node id changes).  In (slot, entry) order the
    # candidates come grouped by (slot, node).
    left_sizes = (np.arange(total) - starts[node] + 1).astype(np.float64)
    node_sizes = sizes[node]
    right_sizes = node_sizes - left_sizes
    valid = np.zeros((n_slots, total), dtype=bool)
    valid[:, :-1] = ordered_keys[:, 1:] != ordered_keys[:, :-1]
    valid &= (left_sizes >= min_samples_leaf) & (right_sizes >= min_samples_leaf)
    slots, cuts = np.nonzero(valid)
    split = np.zeros(n_nodes, dtype=bool)
    if not cuts.size:
        return split, np.zeros(n_nodes, dtype=np.int64), np.zeros(n_nodes)
    owner = node[cuts]
    left_counts = (cumulative[slots, cuts] - below[slots, owner]).astype(np.float64)
    left_sizes, right_sizes = left_sizes[cuts], right_sizes[cuts]
    right_counts = counts[owner] - left_counts
    left_p = left_counts / left_sizes[:, None]
    right_p = right_counts / right_sizes[:, None]
    left_gini = 1.0 - np.sum(left_p * left_p, axis=1)
    right_gini = 1.0 - np.sum(right_p * right_p, axis=1)
    weighted = (left_sizes * left_gini + right_sizes * right_gini) / node_sizes[cuts]
    gains = impurity[owner] - weighted

    # First maximal cut per (slot, node), then the first maximal slot.
    group = slots * n_nodes + owner
    heads = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    group_best = np.maximum.reduceat(gains, heads)
    run = np.cumsum(np.r_[False, group[1:] != group[:-1]])
    group_first = np.minimum.reduceat(
        np.where(gains == group_best[run], cuts, total), heads
    )
    best = np.full(n_slots * n_nodes, -np.inf)
    best[group[heads]] = group_best
    first = np.zeros(n_slots * n_nodes, dtype=np.int64)
    first[group[heads]] = group_first
    best, first = best.reshape(n_slots, n_nodes), first.reshape(n_slots, n_nodes)
    slot = np.argmax(best, axis=0)
    nodes = np.arange(n_nodes)
    split = best[slot, nodes] > 1e-12
    feature = features[nodes, slot]
    cut = first[slot, nodes]
    low = X[rows[order[slot, cut]], feature]
    high = X[rows[order[slot, np.minimum(cut + 1, total - 1)]], feature]
    return split, feature, 0.5 * (low + high)


class _Waiting(NamedTuple):
    """A node on its tree's stack, waiting to be numbered and split."""

    rows: np.ndarray  # indices into X
    labels: np.ndarray
    depth: int
    parent: int  # the parent's index if this is a right child, else -1
    counts: np.ndarray
    impurity: float


def _split_pending(X, ranks, pending, stacks, built, n_classes, min_samples_leaf):
    """Search the popped nodes' splits together; record each split and
    push its right, then its left child onto its tree's stack.

    ``pending`` holds ``(tree, node index, _Waiting, feature subset)``.
    """
    _, _, waiting, subsets = zip(*pending)
    rows = np.concatenate([node.rows for node in waiting])
    y = np.concatenate([node.labels for node in waiting])
    sizes = np.array([node.rows.size for node in waiting])
    split, split_feature, split_threshold = _best_splits(
        X,
        ranks,
        rows,
        y,
        sizes,
        np.array(subsets),
        np.array([node.counts for node in waiting]),
        np.array([node.impurity for node in waiting]),
        min_samples_leaf,
    )
    if not split.any():
        return

    # Partition every node's rows by side, keeping their order: group
    # entries by (node, side) with a stable sort.
    node = np.repeat(np.arange(len(pending)), sizes)
    goes_right = X[rows, split_feature[node]] > split_threshold[node]
    group = 2 * node + goes_right
    order = np.argsort(group, kind="stable")
    rows, y, group = rows[order], y[order], group[order]
    n_groups = 2 * len(pending)
    child_counts = np.bincount(
        group * n_classes + y, minlength=n_groups * n_classes
    ).reshape(n_groups, n_classes).astype(np.float64)
    bounds = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(group, minlength=n_groups), out=bounds[1:])
    split_nodes = np.flatnonzero(split)
    children = np.stack([2 * split_nodes, 2 * split_nodes + 1], axis=1).ravel()
    child_impurity = np.zeros(n_groups)
    child_impurity[children] = _gini(child_counts[children])

    for j in split_nodes.tolist():
        t, index, popped, _ = pending[j]
        feature, threshold, _, _ = built[t]
        feature[index] = int(split_feature[j])
        threshold[index] = float(split_threshold[j])
        for child, right_of in ((2 * j + 1, index), (2 * j, -1)):
            part = slice(bounds[child], bounds[child + 1])
            stacks[t].append(
                _Waiting(
                    rows[part],
                    y[part],
                    popped.depth + 1,
                    right_of,
                    child_counts[child],
                    child_impurity[child],
                )
            )


def grow_trees(
    X: np.ndarray,
    samples: list[np.ndarray],
    labels: list[np.ndarray],
    n_classes: int,
    rngs: list[np.random.Generator],
    n_split_features: int,
    max_depth: int | None,
    min_samples_split: int,
    min_samples_leaf: int,
) -> list[TreeArrays]:
    """Grow one CART tree per ``(samples[t], labels[t], rngs[t])``, in lockstep.

    ``samples[t]`` indexes the rows of ``X`` tree ``t`` trains on and
    ``labels[t]`` their classes in ``0..n_classes-1``.  Each step pops the
    next preorder node of every unfinished tree, resolving stopped nodes
    as leaves on the way, and searches the splits of all popped nodes at
    once.  Each tree comes back with indices local to itself.
    """
    n_features = X.shape[1]
    ranks = _dense_ranks(X)
    roots = np.array([np.bincount(y, minlength=n_classes) for y in labels], dtype=np.float64)
    root_impurity = _gini(roots)
    stacks = [
        [_Waiting(rows, y, 0, -1, roots[t], root_impurity[t])]
        for t, (rows, y) in enumerate(zip(samples, labels))
    ]
    # Per tree, the node arrays so far as lists: feature, threshold,
    # right, counts (a split's left child is always the next node).
    built = [([], [], [], []) for _ in samples]
    active = list(range(len(samples)))

    while active:
        pending = []
        for t in active:
            stack = stacks[t]
            feature, threshold, right, counts = built[t]
            while stack:
                node = stack.pop()
                index = len(feature)
                feature.append(-1)
                threshold.append(0.0)
                right.append(-1)
                counts.append(node.counts)
                if node.parent >= 0:
                    right[node.parent] = index
                if (
                    (max_depth is not None and node.depth >= max_depth)
                    or node.rows.size < min_samples_split
                    or node.impurity == 0.0
                ):
                    continue
                subset = rngs[t].permutation(n_features)[:n_split_features]
                pending.append((t, index, node, subset))
                break
        if pending:
            _split_pending(X, ranks, pending, stacks, built, n_classes, min_samples_leaf)
        active = [t for t in active if stacks[t]]

    trees = []
    for feature, threshold, right, counts in built:
        feature = np.array(feature, dtype=np.int64)
        counts = np.array(counts)
        trees.append(
            TreeArrays(
                feature=feature,
                threshold=np.array(threshold),
                left=np.where(feature >= 0, np.arange(1, feature.size + 1), -1),
                right=np.array(right, dtype=np.int64),
                counts=counts,
                value=counts / counts.sum(axis=1)[:, None],
            )
        )
    return trees


def apply_trees(X: np.ndarray, trees: TreeArrays, roots: np.ndarray) -> np.ndarray:
    """Leaf index of every (row, tree) pair: ``(n_rows, len(roots))``.

    All pairs start at their tree's root and advance one level per step;
    pairs that reach a leaf drop out of the active set.
    """
    feature, threshold, left, right = trees.feature, trees.threshold, trees.left, trees.right
    node = np.tile(roots, X.shape[0])
    row = np.repeat(np.arange(X.shape[0]), roots.size)
    active = np.flatnonzero(feature[node] >= 0)
    while active.size:
        current = node[active]
        go_left = X[row[active], feature[current]] <= threshold[current]
        current = np.where(go_left, left[current], right[current])
        node[active] = current
        active = active[feature[current] >= 0]
    return node.reshape(X.shape[0], roots.size)


class DecisionTreeClassifier(ClassifierMixin):
    """Binary-split CART classifier.

    Args:
        max_depth: depth cap (None = unbounded).
        min_samples_split: minimum samples to attempt a split.
        min_samples_leaf: minimum samples a child must keep.
        max_features: number of features sampled per split ("sqrt", "log2",
            an int, a float fraction, or None for all) — the forest's source
            of decorrelation.
        random_state: seed for feature subsampling.

    The fitted tree is ``tree_``, a :class:`TreeArrays` whose class
    columns follow ``classes_``.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        random_state: int | None = None,
    ) -> None:
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    # ------------------------------------------------------------------

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        encoded = self._encode_labels(y)
        self.n_features_ = X.shape[1]
        (self.tree_,) = grow_trees(
            X,
            [np.arange(X.shape[0])],
            [encoded],
            len(self.classes_),
            [np.random.default_rng(self.random_state)],
            resolve_max_features(self.max_features, self.n_features_),
            self.max_depth,
            self.min_samples_split,
            self.min_samples_leaf,
        )
        return self

    # ------------------------------------------------------------------

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        leaves = apply_trees(X, self.tree_, np.zeros(1, dtype=np.int64))
        return self.tree_.value[leaves[:, 0]]

    @property
    def depth_(self) -> int:
        """Actual depth of the fitted tree."""
        self._check_fitted()
        tree = self.tree_
        depth, level = 0, np.zeros(1, dtype=np.int64)
        while True:
            level = level[tree.feature[level] >= 0]
            if not level.size:
                return depth
            level = np.concatenate([tree.left[level], tree.right[level]])
            depth += 1

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean-impurity-decrease importances, normalized to sum to 1."""
        self._check_fitted()
        tree = self.tree_
        splits = np.flatnonzero(tree.feature >= 0)
        weighted = tree.counts.sum(axis=1) * _gini(tree.counts)
        decrease = weighted[splits] - (
            weighted[tree.left[splits]] + weighted[tree.right[splits]]
        )
        # bincount adds the weights in node (preorder) order.
        importances = np.bincount(
            tree.feature[splits],
            weights=np.maximum(decrease, 0.0),
            minlength=self.n_features_,
        )
        if importances.sum() > 0:
            importances /= importances.sum()
        return importances

    @property
    def n_leaves_(self) -> int:
        self._check_fitted()
        return int(np.count_nonzero(self.tree_.feature < 0))
