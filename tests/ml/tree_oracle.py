"""The recursive CART tree and forest, kept as the reference implementation.

These are the ``_Node``-based :class:`DecisionTreeClassifier` and the
tree-at-a-time :class:`RandomForestClassifier` that the array-backed
lockstep kernel in :mod:`repro.ml.tree` and :mod:`repro.ml.forest`
replaced.  They grow each tree recursively, scan features one at a time
and walk one row at a time, so they are slow (and a tree deeper than the
recursion limit cannot be grown), but each rule reads directly off the
code.  The tests require the production kernel to reproduce them byte for
byte.  Kept verbatim; do not "fix" them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import ClassifierMixin, check_array, check_X_y


@dataclass(slots=True)
class _Node:
    """One tree node; leaves carry class-count distributions."""

    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    counts: np.ndarray | None = None  # class counts at a leaf (and splits)

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    proportions = counts / total
    return float(1.0 - np.sum(proportions * proportions))


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
        self._rng = np.random.default_rng(self.random_state)
        self._n_classes = len(self.classes_)
        self._n_split_features = self._resolve_max_features(self.n_features_)
        self._root = self._grow(X, encoded, depth=0)
        del self._rng
        return self

    def _resolve_max_features(self, n_features: int) -> int:
        value = self.max_features
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

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        counts = np.bincount(y, minlength=self._n_classes).astype(np.float64)
        node = _Node(counts=counts)
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or y.shape[0] < self.min_samples_split
            or _gini(counts) == 0.0
        ):
            return node
        split = self._best_split(X, y, counts)
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, parent_counts: np.ndarray
    ) -> tuple[int, float] | None:
        n_samples = y.shape[0]
        parent_impurity = _gini(parent_counts)
        best_gain = 1e-12
        best: tuple[int, float] | None = None

        features = self._rng.permutation(self.n_features_)[: self._n_split_features]
        one_hot = np.zeros((n_samples, self._n_classes))
        one_hot[np.arange(n_samples), y] = 1.0

        for feature in features:
            values = X[:, feature]
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
            sorted_one_hot = one_hot[order]

            left_counts = np.cumsum(sorted_one_hot, axis=0)
            # Candidate split after position i (1-based size of left child).
            left_sizes = np.arange(1, n_samples + 1, dtype=np.float64)
            right_sizes = n_samples - left_sizes
            distinct = np.r_[sorted_values[1:] != sorted_values[:-1], False]
            valid = (
                distinct
                & (left_sizes >= self.min_samples_leaf)
                & (right_sizes >= self.min_samples_leaf)
            )
            if not np.any(valid):
                continue

            right_counts = parent_counts - left_counts
            with np.errstate(divide="ignore", invalid="ignore"):
                left_p = left_counts / left_sizes[:, None]
                right_p = np.where(
                    right_sizes[:, None] > 0,
                    right_counts / np.maximum(right_sizes, 1.0)[:, None],
                    0.0,
                )
            left_gini = 1.0 - np.sum(left_p * left_p, axis=1)
            right_gini = 1.0 - np.sum(right_p * right_p, axis=1)
            weighted = (
                left_sizes * left_gini + right_sizes * right_gini
            ) / n_samples
            gains = np.where(valid, parent_impurity - weighted, -np.inf)
            index = int(np.argmax(gains))
            if gains[index] > best_gain:
                best_gain = float(gains[index])
                threshold = 0.5 * (sorted_values[index] + sorted_values[index + 1])
                best = (int(feature), float(threshold))
        return best

    # ------------------------------------------------------------------

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        output = np.empty((X.shape[0], self._n_classes))
        for row in range(X.shape[0]):
            node = self._root
            while not node.is_leaf:
                if X[row, node.feature] <= node.threshold:
                    node = node.left
                else:
                    node = node.right
            counts = node.counts
            output[row] = counts / counts.sum()
        return output

    @property
    def depth_(self) -> int:
        """Actual depth of the fitted tree."""
        self._check_fitted()

        def measure(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(measure(node.left), measure(node.right))

        return measure(self._root)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean-impurity-decrease importances, normalized to sum to 1."""
        self._check_fitted()
        importances = np.zeros(self.n_features_)

        def walk(node: _Node) -> None:
            if node.is_leaf:
                return
            total = node.counts.sum()
            left_counts = node.left.counts
            right_counts = node.right.counts
            decrease = total * _gini(node.counts) - (
                left_counts.sum() * _gini(left_counts)
                + right_counts.sum() * _gini(right_counts)
            )
            importances[node.feature] += max(0.0, decrease)
            walk(node.left)
            walk(node.right)

        walk(self._root)
        if importances.sum() > 0:
            importances /= importances.sum()
        return importances

    @property
    def n_leaves_(self) -> int:
        self._check_fitted()

        def count(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return count(node.left) + count(node.right)

        return count(self._root)


class RandomForestClassifier(ClassifierMixin):
    """Bootstrap-aggregated decision trees with feature subsampling.

    ``predict_proba`` averages per-tree leaf distributions (soft voting),
    matching scikit-learn's behaviour.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = "sqrt",
        bootstrap: bool = True,
        random_state: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state

    def fit(self, X, y) -> "RandomForestClassifier":
        X, y = check_X_y(X, y)
        encoded = self._encode_labels(y)
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)
        n_samples = X.shape[0]
        self.estimators_: list[DecisionTreeClassifier] = []
        self._oob_hits = np.zeros((n_samples, len(self.classes_)))
        self._oob_counts = np.zeros(n_samples)
        self._oob_true = encoded

        for _ in range(self.n_estimators):
            if self.bootstrap:
                sample_indices = rng.integers(0, n_samples, size=n_samples)
            else:
                sample_indices = np.arange(n_samples)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[sample_indices], encoded[sample_indices])
            self.estimators_.append(tree)
            if self.bootstrap:
                out_of_bag = np.setdiff1d(
                    np.arange(n_samples), np.unique(sample_indices)
                )
                if out_of_bag.size:
                    probabilities = tree.predict_proba(X[out_of_bag])
                    self._oob_hits[out_of_bag] += probabilities
                    self._oob_counts[out_of_bag] += 1
        return self

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X)
        total = np.zeros((X.shape[0], len(self.classes_)))
        for tree in self.estimators_:
            # Trees were fit on encoded labels 0..k-1; align columns by the
            # encoded class ids each tree saw.
            probabilities = tree.predict_proba(X)
            seen = tree.classes_.astype(int)
            total[:, seen] += probabilities
        return total / len(self.estimators_)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Importances averaged over the ensemble's trees."""
        self._check_fitted()
        stacked = np.vstack([tree.feature_importances_ for tree in self.estimators_])
        mean = stacked.mean(axis=0)
        if mean.sum() > 0:
            mean /= mean.sum()
        return mean

    @property
    def oob_score_(self) -> float:
        """Out-of-bag accuracy estimate (bootstrap mode only)."""
        self._check_fitted()
        if not self.bootstrap:
            raise ValueError("OOB score requires bootstrap=True")
        covered = self._oob_counts > 0
        if not np.any(covered):
            raise ValueError("no out-of-bag samples; increase n_estimators")
        votes = np.argmax(self._oob_hits[covered], axis=1)
        return float(np.mean(votes == self._oob_true[covered]))
