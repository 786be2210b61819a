"""Random Forest (Breiman-style bagging of CART trees).

One of the paper's five classifiers; Table V reports RF achieving the best
precision (0.982) on the V feature set.

All trees grow together through :func:`repro.ml.tree.grow_trees` and are
stored end to end as one :class:`~repro.ml.tree.TreeArrays`, so scoring
routes every (row, tree) pair at once with :func:`repro.ml.tree.apply_trees`.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import ClassifierMixin, check_array, check_X_y
from repro.ml.tree import (
    DecisionTreeClassifier,
    TreeArrays,
    apply_trees,
    grow_trees,
    resolve_max_features,
)


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
        n_classes = len(self.classes_)
        rng = np.random.default_rng(self.random_state)
        n_samples = X.shape[0]

        # Draw every tree's bootstrap sample and seed up front, in the
        # order a tree-at-a-time forest draws them.
        samples, seeds = [], []
        for _ in range(self.n_estimators):
            if self.bootstrap:
                samples.append(rng.integers(0, n_samples, size=n_samples))
            else:
                samples.append(np.arange(n_samples))
            seeds.append(int(rng.integers(0, 2**31 - 1)))
        self.estimators_: list[DecisionTreeClassifier] = [
            DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=seed,
            )
            for seed in seeds
        ]
        # Each tree numbers the classes its sample holds 0..k-1, exactly as
        # a tree fitted on that sample alone would.
        sampled = encoded[np.array(samples)]
        present = np.zeros((self.n_estimators, n_classes), dtype=bool)
        present[np.arange(self.n_estimators)[:, None], sampled] = True
        labels = np.take_along_axis(np.cumsum(present, axis=1) - 1, sampled, axis=1)
        seen = [np.flatnonzero(row) for row in present]
        trees = grow_trees(
            X,
            samples,
            labels,
            n_classes,
            [np.random.default_rng(seed) for seed in seeds],
            resolve_max_features(self.max_features, self.n_features_),
            self.max_depth,
            self.min_samples_split,
            self.min_samples_leaf,
        )

        offsets = np.cumsum([0] + [tree.feature.size for tree in trees])
        counts = np.zeros((offsets[-1], n_classes))
        value = np.zeros((offsets[-1], n_classes))
        for tree, classes, offset, estimator in zip(
            trees, seen, offsets, self.estimators_
        ):
            present = classes.size
            nodes = slice(offset, offset + tree.feature.size)
            counts[nodes, classes] = tree.counts[:, :present]
            value[nodes, classes] = tree.value[:, :present]
            estimator.classes_ = classes
            estimator.n_features_ = self.n_features_
            estimator.tree_ = tree._replace(
                counts=tree.counts[:, :present], value=tree.value[:, :present]
            )

        # One array set for the whole forest, trees end to end, with
        # child links shifted to forest indices and class columns
        # following classes_.
        self._trees = TreeArrays(
            feature=np.concatenate([tree.feature for tree in trees]),
            threshold=np.concatenate([tree.threshold for tree in trees]),
            left=np.concatenate(
                [np.where(t.left >= 0, t.left + o, -1) for t, o in zip(trees, offsets)]
            ),
            right=np.concatenate(
                [np.where(t.right >= 0, t.right + o, -1) for t, o in zip(trees, offsets)]
            ),
            counts=counts,
            value=value,
        )
        self._roots = offsets[:-1]
        if self.bootstrap:
            self._oob = (X.copy(), encoded, np.array(samples))
        self._oob_score = None
        return self

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        leaves = apply_trees(X, self._trees, self._roots)
        return self._vote(self._trees.value[leaves]) / len(self.estimators_)

    @staticmethod
    def _vote(probabilities: np.ndarray, include: np.ndarray | None = None) -> np.ndarray:
        """Sum ``(rows, trees, classes)`` over trees, in tree order."""
        total = np.zeros((probabilities.shape[0], probabilities.shape[2]))
        for tree in range(probabilities.shape[1]):
            if include is None:
                total += probabilities[:, tree]
            else:
                total += np.where(include[:, tree, None], probabilities[:, tree], 0.0)
        return total

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
        """Out-of-bag accuracy estimate (bootstrap mode only).

        Computed on first access: each training row is scored by the
        trees whose bootstrap sample missed it.
        """
        self._check_fitted()
        if not self.bootstrap:
            raise ValueError("OOB score requires bootstrap=True")
        if self._oob_score is None:
            X, encoded, samples = self._oob
            out_of_bag = np.ones((X.shape[0], len(samples)), dtype=bool)
            out_of_bag[samples, np.arange(len(samples))[:, None]] = False
            covered = out_of_bag.any(axis=1)
            if not np.any(covered):
                raise ValueError("no out-of-bag samples; increase n_estimators")
            leaves = apply_trees(X, self._trees, self._roots)
            hits = self._vote(self._trees.value[leaves], include=out_of_bag)
            votes = np.argmax(hits[covered], axis=1)
            self._oob_score = float(np.mean(votes == encoded[covered]))
        return self._oob_score
