"""Differential tests: the array-backed lockstep trees against the oracle.

:mod:`tests.ml.tree_oracle` keeps the recursive ``_Node`` CART tree and the
tree-at-a-time forest that :mod:`repro.ml.tree` and :mod:`repro.ml.forest`
replaced.  On fixed-seed fuzz cases (2 to 4 classes, tied values, depth and
leaf-size limits, every ``max_features`` form, with and without bootstrap,
bootstrap samples that miss a class) both must agree byte for byte on
``predict_proba`` (including 0- and 1-row inputs), ``feature_importances_``,
``oob_score_``, ``depth_`` and ``n_leaves_``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from tests.ml import tree_oracle

N_CASES = 60
MAX_FEATURES = ("sqrt", "log2", "int", "float", None)


def make_case(index: int) -> dict:
    """One fixed-seed problem and one set of tree parameters."""
    rng = np.random.default_rng(7000 + index)
    n_classes = int(rng.integers(2, 5))
    n_samples = int(rng.integers(6, 90))
    n_features = int(rng.integers(1, 8))
    X = rng.normal(size=(n_samples, n_features)) * rng.choice([1.0, 3.0, 100.0])
    if index % 3 == 0:
        X = np.round(X)  # many tied values
    elif index % 3 == 1:
        X = np.round(X, 1)
    y = rng.integers(0, n_classes, size=n_samples)
    if index % 7 == 0:
        y = np.array(["benign", "obfuscated", "dropper", "stomped"])[y]
    max_features = MAX_FEATURES[index % len(MAX_FEATURES)]
    if max_features == "int":
        max_features = int(rng.integers(1, n_features + 1))
    elif max_features == "float":
        max_features = float(rng.uniform(0.05, 1.0))
    params = {
        "max_depth": [None, None, 1, 2, 4][int(rng.integers(0, 5))],
        "min_samples_split": int(rng.choice([2, 2, 3, 6])),
        "min_samples_leaf": int(rng.choice([1, 1, 2, 5])),
        "max_features": max_features,
    }
    X_test = np.vstack([X[::2], rng.normal(size=(5, n_features)) * 2.0])
    return {"X": X, "y": y, "X_test": X_test, "params": params, "seed": index}


def redraw(random_state: int, n_samples: int, n_estimators: int, bootstrap: bool):
    """Each tree's bootstrap sample and seed, drawn as the forest draws them."""
    rng = np.random.default_rng(random_state)
    samples, seeds = [], []
    for _ in range(n_estimators):
        if bootstrap:
            samples.append(rng.integers(0, n_samples, size=n_samples))
        else:
            samples.append(np.arange(n_samples))
        seeds.append(int(rng.integers(0, 2**31 - 1)))
    return samples, seeds


def assert_same_tree(new, old, X_test) -> None:
    for rows in (X_test, X_test[:0], X_test[:1]):
        assert new.predict_proba(rows).tobytes() == old.predict_proba(rows).tobytes()
    assert new.feature_importances_.tobytes() == old.feature_importances_.tobytes()
    assert new.depth_ == old.depth_
    assert new.n_leaves_ == old.n_leaves_
    assert np.array_equal(new.classes_, old.classes_)


@pytest.mark.parametrize("index", range(N_CASES))
def test_tree_matches_oracle(index):
    case = make_case(index)
    new = DecisionTreeClassifier(random_state=case["seed"], **case["params"])
    old = tree_oracle.DecisionTreeClassifier(random_state=case["seed"], **case["params"])
    new.fit(case["X"], case["y"])
    old.fit(case["X"], case["y"])
    assert_same_tree(new, old, case["X_test"])
    assert np.array_equal(new.predict(case["X_test"]), old.predict(case["X_test"]))


def check_forest(X, y, X_test, bootstrap: bool, n_estimators: int, seed: int, params):
    new = RandomForestClassifier(
        n_estimators=n_estimators, bootstrap=bootstrap, random_state=seed, **params
    ).fit(X, y)
    classes, encoded = np.unique(y, return_inverse=True)
    samples, seeds = redraw(seed, X.shape[0], n_estimators, bootstrap)

    # Every estimator is the oracle tree fitted on its own sample, and the
    # forest averages them with columns aligned to the classes each saw.
    total = np.zeros((X_test.shape[0], classes.size))
    for estimator, sample, tree_seed in zip(new.estimators_, samples, seeds):
        old_tree = tree_oracle.DecisionTreeClassifier(
            random_state=tree_seed, **params
        ).fit(X[sample], encoded[sample])
        assert_same_tree(estimator, old_tree, X_test)
        total[:, old_tree.classes_.astype(int)] += old_tree.predict_proba(X_test)
    expected = total / n_estimators
    assert new.predict_proba(X_test).tobytes() == expected.tobytes()

    every_class_seen = all(
        estimator.classes_.size == classes.size for estimator in new.estimators_
    )
    if every_class_seen:
        old = tree_oracle.RandomForestClassifier(
            n_estimators=n_estimators, bootstrap=bootstrap, random_state=seed, **params
        ).fit(X, y)
        for rows in (X_test, X_test[:0], X_test[:1]):
            assert new.predict_proba(rows).tobytes() == old.predict_proba(rows).tobytes()
        assert np.array_equal(new.predict(X_test), old.predict(X_test))
        assert new.feature_importances_.tobytes() == old.feature_importances_.tobytes()
        oracle_oob = _score_or_error(lambda: old.oob_score_)
        assert _score_or_error(lambda: new.oob_score_) == oracle_oob
    elif bootstrap:
        assert _score_or_error(lambda: new.oob_score_) == aligned_oob(
            X, encoded, samples, seeds, params, classes.size
        )
    return new


def aligned_oob(X, encoded, samples, seeds, params, n_classes):
    """The oracle's out-of-bag score with each tree's probability columns
    placed at the classes that tree saw (as its ``predict_proba`` is)."""
    hits = np.zeros((X.shape[0], n_classes))
    scored = np.zeros(X.shape[0])
    for sample, tree_seed in zip(samples, seeds):
        tree = tree_oracle.DecisionTreeClassifier(random_state=tree_seed, **params)
        tree.fit(X[sample], encoded[sample])
        out_of_bag = np.setdiff1d(np.arange(X.shape[0]), np.unique(sample))
        if out_of_bag.size:
            hits[np.ix_(out_of_bag, tree.classes_.astype(int))] += tree.predict_proba(
                X[out_of_bag]
            )
            scored[out_of_bag] += 1
    covered = scored > 0
    if not np.any(covered):
        return "ValueError"
    return float(np.mean(np.argmax(hits[covered], axis=1) == encoded[covered]))


def _score_or_error(read):
    try:
        return read()
    except ValueError:
        return "ValueError"


@pytest.mark.parametrize("index", range(N_CASES))
def test_forest_matches_oracle(index):
    case = make_case(index)
    check_forest(
        case["X"],
        case["y"],
        case["X_test"],
        bootstrap=index % 4 != 0,
        n_estimators=1 + index % 9,
        seed=case["seed"],
        params=case["params"],
    )


def test_bootstrap_missing_a_class():
    """Two of ten bootstrap samples hold no positive row."""
    rng = np.random.default_rng(3)
    X = np.round(rng.normal(size=(12, 3)), 1)
    y = np.zeros(12, dtype=int)
    y[:2] = 1
    forest = check_forest(
        X, y, X, bootstrap=True, n_estimators=10, seed=0, params={"max_features": "sqrt"}
    )
    assert sorted(e.classes_.size for e in forest.estimators_)[:2] == [1, 1]


def test_bootstrap_missing_one_of_three_classes():
    """A tree-at-a-time forest could not add a two-class tree's out-of-bag
    votes into three columns; the array forest aligns them."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(12, 3))
    y = np.zeros(12, dtype=int)
    y[:2], y[2:4] = 1, 2
    with pytest.raises(ValueError):
        tree_oracle.RandomForestClassifier(n_estimators=20, random_state=1).fit(X, y)
    forest = check_forest(
        X, y, X, bootstrap=True, n_estimators=20, seed=1, params={"max_features": "sqrt"}
    )
    assert min(e.classes_.size for e in forest.estimators_) < 3
    assert 0.0 <= forest.oob_score_ <= 1.0


def test_paper_shaped_forest_matches_oracle():
    """The Table V configuration (60 trees, sqrt features) on a binary
    problem with heavy ties, as the V/J count features have."""
    rng = np.random.default_rng(15)
    X = np.floor(np.abs(rng.normal(size=(110, 15))) * rng.uniform(1, 40, size=15))
    y = (X[:, 0] + rng.normal(scale=8.0, size=110) > 15).astype(int)
    check_forest(X, y, X, bootstrap=True, n_estimators=60, seed=0, params={"max_features": "sqrt"})


def test_rounding_noise_is_not_a_split():
    """Both halves hold one row of each class: the true gain is zero and
    the rounded one 1.1e-16, below the 1e-12 floor, so no split."""
    X = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]])
    y = np.array([0, 1, 2, 0, 1, 2])
    new = DecisionTreeClassifier().fit(X, y)
    assert_same_tree(new, tree_oracle.DecisionTreeClassifier().fit(X, y), X)
    assert new.depth_ == 0
