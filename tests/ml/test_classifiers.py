"""Tests for the five classifiers on synthetic, known-geometry data."""

import numpy as np
import pytest

from repro.ml.base import NotFittedError
from repro.ml.forest import RandomForestClassifier
from repro.ml.lda import LinearDiscriminantAnalysis
from repro.ml.mlp import MLPClassifier, _parameter_vector
from repro.ml.naive_bayes import BernoulliNB
from repro.ml.svm import SVC, rbf_kernel
from repro.ml.tree import DecisionTreeClassifier


def make_blobs(n_per_class=80, separation=4.0, seed=0, n_features=4):
    """Two Gaussian blobs: a linearly separable binary problem."""
    rng = np.random.default_rng(seed)
    center = np.full(n_features, separation / 2.0)
    X0 = rng.normal(-center, 1.0, size=(n_per_class, n_features))
    X1 = rng.normal(center, 1.0, size=(n_per_class, n_features))
    X = np.vstack([X0, X1])
    y = np.r_[np.zeros(n_per_class, dtype=int), np.ones(n_per_class, dtype=int)]
    order = rng.permutation(y.size)
    return X[order], y[order]


def make_xor(n=200, seed=1):
    """XOR pattern: not linearly separable — RBF SVM / trees / MLP territory."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    return X, y


ALL_FACTORIES = {
    "tree": lambda: DecisionTreeClassifier(random_state=0),
    "forest": lambda: RandomForestClassifier(n_estimators=25, random_state=0),
    "svm": lambda: SVC(C=10.0, gamma=0.5, max_iter=40),
    "mlp": lambda: MLPClassifier(hidden_layer_sizes=(16,), max_epochs=80, random_state=0),
    "lda": lambda: LinearDiscriminantAnalysis(),
    "bnb": lambda: BernoulliNB(),
}


class TestAllClassifiersSharedContract:
    @pytest.mark.parametrize("name", ALL_FACTORIES)
    def test_separable_blobs_high_accuracy(self, name):
        X, y = make_blobs()
        model = ALL_FACTORIES[name]().fit(X, y)
        assert model.score(X, y) >= 0.95

    @pytest.mark.parametrize("name", ALL_FACTORIES)
    def test_predict_proba_rows_sum_to_one(self, name):
        X, y = make_blobs(n_per_class=40)
        model = ALL_FACTORIES[name]().fit(X, y)
        probabilities = model.predict_proba(X)
        assert probabilities.shape == (X.shape[0], 2)
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        assert np.all(probabilities >= 0)

    @pytest.mark.parametrize("name", ALL_FACTORIES)
    def test_unfitted_predict_raises(self, name):
        with pytest.raises(NotFittedError):
            ALL_FACTORIES[name]().predict(np.zeros((3, 4)))

    @pytest.mark.parametrize("name", ALL_FACTORIES)
    def test_classes_attribute_sorted(self, name):
        X, y = make_blobs(n_per_class=30)
        labels = np.where(y == 1, "obfuscated", "normal")
        model = ALL_FACTORIES[name]().fit(X, labels)
        assert list(model.classes_) == ["normal", "obfuscated"]
        predictions = model.predict(X)
        assert set(predictions) <= {"normal", "obfuscated"}

    @pytest.mark.parametrize("name", ALL_FACTORIES)
    def test_decision_scores_rank_positives_higher(self, name):
        X, y = make_blobs()
        model = ALL_FACTORIES[name]().fit(X, y)
        scores = model.decision_scores(X)
        assert scores[y == 1].mean() > scores[y == 0].mean()

    @pytest.mark.parametrize("name", ALL_FACTORIES)
    def test_nan_input_rejected(self, name):
        X, y = make_blobs(n_per_class=20)
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            ALL_FACTORIES[name]().fit(X, y)


class TestDecisionTree:
    def test_pure_node_short_circuits(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.depth_ == 0
        assert tree.n_leaves_ == 1

    def test_single_split_problem(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.depth_ == 1
        assert np.array_equal(tree.predict(X), y)

    def test_max_depth_respected(self):
        X, y = make_xor(n=300)
        tree = DecisionTreeClassifier(max_depth=3, random_state=0).fit(X, y)
        assert tree.depth_ <= 3

    def test_min_samples_leaf(self):
        X, y = make_blobs(n_per_class=50)
        tree = DecisionTreeClassifier(min_samples_leaf=10, random_state=0).fit(X, y)
        leaves = tree.tree_.feature < 0
        assert leaves.sum() == tree.n_leaves_ > 1
        assert np.all(tree.tree_.counts[leaves].sum(axis=1) >= 10)

    def test_deep_tree_grows_without_recursion(self):
        # Every third row positive: each split cuts the lone positive or
        # the next two negatives off the left end, so the tree is a chain
        # 1999 levels deep, far past the interpreter's recursion limit.
        X = np.arange(3000.0)[:, None]
        y = np.zeros(3000, dtype=int)
        y[::3] = 1
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.depth_ == 1999
        assert tree.n_leaves_ == 2000
        assert tree.score(X, y) == 1.0
        assert tree.feature_importances_.tolist() == [1.0]

    def test_xor_needs_depth_two(self):
        X, y = make_xor(n=400)
        deep = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert deep.score(X, y) >= 0.95

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_leaf=0)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_features=0.0).fit(*make_blobs(10))


class TestRandomForest:
    def test_xor_generalization(self):
        X, y = make_xor(n=400, seed=2)
        X_test, y_test = make_xor(n=200, seed=3)
        forest = RandomForestClassifier(n_estimators=40, random_state=0).fit(X, y)
        assert forest.score(X_test, y_test) >= 0.9

    def test_oob_score_reasonable(self):
        X, y = make_blobs(n_per_class=100)
        forest = RandomForestClassifier(n_estimators=30, random_state=0).fit(X, y)
        assert forest.oob_score_ >= 0.9

    def test_oob_requires_bootstrap(self):
        X, y = make_blobs(n_per_class=20)
        forest = RandomForestClassifier(
            n_estimators=5, bootstrap=False, random_state=0
        ).fit(X, y)
        with pytest.raises(ValueError):
            _ = forest.oob_score_

    def test_deterministic_given_seed(self):
        X, y = make_blobs(n_per_class=30)
        a = RandomForestClassifier(n_estimators=10, random_state=5).fit(X, y)
        b = RandomForestClassifier(n_estimators=10, random_state=5).fit(X, y)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_invalid_estimator_count(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_wrong_feature_count_rejected(self):
        X, y = make_blobs(n_per_class=20)
        forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        for bad in (X[:, :2], np.hstack([X, X])):
            with pytest.raises(ValueError, match="expected 4 features"):
                forest.predict_proba(bad)


class TestSVM:
    def test_rbf_kernel_values(self):
        A = np.array([[0.0, 0.0], [1.0, 0.0]])
        K = rbf_kernel(A, A, gamma=1.0)
        assert K[0, 0] == pytest.approx(1.0)
        assert K[0, 1] == pytest.approx(np.exp(-1.0))
        assert np.allclose(K, K.T)

    def test_xor_with_rbf(self):
        X, y = make_xor(n=240, seed=4)
        model = SVC(C=10.0, gamma=5.0, max_iter=120).fit(X, y)
        assert model.score(X, y) >= 0.9
        # A linear kernel cannot express XOR.
        linear = SVC(C=10.0, gamma=1.0, kernel="linear", max_iter=60).fit(X, y)
        assert model.score(X, y) > linear.score(X, y)

    def test_support_vectors_are_subset(self):
        X, y = make_blobs(n_per_class=50)
        model = SVC(C=1.0, gamma=0.5, max_iter=40).fit(X, y)
        assert 0 < model.support_vectors_.shape[0] <= X.shape[0]

    def test_margin_violations_bounded_by_C(self):
        X, y = make_blobs(n_per_class=50)
        model = SVC(C=5.0, gamma=0.5, max_iter=40).fit(X, y)
        assert np.all(np.abs(model.dual_coef_) <= 5.0 + 1e-6)

    def test_multiclass_rejected(self):
        X = np.random.default_rng(0).random((30, 3))
        y = np.array([0, 1, 2] * 10)
        with pytest.raises(ValueError):
            SVC().fit(X, y)

    def test_gamma_scale(self):
        X, y = make_blobs(n_per_class=40)
        model = SVC(C=5.0, gamma="scale", max_iter=30).fit(X, y)
        assert model.score(X, y) >= 0.95

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SVC(C=-1.0)
        with pytest.raises(ValueError):
            SVC(kernel="poly")
        with pytest.raises(ValueError):
            SVC(gamma=-0.5).fit(*make_blobs(10))


class TestMLP:
    def test_xor_learnable(self):
        X, y = make_xor(n=400, seed=5)
        model = MLPClassifier(
            hidden_layer_sizes=(32,), max_epochs=300, random_state=0,
            early_stopping=False,
        ).fit(X, y)
        assert model.score(X, y) >= 0.9

    def test_loss_decreases(self):
        X, y = make_blobs(n_per_class=100)
        model = MLPClassifier(
            hidden_layer_sizes=(16,), max_epochs=40, random_state=0,
            early_stopping=False,
        ).fit(X, y)
        assert model.loss_curve_[-1] < model.loss_curve_[0]

    def test_early_stopping_halts_sooner(self):
        # Noisy labels: validation loss plateaus quickly, so patience fires.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 4))
        y = rng.integers(0, 2, size=300)
        eager = MLPClassifier(
            hidden_layer_sizes=(16,), max_epochs=200, random_state=0,
            early_stopping=True, n_iter_no_change=5,
        ).fit(X, y)
        assert eager.n_epochs_ < 200

    def test_two_hidden_layers(self):
        X, y = make_blobs(n_per_class=60)
        model = MLPClassifier(
            hidden_layer_sizes=(16, 8), max_epochs=60, random_state=0
        ).fit(X, y)
        assert model.score(X, y) >= 0.95

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MLPClassifier(hidden_layer_sizes=())
        with pytest.raises(ValueError):
            MLPClassifier(hidden_layer_sizes=(0,))
        with pytest.raises(ValueError):
            MLPClassifier(validation_fraction=1.5)

    def test_gradient_check(self):
        """Numerical gradient check on a tiny network, against the flat
        gradient vector the training loop writes through its layer views."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 3))
        y = rng.integers(0, 2, size=10)
        model = MLPClassifier(hidden_layer_sizes=(4,), random_state=0, alpha=0.0)
        model.fit(X[:2], y[:2] if len(set(y[:2])) == 2 else np.array([0, 1]))
        targets = y.astype(float)
        grads, grads_w, grads_b = _parameter_vector((3, 4, 1))
        grads.fill(np.nan)
        model._backprop(X, targets, grads_w, grads_b)
        assert np.isfinite(grads).all()  # every entry written
        epsilon = 1e-6
        numeric = []
        for array in (model._weights[0], model._biases[0], model._weights[1], model._biases[1]):
            for index in np.ndindex(array.shape):
                original = array[index]
                array[index] = original + epsilon
                up = model._loss(X, targets)
                array[index] = original - epsilon
                down = model._loss(X, targets)
                array[index] = original
                numeric.append((up - down) / (2 * epsilon))
        assert np.allclose(grads, numeric, atol=1e-4)


class TestLDA:
    def test_recovers_gaussian_boundary(self):
        X, y = make_blobs(n_per_class=200, separation=3.0)
        model = LinearDiscriminantAnalysis().fit(X, y)
        assert model.score(X, y) >= 0.95

    def test_priors_sum_to_one(self):
        X, y = make_blobs(n_per_class=30)
        model = LinearDiscriminantAnalysis().fit(X, y)
        assert model.priors_.sum() == pytest.approx(1.0)

    def test_collinear_features_stable(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(100, 1))
        X = np.hstack([base, base * 2.0, rng.normal(size=(100, 1))])
        y = (base.ravel() > 0).astype(int)
        model = LinearDiscriminantAnalysis().fit(X, y)
        assert model.score(X, y) >= 0.95

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).random((10, 2))
        with pytest.raises(ValueError):
            LinearDiscriminantAnalysis().fit(X, np.zeros(10))

    def test_negative_shrinkage_rejected(self):
        with pytest.raises(ValueError):
            LinearDiscriminantAnalysis(shrinkage=-1.0)


class TestBernoulliNB:
    def test_learns_bernoulli_pattern(self):
        rng = np.random.default_rng(0)
        n = 400
        y = rng.integers(0, 2, size=n)
        # Feature 0 fires mostly for class 1, feature 1 mostly for class 0.
        X = np.column_stack(
            [
                rng.random(n) < np.where(y == 1, 0.9, 0.1),
                rng.random(n) < np.where(y == 0, 0.9, 0.1),
            ]
        ).astype(float)
        model = BernoulliNB().fit(X, y)
        assert model.score(X, y) >= 0.85

    def test_absent_features_inform_prediction(self):
        """Bernoulli (not multinomial) NB: zeros carry signal."""
        X = np.array([[1.0, 0.0]] * 10 + [[0.0, 0.0]] * 10)
        y = np.array([1] * 10 + [0] * 10)
        model = BernoulliNB().fit(X, y)
        assert model.predict(np.array([[0.0, 0.0]]))[0] == 0

    def test_smoothing_handles_unseen_values(self):
        X = np.array([[1.0], [1.0], [0.0], [0.0]])
        y = np.array([1, 1, 0, 0])
        model = BernoulliNB(alpha=1.0).fit(X, y)
        probabilities = model.predict_proba(np.array([[1.0]]))
        assert np.all(probabilities > 0)

    def test_binarize_threshold(self):
        X = np.array([[5.0], [5.0], [-5.0], [-5.0]])
        y = np.array([1, 1, 0, 0])
        model = BernoulliNB(binarize=0.0).fit(X, y)
        assert model.predict(np.array([[7.0]]))[0] == 1
        assert model.predict(np.array([[-7.0]]))[0] == 0

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            BernoulliNB(alpha=0.0)


class TestFeatureImportances:
    def test_importances_sum_to_one(self):
        X, y = make_blobs(n_per_class=60)
        forest = RandomForestClassifier(n_estimators=15, random_state=0).fit(X, y)
        importances = forest.feature_importances_
        assert importances.shape == (X.shape[1],)
        assert importances.sum() == pytest.approx(1.0)
        assert np.all(importances >= 0)

    def test_informative_feature_ranks_first(self):
        rng = np.random.default_rng(0)
        n = 300
        informative = rng.normal(size=n)
        noise = rng.normal(size=(n, 3))
        X = np.column_stack([noise[:, 0], informative, noise[:, 1:]])
        y = (informative > 0).astype(int)
        forest = RandomForestClassifier(n_estimators=25, random_state=0).fit(X, y)
        assert int(np.argmax(forest.feature_importances_)) == 1

    def test_tree_importances_available(self):
        X, y = make_blobs(n_per_class=40)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert tree.feature_importances_.sum() == pytest.approx(1.0)

    def test_pure_training_set_gives_zero_importances(self):
        X = np.random.default_rng(0).random((10, 3))
        tree = DecisionTreeClassifier().fit(X, np.zeros(10, dtype=int))
        assert tree.feature_importances_.sum() == 0.0
