"""Differential tests: the one-vector MLP training loop against the oracle.

:mod:`tests.ml.mlp_oracle` keeps the per-layer training loop that
:mod:`repro.ml.mlp` replaced.  On fixed-seed fuzz cases (hidden layers
``(100,)``, ``(16, 8)`` and ``(3,)``; early stopping on and off; batch
sizes 17, 64 and larger than the sample count; fewer and more than the 20
samples early stopping needs; 1 to 30 features; several random states)
both must agree byte for byte on the fitted weights and biases,
``loss_curve_``, ``n_epochs_`` and ``predict_proba``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.mlp import MLPClassifier
from tests.ml import mlp_oracle

N_CASES = 36
HIDDEN = ((100,), (16, 8), (3,))


def make_case(index: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """One fixed-seed problem and one set of training parameters."""
    rng = np.random.default_rng(9100 + index)
    n_samples = int(rng.integers(4, 20) if index % 4 == 0 else rng.integers(20, 160))
    n_features = int(rng.integers(1, 31))
    X = rng.normal(size=(n_samples, n_features)) * rng.choice([0.1, 1.0, 10.0])
    if index % 5 == 0:
        X = np.round(X)  # ties and exact zeros through the ReLU
    weights = rng.normal(size=n_features)
    y = (X @ weights + rng.normal(size=n_samples) > 0).astype(int)
    y[:2] = (0, 1)  # both classes, always
    batch_size = (17, 64, n_samples + int(rng.integers(1, 50)))[index % 3]
    params = {
        "hidden_layer_sizes": HIDDEN[(index // 3) % len(HIDDEN)],
        "batch_size": batch_size,
        "early_stopping": index % 2 == 0,
        "n_iter_no_change": int(rng.integers(2, 8)),
        "max_epochs": int(rng.integers(5, 60)),
        "alpha": float(rng.choice([0.0, 1e-4, 1e-2])),
        "random_state": int(rng.integers(0, 2**31)),
    }
    return X, y, params


def fitted_bytes(model, X: np.ndarray) -> tuple:
    return (
        [w.tobytes() for w in model._weights],
        [b.tobytes() for b in model._biases],
        list(model.loss_curve_),
        model.n_epochs_,
        model.predict_proba(X).tobytes(),
    )


@pytest.mark.parametrize("index", range(N_CASES))
def test_training_matches_the_oracle(index):
    X, y, params = make_case(index)
    fast = MLPClassifier(**params).fit(X, y)
    oracle = mlp_oracle.MLPClassifier(**params).fit(X, y)
    assert fitted_bytes(fast, X) == fitted_bytes(oracle, X)


def test_cases_cover_the_parameter_grid():
    cases = [make_case(index) for index in range(N_CASES)]
    seen = {
        (
            params["hidden_layer_sizes"],
            params["early_stopping"],
            params["batch_size"] > X.shape[0],
            X.shape[0] >= 20,
        )
        for X, _, params in cases
    }
    # Every hidden shape meets early stopping on and off and a ragged batch.
    for hidden in HIDDEN:
        for early in (True, False):
            assert any(key[:2] == (hidden, early) for key in seen)
    assert {key[2] for key in seen} == {True, False}
    assert {key[3] for key in seen} == {True, False}
    # Early stopping really fires (and restores a snapshot) in some cases.
    stopped = 0
    for X, y, params in cases:
        if params["early_stopping"] and X.shape[0] >= 20:
            model = MLPClassifier(**params).fit(X, y)
            stopped += model.n_epochs_ < params["max_epochs"]
    assert stopped >= 2


def test_layer_arrays_are_views_of_one_vector():
    X, y, params = make_case(1)
    model = MLPClassifier(**params).fit(X, y)
    arrays = model._weights + model._biases
    base = arrays[0].base
    assert base is not None and all(array.base is base for array in arrays)
    assert sum(array.size for array in arrays) == base.size
