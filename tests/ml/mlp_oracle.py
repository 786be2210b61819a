"""The per-layer MLP training loop, kept as the reference implementation.

This is the :class:`MLPClassifier` that the one-vector training loop in
:mod:`repro.ml.mlp` replaced.  It keeps each layer's weights, biases,
gradients and Adam moments as separate arrays and updates them one layer
at a time through temporary-producing array expressions, so each rule
reads directly off the code.  The tests require the production loop to
reproduce its weights, biases, loss curve, epoch count and scores byte for
byte.  Kept verbatim; do not "fix" it.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import ClassifierMixin, check_array, check_X_y
from repro.ml.linalg import row_stable_matmul


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(np.clip(-z, -35, 35)))


class MLPClassifier(ClassifierMixin):
    """Binary MLP with one or more ReLU hidden layers.

    Args:
        hidden_layer_sizes: widths of the hidden layers.
        learning_rate: Adam step size.
        alpha: L2 penalty.
        batch_size: mini-batch size.
        max_epochs: training epoch cap.
        early_stopping: stop when validation loss stops improving.
        n_iter_no_change: patience for early stopping.
        validation_fraction: share of training data held out for validation.
    """

    def __init__(
        self,
        hidden_layer_sizes: tuple[int, ...] = (100,),
        learning_rate: float = 1e-3,
        alpha: float = 1e-4,
        batch_size: int = 64,
        max_epochs: int = 200,
        early_stopping: bool = True,
        n_iter_no_change: int = 10,
        validation_fraction: float = 0.1,
        random_state: int | None = 0,
    ) -> None:
        if not hidden_layer_sizes or any(h < 1 for h in hidden_layer_sizes):
            raise ValueError("hidden layers must all be >= 1 unit")
        if not 0.0 < validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")
        self.hidden_layer_sizes = tuple(hidden_layer_sizes)
        self.learning_rate = learning_rate
        self.alpha = alpha
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.early_stopping = early_stopping
        self.n_iter_no_change = n_iter_no_change
        self.validation_fraction = validation_fraction
        self.random_state = random_state

    # ------------------------------------------------------------------

    def fit(self, X, y) -> "MLPClassifier":
        X, y = check_X_y(X, y)
        encoded = self._encode_labels(y)
        if len(self.classes_) != 2:
            raise ValueError("MLPClassifier supports exactly two classes")
        targets = encoded.astype(np.float64)
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)

        layer_sizes = (self.n_features_, *self.hidden_layer_sizes, 1)
        self._weights = []
        self._biases = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)  # He initialization for ReLU
            self._weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self._biases.append(np.zeros(fan_out))

        # Validation split for early stopping.
        n_samples = X.shape[0]
        if self.early_stopping and n_samples >= 20:
            indices = rng.permutation(n_samples)
            n_val = max(1, int(n_samples * self.validation_fraction))
            val_idx, train_idx = indices[:n_val], indices[n_val:]
            X_train, t_train = X[train_idx], targets[train_idx]
            X_val, t_val = X[val_idx], targets[val_idx]
        else:
            X_train, t_train = X, targets
            X_val, t_val = None, None

        m_w = [np.zeros_like(w) for w in self._weights]
        v_w = [np.zeros_like(w) for w in self._weights]
        m_b = [np.zeros_like(b) for b in self._biases]
        v_b = [np.zeros_like(b) for b in self._biases]
        beta1, beta2, epsilon = 0.9, 0.999, 1e-8
        step = 0
        best_loss = np.inf
        stale_epochs = 0
        best_state = None
        self.loss_curve_: list[float] = []

        for epoch in range(self.max_epochs):
            order = rng.permutation(X_train.shape[0])
            epoch_loss = 0.0
            batches = 0
            for start in range(0, X_train.shape[0], self.batch_size):
                batch = order[start : start + self.batch_size]
                Xb, tb = X_train[batch], t_train[batch]
                grads_w, grads_b, loss = self._backprop(Xb, tb)
                epoch_loss += loss
                batches += 1
                step += 1
                for layer, (gw, gb) in enumerate(zip(grads_w, grads_b)):
                    m_w[layer] = beta1 * m_w[layer] + (1 - beta1) * gw
                    v_w[layer] = beta2 * v_w[layer] + (1 - beta2) * gw * gw
                    m_b[layer] = beta1 * m_b[layer] + (1 - beta1) * gb
                    v_b[layer] = beta2 * v_b[layer] + (1 - beta2) * gb * gb
                    m_w_hat = m_w[layer] / (1 - beta1**step)
                    v_w_hat = v_w[layer] / (1 - beta2**step)
                    m_b_hat = m_b[layer] / (1 - beta1**step)
                    v_b_hat = v_b[layer] / (1 - beta2**step)
                    self._weights[layer] -= (
                        self.learning_rate * m_w_hat / (np.sqrt(v_w_hat) + epsilon)
                    )
                    self._biases[layer] -= (
                        self.learning_rate * m_b_hat / (np.sqrt(v_b_hat) + epsilon)
                    )
            self.loss_curve_.append(epoch_loss / max(1, batches))

            if X_val is not None:
                val_loss = self._loss(X_val, t_val)
                if val_loss < best_loss - 1e-5:
                    best_loss = val_loss
                    stale_epochs = 0
                    best_state = (
                        [w.copy() for w in self._weights],
                        [b.copy() for b in self._biases],
                    )
                else:
                    stale_epochs += 1
                    if stale_epochs >= self.n_iter_no_change:
                        break
        if best_state is not None:
            self._weights, self._biases = best_state
        self.n_epochs_ = len(self.loss_curve_)
        return self

    # ------------------------------------------------------------------

    def _forward(self, X: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        # Row-stable layer products: a sample's activations (hence score)
        # are bit-identical at any batch size.
        activations = [X]
        hidden = X
        for weight, bias in zip(self._weights[:-1], self._biases[:-1]):
            hidden = _relu(row_stable_matmul(hidden, weight) + bias)
            activations.append(hidden)
        output = _sigmoid(
            row_stable_matmul(hidden, self._weights[-1]) + self._biases[-1]
        ).ravel()
        return activations, output

    def _loss(self, X: np.ndarray, targets: np.ndarray) -> float:
        _, output = self._forward(X)
        output = np.clip(output, 1e-12, 1 - 1e-12)
        return float(
            -np.mean(targets * np.log(output) + (1 - targets) * np.log(1 - output))
        )

    def _backprop(self, X: np.ndarray, targets: np.ndarray):
        activations, output = self._forward(X)
        n = X.shape[0]
        clipped = np.clip(output, 1e-12, 1 - 1e-12)
        loss = float(
            -np.mean(
                targets * np.log(clipped) + (1 - targets) * np.log(1 - clipped)
            )
        )
        grads_w: list[np.ndarray] = [None] * len(self._weights)
        grads_b: list[np.ndarray] = [None] * len(self._biases)
        # Output layer: d(BCE∘sigmoid)/dz = (p − t).
        delta = ((output - targets) / n)[:, None]
        grads_w[-1] = activations[-1].T @ delta + self.alpha * self._weights[-1]
        grads_b[-1] = delta.sum(axis=0)
        upstream = delta @ self._weights[-1].T
        for layer in range(len(self._weights) - 2, -1, -1):
            mask = activations[layer + 1] > 0  # ReLU derivative
            delta_h = upstream * mask
            grads_w[layer] = (
                activations[layer].T @ delta_h + self.alpha * self._weights[layer]
            )
            grads_b[layer] = delta_h.sum(axis=0)
            upstream = delta_h @ self._weights[layer].T
        return grads_w, grads_b, loss

    # ------------------------------------------------------------------

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        _, output = self._forward(X)
        return np.column_stack([1.0 - output, output])
