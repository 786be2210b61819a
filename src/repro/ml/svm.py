"""Support Vector Machine with RBF kernel, trained by SMO.

The paper uses SVM with ``C = 150`` and ``γ = 0.03`` (Section IV.D).  The
optimizer is the simplified Sequential Minimal Optimization algorithm
(Platt 1998; simplified variant per the CS229 notes): pick a KKT-violating
multiplier, pair it with a second, solve the two-variable subproblem
analytically, repeat until no multiplier moves for ``max_passes`` sweeps.

``predict_proba`` applies Platt scaling — a logistic fit on the decision
values — so the classifier plugs into ROC/AUC evaluation like the others.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import ClassifierMixin, check_array, check_X_y
from repro.ml.linalg import row_stable_matmul, row_stable_matvec


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """Gaussian kernel matrix K[i, j] = exp(-γ‖a_i − b_j‖²).

    Row-stable: K's row ``i`` is bit-identical whatever ``A``'s batch
    size, which keeps per-row and batched scoring exactly equal.
    """
    a_sq = np.sum(A * A, axis=1)[:, None]
    b_sq = np.sum(B * B, axis=1)[None, :]
    distances = a_sq + b_sq - 2.0 * row_stable_matmul(A, B.T)
    np.maximum(distances, 0.0, out=distances)
    return np.exp(-gamma * distances)


def linear_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    return row_stable_matmul(A, B.T)


_KERNELS = {"rbf": rbf_kernel, "linear": linear_kernel}


class SVC(ClassifierMixin):
    """Binary kernel SVM.

    Args:
        C: box constraint (paper value 150).
        gamma: RBF width (paper value 0.03), or "scale" for
            ``1 / (n_features · Var[X])``.
        kernel: "rbf" or "linear".
        tol: KKT violation tolerance.
        max_passes: consecutive full sweeps without updates before stopping.
        max_iter: hard cap on optimization sweeps.
    """

    def __init__(
        self,
        C: float = 150.0,
        gamma: float | str = 0.03,
        kernel: str = "rbf",
        tol: float = 1e-3,
        max_passes: int = 3,
        max_iter: int = 200,
        random_state: int | None = 0,
    ) -> None:
        if C <= 0:
            raise ValueError("C must be positive")
        if kernel not in _KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}")
        self.C = C
        self.gamma = gamma
        self.kernel = kernel
        self.tol = tol
        self.max_passes = max_passes
        self.max_iter = max_iter
        self.random_state = random_state

    # ------------------------------------------------------------------

    def fit(self, X, y) -> "SVC":
        X, y = check_X_y(X, y)
        encoded = self._encode_labels(y)
        if len(self.classes_) != 2:
            raise ValueError("SVC supports exactly two classes")
        signs = np.where(encoded == 1, 1.0, -1.0)
        self._gamma_value = self._resolve_gamma(X)
        kernel_fn = _KERNELS[self.kernel]
        K = kernel_fn(X, X, self._gamma_value)

        n = X.shape[0]
        alpha = np.zeros(n)
        b = 0.0
        rng = np.random.default_rng(self.random_state)

        def decision_all() -> np.ndarray:
            return (alpha * signs) @ K + b

        passes = 0
        iteration = 0
        while passes < self.max_passes and iteration < self.max_iter:
            changed = 0
            errors = decision_all() - signs
            for i in range(n):
                E_i = float((alpha * signs) @ K[:, i] + b - signs[i])
                r_i = E_i * signs[i]
                if not (
                    (r_i < -self.tol and alpha[i] < self.C)
                    or (r_i > self.tol and alpha[i] > 0)
                ):
                    continue
                # Second-choice heuristic: maximize |E_i − E_j|.
                j = int(np.argmax(np.abs(errors - E_i)))
                if j == i:
                    j = int(rng.integers(0, n - 1))
                    if j >= i:
                        j += 1
                E_j = float((alpha * signs) @ K[:, j] + b - signs[j])

                alpha_i_old, alpha_j_old = alpha[i], alpha[j]
                if signs[i] != signs[j]:
                    low = max(0.0, alpha[j] - alpha[i])
                    high = min(self.C, self.C + alpha[j] - alpha[i])
                else:
                    low = max(0.0, alpha[i] + alpha[j] - self.C)
                    high = min(self.C, alpha[i] + alpha[j])
                if low == high:
                    continue
                eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
                if eta >= 0:
                    continue
                alpha[j] = alpha_j_old - signs[j] * (E_i - E_j) / eta
                alpha[j] = min(high, max(low, alpha[j]))
                if abs(alpha[j] - alpha_j_old) < 1e-7:
                    continue
                alpha[i] = alpha_i_old + signs[i] * signs[j] * (
                    alpha_j_old - alpha[j]
                )
                b1 = (
                    b
                    - E_i
                    - signs[i] * (alpha[i] - alpha_i_old) * K[i, i]
                    - signs[j] * (alpha[j] - alpha_j_old) * K[i, j]
                )
                b2 = (
                    b
                    - E_j
                    - signs[i] * (alpha[i] - alpha_i_old) * K[i, j]
                    - signs[j] * (alpha[j] - alpha_j_old) * K[j, j]
                )
                if 0 < alpha[i] < self.C:
                    b = b1
                elif 0 < alpha[j] < self.C:
                    b = b2
                else:
                    b = 0.5 * (b1 + b2)
                errors = decision_all() - signs
                changed += 1
            passes = passes + 1 if changed == 0 else 0
            iteration += 1

        support = alpha > 1e-8
        self.support_vectors_ = X[support]
        self.dual_coef_ = (alpha * signs)[support]
        self.intercept_ = b
        self.n_iter_ = iteration
        self._fit_platt_scaling(X, signs)
        return self

    def _resolve_gamma(self, X: np.ndarray) -> float:
        if self.gamma == "scale":
            variance = X.var()
            if variance == 0:
                variance = 1.0
            return 1.0 / (X.shape[1] * variance)
        value = float(self.gamma)
        if value <= 0:
            raise ValueError("gamma must be positive")
        return value

    def _fit_platt_scaling(self, X: np.ndarray, signs: np.ndarray) -> None:
        """Fit sigmoid P(y=1|f) = 1 / (1 + exp(A·f + B)) by gradient descent."""
        decisions = self.decision_function(X)
        negated = -decisions
        targets = (signs + 1.0) / 2.0
        n = decisions.shape[0]
        A, B = -1.0, 0.0
        # Bare ufuncs: the np.mean / np.clip wrappers cost more than the
        # arithmetic at this size, and these give the same bits.
        for _ in range(200):
            z = A * decisions + B
            p = 1.0 / (1.0 + np.exp(np.minimum(np.maximum(z, -35), 35)))
            gradient = p - targets  # d(-loglik)/dz with p = P(y=1)
            grad_A = float(np.add.reduce(gradient * negated) / n)
            grad_B = float(np.add.reduce(-gradient) / n)
            A -= 0.1 * grad_A
            B -= 0.1 * grad_B
        self._platt_A, self._platt_B = A, B

    # ------------------------------------------------------------------

    def decision_function(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X)
        if self.support_vectors_.shape[0] == 0:
            return np.full(X.shape[0], self.intercept_)
        kernel_fn = _KERNELS[self.kernel]
        K = kernel_fn(X, self.support_vectors_, self._gamma_value)
        return row_stable_matvec(K, self.dual_coef_) + self.intercept_

    def predict(self, X) -> np.ndarray:
        decisions = self.decision_function(X)
        return self._decode_labels((decisions >= 0).astype(int))

    def predict_proba(self, X) -> np.ndarray:
        decisions = self.decision_function(X)
        z = self._platt_A * decisions + self._platt_B
        positive = 1.0 / (1.0 + np.exp(np.clip(z, -35, 35)))
        return np.column_stack([1.0 - positive, positive])

    def decision_scores(self, X) -> np.ndarray:
        return self.decision_function(X)
