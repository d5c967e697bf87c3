"""Linear SVM trained by dual coordinate descent.

Minimizes 0.5*||w||^2 + C * sum_i hinge(y_i * (w.x_i + b)), with the bias
absorbed as an always-1 feature (so b is lightly regularized too, as in
common linear-SVM solvers). Epoch order is a seeded shuffle; iteration
stops at a fixed epoch cap or when the largest projected gradient falls
below tolerance, so training is fully deterministic. Scores are the
sigmoid of the margin: monotone in the margin, so threshold sweeps
reorder nothing and 0.5 reproduces the sign rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PipelineError, QflakeError
from ..linalg import decode_array, encode_array
from ..seeding import STREAM_MODEL, rng_for
from .base import (
    REQUIRED,
    check_scoring_input,
    check_training_data,
    finite_number,
    sigmoid,
    validate_params,
)

_SVM_PARAMS = {"C": (REQUIRED, "a finite number > 0", lambda v: finite_number(v) and v > 0)}
MAX_EPOCHS = 1000
TOL = 1e-6  # stop once no projected gradient exceeds it


@dataclass
class LinearSvmModel:
    family = "svm"
    w: np.ndarray
    b: float

    def __post_init__(self):
        self.w.setflags(write=False)

    @property
    def n_features(self) -> int:
        return self.w.shape[0]

    def margin(self, X) -> np.ndarray:
        X = check_scoring_input(X, self.n_features)
        return X @ self.w + self.b

    def score(self, X) -> np.ndarray:
        return sigmoid(self.margin(X))

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "w": encode_array(self.w),
            "b": float(self.b),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearSvmModel":
        b = d["b"]
        if not finite_number(b):
            raise QflakeError(f"svm bias must be a finite number, got {b!r}")
        return cls(w=decode_array(d["w"], 1), b=float(b))


def train_svm(X, y, params=None, seed=0) -> LinearSvmModel:
    X, y = check_training_data(X, y)
    C = float(validate_params("svm", params or {}, _SVM_PARAMS)["C"])
    classes = np.unique(y)
    if len(classes) < 2:
        raise PipelineError("SVM training needs both classes present")

    n = X.shape[0]
    Xa = np.hstack([X, np.ones((n, 1))])
    # Python floats for the per-coordinate scalars and one in-place update
    # of w: the same IEEE operations, in the same order, as on numpy
    # scalars, at a fraction of the interpreter cost
    yy = (2.0 * y - 1.0).astype(np.float64).tolist()
    q = (Xa**2).sum(axis=1).tolist()
    rows = list(Xa)

    alpha = [0.0] * n
    w = np.zeros(Xa.shape[1], dtype=np.float64)
    rng = rng_for(seed, STREAM_MODEL)
    for _ in range(MAX_EPOCHS):
        worst = 0.0
        for i in rng.permutation(n).tolist():
            a = alpha[i]
            grad = yy[i] * float(w @ rows[i]) - 1.0
            if a == 0.0:
                projected = min(grad, 0.0)
            elif a == C:
                projected = max(grad, 0.0)
            else:
                projected = grad
            worst = max(worst, abs(projected))
            if abs(projected) > 1e-12:
                updated = min(max(a - grad / q[i], 0.0), C)
                if updated != a:
                    w += (updated - a) * yy[i] * rows[i]
                    alpha[i] = updated
        if worst < TOL:
            break
    return LinearSvmModel(w=w[:-1].copy(), b=float(w[-1]))
