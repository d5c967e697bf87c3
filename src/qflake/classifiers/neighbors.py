"""K-nearest neighbors with inverse-distance weighting.

Distance ties are broken by lowest stored-row index. When any selected
neighbor sits at distance zero, the score is the flaky fraction among the
zero-distance neighbors alone, so a query identical to a stored row
recovers that row's label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PipelineError, QflakeError
from ..linalg import decode_array, encode_array
from .base import (
    REQUIRED, check_scoring_input, check_training_data, integer_at_least, validate_params
)

_KNN_PARAMS = {
    "n_neighbors": (REQUIRED, "an integer >= 1", lambda v: integer_at_least(v, 1)),
}


@dataclass
class KnnModel:
    family = "knn"
    X_train: np.ndarray
    y_train: np.ndarray
    n_neighbors: int

    def __post_init__(self):
        self.X_train.setflags(write=False)
        self.y_train.setflags(write=False)

    @property
    def n_features(self) -> int:
        return self.X_train.shape[1]

    def score(self, X) -> np.ndarray:
        X = check_scoring_input(X, self.n_features)
        out = np.empty(X.shape[0], dtype=np.float64)
        yf = self.y_train.astype(np.float64)
        for i in range(X.shape[0]):
            d = np.sqrt(((self.X_train - X[i]) ** 2).sum(axis=1))
            sel = np.argsort(d, kind="stable")[: self.n_neighbors]
            dsel = d[sel]
            zero = dsel == 0.0
            if zero.any():
                out[i] = yf[sel][zero].mean()
            else:
                w = 1.0 / dsel
                out[i] = float((w * yf[sel]).sum() / w.sum())
        return out

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "X_train": encode_array(self.X_train),
            "y_train": [int(v) for v in self.y_train],
            "n_neighbors": int(self.n_neighbors),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "KnnModel":
        X_train = decode_array(d["X_train"], 2)
        y_train, k = d["y_train"], d["n_neighbors"]
        if len(y_train) != len(X_train):
            raise QflakeError(
                f"knn payload has {len(y_train)} labels for {len(X_train)} rows"
            )
        if not all(type(v) is int and v in (0, 1) for v in y_train):
            raise QflakeError("knn labels must be 0 (nonflaky) or 1 (flaky)")
        if type(k) is not int or not 1 <= k <= len(X_train):
            raise QflakeError(
                f"knn n_neighbors must be an integer in [1, {len(X_train)}], got {k!r}"
            )
        return cls(X_train=X_train, y_train=np.array(y_train, dtype=np.int8), n_neighbors=k)


def train_knn(X, y, params=None, seed=0) -> KnnModel:
    X, y = check_training_data(X, y)
    resolved = validate_params("knn", params or {}, _KNN_PARAMS)
    k = resolved["n_neighbors"]
    if k > X.shape[0]:
        raise PipelineError(
            f"n_neighbors={k} exceeds the {X.shape[0]} training rows"
        )
    return KnnModel(X_train=X.copy(), y_train=y.copy(), n_neighbors=k)
