"""SMOTE oversampling of the minority class to parity.

Synthetic rows are convex combinations x + u * (neighbor - x) of a
minority point and one of its k nearest minority neighbors (Euclidean,
ties broken by lowest row index). Base points cycle in a seeded shuffled
order rather than being resampled, so the synthetics spread evenly over
the minority class. When PCA is part of a pipeline, SMOTE runs first, in
raw count space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PipelineError, QflakeError
from .linalg import as_matrix
from .seeding import STREAM_SMOTE, rng_for


@dataclass(frozen=True)
class ResampledSet:
    X: np.ndarray               # originals first, synthetics appended
    y: np.ndarray
    synthetic_mask: np.ndarray  # True exactly on appended rows

    def __post_init__(self):
        for arr in (self.X, self.y, self.synthetic_mask):
            arr.setflags(write=False)

    @property
    def n_synthetic(self) -> int:
        return int(self.synthetic_mask.sum())


def _minority_neighbor_table(M: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest minority neighbors of each minority row,
    self excluded, distance ties broken by lowest row index.
    """
    m = M.shape[0]
    table = np.empty((m, k), dtype=np.int64)
    for i in range(m):
        d = np.sqrt(((M - M[i]) ** 2).sum(axis=1))
        d[i] = np.inf
        order = np.argsort(d, kind="stable")
        table[i] = order[:k]
    return table


def smote_resample(X, y, k_neighbors: int = 5, seed: int = 0) -> ResampledSet:
    """Oversample the minority class until class counts are equal.

    Already-balanced input is returned unchanged with an all-False mask.
    Duplicate minority points are legal: interpolating toward a
    zero-distance neighbor just reproduces the original point.
    """
    X = as_matrix(X)
    y = np.asarray(y, dtype=np.int8)
    if len(y) != X.shape[0]:
        raise QflakeError("X and y disagree on the number of rows")
    if k_neighbors < 1:
        raise QflakeError("k_neighbors must be at least 1")

    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == n_neg:
        return ResampledSet(
            X=X.copy(), y=y.copy(), synthetic_mask=np.zeros(len(y), dtype=bool)
        )
    minority_label = 1 if n_pos < n_neg else 0
    minority_idx = np.flatnonzero(y == minority_label)
    m = len(minority_idx)
    if m < 2:
        raise PipelineError(
            f"minority class has {m} sample(s); SMOTE needs at least 2"
        )

    k_eff = min(k_neighbors, m - 1)
    M = X[minority_idx]
    neighbors = _minority_neighbor_table(M, k_eff)

    rng = rng_for(seed, STREAM_SMOTE)
    order = rng.permutation(m)
    n_needed = abs(n_pos - n_neg)
    synth = np.empty((n_needed, X.shape[1]), dtype=np.float64)
    for t in range(n_needed):
        base = order[t % m]
        nbr = neighbors[base, rng.integers(0, k_eff)]
        u = rng.random()
        synth[t] = M[base] + u * (M[nbr] - M[base])

    X_out = np.vstack([X, synth])
    y_out = np.concatenate([y, np.full(n_needed, minority_label, dtype=np.int8)])
    mask = np.zeros(len(y_out), dtype=bool)
    mask[len(y):] = True
    return ResampledSet(X=X_out, y=y_out, synthetic_mask=mask)
