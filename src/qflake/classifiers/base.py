"""Shared pieces of the classifier families: the score contract, sigmoid,
and hyperparameter validation.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import PipelineError, QflakeError
from ..jsonio import shown
from ..linalg import as_matrix


def sigmoid(z):
    z = np.clip(np.asarray(z, dtype=np.float64), -500.0, 500.0)
    return 1.0 / (1.0 + np.exp(-z))


def check_training_data(X, y):
    """Coerce (X, y) for training: 2-D float matrix, int8 labels in {0, 1}."""
    X = as_matrix(X)
    y = np.asarray(y)
    if y.ndim != 1 or len(y) != X.shape[0]:
        raise QflakeError("y must be a 1-D label vector matching X rows")
    if X.shape[0] < 1:
        raise QflakeError("training data must contain at least one row")
    y = y.astype(np.int8)
    if not np.isin(y, (0, 1)).all():
        raise QflakeError("labels must be 0 (nonflaky) or 1 (flaky)")
    return X, y


def check_scoring_input(X, n_features: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise PipelineError(f"expected 2-D matrix, got ndim={X.ndim}")
    if X.shape[1] != n_features:
        raise PipelineError(
            f"matrix has {X.shape[1]} features, model expects {n_features}"
        )
    return X


def finite_number(value) -> bool:
    """An int or a float, not a bool, and finite: a number JSON can hold."""
    return type(value) in (int, float) and math.isfinite(value)


def integer_at_least(value, least: int) -> bool:
    """An int, not a bool, of at least ``least``: JSON true is no count."""
    return type(value) is int and value >= least


REQUIRED = object()


def validate_params(family: str, params: dict, allowed: dict) -> dict:
    """Merge ``params`` over per-family defaults, rejecting unknown names.

    ``allowed`` maps parameter name -> (default, what it admits, check);
    a ``REQUIRED`` default marks a parameter the caller must supply. A
    refused value is shown as JSON, as a ``--config`` file holds it.
    """
    unknown = set(params) - set(allowed)
    if unknown:
        raise QflakeError(
            f"{family}: unknown hyperparameter(s) {sorted(unknown)}; "
            f"expected {sorted(allowed)}"
        )
    resolved = {}
    for name, (default, admits, check) in allowed.items():
        if name in params:
            value = params[name]
        elif default is REQUIRED:
            raise QflakeError(f"{family}: missing hyperparameter {name!r}")
        else:
            value = default
        if not check(value):
            raise QflakeError(
                f"{family} hyperparameter {name!r} must be {admits}, got {shown(value)}"
            )
        resolved[name] = value
    return resolved
