"""Five classifier families behind one train/score contract.

Every trained model exposes ``score(X) -> array of flaky-class scores in
[0, 1]``; the caller applies a decision threshold (default 0.5). A
model's payload (``to_dict`` / ``model_from_dict``) holds only what scoring
reads: the hyperparameters and seed go in a bundle's metadata, and the
``params``, ``seed`` and ``flags`` keys that older payloads hold are
ignored on load.
"""

from __future__ import annotations

import numpy as np

from ..errors import QflakeError
from .base import sigmoid
from .boosting import GradientBoostingModel, train_gbt
from .forest import RandomForestModel, train_random_forest
from .neighbors import KnnModel, train_knn
from .profiles import (
    FAMILIES,
    PROFILE_NAMES,
    TREE_FAMILIES,
    BuiltinProfile,
    get_profile,
)
from .svm import LinearSvmModel, train_svm
from .tree import DecisionTreeModel, TreeNode, train_decision_tree

# family -> (trainer, model class)
_IMPLEMENTATIONS = {
    "xgb": (train_gbt, GradientBoostingModel),
    "dt": (train_decision_tree, DecisionTreeModel),
    "rf": (train_random_forest, RandomForestModel),
    "knn": (train_knn, KnnModel),
    "svm": (train_svm, LinearSvmModel),
}


def train_model(family: str, X, y, hyperparameters=None, seed: int = 0):
    try:
        trainer, _ = _IMPLEMENTATIONS[family]
    except KeyError:
        raise QflakeError(
            f"unknown family {family!r}; expected one of {FAMILIES}"
        ) from None
    return trainer(X, y, hyperparameters or {}, seed=seed)


def predict_labels(scores, threshold: float = 0.5) -> np.ndarray:
    """Flaky iff score >= threshold."""
    return (np.asarray(scores) >= threshold).astype(np.int8)


def model_from_dict(d: dict):
    family = d.get("family")
    try:
        _, cls = _IMPLEMENTATIONS[family]
    except KeyError:
        raise QflakeError(f"unknown model family in payload: {family!r}") from None
    return cls.from_dict(d)


__all__ = [
    "FAMILIES",
    "PROFILE_NAMES",
    "TREE_FAMILIES",
    "BuiltinProfile",
    "DecisionTreeModel",
    "GradientBoostingModel",
    "KnnModel",
    "LinearSvmModel",
    "RandomForestModel",
    "TreeNode",
    "get_profile",
    "model_from_dict",
    "predict_labels",
    "sigmoid",
    "train_decision_tree",
    "train_gbt",
    "train_knn",
    "train_model",
    "train_random_forest",
    "train_svm",
]
