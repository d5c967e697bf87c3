"""Five classifier families behind one train/score contract.

Every trained model exposes ``score(X) -> array of flaky-class scores in
[0, 1]``; the caller applies a decision threshold (default 0.5).
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

_TRAINERS = {
    "xgb": train_gbt,
    "dt": train_decision_tree,
    "rf": train_random_forest,
    "knn": train_knn,
    "svm": train_svm,
}

_MODEL_CLASSES = {
    "xgb": GradientBoostingModel,
    "dt": DecisionTreeModel,
    "rf": RandomForestModel,
    "knn": KnnModel,
    "svm": LinearSvmModel,
}


def train_model(family: str, X, y, hyperparameters=None, seed: int = 0):
    try:
        trainer = _TRAINERS[family]
    except KeyError:
        raise QflakeError(
            f"unknown family {family!r}; expected one of {FAMILIES}"
        ) from None
    return trainer(X, y, hyperparameters or {}, seed=seed)


def score(model, X) -> np.ndarray:
    """Flaky-class score per row of X, in [0, 1]."""
    return model.score(X)


def predict_labels(scores, threshold: float = 0.5) -> np.ndarray:
    """Flaky iff score >= threshold."""
    return (np.asarray(scores) >= threshold).astype(np.int8)


def model_to_dict(model) -> dict:
    return model.to_dict()


def model_from_dict(d: dict):
    family = d.get("family")
    try:
        cls = _MODEL_CLASSES[family]
    except KeyError:
        raise QflakeError(f"unknown model family in payload: {family!r}") from None
    flags = d.get("flags", [])
    if not (isinstance(flags, list) and all(type(f) is str for f in flags)):
        raise QflakeError(f"model flags must be a list of strings, got {flags!r:.40}")
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
    "model_to_dict",
    "predict_labels",
    "score",
    "sigmoid",
    "train_decision_tree",
    "train_gbt",
    "train_knn",
    "train_model",
    "train_random_forest",
    "train_svm",
]
