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
from .base import sigmoid, validate_params
from .boosting import _GBT_PARAMS, GradientBoostingModel, train_gbt
from .forest import _RF_PARAMS, RandomForestModel, train_random_forest
from .neighbors import _KNN_PARAMS, KnnModel, train_knn
from .profiles import (
    FAMILIES,
    PROFILE_NAMES,
    TREE_FAMILIES,
    BuiltinProfile,
    get_profile,
)
from .svm import _SVM_PARAMS, LinearSvmModel, train_svm
from .tree import _DT_PARAMS, DecisionTreeModel, TreeNode, train_decision_tree

# family -> (trainer, model class, hyperparameters the trainer admits)
_IMPLEMENTATIONS = {
    "xgb": (train_gbt, GradientBoostingModel, _GBT_PARAMS),
    "dt": (train_decision_tree, DecisionTreeModel, _DT_PARAMS),
    "rf": (train_random_forest, RandomForestModel, _RF_PARAMS),
    "knn": (train_knn, KnnModel, _KNN_PARAMS),
    "svm": (train_svm, LinearSvmModel, _SVM_PARAMS),
}


def train_model(family: str, X, y, hyperparameters=None, seed: int = 0):
    try:
        trainer, _, _ = _IMPLEMENTATIONS[family]
    except KeyError:
        raise QflakeError(
            f"unknown family {family!r}; expected one of {FAMILIES}"
        ) from None
    return trainer(X, y, hyperparameters or {}, seed=seed)


def check_hyperparameters(family: str, hyperparameters: dict) -> None:
    """Raise, without fitting, what training would raise for ``hyperparameters``."""
    validate_params(family, hyperparameters, _IMPLEMENTATIONS[family][2])


def predict_labels(scores, threshold: float = 0.5) -> np.ndarray:
    """Flaky iff score >= threshold."""
    return (np.asarray(scores) >= threshold).astype(np.int8)


def model_from_dict(d: dict):
    family = d.get("family")
    try:
        _, cls, _ = _IMPLEMENTATIONS[family]
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
    "check_hyperparameters",
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
