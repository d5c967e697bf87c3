"""Builtin hyperparameter profiles for the five classifier families.

``paper_vanilla`` holds the baseline settings of the reference
experiments; ``paper_smote`` the settings retuned for oversampled
training data. PCA applies only to KNN and SVM; the tree families handle
the raw high-dimensional counts directly.

The SMOTE decision-tree profile names only the criterion switch and leaf
minimum; depth and split minimum are carried over from the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import QflakeError

FAMILIES = ("xgb", "dt", "rf", "knn", "svm")
TREE_FAMILIES = ("xgb", "dt", "rf")
PROFILE_NAMES = ("paper_vanilla", "paper_smote")


@dataclass(frozen=True)
class BuiltinProfile:
    family: str
    name: str
    hyperparameters: dict = field(hash=False)
    pca_components: int | None


_PROFILES = {
    ("xgb", "paper_vanilla"): (
        {"learning_rate": 0.5, "max_depth": 5, "n_estimators": 100},
        None,
    ),
    ("xgb", "paper_smote"): (
        {"learning_rate": 0.3, "max_depth": 3, "n_estimators": 200},
        None,
    ),
    ("dt", "paper_vanilla"): (
        {
            "criterion": "entropy",
            "max_depth": 10,
            "min_samples_leaf": 2,
            "min_samples_split": 10,
        },
        None,
    ),
    ("dt", "paper_smote"): (
        {
            "criterion": "gini",
            "max_depth": 10,
            "min_samples_leaf": 2,
            "min_samples_split": 10,
        },
        None,
    ),
    ("rf", "paper_vanilla"): (
        {
            "n_estimators": 200,
            "criterion": "entropy",
            "max_depth": 10,
            "min_samples_leaf": 2,
            "min_samples_split": 5,
        },
        None,
    ),
    ("rf", "paper_smote"): (
        {
            "n_estimators": 100,
            "criterion": "entropy",
            "max_depth": 10,
            "min_samples_leaf": 2,
            "min_samples_split": 5,
        },
        None,
    ),
    ("knn", "paper_vanilla"): ({"n_neighbors": 3}, 150),
    ("knn", "paper_smote"): ({"n_neighbors": 7}, 200),
    ("svm", "paper_vanilla"): ({"C": 0.01}, 220),
    ("svm", "paper_smote"): ({"C": 0.01}, 180),
}


def get_profile(family: str, name: str) -> BuiltinProfile:
    if family not in FAMILIES:
        raise QflakeError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if name not in PROFILE_NAMES:
        raise QflakeError(
            f"unknown profile {name!r}; expected one of {PROFILE_NAMES}"
        )
    hyper, pca = _PROFILES[(family, name)]
    return BuiltinProfile(
        family=family, name=name, hyperparameters=dict(hyper), pca_components=pca
    )
