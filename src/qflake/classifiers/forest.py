"""Random forest: bagged trees with per-split feature subsampling.

A decision tree is the forest's one-tree case: both grow through
``tree.grow_class_trees`` and share ``tree.TreeModel``'s payload codec.
Each tree sees a bootstrap sample (n draws with replacement from its own
seeded stream) and considers ceil(sqrt(d)) random candidate features at
every split, drawn from the same stream. The forest score is the mean of
the trees' flaky-class leaf probabilities.
"""

from __future__ import annotations

import numpy as np

from ..errors import QflakeError
from ..seeding import STREAM_MODEL, rng_for
from .base import (
    REQUIRED, check_scoring_input, check_training_data, integer_at_least, validate_params
)
from .tree import _DT_PARAMS, FlatTrees, TreeModel, grow_class_trees

# a decision tree's settings, and how many trees
_RF_PARAMS = {
    "n_estimators": (REQUIRED, "an integer >= 1", lambda v: integer_at_least(v, 1)),
    **_DT_PARAMS,
}


class RandomForestModel(TreeModel):
    family = "rf"

    def score(self, X) -> np.ndarray:
        X = check_scoring_input(X, self.n_features)
        # cumsum adds tree by tree, in the order the trees were grown
        total = np.cumsum(self.flat.leaf_values(X), axis=0)[-1]
        return total / self.flat.roots.size

    @classmethod
    def _check_payload(cls, d: dict, flat: FlatTrees) -> None:
        if not flat.roots.size:
            raise QflakeError("rf model payload holds no trees")


def train_random_forest(X, y, params=None, seed=0) -> RandomForestModel:
    X, y = check_training_data(X, y)
    resolved = validate_params("rf", params or {}, _RF_PARAMS)
    n = X.shape[0]
    rngs = (rng_for(seed, STREAM_MODEL, t) for t in range(resolved["n_estimators"]))
    # each tree draws its bootstrap sample from its own stream as it starts
    samples = ((rng.integers(0, n, size=n), rng) for rng in rngs)
    flat = grow_class_trees(X, y, resolved, samples)
    return RandomForestModel(flat=flat, n_features=X.shape[1])
