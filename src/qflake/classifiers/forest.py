"""Random forest: bagged trees with per-split feature subsampling.

Each tree sees a bootstrap sample (n draws with replacement from its own
seeded stream) and considers ceil(sqrt(d)) random candidate features at
every split. The forest score is the mean of the trees' flaky-class leaf
probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import QflakeError
from ..seeding import STREAM_MODEL, rng_for
from .base import REQUIRED, check_scoring_input, check_training_data, validate_params
from .tree import CRITERIA, FlatTrees, NodeArrays, SplitSearch, TreeNode, grow_class_tree

_RF_PARAMS = {
    "n_estimators": (REQUIRED, lambda v: isinstance(v, int) and v >= 1),
    "criterion": ("entropy", lambda v: v in CRITERIA),
    "max_depth": (None, lambda v: v is None or (isinstance(v, int) and v >= 0)),
    "min_samples_leaf": (1, lambda v: isinstance(v, int) and v >= 1),
    "min_samples_split": (2, lambda v: isinstance(v, int) and v >= 2),
}


@dataclass
class RandomForestModel:
    family = "rf"
    flat: FlatTrees
    n_features: int
    params: dict
    seed: int | None = None
    flags: tuple[str, ...] = ()

    @property
    def trees(self) -> list[TreeNode]:
        return self.flat.to_nodes()

    def score(self, X) -> np.ndarray:
        X = check_scoring_input(X, self.n_features)
        # cumsum adds tree by tree, in the order the trees were grown
        total = np.cumsum(self.flat.leaf_values(X), axis=0)[-1]
        return total / self.flat.roots.size

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "trees": self.flat.to_payload(),
            "n_features": int(self.n_features),
            "params": dict(self.params),
            "seed": self.seed,
            "flags": list(self.flags),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RandomForestModel":
        flat = FlatTrees.from_payload(d["trees"], d["n_features"])
        if not flat.roots.size:
            raise QflakeError("rf model payload holds no trees")
        return cls(
            flat=flat,
            n_features=d["n_features"],
            params=dict(d["params"]),
            seed=d.get("seed"),
            flags=tuple(d.get("flags", ())),
        )


def train_random_forest(X, y, params=None, seed=0) -> RandomForestModel:
    X, y = check_training_data(X, y)
    resolved = validate_params("rf", params or {}, _RF_PARAMS)
    n, d = X.shape
    max_features = min(d, math.ceil(math.sqrt(d)))
    # every bootstrap sample has n rows, so one search serves every tree
    search = SplitSearch(X, y, resolved["criterion"])
    nodes = NodeArrays()
    for t in range(resolved["n_estimators"]):
        rng = rng_for(seed, STREAM_MODEL, t)
        sample = rng.integers(0, n, size=n)
        grow_class_tree(
            search,
            sample,
            nodes,
            max_depth=resolved["max_depth"],
            min_samples_leaf=resolved["min_samples_leaf"],
            min_samples_split=resolved["min_samples_split"],
            max_features=max_features,
            rng=rng,
        )
    return RandomForestModel(
        flat=nodes.flat(),
        n_features=d,
        params=resolved,
        seed=seed,
    )
