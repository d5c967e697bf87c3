"""Gradient boosted trees with second-order (Newton) updates on binary
logistic loss.

Per round: gradients g = sigma(F) - y and hessians h = sigma(F)(1 - sigma(F))
are fit by a regression tree whose split gain is

    0.5 * (GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam)) - gamma

with lam = 1 and gamma = 0, and whose leaf values are -G/(H+lam). The raw
score starts at the log-odds of the base rate and accumulates
learning_rate * tree(x) per round; the final score is the sigmoid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import REQUIRED, check_scoring_input, check_training_data, sigmoid, validate_params
from .tree import TreeNode, tree_predict_value

_LAMBDA = 1.0

_GBT_PARAMS = {
    "learning_rate": (REQUIRED, lambda v: isinstance(v, (int, float)) and v >= 0),
    "max_depth": (REQUIRED, lambda v: isinstance(v, int) and v >= 0),
    "n_estimators": (REQUIRED, lambda v: isinstance(v, int) and v >= 0),
}


def grow_newton_tree(X, g, h, max_depth, lam=_LAMBDA, sorted_idx=None) -> TreeNode:
    """Grow one regression tree on gradients/hessians.

    ``sorted_idx`` is the per-column stable argsort of X. It is computed
    once per boosting fit (X never changes between rounds) and partitioned
    down the recursion, which preserves the stable tie order re-sorting
    would produce while skipping every per-node sort.
    """
    n, d = X.shape
    if sorted_idx is None:
        sorted_idx = np.argsort(X, axis=0, kind="stable")
    cols = np.arange(d)

    def build(s_idx, depth):
        n_node = s_idx.shape[0]
        g_sum = float(g[s_idx[:, 0]].sum())
        h_sum = float(h[s_idx[:, 0]].sum())
        leaf = TreeNode(value=-g_sum / (h_sum + lam))
        if depth >= max_depth or n_node < 2:
            return leaf

        # gain = 0.5 * (GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam)),
        # computed with in-place buffers; this is the hot loop of every
        # boosting fit
        sv = X[s_idx, cols]
        gl = g[s_idx]
        np.cumsum(gl, axis=0, out=gl)
        hl = h[s_idx]
        np.cumsum(hl, axis=0, out=hl)
        gl = gl[:-1]
        hl = hl[:-1]
        gr = g_sum - gl
        hr = h_sum - hl
        hl += lam
        gl *= gl
        gl /= hl
        hr += lam
        gr *= gr
        gr /= hr
        gain = gl
        gain += gr
        gain[~(sv[1:] > sv[:-1])] = -np.inf
        best_raw = gain.max()
        best = 0.5 * (best_raw - g_sum**2 / (h_sum + lam))
        if not np.isfinite(best) or best <= 0.0:
            return leaf
        # Splits into the same two row sets can differ in the last ulp, as
        # each column sums its rows in its own order: gains within
        # 1e-9*max(1,|best|) of the best tie (raw gains are twice the
        # gains). The first tie over gain.T scans feature-major: lowest
        # feature wins, then lowest threshold.
        tied = gain.T >= best_raw - 2e-9 * max(1.0, abs(best))
        j, b = np.unravel_index(np.argmax(tied), tied.shape)
        threshold = 0.5 * (sv[b, j] + sv[b + 1, j])

        # every column of s_idx holds the same row set, so each column has
        # exactly b+1 left members; boolean compression keeps their order
        go_left = X[:, j] <= threshold
        flags = go_left[s_idx]
        n_left = b + 1
        left_idx = s_idx.T[flags.T].reshape(d, n_left).T
        right_idx = s_idx.T[~flags.T].reshape(d, n_node - n_left).T
        node = TreeNode(feature=int(j), threshold=float(threshold))
        node.left = build(left_idx, depth + 1)
        node.right = build(right_idx, depth + 1)
        return node

    return build(sorted_idx, 0)


@dataclass
class GradientBoostingModel:
    family = "xgb"
    base_raw: float          # initial raw score F0 (log-odds of base rate)
    prior: float             # base rate of the flaky class
    learning_rate: float
    trees: list[TreeNode]
    n_features: int
    params: dict
    seed: int | None = None
    flags: tuple[str, ...] = ()

    def raw_score(self, X) -> np.ndarray:
        X = check_scoring_input(X, self.n_features)
        out = np.full(X.shape[0], self.base_raw, dtype=np.float64)
        for tree in self.trees:
            out += self.learning_rate * tree_predict_value(tree, X)
        return out

    def score(self, X) -> np.ndarray:
        if "degenerate_labels" in self.flags:
            X = check_scoring_input(X, self.n_features)
            return np.full(X.shape[0], self.prior, dtype=np.float64)
        return sigmoid(self.raw_score(X))

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "base_raw": float(self.base_raw),
            "prior": float(self.prior),
            "learning_rate": float(self.learning_rate),
            "trees": [t.to_dict() for t in self.trees],
            "n_features": int(self.n_features),
            "params": dict(self.params),
            "seed": self.seed,
            "flags": list(self.flags),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GradientBoostingModel":
        return cls(
            base_raw=float(d["base_raw"]),
            prior=float(d["prior"]),
            learning_rate=float(d["learning_rate"]),
            trees=[TreeNode.from_dict(t) for t in d["trees"]],
            n_features=int(d["n_features"]),
            params=dict(d["params"]),
            seed=d.get("seed"),
            flags=tuple(d.get("flags", ())),
        )


def train_gbt(X, y, params=None, seed=0) -> GradientBoostingModel:
    """Boost for n_estimators rounds; a single-class training set yields the
    constant prior, flagged rather than raised.
    """
    X, y = check_training_data(X, y)
    resolved = validate_params("xgb", params or {}, _GBT_PARAMS)
    prior = float(y.mean())
    if prior in (0.0, 1.0):
        return GradientBoostingModel(
            base_raw=0.0,
            prior=prior,
            learning_rate=float(resolved["learning_rate"]),
            trees=[],
            n_features=X.shape[1],
            params=resolved,
            seed=seed,
            flags=("degenerate_labels",),
        )
    base_raw = float(np.log(prior / (1.0 - prior)))
    raw = np.full(X.shape[0], base_raw, dtype=np.float64)
    yf = y.astype(np.float64)
    lr = float(resolved["learning_rate"])
    trees = []
    sorted_idx = np.argsort(X, axis=0, kind="stable")
    for _ in range(resolved["n_estimators"]):
        p = sigmoid(raw)
        g = p - yf
        h = p * (1.0 - p)
        tree = grow_newton_tree(
            X, g, h, resolved["max_depth"], sorted_idx=sorted_idx
        )
        raw += lr * tree_predict_value(tree, X)
        trees.append(tree)
    return GradientBoostingModel(
        base_raw=base_raw,
        prior=prior,
        learning_rate=lr,
        trees=trees,
        n_features=X.shape[1],
        params=resolved,
        seed=seed,
    )
