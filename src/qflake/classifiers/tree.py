"""Decision trees: impurity measures, greedy growth, and prediction.

Split candidates are midpoints between consecutive distinct sorted values
of each feature; the winning split maximizes impurity decrease with ties
broken by (lower feature index, lower threshold).

The split search works on integer class counts. A fit builds one
``SplitSearch``, shared by every tree of a forest: X's columns, the labels,
and a table of imp(k/m) and m*imp(k/m) for every node size m up to the
fit's row count and every flaky count k <= m. Per node, one stable argsort
of the gathered (candidate column, row) block gives each column's sorted
values and prefix flaky counts. Only boundaries between distinct values
that leave at least ``min_samples_leaf`` rows on each side are scored,
each by three table lookups, so a gain is the same arithmetic on the same
values as evaluating impurity at every row boundary would be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import EmptySetError, SpecInvalidError
from .base import check_scoring_input, check_training_data, validate_params

_GAIN_EPS = 1e-12

CRITERIA = ("entropy", "gini")


def impurity(labels, criterion: str) -> float:
    """Entropy (bits) or Gini impurity of a label multiset."""
    if criterion not in CRITERIA:
        raise SpecInvalidError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    labels = np.asarray(list(labels))
    if labels.size == 0:
        raise EmptySetError("impurity of an empty multiset is undefined")
    _, counts = np.unique(labels, return_counts=True)
    p = counts / counts.sum()
    if criterion == "entropy":
        return float(-(p * np.log2(p)).sum())
    return float(1.0 - (p**2).sum())


@dataclass
class TreeNode:
    """Internal node (feature/threshold/left/right) or leaf.

    Classification leaves carry ``distribution`` (nonflaky, flaky)
    fractions; regression leaves used by boosting carry ``value``.
    Rows with feature <= threshold go left.
    """

    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    distribution: tuple[float, float] | None = None
    value: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            if self.distribution is not None:
                return {"dist": [float(self.distribution[0]), float(self.distribution[1])]}
            return {"value": float(self.value)}
        return {
            "feature": int(self.feature),
            "threshold": float(self.threshold),
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreeNode":
        if "feature" in d:
            return cls(
                feature=int(d["feature"]),
                threshold=float(d["threshold"]),
                left=cls.from_dict(d["left"]),
                right=cls.from_dict(d["right"]),
            )
        if "dist" in d:
            return cls(distribution=(float(d["dist"][0]), float(d["dist"][1])))
        return cls(value=float(d["value"]))


def tree_depth(node: TreeNode) -> int:
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def _fill_predictions(node: TreeNode, X, idx, out, leaf_value):
    if node.is_leaf:
        out[idx] = leaf_value(node)
        return
    go_left = X[idx, node.feature] <= node.threshold
    _fill_predictions(node.left, X, idx[go_left], out, leaf_value)
    _fill_predictions(node.right, X, idx[~go_left], out, leaf_value)


def tree_predict_proba(node: TreeNode, X) -> np.ndarray:
    """Per-row flaky-class probability from leaf distributions."""
    out = np.empty(X.shape[0], dtype=np.float64)
    _fill_predictions(node, X, np.arange(X.shape[0]), out, lambda n: n.distribution[1])
    return out


def tree_predict_value(node: TreeNode, X) -> np.ndarray:
    """Per-row regression output from leaf values (boosting trees)."""
    out = np.empty(X.shape[0], dtype=np.float64)
    _fill_predictions(node, X, np.arange(X.shape[0]), out, lambda n: n.value)
    return out


def _impurity_from_fraction(p, criterion: str):
    # p: array of flaky fractions; 0*log2(0) treated as 0
    p = np.asarray(p, dtype=np.float64)
    q = 1.0 - p
    if criterion == "entropy":
        out = np.zeros_like(p)
        for frac in (p, q):
            nz = frac > 0
            out[nz] -= frac[nz] * np.log2(frac[nz])
        return out
    return 1.0 - p**2 - q**2


class SplitSearch:
    """One fit's exact class-split search: X's columns, the labels, and
    the impurity of every (node size m, flaky count k) a node of at most
    n rows can reach. Every tree of a forest shares it.

    ``imp[m, k]`` holds imp(k/m) and ``weighted[m, k]`` holds m*imp(k/m),
    both from ``_impurity_from_fraction`` on the same float64 fractions
    the dense per-boundary evaluation uses, so gains and the tie rule come
    out bit-identical. The two tables take 16*(n+1)**2 bytes: about 34 KB
    for a 45-row fit and 2.4 MB for a 388-row one. Both are kept flat,
    indexed by m*(n+1) + k. X is kept transposed, so a node's block of
    candidate columns is gathered and sorted along contiguous rows.
    """

    def __init__(self, X, y, criterion: str):
        self.columns = np.ascontiguousarray(X.T)
        self.y = y
        self.width = X.shape[0] + 1
        counts = np.arange(self.width, dtype=np.float64)
        imp = np.zeros((self.width, self.width))
        # entries with k > m are never looked up
        imp[1:] = _impurity_from_fraction(counts / counts[1:, None], criterion)
        self.imp = imp.ravel()
        self.weighted = (counts[:, None] * imp).ravel()

    def best_split(self, idx, feature_ids, min_samples_leaf):
        """Best (feature, threshold) by impurity decrease over rows ``idx``
        (at most n of them, repeats allowed) of the given sorted columns,
        or None when no admissible split improves on the parent. Gathers
        only the needed (column, row) block, which matters when forests
        sample a thin column subset per split.
        """
        n = len(idx)
        # boundary b puts sorted rows 0..b on the left, b+1 of them
        lo, hi = min_samples_leaf - 1, n - min_samples_leaf
        if hi <= lo:
            return None
        block = self.columns[feature_ids[:, None], idx]
        order = block.argsort(axis=1, kind="stable")
        sv = block[np.arange(feature_ids.size)[:, None], order]
        pos_prefix = self.y[idx][order].cumsum(axis=1)
        # nonzero lists the boundaries feature-major: lowest feature
        # first, then lowest threshold
        cols, b = (sv[:, lo + 1 : hi + 1] > sv[:, lo:hi]).nonzero()
        if b.size == 0:
            return None
        b += lo
        # flat table indices: the left child's (b+1, left flaky count),
        # the parent's (n, flaky count), and the right child's, which is
        # their difference
        left = pos_prefix[cols, b] + (b + 1) * self.width
        parent = n * self.width + pos_prefix[0, -1]
        child = (self.weighted[left] + self.weighted[parent - left]) / n
        gain = self.imp[parent] - child
        k = gain.argmax()
        if gain[k] <= _GAIN_EPS:
            return None
        j, b = cols[k], b[k]
        threshold = 0.5 * (sv[j, b] + sv[j, b + 1])
        return int(feature_ids[j]), float(threshold)


def grow_class_tree(
    search: SplitSearch,
    rows,
    max_depth=None,
    min_samples_leaf=1,
    min_samples_split=2,
    max_features=None,
    rng=None,
) -> TreeNode:
    """Greedy recursive partitioning of ``rows`` of the fit ``search``
    was built on, with 0/1 labels. Rows may repeat, as in a bootstrap
    sample.

    ``max_features`` with a Generator samples that many candidate columns
    per split (random-forest mode); otherwise all columns are considered.
    """
    columns, y = search.columns, search.y
    d = columns.shape[0]
    depth_cap = math.inf if max_depth is None else max_depth

    def build(idx, depth):
        n = len(idx)
        pos = np.count_nonzero(y[idx])
        leaf = TreeNode(distribution=((n - pos) / n, pos / n))
        if depth >= depth_cap or n < min_samples_split or pos in (0, n):
            return leaf
        if max_features is not None and max_features < d:
            feats = np.sort(rng.choice(d, size=max_features, replace=False))
        else:
            feats = np.arange(d)
        found = search.best_split(idx, feats, min_samples_leaf)
        if found is None:
            return leaf
        feature, threshold = found
        mask = columns[feature, idx] <= threshold
        node = TreeNode(feature=feature, threshold=threshold)
        node.left = build(idx[mask], depth + 1)
        node.right = build(idx[~mask], depth + 1)
        return node

    return build(rows, 0)


_DT_PARAMS = {
    "criterion": ("entropy", lambda v: v in CRITERIA),
    "max_depth": (None, lambda v: v is None or (isinstance(v, int) and v >= 0)),
    "min_samples_leaf": (1, lambda v: isinstance(v, int) and v >= 1),
    "min_samples_split": (2, lambda v: isinstance(v, int) and v >= 2),
}


@dataclass
class DecisionTreeModel:
    family = "dt"
    root: TreeNode
    n_features: int
    params: dict
    seed: int | None = None
    flags: tuple[str, ...] = ()

    def score(self, X) -> np.ndarray:
        X = check_scoring_input(X, self.n_features)
        return tree_predict_proba(self.root, X)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "root": self.root.to_dict(),
            "n_features": int(self.n_features),
            "params": dict(self.params),
            "seed": self.seed,
            "flags": list(self.flags),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTreeModel":
        return cls(
            root=TreeNode.from_dict(d["root"]),
            n_features=int(d["n_features"]),
            params=dict(d["params"]),
            seed=d.get("seed"),
            flags=tuple(d.get("flags", ())),
        )


def train_decision_tree(X, y, params=None, seed=0) -> DecisionTreeModel:
    X, y = check_training_data(X, y)
    resolved = validate_params("dt", params or {}, _DT_PARAMS)
    root = grow_class_tree(
        SplitSearch(X, y, resolved["criterion"]),
        np.arange(X.shape[0]),
        max_depth=resolved["max_depth"],
        min_samples_leaf=resolved["min_samples_leaf"],
        min_samples_split=resolved["min_samples_split"],
    )
    return DecisionTreeModel(
        root=root, n_features=X.shape[1], params=resolved, seed=seed
    )
