"""The recursive tree walk, kept as the reference that the flat
vectorized scoring in ``qflake.classifiers.tree`` must match bit for bit.

It routes each node's row indices down a ``TreeNode`` tree, one node at
a time. A forest adds its trees' scores one tree at a time and divides by
the tree count; boosting adds each round's learning-rate scaled values to
the base score one round at a time, and a one-class boosting model (prior
0 or 1) scores its prior.
"""

import numpy as np

from qflake.classifiers import sigmoid


def _fill_predictions(node, X, idx, out):
    if node.is_leaf:
        out[idx] = node.value
        return
    go_left = X[idx, node.feature] <= node.threshold
    _fill_predictions(node.left, X, idx[go_left], out)
    _fill_predictions(node.right, X, idx[~go_left], out)


def tree_predict_value(node, X) -> np.ndarray:
    """Per-row leaf value: a flaky fraction (dt, rf) or a regression
    output (boosting)."""
    out = np.empty(X.shape[0], dtype=np.float64)
    _fill_predictions(node, X, np.arange(X.shape[0]), out)
    return out


def recursive_score(model, X) -> np.ndarray:
    """A dt, rf or xgb model's scores, tree by tree."""
    X = np.asarray(X, dtype=np.float64)
    if model.family == "dt":
        return tree_predict_value(model.root, X)
    if model.family == "rf":
        acc = np.zeros(X.shape[0], dtype=np.float64)
        for tree in model.trees:
            acc += tree_predict_value(tree, X)
        return acc / len(model.trees)
    if model.prior in (0.0, 1.0):
        return np.full(X.shape[0], model.prior, dtype=np.float64)
    out = np.full(X.shape[0], model.base_raw, dtype=np.float64)
    for tree in model.trees:
        out += model.learning_rate * tree_predict_value(tree, X)
    return sigmoid(out)


def node_to_dict(node, classification) -> dict:
    """A ``TreeNode`` tree as the nested dicts a format-2 bundle stored;
    a classification leaf held its (nonflaky, flaky) fractions."""
    if node.is_leaf:
        if classification:
            return {"dist": [1.0 - node.value, node.value]}
        return {"value": node.value}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": node_to_dict(node.left, classification),
        "right": node_to_dict(node.right, classification),
    }
