"""The recursive tree walk, kept as the reference that the flat
vectorized scoring in ``qflake.classifiers.tree`` must match bit for bit.

It routes each node's row indices down a ``TreeNode`` tree, one node at
a time. A forest adds its trees' scores one tree at a time and divides by
the tree count; boosting adds each round's learning-rate scaled values to
the base score one round at a time.
"""

import numpy as np

from qflake.classifiers import sigmoid


def _fill_predictions(node, X, idx, out, leaf_value):
    if node.is_leaf:
        out[idx] = leaf_value(node)
        return
    go_left = X[idx, node.feature] <= node.threshold
    _fill_predictions(node.left, X, idx[go_left], out, leaf_value)
    _fill_predictions(node.right, X, idx[~go_left], out, leaf_value)


def tree_predict_proba(node, X) -> np.ndarray:
    """Per-row flaky-class probability from leaf distributions."""
    out = np.empty(X.shape[0], dtype=np.float64)
    _fill_predictions(node, X, np.arange(X.shape[0]), out, lambda n: n.distribution[1])
    return out


def tree_predict_value(node, X) -> np.ndarray:
    """Per-row regression output from leaf values (boosting trees)."""
    out = np.empty(X.shape[0], dtype=np.float64)
    _fill_predictions(node, X, np.arange(X.shape[0]), out, lambda n: n.value)
    return out


def recursive_score(model, X) -> np.ndarray:
    """A dt, rf or xgb model's scores, tree by tree."""
    X = np.asarray(X, dtype=np.float64)
    if model.family == "dt":
        return tree_predict_proba(model.root, X)
    if model.family == "rf":
        acc = np.zeros(X.shape[0], dtype=np.float64)
        for tree in model.trees:
            acc += tree_predict_proba(tree, X)
        return acc / len(model.trees)
    if "degenerate_labels" in model.flags:
        return np.full(X.shape[0], model.prior, dtype=np.float64)
    out = np.full(X.shape[0], model.base_raw, dtype=np.float64)
    for tree in model.trees:
        out += model.learning_rate * tree_predict_value(tree, X)
    return sigmoid(out)


def node_to_dict(node) -> dict:
    """A ``TreeNode`` tree as the nested dicts a bundle stores."""
    if node.is_leaf:
        if node.distribution is not None:
            return {"dist": [float(node.distribution[0]), float(node.distribution[1])]}
        return {"value": float(node.value)}
    return {
        "feature": int(node.feature),
        "threshold": float(node.threshold),
        "left": node_to_dict(node.left),
        "right": node_to_dict(node.right),
    }
