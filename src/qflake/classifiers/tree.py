"""Decision trees: impurity measures, greedy growth, and the flat tree
format that dt, rf and xgb models are stored and scored in.

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

Growers build ``TreeNode``s; a fit flattens all of its model's trees once
into one ``FlatTrees``: parallel node arrays ``feature``, ``threshold``,
``left``, ``right`` and leaf ``value``, one root index per tree, and the
deepest tree's depth. A bundle's nested dicts are parsed straight into the
arrays with an explicit stack, and written back from them. Scoring moves
every (tree, row) pair one level per step, all pairs at once:
``go = X[row, feature[node]] <= threshold[node]``, then
``node = where(go, left, right)``. A leaf's children are the leaf itself
(its feature is column 0, which exists whenever a tree has a split), so a
pair that reaches a leaf early stays there, and after ``depth`` steps every
pair sits at its leaf, whatever its own tree's depth, with no test for
leaves in the loop. The comparisons and leaf values are the ones a
recursive walk makes; forests and boosting add the per-tree values in tree
order, so scores are bit-identical to adding one tree at a time.
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
    """Internal node (feature/threshold/left/right) or leaf, as growers
    build them.

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


def tree_depth(node: TreeNode) -> int:
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def _check_types(values, types, what):
    """Raise SpecInvalidError naming the first of ``values`` whose type is
    not in ``types`` (bool is its own type, so True is no number)."""
    if not set(map(type, values)) <= types:
        bad = next(v for v in values if type(v) not in types)
        raise SpecInvalidError(f"{what}, got {bad!r}")


_NUMBER = {int, float}


def _preorder(trees, split, leaf):
    """Walk ``trees`` in pre-order with an explicit stack.

    ``split(node)`` gives an internal node's (feature, threshold, left,
    right) and None for a leaf; ``leaf(node)`` gives a leaf's value, or its
    (nonflaky, flaky) pair. Returns per-node feature, threshold and right
    child lists, the leaves' node indices and ``leaf`` results, each tree's
    root index, and the deepest leaf's level. An internal node's left
    child is the next node; its right child's index is recorded when that
    child is popped.
    """
    feature, threshold, right, leaf_at, leaves, roots = [], [], [], [], [], []
    depth = 0
    for tree in trees:
        roots.append(len(feature))
        stack = [(tree, -1, 0)]
        while stack:
            node, parent, level = stack.pop()
            i = len(feature)
            if parent >= 0:
                right[parent] = i
            right.append(i)
            found = split(node)
            if found is None:
                feature.append(0)
                threshold.append(0.0)
                leaf_at.append(i)
                leaves.append(leaf(node))
                depth = max(depth, level)
            else:
                f, t, lo, hi = found
                feature.append(f)
                threshold.append(t)
                stack.append((hi, i, level + 1))
                stack.append((lo, -1, level + 1))
    return feature, threshold, right, leaf_at, leaves, roots, depth


@dataclass(frozen=True, eq=False)
class FlatTrees:
    """All trees of one model as flat node arrays, nodes in pre-order.

    ``value`` is a leaf's score: its flaky fraction, or its regression
    value. Classification leaves also keep their nonflaky fraction in
    ``nonflaky``, which is None for regression trees. Internal nodes hold
    0.0 in both; leaves hold feature 0, threshold 0.0 and themselves as
    children.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    nonflaky: np.ndarray | None
    roots: np.ndarray
    depth: int

    @classmethod
    def _from_lists(cls, classification, feature, threshold, right, leaf_at, leaves, roots, depth):
        """Arrays from ``_preorder``'s lists: a leaf is its own left
        child, an internal node's left child is the next node."""
        n = len(feature)
        leaf_at = np.array(leaf_at, dtype=np.intp)
        left = np.arange(1, n + 1, dtype=np.intp)
        left[leaf_at] = leaf_at
        leaf_values = np.array(leaves, dtype=np.float64).reshape(leaf_at.size, 1 + classification)
        value = np.zeros(n)
        value[leaf_at] = leaf_values[:, -1]
        nonflaky = None
        if classification:
            nonflaky = np.zeros(n)
            nonflaky[leaf_at] = leaf_values[:, 0]
        return cls(
            feature=np.array(feature, dtype=np.intp),
            threshold=np.array(threshold, dtype=np.float64),
            left=left,
            right=np.array(right, dtype=np.intp),
            value=value,
            nonflaky=nonflaky,
            roots=np.array(roots, dtype=np.intp),
            depth=depth,
        )

    @classmethod
    def from_nodes(cls, trees, classification: bool) -> "FlatTrees":
        """Flatten grown ``TreeNode`` trees."""

        def split(node):
            if node.is_leaf:
                return None
            return node.feature, node.threshold, node.left, node.right

        def leaf(node):
            return node.distribution if classification else node.value

        return cls._from_lists(classification, *_preorder(trees, split, leaf))

    @classmethod
    def from_dicts(cls, payloads, n_features: int, classification: bool) -> "FlatTrees":
        """Parse saved nested tree dicts, checking every node: an
        internal node needs an integer feature in [0, n_features) and a
        finite threshold; a leaf needs a ``dist`` of two finite numbers
        (classification) or a finite ``value``. An index out of range
        would silently read another row's column, not fail."""
        key = "dist" if classification else "value"

        def split(node):
            if "feature" not in node:
                return None
            return node["feature"], node["threshold"], node["left"], node["right"]

        parts = _preorder(payloads, split, lambda node: node.get(key))
        feature, threshold, _, _, leaves, _, _ = parts
        _check_types(feature, {int}, "tree feature must be an integer")
        _check_types(threshold, _NUMBER, "tree threshold must be a number")
        if classification:
            _check_types(leaves, {list}, "tree leaf needs a dist of two numbers")
            if any(len(v) != 2 for v in leaves):
                bad = next(v for v in leaves if len(v) != 2)
                raise SpecInvalidError(f"tree leaf needs a dist of two numbers, got {bad!r}")
            leaves = [x for v in leaves for x in v]
        _check_types(leaves, _NUMBER, f"tree leaf needs a numeric {key}")

        flat = cls._from_lists(classification, *parts)
        internal = flat.left != np.arange(flat.left.size)
        used = flat.feature[internal]
        bad = used[(used < 0) | (used >= n_features)]
        if bad.size:
            raise SpecInvalidError(
                f"tree feature {bad[0]} is not a column index below {n_features}"
            )
        numbers = [flat.threshold, flat.value]
        if classification:
            numbers.append(flat.nonflaky)
        if not all(np.isfinite(a).all() for a in numbers):
            raise SpecInvalidError("tree thresholds and leaf values must be finite")
        return flat

    def _rebuild(self, leaf, internal):
        """One object per node, children before parents (pre-order puts
        them after), so no recursion; returns each tree's root object."""
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        left, right = self.left.tolist(), self.right.tolist()
        value = self.value.tolist()
        nonflaky = None if self.nonflaky is None else self.nonflaky.tolist()
        built = [None] * len(feature)
        for i in reversed(range(len(feature))):
            if left[i] == i:
                built[i] = leaf(value[i] if nonflaky is None else (nonflaky[i], value[i]))
            else:
                built[i] = internal(feature[i], threshold[i], built[left[i]], built[right[i]])
        return [built[r] for r in self.roots.tolist()]

    def to_dicts(self) -> list[dict]:
        """Each tree as the nested dicts a bundle stores."""

        def leaf(v):
            return {"value": v} if self.nonflaky is None else {"dist": list(v)}

        def internal(f, t, lo, hi):
            return {"feature": f, "threshold": t, "left": lo, "right": hi}

        return self._rebuild(leaf, internal)

    def to_nodes(self) -> list[TreeNode]:
        """Each tree as ``TreeNode``s, rebuilt from the arrays."""

        def leaf(v):
            if self.nonflaky is None:
                return TreeNode(value=v)
            return TreeNode(distribution=v)

        def internal(f, t, lo, hi):
            return TreeNode(feature=f, threshold=t, left=lo, right=hi)

        return self._rebuild(leaf, internal)

    def leaf_values(self, X) -> np.ndarray:
        """Each tree's leaf value for each row of X, shape (trees, rows):
        every (tree, row) pair takes ``depth`` steps at once."""
        rows = np.arange(X.shape[0])
        node = np.repeat(self.roots[:, None], rows.size, axis=1)
        for _ in range(self.depth):
            go = X[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go, self.left[node], self.right[node])
        return self.value[node]


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
    flat: FlatTrees
    n_features: int
    params: dict
    seed: int | None = None
    flags: tuple[str, ...] = ()

    @property
    def root(self) -> TreeNode:
        return self.flat.to_nodes()[0]

    def score(self, X) -> np.ndarray:
        X = check_scoring_input(X, self.n_features)
        return self.flat.leaf_values(X)[0]

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "root": self.flat.to_dicts()[0],
            "n_features": int(self.n_features),
            "params": dict(self.params),
            "seed": self.seed,
            "flags": list(self.flags),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTreeModel":
        n_features = int(d["n_features"])
        return cls(
            flat=FlatTrees.from_dicts([d["root"]], n_features, classification=True),
            n_features=n_features,
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
        flat=FlatTrees.from_nodes([root], classification=True),
        n_features=X.shape[1],
        params=resolved,
        seed=seed,
    )
