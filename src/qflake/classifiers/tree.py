"""Decision trees: impurity measures, greedy growth, and the flat tree
format and payload that dt, rf and xgb models are stored and scored in.

A decision tree is the random forest's one-tree case (Breiman, Random
Forests, 2001), on every row with every column at every split, so
``grow_class_trees`` grows both, one tree per ``(rows, rng)`` sample.

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

A tree lives only as node arrays from the moment it is grown. One builder,
``NodeArrays.grow``, appends every tree of a fit (a forest's trees and a
boosting fit's rounds share one ``NodeArrays``) in pre-order with an
explicit stack, so no tree is too deep to grow. A grower only says how
to expand one node: into a leaf's value, or into a split and its two
children (``grow_class_trees`` for dt and rf, ``ExactBins.grow`` for
xgb). ``NodeArrays.flat`` turns the lists into one ``FlatTrees``:
parallel node arrays ``feature``, ``threshold``, ``left``, ``right`` and
``value``, one root index per tree, and the deepest tree's depth. A leaf
holds one value, its score. ``TreeNode``s are only a read-only view that
``FlatTrees.to_nodes`` rebuilds for ``.root`` and ``.trees``.

Scoring moves every (tree, row) pair one level per step, all pairs at
once: ``go = X[row, feature[node]] <= threshold[node]``, then ``node =
where(go, left, right)``. A leaf's children are the leaf itself (its
feature is column 0, which exists whenever a tree has a split), so a pair
that reaches a leaf early stays there, and after ``depth`` steps every
pair sits at its leaf, whatever its own tree's depth, with no test for
leaves in the loop. The comparisons and leaf values are the ones a
recursive walk makes; forests and boosting add the per-tree values in
tree order, so scores are bit-identical to adding one tree at a time.

``TreeModel``, the one payload codec of dt, rf and xgb, stores the arrays
themselves, each as a ``linalg`` array object (little-endian int64 or
float64, whose bytes a bundle file holds after its JSON header):
``feature``, ``threshold``, ``right``, ``value`` and ``roots``. ``left``
is not stored: nodes are in pre-order, so a node is a leaf iff
``right[i] == i`` and an internal node's left child is ``i + 1``.
Nor is ``depth``: a file that understated it would stop walks at internal
nodes and silently score 0.0, so it is computed on load, one numpy step
per tree level. Loading checks the structure with a few whole-array
operations instead of a walk per node. Every internal node needs
``i + 1 < right[i] < n``, and every node must be a root or the child of
exactly one parent (a ``bincount`` over roots and children). Children
then have higher indices than their parents, so the nodes form a forest
and every walk from a root ends at a leaf. A bundle written before leaves
held one value also stores each leaf's nonflaky fraction as
``nonflaky``; loading ignores it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import QflakeError
from ..linalg import decode_array, encode_array
from .base import check_scoring_input, check_training_data, integer_at_least, validate_params

_GAIN_EPS = 1e-12

CRITERIA = ("entropy", "gini")


@dataclass(eq=False)
class TreeNode:
    """One node of a tree as ``FlatTrees.to_nodes`` rebuilds it, for
    reading: an internal node (feature/threshold/left/right) or a leaf
    holding its ``value``. Rows with feature <= threshold go left.
    Nodes compare by identity and print without children: any depth works.
    """

    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = field(default=None, repr=False)
    right: "TreeNode | None" = field(default=None, repr=False)
    value: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class NodeArrays:
    """Trees as growers build them: parallel node lists in pre-order and
    one root index per tree. ``grow`` is the one place that appends nodes
    and patches ``right``.
    """

    def __init__(self):
        self.feature, self.threshold, self.right, self.value = [], [], [], []
        self.roots = []

    def grow(self, root, expand) -> None:
        """Append one tree in pre-order, expanding from ``root`` with an
        explicit stack: ``expand(node)`` returns a leaf's value, or a
        split's ``(feature, threshold, left, right)``, whose left subtree is
        appended whole before its right child, which waits on the stack
        with the index whose ``right`` it sets."""
        self.roots.append(len(self.right))
        stack = [(root, None)]
        while stack:
            node, parent = stack.pop()
            i = len(self.right)
            if parent is not None:
                self.right[parent] = i
            grown = expand(node)
            if isinstance(grown, tuple):
                feature, threshold, left, right = grown
                stack += (right, i), (left, None)
                value = 0.0
            else:
                feature, threshold, value = 0, 0.0, grown
            self.feature.append(feature)
            self.threshold.append(threshold)
            self.right.append(i)
            self.value.append(value)

    def flat(self) -> "FlatTrees":
        return FlatTrees._with_derived(
            np.array(self.feature, dtype=np.intp),
            np.array(self.threshold, dtype=np.float64),
            np.array(self.right, dtype=np.intp),
            np.array(self.value, dtype=np.float64),
            np.array(self.roots, dtype=np.intp),
        )


# The arrays of a saved FlatTrees, and the codec key each is stored under.
_PAYLOAD_KEYS = {
    "feature": "int64le",
    "threshold": "float64le",
    "right": "int64le",
    "value": "float64le",
    "roots": "int64le",
}


@dataclass(frozen=True, eq=False)
class FlatTrees:
    """All trees of one model as flat node arrays, nodes in pre-order.

    ``value`` is a leaf's score: its flaky fraction, or its regression
    value; internal nodes hold 0.0. Leaves hold feature 0, threshold 0.0
    and themselves as children. ``left`` and ``depth`` follow from
    ``right`` and ``roots`` (``_with_derived``), so a bundle stores
    neither.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: int

    @classmethod
    def _with_derived(cls, feature, threshold, right, value, roots) -> "FlatTrees":
        """The trees of ``right`` and ``roots``, whose node ``i`` is a leaf
        iff ``right[i] == i`` and otherwise has left child ``i + 1``; the
        depth comes from a walk down from the roots, one level per step."""
        nodes = np.arange(right.size)
        internal = right != nodes
        left = np.where(internal, nodes + 1, nodes)
        depth, level = 0, roots[internal[roots]]
        while level.size:
            depth += 1
            children = np.concatenate([level + 1, right[level]])
            level = children[internal[children]]
        return cls(
            feature=feature,
            threshold=threshold,
            left=left,
            right=right,
            value=value,
            roots=roots,
            depth=depth,
        )

    def to_payload(self) -> dict:
        """The arrays a bundle stores, each through ``linalg.encode_array``."""
        return {name: encode_array(getattr(self, name)) for name in _PAYLOAD_KEYS}

    @classmethod
    def from_payload(cls, payload, n_features) -> "FlatTrees":
        """Decode and check a saved payload with whole-array operations;
        anything but a forest of well-formed trees over ``n_features``
        columns (an int, at least 1) raises QflakeError.

        Every internal node ``i`` must have ``i + 1 < right[i] < n``, and
        every node must be a root or the child of exactly one parent.
        Children then sit after their parents, so following parents from
        any node ends at a root, and every walk down ends at a leaf. An
        internal node's feature must be a column index (out of range it
        would silently read another row's column), a leaf's must be 0 (it
        is read, and ignored, while its walk waits for deeper trees), and
        thresholds and leaf values must be finite (the codec checks)."""
        if type(n_features) is not int or n_features < 1:
            raise QflakeError(f"n_features must be an integer >= 1, got {n_features!r}")
        if not isinstance(payload, dict):
            raise QflakeError(f"tree payload must be a JSON object, got {payload!r:.40}")
        arrays = {}
        for name in _PAYLOAD_KEYS:
            if name not in payload:
                raise QflakeError(f"tree payload has no {name} array")
            try:
                arrays[name] = decode_array(payload[name], 1, _PAYLOAD_KEYS[name])
            except QflakeError as exc:
                raise QflakeError(f"tree {name}: {exc}") from None
        roots = arrays.pop("roots")
        sizes = {name: a.size for name, a in arrays.items()}
        n = sizes["right"]
        if set(sizes.values()) != {n}:
            raise QflakeError(f"tree node arrays differ in length: {sizes}")
        feature, right = arrays["feature"], arrays["right"]
        nodes = np.arange(n)
        internal = right != nodes
        bad = internal & ((right <= nodes + 1) | (right >= n))
        if bad.any():
            i = int(bad.argmax())
            raise QflakeError(
                f"tree node {i} has right child {right[i]}, not in ({i + 1}, {n})"
            )
        if ((roots < 0) | (roots >= n)).any():
            raise QflakeError(f"tree roots must be node indices below {n}")
        parents = np.bincount(
            np.concatenate([roots, nodes[internal] + 1, right[internal]]), minlength=n
        )
        if (parents != 1).any():
            i = int((parents != 1).argmax())
            raise QflakeError(
                f"tree node {i} is reached from {parents[i]} places (roots and parents); "
                "expected exactly one"
            )
        bad = np.where(internal, (feature < 0) | (feature >= n_features), feature != 0)
        if bad.any():
            i = int(bad.argmax())
            what = f"a column index below {n_features}" if internal[i] else "0 at a leaf"
            raise QflakeError(f"tree node {i} has feature {feature[i]}, not {what}")
        return cls._with_derived(feature, arrays["threshold"], right, arrays["value"], roots)

    def to_nodes(self) -> list[TreeNode]:
        """Each tree as ``TreeNode``s, rebuilt from the arrays: children
        before parents (pre-order puts them after), so no recursion."""
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        left, right = self.left.tolist(), self.right.tolist()
        value = self.value.tolist()
        built = [None] * len(feature)
        for i in reversed(range(len(feature))):
            if left[i] != i:
                built[i] = TreeNode(
                    feature=feature[i],
                    threshold=threshold[i],
                    left=built[left[i]],
                    right=built[right[i]],
                )
            else:
                built[i] = TreeNode(value=value[i])
        return [built[r] for r in self.roots.tolist()]

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


def grow_class_trees(X, y, params, samples) -> FlatTrees:
    """Greedy class trees on X and 0/1 labels y under ``_DT_PARAMS``
    ``params``, one per ``(rows, rng)`` of ``samples``, each grown before
    the next is drawn; a leaf holds its flaky fraction. ``rows`` may
    repeat, as in a bootstrap sample. With ``rng`` None a split considers
    every column, else ceil(sqrt(d)) columns drawn from ``rng``, one draw
    per node in pre-order (random-forest mode).
    """
    search = SplitSearch(X, y, params["criterion"])
    columns, y = search.columns, search.y
    d = columns.shape[0]
    every_column = np.arange(d)
    sampled = math.ceil(math.sqrt(d))
    depth_cap = math.inf if params["max_depth"] is None else params["max_depth"]

    def expand(node):
        idx, depth, rng = node
        n = len(idx)
        pos = np.count_nonzero(y[idx])
        if depth >= depth_cap or n < params["min_samples_split"] or pos in (0, n):
            return pos / n
        if rng is None or sampled >= d:
            feats = every_column
        else:
            feats = np.sort(rng.choice(d, size=sampled, replace=False))
        found = search.best_split(idx, feats, params["min_samples_leaf"])
        if found is None:
            return pos / n
        feature, threshold = found
        mask = columns[feature, idx] <= threshold
        return feature, threshold, (idx[mask], depth + 1, rng), (idx[~mask], depth + 1, rng)

    nodes = NodeArrays()
    for rows, rng in samples:
        nodes.grow((rows, 0, rng), expand)
    return nodes.flat()


_DT_PARAMS = {
    "criterion": ("entropy", 'one of "entropy", "gini"', lambda v: v in CRITERIA),
    "max_depth": (
        None, "null or an integer >= 0", lambda v: v is None or integer_at_least(v, 0)
    ),
    "min_samples_leaf": (1, "an integer >= 1", lambda v: integer_at_least(v, 1)),
    "min_samples_split": (2, "an integer >= 2", lambda v: integer_at_least(v, 2)),
}


@dataclass
class TreeModel:
    """A dt, rf or xgb model: its trees as one ``FlatTrees`` over
    ``n_features`` columns, and the one payload codec. A payload holds the
    family, the trees under ``trees_key``, ``n_features`` and the floats
    named in ``scalars``. Each family defines its own ``score``.
    """

    flat: FlatTrees
    n_features: int

    trees_key = "trees"
    scalars = ()

    @property
    def trees(self) -> list[TreeNode]:
        return self.flat.to_nodes()

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            **{name: float(getattr(self, name)) for name in self.scalars},
            self.trees_key: self.flat.to_payload(),
            "n_features": int(self.n_features),
        }

    @classmethod
    def from_dict(cls, d: dict):
        flat = FlatTrees.from_payload(d[cls.trees_key], d["n_features"])
        cls._check_payload(d, flat)
        scalars = {name: float(d[name]) for name in cls.scalars}
        return cls(flat=flat, n_features=d["n_features"], **scalars)

    @classmethod
    def _check_payload(cls, d: dict, flat: FlatTrees) -> None:
        """Raise QflakeError for a tree count or a scalar of payload ``d``,
        whose trees decoded to ``flat``, that the family does not admit."""


class DecisionTreeModel(TreeModel):
    family = "dt"
    trees_key = "root"

    @property
    def root(self) -> TreeNode:
        return self.flat.to_nodes()[0]

    def score(self, X) -> np.ndarray:
        X = check_scoring_input(X, self.n_features)
        return self.flat.leaf_values(X)[0]

    @classmethod
    def _check_payload(cls, d: dict, flat: FlatTrees) -> None:
        if flat.roots.size != 1:
            raise QflakeError(f"dt model payload holds {flat.roots.size} trees, not one")


def train_decision_tree(X, y, params=None, seed=0) -> DecisionTreeModel:
    X, y = check_training_data(X, y)
    resolved = validate_params("dt", params or {}, _DT_PARAMS)
    # a forest of one tree: every row once, every column at every split
    flat = grow_class_trees(X, y, resolved, [(np.arange(X.shape[0]), None)])
    return DecisionTreeModel(flat=flat, n_features=X.shape[1])
