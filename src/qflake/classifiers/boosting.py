"""Gradient boosted trees with second-order (Newton) updates on binary
logistic loss.

Per round: gradients g = sigma(F) - y and hessians h = sigma(F)(1 - sigma(F))
are fit by a regression tree whose split gain is

    0.5 * (GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam)) - gamma

with lam = 1 and gamma = 0, and whose leaf values are -G/(H+lam). The raw
score starts at the log-odds of the base rate and accumulates
learning_rate * tree(x) per round; the final score is the sigmoid.

Split finding is exact and sparsity-aware (Chen & Guestrin, KDD 2016,
section 3.4; histogram layout after LightGBM, Ke et al., NeurIPS 2017):

- Bins are exact. Each column's bins are its sorted distinct values, with
  0 always among them, laid out feature-major in one global bin axis.
  They are built once per fit, since X does not change between rounds.
  Byte-identical columns are binned once, as their first copy, which then
  names every split on them.
- Only nonzero cells are histogrammed, each node on its own compact axis:
  the bins present among its nonzero cells, so only its live columns
  (those with a nonzero cell at the node) take part. G and H, packed as
  one complex number per row, take one ``bincount`` and one prefix sum.
- A candidate split lies between two consecutive bins present at the node
  in one column, the zero bin present when some row of the node is 0
  there; its threshold is the midpoint of their values. A bin with no row
  at the node is no candidate, so thresholds depend only on the node's own
  rows. Negative values sort before the zero bin like any other value.
- The side of a candidate without the zero bin is a run of compact bins:
  its sums are a difference of two prefix sums, and the other side is the
  node total minus them. The gain is symmetric in the two sides.
- Ties: splits into the same two row sets can differ in the last ulp, as
  each column sums its bins in its own order, so gains within
  1e-9*max(1,|best|) of the best tie. The first tie on the feature-major
  axis wins: lowest feature, then lowest threshold.
- What a node's row set alone decides (its rows, its cells' rows and
  compact bins, its candidates) is kept for the rest of the fit as small
  unsigned integer arrays, keyed by the node's path from the root, first
  come within a fixed byte budget: rounds keep growing the same few
  nodes, and only G and H change between them. A split that repeats a
  kept node finds its children kept too, and partitions nothing. The
  budget holds every node of a fit on 5:27 and 8:43 corpora; at 45:243 a
  fit's nodes outgrow it and about 40% of node searches find a kept node.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ..errors import QflakeError
from .base import (
    REQUIRED,
    check_scoring_input,
    check_training_data,
    finite_number,
    integer_at_least,
    sigmoid,
    validate_params,
)
from .tree import FlatTrees, NodeArrays, TreeModel

_LAMBDA = 1.0

_GBT_PARAMS = {
    "learning_rate": (
        REQUIRED, "a finite number >= 0", lambda v: finite_number(v) and v >= 0
    ),
    "max_depth": (REQUIRED, "an integer >= 0", lambda v: integer_at_least(v, 0)),
    "n_estimators": (REQUIRED, "an integer >= 0", lambda v: integer_at_least(v, 0)),
}


# Bytes of node search data one fit may keep: every node of a fit on 5:27
# and 8:43 corpora (at most 1.7 and 2.6 MB on the corpora measured), and a
# bound on the memory of larger fits (20-39 MB each at 45:243).
_CACHE_BYTES = 6 << 20
# What a kept node costs beyond its arrays' data: objects and a dict slot.
_NODE_BYTES = 800

# What a node's row set alone decides: its rows and, when it is searched,
# its cells' rows, their interleaved G and H histogram positions, its
# compact axis (axis[p - 1] is the global bin at position p; position 0 is
# empty, so prefix sums start at 0) and its candidates.
_Node = namedtuple("_Node", "rows cell_row bins axis cand", defaults=(None,) * 4)


class ExactBins:
    """One training matrix binned for split finding, once per fit: every
    distinct column's sorted distinct values (0 among them) on one
    feature-major bin axis, and the row and bin of every nonzero cell.
    Byte-identical columns are binned once, as their first copy, and split
    features name that first copy.
    """

    def __init__(self, X):
        columns = np.ascontiguousarray(X.T)
        copies = {}
        for j, column in enumerate(columns):
            copies.setdefault(column.tobytes(), j)
        self.feature = np.fromiter(copies.values(), np.intp, len(copies))
        self.columns = columns[self.feature]
        d = self.feature.size
        cols, self.cell_row = np.nonzero(self.columns)
        vals = self.columns[cols, self.cell_row]
        # bins: each column's distinct nonzero values plus its zero, sorted
        # by (column, value); the first of each run of equal pairs opens a bin
        pair_col = np.concatenate([cols, np.arange(d)])
        pair_val = np.concatenate([vals, np.zeros(d)])
        order = np.lexsort((pair_val, pair_col))
        c, v = pair_col[order], pair_val[order]
        opens = np.ones(c.size, dtype=bool)
        opens[1:] = (c[1:] != c[:-1]) | (v[1:] != v[:-1])
        pair_bin = np.empty(c.size, dtype=np.intp)
        pair_bin[order] = np.cumsum(opens) - 1
        self.cell_bin = pair_bin[: cols.size]
        self.zero_bin = pair_bin[cols.size :]
        self.bin_value = v[opens]
        self.bin_col = c[opens]
        # Node rows stay in the stable order of column 0's values: node sums
        # then add in the order of the presorted reference grower in the
        # tests, so leaf values, scores and saved bundles match it bit for bit.
        self.root_rows = np.argsort(self.columns[0], kind="stable")
        # On 5:27 and 8:43 corpora over 90% of node searches repeat a node
        # of an earlier round, and the budget keeps every node of the fit.
        # Nodes are kept under the depth cap and their path from the root.
        self._seen = {}
        self._room = _CACHE_BYTES
        # kept arrays use the smallest unsigned type that holds every row
        # and histogram position of the fit: 16 bits at the benchmark's scales
        self._index = np.min_scalar_type(max(X.shape[0], 2 * self.bin_value.size + 2))

    def _node(self, key, rows, cell_row, pos, axis, searched) -> _Node:
        """The node under ``key``, kept while room lasts, from its rows, its
        cells' rows and their positions on ``axis``, its parent's compact
        axis (global bins; position p is ``axis[p - 1]``).

        A ``searched`` node gets its candidates: each pair of consecutive
        bins present at the node in one column, the zero bin present when
        some row of the node is 0 there. A candidate is stored as the range
        [a, b) of compact bins that make up its side without the zero bin,
        then its last left and first right global bin.
        """
        arrays = (rows,)
        if searched and pos.size:
            # the compact axis: the bins present at the node
            count = np.bincount(pos, minlength=axis.size + 1)
            nonempty = np.flatnonzero(count > 0)
            remap = np.zeros(count.size, dtype=np.intp)
            remap[nonempty] = np.arange(1, nonempty.size + 1)
            pos = remap.take(pos)
            axis, count = axis.take(nonempty - 1), count.take(nonempty)
            col = self.bin_col.take(axis)
            opens = np.concatenate([[True], col[1:] != col[:-1]])
            first = np.flatnonzero(opens)
            bounds = np.append(first, axis.size)
            has_zero = np.add.reduceat(count, first) < rows.size
            zero_live = np.flatnonzero(has_zero)
            zero = self.zero_bin.take(col.take(first.take(zero_live)))
            # every present bin, zero bins merged in, and its live column
            at = np.searchsorted(axis, zero) + np.arange(zero.size)
            is_zero = np.zeros(axis.size + zero.size, dtype=bool)
            is_zero[at] = True
            present = np.empty(is_zero.size, dtype=np.intp)
            present[at] = zero
            present[~is_zero] = axis
            live = np.empty(is_zero.size, dtype=np.intp)
            live[at] = zero_live
            live[~is_zero] = np.cumsum(opens) - 1
            pair = np.flatnonzero(live[:-1] == live[1:])
            lo, hi, c = present.take(pair), present.take(pair + 1), live.take(pair)
            below_hi = pair + 1 - np.cumsum(is_zero).take(pair)
            zero_left = has_zero.take(c) & (self.bin_value.take(lo) >= 0)
            a = np.where(zero_left, below_hi, bounds.take(c))
            b = np.where(zero_left, bounds.take(c + 1), below_hi)
            bins = np.empty(2 * pos.size, dtype=np.intp)
            np.multiply(pos, 2, out=bins[::2])
            np.add(bins[::2], 1, out=bins[1::2])
            arrays = (rows, cell_row, bins, axis, np.array([a, b, lo, hi]))
        nbytes = _NODE_BYTES + self._index.itemsize * sum(a.size for a in arrays)
        if nbytes > self._room:
            return _Node(*arrays)
        self._room -= nbytes
        node = self._seen[key] = _Node(*(a.astype(self._index) for a in arrays))
        return node

    def grow(self, g, h, max_depth, nodes: NodeArrays) -> np.ndarray:
        """Grow one regression tree on gradients/hessians and append it to
        ``nodes``. Returns each training row's leaf value, read off the
        partition, so no tree is walked to update the raw scores."""
        gh = np.stack([g, h])
        # g and h as the parts of one complex number a row: one histogram
        # and one prefix sum serve both (node sums use gh, as the complex
        # sum adds in another order)
        ghc = np.empty(g.size, dtype=np.complex128)
        ghc.real, ghc.imag = g, h
        row_value = np.empty(g.size)

        def leaf(rows, value):
            row_value[rows] = value
            return value

        def expand(at):
            key, node, depth = at
            g_sum, h_sum = gh.take(node.rows, axis=1).sum(axis=1).tolist()
            value = -g_sum / (h_sum + _LAMBDA)
            if node.cand is None or node.cand.shape[1] == 0:
                return leaf(node.rows, value)
            weights = ghc.take(node.cell_row).view(np.float64)
            hist = np.bincount(node.bins, weights, 2 * node.axis.size + 2)
            # prefix[i] sums the node's first i nonzero bins
            ends = np.cumsum(hist.view(np.complex128)).take(node.cand[:2])
            side = ends[1] - ends[0]
            rest = complex(g_sum, h_sum) - side
            gl, hl, gr, hr = side.real, side.imag, rest.real, rest.imag
            # the gain is symmetric in its two sides
            gain = gl * gl / (hl + _LAMBDA) + gr * gr / (hr + _LAMBDA)
            best_raw = gain.max()
            best = 0.5 * (best_raw - g_sum**2 / (h_sum + _LAMBDA))
            if not best > 0.0:
                return leaf(node.rows, value)
            # raw gains are twice the gains; the first tie wins
            k = int(np.argmax(gain >= best_raw - 2e-9 * max(1.0, abs(best))))
            lo, hi = node.cand[2:, k]
            j = self.bin_col[lo]
            threshold = 0.5 * (self.bin_value[lo] + self.bin_value[hi])

            keys = (key, k, 0), (key, k, 1)
            kids = [self._seen.get(kid) for kid in keys]
            if None in kids:
                go_left = self.columns[j] <= threshold
                rows_left = go_left.take(node.rows)
                cells_left = go_left.take(node.cell_row)
                pos = node.bins[::2] >> 1
                for kid, rows, cells in ((0, rows_left, cells_left),
                                         (1, ~rows_left, ~cells_left)):
                    if kids[kid] is None:
                        rows = node.rows.take(np.flatnonzero(rows))
                        cells = np.flatnonzero(cells)
                        kids[kid] = self._node(
                            keys[kid], rows, node.cell_row.take(cells), pos.take(cells),
                            node.axis, depth + 1 < max_depth and rows.size >= 2,
                        )
            return (int(self.feature[j]), float(threshold),
                    (keys[0], kids[0], depth + 1), (keys[1], kids[1], depth + 1))

        root = self._seen.get(max_depth) or self._node(
            max_depth, self.root_rows, self.cell_row, self.cell_bin + 1,
            np.arange(self.bin_value.size), max_depth > 0 and g.size >= 2,
        )
        nodes.grow((max_depth, root, 0), expand)
        return row_value


@dataclass
class GradientBoostingModel(TreeModel):
    family = "xgb"
    scalars = ("base_raw", "prior", "learning_rate")
    base_raw: float          # initial raw score F0 (log-odds of base rate)
    prior: float             # base rate of the flaky class
    learning_rate: float

    def raw_score(self, X) -> np.ndarray:
        X = check_scoring_input(X, self.n_features)
        steps = self.learning_rate * self.flat.leaf_values(X)
        start = np.full((1, X.shape[0]), self.base_raw, dtype=np.float64)
        # cumsum adds round by round onto the base score, as boosting did
        return np.cumsum(np.concatenate([start, steps]), axis=0)[-1]

    def score(self, X) -> np.ndarray:
        # a one-class fit grows no trees and scores its prior, 0 or 1; a fit
        # on both classes has 0 < prior < 1
        if self.prior in (0.0, 1.0):
            X = check_scoring_input(X, self.n_features)
            return np.full(X.shape[0], self.prior, dtype=np.float64)
        return sigmoid(self.raw_score(X))

    @classmethod
    def _check_payload(cls, d: dict, flat: FlatTrees) -> None:
        for name in cls.scalars:
            if not finite_number(d[name]):
                raise QflakeError(f"xgb {name} must be a finite number, got {d[name]!r:.40}")
        if not 0.0 <= d["prior"] <= 1.0:
            raise QflakeError(f"xgb prior must be in [0, 1], got {d['prior']!r}")
        if d["learning_rate"] < 0:
            raise QflakeError(f"xgb learning_rate must be >= 0, got {d['learning_rate']!r}")


def train_gbt(X, y, params=None, seed=0) -> GradientBoostingModel:
    """Boost for n_estimators rounds; a single-class training set yields a
    model with no trees that scores its prior (0 or 1), rather than raising.
    """
    X, y = check_training_data(X, y)
    resolved = validate_params("xgb", params or {}, _GBT_PARAMS)
    prior = float(y.mean())
    lr = float(resolved["learning_rate"])
    nodes = NodeArrays()
    base_raw = 0.0
    if prior not in (0.0, 1.0):
        base_raw = float(np.log(prior / (1.0 - prior)))
        raw = np.full(X.shape[0], base_raw, dtype=np.float64)
        yf = y.astype(np.float64)
        bins = ExactBins(X)
        for _ in range(resolved["n_estimators"]):
            p = sigmoid(raw)
            g = p - yf
            h = p * (1.0 - p)
            raw += lr * bins.grow(g, h, resolved["max_depth"], nodes)
    return GradientBoostingModel(
        base_raw=base_raw, prior=prior, learning_rate=lr, flat=nodes.flat(), n_features=X.shape[1]
    )
