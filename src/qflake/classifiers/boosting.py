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
- Only nonzero cells are histogrammed. A node's G, H and row-count
  histograms are ``bincount``s over its nonzero cells; each column's zero
  bin is the node total minus that column's nonzero bins. One prefix sum
  per quantity gives every left sum, negative values included: they sort
  before the zero bin like any other value.
- A candidate split lies between two consecutive bins present at the
  node, and its threshold is the midpoint of their values. A bin with no
  row at the node is no candidate, so thresholds depend only on the
  node's own rows.
- Ties: splits into the same two row sets can differ in the last ulp, as
  each column sums its bins in its own order, so gains within
  1e-9*max(1,|best|) of the best tie. The first tie on the feature-major
  axis wins: lowest feature, then lowest threshold.
- What a node's row set alone decides (its cells' bins and its candidate
  splits) is kept for the rest of the fit, keyed by the node's path from
  the root, within a fixed memory budget: rounds keep growing the same
  few nodes, and only G and H change between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import SpecInvalidError
from .base import REQUIRED, check_scoring_input, check_training_data, sigmoid, validate_params
from .tree import FlatTrees, NodeArrays, TreeNode

_LAMBDA = 1.0

_GBT_PARAMS = {
    "learning_rate": (REQUIRED, lambda v: isinstance(v, (int, float)) and v >= 0),
    "max_depth": (REQUIRED, lambda v: isinstance(v, int) and v >= 0),
    "n_estimators": (REQUIRED, lambda v: isinstance(v, int) and v >= 0),
}


class ExactBins:
    """One training matrix binned for split finding, once per fit: every
    column's sorted distinct values (0 among them) on one feature-major bin
    axis, and the row and bin of every nonzero cell.

    A node gathers only from 1-D arrays (a feature is one contiguous row of
    ``columns``): flat gathers are the cheap ones at a few dozen rows.
    """

    def __init__(self, X):
        d = X.shape[1]
        self.columns = np.ascontiguousarray(X.T)
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
        self.col_start = np.searchsorted(self.bin_col, np.arange(d))
        self.bin_col_start = self.col_start[self.bin_col]
        # Node rows stay in the stable order of column 0's values: node sums
        # then add in the order of the presorted reference grower in the
        # tests, so leaf values, scores and saved bundles match it bit for bit.
        self.root_rows = np.argsort(self.columns[0], kind="stable")
        # 97% of the nodes grown in a benchmark pass repeat a node of an
        # earlier round; room for eight root-sized nodes keeps nearly all of
        # them at benchmark scale and bounds the memory of large fits.
        self._seen = {}
        self._room = 8 * (cols.size + 3 * self.bin_value.size)

    def _candidates(self, key, rows, cells):
        """The part of a node's split search its row set alone decides:
        its cells' bins and its candidates (last left bin, its column's
        first bin, first right bin). Kept per fit, keyed by the node's
        path from the root, while room lasts."""
        found = self._seen.get(key)
        if found is not None:
            return found
        cell_bin = self.cell_bin[cells]
        count = np.bincount(cell_bin, minlength=self.bin_value.size)
        count[self.zero_bin] = rows.size - np.add.reduceat(count, self.col_start)
        present = np.flatnonzero(count)
        pair = np.flatnonzero(self.bin_col[present[:-1]] == self.bin_col[present[1:]])
        lo = present[pair]
        found = (cell_bin, lo, self.bin_col_start[lo], present[pair + 1])
        size = cell_bin.size + 3 * lo.size
        if size <= self._room:
            self._seen[key] = found
            self._room -= size
        return found

    def grow(self, g, h, max_depth, nodes: NodeArrays, lam=_LAMBDA) -> np.ndarray:
        """Grow one regression tree on gradients/hessians and append it to
        ``nodes``. Returns each training row's leaf value, read off the
        partition, so no tree is walked to update the raw scores."""
        n_bins = self.bin_value.size
        cell_g = g[self.cell_row]
        cell_h = h[self.cell_row]
        prefix_g = np.zeros(n_bins + 1)
        prefix_h = np.zeros(n_bins + 1)
        row_value = np.empty(g.size)

        def leaf(rows, value):
            row_value[rows] = value
            nodes.leaf(value)

        def build(key, rows, cells, depth):
            g_sum = float(g[rows].sum())
            h_sum = float(h[rows].sum())
            value = -g_sum / (h_sum + lam)
            if depth >= max_depth or rows.size < 2:
                return leaf(rows, value)
            cell_bin, lo, start, hi = self._candidates(key, rows, cells)
            if lo.size == 0:
                return leaf(rows, value)
            g_hist = np.bincount(cell_bin, cell_g[cells], n_bins)
            h_hist = np.bincount(cell_bin, cell_h[cells], n_bins)
            g_hist[self.zero_bin] = g_sum - np.add.reduceat(g_hist, self.col_start)
            h_hist[self.zero_bin] = h_sum - np.add.reduceat(h_hist, self.col_start)
            np.cumsum(g_hist, out=prefix_g[1:])
            np.cumsum(h_hist, out=prefix_h[1:])
            gl = prefix_g[lo + 1] - prefix_g[start]
            hl = prefix_h[lo + 1] - prefix_h[start]
            gr = g_sum - gl
            hr = h_sum - hl
            gain = gl * gl / (hl + lam) + gr * gr / (hr + lam)
            best_raw = gain.max()
            best = 0.5 * (best_raw - g_sum**2 / (h_sum + lam))
            if not best > 0.0:
                return leaf(rows, value)
            # raw gains are twice the gains; the first tie wins
            k = int(np.argmax(gain >= best_raw - 2e-9 * max(1.0, abs(best))))
            j = int(self.bin_col[lo[k]])
            threshold = 0.5 * (self.bin_value[lo[k]] + self.bin_value[hi[k]])

            go_left = self.columns[j] <= threshold
            rows_left = go_left[rows]
            cells_left = go_left[self.cell_row[cells]]
            i = nodes.split(j, float(threshold))
            build((key, k, 0), rows[rows_left], cells[cells_left], depth + 1)
            nodes.right[i] = len(nodes.right)
            build((key, k, 1), rows[~rows_left], cells[~cells_left], depth + 1)

        nodes.roots.append(len(nodes.right))
        build((), self.root_rows, np.arange(self.cell_row.size), 0)
        # build refers to itself: a cycle that would keep this round's cell
        # and prefix arrays alive until the cyclic collector runs (peak RSS
        # grew 13% on a paper-suite pass); emptying the cell frees them now
        del build
        return row_value


@dataclass
class GradientBoostingModel:
    family = "xgb"
    base_raw: float          # initial raw score F0 (log-odds of base rate)
    prior: float             # base rate of the flaky class
    learning_rate: float
    flat: FlatTrees
    n_features: int
    params: dict
    seed: int | None = None
    flags: tuple[str, ...] = ()

    @property
    def trees(self) -> list[TreeNode]:
        return self.flat.to_nodes()

    def raw_score(self, X) -> np.ndarray:
        X = check_scoring_input(X, self.n_features)
        steps = self.learning_rate * self.flat.leaf_values(X)
        start = np.full((1, X.shape[0]), self.base_raw, dtype=np.float64)
        # cumsum adds round by round onto the base score, as boosting did
        return np.cumsum(np.concatenate([start, steps]), axis=0)[-1]

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
            "trees": self.flat.to_payload(),
            "n_features": int(self.n_features),
            "params": dict(self.params),
            "seed": self.seed,
            "flags": list(self.flags),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GradientBoostingModel":
        scalars = {name: d[name] for name in ("base_raw", "prior", "learning_rate")}
        for name, value in scalars.items():
            if type(value) not in (int, float) or not math.isfinite(value):
                raise SpecInvalidError(f"xgb {name} must be a finite number, got {value!r:.40}")
        if not 0.0 <= scalars["prior"] <= 1.0:
            raise SpecInvalidError(f"xgb prior must be in [0, 1], got {scalars['prior']!r}")
        if scalars["learning_rate"] < 0:
            raise SpecInvalidError(
                f"xgb learning_rate must be >= 0, got {scalars['learning_rate']!r}"
            )
        return cls(
            **{name: float(value) for name, value in scalars.items()},
            flat=FlatTrees.from_payload(d["trees"], d["n_features"]),
            n_features=d["n_features"],
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
            flat=NodeArrays().flat(),
            n_features=X.shape[1],
            params=resolved,
            seed=seed,
            flags=("degenerate_labels",),
        )
    base_raw = float(np.log(prior / (1.0 - prior)))
    raw = np.full(X.shape[0], base_raw, dtype=np.float64)
    yf = y.astype(np.float64)
    lr = float(resolved["learning_rate"])
    nodes = NodeArrays()
    bins = ExactBins(X)
    for _ in range(resolved["n_estimators"]):
        p = sigmoid(raw)
        g = p - yf
        h = p * (1.0 - p)
        raw += lr * bins.grow(g, h, resolved["max_depth"], nodes)
    return GradientBoostingModel(
        base_raw=base_raw,
        prior=prior,
        learning_rate=lr,
        flat=nodes.flat(),
        n_features=X.shape[1],
        params=resolved,
        seed=seed,
    )
