"""The presorted Newton-tree grower, kept as the reference that the exact
sparse-histogram grower in ``qflake.classifiers.boosting`` must match.

It sorts every column of the node's rows (one stable argsort of X, then
partitioned down the recursion so each node stays sorted), takes prefix
sums of g and h in each column's own order, and scores every boundary
between consecutive distinct sorted values.
"""

import numpy as np

from qflake.classifiers.tree import TreeNode


def grow_presorted_tree(X, g, h, max_depth, lam=1.0) -> TreeNode:
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    cols = np.arange(d)

    def build(s_idx, depth):
        n_node = s_idx.shape[0]
        g_sum = float(g[s_idx[:, 0]].sum())
        h_sum = float(h[s_idx[:, 0]].sum())
        leaf = TreeNode(value=-g_sum / (h_sum + lam))
        if depth >= max_depth or n_node < 2:
            return leaf

        sv = X[s_idx, cols]
        gl = np.cumsum(g[s_idx], axis=0)[:-1]
        hl = np.cumsum(h[s_idx], axis=0)[:-1]
        gr = g_sum - gl
        hr = h_sum - hl
        gain = gl * gl / (hl + lam) + gr * gr / (hr + lam)
        gain[~(sv[1:] > sv[:-1])] = -np.inf
        best_raw = gain.max()
        best = 0.5 * (best_raw - g_sum**2 / (h_sum + lam))
        if not np.isfinite(best) or best <= 0.0:
            return leaf
        # gains within 1e-9*max(1,|best|) of the best tie (raw gains are
        # twice the gains); the first tie over gain.T scans feature-major
        tied = gain.T >= best_raw - 2e-9 * max(1.0, abs(best))
        j, b = np.unravel_index(np.argmax(tied), tied.shape)
        threshold = 0.5 * (sv[b, j] + sv[b + 1, j])

        # every column of s_idx holds the same row set, so each column has
        # exactly b+1 left members; boolean compression keeps their order
        flags = (X[:, j] <= threshold)[s_idx]
        n_left = b + 1
        left_idx = s_idx.T[flags.T].reshape(d, n_left).T
        right_idx = s_idx.T[~flags.T].reshape(d, n_node - n_left).T
        node = TreeNode(feature=int(j), threshold=float(threshold))
        node.left = build(left_idx, depth + 1)
        node.right = build(right_idx, depth + 1)
        return node

    return build(np.argsort(X, axis=0, kind="stable"), 0)
