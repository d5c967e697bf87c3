"""The dense class-split search, kept as the reference that the
table-driven search in ``qflake.classifiers.tree`` must match.

It evaluates impurity at every row boundary of every candidate column,
equal values included, and masks the boundaries that are not between
distinct values or that leave fewer than ``min_samples_leaf`` rows on a
side.
"""

import numpy as np

from qflake.classifiers.tree import _GAIN_EPS, SplitSearch, _impurity_from_fraction


def dense_class_split(X, y, idx, feature_ids, criterion, min_samples_leaf):
    n = len(idx)
    if n < 2:
        return None
    Xf = X[np.ix_(idx, feature_ids)]
    yn = y[idx]
    order = np.argsort(Xf, axis=0, kind="stable")
    sv = np.take_along_axis(Xf, order, axis=0)
    sy = yn[order].astype(np.float64)

    pos_prefix = np.cumsum(sy, axis=0)
    left_n = np.arange(1, n, dtype=np.float64)[:, None]
    right_n = n - left_n
    left_pos = pos_prefix[:-1]
    total_pos = float(yn.sum())
    right_pos = total_pos - left_pos

    parent = float(_impurity_from_fraction(np.array([total_pos / n]), criterion)[0])
    child = (
        left_n * _impurity_from_fraction(left_pos / left_n, criterion)
        + right_n * _impurity_from_fraction(right_pos / right_n, criterion)
    ) / n
    gain = parent - child

    valid = (
        (sv[1:] > sv[:-1])
        & (left_n >= min_samples_leaf)
        & (right_n >= min_samples_leaf)
    )
    gain = np.where(valid, gain, -np.inf)
    best = gain.max()
    if not np.isfinite(best) or best <= _GAIN_EPS:
        return None
    # first max over gain.T scans feature-major: lowest feature wins, then
    # lowest boundary, i.e. lowest threshold
    j, b = np.unravel_index(np.argmax(gain.T), (gain.shape[1], gain.shape[0]))
    threshold = 0.5 * (sv[b, j] + sv[b + 1, j])
    return int(feature_ids[j]), float(threshold)


class DenseSearch(SplitSearch):
    """Stands in for ``SplitSearch`` in ``tree.grow_class_trees``, which
    grows dt and rf alike, finding every split with the dense reference
    search."""

    def __init__(self, X, y, criterion):
        super().__init__(X, y, criterion)
        self.X = X
        self.criterion = criterion

    def best_split(self, idx, feature_ids, min_samples_leaf):
        return dense_class_split(
            self.X, self.y, idx, feature_ids, self.criterion, min_samples_leaf
        )
