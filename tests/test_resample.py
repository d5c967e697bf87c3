import numpy as np
import pytest

from qflake.errors import PipelineError, QflakeError
from qflake.resample import smote_resample


def segment_residual(point, a, b):
    """Distance from point to segment [a, b] plus the interpolation
    coefficient, computed independently of the generator.
    """
    seg = b - a
    denom = float(seg @ seg)
    if denom == 0.0:
        return float(np.linalg.norm(point - a)), 0.0
    t = float((point - a) @ seg) / denom
    t_clipped = min(max(t, 0.0), 1.0)
    return float(np.linalg.norm(point - (a + t_clipped * seg))), t


def assert_convex_combinations(result, X, y, k_neighbors, tol=1e-9):
    """Every synthetic row must sit on a segment from some minority point
    to one of its k nearest minority neighbors, coefficient in [0, 1].
    """
    minority_label = 1 if (y == 1).sum() < (y == 0).sum() else 0
    M = X[np.flatnonzero(y == minority_label)]
    m = len(M)
    k = min(k_neighbors, m - 1)
    neighbor_pairs = []
    for i in range(m):
        d = np.sqrt(((M - M[i]) ** 2).sum(axis=1))
        d[i] = np.inf
        for j in np.argsort(d, kind="stable")[:k]:
            neighbor_pairs.append((i, int(j)))
    for s in result.X[result.synthetic_mask]:
        ok = False
        for i, j in neighbor_pairs:
            residual, t = segment_residual(s, M[i], M[j])
            if residual <= tol and -1e-12 <= t <= 1 + 1e-12:
                ok = True
                break
        assert ok, f"synthetic row {s} is not on any minority segment"


class TestSmote:
    def test_segment_interpolation(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 1.0], [6.0, 2.0], [7.0, 3.0]])
        y = np.array([1, 1, 0, 0, 0])
        result = smote_resample(X, y, k_neighbors=1, seed=4)
        assert result.n_synthetic == 1
        synth = result.X[result.synthetic_mask][0]
        assert synth[1] == 0.0
        assert 0.0 <= synth[0] <= 2.0

    def test_balanced_input_is_identity(self):
        X = np.arange(8, dtype=float).reshape(4, 2)
        y = np.array([0, 1, 0, 1])
        result = smote_resample(X, y, seed=0)
        assert result.n_synthetic == 0
        assert np.array_equal(result.X, X)
        assert np.array_equal(result.y, y)

    def test_parity_and_synthetic_count_on_corpus_ratio(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 1, (45, 6)), rng.normal(3, 1, (243, 6))])
        y = np.array([1] * 45 + [0] * 243)
        result = smote_resample(X, y, k_neighbors=5, seed=9)
        assert result.n_synthetic == 198
        assert (result.y == 1).sum() == (result.y == 0).sum() == 243

    def test_originals_bit_identical(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 4))
        y = np.array([1] * 4 + [0] * 16)
        result = smote_resample(X, y, seed=3)
        assert np.array_equal(result.X[: len(X)], X)
        assert np.array_equal(result.y[: len(y)], y)
        assert not result.synthetic_mask[: len(X)].any()
        assert result.synthetic_mask[len(X):].all()

    def test_determinism(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 5))
        y = np.array([1] * 6 + [0] * 24)
        a = smote_resample(X, y, seed=11)
        b = smote_resample(X, y, seed=11)
        assert np.array_equal(a.X, b.X)
        c = smote_resample(X, y, seed=12)
        assert not np.array_equal(c.X, a.X)

    def test_convexity_property(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 8)).round(2)
        y = np.array([1] * 9 + [0] * 31)
        result = smote_resample(X, y, k_neighbors=5, seed=21)
        assert_convex_combinations(result, X, y, 5)

    def test_base_rows_cycle_evenly(self):
        # 198 synthetics over 45 minority rows: each base used 4 or 5 times
        rng = np.random.default_rng(7)
        X = np.vstack([rng.normal(0, 1, (45, 3)), rng.normal(5, 1, (243, 3))])
        y = np.array([1] * 45 + [0] * 243)
        result = smote_resample(X, y, seed=17)
        assert result.n_synthetic == 4 * 45 + 18

    def test_duplicate_minority_points_are_legal(self):
        X = np.array([[1.0, 1.0], [1.0, 1.0], [4.0, 4.0], [5.0, 5.0], [6.0, 6.0]])
        y = np.array([1, 1, 0, 0, 0])
        result = smote_resample(X, y, k_neighbors=3, seed=2)
        for synth in result.X[result.synthetic_mask]:
            assert np.allclose(synth, [1.0, 1.0])

    def test_minority_too_small(self):
        X = np.zeros((4, 2))
        y = np.array([1, 0, 0, 0])
        with pytest.raises(PipelineError, match=r"minority class has 1 sample\(s\)"):
            smote_resample(X, y)

    def test_bad_k(self):
        X = np.zeros((4, 2))
        y = np.array([1, 1, 0, 0])
        with pytest.raises(QflakeError, match="k_neighbors must be at least 1"):
            smote_resample(X, y, k_neighbors=0)
