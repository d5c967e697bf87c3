import numpy as np
import pytest

from qflake.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NonFiniteMatrixError,
    RankTooSmallError,
    SvdNotConvergedError,
)
from qflake import linalg
from qflake.linalg import (
    pca_ceiling,
    pca_fit,
    pca_inverse_transform,
    pca_transform,
)


def covariance_eigen_oracle(X, k):
    """Brute-force oracle: form the sample covariance explicitly and
    eigendecompose it. Independent of the SVD route under test.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    eigvals = np.linalg.eigvalsh(cov)
    return np.sort(eigvals)[::-1][:k]


class TestPcaFit:
    def test_collinear_data(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        model = pca_fit(X, 1)
        expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(model.components[0], expected, atol=1e-12)
        ratio = model.explained_variance[0] / covariance_eigen_oracle(X, 2).sum()
        assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 6))
        model = pca_fit(X, 5)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_explained_variance_matches_covariance_oracle(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(8, 5))
        model = pca_fit(X, 4)
        oracle = covariance_eigen_oracle(X, 4)
        assert np.abs(model.explained_variance - oracle).max() < 1e-8

    def test_explained_variance_non_increasing(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(15, 7))
        model = pca_fit(X, 6)
        ev = model.explained_variance
        assert np.all(ev[:-1] >= ev[1:] - 1e-12)
        assert np.all(ev >= 0)

    def test_orthonormal_components(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(10, 8))
        model = pca_fit(X, 6)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(6)).max() < 1e-8

    def test_k_bounds(self):
        X = np.random.default_rng(0).normal(size=(5, 3))
        with pytest.raises(RankTooSmallError):
            pca_fit(X, 5)  # ceiling is min(4, 3) = 3
        with pytest.raises(RankTooSmallError):
            pca_fit(X, 0)
        with pytest.raises(DegenerateInputError):
            pca_fit(X[:1], 1)

    def test_non_finite_rejected(self):
        X = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(NonFiniteMatrixError):
            pca_fit(X, 1)

    def test_cv_training_split_ceiling_is_230(self):
        # the 5-fold training portions of 288 rows hold 230 or 231 rows;
        # the widest admissible component count across folds is 230
        fold_sizes = [58, 58, 58, 57, 57]
        train_sizes = [288 - s for s in fold_sizes]
        ceilings = [pca_ceiling(n, 10_000) for n in train_sizes]
        assert max(ceilings) == 230


def failing_svd(n_failures):
    """np.linalg.svd that raises on its first ``n_failures`` calls."""
    real_svd = np.linalg.svd
    calls = []

    def svd(a, *args, **kwargs):
        calls.append(a.shape)
        if len(calls) <= n_failures:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(a, *args, **kwargs)

    return svd, calls


class TestSvdFallback:
    def test_transposed_svd_matches_the_direct_path(self, monkeypatch):
        rng = np.random.default_rng(8)
        X = rng.poisson(1.0, size=(30, 45)).astype(np.float64)
        direct = pca_fit(X, 12)
        svd, calls = failing_svd(1)
        monkeypatch.setattr(linalg.np.linalg, "svd", svd)
        fallback = pca_fit(X, 12)
        assert calls == [(30, 45), (45, 30)]
        assert np.abs(fallback.components - direct.components).max() < 1e-10
        assert np.abs(fallback.explained_variance - direct.explained_variance).max() < 1e-10
        assert np.array_equal(fallback.mean, direct.mean)

    def test_both_orientations_failing_raises_qflake_error(self, monkeypatch):
        svd, _ = failing_svd(2)
        monkeypatch.setattr(linalg.np.linalg, "svd", svd)
        with pytest.raises(SvdNotConvergedError):
            pca_fit(np.random.default_rng(1).normal(size=(6, 4)), 2)


class TestPcaTransform:
    def test_mean_maps_to_zero(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(9, 4))
        model = pca_fit(X, 3)
        z = pca_transform(model, X.mean(axis=0, keepdims=True))
        assert np.abs(z).max() < 1e-10

    def test_projected_covariance_is_diagonal_explained_variance(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 6))
        model = pca_fit(X, 4)
        Z = pca_transform(model, X)
        cov = np.cov(Z, rowvar=False)
        assert np.abs(cov - np.diag(model.explained_variance)).max() < 1e-8

    def test_full_rank_preserves_distances(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(10, 5))
        model = pca_fit(X, 5)
        Z = pca_transform(model, X)
        for i in range(len(X)):
            for j in range(i + 1, len(X)):
                d_orig = np.linalg.norm(X[i] - X[j])
                d_proj = np.linalg.norm(Z[i] - Z[j])
                assert d_proj == pytest.approx(d_orig, abs=1e-8)

    def test_reconstruction_error_non_increasing_in_k(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(12, 7))
        errors = []
        for k in range(1, 8):
            model = pca_fit(X, k)
            recon = pca_inverse_transform(model, pca_transform(model, X))
            errors.append(np.linalg.norm(X - recon))
        assert all(a >= b - 1e-10 for a, b in zip(errors, errors[1:]))

    def test_dimension_mismatch(self):
        X = np.random.default_rng(0).normal(size=(6, 4))
        model = pca_fit(X, 2)
        with pytest.raises(DimensionMismatchError):
            pca_transform(model, X[:, :3])
