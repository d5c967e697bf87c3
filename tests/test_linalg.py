import base64
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qflake.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NonFiniteMatrixError,
    RankTooSmallError,
    SpecInvalidError,
    SvdNotConvergedError,
)
from qflake import linalg
from qflake.linalg import (
    decode_array,
    encode_array,
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


MAX = np.finfo(np.float64).max
TINY = np.finfo(np.float64).smallest_subnormal
EDGE_VALUES = [0.0, -0.0, TINY, -TINY, 2.5e-310, MAX, -MAX, 1.0 / 3.0]


@given(
    a=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
        elements=st.sampled_from(EDGE_VALUES)
        | st.floats(allow_nan=False, allow_infinity=False),
    )
)
@example(a=np.array(EDGE_VALUES))
@example(a=np.array(EDGE_VALUES).reshape(2, 4))
@example(a=np.zeros((0, 3)))
@example(a=np.zeros((4, 0)))
@settings(max_examples=200)
def test_array_codec_roundtrip_is_bit_identical(a):
    """decode(encode(a)) has a's shape and bytes, through JSON text too,
    and encoding the same values twice, or the decoded array, gives the
    same object."""
    payload = encode_array(a)
    decoded = decode_array(json.loads(json.dumps(payload)), a.ndim)
    assert decoded.dtype == np.float64 and decoded.shape == a.shape
    assert decoded.tobytes() == a.tobytes()
    assert encode_array(a.copy()) == payload == encode_array(decoded)
    assert payload["float64le"] == base64.b64encode(
        struct.pack(f"<{a.size}d", *a.ravel())
    ).decode("ascii")


def _payload(values=(1.0, 2.0), shape=None):
    data = struct.pack(f"<{len(values)}d", *values)
    return {
        "float64le": base64.b64encode(data).decode("ascii"),
        "shape": [len(values)] if shape is None else shape,
    }


CODEC_REJECTIONS = {
    "not-an-object": ([1.0, 2.0], 1),
    # 8 zero bytes once the "!" is skipped, as a non-validating decoder would
    "base64-bad-character": ({"float64le": "AAAA!AAAAAAA=", "shape": [1]}, 1),
    "base64-bad-padding": ({"float64le": "AAA", "shape": [0]}, 1),
    "base64-not-ascii": ({"float64le": "\u00e9", "shape": [0]}, 1),
    "data-not-a-string": ({"float64le": None, "shape": [0]}, 1),
    "bytes-short": (_payload(shape=[3]), 1),
    "bytes-long": (_payload(shape=[1]), 1),
    "shape-negative": (_payload(shape=[-2]), 1),
    "shape-not-integer": (_payload(shape=[2.0]), 1),
    "shape-bool": (_payload(values=(1.0,), shape=[True]), 1),
    "shape-not-a-list": (_payload(shape=2), 1),
    "shape-missing": ({"float64le": ""}, 1),
    "rank-too-low": (_payload(), 2),
    "rank-too-high": (_payload(shape=[1, 2]), 1),
    "zero-size-too-large": (_payload(values=(), shape=[0, 2**70]), 2),
    "nan": (_payload(values=(1.0, float("nan"))), 1),
    "inf": (_payload(values=(float("inf"), 1.0)), 1),
    "minus-inf": (_payload(values=(1.0, float("-inf"))), 1),
}


@pytest.mark.parametrize("case", list(CODEC_REJECTIONS))
def test_array_decoder_rejects_malformed_payload(case):
    payload, ndim = CODEC_REJECTIONS[case]
    with pytest.raises(SpecInvalidError):
        decode_array(payload, ndim)
