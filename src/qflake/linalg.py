"""Dense matrix checks, the JSON codec for float arrays, and PCA via SVD
of the centered data matrix.

The SVD route avoids forming the covariance of wide count matrices; the
explained variances are the squared singular values over (n - 1). Each
component's sign is fixed so its largest-magnitude entry is positive,
making results independent of solver internals.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NonFiniteMatrixError,
    RankTooSmallError,
    SpecInvalidError,
    SvdNotConvergedError,
)


def as_matrix(X) -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatchError(f"expected 2-D matrix, got ndim={X.ndim}")
    if not np.all(np.isfinite(X)):
        raise NonFiniteMatrixError("matrix contains NaN or infinite entries")
    return X


def encode_array(a) -> dict:
    """A float array as JSON: its shape and its bytes as little-endian
    float64 in standard base64 (RFC 4648)."""
    a = np.asarray(a, dtype="<f8")
    return {
        "float64le": base64.b64encode(a.tobytes()).decode("ascii"),
        "shape": list(a.shape),
    }


def decode_array(payload, ndim: int) -> np.ndarray:
    """The finite float64 array of rank ``ndim`` that ``encode_array``
    wrote as ``payload``, bit for bit; anything else raises
    SpecInvalidError."""
    if not isinstance(payload, dict):
        raise SpecInvalidError(f"array must be a JSON object, got {type(payload).__name__}")
    shape, text = payload.get("shape"), payload.get("float64le")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise SpecInvalidError(
            f"array shape must be a list of non-negative integers, got {shape!r}"
        )
    if len(shape) != ndim:
        raise SpecInvalidError(f"array shape {shape} is not of rank {ndim}")
    if not isinstance(text, str):
        raise SpecInvalidError("array float64le must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII string
        raise SpecInvalidError("array float64le is not valid base64") from None
    if len(raw) != 8 * math.prod(shape):
        raise SpecInvalidError(
            f"array of shape {shape} needs {8 * math.prod(shape)} bytes, got {len(raw)}"
        )
    try:
        a = np.frombuffer(raw, dtype="<f8").reshape(shape)
    except ValueError as exc:  # a zero-size shape too large to index
        raise SpecInvalidError(f"array shape {shape}: {exc}") from None
    if not np.isfinite(a).all():
        raise SpecInvalidError("array holds NaN or infinite values")
    return a


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray                # (d,)
    components: np.ndarray          # (k, d), rows are principal axes
    explained_variance: np.ndarray  # (k,), non-increasing

    def __post_init__(self):
        for arr in (self.mean, self.components, self.explained_variance):
            arr.setflags(write=False)

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    @property
    def n_features(self) -> int:
        return self.components.shape[1]


def pca_ceiling(n_rows: int, n_cols: int) -> int:
    """Largest admissible component count for an (n_rows, n_cols) fit."""
    return min(n_rows - 1, n_cols)


def pca_fit(X, k: int) -> PcaModel:
    X = as_matrix(X)
    n, d = X.shape
    if n < 2:
        raise DegenerateInputError(f"PCA needs at least 2 rows, got {n}")
    ceiling = pca_ceiling(n, d)
    if not 1 <= k <= ceiling:
        raise RankTooSmallError(
            f"k={k} outside admissible range [1, {ceiling}] for shape {X.shape}"
        )
    mean = X.mean(axis=0)
    centered = X - mean
    try:
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
    except np.linalg.LinAlgError:
        # LAPACK's SVD can fail to converge on one orientation of a matrix
        # and converge on the other; the right singular vectors of A are
        # the left singular vectors of A.T.
        try:
            u, s, _ = np.linalg.svd(centered.T, full_matrices=False)
        except np.linalg.LinAlgError:
            raise SvdNotConvergedError(
                f"SVD did not converge on the centered {n}x{d} matrix or its transpose"
            ) from None
        vt = u.T
    components = vt[:k].copy()
    # sign convention: largest-|entry| of each axis made positive
    anchor = np.argmax(np.abs(components), axis=1)
    signs = np.sign(components[np.arange(k), anchor])
    signs[signs == 0] = 1.0
    components *= signs[:, None]
    explained = (s[:k] ** 2) / (n - 1)
    return PcaModel(mean=mean, components=components, explained_variance=explained)


def pca_transform(model: PcaModel, X) -> np.ndarray:
    X = as_matrix(X)
    if X.shape[1] != model.n_features:
        raise DimensionMismatchError(
            f"matrix has {X.shape[1]} columns, model expects {model.n_features}"
        )
    return (X - model.mean) @ model.components.T


def pca_inverse_transform(model: PcaModel, Z) -> np.ndarray:
    Z = as_matrix(Z)
    if Z.shape[1] != model.n_components:
        raise DimensionMismatchError(
            f"matrix has {Z.shape[1]} columns, model has {model.n_components} components"
        )
    return Z @ model.components + model.mean
