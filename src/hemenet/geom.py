"""Adaptive multichannel geometric operators.

Two primitives for nodes whose coordinate sets have varying channel
counts: the relation extractor, which turns a pair of coordinate sets
into a fixed-size E(3)-invariant matrix, and the message scaler, which
rescales coordinate channels with a pooled length-C signal and commutes
with orthogonal maps.  Both are differentiable through numcore and are
batch-capable: any number of leading dimensions is allowed as long as
the trailing shapes match the contracts below.  The channel pooling
layout (``pooling_matrix``, zero-padded by ``padded_pooling``) is
defined here and nowhere else.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ShapeError
from .numcore import Tensor, frobenius_norm, matmul, mul, pairwise_distance, reshape, transpose, tsum

MAX_CHANNELS = 14  # heavy-atom channel count of the largest standard residue


@lru_cache(maxsize=None)
def pooling_matrix(c: int, C: int = MAX_CHANNELS) -> np.ndarray:
    """(C, c) matrix P with s' = s @ P: sliding average of window C-c+1,
    stride 1, output length exactly c."""
    if not 1 <= c <= C:
        raise ShapeError(f"channel count must be in [1, {C}], got {c}")
    window = C - c + 1
    P = np.zeros((C, c))
    for k in range(c):
        P[k:k + window, k] = 1.0 / window
    P.flags.writeable = False
    return P


def padded_pooling(counts, dtype=np.float64) -> np.ndarray:
    """(..., C, C) zero-padded pooling matrix per channel count in
    ``counts``: columns :c hold ``pooling_matrix(c)``, the rest are 0,
    and a count of 0 pools nothing."""
    table = np.zeros((MAX_CHANNELS + 1, MAX_CHANNELS, MAX_CHANNELS), dtype=dtype)
    for c in range(1, MAX_CHANNELS + 1):
        table[c, :, :c] = pooling_matrix(c)
    return table[np.asarray(counts)]


def _lift(x, name: str) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def relation_extract(X_i, X_j, w_i, w_j, A_i, A_j) -> Tensor:
    """Pairwise-distance relation matrix: A_i^T (w_i w_j^T * D_ij) A_j.

    X_i: (..., 3, c_i), X_j: (..., 3, c_j); w_*: (..., c_*) binary
    channel masks (constants); A_*: (..., c_*, d_A) attribute rows.
    Output (..., d_A, d_A), invariant to any shared rigid motion or
    reflection of the two coordinate sets.
    """
    X_i, X_j, A_i, A_j = (_lift(v, n) for v, n in
                          ((X_i, "X_i"), (X_j, "X_j"), (A_i, "A_i"), (A_j, "A_j")))
    c_i, c_j = X_i.shape[-1], X_j.shape[-1]
    if c_i == 0 or c_j == 0:
        raise ShapeError("relation_extract: zero channels")
    if X_i.shape[-2] != 3 or X_j.shape[-2] != 3:
        raise ShapeError("relation_extract: coordinates must be (..., 3, c)")
    if A_i.shape[-2] != c_i or A_j.shape[-2] != c_j:
        raise ShapeError("relation_extract: attribute rows do not match channels")
    w_i = np.asarray(w_i, dtype=X_i.dtype)
    w_j = np.asarray(w_j, dtype=X_j.dtype)
    if w_i.shape[-1] != c_i or w_j.shape[-1] != c_j:
        raise ShapeError("relation_extract: masks do not match channels")

    D = pairwise_distance(X_i, X_j)
    W = Tensor(w_i[..., :, None] * w_j[..., None, :], dtype=D.dtype)
    axes = tuple(range(A_i.ndim - 2)) + (A_i.ndim - 2 + 1, A_i.ndim - 2)
    return matmul(matmul(transpose(A_i, axes), mul(W, D)), A_j)


def normalized_flat_relation(X_i, X_j, w_i, w_j, A_i, A_j, eps: float = 1e-8) -> Tensor:
    """Flattened relation matrix divided by its Frobenius norm plus eps.

    The guard keeps self-pairs (all distances zero) finite and exactly
    zero-valued.  Output (..., d_A*d_A).
    """
    R = relation_extract(X_i, X_j, w_i, w_j, A_i, A_j)
    d_A = R.shape[-1]
    norm = frobenius_norm(R, axes=(-2, -1), keepdims=True)
    scaled = R / (norm + eps)
    return reshape(scaled, R.shape[:-2] + (d_A * d_A,))


def message_scale(X, s, P) -> Tensor:
    """Scale channels by the pooled signal: X' = X diag(s P).

    X: (..., 3, C) zero-padded coordinates; s: (..., C) signal; P:
    (..., C, C) constant pooling matrices, ``padded_pooling(c)`` for a
    receiver of c channels, so that s P holds the c sliding averages of
    s (window C-c+1, stride 1) followed by zeros and channels c.. of the
    output are exactly 0.
    """
    X, s = _lift(X, "X"), _lift(s, "s")
    P = Tensor(P)
    C = MAX_CHANNELS
    if X.shape[-2:] != (3, C):
        raise ShapeError(f"message_scale: coordinates must be (..., 3, {C}), got {X.shape}")
    if s.shape[-1] != C:
        raise ShapeError(f"message_scale: signal length must be {C}, got {s.shape[-1]}")
    if P.shape[-2:] != (C, C):
        raise ShapeError(f"message_scale: pooling matrices must be (..., {C}, {C}), got {P.shape}")
    pooled = matmul(reshape(s, s.shape[:-1] + (1, C)), P)  # (..., 1, C)
    return mul(X, pooled)


def masked_centroid(X, w) -> Tensor:
    """Mean of the occupied coordinate columns.

    X: (..., 3, c); w: (..., c) binary mask with at least one occupied
    channel per item.  Output (..., 3).
    """
    X = _lift(X, "X")
    w = np.asarray(w, dtype=X.dtype)
    if X.shape[-2] != 3:
        raise ShapeError("masked_centroid: coordinates must be (..., 3, c)")
    if w.shape[-1] != X.shape[-1]:
        raise ShapeError("masked_centroid: mask does not match channels")
    counts = w.sum(axis=-1)
    if np.any(counts == 0):
        raise ShapeError("masked_centroid: all channels masked out")
    weighted = mul(X, Tensor(w[..., None, :], dtype=X.dtype))
    total = tsum(weighted, axis=-1)
    return mul(total, Tensor(1.0 / counts[..., None], dtype=X.dtype))
