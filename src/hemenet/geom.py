"""Adaptive multichannel geometric operators.

For nodes whose coordinate sets have varying channel counts, zero-padded
to C = 14: the channel pooling layout (``pooling_matrix``, zero-padded
into one table row per channel count by ``pooling_table``), defined here
and nowhere else, and the sender centroid (``masked_centroid``).  The
encoder's two per-edge steps are fused numcore ops, each bitwise the
chain of ops it replaces and keeping on the training tape only its
inputs, its output and at most a per-edge scalar:

- ``normalized_flat_relation``, which the encoder calls through this
  module: ``A_i^T D_ij A_j`` per edge from the two ends' coordinates and
  the node attribute rows, over its Frobenius norm plus eps.  It is
  E(3)-invariant: a shared rigid motion or reflection of both ends
  moves no distance.
- ``numcore.coordinate_message``: each receiver's channels around the
  sender centroid, scaled by the pooled signal ``s @ pooling_table()[c]``
  for a receiver of c channels and by the relation weight, summed per
  receiver.  It commutes with orthogonal maps and ignores translations
  of coordinates and centroid together.

Zero padding is the channel mask: padded channels carry zero
attribute rows, which keep them out of the relation matrix,
the table's zero columns zero the coordinate message there, and
their +0.0 coordinates add nothing to the centroid's sum.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ShapeError
from .numcore import Tensor, mul, tsum
from .numcore import normalized_flat_relation  # noqa: F401  (the encoder's entry)
from .structio import MAX_CHANNELS


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


def pooling_table(dtype=np.float64) -> np.ndarray:
    """(C + 1, C, C) read-only table, one per dtype and shared by every
    graph: row c holds ``pooling_matrix(c)`` in its first c columns and
    0 elsewhere, and row 0 pools nothing.  Each edge reads the row of
    its receiver's channel count."""
    return _pooling_table(np.dtype(dtype))


@lru_cache(maxsize=None)
def _pooling_table(dtype: np.dtype) -> np.ndarray:
    table = np.zeros((MAX_CHANNELS + 1, MAX_CHANNELS, MAX_CHANNELS), dtype=dtype)
    for c in range(1, MAX_CHANNELS + 1):
        table[c, :, :c] = pooling_matrix(c)
    table.flags.writeable = False
    return table


def _lift(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def masked_centroid(X, w) -> Tensor:
    """Mean of the occupied coordinate columns.

    X: (..., 3, c) zero-padded coordinates, every unoccupied column
    +0.0 as the encoder keeps them; w: (..., c) binary mask with at
    least one occupied channel per item.  Output (..., 3).  The padded
    columns add +0.0 to the sum, so only the count reads the mask.
    """
    X = _lift(X)
    w = np.asarray(w, dtype=X.dtype)
    if X.shape[-2] != 3:
        raise ShapeError("masked_centroid: coordinates must be (..., 3, c)")
    if w.shape[-1] != X.shape[-1]:
        raise ShapeError("masked_centroid: mask does not match channels")
    counts = w.sum(axis=-1)
    if np.any(counts == 0):
        raise ShapeError("masked_centroid: all channels masked out")
    return mul(tsum(X, axis=-1), Tensor(1.0 / counts[..., None], dtype=X.dtype))
