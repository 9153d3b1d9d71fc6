"""Multichannel geometric operators: invariance of the relation
extractor, equivariance of the message scaler, pooling length law and
zero padding, and masked centroids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemenet.errors import ShapeError
from hemenet.geom import (
    MAX_CHANNELS,
    masked_centroid,
    message_scale,
    normalized_flat_relation,
    padded_pooling,
    pooling_matrix,
    relation_extract,
)
from hemenet.numcore import ParamStore, Tensor, grad_check, tsum


def random_orthogonal(rng, reflect=False):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if reflect != (np.linalg.det(q) < 0):
        q[:, 0] = -q[:, 0]
    return q


def random_pair(rng, c_i, c_j, d_a):
    """Coordinates and attribute rows of two nodes; about 30% of the
    channels past the first have their attribute row zeroed, as the
    encoder zeroes the rows of padded channels."""
    X_i = rng.normal(size=(3, c_i))
    X_j = rng.normal(size=(3, c_j)) + 2.0
    A_i = rng.normal(size=(c_i, d_a))
    A_j = rng.normal(size=(c_j, d_a))
    A_i[1:][rng.random(c_i - 1) >= 0.7] = 0.0
    A_j[1:][rng.random(c_j - 1) >= 0.7] = 0.0
    return X_i, X_j, A_i, A_j


# -- pooling matrix ----------------------------------------------------------


def test_pooling_length_law_all_channel_counts():
    for c in range(1, MAX_CHANNELS + 1):
        P = pooling_matrix(c)
        assert P.shape == (MAX_CHANNELS, c)
        # every output is an average of window values: columns sum to one
        np.testing.assert_allclose(P.sum(axis=0), np.ones(c), atol=1e-15)
        window = MAX_CHANNELS - c + 1
        assert np.count_nonzero(P[:, 0]) == window
    np.testing.assert_array_equal(pooling_matrix(MAX_CHANNELS), np.eye(MAX_CHANNELS))
    np.testing.assert_allclose(pooling_matrix(1), np.full((MAX_CHANNELS, 1), 1.0 / MAX_CHANNELS))


def test_pooling_matrix_rejects_out_of_range():
    for c in (0, -1, MAX_CHANNELS + 1):
        with pytest.raises(ShapeError):
            pooling_matrix(c)


def test_pooling_matrix_is_read_only():
    P = pooling_matrix(5)
    with pytest.raises(ValueError):
        P[0, 0] = 2.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_padded_pooling_layout(dtype):
    P = padded_pooling(np.arange(MAX_CHANNELS + 1), dtype)
    assert P.shape == (MAX_CHANNELS + 1, MAX_CHANNELS, MAX_CHANNELS) and P.dtype == dtype
    assert not P[0].any()  # a receiver without channels pools nothing
    for c in range(1, MAX_CHANNELS + 1):
        assert P[c, :, :c].tobytes() == pooling_matrix(c).astype(dtype).tobytes()
        assert not P[c, :, c:].any()
    np.testing.assert_array_equal(padded_pooling(3, dtype), P[3])


# -- relation extractor ------------------------------------------------------


def test_relation_extract_hand_oracle():
    # one channel each, 3-4-5 triangle: distance 5, unit attribute rows
    X_i = np.zeros((3, 1))
    X_j = np.array([[3.0], [4.0], [0.0]])
    A = np.array([[1.0, 0.0, 0.0]])
    R = relation_extract(X_i, X_j, A, A)
    expect = np.zeros((3, 3))
    expect[0, 0] = 5.0
    np.testing.assert_allclose(R.data, expect, atol=1e-12)


def test_relation_extract_masked_channels_do_not_contribute():
    # a channel whose attribute row is zero leaves R unchanged, whatever
    # its coordinates: the encoder's padded channels
    rng = np.random.default_rng(3)
    X_i, X_j, A_i, A_j = random_pair(rng, 6, 4, 5)
    A_i[3] = 0.0
    A_j[2] = 0.0
    R0 = relation_extract(X_i, X_j, A_i, A_j).data
    for col in (0.0, 1e6, -3.5):
        X_mut, Y_mut = X_i.copy(), X_j.copy()
        X_mut[:, 3] = col
        Y_mut[:, 2] = -col
        R1 = relation_extract(X_mut, Y_mut, A_i, A_j).data
        np.testing.assert_array_equal(R0, R1)


@settings(max_examples=30, deadline=None)
@given(
    c_i=st.integers(1, MAX_CHANNELS),
    c_j=st.integers(1, MAX_CHANNELS),
    seed=st.integers(0, 10_000),
    reflect=st.booleans(),
)
def test_relation_extract_rigid_motion_invariance(c_i, c_j, seed, reflect):
    rng = np.random.default_rng(seed)
    X_i, X_j, A_i, A_j = random_pair(rng, c_i, c_j, 4)
    q = random_orthogonal(rng, reflect)
    t = rng.normal(scale=10.0, size=3)
    R0 = relation_extract(X_i, X_j, A_i, A_j).data
    R1 = relation_extract(q @ X_i + t[:, None], q @ X_j + t[:, None], A_i, A_j).data
    assert np.max(np.abs(R1 - R0)) <= 1e-10


def test_relation_extract_batched_matches_loop():
    rng = np.random.default_rng(9)
    B, c, d_a = 4, 3, 2
    X_i = rng.normal(size=(B, 3, c))
    X_j = rng.normal(size=(B, 3, c))
    A = rng.normal(size=(B, c, d_a))
    batched = relation_extract(X_i, X_j, A, A).data
    assert batched.shape == (B, d_a, d_a)
    for b in range(B):
        single = relation_extract(X_i[b], X_j[b], A[b], A[b]).data
        np.testing.assert_allclose(batched[b], single, atol=1e-12)


def test_relation_extract_shape_errors():
    ok_X = np.zeros((3, 2))
    ok_A = np.zeros((2, 4))
    with pytest.raises(ShapeError):
        relation_extract(np.zeros((3, 0)), ok_X, np.zeros((0, 4)), ok_A)
    with pytest.raises(ShapeError):
        relation_extract(np.zeros((2, 2)), ok_X, ok_A, ok_A)
    with pytest.raises(ShapeError):
        relation_extract(ok_X, ok_X, np.zeros((3, 4)), ok_A)


def test_normalized_flat_relation_degenerate_pair_is_zero_and_finite():
    # a single-channel node against itself has an all-zero relation
    # matrix; the eps guard must keep the normalized form finite
    X = np.array([[1.0], [0.5], [-1.0]])
    A = np.array([[1.0, 2.0]])
    out = normalized_flat_relation(X, X, A, A).data
    assert out.shape == (4,)
    assert np.all(np.isfinite(out))
    np.testing.assert_array_equal(out, np.zeros(4))


def test_normalized_flat_relation_is_bounded():
    rng = np.random.default_rng(11)
    X_i, X_j, A_i, A_j = random_pair(rng, 5, 7, 3)
    out = normalized_flat_relation(X_i, X_j, A_i, A_j).data
    assert out.shape == (9,)
    assert np.linalg.norm(out) < 1.0


# -- message scaler ----------------------------------------------------------


def padded(X):
    """Zero-pad (3, c) coordinates to the scaler's (3, C) layout."""
    out = np.zeros((3, MAX_CHANNELS))
    out[:, :X.shape[1]] = X
    return out


@settings(max_examples=30, deadline=None)
@given(c=st.integers(1, MAX_CHANNELS), seed=st.integers(0, 10_000), reflect=st.booleans())
def test_message_scale_orthogonal_equivariance(c, seed, reflect):
    rng = np.random.default_rng(seed)
    X = padded(rng.normal(size=(3, c)))
    s = rng.normal(size=(MAX_CHANNELS,))
    q = random_orthogonal(rng, reflect)
    P = padded_pooling(c)
    Y0 = message_scale(X, s, P).data
    Y1 = message_scale(q @ X, s, P).data
    assert Y0.shape == (3, MAX_CHANNELS)
    assert np.max(np.abs(Y1 - q @ Y0)) <= 1e-12


def test_message_scale_pooling_oracle():
    # c = C: pooling is the identity, so channel k scales by s[k]
    rng = np.random.default_rng(2)
    X = rng.normal(size=(3, MAX_CHANNELS))
    s = rng.normal(size=(MAX_CHANNELS,))
    np.testing.assert_allclose(message_scale(X, s, padded_pooling(MAX_CHANNELS)).data,
                               X * s[None, :], atol=1e-14)
    # c = 1: the single channel scales by the mean of s
    X1 = padded(rng.normal(size=(3, 1)))
    np.testing.assert_allclose(message_scale(X1, s, padded_pooling(1)).data,
                               X1 * s.mean(), atol=1e-14)


def test_message_scale_zeroes_channels_past_the_count():
    # nonzero padding columns still come out exactly 0: the pooling
    # matrix, not the coordinates, decides which channels carry output
    rng = np.random.default_rng(4)
    X = rng.normal(size=(3, MAX_CHANNELS))
    s = rng.normal(size=(MAX_CHANNELS,))
    for c in range(1, MAX_CHANNELS + 1):
        Y = message_scale(X, s, padded_pooling(c)).data
        assert not Y[:, c:].any(), c
        assert Y[:, :c].all(), c


def test_message_scale_batched_matches_loop():
    rng = np.random.default_rng(8)
    counts = np.array([1, 5, 14, 9])
    X = rng.normal(size=(4, 3, MAX_CHANNELS))
    s = rng.normal(size=(4, MAX_CHANNELS))
    batched = message_scale(X, s, padded_pooling(counts)).data
    for b, c in enumerate(counts):
        single = message_scale(X[b], s[b], padded_pooling(c)).data
        assert batched[b].tobytes() == single.tobytes()


def test_message_scale_translation_not_preserved():
    # scaling is applied about the origin; translations do not commute
    X = padded(np.ones((3, 2)))
    s = np.full(MAX_CHANNELS, 2.0)
    t = np.array([5.0, 0.0, 0.0])
    P = padded_pooling(2)
    shifted = message_scale(X + t[:, None], s, P).data
    assert np.max(np.abs(shifted - (message_scale(X, s, P).data + t[:, None]))) > 1.0


def test_message_scale_shape_errors():
    P = padded_pooling(3)
    with pytest.raises(ShapeError):  # unpadded coordinates
        message_scale(np.zeros((3, 3)), np.zeros(MAX_CHANNELS), P)
    with pytest.raises(ShapeError):
        message_scale(np.zeros((3, 15)), np.zeros(MAX_CHANNELS), P)
    with pytest.raises(ShapeError):
        message_scale(np.zeros((2, MAX_CHANNELS)), np.zeros(MAX_CHANNELS), P)
    with pytest.raises(ShapeError):
        message_scale(np.zeros((3, MAX_CHANNELS)), np.zeros(13), P)
    with pytest.raises(ShapeError):
        message_scale(np.zeros((3, MAX_CHANNELS)), np.zeros(MAX_CHANNELS), pooling_matrix(3))
    with pytest.raises(ShapeError):
        message_scale(np.zeros((3, MAX_CHANNELS)), np.zeros(MAX_CHANNELS), P[:, :13])


# -- masked centroid ---------------------------------------------------------


def test_masked_centroid_hand_values():
    # the padded third column is +0.0, as the encoder keeps it: only the
    # count reads the mask
    X = np.array([[0.0, 2.0, 0.0],
                  [0.0, 4.0, 0.0],
                  [0.0, 6.0, 0.0]])
    w = np.array([1.0, 1.0, 0.0])
    np.testing.assert_allclose(masked_centroid(X, w).data, [1.0, 2.0, 3.0], atol=1e-15)


def test_masked_centroid_errors():
    with pytest.raises(ShapeError):
        masked_centroid(np.zeros((3, 2)), np.zeros(2))  # nothing occupied
    with pytest.raises(ShapeError):
        masked_centroid(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(ShapeError):
        masked_centroid(np.zeros((3, 2)), np.ones(3))


# -- gradients ---------------------------------------------------------------


def test_relation_extract_gradients():
    rng = np.random.default_rng(5)
    store = ParamStore(dtype=np.float64)
    store.add("Xi", rng.normal(size=(3, 3)))
    store.add("Xj", rng.normal(size=(3, 2)) + 1.5)
    store.add("Ai", rng.normal(size=(3, 4)))
    store.add("Aj", rng.normal(size=(2, 4)))
    probe = Tensor(rng.normal(size=(4, 4)))

    def fn():
        R = relation_extract(store["Xi"], store["Xj"], store["Ai"], store["Aj"])
        return tsum(R * probe)

    report = grad_check(fn, store, eps=1e-5, tol=1e-5)
    assert report.ok, report.flagged


def test_message_scale_gradients():
    rng = np.random.default_rng(6)
    store = ParamStore(dtype=np.float64)
    store.add("X", padded(rng.normal(size=(3, 5))))
    store.add("s", rng.normal(size=(MAX_CHANNELS,)))
    probe = Tensor(rng.normal(size=(3, MAX_CHANNELS)))

    def fn():
        return tsum(message_scale(store["X"], store["s"], padded_pooling(5)) * probe)

    report = grad_check(fn, store, eps=1e-5, tol=1e-5)
    assert report.ok, report.flagged


def test_masked_centroid_gradients():
    rng = np.random.default_rng(7)
    store = ParamStore(dtype=np.float64)
    store.add("X", rng.normal(size=(3, 4)))
    w = np.array([1.0, 0.0, 1.0, 1.0])
    probe = Tensor(rng.normal(size=(3,)))

    def fn():
        return tsum(masked_centroid(store["X"], w) * probe)

    report = grad_check(fn, store, eps=1e-5, tol=1e-5)
    assert report.ok, report.flagged
