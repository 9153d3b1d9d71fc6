"""Multichannel geometric operators: invariance of the fused relation
op, equivariance of the fused coordinate message, pooling length law
and zero padding, and masked centroids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemenet.errors import ShapeError
from hemenet.geom import (
    MAX_CHANNELS,
    masked_centroid,
    normalized_flat_relation,
    pooling_matrix,
    pooling_table,
)
from hemenet.numcore import ParamStore, Tensor, coordinate_message, grad_check, tsum

EPS = 1e-8


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


def relation(X_i, X_j, A_i, A_j, eps=EPS):
    """The fused relation of one edge from node j (channels X_j, rows
    A_j) to node i, both zero-padded to the larger channel count as the
    encoder pads them: +0.0 coordinates and zero attribute rows."""
    c = max(X_i.shape[-1], X_j.shape[-1])
    X = np.zeros((2, 3, c))
    A = np.zeros((2, c, A_i.shape[-1]))
    for k, (X_k, A_k) in enumerate(((X_i, A_i), (X_j, A_j))):
        X[k, :, :X_k.shape[-1]] = X_k
        A[k, :A_k.shape[0]] = A_k
    return normalized_flat_relation(Tensor(X[:1]), Tensor(X[1:]), Tensor(A),
                                    [0], [1], eps).data[0]


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
def test_pooling_table_layout(dtype):
    P = pooling_table(dtype)
    assert P.shape == (MAX_CHANNELS + 1, MAX_CHANNELS, MAX_CHANNELS) and P.dtype == dtype
    assert not P[0].any()  # a receiver without channels pools nothing
    for c in range(1, MAX_CHANNELS + 1):
        assert P[c, :, :c].tobytes() == pooling_matrix(c).astype(dtype).tobytes()
        assert not P[c, :, c:].any()


def test_pooling_table_is_one_read_only_array_per_dtype():
    P = pooling_table(np.float32)
    assert pooling_table(np.dtype("float32")) is P and pooling_table("float32") is P
    assert pooling_table() is pooling_table(np.float64) is not P
    with pytest.raises(ValueError):
        P[1, 0, 0] = 2.0


# -- relation --------------------------------------------------------------


def test_relation_extract_hand_oracle():
    # one channel each, 3-4-5 triangle: distance 5, unit attribute rows,
    # so R holds 5 at (0, 0) and the output 5 / (5 + eps) there
    X_i = np.zeros((3, 1))
    X_j = np.array([[3.0], [4.0], [0.0]])
    A = np.array([[1.0, 0.0, 0.0]])
    expect = np.zeros(9)
    expect[0] = 5.0 / (5.0 + EPS)
    np.testing.assert_allclose(relation(X_i, X_j, A, A), expect, atol=1e-12)
    # two channels each: R = A_i^T D A_j by hand
    X_i = np.array([[0.0, 3.0], [0.0, 0.0], [0.0, 0.0]])
    X_j = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 0.0]])  # D = [[4, 0], [5, 3]]
    A_i = np.array([[1.0, 0.0], [0.0, 2.0]])
    A_j = np.array([[1.0, 1.0], [0.0, 1.0]])
    R = A_i.T @ np.array([[4.0, 0.0], [5.0, 3.0]]) @ A_j  # [[4, 4], [10, 16]]
    np.testing.assert_allclose(relation(X_i, X_j, A_i, A_j),
                               (R / (np.sqrt(388.0) + EPS)).reshape(-1), atol=1e-12)


def test_relation_extract_masked_channels_do_not_contribute():
    # a channel whose attribute row is zero leaves the relation unchanged,
    # whatever its coordinates: the encoder's padded channels
    rng = np.random.default_rng(3)
    X_i, X_j, A_i, A_j = random_pair(rng, 6, 4, 5)
    A_i[3] = 0.0
    A_j[2] = 0.0
    R0 = relation(X_i, X_j, A_i, A_j)
    for col in (0.0, 1e6, -3.5):
        X_mut, Y_mut = X_i.copy(), X_j.copy()
        X_mut[:, 3] = col
        Y_mut[:, 2] = -col
        R1 = relation(X_mut, Y_mut, A_i, A_j)
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
    R0 = relation(X_i, X_j, A_i, A_j)
    R1 = relation(q @ X_i + t[:, None], q @ X_j + t[:, None], A_i, A_j)
    assert np.max(np.abs(R1 - R0)) <= 1e-10


def test_relation_extract_batched_matches_loop():
    # every edge of a batch, node pairs repeated and a self-pair among
    # them, gives the bytes of its own one-edge call
    rng = np.random.default_rng(9)
    n, c, d_a = 4, 3, 2
    X = rng.normal(size=(n, 3, c))
    A = Tensor(rng.normal(size=(n, c, d_a)))
    dst, src = np.array([0, 1, 1, 3, 2]), np.array([1, 0, 2, 3, 0])
    batched = normalized_flat_relation(Tensor(X[dst]), Tensor(X[src]), A, dst, src, EPS).data
    assert batched.shape == (len(dst), d_a * d_a)
    for e in range(len(dst)):
        single = normalized_flat_relation(Tensor(X[dst[e:e + 1]]), Tensor(X[src[e:e + 1]]), A,
                                          dst[e:e + 1], src[e:e + 1], EPS).data
        assert single[0].tobytes() == batched[e].tobytes()


def test_relation_extract_shape_errors():
    ok_X, ok_A, edge = Tensor(np.zeros((1, 3, 2))), Tensor(np.zeros((2, 2, 4))), [0]
    with pytest.raises(ShapeError, match="zero channels"):
        normalized_flat_relation(Tensor(np.zeros((1, 3, 0))), Tensor(np.zeros((1, 3, 0))),
                                 Tensor(np.zeros((2, 0, 4))), edge, edge, EPS)
    with pytest.raises(ShapeError):  # two coordinate axes
        normalized_flat_relation(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 2, 2))),
                                 ok_A, edge, edge, EPS)
    with pytest.raises(ShapeError):  # ends differ in channel count
        normalized_flat_relation(ok_X, Tensor(np.zeros((1, 3, 3))), ok_A, edge, edge, EPS)
    with pytest.raises(ShapeError, match="attribute rows"):
        normalized_flat_relation(ok_X, ok_X, Tensor(np.zeros((2, 3, 4))), edge, edge, EPS)
    with pytest.raises(ShapeError, match="index"):
        normalized_flat_relation(ok_X, ok_X, ok_A, [2], edge, EPS)
    with pytest.raises(ShapeError, match="index"):
        normalized_flat_relation(ok_X, ok_X, ok_A, edge, [0, 1], EPS)


def test_normalized_flat_relation_degenerate_pair_is_zero_and_finite():
    # a single-channel node against itself has an all-zero relation
    # matrix; the eps guard must keep the normalized form finite
    X = np.array([[1.0], [0.5], [-1.0]])
    A = np.array([[1.0, 2.0]])
    out = relation(X, X, A, A)
    assert out.shape == (4,)
    assert np.all(np.isfinite(out))
    np.testing.assert_array_equal(out, np.zeros(4))


def test_normalized_flat_relation_is_bounded():
    rng = np.random.default_rng(11)
    X_i, X_j, A_i, A_j = random_pair(rng, 5, 7, 3)
    out = relation(X_i, X_j, A_i, A_j)
    assert out.shape == (9,)
    assert np.linalg.norm(out) < 1.0


# -- coordinate message ------------------------------------------------------


def padded(X):
    """Zero-pad (3, c) coordinates to the message's (3, C) layout."""
    out = np.zeros((3, MAX_CHANNELS))
    out[:, :X.shape[1]] = X
    return out


def message(X, centroid, s, c, w=1.0):
    """The fused coordinate message of one edge into a lone receiver of
    ``c`` channels with coordinates ``X`` (3, C), its sender's
    ``centroid`` (3,), signal ``s`` (C,) and relation weight ``w``, the
    receiver's pooling read from the table as the encoder reads it:
    (3, C)."""
    edge = np.array([0])
    return coordinate_message(Tensor(X[None]), Tensor(np.reshape(centroid, (1, 3))),
                              Tensor(s[None]), pooling_table(), [c], Tensor(np.array([w])),
                              edge, edge, 1).data[0]


@settings(max_examples=30, deadline=None)
@given(c=st.integers(1, MAX_CHANNELS), seed=st.integers(0, 10_000), reflect=st.booleans())
def test_message_scale_orthogonal_equivariance(c, seed, reflect):
    rng = np.random.default_rng(seed)
    X = padded(rng.normal(size=(3, c)))
    centroid = rng.normal(size=3)
    s = rng.normal(size=(MAX_CHANNELS,))
    q = random_orthogonal(rng, reflect)
    Y0 = message(X, centroid, s, c)
    Y1 = message(q @ X, q @ centroid, s, c)
    assert Y0.shape == (3, MAX_CHANNELS)
    assert np.max(np.abs(Y1 - q @ Y0)) <= 1e-12


def test_message_scale_pooling_oracle():
    # c = C: pooling is the identity, so channel k scales by s[k]
    rng = np.random.default_rng(2)
    X = rng.normal(size=(3, MAX_CHANNELS))
    centroid = rng.normal(size=3)
    s = rng.normal(size=(MAX_CHANNELS,))
    np.testing.assert_allclose(message(X, centroid, s, MAX_CHANNELS, 0.5),
                               0.5 * (X - centroid[:, None]) * s[None, :], atol=1e-14)
    # c = 1: the single channel scales by the mean of s
    X1 = padded(rng.normal(size=(3, 1)))
    np.testing.assert_allclose(message(X1, np.zeros(3), s, 1),
                               X1 * s.mean(), atol=1e-14)


def test_message_scale_zeroes_channels_past_the_count():
    # nonzero padding columns still come out exactly 0: the table row,
    # not the coordinates, decides which channels carry output
    rng = np.random.default_rng(4)
    X = rng.normal(size=(3, MAX_CHANNELS))
    centroid = rng.normal(size=3)
    s = rng.normal(size=(MAX_CHANNELS,))
    for c in range(1, MAX_CHANNELS + 1):
        Y = message(X, centroid, s, c)
        assert not Y[:, c:].any(), c
        assert Y[:, :c].all(), c


def test_message_scale_batched_matches_loop():
    # edges into the same receiver add one by one from +0.0, in edge
    # order, each the bytes of its own one-edge message
    rng = np.random.default_rng(8)
    counts = np.array([1, 5, 14, 9])
    X = rng.normal(size=(4, 3, MAX_CHANNELS))
    centroid = rng.normal(size=(4, 3))
    s = rng.normal(size=(4, MAX_CHANNELS))
    w, kind = np.array([0.5, -2.0]), np.array([0, 1, 1, 0])
    dst = np.array([0, 1, 0, 2])
    batched = coordinate_message(Tensor(X), Tensor(centroid), Tensor(s), pooling_table(), counts,
                                 Tensor(w), kind, dst, 3).data
    want = np.zeros((3, 3, MAX_CHANNELS))
    for e, c in enumerate(counts):
        want[dst[e]] += message(X[e], centroid[e], s[e], c, w[kind[e]])
    assert batched.tobytes() == want.tobytes()


def test_message_scale_translation_not_preserved():
    # the message is taken about the sender centroid: moving both by t
    # changes nothing (to rounding), moving the receiver alone does
    X = padded(np.ones((3, 2)))
    centroid = np.array([0.5, -1.0, 2.0])
    s = np.full(MAX_CHANNELS, 2.0)
    t = np.array([5.0, 0.0, 0.0])
    base = message(X, centroid, s, 2)
    assert np.max(np.abs(message(X + t[:, None], centroid + t, s, 2) - base)) <= 1e-12
    assert np.max(np.abs(message(X + t[:, None], centroid, s, 2) - base)) > 1.0


def test_message_scale_shape_errors():
    E, C = 2, MAX_CHANNELS
    X, cen, s = Tensor(np.zeros((E, 3, C))), Tensor(np.zeros((E, 3))), Tensor(np.zeros((E, C)))
    P, recv, w, kind, dst = pooling_table(), [3, 3], Tensor(np.ones(1)), [0, 0], [0, 1]
    with pytest.raises(ShapeError):  # two coordinate axes
        coordinate_message(Tensor(np.zeros((E, 2, C))), cen, s, P, recv, w, kind, dst, 2)
    with pytest.raises(ShapeError):  # unpadded coordinates
        coordinate_message(Tensor(np.zeros((E, 3, 3))), cen, s, P, recv, w, kind, dst, 2)
    with pytest.raises(ShapeError):
        coordinate_message(X, Tensor(np.zeros((E, 2))), s, P, recv, w, kind, dst, 2)
    with pytest.raises(ShapeError):
        coordinate_message(X, cen, Tensor(np.zeros((E, 13))), P, recv, w, kind, dst, 2)
    with pytest.raises(ShapeError, match="table"):  # per-edge matrices, not the table
        coordinate_message(X, cen, s, P[recv], recv, w, kind, dst, 2)
    with pytest.raises(ShapeError, match="table"):  # a row short
        coordinate_message(X, cen, s, P[1:], recv, w, kind, dst, 2)
    with pytest.raises(ShapeError, match="table"):
        coordinate_message(X, cen, s, P[:, :, :13], recv, w, kind, dst, 2)
    for bad in ([3, C + 1], [-1, 3], [3]):  # a count outside [0, C], or not one per edge
        with pytest.raises(ShapeError, match="index"):
            coordinate_message(X, cen, s, P, bad, w, kind, dst, 2)
    with pytest.raises(ShapeError, match="index"):  # no such kind
        coordinate_message(X, cen, s, P, recv, w, [0, 1], dst, 2)
    with pytest.raises(ShapeError, match="index"):  # no such receiver
        coordinate_message(X, cen, s, P, recv, w, kind, [0, 2], 2)
    with pytest.raises(TypeError):
        coordinate_message(X, cen, s, pooling_table(np.float32), recv, w, kind, dst, 2)
    # both ends of the range are rows of the table: 0 pools nothing
    out = coordinate_message(X + 1.0, cen, s + 1.0, P, [0, C], w, kind, dst, 2).data
    assert not out[0].any() and out[1].all()


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
    # two edges, one a self-pair, over three nodes; the relation of the
    # other is far from a zero norm
    rng = np.random.default_rng(5)
    store = ParamStore(dtype=np.float64)
    store.add("X_dst", rng.normal(size=(2, 3, 3)))
    store.add("X_src", rng.normal(size=(2, 3, 3)) + 1.5)
    store.add("A", rng.normal(size=(3, 3, 4)))
    probe = Tensor(rng.normal(size=(2, 16)))

    def fn():
        R = normalized_flat_relation(store["X_dst"], store["X_src"], store["A"],
                                     [0, 2], [1, 2], EPS)
        return tsum(R * probe)

    report = grad_check(fn, store, eps=1e-5, tol=1e-5)
    assert report.ok, report.flagged


def test_message_scale_gradients():
    rng = np.random.default_rng(6)
    store = ParamStore(dtype=np.float64)
    store.add("X", np.stack([padded(rng.normal(size=(3, 5))) for _ in range(3)]))
    store.add("centroid", rng.normal(size=(3, 3)))
    store.add("s", rng.normal(size=(3, MAX_CHANNELS)))
    store.add("w", rng.normal(size=2))
    probe = Tensor(rng.normal(size=(2, 3, MAX_CHANNELS)))

    def fn():
        moved = coordinate_message(store["X"], store["centroid"], store["s"],
                                   pooling_table(), [5, 5, 5], store["w"], [1, 0, 1], [0, 1, 0], 2)
        return tsum(moved * probe)

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
