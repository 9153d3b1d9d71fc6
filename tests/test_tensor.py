"""Tensor arithmetic and reverse-mode gradients.

Fixed oracles first, then property tests: every differentiable op is
checked against central finite differences in float64 on randomized
small shapes.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hemenet.errors import NumericsError, ShapeError
from hemenet.numcore import (
    ParamStore,
    Tensor,
    batch_norm,
    binary_cross_entropy_with_logits,
    concat,
    coordinate_message,
    dense,
    div,
    gather_rows,
    layer_norm,
    matmul,
    mlp,
    mul,
    no_grad,
    normalized_flat_relation,
    relu,
    reshape,
    segment_sum,
    sigmoid,
    silu,
    softmax,
    tmean,
    transpose,
    tsum,
)
from hemenet.numcore.tensor import _scatter_add, _sigmoid, _zero_safe_quotient
from hemenet.train import fold_norm_stats

import conftest
from conftest import (
    unfused_coordinate_message,
    unfused_dense,
    unfused_mlp,
    unfused_normalized_flat_relation,
)


def leaf(arr, dtype=np.float64):
    return Tensor(np.asarray(arr, dtype=dtype), requires_grad=True)


# -- fixed oracles --------------------------------------------------------


def test_softmax_uniform():
    y = softmax(Tensor(np.zeros(3)), axis=-1)
    np.testing.assert_allclose(y.data, np.full(3, 1.0 / 3.0), rtol=0, atol=1e-15)


def test_matmul_identity():
    a = np.arange(12.0).reshape(3, 4)
    y = matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_array_equal(y.data, a)


def test_frobenius_345():
    # unit distance, attribute rows [1, 0] and [3, 4]: R = [[3, 4], [0, 0]]
    # has Frobenius norm 5, which the relation divides out (plus eps)
    X = Tensor(np.array([[[0.0]] * 3, [[1.0], [0.0], [0.0]]]))
    A = Tensor(np.array([[[1.0, 0.0]], [[3.0, 4.0]]]))
    y = normalized_flat_relation(gather_rows(X, [0]), gather_rows(X, [1]), A, [0], [1], 1e-8)
    np.testing.assert_allclose(y.data, [[3.0, 4.0, 0.0, 0.0]] / np.float64(5.0 + 1e-8),
                               rtol=0, atol=1e-15)


def test_backward_sum_of_squares():
    x = leaf([1.0, 2.0, 3.0])
    grads = {}
    (x * x).sum().backward(grads)
    np.testing.assert_allclose(grads[x], [2.0, 4.0, 6.0], rtol=0, atol=1e-15)


def test_backward_constant_root():
    x = leaf([1.0, 2.0])
    c = Tensor(5.0, dtype=np.float64)
    grads = {}
    (c + 0.0 * x.sum()).backward(grads)
    np.testing.assert_array_equal(grads[x], [0.0, 0.0])


def test_backward_dot_linear():
    w = leaf([1.0, -2.0, 0.5])
    x = Tensor(np.array([3.0, 4.0, 5.0]))
    grads = {}
    (w * x).sum().backward(grads)
    np.testing.assert_array_equal(grads[w], x.data)


def test_backward_accumulates_without_zero():
    x = leaf([1.0, 2.0])
    grads = {}
    for _ in range(2):  # each pass builds its own graph from the same leaf
        (x * x).sum().backward(grads)
    np.testing.assert_allclose(grads[x], [4.0, 8.0], rtol=0, atol=1e-15)


def test_backward_consumes_its_graph():
    """A second ``backward()`` through a consumed graph raises, names the
    op it reached and adds nothing; every node keeps its data.  A second
    graph built from the same leaves still folds into one ``grads`` dict,
    each leaf's contributions in pass order."""
    x, w = leaf([1.0, 2.0]), leaf([3.0, -1.0])
    hidden = x * w
    root = (hidden * hidden).sum()
    grads = {}
    root.backward(grads)
    first = {t: g.copy() for t, g in grads.items()}
    np.testing.assert_array_equal(hidden.data, [3.0, -2.0])
    assert root.item() == 13.0
    with pytest.raises(RuntimeError, match="'sum' node"):
        root.backward(grads)
    with pytest.raises(RuntimeError, match="'mul' node"):
        (hidden + x).sum().backward(grads)  # the new sum is fine, its parent is not
    assert grads.keys() == first.keys()
    for t in grads:
        assert_bytes_equal(grads[t], first[t])

    second = x * w
    (second * second).sum().backward(grads)
    assert list(grads) == list(first)
    for t in (x, w):
        assert_bytes_equal(grads[t], first[t] + first[t])


def test_backward_requires_scalar():
    x = leaf([[1.0, 2.0]])
    with pytest.raises(ShapeError):
        (x * 2.0).backward({})


def test_non_finite_forward_raises():
    with pytest.raises(NumericsError):
        div(Tensor(np.array([1.0])), Tensor(np.array([0.0])))
    with pytest.raises(NumericsError):
        div(Tensor(np.array([0.0])), Tensor(np.array([0.0])))


def test_shape_mismatch_names_shapes():
    with pytest.raises(ShapeError) as err:
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "2, 3" in str(err.value).replace("(", "").replace(")", "")


def test_no_grad_suppresses_graph():
    x = leaf([1.0])
    with no_grad():
        y = x * 2.0
    assert not y.requires_grad and y._parents == ()


# -- finite-difference property harness ------------------------------------


def central_diff(fn, x, eps=1e-5):
    g = np.zeros_like(x)
    flat = g.reshape(-1)
    base = x.copy().reshape(-1)
    for i in range(base.size):
        for sign in (+1, -1):
            probe = base.copy()
            probe[i] += sign * eps
            val = fn(probe.reshape(x.shape))
            flat[i] += sign * val / (2 * eps)
    return g


def check_op(build, x, tol=1e-5, eps=1e-5):
    """build(Tensor) -> Tensor; reduces with a fixed random projection
    so every output element's gradient is exercised."""
    rng = np.random.default_rng(x.size)
    t = leaf(x)
    out = build(t)
    proj = rng.normal(size=out.shape)
    grads = {}
    (out * Tensor(proj)).sum().backward(grads)
    analytic = grads[t]

    def scalar(arr):
        with no_grad():
            return float((build(Tensor(arr)).data * proj).sum())

    numeric = central_diff(scalar, x, eps)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    assert np.max(np.abs(analytic - numeric) / denom) <= tol


small = st.integers(min_value=1, max_value=5)


@settings(max_examples=25, deadline=None)
@given(n=small, m=small, seed=st.integers(0, 2**31 - 1))
def test_grad_elementwise_ops(n, m, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m))
    check_op(lambda t: sigmoid(t), x)
    check_op(lambda t: silu(t), x)
    check_op(lambda t: relu(t), x + 0.1)  # keep away from the kink


@settings(max_examples=25, deadline=None)
@given(n=small, k=small, m=small, seed=st.integers(0, 2**31 - 1))
def test_grad_matmul_both_sides(n, k, m, seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(k, m))
    check_op(lambda t: matmul(t, Tensor(b)), rng.normal(size=(n, k)))
    a = rng.normal(size=(n, k))
    check_op(lambda t: matmul(Tensor(a), t), rng.normal(size=(k, m)))


@settings(max_examples=25, deadline=None)
@given(n=small, m=small, seed=st.integers(0, 2**31 - 1))
def test_grad_reductions_and_shape_ops(n, m, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m))
    check_op(lambda t: tsum(t, axis=0), x)
    check_op(lambda t: tmean(t, axis=1, keepdims=True), x)
    check_op(lambda t: reshape(t, (m * n,)), x)
    check_op(lambda t: transpose(t, (1, 0)), x)
    check_op(lambda t: concat([t, t * 2.0], axis=0), x)


@settings(max_examples=25, deadline=None)
@given(n=small, m=small, seed=st.integers(0, 2**31 - 1))
@example(n=2, m=1, seed=3856)  # an attribute at 0.0018 once failed the relation line
def test_grad_softmax_norm_ops(n, m, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m))
    check_op(lambda t: softmax(t, axis=-1), x)
    # the relation's norm, through the attribute rows of n one-channel
    # nodes, each edge i -> i + 1 (a self-pair when n == 1).  With m = 1
    # each edge's output is R / (|R| + eps), nearly the sign of an
    # attribute, so attributes keep 0.1 away from 0 on either side, as the
    # relu line keeps away from its kink: a central difference next to 0
    # has a truncation error of about (step / attribute)^2
    X = Tensor(rng.normal(size=(n, 3, 1)) * 3.0)
    dst, src = np.arange(n), (np.arange(n) + 1) % n
    attr = x + np.copysign(0.1, x)
    check_op(lambda t: normalized_flat_relation(gather_rows(X, dst), gather_rows(X, src),
                                                reshape(t, (n, 1, m)), dst, src, 1e-8), attr)
    g = Tensor(rng.normal(size=m) ** 2 + 0.5)
    b = Tensor(rng.normal(size=m))
    if n >= 2:
        check_op(lambda t: layer_norm(t, g, b), x)
    t_target = (rng.random(size=(n, m)) > 0.5).astype(float)
    check_op(lambda t: binary_cross_entropy_with_logits(t, t_target), x)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 5), c=st.integers(1, 6), seed=st.integers(0, 2**31 - 1))
def test_grad_pairwise_distance(n, c, seed):
    # the relation's distances, through either end's coordinates
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=(n, 3, c)) * 2.0
    xj = rng.normal(size=(n, 3, c)) * 2.0 + 5.0  # keep distances away from 0
    A = Tensor(rng.normal(size=(n, c, 3)))
    dst, src = np.arange(n), np.arange(n)[::-1].copy()
    check_op(lambda t: normalized_flat_relation(t, Tensor(xj), A, dst, src, 1e-8), xi)
    check_op(lambda t: normalized_flat_relation(Tensor(xi), t, A, dst, src, 1e-8), xj)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 6), m=small, seed=st.integers(0, 2**31 - 1))
def test_grad_gather_segment(n, m, seed):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=7)
    check_op(lambda t: gather_rows(t, idx), rng.normal(size=(n, m)))
    seg = rng.integers(0, 3, size=n)
    check_op(lambda t: segment_sum(t, seg, 3), rng.normal(size=(n, m)))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=32),
       st.integers(0, 2**31 - 1))
def test_softmax_simplex(values, seed):
    rng = np.random.default_rng(seed)
    rows = np.array(values)[None, :].repeat(2, axis=0) + rng.normal(size=(2, len(values)))
    y = softmax(Tensor(rows), axis=-1).data
    assert np.all(y >= 0)
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)


# -- normalization -----------------------------------------------------------


def test_batch_norm_eval_is_fixed_affine():
    rng = np.random.default_rng(0)
    gamma = Tensor(rng.normal(size=4) ** 2 + 0.5, requires_grad=True)
    beta = Tensor(rng.normal(size=4), requires_grad=True)
    running = {"mean": rng.normal(size=4), "var": rng.random(4) + 0.5}
    frozen = {k: v.copy() for k, v in running.items()}
    x = rng.normal(size=(6, 4))
    y1, _ = batch_norm(Tensor(x), gamma, beta, (running["mean"], running["var"]))
    y2, _ = batch_norm(Tensor(x), gamma, beta, (running["mean"], running["var"]))
    np.testing.assert_array_equal(y1.data, y2.data)
    np.testing.assert_array_equal(running["mean"], frozen["mean"])
    np.testing.assert_array_equal(running["var"], frozen["var"])
    scale = gamma.data / np.sqrt(frozen["var"] + 1e-5)
    np.testing.assert_allclose(y1.data, (x - frozen["mean"]) * scale + beta.data,
                               atol=1e-12)


def test_batch_norm_train_updates_running_stats():
    gamma = Tensor(np.ones(3), requires_grad=True)
    beta = Tensor(np.zeros(3), requires_grad=True)
    store = ParamStore(np.float64)
    store.add_state("mean", np.zeros(3))
    store.add_state("var", np.ones(3))
    x = np.array([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]])
    y, (mean, var) = batch_norm(Tensor(x), gamma, beta)
    fold_norm_stats(store, {"mean": mean, "var": var})
    np.testing.assert_allclose(store.state["mean"], 0.1 * x.mean(axis=0), atol=1e-15)
    np.testing.assert_allclose(y.data.mean(axis=0), 0.0, atol=1e-12)


def test_batch_norm_gradients():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 3))
    gamma_v = rng.normal(size=3) ** 2 + 0.5
    beta_v = rng.normal(size=3)
    proj = rng.normal(size=(5, 3))

    def build(t):
        return batch_norm(t, Tensor(gamma_v), Tensor(beta_v))[0]

    t = leaf(x)
    grads = {}
    (build(t) * Tensor(proj)).sum().backward(grads)

    def scalar(arr):
        with no_grad():
            return float((build(Tensor(arr)).data * proj).sum())

    numeric = central_diff(scalar, x)
    denom = np.maximum(np.maximum(np.abs(grads[t]), np.abs(numeric)), 1e-4)
    assert np.max(np.abs(grads[t] - numeric) / denom) <= 1e-5


def test_mul_broadcast_gradient():
    a = leaf(np.array([[1.0], [2.0]]))
    b = leaf(np.array([10.0, 20.0, 30.0]))
    grads = {}
    mul(a, b).sum().backward(grads)
    np.testing.assert_array_equal(grads[a], [[60.0], [60.0]])
    np.testing.assert_array_equal(grads[b], [3.0, 3.0, 3.0])


def test_written_tensors_are_read_only():
    y = silu(Tensor(np.ones(3)))
    with pytest.raises(ValueError):
        y.data[0] = 7.0


# -- bitwise contracts of the hot paths -------------------------------------


def add_at_reference(idx, rows, n):
    out = np.zeros((n,) + rows.shape[1:], dtype=rows.dtype)
    np.add.at(out, idx, rows)
    return out


def assert_bytes_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def edge_like_index(rng, n, per_node):
    # every node receives 1..2*per_node rows, in shuffled order, like dst
    counts = rng.integers(1, 2 * per_node + 1, size=n)
    return rng.permutation(np.repeat(np.arange(n), counts))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("row_shape", [(), (5,), (3, 14), (14, 16)])
def test_scatter_add_bitwise_equals_add_at(dtype, row_shape):
    rng = np.random.default_rng(11)
    n = 40
    cases = {
        "edge-like": edge_like_index(rng, n, 12),
        "empty segments": rng.choice([1, 4, 9, 30], size=60),  # most of n get nothing
        "table": rng.integers(0, 6, size=4000),  # thousands of duplicates per bucket
        "count == non-empty": np.array([2, 0, 2, 5, 2, 0]),  # max count 3, 3 segments
        "count > non-empty": np.array([2, 0, 2, 5, 2, 2, 0]),  # max count 4, 3 segments
    }
    for name, idx in cases.items():
        rows = (rng.normal(size=(idx.size,) + row_shape) * 10.0 ** rng.integers(-3, 4, size=idx.size)
                .reshape((-1,) + (1,) * len(row_shape))).astype(dtype)
        assert_bytes_equal(_scatter_add(idx, rows, n), add_at_reference(idx, rows, n)), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("row_shape", [(256,), (14, 16), (2,)])
def test_scatter_add_sorted_blocks_bitwise_equal_add_at(dtype, row_shape):
    """Non-decreasing indices with more rows per segment than segments,
    as edges sorted by kind meet the kind table, sum block by block, and
    the bytes are ``np.add.at``'s: magnitudes from e^-8 to e^8, one
    block (homogeneous), kinds without edges, segments opening with
    -0.0 rows, and blocks made only of -0.0."""
    rng = np.random.default_rng(17)
    E = 2662
    cases = {
        "kinds": np.sort(rng.integers(0, 5, size=E)),
        "one kind": np.zeros(E, dtype=np.int64),
        "empty kinds": np.sort(rng.choice([1, 4], size=E)),
        "kind 0 sparse": np.sort(np.concatenate([[0], rng.integers(1, 3, size=E - 1)])),
    }
    for name, idx in cases.items():
        for trial in range(5):
            rows = (rng.normal(size=(E,) + row_shape)
                    * np.exp(rng.uniform(-8, 8, size=(E,) + row_shape))).astype(dtype)
            starts = np.flatnonzero(np.diff(idx, prepend=-1))
            rows[starts] = -0.0  # each segment opens with a -0.0 row
            if trial == 4:
                rows[idx == idx[-1]] = -0.0  # a segment of -0.0 only
            assert_bytes_equal(_scatter_add(idx, rows, 6), add_at_reference(idx, rows, 6)), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scatter_add_empty_and_negative_zero(dtype):
    empty = _scatter_add(np.zeros(0, dtype=np.int64), np.zeros((0, 3), dtype=dtype), 4)
    assert_bytes_equal(empty, np.zeros((4, 3), dtype=dtype))
    # segments made only of -0.0 rows come out +0.0, as add.at starts at +0.0
    idx = np.array([3, 1, 3, 3, 0, 1])
    rows = np.full((6, 2), -0.0, dtype=dtype)
    rows[4] = 1.5
    out = _scatter_add(idx, rows, 5)
    assert_bytes_equal(out, add_at_reference(idx, rows, 5))
    assert not np.signbit(out).any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gather_rows_gradient_and_segment_sum_bitwise(dtype):
    rng = np.random.default_rng(5)
    n = 30
    for idx in (edge_like_index(rng, n, 15), rng.integers(0, 3, size=2000)):
        w = rng.normal(size=(idx.size, 7)).astype(dtype)
        x = leaf(rng.normal(size=(n, 7)), dtype=dtype)
        grads = {}
        (gather_rows(x, idx) * Tensor(w)).sum().backward(grads)
        assert_bytes_equal(grads[x], add_at_reference(idx, w, n))
        assert_bytes_equal(segment_sum(Tensor(w), idx, n).data, add_at_reference(idx, w, n))


def two_branch_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bitwise_equals_two_branch_form(dtype):
    info = np.finfo(dtype)
    special = [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
               info.tiny, -info.tiny, 88.0, -88.0, 1e4, -1e4, info.max, -info.max,
               np.nextafter(info.max, 0, dtype=dtype), 1.0, -1.0]
    rng = np.random.default_rng(3)
    m = 20000 - len(special)
    x = np.concatenate([np.array(special, dtype=dtype),
                        (rng.normal(size=m) * 10.0 ** rng.uniform(-8, 3, size=m)).astype(dtype)])
    assert_bytes_equal(_sigmoid(x), two_branch_sigmoid(x))
    strided = x.reshape(100, 200)[:, ::3]  # non-contiguous input
    assert_bytes_equal(_sigmoid(strided), two_branch_sigmoid(strided))
    if dtype == np.float32:
        # about 1 M finite bit patterns, a prime stride apart: every
        # exponent, subnormals included, with varied mantissas
        swept = np.arange(0, 2 ** 32, 4093, dtype=np.uint64).astype(np.uint32).view(np.float32)
        swept = swept[np.isfinite(swept)]
        exponents = (swept.view(np.uint32) >> 23) & 0xFF
        assert np.array_equal(np.unique(exponents), np.arange(255))
        assert_bytes_equal(_sigmoid(swept), two_branch_sigmoid(swept))


def where_form_quotient(g, dist):
    """``g / dist`` with a zero at ``dist == 0``, as the backward of the
    distances and the Frobenius norm computed it before: two ``np.where``
    selections."""
    safe = np.where(dist > 0, dist, 1.0)
    return np.where(dist > 0, g / safe, 0.0)


def relation_grads(relation, X, A, dst, src, probe):
    """Output and gradients of ``relation`` on the edges (dst, src) of
    nodes with coordinates ``X`` and attribute rows ``A``."""
    dtype = X.dtype
    X_dst, X_src, A_nodes = leaf(X[dst], dtype), leaf(X[src], dtype), leaf(A, dtype)
    out = relation(X_dst, X_src, A_nodes, dst, src, 1e-8)
    grads = {}
    (out * Tensor(probe)).sum().backward(grads)
    return out.data, grads[X_dst], grads[X_src], grads[A_nodes]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_distance_backward_bitwise_equals_where_form(dtype, monkeypatch):
    """Self-pairs of nodes padded at the origin have zero distances on the
    diagonal and between padded channels, and a node whose every channel
    sits at one point has a zero relation norm.  The fused relation's
    gradients there are +0.0 and bitwise those of the unfused chain
    computing each zero-safe quotient with two ``np.where``."""
    rng = np.random.default_rng(12)
    n = 300
    channels = rng.integers(1, 15, size=n)
    padded = np.arange(14)[None, None, :] >= channels[:, None, None]
    X = np.where(padded, 0.0, rng.normal(size=(n, 3, 14))).astype(dtype)
    X[rng.random(n) < 0.2] = 0.0  # every channel at the origin: zero norm
    A = (rng.normal(size=(n, 14, 4)) * ~padded.transpose(0, 2, 1)).astype(dtype)
    dst = np.concatenate([np.arange(n), rng.integers(0, n, size=n)])
    src = np.concatenate([np.arange(n), rng.integers(0, n, size=n)])
    probe = rng.normal(size=(2 * n, 16)).astype(dtype)  # either sign

    got = relation_grads(normalized_flat_relation, X, A, dst, src, probe)
    monkeypatch.setattr(conftest, "_zero_safe_quotient", where_form_quotient)
    want = relation_grads(unfused_normalized_flat_relation, X, A, dst, src, probe)
    for g, w in zip(got, want):
        assert_bytes_equal(g, w)
    diff = X[:, :, :, None] - X[:, :, None, :]
    dist = np.sqrt(np.sum(diff * diff, axis=1))
    zero = dist == 0
    assert zero[:, np.arange(14), np.arange(14)].all() and zero.sum() > 14 * n
    g = rng.normal(size=dist.shape).astype(dtype)
    scale = _zero_safe_quotient(g, dist)
    assert_bytes_equal(scale, where_form_quotient(g, dist))
    assert not scale[zero].any() and not np.signbit(scale[zero]).any()  # +0.0
    # every channel at one point: the output is 0 and so is every
    # coordinate gradient, +0.0 at the receiver and, negated, -0.0 at
    # the sender, as in the chain
    still = np.all(X == 0, axis=(1, 2))
    assert still.any()
    assert not got[0][:n][still].any()
    assert not got[1][:n][still].any() and not np.signbit(got[1][:n][still]).any()
    assert not got[2][:n][still].any()


def test_fused_geometry_bitwise_equals_unfused_chains():
    """Output and every gradient of both fused geometry ops are bitwise
    the chains they replace, in float32 and float64, on edges between
    nodes of 1 to 14 channels, coincident channels and self-pairs
    among them, several edges per receiver and per relation kind."""
    rng = np.random.default_rng(21)
    n, E, kinds = 60, 400, 5
    for dtype in (np.float32, np.float64):
        counts = np.concatenate([[1, 14], rng.integers(1, 15, size=n - 2)])
        real = np.arange(14)[None, :] < counts[:, None]
        X = (rng.normal(size=(n, 3, 14)) * real[:, None, :]).astype(dtype)
        X[5, :, 1] = X[5, :, 0]  # two coincident channels
        A = (rng.normal(size=(n, 14, 4)) * real[:, :, None]).astype(dtype)
        dst = np.concatenate([[0, 1, 5, 7], rng.integers(0, n, size=E - 4)])
        src = np.concatenate([[1, 0, 5, 7], rng.integers(0, n, size=E - 4)])
        probe = rng.normal(size=(E, 16)).astype(dtype)
        got = relation_grads(normalized_flat_relation, X, A, dst, src, probe)
        want = relation_grads(unfused_normalized_flat_relation, X, A, dst, src, probe)
        for g, w in zip(got, want):
            assert_bytes_equal(g, w)

        kind = np.sort(rng.integers(0, kinds, size=E))
        pool = np.zeros((15, 14, 14))
        for c in range(1, 15):
            pool[c, :, :c] = np.ones((14, c)) / (15 - c)
        pool = pool.astype(dtype)
        arrays = (X[dst], rng.normal(size=(E, 3)), rng.normal(size=(E, 14)),
                  rng.normal(size=kinds))
        probe = rng.normal(size=(n, 3, 14)).astype(dtype)
        results = []
        for op in (coordinate_message, unfused_coordinate_message):
            leaves = [leaf(a, dtype) for a in arrays]
            out = op(*leaves[:3], pool, counts[dst], leaves[3], kind, dst, n)
            grads = {}
            (out * Tensor(probe)).sum().backward(grads)
            results.append([out.data] + [grads[t] for t in leaves])
        for g, w in zip(*results):
            assert_bytes_equal(g, w)


@pytest.mark.filterwarnings("error")
def test_fused_geometry_raises_on_non_finite_coordinates():
    """A NaN or infinite coordinate, or one whose square overflows,
    raises NumericsError naming the fused op, and no warning on the
    way."""
    X = np.zeros((2, 3, 2))
    X[1, 0] = 1.0
    A = Tensor(np.ones((2, 2, 3)))
    edge = np.array([0])
    for bad in (np.nan, np.inf, -np.inf):
        for end in (0, 1):
            Y = X.copy()
            Y[end, 1, 1] = bad
            with pytest.raises(NumericsError, match="^normalized_flat_relation: non-finite"):
                normalized_flat_relation(Tensor(Y[:1]), Tensor(Y[1:]), A, edge, edge + 1, 1e-8)
        for channel in (0, 1):  # a real channel and one the pooling zeroes
            Y = X[1:].copy()
            Y[0, 2, channel] = bad
            with pytest.raises(NumericsError, match="^coordinate_message: non-finite"):
                coordinate_message(Tensor(Y), Tensor(np.zeros((1, 3))), Tensor(np.ones((1, 2))),
                                   np.array([np.zeros((2, 2)), [[1.0, 0.0], [0.0, 0.0]],
                                             np.eye(2)]), [1], Tensor(np.ones(1)),
                                   edge, edge, 1)
        with pytest.raises(NumericsError, match="^coordinate_message: non-finite"):
            coordinate_message(Tensor(X[:1]), Tensor(np.full((1, 3), bad)), Tensor(np.ones((1, 2))),
                               np.array([np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)]), [2],
                               Tensor(np.ones(1)), edge, edge, 1)
    huge = Tensor((X * 3e19).astype(np.float32))  # finite, but its squares are not
    with pytest.raises(NumericsError, match="^normalized_flat_relation: non-finite"):
        normalized_flat_relation(gather_rows(huge, [0]), gather_rows(huge, [1]),
                                 Tensor(np.ones((2, 2, 3), np.float32)), edge, edge + 1, 1e-8)


def test_fused_geometry_keeps_only_inputs_and_a_scalar_per_edge():
    """Recorded, the relation keeps its output and the (E, 1, 1) norm,
    and the coordinate message its output and the (E, 1, 1) kind weight;
    the pooling table and each edge's row index are read where they lie,
    and the (E, C, C) matrices gathered from them are not kept.  Under
    ``no_grad`` each keeps only its output."""
    rng = np.random.default_rng(3)
    n, E = 50, 800
    X = leaf(rng.normal(size=(E, 3, 14)), np.float32)
    A = leaf(rng.normal(size=(n, 14, 16)), np.float32)
    dst, src = rng.integers(0, n, size=E), rng.integers(0, n, size=E)
    centroid = leaf(rng.normal(size=(E, 3)), np.float32)
    s = leaf(rng.normal(size=(E, 14)), np.float32)
    w = leaf(rng.normal(size=5), np.float32)
    kind = np.sort(rng.integers(0, 5, size=E))
    pool = rng.normal(size=(15, 14, 14)).astype(np.float32)
    recv = rng.integers(0, 15, size=E)
    scalar = E * 4
    for build in (lambda: normalized_flat_relation(X, X, A, dst, src, 1e-8),
                  lambda: coordinate_message(X, centroid, s, pool, recv, w, kind, dst, n)):
        held, out = _held_bytes(build)
        assert out.data.nbytes + scalar <= held < out.data.nbytes + scalar + 4096
        with no_grad():
            held, out = _held_bytes(build)
        assert out._backward is None and out._parents == ()
        assert out.data.nbytes <= held < out.data.nbytes + 4096


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_family_quiet_at_large_inputs(dtype):
    z = np.array([1e4, -1e4, 0.0], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op in (sigmoid, silu):
            t, grads = leaf(z, dtype=dtype), {}
            op(t).sum().backward(grads)
            assert np.isfinite(grads[t]).all()
        t, grads = leaf(z, dtype=dtype), {}
        target = np.array([1.0, 0.0, 1.0], dtype=dtype)
        binary_cross_entropy_with_logits(t, target).sum().backward(grads)
        assert np.isfinite(grads[t]).all()


def assert_no_shared_grads(grads, *leaves):
    for i, a in enumerate(leaves):
        for b in leaves[i + 1:]:
            assert not np.shares_memory(grads[a], grads[b])


def test_backward_accumulation_keeps_aliased_contributions_exact():
    # add's backward hands the same g object to both parents, so a leaf
    # reached through x + x + x ... gets one array several times over
    rng = np.random.default_rng(2)
    w = Tensor(rng.normal(size=(4, 3)))
    x, c = leaf(rng.normal(size=(4, 3))), leaf(rng.normal(size=(4, 3)))
    root = ((x + x + x + x + c) * w).sum()
    grads = {}
    root.backward(grads)
    np.testing.assert_array_equal(grads[x], ((w.data + w.data) + w.data) + w.data)
    np.testing.assert_array_equal(grads[c], w.data)
    assert_no_shared_grads(grads, x, c)
    first = grads[x].copy()
    root = ((x + x + x + x + c) * w).sum()  # backward consumed the first graph
    root.backward(grads)
    np.testing.assert_array_equal(grads[x], first + first)
    np.testing.assert_array_equal(grads[c], w.data + w.data)
    assert_no_shared_grads(grads, x, c)


def test_backward_accumulation_diamond_and_owned_intermediate():
    rng = np.random.default_rng(4)
    x, a, b = (leaf(rng.normal(size=(3, 2))) for _ in range(3))
    grads = {}
    ((x * a) + (x * b)).sum().backward(grads)
    np.testing.assert_array_equal(grads[x], a.data + b.data)
    np.testing.assert_array_equal(grads[a], x.data)
    np.testing.assert_array_equal(grads[b], x.data)
    assert_no_shared_grads(grads, x, a, b)

    # y's gradient is summed into a buffer the pass owns, and that buffer
    # is then handed on to x twice; neither hand-off may be written over
    w = Tensor(rng.normal(size=(3, 2)))
    x = leaf(rng.normal(size=(3, 2)))
    gy = (w.data + w.data) + w.data
    grads = {}
    for want in (gy + gy, (gy + gy) + (gy + gy)):  # backward consumes each pass's graph
        y = x + x
        ((y + y + y) * w).sum().backward(grads)
        np.testing.assert_array_equal(grads[x], want)


# -- fused layers -------------------------------------------------------------

ACTS = [None, "silu", "relu"]


def fused_case(rng, dtype, two_layer):
    """A message-MLP-shaped graph: two products of one node matrix ``h``
    gathered to edges, an edge product, a table gathered three times, a
    bias, a second layer, and ``h`` reused downstream so its gradient
    sums several contributions.  ``two_layer`` is ``mlp`` or its unfused
    reference."""
    n, E, k, d = 7, 40, 5, 6
    h = leaf(rng.normal(size=(n, k)), dtype)
    w_dst, w_src, w_rel = (leaf(rng.normal(size=(k, d)), dtype) for _ in range(3))
    rel = leaf(rng.normal(size=(E, k)), dtype)
    table = leaf(rng.normal(size=(3, d)), dtype)
    b1, b2 = leaf(rng.normal(size=d), dtype), leaf(rng.normal(size=2), dtype)
    w2 = leaf(rng.normal(size=(d, 2)), dtype)
    dst, src = rng.integers(0, n, size=E), rng.integers(0, n, size=E)
    kind = rng.integers(0, 3, size=E)
    leaves = (h, w_dst, w_src, w_rel, rel, table, b1, b2, w2)

    def build(act):
        out = two_layer(((matmul(h, w_dst), dst), (matmul(h, w_src), src), (rel, w_rel),
                         (table, kind), (table, dst % 3), (table, src % 3)), b1, w2, b2, act)
        probe = Tensor(rng.normal(size=out.shape).astype(dtype))
        return out, (out * probe).sum() + (h * h).sum()

    return leaves, build


@pytest.mark.parametrize("act", ACTS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_layers_bitwise_equal_unfused_composition(dtype, act):
    """Forward output and every leaf gradient, byte for byte, of ``mlp``
    against the gathers, products, adds, activation and second layer it
    fuses.  A table gathered three times folds its gradients in term
    order, as the unfused walk did, and a second pass, on a graph of its
    own, folds into the same dict with its leaves in the same order."""
    results = []
    for two_layer in (mlp, unfused_mlp):
        rng = np.random.default_rng(21)
        leaves, build = fused_case(rng, dtype, two_layer)
        grads = {}
        for _ in range(2):
            out, root = build(act)
            root.backward(grads)
        results.append((out.data, [grads[t] for t in leaves], [leaves.index(t) for t in grads]))
    (got, got_grads, got_order), (want, want_grads, want_order) = results
    assert_bytes_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        assert_bytes_equal(g, w)
    assert got_order == want_order


@pytest.mark.parametrize("act", ACTS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dense_bitwise_equals_matmul_add_activation(dtype, act):
    """Large, tiny and signed-zero pre-activations, a batched product and
    a row-vector bias: output and gradients of x, w and b match."""
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 30, 9)) * 10.0 ** rng.integers(-6, 3, size=(2, 30, 1))
    x[0, :3] = 0.0
    w, b = rng.normal(size=(9, 4)), rng.normal(size=(1, 4))
    b[0, 0] = -0.0
    probe = Tensor(rng.normal(size=(2, 30, 4)).astype(dtype))
    results = []
    for op in (dense, unfused_dense):
        xs, ws, bs = leaf(x, dtype), leaf(w, dtype), leaf(b, dtype)
        out = op(xs, ws, bs, act)
        grads = {}
        (out * probe).sum().backward(grads)
        results.append([out.data] + [grads[t] for t in (xs, ws, bs)])
    for got, want in zip(*results):
        assert_bytes_equal(got, want)


@settings(max_examples=20, deadline=None)
@given(n=small, k=small, m=small, seed=st.integers(0, 2**31 - 1))
def test_grad_dense_and_gathered_sum(n, k, m, seed):
    """``dense`` and the two-layer ``mlp``, whose first layer sums
    gathered rows and products, against finite differences, every
    operand."""
    rng = np.random.default_rng(seed)
    x, w, b = rng.normal(size=(n, k)), rng.normal(size=(k, m)), rng.normal(size=m)
    idx = rng.integers(0, n, size=6)
    table = rng.normal(size=(n, m))
    x6 = rng.normal(size=(6, k))
    w2, b2 = rng.normal(size=(m, 3)), rng.normal(size=3)
    for act in ACTS:
        if act == "relu" and (np.abs(x @ w + b).min() < 1e-3
                              or np.abs(table[idx] + x6 @ w + b).min() < 1e-3):
            continue  # keep away from the kink
        check_op(lambda t: dense(t, Tensor(w), Tensor(b), act), x)
        check_op(lambda t: dense(Tensor(x), t, Tensor(b), act), w)
        check_op(lambda t: dense(Tensor(x), Tensor(w), t, act), b)
        operands = (table, x6, w, b, w2, b2)
        for i, arr in enumerate(operands):
            def two_layer(t, i=i):  # operand i is the one under test
                table_, x6_, w_, b_, w2_, b2_ = (t if j == i else Tensor(v)
                                                 for j, v in enumerate(operands))
                return mlp(((table_, idx), (x6_, w_)), b_, w2_, b2_, act)
            check_op(two_layer, arr)


@pytest.mark.parametrize("act", ACTS)
def test_fused_layers_raise_on_non_finite_pre_activation(act):
    """relu(-inf) is 0, so the pre-activation is checked, not only the
    output, and the error names the fused op."""
    x = Tensor(np.array([[-3e38, 1.0]], dtype=np.float32))
    w = Tensor(np.array([[2.0], [0.0]], dtype=np.float32))
    zero = Tensor(np.zeros(1, dtype=np.float32))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericsError, match="^dense: non-finite"):
            dense(x, w, zero, act)
        table = Tensor(np.array([[-3e38], [3e38]], dtype=np.float32))
        def two_layer(terms, b1):
            return mlp(terms, b1, Tensor(np.ones((b1.shape[0], 1), dtype=np.float32)), zero, act)
        with pytest.raises(NumericsError, match="^mlp: non-finite"):
            two_layer(((table, [0]), (table, [0])), zero)  # -inf
        with pytest.raises(NumericsError, match="^mlp: non-finite"):
            two_layer(((x, [0]), (x, [0])), Tensor(np.zeros(2, dtype=np.float32)))
        nan = Tensor(np.array([[np.inf]], dtype=np.float32))
        with pytest.raises(NumericsError, match="^mlp: non-finite"):
            two_layer(((nan, [0]), (Tensor(-nan.data), [0])), zero)


def test_fused_layers_reject_bad_shapes():
    x, w = Tensor(np.ones((3, 4))), Tensor(np.ones((4, 2)))
    with pytest.raises(ShapeError):
        dense(x, Tensor(np.ones((3, 2))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeError):
        dense(x, w, Tensor(np.zeros(3)))
    with pytest.raises(ValueError):
        dense(x, w, Tensor(np.zeros(2)), "tanh")
    w2, b2 = Tensor(np.ones((4, 5))), Tensor(np.zeros(5))
    with pytest.raises(ShapeError):
        mlp(((x, [0, 3]),), Tensor(np.zeros(4)), w2, b2)
    with pytest.raises(ShapeError):
        mlp(((x, [0, 1]), (x, w)), Tensor(np.zeros(2)), w2, b2)
    with pytest.raises(ShapeError):
        mlp(((x, w),), Tensor(np.zeros(2)), w2, b2)  # hidden is (3, 2)
    with pytest.raises(ShapeError):
        mlp(((x, [0, 1]),), Tensor(np.zeros(4)), w2, Tensor(np.zeros(4)))


def _held_bytes(build):
    """Bytes still allocated after ``build()``, its result kept alive."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        return tracemalloc.get_traced_memory()[0] - before, out
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("act", ACTS)
def test_fused_layers_keep_only_what_backward_reads(act):
    """With gradients recorded, ``dense`` keeps its pre-activation beside
    the output under silu and only the output under relu or no
    activation; ``mlp`` keeps one hidden-layer array beside its output,
    the pre-activation under silu, the hidden layer otherwise, and none
    of its terms or partial sums.  Under ``no_grad`` no op keeps more
    than its output."""
    rng = np.random.default_rng(1)
    x = leaf(rng.normal(size=(500, 64)), np.float32)
    w = leaf(rng.normal(size=(64, 64)), np.float32)
    b = leaf(rng.normal(size=64), np.float32)
    table = leaf(rng.normal(size=(20, 64)), np.float32)
    idx = rng.integers(0, 20, size=500)
    for build, kept in ((lambda: dense(x, w, b, act), 2 if act == "silu" else 1),
                        (lambda: mlp(((table, idx), (x, w), (table, idx)), b, w, b, act), 2)):
        held, out = _held_bytes(build)
        assert kept * out.data.nbytes <= held < (kept + 0.25) * out.data.nbytes
        with no_grad():
            held, out = _held_bytes(build)
        assert out._backward is None and out._parents == ()
        assert out.data.nbytes <= held < 1.25 * out.data.nbytes
