"""Tensor arithmetic and reverse-mode gradients.

Fixed oracles first, then property tests: every differentiable op is
checked against central finite differences in float64 on randomized
small shapes.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemenet.errors import NumericsError, ShapeError
from hemenet.numcore import (
    Tensor,
    batch_norm,
    binary_cross_entropy_with_logits,
    concat,
    div,
    frobenius_norm,
    gather_rows,
    layer_norm,
    matmul,
    mul,
    no_grad,
    pairwise_distance,
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
from hemenet.numcore.tensor import _scatter_add, _sigmoid


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
    y = frobenius_norm(Tensor(np.array([[3.0, 4.0]])))
    assert y.item() == pytest.approx(5.0, abs=1e-15)


def test_backward_sum_of_squares():
    x = leaf([1.0, 2.0, 3.0])
    (x * x).sum().backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], rtol=0, atol=1e-15)


def test_backward_constant_root():
    x = leaf([1.0, 2.0])
    c = Tensor(5.0, dtype=np.float64)
    (c + 0.0 * x.sum()).backward()
    np.testing.assert_array_equal(x.grad, [0.0, 0.0])


def test_backward_dot_linear():
    w = leaf([1.0, -2.0, 0.5])
    x = Tensor(np.array([3.0, 4.0, 5.0]))
    (w * x).sum().backward()
    np.testing.assert_array_equal(w.grad, x.data)


def test_backward_accumulates_without_zero():
    x = leaf([1.0, 2.0])
    y = (x * x).sum()
    y.backward()
    y.backward()
    np.testing.assert_allclose(x.grad, [4.0, 8.0], rtol=0, atol=1e-15)


def test_backward_requires_scalar():
    x = leaf([[1.0, 2.0]])
    with pytest.raises(ShapeError):
        (x * 2.0).backward()


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
    (out * Tensor(proj)).sum().backward()
    analytic = t.grad

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
    check_op(lambda t: t ** 3, x)


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
def test_grad_softmax_norm_ops(n, m, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m))
    check_op(lambda t: softmax(t, axis=-1), x)
    check_op(lambda t: frobenius_norm(t, axes=(-2, -1), keepdims=True), x + 0.3)
    g = Tensor(rng.normal(size=m) ** 2 + 0.5)
    b = Tensor(rng.normal(size=m))
    if n >= 2:
        check_op(lambda t: layer_norm(t, g, b), x)
    t_target = (rng.random(size=(n, m)) > 0.5).astype(float)
    check_op(lambda t: binary_cross_entropy_with_logits(t, t_target), x)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 5), c=st.integers(1, 6), seed=st.integers(0, 2**31 - 1))
def test_grad_pairwise_distance(n, c, seed):
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=(n, 3, c)) * 2.0
    xj = rng.normal(size=(n, 3, c)) * 2.0 + 5.0  # keep distances away from 0
    check_op(lambda t: pairwise_distance(t, Tensor(xj)), xi)
    check_op(lambda t: pairwise_distance(Tensor(xi), t), xj)


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
    y1 = batch_norm(Tensor(x), gamma, beta, running, train=False)
    y2 = batch_norm(Tensor(x), gamma, beta, running, train=False)
    np.testing.assert_array_equal(y1.data, y2.data)
    np.testing.assert_array_equal(running["mean"], frozen["mean"])
    np.testing.assert_array_equal(running["var"], frozen["var"])
    scale = gamma.data / np.sqrt(frozen["var"] + 1e-5)
    np.testing.assert_allclose(y1.data, (x - frozen["mean"]) * scale + beta.data,
                               atol=1e-12)


def test_batch_norm_train_updates_running_stats():
    gamma = Tensor(np.ones(3), requires_grad=True)
    beta = Tensor(np.zeros(3), requires_grad=True)
    running = {"mean": np.zeros(3), "var": np.ones(3)}
    x = np.array([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]])
    y = batch_norm(Tensor(x), gamma, beta, running, train=True, momentum=0.9)
    np.testing.assert_allclose(running["mean"], 0.1 * x.mean(axis=0), atol=1e-15)
    np.testing.assert_allclose(y.data.mean(axis=0), 0.0, atol=1e-12)


def test_batch_norm_gradients():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 3))
    gamma_v = rng.normal(size=3) ** 2 + 0.5
    beta_v = rng.normal(size=3)
    running = {"mean": np.zeros(3), "var": np.ones(3)}
    proj = rng.normal(size=(5, 3))

    def build(t):
        return batch_norm(t, Tensor(gamma_v), Tensor(beta_v),
                          {k: v.copy() for k, v in running.items()}, train=True)

    t = leaf(x)
    (build(t) * Tensor(proj)).sum().backward()

    def scalar(arr):
        with no_grad():
            return float((build(Tensor(arr)).data * proj).sum())

    numeric = central_diff(scalar, x)
    denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(numeric)), 1e-4)
    assert np.max(np.abs(t.grad - numeric) / denom) <= 1e-5


def test_mul_broadcast_gradient():
    a = leaf(np.array([[1.0], [2.0]]))
    b = leaf(np.array([10.0, 20.0, 30.0]))
    mul(a, b).sum().backward()
    np.testing.assert_array_equal(a.grad, [[60.0], [60.0]])
    np.testing.assert_array_equal(b.grad, [3.0, 3.0, 3.0])


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
        (gather_rows(x, idx) * Tensor(w)).sum().backward()
        assert_bytes_equal(x.grad, add_at_reference(idx, w, n))
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_family_quiet_at_large_inputs(dtype):
    z = np.array([1e4, -1e4, 0.0], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op in (sigmoid, silu):
            t = leaf(z, dtype=dtype)
            op(t).sum().backward()
            assert np.isfinite(t.grad).all()
        t = leaf(z, dtype=dtype)
        binary_cross_entropy_with_logits(t, np.array([1.0, 0.0, 1.0], dtype=dtype)).sum().backward()
        assert np.isfinite(t.grad).all()


def assert_no_shared_grads(*leaves):
    for i, a in enumerate(leaves):
        for b in leaves[i + 1:]:
            assert not np.shares_memory(a.grad, b.grad)


def test_backward_accumulation_keeps_aliased_contributions_exact():
    # add's backward hands the same g object to both parents, so a leaf
    # reached through x + x + x ... gets one array several times over
    rng = np.random.default_rng(2)
    w = Tensor(rng.normal(size=(4, 3)))
    x, c = leaf(rng.normal(size=(4, 3))), leaf(rng.normal(size=(4, 3)))
    root = ((x + x + x + x + c) * w).sum()
    root.backward()
    np.testing.assert_array_equal(x.grad, ((w.data + w.data) + w.data) + w.data)
    np.testing.assert_array_equal(c.grad, w.data)
    assert_no_shared_grads(x, c)
    first = x.grad.copy()
    root.backward()
    np.testing.assert_array_equal(x.grad, first + first)
    np.testing.assert_array_equal(c.grad, w.data + w.data)
    assert_no_shared_grads(x, c)


def test_backward_accumulation_diamond_and_owned_intermediate():
    rng = np.random.default_rng(4)
    x, a, b = (leaf(rng.normal(size=(3, 2))) for _ in range(3))
    ((x * a) + (x * b)).sum().backward()
    np.testing.assert_array_equal(x.grad, a.data + b.data)
    np.testing.assert_array_equal(a.grad, x.data)
    np.testing.assert_array_equal(b.grad, x.data)
    assert_no_shared_grads(x, a, b)

    # y's gradient is summed into a buffer the pass owns, and that buffer
    # is then handed on to x twice; neither hand-off may be written over
    w = Tensor(rng.normal(size=(3, 2)))
    x = leaf(rng.normal(size=(3, 2)))
    y = x + x
    root = ((y + y + y) * w).sum()
    root.backward()
    gy = (w.data + w.data) + w.data
    np.testing.assert_array_equal(x.grad, gy + gy)
    root.backward()
    np.testing.assert_array_equal(x.grad, (gy + gy) + (gy + gy))
