"""Dense-tensor arithmetic with reverse-mode differentiation.

A Tensor wraps a numpy buffer and doubles as its own compute-graph
node: the op tag, parent references, cached forward value and gradient
accumulator all live on one object.  Graphs are built eagerly during
the forward pass and walked once, in reverse topological order, by
``Tensor.backward``.

The op set is deliberately closed: elementwise arithmetic with
broadcasting, matmul (with leading batch dims), concat/reshape/
transpose, sum/mean reductions, softmax, sigmoid, SiLU, ReLU,
Frobenius norm, pairwise channel distances, row gather, segment sum,
batch/layer norm and a numerically stable binary cross-entropy on
logits.

Every op validates that its output is finite; NaN/Inf is raised as
``NumericsError`` instead of being stored.  Forward outputs are marked
read-only so a written tensor is never mutated downstream.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import NumericsError, ShapeError

FLOAT_DTYPES = (np.float32, np.float64)

# per-thread so parallel no-grad evaluation cannot disturb other threads
_grad_state = threading.local()


class no_grad:
    """Context manager that disables graph recording."""

    def __enter__(self):
        self._saved = grad_enabled()
        _grad_state.enabled = False

    def __exit__(self, *exc):
        _grad_state.enabled = self._saved
        return False


def grad_enabled() -> bool:
    return getattr(_grad_state, "enabled", True)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is None:
            dtype = arr.dtype if arr.dtype in FLOAT_DTYPES else np.float32
        arr = np.array(arr, dtype=dtype, order="C")  # own the buffer
        arr.flags.writeable = False
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents = ()
        self._backward = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        return np.array(self.data)

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, op={self.op!r})"

    # -- autograd ------------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable leaf's .grad.

        Repeated calls add on top of existing gradients; callers zero
        grads between steps.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar root, got shape {self.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        # pass-local accumulators keep a second backward() exact.  A first
        # contribution is stored as returned (it may alias g); the second
        # is summed into a fresh buffer the pass owns, and later ones are
        # added into that buffer in place, in the same order and dtype.
        local: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        owned: set[int] = set()
        for node in reversed(topo):
            g = local.pop(id(node), None)
            if g is None:
                continue
            if node._backward is not None:
                for parent, pg in node._backward(g):
                    if not parent.requires_grad:
                        continue
                    key = id(parent)
                    acc = local.get(key)
                    if acc is None:  # may alias g or another parent's gradient
                        local[key] = pg
                    elif key in owned and acc.shape == pg.shape and acc.dtype == pg.dtype:
                        np.add(acc, pg, out=acc)
                    else:
                        acc = acc + pg
                        local[key] = acc
                        if isinstance(acc, np.ndarray):
                            owned.add(key)
            if node._parents == ():  # leaf: fold into the persistent accumulator
                node.grad = g if node.grad is None else node.grad + g
            elif node is self:
                self.grad = g if self.grad is None else self.grad + g

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other, self.dtype))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _lift(other, self.dtype))

    def __rsub__(self, other):
        return sub(_lift(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, _lift(other, self.dtype))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _lift(other, self.dtype))

    def __rtruediv__(self, other):
        return div(_lift(other, self.dtype), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, k):
        return power(self, k)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)


def _lift(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _check_dtypes(op: str, *ts: Tensor):
    dtypes = {t.dtype for t in ts}
    if len(dtypes) > 1:
        raise TypeError(f"{op}: mixed dtypes {sorted(d.name for d in dtypes)}")


def _result(op: str, data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    if not np.all(np.isfinite(data)):
        raise NumericsError(f"{op}: non-finite output")
    out = Tensor.__new__(Tensor)
    data = np.asarray(data, order="C")  # keeps 0-d shapes, unlike ascontiguousarray
    data.flags.writeable = False
    out.data = data
    out.grad = None
    out.op = op
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _broadcast_shape(op: str, a: Tensor, b: Tensor) -> tuple[int, ...]:
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# -- elementwise arithmetic ---------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("add", a, b)
    _broadcast_shape("add", a, b)

    def backward(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape)))

    return _result("add", a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("sub", a, b)
    _broadcast_shape("sub", a, b)

    def backward(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(-g, b.shape)))

    return _result("sub", a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("mul", a, b)
    _broadcast_shape("mul", a, b)

    def backward(g):
        return ((a, _unbroadcast(g * b.data, a.shape)), (b, _unbroadcast(g * a.data, b.shape)))

    return _result("mul", a.data * b.data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("div", a, b)
    _broadcast_shape("div", a, b)

    def backward(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ((a, ga), (b, gb))

    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data
    return _result("div", out, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        return ((a, -g),)

    return _result("neg", -a.data, (a,), backward)


def power(a: Tensor, k) -> Tensor:
    k = float(k)

    def backward(g):
        return ((a, g * k * a.data ** (k - 1.0)),)

    with np.errstate(invalid="ignore"):
        out = a.data ** k
    return _result("pow", out, (a,), backward)


# -- linear algebra -------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("matmul", a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must have rank >= 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")

    def backward(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ((a, ga), (b, gb))

    return _result("matmul", np.matmul(a.data, b.data), (a, b), backward)


def frobenius_norm(a: Tensor, axes=None, keepdims=False) -> Tensor:
    """sqrt of the sum of squares over ``axes`` (all axes by default).

    The gradient at an exactly-zero norm is defined as zero, which is
    the correct derivative whenever the input is identically zero along
    the differentiation path (e.g. self-distances).
    """
    if axes is not None and not isinstance(axes, tuple):
        axes = (axes,)
    sq = np.sum(a.data * a.data, axis=axes, keepdims=keepdims)
    norm = np.sqrt(sq)

    def backward(g):
        n = norm if keepdims or axes is None else np.expand_dims(norm, axes)
        gg = g if keepdims or axes is None else np.expand_dims(g, axes)
        safe = np.where(n > 0, n, 1.0)
        scale = np.where(n > 0, gg / safe, 0.0)
        return ((a, scale * a.data),)

    return _result("frobenius_norm", norm, (a,), backward)


def pairwise_distance(a: Tensor, b: Tensor) -> Tensor:
    """Euclidean distances between column sets.

    ``a``: (..., 3, P), ``b``: (..., 3, Q) -> (..., P, Q) with entry
    (p, q) = ||a[..., :, p] - b[..., :, q]||.  Zero distances get zero
    gradient (both columns coincide, so they move together).
    """
    _check_dtypes("pairwise_distance", a, b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-2] != b.shape[-2]:
        raise ShapeError(f"pairwise_distance: incompatible shapes {a.shape}, {b.shape}")
    diff = a.data[..., :, :, None] - b.data[..., :, None, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-3))

    def backward(g):
        safe = np.where(dist > 0, dist, 1.0)
        scale = np.where(dist > 0, g / safe, 0.0)
        gd = scale[..., None, :, :] * diff
        ga = _unbroadcast(gd.sum(axis=-1), a.shape)
        gb = _unbroadcast(-gd.sum(axis=-2), b.shape)
        return ((a, ga), (b, gb))

    return _result("pairwise_distance", dist, (a, b), backward)


# -- structure ops --------------------------------------------------------


def concat(tensors, axis=0) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ShapeError("concat: empty input")
    _check_dtypes("concat", *tensors)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, offsets, axis=axis)
        return tuple(zip(tensors, pieces))

    return _result("concat", np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)

    def backward(g):
        return ((a, g.reshape(a.shape)),)

    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from None
    return _result("reshape", out, (a,), backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def backward(g):
        return ((a, g.transpose(inv)),)

    return _result("transpose", a.data.transpose(axes), (a,), backward)


def _scatter_add(idx: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """``out[idx[j]] += rows[j]`` over all ``j`` into ``n`` zero rows.

    Bitwise-equal to ``np.add.at``: each output row starts at +0.0 and
    takes its rows in increasing ``j``.  A stable sort gives every row
    its rank within its segment, and rank ``k`` is added for all
    segments in one vectorised step, so the loop runs max-count times.
    Lookup tables hit thousands of times per segment would loop that
    often, so when the largest count exceeds the number of non-empty
    segments ``np.add.at`` does the work instead.
    """
    out = np.zeros((n,) + rows.shape[1:], dtype=rows.dtype)
    if idx.size == 0:
        return out
    counts = np.bincount(idx, minlength=n)
    segs = np.flatnonzero(counts)
    if counts.max() > segs.size:
        np.add.at(out, idx, rows)
        return out
    order = np.argsort(idx, kind="stable")
    starts = np.cumsum(counts)[segs] - counts[segs]
    # segments by count, largest first: rank k is held by a prefix of them
    by_count = np.argsort(-counts[segs], kind="stable")
    segs, starts = segs[by_count], starts[by_count]
    active = np.cumsum(np.bincount(counts[segs])[::-1])[::-1]  # active[k] = #(count >= k)
    for k in range(1, active.size):
        m = active[k]
        out[segs[:m]] += rows[order[starts[:m] + (k - 1)]]
    return out


def gather_rows(a: Tensor, index) -> Tensor:
    """Select rows along axis 0; duplicate indices sum in the gradient.

    The gradient of row ``i`` is the sum of the incoming rows ``j`` with
    ``index[j] == i``, added one by one from +0.0 in increasing ``j``
    (``np.add.at`` order, see ``_scatter_add``).
    """
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows: index must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {a.shape[0]} rows")

    def backward(g):
        return ((a, _scatter_add(idx, g, a.shape[0])),)

    return _result("gather_rows", a.data[idx], (a,), backward)


def segment_sum(a: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of ``a`` into ``num_segments`` buckets along axis 0.

    Bucket ``s`` is the sum of the rows ``j`` with ``segment_ids[j] == s``,
    added one by one from +0.0 in increasing ``j`` (``np.add.at`` order,
    see ``_scatter_add``); an empty bucket is +0.0.
    """
    seg = np.asarray(segment_ids, dtype=np.int64)
    if seg.ndim != 1 or seg.shape[0] != a.shape[0]:
        raise ShapeError(f"segment_sum: ids shape {seg.shape} vs rows {a.shape[0]}")
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise ShapeError(f"segment_sum: segment id out of range [0, {num_segments})")
    out = _scatter_add(seg, a.data, num_segments)

    def backward(g):
        return ((a, g[seg]),)

    return _result("segment_sum", out, (a,), backward)


# -- reductions -----------------------------------------------------------


def _norm_axes(axis, ndim):
    if axis is None:
        return None
    if not isinstance(axis, tuple):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)

    def backward(g):
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        return ((a, np.broadcast_to(g, a.shape).copy()),)

    return _result("sum", a.data.sum(axis=axes, keepdims=keepdims), (a,), backward)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    count = a.size if axes is None else int(np.prod([a.shape[i] for i in axes]))

    def backward(g):
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        return ((a, np.broadcast_to(g, a.shape) / count),)

    return _result("mean", a.data.mean(axis=axes, keepdims=keepdims), (a,), backward)


# -- nonlinearities -------------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows.

    With ``e = exp(-|x|)`` this is ``1 / (1 + e)`` where ``x >= 0`` (so
    at -0.0 too) and ``e / (1 + e)`` elsewhere: the same expressions,
    evaluated in the same order and dtype, as computing each branch on
    its own half of ``x``, hence bitwise-equal to that two-branch form.
    """
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)

    def backward(g):
        return ((a, g * s * (1.0 - s)),)

    return _result("sigmoid", s, (a,), backward)


def silu(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)

    def backward(g):
        return ((a, g * s * (1.0 + a.data * (1.0 - s))),)

    return _result("silu", a.data * s, (a,), backward)


def relu(a: Tensor) -> Tensor:
    def backward(g):
        return ((a, g * (a.data > 0)),)

    return _result("relu", np.maximum(a.data, 0.0), (a,), backward)


def softmax(a: Tensor, axis=-1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((a, y * (g - dot)),)

    return _result("softmax", y, (a,), backward)


def binary_cross_entropy_with_logits(logits: Tensor, targets) -> Tensor:
    """Elementwise BCE computed from logits (stable for large |z|);
    ``targets`` is a constant array."""
    t = np.asarray(targets, dtype=logits.dtype)
    z = logits.data
    loss = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))

    def backward(g):
        return ((logits, g * (_sigmoid(z) - t)),)

    return _result("bce_with_logits", loss, (logits,), backward)


# -- normalization --------------------------------------------------------


def batch_norm(a: Tensor, gamma: Tensor, beta: Tensor, running: dict, train: bool,
               momentum: float = 0.9, eps: float = 1e-5) -> Tensor:
    """Normalize features over axis 0 (rows are the batch).

    ``running`` holds plain ndarrays under "mean" and "var"; train mode
    uses (biased) batch statistics and folds them into the running
    buffers in place.  Eval mode is a fixed affine map of the input.
    """
    if a.ndim != 2:
        raise ShapeError(f"batch_norm: expected 2-D input, got {a.shape}")
    if train:
        mu = a.data.mean(axis=0)
        var = a.data.var(axis=0)
        running["mean"] = momentum * running["mean"] + (1.0 - momentum) * mu
        running["var"] = momentum * running["var"] + (1.0 - momentum) * var
    else:
        mu = running["mean"].astype(a.dtype)
        var = running["var"].astype(a.dtype)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv
    out = gamma.data * xhat + beta.data

    def backward(g):
        dgamma = (g * xhat).sum(axis=0)
        dbeta = g.sum(axis=0)
        dxhat = g * gamma.data
        if train:
            n = a.shape[0]
            dx = (inv / n) * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
        else:
            dx = dxhat * inv
        return ((a, dx), (gamma, dgamma), (beta, dbeta))

    return _result("batch_norm", out, (a, gamma, beta), backward)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, one location at a time."""
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv
    out = gamma.data * xhat + beta.data
    d = a.shape[-1]

    def backward(g):
        red = tuple(range(a.ndim - 1))
        dgamma = (g * xhat).sum(axis=red)
        dbeta = g.sum(axis=red)
        dxhat = g * gamma.data
        dx = (inv / d) * (d * dxhat - dxhat.sum(axis=-1, keepdims=True)
                          - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
        return ((a, dx), (gamma, dgamma), (beta, dbeta))

    return _result("layer_norm", out, (a, gamma, beta), backward)
