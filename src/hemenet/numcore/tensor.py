"""Dense-tensor arithmetic with reverse-mode differentiation.

A Tensor wraps a numpy buffer and doubles as its own compute-graph
node: the op tag, parent references and cached forward value live on
one object.  Graphs are built eagerly during the forward pass and
walked once, in reverse topological order, by ``Tensor.backward``
into a gradient dict the caller owns.  The walk consumes the graph:
each node lets go of its backward closure and parents once it has
passed its gradient on, so the tape shrinks as backward goes.

The op set is deliberately closed: elementwise arithmetic with
broadcasting, matmul (with leading batch dims), concat/reshape/
transpose, sum/mean reductions, softmax, sigmoid, SiLU, ReLU, row
gather, segment sum, batch/layer norm, a numerically stable binary
cross-entropy on logits, two fused layers: ``dense`` (``act(x @ w +
b)``) and ``mlp`` (``act`` of a sum of gathered rows and products plus
a bias, then ``@ w2 + b2``, keeping no hidden layer under silu), and two
fused geometry ops: ``normalized_flat_relation`` (per edge, ``A_i^T D_ij
A_j`` over the channel distances, normalized and flattened) and
``coordinate_message`` (weighted, pooled-scale messages around the
sender centroid, summed per receiver).  Each fused op is bitwise the
unfused composition, forward and backward, and keeps on the tape only
what its backward reads: the geometry ops keep their inputs, output and
at most a per-edge scalar, and recompute the rest.

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
    __slots__ = ("data", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is None:
            dtype = arr.dtype if arr.dtype in FLOAT_DTYPES else np.float32
        arr = np.array(arr, dtype=dtype, order="C")  # own the buffer
        arr.flags.writeable = False
        self.data = arr
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

    def backward(self, grads: dict):
        """Fold d(self)/d(leaf) of every reachable leaf into ``grads``
        (leaf Tensor -> array), as the walk reaches it: stored as is for
        a leaf not yet in it, else as ``grads[leaf] + g``.

        The walk consumes the graph: once a node has handed its gradient
        to its parents it drops its backward closure and its parent
        links, so what only that node's backward kept is freed as the
        walk goes, not when it returns.  Every node keeps its ``.data``.
        Leaves are never released, so a new graph built from them folds
        into the same ``grads``; a later ``backward()`` that reaches a
        released node raises ``RuntimeError`` before it adds anything.
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
            if node._parents is None:
                raise RuntimeError(f"backward() reached a {node.op!r} node whose graph an "
                                 "earlier backward() consumed")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        # pass-local accumulators keep a later backward() exact.  A first
        # contribution is stored as returned (it may alias g); the second
        # is summed into a fresh buffer the pass owns, and later ones are
        # added into that buffer in place, in the same order and dtype.
        # Popping the order list drops the walk's own reference to each
        # node as it is done with it.
        local: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        owned: set[int] = set()
        while topo:
            node = topo.pop()
            g = local.pop(id(node), None)
            if node._parents == ():  # leaf: fold into the caller's accumulator
                if g is not None:
                    acc = grads.get(node)
                    grads[node] = g if acc is None else acc + g
                continue
            if g is not None:
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
            node._parents = node._backward = None  # released: its graph is consumed

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


def _zero_safe_quotient(g: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """``g / dist`` where ``dist > 0`` and +0.0 where ``dist == 0``.

    ``dist`` is a norm, so never negative, and never NaN here: the
    forward's finite check raised first.  Adding the ``dist == 0`` mask
    leaves every positive entry exact, and the masked copy writes the
    zeros: bitwise what two data-dependent ``np.where`` selections give,
    in less time (1.9-2.4 against 2.8 ms on (3000, 14, 14) float32 with
    padded channels, one core of a 2-vCPU machine).
    """
    zero = dist == 0
    scale = g / (dist + zero)
    np.copyto(scale, 0.0, where=zero)
    return scale


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
    segments the segments are summed whole instead.  With ``idx``
    non-decreasing (``pack_graph`` sorts edges by kind) each segment is
    one block of rows, and ``np.add.reduce`` over axis 0 adds a block's
    rows one after another, each column on its own, which added into the
    +0.0 row is ``np.add.at``'s sum (0.3 against 11.2 ms for (2 662,
    256) float32 rows into 5 kinds, one core of a 2-vCPU machine).  That
    needs more than one value per row: over a 1-D block the reduce sums
    pairwise, so 1-D rows and unsorted indices go to ``np.add.at``.
    """
    out = np.zeros((n,) + rows.shape[1:], dtype=rows.dtype)
    if idx.size == 0:
        return out
    counts = np.bincount(idx, minlength=n)
    segs = np.flatnonzero(counts)
    if counts.max() > segs.size:
        if rows[0].size > 1 and np.all(idx[:-1] <= idx[1:]):
            rows = np.ascontiguousarray(rows)  # axis 0 outermost: one row at a time
            ends = np.cumsum(counts)
            for s in segs:
                out[s] += np.add.reduce(rows[ends[s] - counts[s]:ends[s]], axis=0)
        else:
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

    The numerator is ``max(e, x >= 0)``: since ``e <= 1`` it is exactly
    1.0 where ``x >= 0`` and ``e`` elsewhere, so one division serves both
    branches.  A ``np.where`` between the two quotients would cost more
    than the rest of the function, because its mask depends on the data
    (on (3000, 256) float32, 20 against 3 ms on one core of a 2-vCPU
    machine).
    """
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0, dtype=x.dtype) / (1.0 + e)


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


# -- fused layers -----------------------------------------------------------


def _fused(op: str, terms, b: Tensor, act, layer2=None) -> Tensor:
    """``act(t_1 + ... + t_k + b)``, summed left to right into one buffer,
    then with ``layer2 = (w2, b2)`` mapped on by ``@ w2 + b2``.

    A term is ``(a, index)``, the rows ``a[index]`` as ``gather_rows``
    takes them, or ``(x, w)`` with ``w`` a Tensor, the product ``x @ w``.
    Adding in place gives the bits that adding into fresh arrays gives,
    and ``_sigmoid``/``np.maximum`` are the unfused ops' own, so output
    and gradients are bitwise those of the composition of ``gather_rows``
    or ``matmul`` per term, one ``add`` per ``+``, the activation and,
    with ``layer2``, one more ``matmul`` and ``add``.  The parents are
    each term's operands in order, then ``b``, then ``w2`` and ``b2``:
    the tape walk then reaches every parent when the unfused graph's walk
    did, and folds each bias's gradient before its layer's other ones, as
    the outermost ``add`` of that layer did.

    The tape keeps only what backward reads besides the parents and the
    output: the hidden layer ``act(...)`` for relu or no activation (one
    layer: it is the output), the pre-activation for silu, whose hidden
    layer backward recomputes as ``pre * s`` from the sigmoid ``s`` it
    recomputes anyway.  The pre-activation is checked finite as well as
    the output, since relu maps -inf to 0.
    """
    if act not in (None, "silu", "relu"):
        raise ValueError(f"{op}: unknown activation {act!r}")
    parts, parents = [], []
    for a, second in terms:
        if isinstance(second, Tensor):
            _check_product(op, a.shape, second.shape)
            parts.append((a, second))
            parents += (a, second)
        else:
            idx = np.asarray(second, dtype=np.int64)
            if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= a.shape[0])):
                raise ShapeError(f"{op}: bad row index for {a.shape[0]} rows")
            parts.append((a, idx))
            parents.append(a)
    parents = (*parents, b, *(layer2 or ()))
    _check_dtypes(op, *parents)

    pre = None
    for a, second in parts:
        term = np.matmul(a.data, second.data) if isinstance(second, Tensor) else a.data[second]
        if pre is None:
            pre = term  # a fresh buffer either way
        elif term.shape != pre.shape:
            raise ShapeError(f"{op}: term shapes {pre.shape} and {term.shape} differ")
        else:
            np.add(pre, term, out=pre)
    _add_bias(op, pre, b)
    if act is not None and not np.all(np.isfinite(pre)):
        raise NumericsError(f"{op}: non-finite pre-activation")
    if act == "silu":
        s = _sigmoid(pre)
        hidden = np.multiply(pre, s, out=s)
    elif act == "relu":
        hidden = np.maximum(pre, 0.0, out=pre)  # hidden > 0 exactly where pre > 0
        pre = None
    else:
        hidden, pre = pre, None
    if layer2 is None:
        out = hidden
    else:
        w2, b2 = layer2
        _check_product(op, hidden.shape, w2.shape)
        out = np.matmul(hidden, w2.data)
        _add_bias(op, out, b2)
        if act == "silu":
            hidden = None  # recomputed in backward

    def backward(g):
        grads = []
        if act == "silu":
            s = _sigmoid(pre)
        if layer2 is not None:
            w2, b2 = layer2
            h = pre * s if act == "silu" else hidden
            grads += [(b2, _unbroadcast(g, b2.shape)),
                      (w2, _unbroadcast(np.matmul(np.swapaxes(h, -1, -2), g), w2.shape))]
            g = _unbroadcast(np.matmul(g, np.swapaxes(w2.data, -1, -2)), h.shape)
            del h
        if act == "silu":
            g = g * s * (1.0 + pre * (1.0 - s))
        elif act == "relu":
            g = g * (hidden > 0)
        grads.append((b, _unbroadcast(g, b.shape)))
        for a, second in parts:
            if isinstance(second, Tensor):
                grads.append((a, _unbroadcast(np.matmul(g, np.swapaxes(second.data, -1, -2)),
                                              a.shape)))
                grads.append((second, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g),
                                                   second.shape)))
            else:
                grads.append((a, _scatter_add(second, g, a.shape[0])))
        return grads

    return _result(op, out, parents, backward)


def _check_product(op: str, x_shape, w_shape) -> None:
    if len(x_shape) < 2 or len(w_shape) < 2 or x_shape[-1] != w_shape[-2]:
        raise ShapeError(f"{op}: cannot multiply {x_shape} @ {w_shape}")


def _add_bias(op: str, pre: np.ndarray, b: Tensor) -> None:
    try:
        np.add(pre, b.data, out=pre)
    except ValueError:
        raise ShapeError(f"{op}: bias {b.shape} does not broadcast to {pre.shape}") from None


def dense(x: Tensor, w: Tensor, b: Tensor, act: str | None = None) -> Tensor:
    """``act(x @ w + b)`` as one op, bitwise ``matmul``, ``add`` and the
    activation (``None``, ``"silu"`` or ``"relu"``); see ``_fused``."""
    return _fused("dense", ((x, w),), b, act)


def mlp(terms, b1: Tensor, w2: Tensor, b2: Tensor, act: str | None = None) -> Tensor:
    """The two-layer MLP ``act(t_1 + ... + t_k + b1) @ w2 + b2`` as one op,
    its first layer a sum of gathered rows ``(a, index)`` and products
    ``(x, w)``: bitwise the gathers, products, adds, activation and
    ``dense`` it fuses, with no hidden layer on the tape under silu; see
    ``_fused``."""
    return _fused("mlp", terms, b1, act, (w2, b2))


# -- fused geometry ---------------------------------------------------------
#
# The encoder's two per-edge geometric steps, each one op whose tape holds
# its inputs (tensors already on the tape), its output and at most a
# per-edge scalar; backward recomputes the (E, c, c) and (E, 3, c)
# intermediates.  Each op mirrors the unfused chain it replaces: the same
# numpy expressions on the same layouts, so output and every gradient are
# bitwise the chain's, and parents listed so that the tape walk reaches
# them in the order the chain's own nodes led it there.


def _channel_distances(X_dst: np.ndarray, X_src: np.ndarray):
    """The x, y and z planes of ``X_dst[:, :, p] - X_src[:, :, q]``, each
    (E, c, c), and the distances ``sqrt((dx*dx + dy*dy) + dz*dz)``: the
    three-term sum over the coordinate axis in numpy's order, without the
    (E, 3, c, c) difference array."""
    diff = [X_dst[:, k, :, None] - X_src[:, k, None, :] for k in range(3)]
    sq = diff[0] * diff[0]
    sq += diff[1] * diff[1]
    sq += diff[2] * diff[2]
    return diff, np.sqrt(sq, out=sq)


def _check_index(op: str, idx, size: int, length: int) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != (length,) or (length and (idx.min() < 0 or idx.max() >= size)):
        raise ShapeError(f"{op}: index of shape {idx.shape} does not address {length} rows "
                         f"among {size}")
    return idx


def normalized_flat_relation(X_dst: Tensor, X_src: Tensor, A_nodes: Tensor, dst, src,
                             eps: float) -> Tensor:
    """Per edge e, ``R = A[dst]^T D A[src]`` divided by its Frobenius norm
    plus ``eps`` and flattened: (E, d_A * d_A).

    ``X_dst``, ``X_src``: (E, 3, c) coordinates of each edge's receiver
    and sender, as gathered from the node coordinates; ``A_nodes``:
    (n, c, d_A) attribute rows per node and channel, gathered here by
    ``dst`` and ``src``; ``D`` (E, c, c) holds the channel distances.
    The chain it fuses is ``gather_rows`` of both attribute blocks, the
    pairwise distances, ``transpose``, two ``matmul``, the Frobenius
    norm, ``+ eps``, ``div`` and ``reshape``.  A zero distance gets
    gradient +0.0 (the two channels coincide and move together), and so
    does a zero norm (a self-pair, whose output is exactly 0).

    The tape keeps the output and the (E, 1, 1) norm.  The relation's
    attribute gradients go to ``A_nodes`` as two scatters, one per end;
    the coordinate gradients go to ``X_dst`` and ``X_src``, not to the
    node coordinates, so that each adds to the coordinate branch's
    gradient of the same tensor before its one scatter, as in the chain.
    Layers whose coordinates need no gradient (the first) skip them.
    """
    op = "normalized_flat_relation"
    _check_dtypes(op, X_dst, X_src, A_nodes)
    if X_dst.ndim != 3 or X_dst.shape[1] != 3 or X_src.shape != X_dst.shape:
        raise ShapeError(f"{op}: coordinates must be two (E, 3, c) arrays, "
                         f"got {X_dst.shape} and {X_src.shape}")
    E, _, c = X_dst.shape
    if c == 0:
        raise ShapeError(f"{op}: zero channels")
    if A_nodes.ndim != 3 or A_nodes.shape[1] != c:
        raise ShapeError(f"{op}: attribute rows {A_nodes.shape} do not match {c} channels")
    n, d_A = A_nodes.shape[0], A_nodes.shape[2]
    dst, src = (_check_index(op, idx, n, E) for idx in (dst, src))
    eps = np.asarray(eps, dtype=X_dst.dtype)

    def relation():
        A_dst, A_src = A_nodes.data[dst], A_nodes.data[src]
        diff, D = _channel_distances(X_dst.data, X_src.data)
        T = np.matmul(A_dst.transpose(0, 2, 1), D)
        return A_dst, A_src, diff, D, T, np.matmul(T, A_src)

    with np.errstate(invalid="ignore", over="ignore"):  # any NaN or inf reaches the norm
        R = relation()[-1]
        norm = np.sqrt(np.sum(R * R, axis=(-2, -1), keepdims=True))
    if not np.all(np.isfinite(norm)):
        raise NumericsError(f"{op}: non-finite relation norm")
    out = (R / (norm + eps)).reshape(E, d_A * d_A)

    def backward(g):
        A_dst, A_src, diff, D, T, R = relation()
        g = g.reshape(R.shape)
        denom = norm + eps
        g_norm = _unbroadcast(-g * R / (denom * denom), norm.shape)
        g_R = g / denom + _zero_safe_quotient(g_norm, norm) * R
        g_T = np.matmul(g_R, np.swapaxes(A_src, -1, -2))
        grads = [(A_nodes, _scatter_add(dst, np.matmul(g_T, np.swapaxes(D, -1, -2))
                                        .transpose(0, 2, 1), n)),
                 (A_nodes, _scatter_add(src, np.matmul(np.swapaxes(T, -1, -2), g_R), n))]
        if X_dst.requires_grad or X_src.requires_grad:
            scale = _zero_safe_quotient(np.matmul(A_dst, g_T), D)
            g_dst, g_src = np.empty_like(X_dst.data), np.empty_like(X_src.data)
            for k, d in enumerate(diff):
                gd = np.multiply(scale, d, out=d)
                np.sum(gd, axis=-1, out=g_dst[:, k])
                np.negative(gd.sum(axis=-2), out=g_src[:, k])
            grads += [(X_dst, g_dst), (X_src, g_src)]
        return grads

    return _result(op, out, (X_dst, X_src, A_nodes), backward)


def coordinate_message(X_dst: Tensor, centroid: Tensor, s: Tensor, pool, recv,
                       weight: Tensor, kind, dst, n: int) -> Tensor:
    """Sum over each receiver's edges of ``weight[kind] * (X_dst -
    centroid) diag(s @ pool[recv])``: (n, 3, C).

    ``X_dst``: (E, 3, C) receiver coordinates of each edge; ``centroid``:
    (E, 3) its sender's centroid; ``s``: (E, C) per-channel signal;
    ``pool``: (C + 1, C, C) constant table of pooling matrices, one per
    channel count, and ``recv``: (E,) the row of it each edge reads;
    ``weight``: one scalar per relation kind, ``kind``: (E,) the edge's
    kind; edge e adds into row ``dst[e]`` of the n rows.  The chain it
    fuses is ``sub`` of the reshaped centroid, ``matmul`` of the
    reshaped signal by the gathered pooling matrices ``pool[recv]``, two
    ``mul`` (the pooled scale, then the gathered and reshaped kind
    weight) and ``segment_sum``.  The tape keeps the output and the
    (E, 1, 1) kind weight: the gathered matrices, the relative
    coordinates, the pooled scale and the message are recomputed in
    backward, and the table is read where it lies, not copied.
    """
    op = "coordinate_message"
    _check_dtypes(op, X_dst, centroid, s, weight)
    if X_dst.ndim != 3 or X_dst.shape[1] != 3:
        raise ShapeError(f"{op}: coordinates must be (E, 3, C), got {X_dst.shape}")
    E, _, C = X_dst.shape
    pool = np.asarray(pool)
    if centroid.shape != (E, 3) or s.shape != (E, C) or pool.shape != (C + 1, C, C):
        raise ShapeError(f"{op}: centroids {centroid.shape}, signal {s.shape} and pooling "
                         f"table {pool.shape} do not fit coordinates {X_dst.shape}")
    if pool.dtype != X_dst.dtype:
        raise TypeError(f"{op}: pooling matrices are {pool.dtype.name}, "
                        f"coordinates {X_dst.dtype.name}")
    if weight.ndim != 1:
        raise ShapeError(f"{op}: weights must be one per kind, got {weight.shape}")
    recv = _check_index(op, recv, C + 1, E)
    kind = _check_index(op, kind, weight.shape[0], E)
    dst = _check_index(op, dst, n, E)
    w_edge = weight.data[kind].reshape(E, 1, 1)

    def message():
        P = pool[recv]
        X_rel = X_dst.data - centroid.data.reshape(E, 3, 1)
        pooled = np.matmul(s.data.reshape(E, 1, C), P)
        return P, X_rel, pooled, X_rel * pooled

    def backward(g):
        P, X_rel, pooled, M = message()
        g = g[dst]
        g_M = g * w_edge
        g_X = g_M * pooled
        g_s = np.matmul(_unbroadcast(g_M * X_rel, pooled.shape), np.swapaxes(P, -1, -2))
        g_w = _unbroadcast(g * M, w_edge.shape).reshape(E)
        return ((X_dst, g_X), (centroid, _unbroadcast(-g_X, (E, 3, 1)).reshape(E, 3)),
                (s, g_s.reshape(E, C)), (weight, _scatter_add(kind, g_w, weight.shape[0])))

    with np.errstate(invalid="ignore", over="ignore"):  # any NaN or inf reaches the output
        out = _scatter_add(dst, message()[3] * w_edge, n)
    return _result(op, out, (X_dst, centroid, s, weight), backward)


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


def batch_norm(a: Tensor, gamma: Tensor, beta: Tensor, stats=None,
               eps: float = 1e-5) -> tuple[Tensor, tuple[np.ndarray, np.ndarray]]:
    """Normalize features over axis 0 (rows are the batch).

    Without ``stats`` the (biased) batch statistics normalize, and the
    gradient flows through them.  With ``stats`` a fixed (mean, var)
    pair, the output is a fixed affine map of the input.  Returns the
    output and the (mean, var) it normalized by; nothing is written.
    """
    if a.ndim != 2:
        raise ShapeError(f"batch_norm: expected 2-D input, got {a.shape}")
    if stats is None:
        mu = a.data.mean(axis=0)
        var = a.data.var(axis=0)
    else:
        mu = stats[0].astype(a.dtype)
        var = stats[1].astype(a.dtype)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv
    out = gamma.data * xhat + beta.data

    def backward(g):
        dgamma = (g * xhat).sum(axis=0)
        dbeta = g.sum(axis=0)
        dxhat = g * gamma.data
        if stats is None:
            n = a.shape[0]
            dx = (inv / n) * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
        else:
            dx = dxhat * inv
        return ((a, dx), (gamma, dgamma), (beta, dbeta))

    return _result("batch_norm", out, (a, gamma, beta), backward), (mu, var)


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
