import numpy as np
import pytest
from hypothesis import settings

import hemenet.verify
from hemenet.datasets import TASKS, SyntheticConfig, generate_synthetic
from hemenet.graph import GraphConfig
from hemenet.model import HeMeNetConfig, init_params
from hemenet.numcore import (Tensor, gather_rows, matmul, mul, relu, reshape, segment_sum,
                             silu)
from hemenet.numcore.tensor import _check_dtypes, _result, _unbroadcast, _zero_safe_quotient
from hemenet.train import prepare_data

SMALL_DIMS = {"ec": 8, "mf": 8, "bp": 8, "cc": 8}

# every property test draws the same examples on every run and machine,
# so one commit has one tier-1 verdict; each test keeps its max_examples
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

# one line per numbered criterion, filled in by test_acceptance.py
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# numcore's fused layers as the separate ops they fuse, kept as references
UNFUSED_ACTIVATIONS = {None: lambda t: t, "silu": silu, "relu": relu}


def unfused_gathered_sum(terms, b, act=None):
    total = None
    for a, second in terms:
        term = matmul(a, second) if isinstance(second, Tensor) else gather_rows(a, second)
        total = term if total is None else total + term
    return UNFUSED_ACTIVATIONS[act](total + b)


def unfused_dense(x, w, b, act=None):
    return UNFUSED_ACTIVATIONS[act](matmul(x, w) + b)


# numcore's fused geometry ops as the chains of separate ops they replace,
# kept as references: the distance and norm ops as they were in numcore,
# the relation extractor and the channel scaler as they were in geom


def pairwise_distance(a, b):
    """Euclidean distances between column sets: (..., 3, P), (..., 3, Q)
    -> (..., P, Q).  Zero distances get zero gradient."""
    _check_dtypes("pairwise_distance", a, b)
    diff = a.data[..., :, :, None] - b.data[..., :, None, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-3))

    def backward(g):
        scale = _zero_safe_quotient(g, dist)
        gd = scale[..., None, :, :] * diff
        ga = _unbroadcast(gd.sum(axis=-1), a.shape)
        gb = _unbroadcast(-gd.sum(axis=-2), b.shape)
        return ((a, ga), (b, gb))

    return _result("pairwise_distance", dist, (a, b), backward)


def frobenius_norm(a, axes=None, keepdims=False):
    """sqrt of the sum of squares over ``axes``; zero gradient at a zero
    norm."""
    if axes is not None and not isinstance(axes, tuple):
        axes = (axes,)
    norm = np.sqrt(np.sum(a.data * a.data, axis=axes, keepdims=keepdims))

    def backward(g):
        n = norm if keepdims or axes is None else np.expand_dims(norm, axes)
        gg = g if keepdims or axes is None else np.expand_dims(g, axes)
        return ((a, _zero_safe_quotient(gg, n) * a.data),)

    return _result("frobenius_norm", norm, (a,), backward)


def relation_extract(X_i, X_j, A_i, A_j):
    """A_i^T D_ij A_j: (..., 3, c_i), (..., 3, c_j), (..., c_*, d_A) ->
    (..., d_A, d_A)."""
    D = pairwise_distance(X_i, X_j)
    axes = tuple(range(A_i.ndim - 2)) + (A_i.ndim - 1, A_i.ndim - 2)
    return matmul(matmul(A_i.transpose(axes), D), A_j)


def unfused_normalized_flat_relation(X_dst, X_src, A_nodes, dst, src, eps):
    R = relation_extract(X_dst, X_src, gather_rows(A_nodes, dst), gather_rows(A_nodes, src))
    d_A = R.shape[-1]
    norm = frobenius_norm(R, axes=(-2, -1), keepdims=True)
    return reshape(R / (norm + eps), R.shape[:-2] + (d_A * d_A,))


def message_scale(X, s, P):
    """X diag(s P): (..., 3, C) coordinates, (..., C) signal, (..., C, C)
    pooling matrices, copied onto the tape as a constant Tensor."""
    C = s.shape[-1]
    return mul(X, matmul(reshape(s, s.shape[:-1] + (1, C)), Tensor(P)))


def unfused_coordinate_message(X_dst, centroid, s, pool, recv, weight, kind, dst, n):
    E = len(dst)
    M = message_scale(X_dst - reshape(centroid, (E, 3, 1)), s, pool[recv])
    return segment_sum(mul(M, reshape(gather_rows(weight, kind), (E, 1, 1))), dst, n)


def _float_arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _float_arrays(item)


def tape_arrays(root):
    """Every array the tape under ``root`` holds, op by op: its output
    and each array its backward keeps.  Leaves are not the tape's."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or node.op == "leaf":
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        yield node.data
        if node._backward is not None:
            for cell in node._backward.__closure__ or ():
                yield from _float_arrays(cell.cell_contents)


def tape_float_values(root, constants=()) -> int:
    """Float values the tape under ``root`` holds: every op's output and
    every array its backward keeps, each buffer once (a view counts as
    the buffer it views).  Leaves, parameters and constants, are not the
    tape's and are not counted, nor are the graph's arrays in
    ``constants`` that a backward reads where they lie (``pg.pool``, the
    pooling table every graph shares: the coordinate message gathers its
    rows again in backward rather than keep them)."""
    def buffer(arr):
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        return arr

    skip = {id(buffer(arr)) for arr in constants}
    sizes = {}
    for arr in map(buffer, tape_arrays(root)):
        if arr.dtype.kind == "f" and id(arr) not in skip:
            sizes[id(arr)] = arr.size
    return sum(sizes.values())


def every_pool(scopes, tasks=TASKS):
    """Pools of every chain for every task in ``tasks``, as the readout
    pooled before each sample's labels chose its pools: the whole graph
    for an affinity, every chain in sorted order for a property task."""
    chains = tuple(sorted(k for k in scopes if k))
    return {t: ("",) if t in ("lba", "ppa") else chains for t in tasks}


@pytest.fixture(scope="session")
def small_cfg64():
    return HeMeNetConfig(L=2, d=16, task_dims=SMALL_DIMS, dtype="float64")


@pytest.fixture(scope="session")
def small_store64(small_cfg64):
    return init_params(small_cfg64, seed=11)


@pytest.fixture(scope="session")
def synthetic_samples():
    return generate_synthetic(SyntheticConfig(n_samples=8, seed=3))


@pytest.fixture(scope="session")
def synthetic_data64(synthetic_samples):
    return prepare_data(synthetic_samples, GraphConfig(), np.float64)


@pytest.fixture
def coord_leak(monkeypatch):
    """Negative control for the symmetry suites: the encoder they run adds
    each node's summed absolute coordinates to its features, which breaks
    pose invariance."""
    encode = hemenet.verify.encode

    def leaky(pg, store, cfg, batch_stats=None):
        H, X = encode(pg, store, cfg, batch_stats)
        return H + Tensor(pg.X0.sum(axis=(1, 2))[:, None], dtype=H.dtype), X

    monkeypatch.setattr(hemenet.verify, "encode", leaky)
