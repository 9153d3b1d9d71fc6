import numpy as np
import pytest

import hemenet.verify
from hemenet.datasets import TASKS, SyntheticConfig, generate_synthetic
from hemenet.graph import GraphConfig
from hemenet.model import HeMeNetConfig, init_params
from hemenet.numcore import Tensor, gather_rows, matmul, relu, silu
from hemenet.train import prepare_data

SMALL_DIMS = {"ec": 8, "mf": 8, "bp": 8, "cc": 8}

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
