"""Heterogeneous multi-channel E(3)-equivariant network.

Encoder: per relation kind, invariant messages built from node features
and the normalized relation matrix of the two coordinate sets, plus
equivariant messages that rescale receiver channels around the sender
centroid (``geom.message_scale``).  Feature updates aggregate
relation-wise through learnable matrices in one path: messages are
summed into (relation, receiver) buckets and each relation's bucket
goes through its own W_r; ``homogeneous`` is that path with a single
relation.  Coordinate updates average relation-scaled equivariant
messages.  Node features stay E(3)-invariant throughout, coordinates
transform with the input pose.

Readout: per-task attention over the concatenated layer outputs
(task-aware), or plain sum, or task-prompt weighted sum.  The
task-aware keys and values are projected once per graph and gathered
per (task, scope) pool; ``task_aware_readout`` states the numerics.
Six task heads map the pooled feature to predictions: two affinity
scalars and four per-chain multi-label probability vectors.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import geom
from .datasets import PAPER_TASK_DIMS, PROPERTY_TASKS, TASKS
from .errors import ConfigError, DataError
from .graph import N_RELATIONS, HeteroGraph, RelationKind, chain_masks
from .numcore import (
    ParamStore,
    Tensor,
    atomic_open,
    batch_norm,
    load_store,
    save_store,
    concat,
    gather_rows,
    glorot_uniform,
    layer_norm,
    matmul,
    mul,
    relu,
    reshape,
    segment_sum,
    sigmoid,
    silu,
    softmax,
    transpose,
    tsum,
    unit_rows,
)
from .structio import ELEMENTS, MAX_CHANNELS, RESIDUE_TYPES

N_NODE_TYPES = len(RESIDUE_TYPES) + len(ELEMENTS)  # residues, then elements
_LIGAND_OFFSET = len(RESIDUE_TYPES)

# test hook: when true, absolute coordinates contaminate the initial
# node features, deliberately breaking pose invariance
_coord_leak = False


class coord_leak:
    """Context manager enabling the coordinate-leak negative control."""

    def __enter__(self):
        global _coord_leak
        self._old = _coord_leak
        _coord_leak = True
        return self

    def __exit__(self, *exc):
        global _coord_leak
        _coord_leak = self._old
        return False


@dataclass(frozen=True)
class HeMeNetConfig:
    L: int = 6
    d: int = 256
    heads: int = 4
    readout: str = "task_aware"  # sum | weighted_prompt
    relations: str = "hetero"  # homogeneous shares one W_r/w_r/e_r set
    norm: str = "batch"  # batch | layer
    act: str = "silu"  # silu | relu
    e_r_width: int = 16
    d_A: int = 16
    eps: float = 1e-8
    task_dims: dict = field(default_factory=lambda: dict(PAPER_TASK_DIMS))
    dtype: str = "float32"  # verification suites run float64

    def __post_init__(self):
        if self.L < 1:
            raise ConfigError(f"need at least one layer, got L={self.L}")
        for name in ("d", "heads", "d_A", "e_r_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} not divisible by heads={self.heads}")
        if self.readout not in ("task_aware", "sum", "weighted_prompt"):
            raise ConfigError(f"unknown readout {self.readout!r}")
        if self.relations not in ("hetero", "homogeneous"):
            raise ConfigError(f"unknown relation mode {self.relations!r}")
        if self.norm not in ("batch", "layer"):
            raise ConfigError(f"unknown norm {self.norm!r}")
        if self.act not in ("silu", "relu"):
            raise ConfigError(f"unknown activation {self.act!r}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"unknown dtype {self.dtype!r}")
        if not self.eps > 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        missing = [t for t in PROPERTY_TASKS if t not in self.task_dims]
        if missing:
            raise ConfigError(f"task_dims missing {missing}")

    @property
    def d_L(self) -> int:
        return self.L * self.d

    @property
    def n_relations(self) -> int:
        return 1 if self.relations == "homogeneous" else N_RELATIONS

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


# -- parameter initialization -------------------------------------------------


def init_params(cfg: HeMeNetConfig, seed: int) -> ParamStore:
    rng = np.random.default_rng(seed)
    dt = cfg.np_dtype
    store = ParamStore(dt)

    store.add("embed.node", unit_rows(rng, (N_NODE_TYPES, cfg.d), dt))
    store.add("embed.edge", unit_rows(rng, (cfg.n_relations, cfg.e_r_width), dt))
    store.add("geom.attr", unit_rows(rng, (len(ELEMENTS), cfg.d_A), dt))

    def mlp(prefix, d_in, d_hidden, d_out):
        store.add(f"{prefix}.w1", glorot_uniform(rng, (d_in, d_hidden), dt))
        store.add(f"{prefix}.b1", np.zeros(d_hidden, dt))
        store.add(f"{prefix}.w2", glorot_uniform(rng, (d_hidden, d_out), dt))
        store.add(f"{prefix}.b2", np.zeros(d_out, dt))

    d, R = cfg.d, cfg.n_relations
    msg_in = d + d + cfg.d_A * cfg.d_A + cfg.e_r_width
    for l in range(cfg.L):
        p = f"layers.{l}"
        mlp(f"{p}.phi_m", msg_in, d, d)
        mlp(f"{p}.phi_x", d, d, MAX_CHANNELS)
        mlp(f"{p}.phi_h", d, d, d)
        store.add(f"{p}.rel_weight", glorot_uniform(rng, (R, d, d), dt))
        store.add(f"{p}.rel_scale", np.ones(R, dt))
        store.add(f"{p}.norm.gamma", np.ones(d, dt))
        store.add(f"{p}.norm.beta", np.zeros(d, dt))
        if cfg.norm == "batch":
            store.add_state(f"{p}.norm.mean", np.zeros(d, dt))
            store.add_state(f"{p}.norm.var", np.ones(d, dt))

    d_L = cfg.d_L
    if cfg.readout == "task_aware":
        store.add("readout.W_K", glorot_uniform(rng, (d_L, d_L), dt))
        store.add("readout.W_V", glorot_uniform(rng, (d_L, d_L), dt))
        store.add("readout.W_Q", glorot_uniform(rng, (d_L, d_L), dt))
        store.add("readout.b", np.zeros(d_L, dt))
        for task in TASKS:
            store.add(f"readout.query.{task}",
                      unit_rows(rng, (cfg.heads, d_L // cfg.heads), dt))
        store.add("readout.ffn.ln_gamma", np.ones(d_L, dt))
        store.add("readout.ffn.ln_beta", np.zeros(d_L, dt))
        mlp("readout.ffn", d_L, d_L, d_L)
    elif cfg.readout == "weighted_prompt":
        for task in TASKS:
            store.add(f"readout.prompt.{task}", unit_rows(rng, (d_L,), dt))

    for task in TASKS:
        out = 1 if task in ("lba", "ppa") else cfg.task_dims[task]
        mlp(f"head.{task}", d_L, d, out)
    return store


# -- graph packing ------------------------------------------------------------


@dataclass
class PackedGraph:
    """Per-graph constant arrays, built once and reused for every pass."""
    complex_id: str
    n: int
    X0: np.ndarray  # (n, 3, C) zero-padded
    mask: np.ndarray  # (n, C)
    type_idx: np.ndarray  # (n,) embedding row per node
    elem_idx: np.ndarray  # (n, C) attribute row per channel, 0 at padding
    src: np.ndarray  # (E,)
    dst: np.ndarray  # (E,)
    kind: np.ndarray  # (E,) RelationKind values
    kind_pos: list  # per relation, positions into the edge arrays (bench/run.py)
    pool: np.ndarray  # (E, C, C) geom.padded_pooling of the receiver
    deg: np.ndarray  # (n,) total incoming edges over all relations
    scopes: dict  # chain_id -> node index array; "" -> all nodes
    dtype: np.dtype


def pack_graph(g: HeteroGraph, dtype=np.float64) -> PackedGraph:
    dtype = np.dtype(dtype)
    n = g.n_nodes
    X0 = np.zeros((n, 3, MAX_CHANNELS), dtype=dtype)
    mask = np.zeros((n, MAX_CHANNELS), dtype=dtype)
    type_idx = np.zeros(n, dtype=np.int64)
    elem_idx = np.zeros((n, MAX_CHANNELS), dtype=np.int64)
    for node in g.nodes:
        c = node.channels
        X0[node.index, :, :c] = node.X
        mask[node.index, :c] = 1.0
        elem_idx[node.index, :c] = node.channel_elements
        if node.kind == "residue":
            type_idx[node.index] = RESIDUE_TYPES.index(node.label)
        else:
            type_idx[node.index] = _LIGAND_OFFSET + ELEMENTS.index(node.label)

    pairs = [np.asarray(g.edges.get(rk, ()), dtype=np.int64).reshape(-1, 2)
             for rk in RelationKind]
    src = np.concatenate([p[:, 0] for p in pairs])
    dst = np.concatenate([p[:, 1] for p in pairs])
    kind = np.repeat(np.arange(N_RELATIONS, dtype=np.int64), [len(p) for p in pairs])
    kind_pos = [np.flatnonzero(kind == int(rk)) for rk in RelationKind]

    counts = mask.sum(axis=1).astype(int)
    pool = geom.padded_pooling(counts[dst], dtype)
    deg = np.bincount(dst, minlength=n).astype(dtype)

    scopes = {"": np.arange(n, dtype=np.int64)}
    for cid, idx in chain_masks(g).items():
        scopes[cid] = np.asarray(idx, dtype=np.int64)
    return PackedGraph(g.complex_id, n, X0, mask, type_idx, elem_idx,
                       src, dst, kind, kind_pos, pool, deg, scopes, dtype)


# -- forward pass -------------------------------------------------------------


_ACTIVATIONS = {"silu": silu, "relu": relu}


def _mlp_apply(store: ParamStore, prefix: str, x: Tensor, act: str = "silu") -> Tensor:
    h = _ACTIVATIONS[act](matmul(x, store[f"{prefix}.w1"]) + store[f"{prefix}.b1"])
    return matmul(h, store[f"{prefix}.w2"]) + store[f"{prefix}.b2"]


def layer_forward(pg: PackedGraph, h: Tensor, X: Tensor, store: ParamStore,
                  cfg: HeMeNetConfig, layer: int, train: bool = False) -> tuple[Tensor, Tensor]:
    """One round of relational message passing: returns updated (h, X)."""
    p = f"layers.{layer}"
    E = len(pg.src)
    h_dst = gather_rows(h, pg.dst)
    h_src = gather_rows(h, pg.src)
    X_dst = gather_rows(X, pg.dst)
    X_src = gather_rows(X, pg.src)

    attr = store["geom.attr"]
    A_nodes = reshape(gather_rows(attr, pg.elem_idx.reshape(-1)),
                      (pg.n, MAX_CHANNELS, cfg.d_A))
    A_dst = gather_rows(A_nodes, pg.dst)
    A_src = gather_rows(A_nodes, pg.src)

    rel_flat = geom.normalized_flat_relation(
        X_dst, X_src, pg.mask[pg.dst], pg.mask[pg.src], A_dst, A_src, eps=cfg.eps)

    R = cfg.n_relations
    kind_idx = pg.kind if R > 1 else np.zeros(E, dtype=np.int64)
    e_feat = gather_rows(store["embed.edge"], kind_idx)

    m = _mlp_apply(store, f"{p}.phi_m", concat([h_dst, h_src, rel_flat, e_feat], axis=1), cfg.act)

    # invariant update: relation-wise aggregation through W_r
    per_rel = reshape(segment_sum(m, kind_idx * pg.n + pg.dst, R * pg.n), (R, pg.n, cfg.d))
    agg = tsum(matmul(per_rel, store[f"{p}.rel_weight"]), axis=0)
    z = _mlp_apply(store, f"{p}.phi_h", agg, cfg.act)
    gamma, beta = store[f"{p}.norm.gamma"], store[f"{p}.norm.beta"]
    if cfg.norm == "batch":
        running = {"mean": store.state[f"{p}.norm.mean"], "var": store.state[f"{p}.norm.var"]}
        z = batch_norm(z, gamma, beta, running, train=train)
        store.state[f"{p}.norm.mean"] = running["mean"]
        store.state[f"{p}.norm.var"] = running["var"]
    else:
        z = layer_norm(z, gamma, beta)
    h_new = h + _ACTIVATIONS[cfg.act](z)

    # equivariant update: scaled messages around the sender centroid
    centroid = geom.masked_centroid(X_src, pg.mask[pg.src])
    X_rel = X_dst - reshape(centroid, (E, 3, 1))
    s = _mlp_apply(store, f"{p}.phi_x", m, cfg.act)
    M = geom.message_scale(X_rel, s, pg.pool)
    w_edge = reshape(gather_rows(store[f"{p}.rel_scale"], kind_idx), (E, 1, 1))
    M = mul(M, w_edge)
    M = mul(M, Tensor(pg.mask[pg.dst][:, None, :], dtype=X.dtype))
    moved = segment_sum(M, pg.dst, pg.n)
    X_new = X + mul(moved, Tensor((1.0 / pg.deg)[:, None, None], dtype=X.dtype))
    return h_new, X_new


def encode(pg: PackedGraph, store: ParamStore, cfg: HeMeNetConfig,
           train: bool = False) -> tuple[Tensor, Tensor]:
    """Run all layers; returns (H, X_final) with H the per-node
    concatenation of every layer's feature output, width L*d."""
    h = gather_rows(store["embed.node"], pg.type_idx)
    if _coord_leak:
        leak = tsum(Tensor(pg.X0), axis=(1, 2), keepdims=False)
        h = h + reshape(leak, (pg.n, 1))
    X = Tensor(pg.X0)
    outs = []
    for l in range(cfg.L):
        h, X = layer_forward(pg, h, X, store, cfg, l, train=train)
        outs.append(h)
    H = outs[0] if cfg.L == 1 else concat(outs, axis=1)
    return H, X


# -- readouts -----------------------------------------------------------------


def _scope_array(scope) -> np.ndarray:
    idx = np.asarray(scope, dtype=np.int64)
    if idx.size == 0:
        raise DataError("readout scope is empty")
    return idx


def task_aware_readout(K: Tensor, V: Tensor, scope, task: str, store: ParamStore,
                       cfg: HeMeNetConfig) -> Tensor:
    """Attention pool of one task over one scope.

    ``K = H @ readout.W_K`` and ``V = H @ readout.W_V`` are projected
    once per graph (``readout_and_heads``), and every (task, scope) pool
    gathers its rows from them.  The BLAS GEMM computes each row of the
    product the same way whatever the other rows are (OpenBLAS 0.3.31;
    tests/test_model.py asserts it), so for scopes of two or more nodes
    the result is bitwise what projecting the scope's own rows gives, in
    float32 and float64.  A one-node scope differs by rounding (its
    one-row product used to be a gemv; about 2e-13 absolute in float64).
    The W_K/W_V gradients are one ``H^T dK`` instead of a sum of
    per-scope products, within 1e-12 of the global gradient norm in
    float64."""
    f, _ = task_aware_readout_with_attention(K, V, scope, task, store, cfg)
    return f


def task_aware_readout_with_attention(K: Tensor, V: Tensor, scope, task: str,
                                      store: ParamStore,
                                      cfg: HeMeNetConfig) -> tuple[Tensor, np.ndarray]:
    """Pooled task feature plus the full-length attention map
    (n, heads), exactly zero outside the scope; K and V as in
    ``task_aware_readout``."""
    idx = _scope_array(scope)
    d_L, heads = cfg.d_L, cfg.heads
    dh = d_L // heads
    ns = len(idx)
    K3 = transpose(reshape(gather_rows(K, idx), (ns, heads, dh)), (1, 0, 2))  # (heads, ns, dh)
    V3 = transpose(reshape(gather_rows(V, idx), (ns, heads, dh)), (1, 0, 2))
    q = store[f"readout.query.{task}"]  # (heads, dh)
    logits = matmul(K3, reshape(q, (heads, dh, 1))) * (1.0 / np.sqrt(dh))
    alpha = softmax(reshape(logits, (heads, ns)), axis=1)
    att = matmul(reshape(alpha, (heads, 1, ns)), V3)  # (heads, 1, dh)
    att_flat = reshape(att, (1, d_L))
    q_flat = reshape(q, (1, d_L))
    lin_q = matmul(q_flat, store["readout.W_Q"]) + store["readout.b"]
    x = att_flat + lin_q
    x = layer_norm(x, store["readout.ffn.ln_gamma"], store["readout.ffn.ln_beta"])
    f = reshape(_mlp_apply(store, "readout.ffn", x), (d_L,))

    full = np.zeros((K.shape[0], heads), dtype=K.dtype)
    full[idx, :] = alpha.numpy().T
    return f, full


def sum_readout(H: Tensor, scope) -> Tensor:
    idx = _scope_array(scope)
    return tsum(gather_rows(H, idx), axis=0)


def weighted_prompt_readout(H: Tensor, scope, task: str, store: ParamStore) -> Tensor:
    idx = _scope_array(scope)
    prompt = reshape(store[f"readout.prompt.{task}"], (1, -1))
    return tsum(mul(gather_rows(H, idx), prompt), axis=0)


def project_keys_values(H: Tensor, store: ParamStore) -> tuple[Tensor, Tensor]:
    """The task-aware readout's keys and values for every node of a graph."""
    return matmul(H, store["readout.W_K"]), matmul(H, store["readout.W_V"])


def _readout(H, KV, scope, task, store, cfg) -> Tensor:
    if cfg.readout == "task_aware":
        return task_aware_readout(*KV, scope, task, store, cfg)
    if cfg.readout == "weighted_prompt":
        return weighted_prompt_readout(H, scope, task, store)
    return sum_readout(H, scope)


# -- prediction ---------------------------------------------------------------


@dataclass
class PropPrediction:
    logits: Tensor  # (n_classes,)
    probs: Tensor  # (n_classes,), sigmoid of logits


@dataclass
class PredictionBundle:
    complex_id: str
    lba: Tensor | None = None
    ppa: Tensor | None = None
    props: dict = field(default_factory=dict)  # task -> chain_id -> PropPrediction

    def prop(self, task: str) -> dict:
        return self.props.get(task, {})


def _head(store: ParamStore, task: str, f: Tensor) -> Tensor:
    return reshape(_mlp_apply(store, f"head.{task}", reshape(f, (1, -1))), (-1,))


def readout_and_heads(H: Tensor, scopes: dict, tasks, store: ParamStore,
                      cfg: HeMeNetConfig, complex_id: str = "") -> PredictionBundle:
    """Pure function of H: pools per task scope and applies the heads.
    Consumes no coordinates, so output depends on the input pose only
    through H.  The task-aware readout's keys and values are projected
    here once for all (task, scope) pools."""
    bundle = PredictionBundle(complex_id=complex_id)
    KV = project_keys_values(H, store) if cfg.readout == "task_aware" else None
    chain_ids = sorted(k for k in scopes if k != "")
    for task in tasks:
        if task in ("lba", "ppa"):
            f = _readout(H, KV, scopes[""], task, store, cfg)
            out = _head(store, task, f)
            value = reshape(out, ())
            if task == "lba":
                bundle.lba = value
            else:
                bundle.ppa = value
        else:
            if not chain_ids:
                raise DataError(f"property task {task!r} requested on a chain-less graph")
            per_chain = {}
            for cid in chain_ids:
                f = _readout(H, KV, scopes[cid], task, store, cfg)
                logits = _head(store, task, f)
                per_chain[cid] = PropPrediction(logits=logits, probs=sigmoid(logits))
            bundle.props[task] = per_chain
    return bundle


def predict(g_or_pg, store: ParamStore, cfg: HeMeNetConfig, tasks=TASKS,
            train: bool = False) -> PredictionBundle:
    """Encode once, then read out and apply a head per requested task."""
    pg = g_or_pg if isinstance(g_or_pg, PackedGraph) else pack_graph(g_or_pg, cfg.np_dtype)
    bad = [t for t in tasks if t not in TASKS]
    if bad:
        raise ConfigError(f"unknown tasks {bad}")
    H, _ = encode(pg, store, cfg, train=train)
    return readout_and_heads(H, pg.scopes, tasks, store, cfg, pg.complex_id)


# -- prompt correlation -------------------------------------------------------


def prompt_correlation(store: ParamStore, cfg: HeMeNetConfig) -> np.ndarray:
    """Pearson correlation between task prompt vectors, 6x6, unit
    diagonal.  Zero-variance prompts correlate as 0 with a warning."""
    if cfg.readout == "task_aware":
        vecs = [store[f"readout.query.{t}"].numpy().reshape(-1) for t in TASKS]
    elif cfg.readout == "weighted_prompt":
        vecs = [store[f"readout.prompt.{t}"].numpy().reshape(-1) for t in TASKS]
    else:
        raise ConfigError("sum readout has no task prompts")
    n = len(TASKS)
    out = np.eye(n)
    centered = [v - v.mean() for v in vecs]
    norms = [np.linalg.norm(c) for c in centered]
    for i in range(n):
        for j in range(i + 1, n):
            if norms[i] == 0 or norms[j] == 0:
                warnings.warn(f"zero-variance prompt for {TASKS[i] if norms[i] == 0 else TASKS[j]}; "
                              "correlation reported as 0")
                r = 0.0
            else:
                r = float(np.dot(centered[i], centered[j]) / (norms[i] * norms[j]))
            out[i, j] = out[j, i] = r
    return out


# -- checkpoint + sidecar -----------------------------------------------------


def save_model(path, store: ParamStore, cfg: HeMeNetConfig,
               extra: dict | None = None) -> None:
    """Checkpoint plus JSON sidecar, each written atomically: the
    sidecar first and the binary last, so a save that fails leaves the
    previous binary in place."""
    sidecar = {
        "L": cfg.L, "d": cfg.d, "heads": cfg.heads, "readout": cfg.readout,
        "relations": cfg.relations, "norm": cfg.norm, "act": cfg.act,
        "e_r_width": cfg.e_r_width, "d_A": cfg.d_A, "eps": cfg.eps,
        "task_dims": dict(cfg.task_dims), "dtype": cfg.dtype,
    }
    if extra:
        sidecar.update(extra)
    with atomic_open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=1)
        fh.write("\n")
    save_store(path, store)


def load_model(path, expect: HeMeNetConfig | None = None):
    """Returns (store, cfg, sidecar).  With ``expect`` given, mismatched
    architecture fields raise ConfigError."""
    with open(str(path) + ".json", "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    cfg = HeMeNetConfig(
        L=sidecar["L"], d=sidecar["d"], heads=sidecar["heads"],
        readout=sidecar["readout"], relations=sidecar["relations"],
        norm=sidecar["norm"], act=sidecar.get("act", "silu"),
        e_r_width=sidecar["e_r_width"], d_A=sidecar["d_A"],
        eps=sidecar["eps"], task_dims=dict(sidecar["task_dims"]), dtype=sidecar["dtype"],
    )
    if expect is not None and cfg != expect:
        raise ConfigError(f"checkpoint config {cfg} does not match expected {expect}")
    store = load_store(path)
    return store, cfg, sidecar
