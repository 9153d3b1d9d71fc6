"""Heterogeneous multi-channel E(3)-equivariant network.

Encoder: per relation kind, invariant messages built from node features
and the normalized relation matrix of the two coordinate sets
(``geom.normalized_flat_relation``), plus equivariant messages that
rescale receiver channels around the sender centroid
(``numcore.coordinate_message``).  Feature updates aggregate
relation-wise through learnable matrices in one path: messages are
summed into (relation, receiver) buckets and each relation's bucket
goes through its own W_r; ``homogeneous`` is that path with a single
relation.  Coordinate updates average relation-scaled equivariant
messages.  Node features stay E(3)-invariant throughout, coordinates
transform with the input pose.  Zero padding is the only channel mask
(``layer_forward``).  The message MLP projects node features
before gathering them to edges (``message_mlp``), which matches the
concat-then-multiply form to rounding; the aggregation is bitwise the
per-relation loop.  Every two-layer MLP is one fused ``numcore.mlp``
op, the message MLP's over its four edge terms, and the readout's query
term one ``numcore.dense``; both are bitwise the separate matmuls,
gathers, adds and activations, and keep on the training tape only what
their backward reads: no MLP keeps its hidden layer under silu.  The
relation and the coordinate message are fused numcore ops too, bitwise
their chains: the relation keeps its output and per-edge norm on the
tape, the coordinate message its output and per-edge weight, and each
recomputes its (E, C, C) and (E, 3, C) intermediates in backward.

Readout: per-task attention over the concatenated layer outputs
(task-aware), or plain sum, or task-prompt weighted sum, over the
(task, scope) pools the caller names: training and scoring pool only a
sample's labeled pairs (``train.label_plan``).  The task-aware keys and
values are projected once per graph and gathered per pool, which is
bitwise per-scope projection; the query term, layer norm and FFN then
run once on the stack of every pool of the call, which matches one pool
at a time to rounding (``task_aware_readout`` states both).  Six task
heads, each run once on its task's stacked pools, map the pooled
features to one logits block per task, one row per pool: an affinity
scalar for each of two complex-level tasks and a row of multi-label
logits per chain for each of four property tasks.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar

import numpy as np

from . import geom
from .datasets import AFFINITY_TASKS, PAPER_TASK_DIMS, PROPERTY_TASKS, TASKS
from .errors import ConfigError, DataError
from .graph import N_NODE_TYPES, N_RELATIONS, HeteroGraph, RelationKind
from .numcore import (
    ParamStore,
    Tensor,
    batch_norm,
    load_store,
    save_store,
    concat,
    coordinate_message,
    dense,
    gather_rows,
    glorot_uniform,
    layer_norm,
    matmul,
    mlp,
    mul,
    relu,
    reshape,
    segment_sum,
    silu,
    softmax,
    transpose,
    tsum,
    unit_rows,
)
from .structio import ELEMENTS, MAX_CHANNELS

@dataclass(frozen=True)
class HeMeNetConfig:
    # the values each string setting may take; the CLI's choices read them
    CHOICES: ClassVar[dict] = {
        "readout": ("task_aware", "sum", "weighted_prompt"),
        "relations": ("hetero", "homogeneous"),  # homogeneous shares one W_r/w_r/e_r set
        "norm": ("batch", "layer"),
        "act": ("silu", "relu"),
        "dtype": ("float32", "float64"),
    }

    L: int = 6
    d: int = 256
    heads: int = 4
    readout: str = "task_aware"
    relations: str = "hetero"
    norm: str = "batch"
    act: str = "silu"
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
        for name, allowed in self.CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}")
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

    def mlp_params(prefix, d_in, d_hidden, d_out):
        store.add(f"{prefix}.w1", glorot_uniform(rng, (d_in, d_hidden), dt))
        store.add(f"{prefix}.b1", np.zeros(d_hidden, dt))
        store.add(f"{prefix}.w2", glorot_uniform(rng, (d_hidden, d_out), dt))
        store.add(f"{prefix}.b2", np.zeros(d_out, dt))

    d, R = cfg.d, cfg.n_relations
    msg_in = d + d + cfg.d_A * cfg.d_A + cfg.e_r_width
    for l in range(cfg.L):
        p = f"layers.{l}"
        mlp_params(f"{p}.phi_m", msg_in, d, d)
        mlp_params(f"{p}.phi_x", d, d, MAX_CHANNELS)
        mlp_params(f"{p}.phi_h", d, d, d)
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
        mlp_params("readout.ffn", d_L, d_L, d_L)
    elif cfg.readout == "weighted_prompt":
        for task in TASKS:
            store.add(f"readout.prompt.{task}", unit_rows(rng, (d_L,), dt))

    for task in TASKS:
        out = 1 if task in AFFINITY_TASKS else cfg.task_dims[task]
        mlp_params(f"head.{task}", d_L, d, out)
    return store


# -- graph packing ------------------------------------------------------------


@dataclass
class PackedGraph:
    """Per-graph constant arrays, built once and reused for every pass."""
    complex_id: str
    n: int
    X0: np.ndarray  # (n, 3, C) the graph's X in dtype, +0.0 at padding
    mask: np.ndarray  # (n, C) 1.0 at real channels, 0.0 at padding
    type_idx: np.ndarray  # (n,) the graph's node_type: embedding row per node
    elem_idx: np.ndarray  # (n, C) the graph's elements: attribute row per channel
    src: np.ndarray  # (E,) every relation's edges in turn, in RelationKind order
    dst: np.ndarray  # (E,)
    kind: np.ndarray  # (E,) RelationKind values
    kind_pos: list  # per relation, positions into the edge arrays (bench/run.py)
    pool: np.ndarray  # (C + 1, C, C) geom.pooling_table in dtype, shared by every graph
    dst_channels: np.ndarray  # (E,) the receiver's channel count, the row of pool it reads
    deg: np.ndarray  # (n,) total incoming edges over all relations
    scopes: dict  # chain_id -> its residue nodes, chains with nodes only; "" -> all nodes
    dtype: np.dtype


def pack_graph(g: HeteroGraph, dtype=np.float64) -> PackedGraph:
    dtype = np.dtype(dtype)
    n = g.n_nodes
    mask = (np.arange(MAX_CHANNELS) < g.channels[:, None]).astype(dtype)
    pairs = [g.edges[rk] for rk in RelationKind]
    src = np.concatenate([p[:, 0] for p in pairs])
    dst = np.concatenate([p[:, 1] for p in pairs])
    kind = np.repeat(np.arange(N_RELATIONS, dtype=np.int64), [len(p) for p in pairs])
    kind_pos = [np.flatnonzero(kind == int(rk)) for rk in RelationKind]
    deg = np.bincount(dst, minlength=n).astype(dtype)

    scopes = {"": np.arange(n, dtype=np.int64)}
    for code, cid in enumerate(g.chain_ids):
        idx = np.flatnonzero(g.chain == code)
        if len(idx):
            scopes[cid] = idx
    # copies: views would pin the graph's arrays in the heap (ingest-large peak RSS)
    return PackedGraph(g.complex_id, n, g.X.astype(dtype), mask, g.node_type.copy(),
                       g.elements.copy(), src, dst, kind, kind_pos, geom.pooling_table(dtype),
                       g.channels[dst], deg, scopes, dtype)


# -- forward pass -------------------------------------------------------------


_ACTIVATIONS = {"silu": silu, "relu": relu}


def _mlp_apply(store: ParamStore, prefix: str, x: Tensor, act: str = "silu") -> Tensor:
    """The two-layer MLP ``prefix`` on ``x`` as one ``numcore.mlp`` op.  Its
    training tape keeps the output and, of the hidden layer, only what
    backward reads: the pre-activation for silu (the hidden layer is
    recomputed from it), the hidden layer itself for relu."""
    return mlp(((x, store[f"{prefix}.w1"]),), store[f"{prefix}.b1"],
               store[f"{prefix}.w2"], store[f"{prefix}.b2"], act)


def message_mlp(pg: PackedGraph, h: Tensor, rel_flat: Tensor, kind_idx: np.ndarray,
                store: ParamStore, cfg: HeMeNetConfig, layer: int) -> Tensor:
    """The invariant edge message ``phi_m(h_dst, h_src, rel_flat, e_r)``.

    Its first linear map is split by the row blocks of ``phi_m.w1``, one
    per input: node features are projected on the n nodes and relation
    embeddings on the R kinds, and only then gathered to the E edges.
    That is the concat-then-multiply form with its sum over the
    2d + d_A^2 + e_r inputs split four ways, so it agrees with it to
    rounding, not bitwise (tests/test_model.py keeps the concat form and
    the tolerance).

    The four edge terms, the bias, the activation and the second linear
    map are one ``numcore.mlp`` op, which adds in the order the separate
    gathers, products and adds did, so the fusion is bitwise.  Of (E, d)
    arrays the training tape keeps the output and one for the hidden
    layer, its pre-activation (relu: the hidden layer itself), from which
    backward recomputes the rest; the separate ops kept ten for the first
    layer alone: four terms, four partial sums, the activation's output
    and its saved sigmoid."""
    p = f"layers.{layer}.phi_m"
    w1 = store[f"{p}.w1"]

    def rows(start, stop):
        return gather_rows(w1, np.arange(start, stop))

    d, e0 = cfg.d, 2 * cfg.d + cfg.d_A * cfg.d_A  # w1 rows: h_dst, h_src, rel_flat, e_r
    return mlp(((matmul(h, rows(0, d)), pg.dst),
                (matmul(h, rows(d, 2 * d)), pg.src),
                (rel_flat, rows(2 * d, e0)),
                (matmul(store["embed.edge"], rows(e0, e0 + cfg.e_r_width)), kind_idx)),
               store[f"{p}.b1"], store[f"{p}.w2"], store[f"{p}.b2"], cfg.act)


def layer_forward(pg: PackedGraph, h: Tensor, X: Tensor, store: ParamStore, cfg: HeMeNetConfig,
                  layer: int, batch_stats: dict | None = None) -> tuple[Tensor, Tensor]:
    """One round of relational message passing: returns updated (h, X).

    Padded channels need no per-edge mask: their attribute rows are
    zeroed on the nodes, so they add nothing to the relation, and the
    receiver's row of the shared ``pg.pool`` table zeroes their
    coordinate message, so padded coordinates stay +0.0 and add nothing
    to the sender centroid."""
    p = f"layers.{layer}"
    E = len(pg.src)
    X_dst = gather_rows(X, pg.dst)
    X_src = gather_rows(X, pg.src)
    A_nodes = mul(reshape(gather_rows(store["geom.attr"], pg.elem_idx.reshape(-1)),
                          (pg.n, MAX_CHANNELS, cfg.d_A)),
                  Tensor(pg.mask[:, :, None]))
    rel_flat = geom.normalized_flat_relation(X_dst, X_src, A_nodes, pg.dst, pg.src, cfg.eps)

    R = cfg.n_relations
    kind_idx = pg.kind if R > 1 else np.zeros(E, dtype=np.int64)
    m = message_mlp(pg, h, rel_flat, kind_idx, store, cfg, layer)

    # invariant update: relation-wise aggregation through W_r
    per_rel = reshape(segment_sum(m, kind_idx * pg.n + pg.dst, R * pg.n), (R, pg.n, cfg.d))
    agg = tsum(matmul(per_rel, store[f"{p}.rel_weight"]), axis=0)
    z = _mlp_apply(store, f"{p}.phi_h", agg, cfg.act)
    gamma, beta = store[f"{p}.norm.gamma"], store[f"{p}.norm.beta"]
    if cfg.norm == "layer":
        z = layer_norm(z, gamma, beta)
    elif batch_stats is None:
        z, _ = batch_norm(z, gamma, beta, (store.state[f"{p}.norm.mean"],
                                           store.state[f"{p}.norm.var"]))
    else:
        z, (mean, var) = batch_norm(z, gamma, beta)
        batch_stats[f"{p}.norm.mean"] = mean
        batch_stats[f"{p}.norm.var"] = var
    h_new = h + _ACTIVATIONS[cfg.act](z)

    # equivariant update: scaled messages around the sender centroid
    centroid = geom.masked_centroid(X_src, pg.mask[pg.src])
    s = _mlp_apply(store, f"{p}.phi_x", m, cfg.act)
    moved = coordinate_message(X_dst, centroid, s, pg.pool, pg.dst_channels,
                               store[f"{p}.rel_scale"], kind_idx, pg.dst, pg.n)
    X_new = X + mul(moved, Tensor((1.0 / pg.deg)[:, None, None], dtype=X.dtype))
    return h_new, X_new


def encode(pg: PackedGraph, store: ParamStore, cfg: HeMeNetConfig,
           batch_stats: dict | None = None) -> tuple[Tensor, Tensor]:
    """Run all layers; returns (H, X_final) with H the per-node
    concatenation of every layer's feature output, width L*d.

    Batch norm uses the running statistics in ``store``, or with
    ``batch_stats`` a dict (training) each layer's batch mean and
    variance, which it puts there under the running statistics' names.
    ``store`` is only read."""
    h = gather_rows(store["embed.node"], pg.type_idx)
    X = Tensor(pg.X0)
    outs = []
    for l in range(cfg.L):
        h, X = layer_forward(pg, h, X, store, cfg, l, batch_stats)
        outs.append(h)
    H = outs[0] if cfg.L == 1 else concat(outs, axis=1)
    return H, X


# -- readouts -----------------------------------------------------------------


def _scope_array(scope) -> np.ndarray:
    idx = np.asarray(scope, dtype=np.int64)
    if idx.size == 0:
        raise DataError("readout scope is empty")
    return idx


def task_aware_readout(K: Tensor, V: Tensor, scopes, task: str, store: ParamStore,
                       cfg: HeMeNetConfig) -> Tensor:
    """Attention pools of one task, one row per scope: (len(scopes), d_L).

    ``K = H @ readout.W_K`` and ``V = H @ readout.W_V`` are projected
    once per graph (``readout_and_heads``), and every pool gathers its
    rows from them.  The BLAS GEMM computes each row of the product the
    same way whatever the other rows are (OpenBLAS 0.3.31;
    tests/test_model.py asserts it), so for scopes of two or more nodes
    each pooled row is bitwise what projecting the scope's own rows
    gives, in float32 and float64.  A one-node scope differs by rounding
    (its one-row product used to be a gemv; about 2e-13 absolute in
    float64).

    What follows the pool runs once per call of ``readout_and_heads``
    on the stack of its pools: the query term ``Q @ W_Q + b`` over the
    stacked task queries, layer norm and ``readout.ffn`` over all pools,
    and each head over its task's pools.  Those products are GEMMs where
    a pool on its own ran GEMVs, so predictions agree with pooling one
    (task, scope) at a time to rounding only.  tests/test_model.py
    bounds the difference by 1e-12 (float64) and 2e-5 (float32) of each
    prediction's largest magnitude, worst seen 5.3e-14 and 2.0e-6, and
    the float64 gradients by 1e-12 of the global gradient norm.  They
    stay a deterministic function of H and the scopes, so bitwise pose
    invariance holds."""
    d_L, heads = cfg.d_L, cfg.heads
    dh = d_L // heads
    q = reshape(store[f"readout.query.{task}"], (heads, dh, 1))
    rows = []
    for scope in scopes:
        idx = _scope_array(scope)
        ns = len(idx)
        K3 = transpose(reshape(gather_rows(K, idx), (ns, heads, dh)), (1, 0, 2))  # (heads, ns, dh)
        V3 = transpose(reshape(gather_rows(V, idx), (ns, heads, dh)), (1, 0, 2))
        logits = matmul(K3, q) * (1.0 / np.sqrt(dh))
        alpha = softmax(reshape(logits, (heads, ns)), axis=1)
        att = matmul(reshape(alpha, (heads, 1, ns)), V3)  # (heads, 1, dh)
        rows.append(reshape(att, (1, d_L)))
    return concat(rows, axis=0)


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


def _pool_stack(H: Tensor, scopes: dict, pools: dict, store: ParamStore,
                cfg: HeMeNetConfig) -> Tensor:
    """The pooled feature of every (task, scope) in ``pools`` (task ->
    scope keys), one row each, tasks in order: (P, d_L)."""
    if cfg.readout == "task_aware":
        K, V = project_keys_values(H, store)
        queries = [reshape(store[f"readout.query.{task}"], (1, cfg.d_L)) for task in pools]
        lin_q = dense(concat(queries, axis=0), store["readout.W_Q"], store["readout.b"])
        att = concat([task_aware_readout(K, V, [scopes[k] for k in keys], task, store, cfg)
                      for task, keys in pools.items()], axis=0)
        task_of_pool = np.repeat(np.arange(len(pools)), [len(keys) for keys in pools.values()])
        x = layer_norm(att + gather_rows(lin_q, task_of_pool),
                       store["readout.ffn.ln_gamma"], store["readout.ffn.ln_beta"])
        return _mlp_apply(store, "readout.ffn", x)
    if cfg.readout == "weighted_prompt":
        rows = [weighted_prompt_readout(H, scopes[k], task, store)
                for task, keys in pools.items() for k in keys]
    else:
        rows = [sum_readout(H, scopes[k]) for keys in pools.values() for k in keys]
    return concat([reshape(f, (1, cfg.d_L)) for f in rows], axis=0)


# -- prediction ---------------------------------------------------------------


def readout_and_heads(H: Tensor, scopes: dict, pools: dict, store: ParamStore,
                      cfg: HeMeNetConfig) -> dict:
    """Pure function of H: pools exactly the (task, scope) pairs of
    ``pools`` (task -> scope keys of ``scopes``) and applies the heads.
    Returns task -> logits, one row per key in the order of its keys:
    (1, 1) for an affinity pooled over the whole graph (key ""), and
    (len(keys), dims[task]) for a property task.  Consumes no
    coordinates, so output depends on the input pose only through H.
    Every pool of the call is stacked, and each head runs once on its
    task's rows (``task_aware_readout`` states the numerics)."""
    stack = _pool_stack(H, scopes, pools, store, cfg)
    logits, start = {}, 0
    for task, keys in pools.items():
        rows = gather_rows(stack, np.arange(start, start + len(keys)))
        start += len(keys)
        logits[task] = _mlp_apply(store, f"head.{task}", rows)  # (len(keys), out)
    return logits


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


# -- checkpoint ---------------------------------------------------------------


def save_model(path, store: ParamStore, cfg: HeMeNetConfig,
               extra: dict | None = None) -> None:
    """One atomic write of the weights and their record, which holds
    every architecture field plus ``extra``: a save that fails leaves
    the previous checkpoint whole."""
    save_store(path, store, {**asdict(cfg), **(extra or {})})


def load_model(path, expect: HeMeNetConfig | None = None):
    """Returns (store, cfg, record).  A record that does not hold every
    architecture field is a DataError.  With ``expect`` given,
    mismatched architecture fields raise ConfigError."""
    store, record = load_store(path)
    try:
        cfg = HeMeNetConfig(**{f.name: record[f.name] for f in fields(HeMeNetConfig)})
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path}: checkpoint record holds no model config: {exc!r}") from None
    if expect is not None and cfg != expect:
        raise ConfigError(f"checkpoint config {cfg} does not match expected {expect}")
    return store, cfg, record
