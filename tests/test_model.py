"""Network forward pass: packing, encoder symmetry, task-aware readout
and the rows each pool reads, prompts, and checkpoint round-trips."""

import dataclasses
import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

import hemenet.train
from hemenet import model as M
from hemenet.datasets import TASKS, SampleLabels, SyntheticConfig, generate_synthetic
from hemenet.errors import ConfigError, DataError
from hemenet.graph import GraphConfig, RelationKind, build_graph
from hemenet.model import (
    HeMeNetConfig,
    encode,
    init_params,
    load_model,
    pack_graph,
    project_keys_values,
    prompt_correlation,
    readout_and_heads,
    save_model,
    sum_readout,
    task_aware_readout,
    weighted_prompt_readout,
)
from hemenet import geom
from hemenet.numcore import (
    Tensor,
    no_grad,
    batch_norm,
    concat,
    gather_rows,
    layer_norm,
    matmul,
    mul,
    reshape,
    segment_sum,
    sigmoid,
    transpose,
    tsum,
)
from hemenet.structio import RESIDUE_ATOM_ORDER, ComplexRecord
from hemenet.train import (
    LossWeights,
    fold_norm_stats,
    label_plan,
    multitask_loss,
    prepare_data,
)
from hemenet.verify import equivariance_suite, primitives_suite, random_graph, readout_suite

from conftest import (
    SMALL_DIMS,
    every_pool,
    frobenius_norm,
    make_chain,
    make_ligand,
    message_scale,
    pairwise_distance,
    tape_arrays,
    tape_float_values,
    unfused_coordinate_message,
    unfused_dense,
    unfused_gathered_sum,
    unfused_normalized_flat_relation,
)


def ca_only_record(n=4, spacing=3.0):
    residues = [("GLY", [("CA", "C", (i * spacing, 0.3 * i, 0.0))]) for i in range(n)]
    return ComplexRecord(
        "ca_demo", (make_chain("A", residues),),
        make_ligand([("C", (1.0, 2.0, 0.5))]), {"A": "receptor"})


# -- config and parameters ----------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        HeMeNetConfig(L=0)
    with pytest.raises(ConfigError):
        HeMeNetConfig(d=30, heads=4)
    for bad in ({"heads": 0}, {"heads": -2}, {"d": 0}, {"d": -4}):
        with pytest.raises(ConfigError, match="must be >= 1"):
            HeMeNetConfig(**bad)
    with pytest.raises(ConfigError):
        HeMeNetConfig(readout="mean")
    with pytest.raises(ConfigError):
        HeMeNetConfig(relations="typed")
    with pytest.raises(ConfigError):
        HeMeNetConfig(norm="group")
    with pytest.raises(ConfigError):
        HeMeNetConfig(act="gelu")
    with pytest.raises(ConfigError):
        HeMeNetConfig(dtype="float16")
    with pytest.raises(ConfigError):
        HeMeNetConfig(task_dims={"ec": 8})


def test_config_rejects_empty_widths_and_nonpositive_eps():
    HeMeNetConfig(d_A=1, e_r_width=1, eps=1e-300)
    for bad in ({"d_A": 0}, {"e_r_width": 0}, {"eps": 0.0}, {"eps": 0}, {"eps": -1.0},
                {"eps": float("nan")}):
        with pytest.raises(ConfigError):
            HeMeNetConfig(**bad)


def test_init_params_layout(small_cfg64, small_store64):
    cfg, store = small_cfg64, small_store64
    assert "embed.node" in store and "geom.attr" in store
    assert store["embed.edge"].shape == (6, cfg.e_r_width)
    for l in range(cfg.L):
        assert store[f"layers.{l}.rel_weight"].shape == (6, cfg.d, cfg.d)
    for task in TASKS:
        assert f"head.{task}.w1" in store
        assert f"readout.query.{task}" in store
    assert store["head.lba.w2"].shape[1] == 1
    assert store["head.ec.w2"].shape[1] == SMALL_DIMS["ec"]


def test_homogeneous_relations_share_weights():
    cfg = HeMeNetConfig(L=1, d=8, heads=2, relations="homogeneous",
                        task_dims=SMALL_DIMS, dtype="float64")
    store = init_params(cfg, seed=0)
    assert store["embed.edge"].shape == (1, cfg.e_r_width)
    assert store[f"layers.0.rel_weight"].shape == (1, cfg.d, cfg.d)


def test_weighted_prompt_params():
    cfg = HeMeNetConfig(L=1, d=8, heads=2, readout="weighted_prompt",
                        task_dims=SMALL_DIMS, dtype="float64")
    store = init_params(cfg, seed=0)
    assert "readout.prompt.lba" in store
    assert "readout.W_K" not in store


# -- packing -------------------------------------------------------------------


def test_pack_graph_shapes_and_scopes(synthetic_samples):
    rec = synthetic_samples[1][0]  # two-chain sample
    g = build_graph(rec)
    pg = pack_graph(g, np.float64)
    n = g.n_nodes
    assert pg.X0.shape == (n, 3, 14) and pg.mask.shape == (n, 14)
    assert set(pg.scopes) == {"", "A", "B"}
    np.testing.assert_array_equal(pg.scopes[""], np.arange(n))
    # padded channels carry zero coordinates and zero mask
    for i, c in enumerate(g.channels.tolist()):
        assert pg.mask[i, :c].all() and not pg.mask[i, c:].any()
        assert not pg.X0[i, :, c:].any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pack_graph_edge_arrays_match_per_edge_reference(synthetic_samples, dtype):
    # edge arrays in relation order and the pooling matrix of each edge's
    # receiver, built one edge at a time; the packed arrays, and the rows
    # of the shared pooling table the edges read, are byte-equal
    from hemenet.geom import pooling_matrix
    g = build_graph(synthetic_samples[1][0])
    pg = pack_graph(g, dtype)
    src, dst, kind, pool = [], [], [], []
    for rk in RelationKind:
        for s, d in g.edges[rk]:
            src.append(s)
            dst.append(d)
            kind.append(int(rk))
            P = np.zeros((14, 14), dtype=dtype)
            P[:, :g.channels[d]] = pooling_matrix(g.channels[d])
            pool.append(P)
    for got, want in [(pg.src, np.asarray(src, dtype=np.int64)),
                      (pg.dst, np.asarray(dst, dtype=np.int64)),
                      (pg.kind, np.asarray(kind, dtype=np.int64)),
                      (pg.pool[pg.dst_channels], np.stack(pool))]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# what a packed float32 graph holds per edge of its own, the shared pooling
# table aside, on complexes of up to 40 residues (65-85 seen); the per-edge
# (E, 14, 14) pooling matrices were 784 alone
PACKED_BYTES_PER_EDGE = 96


def test_packed_graphs_share_one_pooling_table_and_stay_small():
    samples = generate_synthetic(SyntheticConfig(n_samples=6, max_residues=40, seed=3))
    packed = [pack_graph(build_graph(rec), np.float32) for rec, _ in samples]
    shared = packed[0].pool
    for pg in packed:
        arrays = [v for v in vars(pg).values() if isinstance(v, np.ndarray) and v is not shared]
        own = sum(a.nbytes for a in arrays + pg.kind_pos + list(pg.scopes.values()))
        assert own <= PACKED_BYTES_PER_EDGE * len(pg.src), (pg.complex_id, own / len(pg.src))
    assert shared is geom.pooling_table(np.float32)


def test_encode_shapes_and_determinism(small_cfg64, small_store64, synthetic_data64):
    pg, _ = synthetic_data64[0]
    H1, X1 = encode(pg, small_store64, small_cfg64)
    H2, X2 = encode(pg, small_store64, small_cfg64)
    assert H1.shape == (pg.n, small_cfg64.d_L)
    assert X1.shape == (pg.n, 3, 14)
    assert H1.data.tobytes() == H2.data.tobytes()
    assert X1.data.tobytes() == X2.data.tobytes()
    # coordinates stay zero at padded channels
    assert not (X1.numpy() * (1.0 - pg.mask[:, None, :])).any()


# -- symmetry ------------------------------------------------------------------


def test_encoder_equivariance_small():
    report = equivariance_suite(n_graphs=8, n_motions=4, seed=5, dtype="float64")
    assert report.ok, report.worst
    assert report.worst["coordinate_equivariance"] <= 1e-10
    assert report.worst["feature_invariance"] <= 1e-10


def test_geometry_primitive_identities_small():
    report = primitives_suite(trials=14, seed=6, dtype="float64")
    assert report.ok, report.worst


def test_readout_bundles_bitwise_pose_free():
    report = readout_suite(n_graphs=3, seed=7)
    assert report.ok
    assert report.worst["bitwise_mismatches"] == 0


def test_coord_leak_breaks_equivariance(coord_leak):
    report = equivariance_suite(n_graphs=4, n_motions=3, seed=5, dtype="float64")
    assert not report.ok
    assert report.worst["feature_invariance"] > 1e-6


# -- readout and attention -------------------------------------------------------


@pytest.fixture(scope="module")
def encoded(small_cfg64, small_store64, synthetic_data64):
    pg, _ = synthetic_data64[1]
    H, _ = encode(pg, small_store64, small_cfg64)
    return pg, H


@pytest.fixture(scope="module")
def keys_values(encoded, small_store64):
    return project_keys_values(encoded[1], small_store64)


def test_pool_ignores_rows_off_scope(encoded, keys_values, small_cfg64, small_store64):
    """A pool attends over its scope only: other key and value rows
    leave it bitwise unchanged."""
    pg, _ = encoded
    scope = pg.scopes["A"]
    outside = np.setdiff1d(np.arange(pg.n), scope)
    assert outside.size
    rng = np.random.default_rng(0)
    changed = []
    for T in keys_values:
        arr = T.numpy().copy()
        arr[outside] = rng.normal(scale=10.0, size=(outside.size, arr.shape[1]))
        changed.append(Tensor(arr))
    pool = task_aware_readout(*keys_values, [scope], "ec", small_store64, small_cfg64)
    again = task_aware_readout(*changed, [scope], "ec", small_store64, small_cfg64)
    assert pool.numpy().tobytes() == again.numpy().tobytes()


def test_singleton_pool_ignores_its_key(encoded, keys_values, small_cfg64, small_store64):
    """Attention over a one-node scope is exactly 1, so the node's key
    row cannot change the pool."""
    pg, _ = encoded
    single = pg.scopes[""][:1]
    K, V = keys_values
    arr = K.numpy().copy()
    arr[single[0]] = np.random.default_rng(1).normal(scale=10.0, size=arr.shape[1])
    pool = task_aware_readout(K, V, [single], "lba", small_store64, small_cfg64)
    again = task_aware_readout(Tensor(arr), V, [single], "lba", small_store64, small_cfg64)
    assert pool.numpy().tobytes() == again.numpy().tobytes()


def test_readout_permutation_invariance(encoded, keys_values, small_cfg64, small_store64):
    pg, H = encoded
    scope = pg.scopes[""]
    shuffled = np.random.default_rng(0).permutation(scope)
    wp_cfg = HeMeNetConfig(L=small_cfg64.L, d=small_cfg64.d, heads=small_cfg64.heads,
                           readout="weighted_prompt", task_dims=SMALL_DIMS,
                           dtype="float64")
    wp_store = init_params(wp_cfg, seed=4)
    for fn in (
        lambda s: task_aware_readout(*keys_values, [s], "mf", small_store64, small_cfg64),
        lambda s: sum_readout(H, s),
        lambda s: weighted_prompt_readout(H, s, "mf", wp_store),
    ):
        a, b = fn(scope), fn(shuffled)
        np.testing.assert_allclose(a.numpy(), b.numpy(), atol=1e-12)


def test_task_queries_differentiate_tasks(encoded, keys_values, small_cfg64, small_store64):
    pg, _ = encoded
    scope = pg.scopes[""]
    f_lba = task_aware_readout(*keys_values, [scope], "lba", small_store64, small_cfg64)
    f_ec = task_aware_readout(*keys_values, [scope], "ec", small_store64, small_cfg64)
    assert np.max(np.abs(f_lba.numpy() - f_ec.numpy())) > 1e-8


def test_empty_scope_rejected(keys_values, small_cfg64, small_store64):
    with pytest.raises(DataError, match="empty"):
        task_aware_readout(*keys_values, [np.array([], dtype=np.int64)], "ec",
                           small_store64, small_cfg64)


def test_readout_and_heads_bundle(encoded, small_cfg64, small_store64):
    """One row per pooled key, in the order of the keys; only the tasks
    named are pooled."""
    pg, H = encoded
    chain_ids = tuple(sorted(k for k in pg.scopes if k))
    logits = readout_and_heads(H, pg.scopes, every_pool(pg.scopes), small_store64, small_cfg64)
    assert list(logits) == list(TASKS)
    for task in ("lba", "ppa"):
        assert logits[task].shape == (1, 1)
    for task in ("ec", "mf", "bp", "cc"):
        assert logits[task].shape == (len(chain_ids), SMALL_DIMS[task])
        probs = sigmoid(logits[task]).numpy()  # the scores score_samples takes
        assert ((probs > 0) & (probs < 1)).all()
    last = chain_ids[-1:]
    some = readout_and_heads(H, pg.scopes, {"mf": last, "ppa": ("",)}, small_store64,
                             small_cfg64)
    assert list(some) == ["mf", "ppa"] and some["mf"].shape == (1, SMALL_DIMS["mf"])


# -- keys and values projected once per graph, one FFN per readout ----------------


def reference_pool(H, scope, task, store, cfg):
    """One pooled attention row as it was before keys and values were
    projected once per graph: the pool projects its own gathered rows.
    The attention itself is the model's own code."""
    idx = np.asarray(scope, dtype=np.int64)
    Hs = gather_rows(H, idx)
    K, V = matmul(Hs, store["readout.W_K"]), matmul(Hs, store["readout.W_V"])
    return task_aware_readout(K, V, [np.arange(len(idx))], task, store, cfg)


def reference_task_aware_readout(H, scope, task, store, cfg):
    """One (task, scope) feature as it was before the readout ran its
    FFN once per call: the pool adds its own ``q @ W_Q + b``, then layer
    norm and ``readout.ffn`` run on that one row."""
    q = reshape(store[f"readout.query.{task}"], (1, cfg.d_L))
    x = reference_pool(H, scope, task, store, cfg) + (matmul(q, store["readout.W_Q"])
                                                      + store["readout.b"])
    x = layer_norm(x, store["readout.ffn.ln_gamma"], store["readout.ffn.ln_beta"])
    return reshape(M._mlp_apply(store, "readout.ffn", x), (cfg.d_L,))


def reference_head(store, task, f):
    """A head on one pooled feature, as it ran before it took its task's
    stacked rows: one (1, out) row."""
    return M._mlp_apply(store, f"head.{task}", reshape(f, (1, -1)))


def reference_feature(H, scope, task, store, cfg):
    if cfg.readout == "sum":
        return sum_readout(H, scope)
    if cfg.readout == "weighted_prompt":
        return weighted_prompt_readout(H, scope, task, store)
    return reference_task_aware_readout(H, scope, task, store, cfg)


def reference_readout_and_heads(H, scopes, pools, store, cfg):
    """One pool and one head per (task, scope), the rows concatenated
    into the task's logits block."""
    return {task: concat([reference_head(store, task,
                                         reference_feature(H, scopes[k], task, store, cfg))
                          for k in keys], axis=0)
            for task, keys in pools.items()}


def logits_outputs(logits, pools) -> dict:
    """Every prediction row, by task and pooled key ("" for an affinity)."""
    return {f"{task}/{key}": row for task, block in logits.items()
            for key, row in zip(pools[task], block.numpy())}


# The stacked readout computes W_Q, the FFN and the heads as multi-row
# products where one pool at a time computed one-row products; those
# round differently.  Bound on |got - want| per prediction, relative to
# its largest magnitude (worst seen in these tests: 5.3e-14 in float64
# and 2.0e-6 in float32).
READOUT_RTOL = {"float64": 1e-12, "float32": 2e-5}


def assert_readouts_close(H, scopes, pools, store, cfg, dtype):
    """``readout_and_heads`` against ``reference_readout_and_heads``."""
    got = logits_outputs(readout_and_heads(H, scopes, pools, store, cfg), pools)
    want = logits_outputs(reference_readout_and_heads(H, scopes, pools, store, cfg), pools)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == np.dtype(dtype)
        bound = READOUT_RTOL[np.dtype(dtype).name] * np.max(np.abs(want[key]))
        assert np.max(np.abs(got[key] - want[key])) <= bound, key


def assert_pools_bitwise(H, scopes, store, cfg):
    """Each task's pooled attention rows, read from keys and values
    projected once per graph, are bitwise the rows of the scopes' own
    projections (scopes of two or more nodes)."""
    K, V = project_keys_values(H, store)
    keys = sorted(scopes)
    for task in TASKS:
        got = task_aware_readout(K, V, [scopes[k] for k in keys], task, store, cfg).numpy()
        for i, k in enumerate(keys):
            want = reference_pool(H, scopes[k], task, store, cfg).numpy()
            assert got[i].tobytes() == want[0].tobytes(), (task, k)


def random_scopes(rng, n, sizes):
    """Whole-graph scope plus disjoint chains of the given sizes; nodes
    left over belong to no chain, like ligand atoms."""
    perm = rng.permutation(n)
    scopes = {"": np.arange(n, dtype=np.int64)}
    start = 0
    for i, size in enumerate(sizes):
        scopes[chr(ord("A") + i)] = np.sort(perm[start:start + size])
        start += size
    return scopes


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_projected_readout_bitwise_equals_per_scope_projection(dtype):
    cfg = HeMeNetConfig(L=6, d=64, heads=4, task_dims=SMALL_DIMS, dtype=dtype)
    store = init_params(cfg, seed=7)
    rng = np.random.default_rng(8)
    for n, sizes in ((150, (2, 37, 50, 55)), (40, (2, 3)), (97, (96,))):
        H = Tensor(rng.normal(size=(n, cfg.d_L)).astype(dtype))
        scopes = random_scopes(rng, n, sizes)
        assert_pools_bitwise(H, scopes, store, cfg)
        assert_readouts_close(H, scopes, every_pool(scopes), store, cfg, dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_projected_readout_bitwise_on_encoded_graphs(synthetic_samples, dtype):
    cfg = HeMeNetConfig(L=2, d=16, task_dims=SMALL_DIMS, dtype=np.dtype(dtype).name)
    store = init_params(cfg, seed=11)
    checked = 0
    for pg, _ in prepare_data(synthetic_samples, GraphConfig(), dtype):
        if min(len(idx) for idx in pg.scopes.values()) < 2:
            continue
        H, _ = encode(pg, store, cfg)
        assert_pools_bitwise(H, pg.scopes, store, cfg)
        assert_readouts_close(H, pg.scopes, every_pool(pg.scopes), store, cfg, dtype)
        checked += 1
    assert checked >= 5


def test_projected_readout_one_node_scopes_within_tolerance(synthetic_data64):
    """A one-node scope's old product was a gemv; rounding may differ."""
    cfg = HeMeNetConfig(L=6, d=64, heads=4, task_dims=SMALL_DIMS, dtype="float64")
    store = init_params(cfg, seed=7)
    rng = np.random.default_rng(9)
    H = Tensor(rng.normal(size=(60, cfg.d_L)))
    scopes = random_scopes(rng, 60, (1, 1, 30))
    K, V = project_keys_values(H, store)
    for task in TASKS:
        for key in ("A", "B", "C", ""):
            got = task_aware_readout(K, V, [scopes[key]], task, store, cfg).numpy()
            want = reference_pool(H, scopes[key], task, store, cfg).numpy()
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=key)
            if key in ("C", ""):  # 30 and 60 nodes
                assert got.tobytes() == want.tobytes(), key
    assert_readouts_close(H, scopes, every_pool(scopes), store, cfg, "float64")

    single = next(pg for pg, _ in synthetic_data64 if pg.n == 1)
    H1 = Tensor(rng.normal(size=(1, cfg.d_L)))
    assert_readouts_close(H1, single.scopes, every_pool(single.scopes), store, cfg, "float64")


@pytest.mark.parametrize("readout", ["sum", "weighted_prompt"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_stacked_heads_match_per_pool_heads(synthetic_samples, readout, dtype):
    """The sum and weighted-prompt pools are the model's own; only the
    heads changed, from one pool at a time to one pass per task."""
    cfg = HeMeNetConfig(L=2, d=16, readout=readout, task_dims=SMALL_DIMS, dtype=dtype)
    store = init_params(cfg, seed=5)
    checked = 0
    for pg, _ in prepare_data(synthetic_samples, GraphConfig(), cfg.np_dtype):
        if len(pg.scopes) < 3:  # whole graph plus two chains or more
            continue
        H, _ = encode(pg, store, cfg)
        assert_readouts_close(H, pg.scopes, every_pool(pg.scopes), store, cfg, dtype)
        checked += 1
    assert checked >= 2


def _training_step_grads(store, cfg, data, readout):
    grads = {}
    for pg, labels in data:
        plan = label_plan(pg, labels)
        if not plan.pools:
            continue
        H, _ = encode(pg, store, cfg, batch_stats={})
        loss, _ = multitask_loss(readout(H, pg.scopes, plan.pools, store, cfg), plan,
                                 LossWeights())
        loss.backward(grads)
    return {name: grads[t].copy() if t in grads else None for name, t in store.items()}


def test_projected_readout_gradients_match_per_scope_projection(small_cfg64, synthetic_data64):
    """W_K/W_V gradients are one H^T dK, not a sum over scopes, and W_Q,
    the FFN and the heads take one multi-row product per call, so
    gradients are compared against the global gradient norm: the bias
    before train-mode batch norm (phi_h.b2) has a true gradient of 0."""
    got = _training_step_grads(init_params(small_cfg64, seed=11), small_cfg64,
                               synthetic_data64, readout_and_heads)
    want = _training_step_grads(init_params(small_cfg64, seed=11), small_cfg64,
                                synthetic_data64, reference_readout_and_heads)
    assert got.keys() == want.keys()
    norm = np.sqrt(sum(np.sum(g ** 2) for g in want.values() if g is not None))
    assert norm > 0
    for name in want:
        assert (got[name] is None) == (want[name] is None), name
        if want[name] is not None:
            assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * norm, name
    assert np.any(got["readout.W_K"]) and np.any(got["readout.W_V"])


# -- one aggregation path for every relation mode ---------------------------------


def reference_layer_forward(pg, h, X, store, cfg, layer, batch_stats=None):
    """``layer_forward`` as it was before the single aggregation path: a
    gather, a segment sum and a matmul per non-empty relation kind, added
    in relation order, a separate homogeneous branch, and the channel
    pooling inline.  Everything else, the message MLP included, is the
    model's own code."""
    p = f"layers.{layer}"
    E = len(pg.src)
    X_dst, X_src = gather_rows(X, pg.dst), gather_rows(X, pg.src)
    A_nodes = mul(reshape(gather_rows(store["geom.attr"], pg.elem_idx.reshape(-1)),
                          (pg.n, 14, cfg.d_A)), Tensor(pg.mask[:, :, None]))
    rel_flat = geom.normalized_flat_relation(X_dst, X_src, A_nodes, pg.dst, pg.src, cfg.eps)
    kind_idx = pg.kind if cfg.relations == "hetero" else np.zeros(E, dtype=np.int64)
    m = M.message_mlp(pg, h, rel_flat, kind_idx, store, cfg, layer)

    W = store[f"{p}.rel_weight"]
    if cfg.relations == "homogeneous":
        agg = matmul(segment_sum(m, pg.dst, pg.n), reshape(W, (cfg.d, cfg.d)))
    else:
        parts = []
        for r, pos in enumerate(pg.kind_pos):
            if len(pos) == 0:
                continue
            summed = segment_sum(gather_rows(m, pos), pg.dst[pos], pg.n)
            W_r = reshape(gather_rows(W, np.array([r])), (cfg.d, cfg.d))
            parts.append(matmul(summed, W_r))
        agg = parts[0]
        for part in parts[1:]:
            agg = agg + part
    z = M._mlp_apply(store, f"{p}.phi_h", agg, cfg.act)
    gamma, beta = store[f"{p}.norm.gamma"], store[f"{p}.norm.beta"]
    if cfg.norm == "batch" and batch_stats is not None:
        z, (mean, var) = batch_norm(z, gamma, beta)
        batch_stats[f"{p}.norm.mean"] = mean
        batch_stats[f"{p}.norm.var"] = var
    elif cfg.norm == "batch":
        z, _ = batch_norm(z, gamma, beta, (store.state[f"{p}.norm.mean"],
                                           store.state[f"{p}.norm.var"]))
    else:
        z = layer_norm(z, gamma, beta)
    h_new = h + M._ACTIVATIONS[cfg.act](z)

    centroid = geom.masked_centroid(X_src, pg.mask[pg.src])
    X_rel = X_dst - reshape(centroid, (E, 3, 1))
    s = M._mlp_apply(store, f"{p}.phi_x", m, cfg.act)
    pooled = matmul(reshape(s, (E, 1, 14)), Tensor(pg.pool[pg.dst_channels]))
    M_edge = mul(X_rel, pooled)
    w_edge = reshape(gather_rows(store[f"{p}.rel_scale"], kind_idx), (E, 1, 1))
    M_edge = mul(M_edge, w_edge)
    moved = segment_sum(M_edge, pg.dst, pg.n)
    X_new = X + mul(moved, Tensor((1.0 / pg.deg)[:, None, None], dtype=X.dtype))
    return h_new, X_new


def _encode_with_grads(pg, cfg, seed):
    """H, X and every parameter gradient of one backward through both."""
    store = init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    H, X = encode(pg, store, cfg, batch_stats={})
    probe_H = Tensor(rng.normal(size=H.shape).astype(cfg.np_dtype))
    probe_X = Tensor(rng.normal(size=X.shape).astype(cfg.np_dtype))
    leaf_grads = {}
    (tsum(mul(H, probe_H)) + tsum(mul(X, probe_X))).backward(leaf_grads)
    grads = {name: leaf_grads[t].copy() if t in leaf_grads else None
             for name, t in store.items()}
    return H.numpy(), X.numpy(), grads


@pytest.mark.parametrize("relations", ["hetero", "homogeneous"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_one_aggregation_path_bitwise_equals_per_relation_reference(
        synthetic_samples, monkeypatch, dtype, relations):
    """One segment sum into (relation, receiver) buckets and one batched
    matmul give bitwise the encoder output and gradients of the
    per-relation loop, on graphs with empty relation kinds too."""
    cfg = HeMeNetConfig(L=3, d=16, heads=2, relations=relations,
                        task_dims=SMALL_DIMS, dtype=dtype)
    data = prepare_data(synthetic_samples, GraphConfig(), cfg.np_dtype)
    empty_kinds = 0
    for seed, (pg, _) in enumerate(data):
        empty_kinds += sum(len(pos) == 0 for pos in pg.kind_pos)
        got = _encode_with_grads(pg, cfg, seed)
        with monkeypatch.context() as patch:
            patch.setattr(M, "layer_forward", reference_layer_forward)
            want = _encode_with_grads(pg, cfg, seed)
        assert got[0].tobytes() == want[0].tobytes(), (pg.complex_id, "H")
        assert got[1].tobytes() == want[1].tobytes(), (pg.complex_id, "X")
        assert got[2].keys() == want[2].keys()
        for name in want[2]:
            assert ((got[2][name] is None and want[2][name] is None)
                    or got[2][name].tobytes() == want[2][name].tobytes()), (pg.complex_id, name)
        assert got[2]["layers.0.rel_weight"] is not None
    assert empty_kinds > 0
    assert any(len(pg.src) == pg.n for pg, _ in data)  # self-loops only


# -- zero padding as the only channel mask --------------------------------------


def masked_layer_forward(pg, h, X, store, cfg, layer, batch_stats=None):
    """``layer_forward`` as it was while channel masks ran per edge: the
    relation matrix took A_i^T (w_i w_j^T * D) A_j with unmasked
    attribute rows, the sender centroid summed the sender coordinates
    times the sender's mask, and the coordinate message was multiplied
    by the receiver's mask.  The rest is ``layer_forward``'s code and
    the message MLP its very function; the distances, the norm and the
    scaler are the unfused ops of ``conftest``."""
    p = f"layers.{layer}"
    E = len(pg.src)
    X_dst, X_src = gather_rows(X, pg.dst), gather_rows(X, pg.src)
    A_nodes = reshape(gather_rows(store["geom.attr"], pg.elem_idx.reshape(-1)),
                      (pg.n, 14, cfg.d_A))
    A_dst, A_src = gather_rows(A_nodes, pg.dst), gather_rows(A_nodes, pg.src)
    w_dst, w_src = pg.mask[pg.dst], pg.mask[pg.src]
    D = pairwise_distance(X_dst, X_src)
    W = Tensor(w_dst[:, :, None] * w_src[:, None, :], dtype=D.dtype)
    R = matmul(matmul(transpose(A_dst, (0, 2, 1)), mul(W, D)), A_src)
    norm = frobenius_norm(R, axes=(-2, -1), keepdims=True)
    rel_flat = reshape(R / (norm + cfg.eps), (E, cfg.d_A * cfg.d_A))

    kind_idx = pg.kind if cfg.n_relations > 1 else np.zeros(E, dtype=np.int64)
    m = M.message_mlp(pg, h, rel_flat, kind_idx, store, cfg, layer)
    per_rel = reshape(segment_sum(m, kind_idx * pg.n + pg.dst, cfg.n_relations * pg.n),
                      (cfg.n_relations, pg.n, cfg.d))
    agg = tsum(matmul(per_rel, store[f"{p}.rel_weight"]), axis=0)
    z = M._mlp_apply(store, f"{p}.phi_h", agg, cfg.act)
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
    h_new = h + M._ACTIVATIONS[cfg.act](z)

    total = tsum(mul(X_src, Tensor(w_src[:, None, :], dtype=X.dtype)), axis=-1)
    centroid = mul(total, Tensor(1.0 / w_src.sum(axis=-1)[:, None], dtype=X.dtype))
    X_rel = X_dst - reshape(centroid, (E, 3, 1))
    s = M._mlp_apply(store, f"{p}.phi_x", m, cfg.act)
    M_edge = message_scale(X_rel, s, pg.pool[pg.dst_channels])
    w_edge = reshape(gather_rows(store[f"{p}.rel_scale"], kind_idx), (E, 1, 1))
    M_edge = mul(mul(M_edge, w_edge), Tensor(w_dst[:, None, :], dtype=X.dtype))
    moved = segment_sum(M_edge, pg.dst, pg.n)
    X_new = X + mul(moved, Tensor((1.0 / pg.deg)[:, None, None], dtype=X.dtype))
    return h_new, X_new


def every_channel_count_record(seed=0):
    """One chain whose residue k holds the first k heavy atoms of TRP
    (k = 1..14), so nodes of every channel count meet, plus three ligand
    atoms beside it."""
    rng = np.random.default_rng(seed)
    names = RESIDUE_ATOM_ORDER["TRP"]
    residues, center = [], np.zeros(3)
    for k in range(1, 15):
        residues.append(("TRP", [(name, name[0], center + rng.normal(0, 0.7, 3))
                                 for name in names[:k]]))
        step = rng.normal(size=3)
        center = center + 3.8 * step / np.linalg.norm(step)
    ligand = make_ligand([(el, rng.normal(0, 2.0, 3)) for el in ("C", "N", "O")])
    return ComplexRecord("every_count", (make_chain("A", residues),), ligand,
                         {"A": "receptor"})


def assert_training_step_bitwise(cfg, data, monkeypatch, patches):
    """H, X, the loss, the batch statistics and every parameter gradient
    of a training step, with a random probe on X, and the no-grad
    ``encode`` outputs, are byte for byte those of the step run with
    ``patches``, (module, name, replacement) triples, in place."""
    def step():
        store = init_params(cfg, seed=5)
        rng = np.random.default_rng(5)
        grads, seen = {}, []
        for pg, labels in data:
            plan = label_plan(pg, labels)
            batch_stats = {}
            H, X = encode(pg, store, cfg, batch_stats)
            loss, _ = multitask_loss(readout_and_heads(H, pg.scopes, plan.pools, store, cfg),
                                     plan, LossWeights())
            probe = Tensor(rng.normal(size=X.shape).astype(cfg.np_dtype))
            (loss + tsum(mul(X, probe))).backward(grads)
            seen += [H.data.tobytes(), X.data.tobytes(), loss.data.tobytes()]
            seen += [v.tobytes() for v in batch_stats.values()]
            with no_grad():
                seen += [t.data.tobytes() for t in encode(pg, store, cfg)]
        return seen, {name: grads[t].tobytes() for name, t in store.items() if t in grads}

    got = step()
    with monkeypatch.context() as patch:
        for module, name, replacement in patches:
            patch.setattr(module, name, replacement)
        want = step()
    assert got[0] == want[0]
    assert got[1].keys() == want[1].keys() and "geom.attr" in got[1]
    for name in want[1]:
        assert got[1][name] == want[1][name], name


def assert_masked_layer_bitwise(cfg, data, monkeypatch):
    assert_training_step_bitwise(cfg, data, monkeypatch, [(M, "layer_forward", masked_layer_forward)])


@pytest.mark.parametrize("geometry", ["full_atom", "calpha"])
@pytest.mark.parametrize("relations, norm, act", [("hetero", "batch", "silu"),
                                                  ("homogeneous", "layer", "relu")])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_zero_padding_bitwise_equals_masked_layer(synthetic_samples, monkeypatch, dtype,
                                                  relations, norm, act, geometry):
    """Zeroed attribute rows, the receiver pooling's zero columns and the
    +0.0 padded coordinates in the centroid's sum give a training step
    byte for byte as the per-edge channel masks did."""
    cfg = HeMeNetConfig(L=2, d=16, heads=2, relations=relations, norm=norm, act=act,
                        task_dims=SMALL_DIMS, dtype=dtype)
    samples = [*synthetic_samples, (every_channel_count_record(), SampleLabels(lba=6.5))]
    data = prepare_data(samples, GraphConfig(geometry=geometry), cfg.np_dtype)
    counts = {int(c) for pg, _ in data for c in pg.mask.sum(axis=1)}
    assert counts == ({1} if geometry == "calpha" else set(range(1, 15)))
    assert_masked_layer_bitwise(cfg, data, monkeypatch)


def test_zero_padding_bitwise_equals_masked_layer_at_the_paper_config(monkeypatch):
    """The same at L=6, d=256, float32 and the paper's label widths, on
    nodes of every channel count and a two-chain complex."""
    cfg = HeMeNetConfig()
    rng = np.random.default_rng(0)
    bits = {t: (rng.random(n) < 0.1).astype(np.uint8) for t, n in cfg.task_dims.items()}
    samples = [(every_channel_count_record(), SampleLabels(lba=6.5, chain_props={
                   "A": {"ec": bits["ec"], "mf": bits["mf"]}})),
               *generate_synthetic(SyntheticConfig(n_samples=2, seed=3, dims=cfg.task_dims))[1:]]
    data = prepare_data(samples, GraphConfig(), cfg.np_dtype)
    assert {int(c) for pg, _ in data for c in pg.mask.sum(axis=1)} == set(range(1, 15))
    assert max(len(pg.scopes) for pg, _ in data) == 3
    assert_masked_layer_bitwise(cfg, data, monkeypatch)


def test_padded_coordinates_stay_positive_zero_in_every_layer(synthetic_samples, monkeypatch):
    """Each layer's output X is exactly +0.0 (sign bit clear) at every
    padded channel, which is what lets the relation matrix skip a
    coordinate mask."""
    cfg = HeMeNetConfig(L=3, d=16, heads=2, task_dims=SMALL_DIMS, dtype="float32")
    samples = [*synthetic_samples, (every_channel_count_record(), SampleLabels(lba=6.5))]
    outputs, layer_forward = [], M.layer_forward

    def recording(*args, **kwargs):
        h, X = layer_forward(*args, **kwargs)
        outputs.append(X.numpy())
        return h, X

    monkeypatch.setattr(M, "layer_forward", recording)
    store = init_params(cfg, seed=2)
    for pg, _ in prepare_data(samples, GraphConfig(), cfg.np_dtype):
        outputs.clear()
        encode(pg, store, cfg, batch_stats={})
        assert len(outputs) == cfg.L
        padded = pg.mask[:, None, :].repeat(3, axis=1) == 0
        assert padded.any()
        for X in outputs:
            assert X[padded].tobytes() == np.zeros(int(padded.sum()), X.dtype).tobytes()


def reference_concat_message_mlp(pg, h, rel_flat, kind_idx, store, cfg, layer):
    """``message_mlp`` as it was before project-then-gather: both ends'
    node features and the relation embedding are gathered to the edges,
    concatenated with ``rel_flat`` into one (E, 2d + d_A^2 + e_r) input
    and multiplied by all of ``phi_m.w1``."""
    e_feat = gather_rows(store["embed.edge"], kind_idx)
    x = concat([gather_rows(h, pg.dst), gather_rows(h, pg.src), rel_flat, e_feat], axis=1)
    return M._mlp_apply(store, f"layers.{layer}.phi_m", x, cfg.act)


# Splitting phi_m's first product into four changes its summation order.
# Bounds on |got - want|, relative to the largest |H| or |X| for outputs
# and to the global gradient norm for gradients (worst seen in this test:
# 5.9e-15 and 1.2e-14 in float64, 1.9e-6 and 3.2e-6 in float32).
MESSAGE_RTOL = {"float64": 1e-12, "float32": 2e-5}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_project_then_gather_message_matches_concat_form(synthetic_samples, monkeypatch, dtype):
    cfg = HeMeNetConfig(L=3, d=16, heads=2, task_dims=SMALL_DIMS, dtype=dtype)
    tol = MESSAGE_RTOL[dtype]
    for seed, (pg, _) in enumerate(prepare_data(synthetic_samples, GraphConfig(), cfg.np_dtype)):
        got = _encode_with_grads(pg, cfg, seed)
        with monkeypatch.context() as patch:
            patch.setattr(M, "message_mlp", reference_concat_message_mlp)
            want = _encode_with_grads(pg, cfg, seed)
        for i, name in ((0, "H"), (1, "X")):
            assert np.max(np.abs(got[i] - want[i])) <= tol * np.max(np.abs(want[i])), name
        norm = np.sqrt(sum(np.sum(g.astype(np.float64) ** 2)
                           for g in want[2].values() if g is not None))
        for name, g in want[2].items():
            assert (got[2][name] is None) == (g is None), name
            if g is not None:
                assert np.max(np.abs(got[2][name] - g)) <= tol * norm, (pg.complex_id, name)
        assert np.any(got[2]["layers.0.phi_m.w1"]) and np.any(got[2]["embed.edge"])


@pytest.mark.parametrize("act", ["silu", "relu"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_fused_layers_bitwise_equal_unfused_training_step(synthetic_samples, monkeypatch,
                                                          dtype, act):
    """The fused ``dense`` and ``gathered_sum`` give the model's loss,
    every parameter gradient and the batch statistics of a training step
    byte for byte as the matmuls, gathers, adds and activations they
    replace: the message MLP, every other MLP and the readout query."""
    cfg = HeMeNetConfig(L=2, d=16, heads=2, act=act, task_dims=SMALL_DIMS, dtype=dtype)
    data = prepare_data(synthetic_samples, GraphConfig(), cfg.np_dtype)

    def step():
        store = init_params(cfg, seed=4)
        grads, seen = {}, []
        for pg, labels in data:
            plan = label_plan(pg, labels)
            if not plan.pools:
                continue
            batch_stats = {}
            H, _ = encode(pg, store, cfg, batch_stats)
            loss, _ = multitask_loss(readout_and_heads(H, pg.scopes, plan.pools, store, cfg),
                                     plan, LossWeights())
            loss.backward(grads)
            seen += [loss.data.tobytes()] + [v.tobytes() for v in batch_stats.values()]
        return seen, {name: grads[t].tobytes() for name, t in store.items() if t in grads}

    got = step()
    with monkeypatch.context() as patch:
        patch.setattr(M, "dense", unfused_dense)
        patch.setattr(M, "gathered_sum", unfused_gathered_sum)
        want = step()
    assert got[0] == want[0]
    assert got[1].keys() == want[1].keys() and "layers.1.phi_m.w1" in got[1]
    for name in want[1]:
        assert got[1][name] == want[1][name], name


@pytest.mark.parametrize("relations", ["hetero", "homogeneous"])
@pytest.mark.parametrize("act", ["silu", "relu"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_fused_geometry_bitwise_equal_unfused_training_step(synthetic_samples, monkeypatch,
                                                            dtype, act, relations):
    """The fused ``normalized_flat_relation`` and ``coordinate_message``
    give a training step byte for byte as the chains they replace: H, X,
    the loss, the batch statistics, every parameter gradient (a probe on
    X makes the coordinate branch reach the loss) and the no-grad
    outputs.  Three layers, so a middle layer's coordinates take
    gradient, on nodes of every channel count from 1 to 14."""
    cfg = HeMeNetConfig(L=3, d=16, heads=2, act=act, relations=relations,
                        task_dims=SMALL_DIMS, dtype=dtype)
    samples = [*synthetic_samples, (every_channel_count_record(), SampleLabels(lba=6.5))]
    data = prepare_data(samples, GraphConfig(), cfg.np_dtype)
    assert {int(c) for pg, _ in data for c in pg.mask.sum(axis=1)} == set(range(1, 15))
    assert_training_step_bitwise(cfg, data, monkeypatch, [
        (geom, "normalized_flat_relation", unfused_normalized_flat_relation),
        (M, "coordinate_message", unfused_coordinate_message)])


# Float values per edge per layer on the tape of TAPE_CFG's train-mode
# forward, readout and loss on TAPE_RECORD's 323 edges, by layer count.
# At L=2: 1 564 with the message MLP and every MLP as separate matmuls,
# gathers, adds and activations, 1 229 with the fused ops, 1 113.5 once
# zero padding became the only channel mask (no (E, C, C) masked
# distances, no receiver-masked coordinate message).  No sender centroid
# is on that tape: the first layer's input coordinates are constants and
# the last layer's coordinates never reach the loss.  At L=3 the middle
# layer's is: 1 278.7 while the centroid multiplied the (E, 3, C) sender
# coordinates by the sender mask, 1 264.7 without that product.  With the
# relation and the coordinate message each one fused op, holding its
# inputs, its output and the relation's (E, 1, 1) norm: 356.0 at L=2 and
# 371.4 at L=3.  Gone: the (E, 3, C, C) differences and (E, C, C)
# distances, the attribute gathers, the relation products, the relative
# coordinates, the pooled scale, both message products and the (E, C, C)
# copy of the pooling matrices.  The coordinate message's backward holds
# the shared (C + 1, C, C) pooling table and each edge's row index, and
# no (E, C, C) array of any kind is on the tape.
TAPE_CFG = HeMeNetConfig(L=2, d=32, heads=2, d_A=4, e_r_width=4, task_dims=SMALL_DIMS)
TAPE_VALUES_PER_EDGE_LAYER = {2: 356.0, 3: 371.4}


def test_training_tape_values_per_edge_per_layer():
    sample = generate_synthetic(SyntheticConfig(n_samples=1, max_residues=20, seed=3))
    (pg, labels), = prepare_data(sample, GraphConfig(), TAPE_CFG.np_dtype)
    assert len(pg.src) == 323
    plan = label_plan(pg, labels)
    for L, bound in TAPE_VALUES_PER_EDGE_LAYER.items():
        cfg = dataclasses.replace(TAPE_CFG, L=L)
        store = init_params(cfg, seed=0)
        H, _ = encode(pg, store, cfg, batch_stats={})
        logits = readout_and_heads(H, pg.scopes, plan.pools, store, cfg)
        loss, _ = multitask_loss(logits, plan, LossWeights())
        assert tape_float_values(loss, (pg.pool,)) / (len(pg.src) * L) <= bound, L
        assert all(a.shape != (len(pg.src), 14, 14) for a in tape_arrays(loss)), L


def _load_bench_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("hemenet_bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_counts(synthetic_data64):
    """The benchmark's tracer wraps ``model.task_aware_readout`` through
    the module global and counts tensor ops under ``model.encode`` and
    ``model.readout``; the readout calls it once per task (it pooled one
    (task, scope) per call before the stacked readout, 4 * chains + 1 or
    2) and the projection stays out of the encoder.

    A readout call runs 7 ops (the key and value projections, the query
    concat, the pool concat, the query-term gather and add, the layer
    norm), 4 per task (two query reshapes, its pools' concat, the gather
    of its rows of the stack) and 13 per pooled (task, scope).  Each
    head's block is returned whole: before, every (property task, chain)
    took 3 more ops (a gather, a reshape and a sigmoid) and every
    affinity task one more reshape.

    The encoder runs 254 ops at L=6 with all six relation kinds.  The
    sender centroid no longer multiplies the coordinates by the mask
    (260 before).  Zero padding as the only channel mask took one
    op per layer (266 before that): the mask product in the relation and
    the receiver-mask product on the coordinate message went, one product
    zeroing the padded attribute rows came.  The aggregation is one
    segment sum, reshape, matmul and sum per layer whatever the
    relation count (the
    per-relation loop ran 35), and the message MLP's first product is
    four row-block slices and three node-side matmuls where the concat
    form ran three gathers, a concat, a matmul and an add (338 ops).
    The tracer's op list does not name the fused ``dense`` and
    ``gathered_sum``, so each layer's 21 matmuls, gathers, adds and
    activations they replaced left the count (392 before them).  Nor
    does it name the fused geometry ops: each layer's relation chain (two
    attribute gathers, the distances, a transpose, two matmuls, the norm,
    ``+ eps``, the division and the reshape) and coordinate chain (the
    centroid's reshape and subtraction, the signal's reshape, the pooling
    matmul, two products, the weight's gather and reshape and the
    segment sum) left it, 19 ops a layer (254 before)."""
    tracer = _load_bench_tracer()
    cfg = HeMeNetConfig(L=6, d=8, heads=2, task_dims=SMALL_DIMS, dtype="float64")
    store = init_params(cfg, seed=1)
    checked = 0
    for pg, _ in synthetic_data64:
        if not all(len(pos) for pos in pg.kind_pos):
            continue
        with tracer.Tracer() as tr:
            H, _ = hemenet.train.encode(pg, store, cfg)
            hemenet.train.readout_and_heads(H, pg.scopes, every_pool(pg.scopes), store, cfg)
            hemenet.train.readout_and_heads(
                H, pg.scopes, every_pool(pg.scopes, ("lba", "ec", "mf", "bp", "cc")), store, cfg)
        in_encode = sum(1 for i, name in enumerate(tr.names)
                        if name.startswith("tensor.") and tr.ancestor_named(i, "model.encode") >= 0)
        assert in_encode == 140
        calls = [r for r, name in enumerate(tr.names) if name == "model.readout"]
        per_call = [sum(1 for i, name in enumerate(tr.names)
                        if name == "model.task_readout" and tr.ancestor_named(i, "model.readout") == r)
                    for r in calls]
        assert per_call == [6, 5]
        ops = [sum(1 for i, name in enumerate(tr.names)
                   if name.startswith("tensor.") and tr.ancestor_named(i, "model.readout") == r)
               for r in calls]
        chains = len(pg.scopes) - 1
        assert ops == [7 + 4 * 6 + 13 * (2 + 4 * chains), 7 + 4 * 5 + 13 * (1 + 4 * chains)]
        checked += 1
    assert checked >= 2


def encode_and_read_out(g, store, cfg, tasks):
    """The eval-mode forward pass of one graph: encode, then the heads of
    ``tasks`` on every chain.  Returns (chain ids, logits)."""
    pg = pack_graph(g, cfg.np_dtype)
    H, _ = encode(pg, store, cfg)
    pools = every_pool(pg.scopes, tasks)
    return tuple(sorted(k for k in pg.scopes if k)), readout_and_heads(H, pg.scopes, pools,
                                                                      store, cfg)


def test_predict_all_readout_variants(synthetic_samples):
    rec = synthetic_samples[0][0]
    for readout in ("task_aware", "sum", "weighted_prompt"):
        cfg = HeMeNetConfig(L=1, d=8, heads=2, readout=readout,
                            task_dims=SMALL_DIMS, dtype="float64")
        store = init_params(cfg, seed=3)
        chains, logits = encode_and_read_out(build_graph(rec), store, cfg, tasks=("lba", "ec"))
        assert list(logits) == ["lba", "ec"]
        assert chains and logits["ec"].shape == (len(chains), SMALL_DIMS["ec"])


def test_property_task_needs_chains():
    """A property label on a chain-less graph stops the sample at its
    plan, before any forward pass; its affinity label alone plans."""
    rec = ComplexRecord("ligonly", (), make_ligand([("C", (float(i), 0.0, 0.0))
                                                    for i in range(3)]), {})
    pg = pack_graph(build_graph(rec))
    labels = SampleLabels(lba=1.0, chain_props={"A": {"ec": np.ones(8, dtype=np.uint8)}})
    with pytest.raises(DataError, match="complex ligonly: label ec present on chain A but "
                                        "prediction missing"):
        label_plan(pg, labels)
    assert label_plan(pg, labels, tasks=("lba",)).pools == {"lba": ("",)}


def test_homogeneous_and_layer_norm_forward(synthetic_samples):
    rec = synthetic_samples[2][0]
    cfg = HeMeNetConfig(L=2, d=8, heads=2, relations="homogeneous", norm="layer",
                        task_dims=SMALL_DIMS, dtype="float64")
    store = init_params(cfg, seed=1)
    assert not store.state  # layer norm keeps no running statistics
    chains, logits = encode_and_read_out(build_graph(rec), store, cfg, tasks=("mf",))
    assert chains and logits["mf"].shape == (len(chains), SMALL_DIMS["mf"])


def test_batch_norm_running_stats_update(synthetic_samples):
    cfg = HeMeNetConfig(L=1, d=8, heads=2, norm="batch",
                        task_dims=SMALL_DIMS, dtype="float64")
    store = init_params(cfg, seed=1)
    before = store.state["layers.0.norm.mean"].copy()
    pg = pack_graph(build_graph(synthetic_samples[0][0]), np.float64)
    batch_stats = {}
    encode(pg, store, cfg, batch_stats)
    fold_norm_stats(store, batch_stats)
    after = store.state["layers.0.norm.mean"]
    assert np.max(np.abs(after - before)) > 0
    # eval mode leaves them frozen
    frozen = after.copy()
    encode(pg, store, cfg)
    np.testing.assert_array_equal(store.state["layers.0.norm.mean"], frozen)


def test_train_mode_encode_leaves_the_store_unchanged(synthetic_samples):
    """A train-mode forward hands each layer's batch statistics back as
    values; the store's running statistics stay byte for byte."""
    cfg = HeMeNetConfig(L=2, d=8, heads=2, norm="batch",
                        task_dims=SMALL_DIMS, dtype="float64")
    store = init_params(cfg, seed=1)
    before = {name: arr.tobytes() for name, arr in store.state.items()}
    pg = pack_graph(build_graph(synthetic_samples[0][0]), np.float64)
    batch_stats = {}
    encode(pg, store, cfg, batch_stats)
    assert {name: arr.tobytes() for name, arr in store.state.items()} == before
    assert batch_stats.keys() == store.state.keys()
    for name, stat in batch_stats.items():
        assert stat.shape == (cfg.d,) and stat.tobytes() != before[name]


# -- alpha-carbon degeneracy -----------------------------------------------------


def test_ca_only_record_matches_calpha_geometry_exactly(small_cfg64, small_store64):
    rec = ca_only_record()
    g_full = build_graph(rec, GraphConfig(geometry="full_atom"))
    g_ca = build_graph(rec, GraphConfig(geometry="calpha"))
    for kind in RelationKind:
        assert g_full.edges[kind].tobytes() == g_ca.edges[kind].tobytes()
    pg_full = pack_graph(g_full, np.float64)
    pg_ca = pack_graph(g_ca, np.float64)
    H_full, X_full = encode(pg_full, small_store64, small_cfg64)
    H_ca, X_ca = encode(pg_ca, small_store64, small_cfg64)
    assert H_full.data.tobytes() == H_ca.data.tobytes()
    assert X_full.data.tobytes() == X_ca.data.tobytes()


# -- prompts ---------------------------------------------------------------------


def test_prompt_correlation_properties(small_cfg64, small_store64):
    corr = prompt_correlation(small_store64, small_cfg64)
    assert corr.shape == (6, 6)
    np.testing.assert_array_equal(np.diag(corr), np.ones(6))
    np.testing.assert_allclose(corr, corr.T, atol=0)
    assert (np.abs(corr) <= 1.0 + 1e-12).all()


def test_prompt_correlation_zero_variance_warns():
    cfg = HeMeNetConfig(L=1, d=8, heads=2, readout="weighted_prompt",
                        task_dims=SMALL_DIMS, dtype="float64")
    store = init_params(cfg, seed=0)
    flat = np.full(cfg.d_L, 0.25)
    flat.flags.writeable = False
    store["readout.prompt.lba"].data = flat
    with pytest.warns(UserWarning, match="zero-variance"):
        corr = prompt_correlation(store, cfg)
    assert not corr[0, 1:].any()


def test_prompt_correlation_requires_prompts(small_cfg64):
    cfg = HeMeNetConfig(L=1, d=8, heads=2, readout="sum",
                        task_dims=SMALL_DIMS, dtype="float64")
    store = init_params(cfg, seed=0)
    with pytest.raises(ConfigError, match="no task prompts"):
        prompt_correlation(store, cfg)


# -- checkpointing ----------------------------------------------------------------


def test_save_load_round_trip(tmp_path, synthetic_samples):
    cfg = HeMeNetConfig(L=1, d=8, heads=2, act="relu",
                        task_dims=SMALL_DIMS, dtype="float64")
    store = init_params(cfg, seed=9)
    g = build_graph(synthetic_samples[0][0])
    want = encode_and_read_out(g, store, cfg, tasks=("lba",))[1]["lba"].item()

    path = tmp_path / "model.bin"
    save_model(path, store, cfg, extra={"epoch": 3})
    store2, cfg2, record = load_model(path)
    assert cfg2 == cfg and cfg2.act == "relu"
    assert record["epoch"] == 3
    got = encode_and_read_out(g, store2, cfg2, tasks=("lba",))[1]["lba"].item()
    assert got == want

    with pytest.raises(ConfigError, match="does not match"):
        load_model(path, expect=HeMeNetConfig(L=2, d=8, heads=2,
                                              task_dims=SMALL_DIMS, dtype="float64"))

    # the record is every architecture field plus ``extra``, in this layout,
    # and the checkpoint is that one file
    layout = {"L": 1, "d": 8, "heads": 2, "readout": "task_aware", "relations": "hetero",
              "norm": "batch", "act": "relu", "e_r_width": 16, "d_A": 16, "eps": 1e-8,
              "task_dims": SMALL_DIMS, "dtype": "float64", "epoch": 3}
    text = json.dumps(layout, sort_keys=True, separators=(",", ":"))
    assert record == layout and text.encode("utf-8") in path.read_bytes()
    assert os.listdir(tmp_path) == ["model.bin"]


def test_random_graph_generator_covers_all_kinds():
    rng = np.random.default_rng(0)
    g = random_graph(rng, max_nodes=12)
    for kind in RelationKind:
        assert len(g.edges[kind]), kind.name
