"""Network forward pass: packing, encoder symmetry, task-aware readout,
attention structure, prompts, and checkpoint round-trips."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import hemenet.train
from hemenet import model as M
from hemenet.datasets import TASKS
from hemenet.errors import ConfigError, DataError
from hemenet.graph import GraphConfig, RelationKind, build_graph
from hemenet.model import (
    HeMeNetConfig,
    coord_leak,
    encode,
    init_params,
    load_model,
    pack_graph,
    predict,
    project_keys_values,
    prompt_correlation,
    readout_and_heads,
    save_model,
    sum_readout,
    task_aware_readout,
    task_aware_readout_with_attention,
    weighted_prompt_readout,
)
from hemenet import geom
from hemenet.numcore import (
    Tensor,
    batch_norm,
    concat,
    gather_rows,
    layer_norm,
    matmul,
    mul,
    reshape,
    segment_sum,
    sigmoid,
    tsum,
)
from hemenet.structio import Atom, Chain, ComplexRecord, Residue
from hemenet.train import LossWeights, multitask_loss, prepare_data, tasks_present
from hemenet.verify import equivariance_suite, primitives_suite, random_graph, readout_suite

from conftest import SMALL_DIMS


def ca_only_record(n=4, spacing=3.0):
    residues = tuple(
        Residue("GLY", (Atom("CA", "C", (i * spacing, 0.3 * i, 0.0)),))
        for i in range(n)
    )
    return ComplexRecord(
        "ca_demo", (Chain("A", None, residues),),
        (Atom("", "C", (1.0, 2.0, 0.5)),), {"A": "receptor"})


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
    for node in g.nodes:
        c = node.channels
        assert pg.mask[node.index, :c].all() and not pg.mask[node.index, c:].any()
        assert not pg.X0[node.index, :, c:].any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pack_graph_edge_arrays_match_per_edge_reference(synthetic_samples, dtype):
    # edge arrays in relation order and the pooling matrix of each edge's
    # receiver, built one edge at a time; the packed arrays are byte-equal
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
            P[:, :g.nodes[d].channels] = pooling_matrix(g.nodes[d].channels)
            pool.append(P)
    for got, want in [(pg.src, np.asarray(src, dtype=np.int64)),
                      (pg.dst, np.asarray(dst, dtype=np.int64)),
                      (pg.kind, np.asarray(kind, dtype=np.int64)),
                      (pg.pool, np.stack(pool))]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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


def test_coord_leak_breaks_equivariance():
    with coord_leak():
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


def test_attention_rows_zero_off_scope(encoded, keys_values, small_cfg64, small_store64):
    pg, _ = encoded
    scope = pg.scopes["A"]
    _, alpha = task_aware_readout_with_attention(
        *keys_values, scope, "ec", small_store64, small_cfg64)
    assert alpha.shape == (pg.n, small_cfg64.heads)
    outside = np.setdiff1d(np.arange(pg.n), scope)
    assert not alpha[outside].any()
    np.testing.assert_allclose(alpha[scope].sum(axis=0), 1.0, atol=1e-12)
    assert (alpha[scope] >= 0).all()


def test_attention_singleton_scope_is_one(encoded, keys_values, small_cfg64, small_store64):
    pg, _ = encoded
    single = pg.scopes[""][:1]
    _, alpha = task_aware_readout_with_attention(
        *keys_values, single, "lba", small_store64, small_cfg64)
    np.testing.assert_array_equal(alpha[single[0]], 1.0)


def test_readout_permutation_invariance(encoded, keys_values, small_cfg64, small_store64):
    pg, H = encoded
    scope = pg.scopes[""]
    shuffled = np.random.default_rng(0).permutation(scope)
    wp_cfg = HeMeNetConfig(L=small_cfg64.L, d=small_cfg64.d, heads=small_cfg64.heads,
                           readout="weighted_prompt", task_dims=SMALL_DIMS,
                           dtype="float64")
    wp_store = init_params(wp_cfg, seed=4)
    for fn in (
        lambda s: task_aware_readout(*keys_values, s, "mf", small_store64, small_cfg64),
        lambda s: sum_readout(H, s),
        lambda s: weighted_prompt_readout(H, s, "mf", wp_store),
    ):
        a, b = fn(scope), fn(shuffled)
        np.testing.assert_allclose(a.numpy(), b.numpy(), atol=1e-12)


def test_task_queries_differentiate_tasks(encoded, keys_values, small_cfg64, small_store64):
    pg, _ = encoded
    scope = pg.scopes[""]
    f_lba = task_aware_readout(*keys_values, scope, "lba", small_store64, small_cfg64)
    f_ec = task_aware_readout(*keys_values, scope, "ec", small_store64, small_cfg64)
    assert np.max(np.abs(f_lba.numpy() - f_ec.numpy())) > 1e-8


def test_empty_scope_rejected(keys_values, small_cfg64, small_store64):
    with pytest.raises(DataError, match="empty"):
        task_aware_readout(*keys_values, np.array([], dtype=np.int64), "ec",
                           small_store64, small_cfg64)


def test_readout_and_heads_bundle(encoded, small_cfg64, small_store64):
    pg, H = encoded
    bundle = readout_and_heads(H, pg.scopes, TASKS, small_store64, small_cfg64,
                               complex_id=pg.complex_id)
    assert bundle.lba is not None and bundle.lba.shape == ()
    assert bundle.ppa is not None
    chain_ids = sorted(k for k in pg.scopes if k)
    for task in ("ec", "mf", "bp", "cc"):
        preds = bundle.prop(task)
        assert sorted(preds) == chain_ids
        for p in preds.values():
            assert p.logits.shape == (SMALL_DIMS[task],)
            probs = p.probs.numpy()
            assert ((probs > 0) & (probs < 1)).all()


# -- keys and values projected once per graph ------------------------------------


def reference_task_aware_readout(H, scope, task, store, cfg):
    """The readout as it was before keys and values were projected once
    per graph: each (task, scope) pool projects its own gathered rows.
    Everything after the projection is the model's own code."""
    idx = np.asarray(scope, dtype=np.int64)
    Hs = gather_rows(H, idx)
    K, V = matmul(Hs, store["readout.W_K"]), matmul(Hs, store["readout.W_V"])
    return task_aware_readout(K, V, np.arange(len(idx)), task, store, cfg)


def reference_readout_and_heads(H, scopes, tasks, store, cfg):
    bundle = M.PredictionBundle(complex_id="")
    for task in tasks:
        if task in ("lba", "ppa"):
            f = reference_task_aware_readout(H, scopes[""], task, store, cfg)
            setattr(bundle, task, reshape(M._head(store, task, f), ()))
        else:
            per_chain = {}
            for cid in sorted(k for k in scopes if k):
                f = reference_task_aware_readout(H, scopes[cid], task, store, cfg)
                logits = M._head(store, task, f)
                per_chain[cid] = M.PropPrediction(logits=logits, probs=sigmoid(logits))
            bundle.props[task] = per_chain
    return bundle


def bundle_outputs(bundle) -> dict:
    out = {"lba": bundle.lba.numpy(), "ppa": bundle.ppa.numpy()}
    for task, per_chain in bundle.props.items():
        for cid, p in per_chain.items():
            out[f"{task}/{cid}"] = p.logits.numpy()
    return out


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
        got = bundle_outputs(readout_and_heads(H, scopes, TASKS, store, cfg))
        want = bundle_outputs(reference_readout_and_heads(H, scopes, TASKS, store, cfg))
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].dtype == np.dtype(dtype)
            assert got[key].tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_projected_readout_bitwise_on_encoded_graphs(synthetic_samples, dtype):
    cfg = HeMeNetConfig(L=2, d=16, task_dims=SMALL_DIMS, dtype=np.dtype(dtype).name)
    store = init_params(cfg, seed=11)
    checked = 0
    for pg, _ in prepare_data(synthetic_samples, GraphConfig(), dtype):
        if min(len(idx) for idx in pg.scopes.values()) < 2:
            continue
        H, _ = encode(pg, store, cfg)
        got = bundle_outputs(readout_and_heads(H, pg.scopes, TASKS, store, cfg))
        want = bundle_outputs(reference_readout_and_heads(H, pg.scopes, TASKS, store, cfg))
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), (pg.complex_id, key)
        checked += 1
    assert checked >= 5


def test_projected_readout_one_node_scopes_within_tolerance(synthetic_data64):
    """A one-node scope's old product was a gemv; rounding may differ."""
    cfg = HeMeNetConfig(L=6, d=64, heads=4, task_dims=SMALL_DIMS, dtype="float64")
    store = init_params(cfg, seed=7)
    rng = np.random.default_rng(9)
    H = Tensor(rng.normal(size=(60, cfg.d_L)))
    scopes = random_scopes(rng, 60, (1, 1, 30))
    got = bundle_outputs(readout_and_heads(H, scopes, TASKS, store, cfg))
    want = bundle_outputs(reference_readout_and_heads(H, scopes, TASKS, store, cfg))
    for key in want:
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12, err_msg=key)
        if key.endswith("/C") or key in ("lba", "ppa"):  # 30 and 60 nodes
            assert got[key].tobytes() == want[key].tobytes(), key

    single = next(pg for pg, _ in synthetic_data64 if pg.n == 1)
    H1 = Tensor(rng.normal(size=(1, cfg.d_L)))
    got = bundle_outputs(readout_and_heads(H1, single.scopes, TASKS, store, cfg))
    want = bundle_outputs(reference_readout_and_heads(H1, single.scopes, TASKS, store, cfg))
    for key in want:
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12, err_msg=key)


def _training_step_grads(store, cfg, data, readout):
    store.zero_grads()
    for pg, labels in data:
        wanted = tasks_present(labels)
        if not wanted:
            continue
        H, _ = encode(pg, store, cfg, train=True)
        loss, _ = multitask_loss(readout(H, pg.scopes, wanted, store, cfg),
                                 labels, LossWeights(), tasks=wanted)
        loss.backward()
    return {name: None if t.grad is None else t.grad.copy() for name, t in store.items()}


def test_projected_readout_gradients_match_per_scope_projection(small_cfg64, synthetic_data64):
    """W_K/W_V gradients are now one H^T dK, not a sum over scopes, so
    they are compared against the global gradient norm: the bias before
    train-mode batch norm (phi_h.b2) has a true gradient of 0."""
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


def reference_layer_forward(pg, h, X, store, cfg, layer, train=False):
    """``layer_forward`` as it was before the single aggregation path: a
    gather, a segment sum and a matmul per non-empty relation kind, added
    in relation order, a separate homogeneous branch, and the channel
    pooling inline.  Everything else is the model's own code."""
    p = f"layers.{layer}"
    E = len(pg.src)
    h_dst, h_src = gather_rows(h, pg.dst), gather_rows(h, pg.src)
    X_dst, X_src = gather_rows(X, pg.dst), gather_rows(X, pg.src)
    A_nodes = reshape(gather_rows(store["geom.attr"], pg.elem_idx.reshape(-1)),
                      (pg.n, 14, cfg.d_A))
    A_dst, A_src = gather_rows(A_nodes, pg.dst), gather_rows(A_nodes, pg.src)
    rel_flat = geom.normalized_flat_relation(
        X_dst, X_src, pg.mask[pg.dst], pg.mask[pg.src], A_dst, A_src, eps=cfg.eps)
    kind_idx = pg.kind if cfg.relations == "hetero" else np.zeros(E, dtype=np.int64)
    e_feat = gather_rows(store["embed.edge"], kind_idx)
    m = M._mlp_apply(store, f"{p}.phi_m", concat([h_dst, h_src, rel_flat, e_feat], axis=1),
                     cfg.act)

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
    if cfg.norm == "batch":
        running = {"mean": store.state[f"{p}.norm.mean"], "var": store.state[f"{p}.norm.var"]}
        z = batch_norm(z, gamma, beta, running, train=train)
        store.state[f"{p}.norm.mean"] = running["mean"]
        store.state[f"{p}.norm.var"] = running["var"]
    else:
        z = layer_norm(z, gamma, beta)
    h_new = h + M._ACTIVATIONS[cfg.act](z)

    centroid = geom.masked_centroid(X_src, pg.mask[pg.src])
    X_rel = X_dst - reshape(centroid, (E, 3, 1))
    s = M._mlp_apply(store, f"{p}.phi_x", m, cfg.act)
    pooled = matmul(reshape(s, (E, 1, 14)), Tensor(pg.pool))
    M_edge = mul(X_rel, pooled)
    w_edge = reshape(gather_rows(store[f"{p}.rel_scale"], kind_idx), (E, 1, 1))
    M_edge = mul(M_edge, w_edge)
    M_edge = mul(M_edge, Tensor(pg.mask[pg.dst][:, None, :], dtype=X.dtype))
    moved = segment_sum(M_edge, pg.dst, pg.n)
    X_new = X + mul(moved, Tensor((1.0 / pg.deg)[:, None, None], dtype=X.dtype))
    return h_new, X_new


def _encode_with_grads(pg, cfg, seed):
    """H, X and every parameter gradient of one backward through both."""
    store = init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    H, X = encode(pg, store, cfg, train=True)
    probe_H = Tensor(rng.normal(size=H.shape).astype(cfg.np_dtype))
    probe_X = Tensor(rng.normal(size=X.shape).astype(cfg.np_dtype))
    (tsum(mul(H, probe_H)) + tsum(mul(X, probe_X))).backward()
    grads = {name: None if t.grad is None else t.grad.tobytes() for name, t in store.items()}
    return H.data.tobytes(), X.data.tobytes(), grads


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
        assert got[0] == want[0], (pg.complex_id, "H")
        assert got[1] == want[1], (pg.complex_id, "X")
        assert got[2].keys() == want[2].keys()
        for name in want[2]:
            assert got[2][name] == want[2][name], (pg.complex_id, name)
        assert got[2]["layers.0.rel_weight"] is not None
    assert empty_kinds > 0
    assert any(len(pg.src) == pg.n for pg, _ in data)  # self-loops only


def _load_bench_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("hemenet_bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_counts(synthetic_data64):
    """The benchmark's tracer wraps ``model.task_aware_readout`` through
    the module global and counts tensor ops under ``model.encode``; the
    readout keeps one call per (task, scope) and the projection stays
    out of the encoder.  The encoder runs 338 ops at L=6 with all six
    relation kinds: the aggregation is one segment sum, reshape, matmul
    and sum per layer whatever the relation count (the per-relation loop
    ran 35)."""
    tracer = _load_bench_tracer()
    cfg = HeMeNetConfig(L=6, d=8, heads=2, task_dims=SMALL_DIMS, dtype="float64")
    store = init_params(cfg, seed=1)
    checked = 0
    for pg, _ in synthetic_data64:
        if not all(len(pos) for pos in pg.kind_pos):
            continue
        n_chains = sum(1 for k in pg.scopes if k)
        with tracer.Tracer() as tr:
            H, _ = hemenet.train.encode(pg, store, cfg)
            hemenet.train.readout_and_heads(H, pg.scopes, TASKS, store, cfg, pg.complex_id)
            hemenet.train.readout_and_heads(H, pg.scopes, ("lba", "ec", "mf", "bp", "cc"),
                                            store, cfg, pg.complex_id)
        in_encode = sum(1 for i, name in enumerate(tr.names)
                        if name.startswith("tensor.") and tr.ancestor_named(i, "model.encode") >= 0)
        assert in_encode == 338
        per_call = [sum(1 for i, name in enumerate(tr.names)
                        if name == "model.task_readout" and tr.ancestor_named(i, "model.readout") == r)
                    for r, name in enumerate(tr.names) if name == "model.readout"]
        assert per_call == [4 * n_chains + 2, 4 * n_chains + 1]
        checked += 1
    assert checked >= 2


def test_predict_all_readout_variants(synthetic_samples):
    rec = synthetic_samples[0][0]
    for readout in ("task_aware", "sum", "weighted_prompt"):
        cfg = HeMeNetConfig(L=1, d=8, heads=2, readout=readout,
                            task_dims=SMALL_DIMS, dtype="float64")
        store = init_params(cfg, seed=3)
        bundle = predict(build_graph(rec), store, cfg, tasks=("lba", "ec"))
        assert bundle.lba is not None and bundle.prop("ec")


def test_predict_rejects_unknown_task(small_cfg64, small_store64, synthetic_samples):
    g = build_graph(synthetic_samples[0][0])
    with pytest.raises(ConfigError, match="unknown tasks"):
        predict(g, small_store64, small_cfg64, tasks=("lba", "dock"))


def test_property_task_needs_chains(small_cfg64, small_store64):
    rec = ComplexRecord("ligonly", (),
                        tuple(Atom("", "C", (float(i), 0.0, 0.0)) for i in range(3)),
                        {})
    g = build_graph(rec)
    with pytest.raises(DataError, match="chain-less"):
        predict(g, small_store64, small_cfg64, tasks=("ec",))


def test_homogeneous_and_layer_norm_forward(synthetic_samples):
    rec = synthetic_samples[2][0]
    cfg = HeMeNetConfig(L=2, d=8, heads=2, relations="homogeneous", norm="layer",
                        task_dims=SMALL_DIMS, dtype="float64")
    store = init_params(cfg, seed=1)
    assert not store.state  # layer norm keeps no running statistics
    bundle = predict(build_graph(rec), store, cfg, tasks=("mf",))
    assert bundle.prop("mf")


def test_batch_norm_running_stats_update(synthetic_samples):
    cfg = HeMeNetConfig(L=1, d=8, heads=2, norm="batch",
                        task_dims=SMALL_DIMS, dtype="float64")
    store = init_params(cfg, seed=1)
    before = store.state["layers.0.norm.mean"].copy()
    pg = pack_graph(build_graph(synthetic_samples[0][0]), np.float64)
    encode(pg, store, cfg, train=True)
    after = store.state["layers.0.norm.mean"]
    assert np.max(np.abs(after - before)) > 0
    # eval mode leaves them frozen
    frozen = after.copy()
    encode(pg, store, cfg, train=False)
    np.testing.assert_array_equal(store.state["layers.0.norm.mean"], frozen)


# -- alpha-carbon degeneracy -----------------------------------------------------


def test_ca_only_record_matches_calpha_geometry_exactly(small_cfg64, small_store64):
    rec = ca_only_record()
    g_full = build_graph(rec, GraphConfig(geometry="full_atom"))
    g_ca = build_graph(rec, GraphConfig(geometry="calpha"))
    assert g_full.edges == g_ca.edges
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
    want = predict(g, store, cfg, tasks=("lba",)).lba.item()

    path = tmp_path / "model.bin"
    save_model(path, store, cfg, extra={"epoch": 3})
    store2, cfg2, sidecar = load_model(path)
    assert cfg2 == cfg and cfg2.act == "relu"
    assert sidecar["epoch"] == 3
    got = predict(g, store2, cfg2, tasks=("lba",)).lba.item()
    assert got == want

    with pytest.raises(ConfigError, match="does not match"):
        load_model(path, expect=HeMeNetConfig(L=2, d=8, heads=2,
                                              task_dims=SMALL_DIMS, dtype="float64"))


def test_random_graph_generator_covers_all_kinds():
    rng = np.random.default_rng(0)
    g = random_graph(rng, max_nodes=12)
    for kind in RelationKind:
        assert g.edges[kind], kind.name
