"""Objective masking, quota batching, the training loop, and the
evaluation metrics with their hand-checkable oracles."""

import importlib
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hemenet.train
from hemenet import model as M
from hemenet.datasets import (
    PROPERTY_TASKS,
    SampleLabels,
    SyntheticConfig,
    _synthetic_chain,
    generate_synthetic,
)
from hemenet.graph import GraphConfig
from hemenet.errors import ConfigError, DataError, NumericsError
from hemenet.model import HeMeNetConfig, encode, init_params, readout_and_heads
from hemenet.numcore import (
    OptimConfig,
    Tensor,
    binary_cross_entropy_with_logits,
    gather_rows,
    no_grad,
    reshape,
    segment_sum,
    sigmoid,
    tmean,
)
from hemenet.structio import ComplexRecord
from hemenet.train import (
    EpochStats,
    LabelPlan,
    LossWeights,
    balanced_batches,
    cosine_lr,
    evaluate,
    fmax,
    label_plan,
    merge_scores,
    metric_lines,
    metrics_from_scores,
    multitask_loss,
    prepare_data,
    rmse_mae,
    score_samples,
    train_epoch,
)

from conftest import SMALL_DIMS, every_pool, make_ligand, tape_float_values


def fresh_store(cfg):
    return init_params(cfg, seed=11)


# -- metric oracles -----------------------------------------------------------


def test_fmax_hand_oracle():
    # classes (A, B, C); A and B are true; scores 0.8, 0.4, 0.6.
    # tau = 0.4 predicts all three: P = 2/3, R = 1, F = 0.8
    scores = [[0.8, 0.4, 0.6]]
    labels = [[1, 1, 0]]
    assert fmax(scores, labels) == pytest.approx(0.8, abs=1e-12)


def test_fmax_zero_scores_mean_no_prediction():
    assert fmax([[0.0, 0.0]], [[1, 1]]) == 0.0


def test_fmax_perfect_separation():
    assert fmax([[0.9, 0.0], [0.8, 0.0]], [[1, 0], [1, 0]]) == 1.0


def test_fmax_errors():
    with pytest.raises(DataError, match="matching"):
        fmax([[0.5]], [[1, 0]])
    with pytest.raises(DataError, match="no chain has any true label"):
        fmax([[0.5, 0.2]], [[0, 0]])


def brute_force_fmax(S, Y):
    S = np.asarray(S, dtype=np.float64)
    Y = np.asarray(Y) != 0
    best = 0.0
    for step in range(101):
        tau = step / 100.0
        precisions, recalls = [], []
        for i in range(S.shape[0]):
            pred = {j for j in range(S.shape[1]) if S[i, j] >= tau and S[i, j] > 0}
            true = {j for j in range(S.shape[1]) if Y[i, j]}
            if pred:
                precisions.append(len(pred & true) / len(pred))
            if true:
                recalls.append(len(pred & true) / len(true))
        p = float(np.mean(precisions)) if precisions else 0.0
        r = float(np.mean(recalls)) if recalls else 0.0
        if p + r > 0:
            best = max(best, 2 * p * r / (p + r))
    return best


def test_fmax_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(60):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        S = np.round(rng.random((n, k)), 2)
        Y = rng.random((n, k)) < 0.4
        Y[rng.integers(n), rng.integers(k)] = True  # at least one true label
        assert fmax(S, Y) == brute_force_fmax(S, Y)


def test_rmse_mae_oracle():
    r, m = rmse_mae([1.0, 5.0], [0.0, 2.0])
    assert r == pytest.approx(np.sqrt(5.0), abs=1e-12)
    assert m == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(DataError):
        rmse_mae([], [])
    with pytest.raises(DataError):
        rmse_mae([1.0], [1.0, 2.0])


def test_cosine_lr_schedule():
    assert cosine_lr(0.1, 0, 10) == pytest.approx(0.1)
    assert cosine_lr(0.1, 5, 10) == pytest.approx(0.05)
    assert cosine_lr(0.1, 10, 10) == pytest.approx(0.0, abs=1e-18)
    assert cosine_lr(0.1, 25, 10) == pytest.approx(0.0, abs=1e-18)
    with pytest.raises(ConfigError):
        cosine_lr(0.1, 0, 0)


# -- loss ------------------------------------------------------------------------


def test_loss_weights():
    assert LossWeights().lam == 1.0
    with pytest.raises(ConfigError):
        LossWeights(lam=-0.1).validate()


def test_label_plan_pools_the_labeled_pairs_only(synthetic_data64):
    """Tasks in TASKS order; an affinity pools the whole graph against its
    value, a property task its labeled chains, sorted, against their
    stacked label rows.  Labels of tasks outside ``tasks`` plan nothing."""
    pg = next(pg for pg, _ in synthetic_data64 if len(pg.scopes) >= 3)
    a, b = sorted(k for k in pg.scopes if k)[:2]
    ones, zeros = np.ones(8, dtype=np.uint8), np.zeros(8, dtype=np.uint8)
    labels = SampleLabels(lba=2.0, chain_props={b: {"ec": ones, "mf": None},
                                                a: {"cc": ones, "ec": zeros}})
    plan = label_plan(pg, labels)
    assert plan.pools == {"lba": ("",), "ec": (a, b), "cc": (a,)}
    assert list(plan.targets) == ["lba", "ec", "cc"] and plan.targets["lba"] == 2.0
    assert plan.targets["ec"].tobytes() == np.stack([zeros, ones]).tobytes()
    assert plan.targets["cc"].shape == (1, 8)
    assert label_plan(pg, labels, tasks=("cc", "ppa")).pools == {"cc": (a,)}
    assert label_plan(pg, SampleLabels()) == LabelPlan({}, {})


@pytest.fixture(scope="module")
def logits_and_labels(small_cfg64, small_store64, synthetic_data64):
    pg, labels = synthetic_data64[0]
    H, _ = encode(pg, small_store64, small_cfg64)
    logits = readout_and_heads(H, pg.scopes, label_plan(pg, labels).pools, small_store64,
                               small_cfg64)
    return pg, logits, labels


def test_multitask_loss_affinity_term(logits_and_labels):
    pg, logits, labels = logits_and_labels
    assert labels.lba is not None
    loss, breakdown = multitask_loss(logits, label_plan(pg, labels, ("lba",)),
                                     LossWeights(lam=3.0))
    expect = (logits["lba"].item() - labels.lba) ** 2  # weight 1, whatever lam is
    assert breakdown == {"lba": pytest.approx(expect)}
    assert loss.item() == pytest.approx(expect)


def test_multitask_loss_skips_out_of_scope_labels(logits_and_labels):
    pg, logits, labels = logits_and_labels
    loss, breakdown = multitask_loss(logits, label_plan(pg, labels, ("mf",)), LossWeights())
    assert "lba" not in breakdown


def test_multitask_loss_lambda_scales_properties(logits_and_labels):
    pg, logits, labels = logits_and_labels
    prop_tasks = [t for t in label_plan(pg, labels).pools if t not in ("lba", "ppa")]
    if not prop_tasks:
        pytest.skip("sample has no property labels")
    plan = label_plan(pg, labels, prop_tasks[:1])
    base, _ = multitask_loss(logits, plan, LossWeights(lam=1.0))
    doubled, _ = multitask_loss(logits, plan, LossWeights(lam=2.0))
    assert doubled.item() == pytest.approx(2.0 * base.item(), rel=1e-12)


def test_label_plan_rejects_a_labeled_chain_without_nodes(synthetic_data64):
    """The plan, built before any forward pass, is where a label on a
    chain the graph lacks stops a sample."""
    pg, _ = synthetic_data64[0]
    assert "Z" not in pg.scopes
    on_z = SampleLabels(lba=1.0, chain_props={"Z": {"ec": np.ones(8, dtype=np.uint8)}})
    with pytest.raises(DataError, match=f"complex {pg.complex_id}: label ec present on "
                                        "chain Z but prediction missing"):
        label_plan(pg, on_z)
    assert label_plan(pg, on_z, tasks=("lba", "mf")).pools == {"lba": ("",)}


def test_multitask_loss_empty():
    loss, breakdown = multitask_loss({}, LabelPlan({}, {}), LossWeights())
    assert loss.item() == 0.0 and breakdown == {}


def test_unlabeled_heads_get_exactly_zero_gradient(small_cfg64, synthetic_data64):
    store = fresh_store(small_cfg64)
    pg, labels = next((pg, lb) for pg, lb in synthetic_data64 if lb.lba is not None)
    grads = {}
    plan = label_plan(pg, labels, ("lba",))
    H, _ = encode(pg, store, small_cfg64)
    loss, _ = multitask_loss(readout_and_heads(H, pg.scopes, plan.pools, store, small_cfg64),
                             plan, LossWeights())
    loss.backward(grads)
    assert grads.get(store.params["head.lba.w1"]) is not None
    for task in ("ppa", "ec", "mf", "bp", "cc"):
        for suffix in ("w1", "b1", "w2", "b2"):
            g = grads.get(store.params[f"head.{task}.{suffix}"])
            assert g is None or not np.any(g)


# -- logits blocks against the per-chain predictions ---------------------------------


def multichain_samples(seed=0, every_label=False):
    """Complexes of 1, 2, 3, 4 and 3 chains with an lba label, a ppa
    label or neither.  ``ec`` is labeled on every chain, the other
    property tasks each on about half of them, or with ``every_label``
    on every chain as well."""
    rng = np.random.default_rng(seed)
    out = []
    for i, (n_chains, affinity) in enumerate(((1, "lba"), (2, "ppa"), (3, None),
                                              (4, "lba"), (3, "ppa"))):
        chains = tuple(_synthetic_chain(rng, chr(ord("A") + c), f"MC{i}{c}",
                                        int(rng.integers(2, 6)),
                                        rng.normal(scale=3.0, size=3) + [15.0 * c, 0.0, 0.0])
                       for c in range(n_chains))
        anchor = chains[0].residues.atoms.xyz[0]
        ligand = make_ligand([("C", anchor + rng.normal(scale=2.0, size=3))
                              for _ in range(3 if affinity == "lba" else 0)])
        rec = ComplexRecord(f"mc{i}", chains, ligand, {ch.chain_id: "receptor" for ch in chains})
        labels = SampleLabels(**({affinity: float(rng.uniform(2.0, 9.0))} if affinity else {}))
        for ch in chains:
            labels.chain_props[ch.chain_id] = {
                t: rng.integers(0, 2, SMALL_DIMS[t]).astype(np.uint8)
                if t == "ec" or rng.random() < 0.5 or every_label else None
                for t in PROPERTY_TASKS}
        out.append((rec, labels))
    return out


def per_chain_readout(H, scopes, pools, store, cfg):
    """The predictions as ``readout_and_heads`` split them before it
    returned each head's block whole: per chain a gather, a reshape and a
    sigmoid of the head's rows as (logits, probabilities), each affinity
    reshaped to a scalar.  The pools and heads are the model's own."""
    stack = M._pool_stack(H, scopes, pools, store, cfg)
    pred, start = {}, 0
    for task, keys in pools.items():
        out = M._mlp_apply(store, f"head.{task}",
                           gather_rows(stack, np.arange(start, start + len(keys))))
        start += len(keys)
        if task in ("lba", "ppa"):
            pred[task] = reshape(out, ())
            continue
        pred[task] = {}
        for i, cid in enumerate(keys):
            logits = reshape(gather_rows(out, np.array([i])), (-1,))
            pred[task][cid] = (logits, sigmoid(logits))
    return pred


def per_chain_loss(pred, labels, w, tasks):
    """``multitask_loss`` on ``per_chain_readout``: one BCE mean per
    labeled chain, the chains added in Python from the first."""
    terms, breakdown = [], {}
    for task, y in (("lba", labels.lba), ("ppa", labels.ppa)):
        if y is not None and task in tasks:
            diff = pred[task] - float(y)
            terms.append(diff * diff)
            breakdown[task] = terms[-1].item()
    for task in PROPERTY_TASKS:
        labeled = sorted(cid for cid, props in labels.chain_props.items()
                         if props.get(task) is not None)
        if task not in tasks or not labeled:
            continue
        per_chain = []
        for cid in labeled:
            logits = pred[task][cid][0]
            target = np.asarray(labels.chain_props[cid][task], dtype=logits.dtype)
            per_chain.append(tmean(binary_cross_entropy_with_logits(logits, target)))
        total = per_chain[0]
        for extra in per_chain[1:]:
            total = total + extra
        terms.append(total * (w.lam / len(per_chain)))
        breakdown[task] = terms[-1].item()
    loss = terms[0]
    for term in terms[1:]:
        loss = loss + term
    return loss, breakdown


@pytest.mark.parametrize("readout", ["task_aware", "sum", "weighted_prompt"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_logits_blocks_bitwise_equal_per_chain_predictions(dtype, readout):
    """Reading each head's block whole gives the loss, its breakdown,
    every parameter gradient, the batch statistics, the affinity
    predictions and every scored probability row byte for byte as the
    per-chain predictions did.  ``ec`` is labeled on every chain, so
    its chain means are summed over 3 and 4 chains."""
    cfg = HeMeNetConfig(L=2, d=16, heads=2, readout=readout, task_dims=SMALL_DIMS, dtype=dtype)
    data = prepare_data(multichain_samples(), GraphConfig(), cfg.np_dtype)
    assert [len(pg.scopes) - 1 for pg, _ in data] == [1, 2, 3, 4, 3]
    store = init_params(cfg, seed=6)
    w = LossWeights(lam=0.7)

    def step(loss_of):
        grads, seen = {}, []
        for pg, labels in data:
            plan = label_plan(pg, labels)
            batch_stats = {}
            H, _ = encode(pg, store, cfg, batch_stats)
            loss, breakdown = loss_of(H, pg, labels, plan)
            loss.backward(grads)
            seen += [loss.data.tobytes(), np.array(list(breakdown.values())).tobytes(),
                     list(breakdown)] + [v.tobytes() for v in batch_stats.values()]
        return seen, {name: grads[t].tobytes() for name, t in store.items() if t in grads}

    got = step(lambda H, pg, labels, plan: multitask_loss(
        readout_and_heads(H, pg.scopes, plan.pools, store, cfg), plan, w))
    want = step(lambda H, pg, labels, plan: per_chain_loss(
        per_chain_readout(H, pg.scopes, plan.pools, store, cfg), labels, w, plan.pools))
    assert got[0] == want[0]
    assert got[1].keys() == want[1].keys() and {"head.ec.w1", "head.ppa.w1"} <= got[1].keys()
    for name in want[1]:
        assert got[1][name] == want[1][name], name

    scored = score_samples(store, cfg, data)
    aff, probs = {"lba": [], "ppa": []}, {t: [] for t in PROPERTY_TASKS}
    with no_grad():
        for pg, labels in data:
            H, _ = encode(pg, store, cfg)
            pred = per_chain_readout(H, pg.scopes, label_plan(pg, labels).pools, store, cfg)
            for task in aff:
                if getattr(labels, task) is not None:
                    aff[task].append(pred[task].item())
            for task in PROPERTY_TASKS:
                for cid, props in sorted(labels.chain_props.items()):
                    if props.get(task) is not None:
                        probs[task].append(pred[task][cid][1].data.tobytes())
    for task, values in aff.items():
        assert np.array(scored["aff_preds"][task]).tobytes() == np.array(values).tobytes()
    for task, rows in probs.items():
        assert [p.tobytes() for p in scored["prop_scores"][task]] == rows, task
    assert len(probs["ec"]) == 13


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_property_term_adds_chain_means_one_by_one(dtype):
    """On random logits blocks of 3, 4, 8 and 9 labeled chains the
    property term is bitwise the per-chain means added from the first,
    and so is the gradient of every logit.  numpy's sum adds the first
    value to a pairwise sum of the rest, which is that order below eight
    values and differs from it on some draws of eight or more."""
    rng = np.random.default_rng(0)
    for draw in range(200):
        chains = tuple("ABCDEFGHI"[:(3, 4, 8, 9)[draw % 4]])
        block = Tensor((rng.normal(size=(len(chains), 8)) * 3).astype(dtype), requires_grad=True)
        labels = SampleLabels(chain_props={
            cid: {"ec": rng.integers(0, 2, 8).astype(np.uint8)} for cid in chains})
        pred = {"ec": {cid: (reshape(gather_rows(block, np.array([i])), (-1,)), None)
                       for i, cid in enumerate(chains)}}
        plan = LabelPlan({"ec": chains},
                         {"ec": np.stack([labels.chain_props[cid]["ec"] for cid in chains])})
        got, want = {}, {}
        loss, _ = multitask_loss({"ec": block}, plan, LossWeights())
        ref, _ = per_chain_loss(pred, labels, LossWeights(), ("ec",))
        loss.backward(got)
        ref.backward(want)
        assert loss.data.tobytes() == ref.data.tobytes(), draw
        assert got[block].tobytes() == want[block].tobytes(), draw


# -- labeled pools against all-chains pooling ----------------------------------------


def tasks_present(labels):
    """A sample's labeled tasks in TASKS order, as training found them
    before ``label_plan``."""
    return tuple([t for t in ("lba", "ppa") if getattr(labels, t) is not None]
                 + [t for t in PROPERTY_TASKS
                    if any(props.get(t) is not None for props in labels.chain_props.values())])


def labeled_rows(chains, labels, task):
    """(row of the all-chains block, label row) of every chain that
    carries a ``task`` label, in sorted chain order: the mapping the loss
    and the scorer made before the labels chose the pools."""
    return [(chains.index(cid), props[task]) for cid, props in sorted(labels.chain_props.items())
            if props.get(task) is not None]


def all_chains_logits(H, pg, labels, store, cfg):
    wanted = tasks_present(labels)
    return wanted, readout_and_heads(H, pg.scopes, every_pool(pg.scopes, wanted), store, cfg)


def all_chains_loss(H, pg, labels, store, cfg, w):
    """The loss of a sample as it ran before ``label_plan``: every chain
    pooled for every labeled task, the labeled rows gathered from each
    property block."""
    wanted, logits = all_chains_logits(H, pg, labels, store, cfg)
    chains = tuple(sorted(k for k in pg.scopes if k))
    terms, breakdown = [], {}
    for task in wanted:
        if task in ("lba", "ppa"):
            diff = logits[task] - float(getattr(labels, task))
            term = diff * diff
        else:
            rows, targets = zip(*labeled_rows(chains, labels, task))
            block = gather_rows(logits[task], rows)
            per_chain = tmean(binary_cross_entropy_with_logits(block, np.stack(targets)), axis=1)
            term = segment_sum(per_chain, np.zeros(len(rows), np.int64), 1) * (w.lam / len(rows))
        terms.append(term)
        breakdown[task] = term.item()
    loss = terms[0]
    for term in terms[1:]:
        loss = loss + term
    return reshape(loss, ()), breakdown


def all_chains_scores(store, cfg, data):
    """``score_samples`` as it ran before ``label_plan``."""
    out = {key: {t: [] for t in tasks} for key, tasks in (
        ("aff_preds", ("lba", "ppa")), ("aff_labels", ("lba", "ppa")),
        ("prop_scores", PROPERTY_TASKS), ("prop_labels", PROPERTY_TASKS))}
    with no_grad():
        for pg, labels in data:
            H, _ = encode(pg, store, cfg)
            wanted, logits = all_chains_logits(H, pg, labels, store, cfg)
            chains = tuple(sorted(k for k in pg.scopes if k))
            for task in wanted:
                if task in ("lba", "ppa"):
                    out["aff_preds"][task].append(logits[task].item())
                    out["aff_labels"][task].append(float(getattr(labels, task)))
                    continue
                probs = sigmoid(logits[task]).data
                for row, y in labeled_rows(chains, labels, task):
                    out["prop_scores"][task].append(probs[row].copy())
                    out["prop_labels"][task].append(np.asarray(y))
    return out


def sample_step(pg, store, cfg, loss_of):
    """Train-mode forward of one sample, then its backward: (loss,
    breakdown, batch statistics, gradient by parameter name)."""
    grads, batch_stats = {}, {}
    H, _ = encode(pg, store, cfg, batch_stats)
    loss, breakdown = loss_of(H)
    loss.backward(grads)
    return loss.data, breakdown, batch_stats, {name: grads[t] for name, t in store.items()
                                               if t in grads}


def score_rows(scored):
    """Every scored value of a ``score_samples`` dict, in order, by task."""
    return {f"{task}/{i}": np.atleast_1d(np.asarray(v)) for key, per_task in scored.items()
            for task, values in per_task.items() for i, v in enumerate(values)
            if key in ("aff_preds", "prop_scores")}


# Bound on a sample whose pools changed, relative to the global gradient
# norm and to the largest prediction: the FFN and heads run on fewer rows,
# and OpenBLAS rounds a row of a product differently as the row count
# changes.
LABEL_POOL_RTOL = {"float64": 1e-12, "float32": 2e-5}


@pytest.mark.parametrize("readout", ["task_aware", "sum", "weighted_prompt"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_label_pools_match_all_chains_pooling(dtype, readout):
    """Pooling each sample's labeled (task, chain) pairs only, against
    pooling every chain for every labeled task and gathering the labeled
    rows.  Where the plan's pools are every chain of every labeled task,
    the loss, its breakdown, every gradient, the batch statistics and
    every scored row are byte for byte today's; elsewhere the loss,
    gradients and predictions agree within LABEL_POOL_RTOL.  The graphs
    have 1 to 4 chains, and ``ec`` is labeled on 3 and 4 of them."""
    cfg = HeMeNetConfig(L=2, d=16, heads=2, readout=readout, task_dims=SMALL_DIMS, dtype=dtype)
    data = prepare_data(multichain_samples() + multichain_samples(seed=1, every_label=True),
                        GraphConfig(), cfg.np_dtype)
    store = init_params(cfg, seed=6)
    w = LossWeights(lam=0.7)
    rtol = LABEL_POOL_RTOL[dtype]
    worst_grad = worst_pred = 0.0
    unchanged = 0
    for pg, labels in data:
        plan = label_plan(pg, labels)
        got = sample_step(pg, store, cfg, lambda H: multitask_loss(
            readout_and_heads(H, pg.scopes, plan.pools, store, cfg), plan, w))
        want = sample_step(pg, store, cfg, lambda H: all_chains_loss(H, pg, labels, store, cfg, w))
        got_rows = score_rows(score_samples(store, cfg, [(pg, labels)]))
        want_scored = all_chains_scores(store, cfg, [(pg, labels)])
        want_rows = score_rows(want_scored)
        assert list(got[1]) == list(want[1]) and got[3].keys() == want[3].keys()
        assert [v.tobytes() for v in got[2].values()] == [v.tobytes() for v in want[2].values()]
        assert got_rows.keys() == want_rows.keys()
        if plan.pools == every_pool(pg.scopes, plan.pools):
            unchanged += 1
            assert got[0].tobytes() == want[0].tobytes()
            assert np.array(list(got[1].values())).tobytes() == \
                np.array(list(want[1].values())).tobytes()
            for name, g in want[3].items():
                assert got[3][name].tobytes() == g.tobytes(), name
            for key, row in want_rows.items():
                assert got_rows[key].tobytes() == row.tobytes(), key
            continue
        assert abs(got[0] - want[0]) <= rtol * abs(want[0])
        norm = np.sqrt(sum(np.sum(g.astype(np.float64) ** 2) for g in want[3].values()))
        worst_grad = max(worst_grad, max(float(np.max(np.abs(got[3][k] - g)))
                                         for k, g in want[3].items()) / norm)
        for key, row in want_rows.items():
            worst_pred = max(worst_pred, float(np.max(np.abs(got_rows[key] - row)))
                             / float(np.max(np.abs(row))))
    print(f"{dtype} {readout}: {unchanged} of {len(data)} samples keep their pools; worst "
          f"gradient {worst_grad:.2g} of the norm, worst prediction {worst_pred:.2g}")
    assert unchanged >= 6 and len(data) - unchanged >= 3
    assert worst_grad <= rtol and worst_pred <= rtol


def test_paper_train_corpus_pools_only_its_labeled_pairs(monkeypatch):
    """The benchmark's train-paper corpus, built through bench/gen at its
    shapes, plans 21 pooled (task, scope) pairs per epoch; pooling every
    chain for every labeled task pooled 29.  At 13 traced ops per pooled
    pair that is 104 readout ops fewer per epoch."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    gen, workloads = importlib.import_module("gen"), importlib.import_module("workloads")
    scale, rng = workloads.PAPER, np.random.default_rng(0)
    pairs = []
    for k, (lengths, n_lig, aff, tasks) in enumerate(scale.train_corpus):
        rec = gen.make_complex(rng, f"tr{k:02d}", lengths, n_lig)
        pairs.append((rec, gen.make_labels(rng, rec, aff, tasks, scale.model.task_dims)))
    planned = every = 0
    for pg, labels in prepare_data(pairs, GraphConfig(radius=workloads.RADIUS), np.float32):
        pools = label_plan(pg, labels).pools
        planned += sum(len(keys) for keys in pools.values())
        every += sum(len(keys) for keys in every_pool(pg.scopes, pools).values())
    assert (planned, every) == (21, 29)


# -- batching ---------------------------------------------------------------------


def quota_corpus(n_lba=5, n_ppa=4, n_prop=7):
    out = []
    for _ in range(n_lba):
        out.append((None, SampleLabels(lba=1.0)))
    for _ in range(n_ppa):
        out.append((None, SampleLabels(ppa=1.0)))
    for _ in range(n_prop):
        out.append((None, SampleLabels(chain_props={
            "A": {"ec": np.ones(8, dtype=np.uint8)}})))
    return out


def test_balanced_batches_cover_each_sample_once():
    samples = quota_corpus()
    batches = balanced_batches(samples, batch_size=4, seed=0)
    flat = list(itertools.chain.from_iterable(batches))
    assert sorted(flat) == list(range(len(samples)))


def test_balanced_batches_satisfy_quotas():
    samples = quota_corpus()
    n_lba = sum(1 for _, l in samples if l.lba is not None)
    n_ppa = sum(1 for _, l in samples if l.ppa is not None)
    for seed in range(30):
        seen_lba = seen_ppa = 0
        for batch in balanced_batches(samples, batch_size=4, seed=seed):
            has_lba = any(samples[i][1].lba is not None for i in batch)
            has_ppa = any(samples[i][1].ppa is not None for i in batch)
            if seen_lba < n_lba:
                assert has_lba
            if seen_ppa < n_ppa:
                assert has_ppa
            seen_lba += sum(1 for i in batch if samples[i][1].lba is not None)
            seen_ppa += sum(1 for i in batch if samples[i][1].ppa is not None)


def test_balanced_batches_deterministic_and_validated():
    samples = quota_corpus()
    assert balanced_batches(samples, 4, seed=3) == balanced_batches(samples, 4, seed=3)
    with pytest.raises(ConfigError, match="quotas"):
        balanced_batches(samples, batch_size=1, seed=0)
    # with no affinity quota to fill, a batch size of 0 used to loop forever
    for batch_size in (0, -1):
        with pytest.raises(ConfigError, match="batch size"):
            balanced_batches(quota_corpus(n_lba=0, n_ppa=0), batch_size=batch_size, seed=0)


# -- training loop ------------------------------------------------------------------


def test_train_epoch_reduces_loss(small_cfg64, synthetic_data64):
    store = fresh_store(small_cfg64)
    data = synthetic_data64[:4]
    opt = OptimConfig(lr=5e-3)
    first = train_epoch(store, small_cfg64, data, LossWeights(), opt,
                        seed=0, batch_size=2)
    assert isinstance(first, EpochStats)
    assert first.n_batches == 2 and first.grad_norm >= 0
    last = None
    for epoch in range(1, 12):
        last = train_epoch(store, small_cfg64, data, LossWeights(), opt,
                           seed=epoch, batch_size=2)
    assert last.loss < first.loss


def test_train_epoch_lr_zero_is_noop(small_cfg64, synthetic_data64):
    store = fresh_store(small_cfg64)
    before = {k: t.data.tobytes() for k, t in store.items()}
    stats = train_epoch(store, small_cfg64, synthetic_data64[:3], LossWeights(),
                        OptimConfig(lr=0.0), seed=1, batch_size=3)
    assert stats.n_batches == 1
    after = {k: t.data.tobytes() for k, t in store.items()}
    assert before == after


def test_train_epoch_negative_lr_rejected(small_cfg64, synthetic_data64):
    store = fresh_store(small_cfg64)
    with pytest.raises(ConfigError, match="learning rate"):
        train_epoch(store, small_cfg64, synthetic_data64[:2], LossWeights(),
                    OptimConfig(lr=-1e-3), seed=1, batch_size=2)


def test_train_epoch_task_filter(small_cfg64, synthetic_data64):
    store = fresh_store(small_cfg64)
    stats = train_epoch(store, small_cfg64, synthetic_data64, LossWeights(),
                        OptimConfig(lr=1e-3), seed=0, batch_size=4, tasks=("lba",))
    assert set(stats.per_task) <= {"lba"}


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_epoch_names_bad_batch(small_cfg64, synthetic_data64):
    store = fresh_store(small_cfg64)
    huge = np.full_like(store["layers.0.phi_m.w1"].data, 1e200)
    huge.flags.writeable = False
    store.params["layers.0.phi_m.w1"].data = huge
    with pytest.raises(NumericsError, match="batch \\["):
        train_epoch(store, small_cfg64, synthetic_data64[:2], LossWeights(),
                    OptimConfig(lr=1e-3), seed=0, batch_size=2)


def named_grads(store, grads):
    """Every parameter's gradient in ``grads`` by name, zeros where absent."""
    return {name: np.array(grads[t] if t in grads else np.zeros_like(t.data))
            for name, t in store.items()}


def batched_reference_grads(store, cfg, data, batch, w):
    """Gradients as one backward of the batch-mean loss over all the
    batch's graphs: the oracle for the per-sample backward."""
    total = None
    for i in batch:
        pg, labels = data[i]
        plan = label_plan(pg, labels)
        H, _ = encode(pg, store, cfg, batch_stats={})
        loss, _ = multitask_loss(readout_and_heads(H, pg.scopes, plan.pools, store, cfg), plan, w)
        total = loss if total is None else total + loss
    batch_loss = total * (1.0 / len(batch))
    grads = {}
    batch_loss.backward(grads)
    return batch_loss.item(), named_grads(store, grads)


def test_per_sample_backward_matches_batched_reference(small_cfg64, synthetic_data64,
                                                       monkeypatch):
    """Per-sample backward sums the same terms in another order, so in
    float64 the gradients agree to rounding (rtol 1e-10 of the largest
    gradient entry), and so does the batch loss."""
    data = [s for s in synthetic_data64 if label_plan(*s).pools][:4]
    w = LossWeights()
    seen = []
    monkeypatch.setattr(hemenet.train, "optimizer_step", lambda store, opt, grads: seen.append(
        named_grads(store, grads)))
    store = fresh_store(small_cfg64)
    stats = train_epoch(store, small_cfg64, data, w, OptimConfig(lr=1e-3), seed=2,
                        batch_size=len(data), clip=float("inf"))
    (batch,) = balanced_batches(data, len(data), seed=2)
    ref_loss, ref = batched_reference_grads(store, small_cfg64, data, batch, w)
    (ours,) = seen
    assert stats.loss == pytest.approx(ref_loss, rel=1e-12)
    scale = max(float(np.max(np.abs(g))) for g in ref.values())
    worst = max(float(np.max(np.abs(ours[k] - ref[k]), initial=0.0)) for k in ref) / scale
    print(f"per-sample vs batched backward: worst error {worst:.3g} of the largest gradient")
    assert worst <= 1e-10, worst


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_per_sample_grad_dicts_sum_to_one_shared_dict(synthetic_samples, dtype):
    """Two samples backpropagated into dicts of their own, then summed
    in sample order, give bitwise the gradients that both give in one
    shared dict: a per-sample reduction may replace the shared sink."""
    cfg = HeMeNetConfig(L=2, d=16, task_dims=SMALL_DIMS, dtype=dtype)
    store = fresh_store(cfg)
    data = prepare_data(synthetic_samples, GraphConfig(), cfg.np_dtype)
    pair = [next(s for s in data if s[1].lba is not None),
            next(s for s in data if s[1].ppa is not None)]
    shared, own = {}, []
    for pg, labels in pair:
        own.append({})
        for sink in (shared, own[-1]):
            hemenet.train._sample_backward(pg, label_plan(pg, labels), store, cfg,
                                           LossWeights(), 0.5, sink)
    summed = dict(own[0])
    for leaf, g in own[1].items():
        summed[leaf] = summed[leaf] + g if leaf in summed else g
    assert own[0].keys() != own[1].keys()  # each sample reaches a head the other does not
    assert summed.keys() == shared.keys()
    for leaf, g in shared.items():
        assert summed[leaf].dtype == g.dtype and summed[leaf].tobytes() == g.tobytes()


def _train_peak(cfg, sample, copies: int) -> int:
    """Traced peak bytes of one ``train_epoch`` over ``copies`` copies of
    one sample in one batch, after a first epoch has made Adam's state."""
    store = init_params(cfg, seed=11)
    data = [sample] * copies
    train_epoch(store, cfg, data, LossWeights(), OptimConfig(lr=1e-3), seed=0,
                batch_size=copies)
    tracemalloc.start()
    try:
        train_epoch(store, cfg, data, LossWeights(), OptimConfig(lr=1e-3), seed=1,
                    batch_size=copies)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_memory_holds_one_sample_graph():
    """A batch of four copies of a 52-node graph peaks within 10% of a
    batch of one: each sample's graph is freed after its backward (a
    batch-wide backward held all four, about 3x)."""
    cfg = HeMeNetConfig(L=2, d=32, task_dims=SMALL_DIMS, dtype="float64")
    (sample,) = prepare_data(
        generate_synthetic(SyntheticConfig(n_samples=1, max_residues=60, seed=3)),
        GraphConfig(), np.float64)
    assert sample[1].lba is not None and sample[0].X0.shape[0] >= 50
    one, four = _train_peak(cfg, sample, 1), _train_peak(cfg, sample, 4)
    assert four <= 1.1 * one, (one, four)


# The first train-paper complex at the paper config, as the relation and
# the coordinate message went from chains of separate ops to one fused op
# each: float values per edge per layer on the training tape, 4 347.3 ->
# 2 406.2, and the traced peak of one sample's forward, backward and
# gradient dict, 373.5 -> 250.5 MB.  Then as every two-layer MLP became
# one op that keeps no hidden layer under silu, backward began to free
# the tape as it walks, and the unused final coordinates went before
# backward: 2 406.2 -> 1 916.9 values, 250.5 -> 170.7 MB (the peak now
# falls in the last layer's relation backward).  The bounds leave under
# 10% headroom over the current figures.
PAPER_TAPE_VALUES_PER_EDGE_LAYER = 1916.9
PAPER_STEP_PEAK_MB = 185.0


def test_paper_training_step_tape_and_memory_bounds(monkeypatch):
    """The first train-paper complex (bench/gen at its shape, rng seed 7:
    204 nodes, 2 662 edges) keeps its training tape and one sample
    step's traced allocations within the bounds above (about 2.5 s)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    gen, workloads = importlib.import_module("gen"), importlib.import_module("workloads")
    scale, rng = workloads.PAPER, np.random.default_rng(7)
    cfg, (lengths, n_lig, aff, tasks) = scale.model, scale.train_corpus[0]
    rec = gen.make_complex(rng, "tr00", lengths, n_lig)
    sample = (rec, gen.make_labels(rng, rec, aff, tasks, cfg.task_dims))
    (pg, labels), = prepare_data([sample], GraphConfig(radius=workloads.RADIUS), np.float32)
    assert (pg.n, len(pg.src)) == (204, 2662)
    store = init_params(cfg, seed=7)
    plan = label_plan(pg, labels)

    H, _ = encode(pg, store, cfg, batch_stats={})
    loss, _ = multitask_loss(readout_and_heads(H, pg.scopes, plan.pools, store, cfg), plan,
                             LossWeights())
    per_edge_layer = tape_float_values(loss, (pg.pool,)) / (len(pg.src) * cfg.L)
    assert per_edge_layer <= PAPER_TAPE_VALUES_PER_EDGE_LAYER
    del H, loss

    tracemalloc.start()
    try:
        hemenet.train._sample_backward(pg, plan, store, cfg, LossWeights(), 0.25, {})
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= PAPER_STEP_PEAK_MB, peak


# -- evaluation -----------------------------------------------------------------------


def test_evaluate_report_structure(small_cfg64, small_store64, synthetic_data64):
    report = evaluate(small_store64, small_cfg64, synthetic_data64)
    present = set()
    for pg, labels in synthetic_data64:
        present.update(label_plan(pg, labels).pools)
    assert set(report.metrics) == present
    for task, vals in report.metrics.items():
        if task in ("lba", "ppa"):
            assert set(vals) == {"rmse", "mae"}
        else:
            assert set(vals) == {"fmax"} and 0.0 <= vals["fmax"] <= 1.0
    assert report.to_json() == evaluate(small_store64, small_cfg64,
                                        synthetic_data64).to_json()


def test_evaluate_omits_absent_tasks(small_cfg64, small_store64, synthetic_data64):
    only_aff = [(pg, labels) for pg, labels in synthetic_data64
                if labels.lba is not None]
    report = evaluate(small_store64, small_cfg64, only_aff, tasks=("lba",))
    assert set(report.metrics) == {"lba"}


def test_merge_scores_matches_whole(small_cfg64, small_store64, synthetic_data64):
    whole = score_samples(small_store64, small_cfg64, synthetic_data64)
    shards = [score_samples(small_store64, small_cfg64, synthetic_data64[:3]),
              score_samples(small_store64, small_cfg64, synthetic_data64[3:])]
    merged = merge_scores(shards)
    assert metrics_from_scores(merged).to_json() == metrics_from_scores(whole).to_json()


def test_metric_lines_format(small_cfg64, small_store64, synthetic_data64):
    report = evaluate(small_store64, small_cfg64, synthetic_data64)
    lines = metric_lines(3, "val", report)
    import json
    rows = [json.loads(line) for line in lines]
    assert all(row["epoch"] == 3 and row["split"] == "val" for row in rows)
    keys = [(row["task"], row["metric"]) for row in rows]
    assert keys == sorted(keys)
