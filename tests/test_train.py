"""Objective masking, quota batching, the training loop, and the
evaluation metrics with their hand-checkable oracles."""

import itertools

import numpy as np
import pytest

from hemenet.datasets import SampleLabels
from hemenet.errors import ConfigError, DataError, NumericsError
from hemenet.model import HeMeNetConfig, encode, init_params, readout_and_heads
from hemenet.numcore import OptimConfig
from hemenet.train import (
    EpochStats,
    LossWeights,
    balanced_batches,
    cosine_lr,
    evaluate,
    fmax,
    merge_scores,
    metric_lines,
    metrics_from_scores,
    multitask_loss,
    rmse_mae,
    score_samples,
    tasks_present,
    train_epoch,
)

from conftest import SMALL_DIMS


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


def test_tasks_present():
    labels = SampleLabels(lba=2.0, chain_props={
        "A": {"ec": np.ones(8, dtype=np.uint8), "mf": None}})
    assert tasks_present(labels) == ("lba", "ec")
    assert tasks_present(SampleLabels()) == ()


@pytest.fixture(scope="module")
def bundle_and_labels(small_cfg64, small_store64, synthetic_data64):
    pg, labels = synthetic_data64[0]
    H, _ = encode(pg, small_store64, small_cfg64)
    wanted = tasks_present(labels)
    bundle = readout_and_heads(H, pg.scopes, wanted, small_store64,
                               small_cfg64, pg.complex_id)
    return bundle, labels


def test_multitask_loss_affinity_term(bundle_and_labels):
    bundle, labels = bundle_and_labels
    assert labels.lba is not None
    loss, breakdown = multitask_loss(bundle, labels, LossWeights(lam=3.0), tasks=("lba",))
    expect = (bundle.lba.item() - labels.lba) ** 2  # weight 1, whatever lam is
    assert breakdown == {"lba": pytest.approx(expect)}
    assert loss.item() == pytest.approx(expect)


def test_multitask_loss_skips_out_of_scope_labels(bundle_and_labels):
    bundle, labels = bundle_and_labels
    loss, breakdown = multitask_loss(bundle, labels, LossWeights(), tasks=("mf",))
    assert "lba" not in breakdown


def test_multitask_loss_lambda_scales_properties(bundle_and_labels):
    bundle, labels = bundle_and_labels
    prop_tasks = [t for t in tasks_present(labels) if t not in ("lba", "ppa")]
    if not prop_tasks:
        pytest.skip("sample has no property labels")
    task = prop_tasks[0]
    base, _ = multitask_loss(bundle, labels, LossWeights(lam=1.0), tasks=(task,))
    doubled, _ = multitask_loss(bundle, labels, LossWeights(lam=2.0), tasks=(task,))
    assert doubled.item() == pytest.approx(2.0 * base.item(), rel=1e-12)


def test_multitask_loss_missing_prediction_errors(bundle_and_labels):
    _, labels = bundle_and_labels
    from hemenet.model import PredictionBundle
    empty = PredictionBundle(complex_id="x")
    with pytest.raises(DataError, match="prediction missing"):
        multitask_loss(empty, labels, LossWeights())


def test_multitask_loss_empty():
    from hemenet.model import PredictionBundle
    loss, breakdown = multitask_loss(PredictionBundle(complex_id="x"),
                                     SampleLabels(), LossWeights())
    assert loss.item() == 0.0 and breakdown == {}


def test_unlabeled_heads_get_exactly_zero_gradient(small_cfg64, synthetic_data64):
    store = fresh_store(small_cfg64)
    pg, labels = next((pg, lb) for pg, lb in synthetic_data64 if lb.lba is not None)
    store.zero_grads()
    wanted = [t for t in tasks_present(labels) if t == "lba"]
    H, _ = encode(pg, store, small_cfg64)
    bundle = readout_and_heads(H, pg.scopes, wanted, store, small_cfg64)
    loss, _ = multitask_loss(bundle, labels, LossWeights(), tasks=wanted)
    loss.backward()
    assert store.params["head.lba.w1"].grad is not None
    for task in ("ppa", "ec", "mf", "bp", "cc"):
        for suffix in ("w1", "b1", "w2", "b2"):
            g = store.params[f"head.{task}.{suffix}"].grad
            assert g is None or not np.any(g)


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


# -- evaluation -----------------------------------------------------------------------


def test_evaluate_report_structure(small_cfg64, small_store64, synthetic_data64):
    report = evaluate(small_store64, small_cfg64, synthetic_data64)
    present = set()
    for _, labels in synthetic_data64:
        present.update(tasks_present(labels))
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
