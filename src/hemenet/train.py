"""Multi-task training: masked partial-label loss, balanced batch
sampling, the epoch loop, and evaluation metrics.

Each sample's labels choose what it pools (``label_plan``): the whole
graph for each present affinity label, and for each property task the
chains that carry its label, in sorted order.  The readout pools
exactly those (task, scope) pairs, so row i of a task's logits is
target row i in the loss and in the scorer.  The loss sums a
squared-error term per present affinity label and a weighted binary
cross-entropy term per present property label, averaging property
terms over the chains that carry them.  Absent labels are never pooled,
so they contribute exactly zero value and zero gradient.  Every batch
holds at least one affinity-labeled sample per affinity task while any
remain in the epoch, so the shared encoder always sees both regression
signals.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .datasets import AFFINITY_TASKS, PROPERTY_TASKS, TASKS, SampleLabels
from .errors import ConfigError, DataError, NumericsError
from .model import (
    HeMeNetConfig,
    PackedGraph,
    encode,
    pack_graph,
    readout_and_heads,
)
from .numcore import (
    OptimConfig,
    ParamStore,
    Tensor,
    binary_cross_entropy_with_logits,
    no_grad,
    optimizer_step,
    reshape,
    segment_sum,
    sigmoid,
    tmean,
)


@dataclass
class LossWeights:
    lam: float = 1.0  # classification/regression trade-off

    def validate(self):
        if not self.lam >= 0:  # NaN fails too
            raise ConfigError("loss weights must be nonnegative")


@dataclass(frozen=True)
class LabelPlan:
    """What one sample pools, trains on and scores: for each labeled
    task, in TASKS order, ``pools[task]`` the scope keys to pool and
    ``targets[task]`` the targets, row for row.  An affinity pools
    ``("",)``, the whole graph, against its value; a property task pools
    its labeled chains, sorted, against their stacked label rows."""
    pools: dict  # task -> scope keys of the PackedGraph
    targets: dict  # task -> float affinity or (len(keys), dims[task]) label rows


def label_plan(pg: PackedGraph, labels: SampleLabels, tasks=TASKS) -> LabelPlan:
    """The plan of the labels of ``tasks`` that ``labels`` carries.  A
    labeled chain the graph lacks (say, one that lost every node) is a
    DataError naming the complex."""
    pools, targets = {}, {}
    for task in (t for t in TASKS if t in tasks):
        if task in AFFINITY_TASKS:
            y = getattr(labels, task)
            if y is not None:
                pools[task], targets[task] = ("",), float(y)
            continue
        chains = tuple(sorted(cid for cid, props in labels.chain_props.items()
                              if props.get(task) is not None))
        for cid in chains:
            if cid not in pg.scopes:
                raise DataError(f"complex {pg.complex_id}: label {task} present on chain "
                                f"{cid} but prediction missing")
        if chains:
            pools[task] = chains
            targets[task] = np.stack([labels.chain_props[cid][task] for cid in chains])
    return LabelPlan(pools, targets)


def multitask_loss(logits: dict, plan: LabelPlan, w: LossWeights) -> tuple[Tensor, dict]:
    """Masked objective over one sample, from ``readout_and_heads`` on
    ``plan.pools``; returns (scalar loss, per-task float breakdown).
    Tasks outside the plan have no term, so their heads receive exactly
    zero gradient.  A property term is the mean BCE of each row of the
    task's logits against its target row, summed by ``segment_sum``:
    one by one from +0.0 in chain order, where numpy's ``tsum`` rounds
    differently on some sums of eight or more chains."""
    w.validate()
    terms = []
    breakdown = {}
    for task, y in plan.targets.items():
        if task in AFFINITY_TASKS:
            diff = logits[task] - y
            term = diff * diff
        else:
            per_chain = tmean(binary_cross_entropy_with_logits(logits[task], y), axis=1)
            term = segment_sum(per_chain, np.zeros(len(y), np.int64), 1) * (w.lam / len(y))
        terms.append(term)
        breakdown[task] = term.item()
    if not terms:
        return Tensor(0.0, dtype=np.float64), {}
    loss = terms[0]
    for term in terms[1:]:
        loss = loss + term
    return reshape(loss, ()), breakdown


def balanced_batches(samples, batch_size: int, seed: int) -> list[list[int]]:
    """Batch index lists covering each sample once; every batch takes
    one LBA-labeled and one PPA-labeled sample while the epoch's
    remaining pool has them, rest filled uniformly without replacement."""
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    lba_pool = [i for i, (_, labels) in enumerate(samples) if labels.lba is not None]
    ppa_pool = [i for i, (_, labels) in enumerate(samples) if labels.ppa is not None]
    n_pools = (len(lba_pool) > 0) + (len(ppa_pool) > 0)
    if batch_size < n_pools:
        raise ConfigError(
            f"batch size {batch_size} cannot satisfy {n_pools} per-task quotas")
    rng = np.random.default_rng(seed)
    streams = {
        "lba": [lba_pool[k] for k in rng.permutation(len(lba_pool))],
        "ppa": [ppa_pool[k] for k in rng.permutation(len(ppa_pool))],
        "all": list(rng.permutation(len(samples))),
    }
    used = set()
    batches = []
    while len(used) < len(samples):
        batch = []
        for pool in AFFINITY_TASKS:
            while streams[pool] and streams[pool][-1] in used:
                streams[pool].pop()
            if streams[pool] and len(batch) < batch_size:
                idx = streams[pool].pop()
                batch.append(idx)
                used.add(idx)
        while streams["all"] and len(batch) < batch_size:
            idx = streams["all"].pop()
            if idx in used:
                continue
            batch.append(idx)
            used.add(idx)
        order = rng.permutation(len(batch))
        batches.append([batch[k] for k in order])
    return batches


@dataclass
class EpochStats:
    loss: float
    per_task: dict
    grad_norm: float
    n_batches: int
    seconds: float


def fold_norm_stats(store: ParamStore, batch_stats: dict) -> None:
    """Fold the batch-norm statistics ``encode`` hands back into the store's."""
    for name, new in batch_stats.items():  # (1.0 - 0.9) is not 0.1 in floats; it keeps the bits
        store.state[name] = 0.9 * store.state[name] + (1.0 - 0.9) * new


def _sample_backward(pg: PackedGraph, plan: LabelPlan, store: ParamStore,
                     cfg: HeMeNetConfig, w: LossWeights, scale: float,
                     grads: dict) -> tuple[float, dict, dict]:
    """Forward one sample, then backward ``scale`` times its loss into
    ``grads``.  Returns (scaled loss, per-task breakdown, batch-norm
    statistics) as values, so the sample's graph is freed when this
    returns: the encoder's coordinates reach nearly all of it."""
    batch_stats = {}
    H, _ = encode(pg, store, cfg, batch_stats)
    logits = readout_and_heads(H, pg.scopes, plan.pools, store, cfg)
    loss, breakdown = multitask_loss(logits, plan, w)
    scaled = loss * scale
    value = scaled.item()
    if not np.isfinite(value):
        raise NumericsError(f"non-finite loss on {pg.complex_id}")
    scaled.backward(grads)
    return value, breakdown, batch_stats


def train_epoch(store: ParamStore, cfg: HeMeNetConfig, data, w: LossWeights,
                opt: OptimConfig, seed: int, batch_size: int = 4,
                clip: float = 1.0, tasks=TASKS) -> EpochStats:
    """One pass over ``data`` (list of (PackedGraph, SampleLabels)).

    Batch loss is the mean of per-sample losses.  Each sample backprops
    its share of that mean into the step's gradient dict, so memory
    holds one sample's graph at a time; the dict is then clipped by
    global norm and applied.  Batch-norm statistics fold in sample
    order.  lr == 0 runs the loop without updates.  A non-finite loss
    aborts, naming the batch.
    """
    t0 = time.perf_counter()
    task_sums: dict[str, float] = {}
    task_counts: dict[str, int] = {}
    losses = []
    norms = []
    for batch in balanced_batches(data, batch_size, seed):
        ids = [data[i][0].complex_id for i in batch]
        grads = {}
        batch_loss = None
        try:
            for i in batch:
                pg, labels = data[i]
                plan = label_plan(pg, labels, tasks)
                if not plan.pools:
                    continue
                value, breakdown, batch_stats = _sample_backward(
                    pg, plan, store, cfg, w, 1.0 / len(batch), grads)
                fold_norm_stats(store, batch_stats)
                batch_loss = value if batch_loss is None else batch_loss + value
                for name, val in breakdown.items():
                    task_sums[name] = task_sums.get(name, 0.0) + val
                    task_counts[name] = task_counts.get(name, 0) + 1
        except NumericsError as exc:
            raise NumericsError(f"batch {ids}: {exc}") from None
        if batch_loss is None:
            continue
        losses.append(batch_loss)
        norms.append(store.clip_global_norm(grads, clip))
        if opt.lr != 0:  # lr 0 means run the loop without updates
            optimizer_step(store, opt, grads)
    per_task = {k: task_sums[k] / task_counts[k] for k in sorted(task_sums)}
    return EpochStats(
        loss=float(np.mean(losses)) if losses else 0.0,
        per_task=per_task,
        grad_norm=float(np.mean(norms)) if norms else 0.0,
        n_batches=len(losses),
        seconds=time.perf_counter() - t0,
    )


def cosine_lr(base: float, step: int, total: int) -> float:
    """Cosine ramp from ``base`` down to zero across ``total`` steps."""
    if total <= 0:
        raise ConfigError("cosine schedule needs total > 0")
    t = min(max(step, 0), total)
    return base * 0.5 * (1.0 + math.cos(math.pi * t / total))


# -- metrics ------------------------------------------------------------------


def rmse_mae(preds, labels) -> tuple[float, float]:
    p = np.asarray(preds, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape or p.size == 0:
        raise DataError("rmse_mae needs equal, nonzero-length inputs")
    return float(np.sqrt(np.mean((p - y) ** 2))), float(np.mean(np.abs(p - y)))


def fmax(scores, labels) -> float:
    """Protein-centric maximum F-score over thresholds 0.00..1.00 step
    0.01.  A class counts as predicted at threshold tau when its score
    is >= tau and positive (zero means no prediction, so tau = 0 is not
    degenerate).  Precision averages over chains with at least one
    prediction at the threshold; recall averages over chains with at
    least one true label; F = 0 where P + R = 0."""
    S = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(labels) != 0)
    if S.shape != Y.shape or S.shape[0] == 0:
        raise DataError("fmax needs matching score/label matrices")
    has_label = Y.any(axis=1)
    if not has_label.any():
        raise DataError("fmax: no chain has any true label")
    positive = S > 0.0
    best = 0.0
    for step in range(101):
        tau = step / 100.0
        pred = (S >= tau) & positive
        tp = (pred & Y).sum(axis=1).astype(np.float64)
        npred = pred.sum(axis=1)
        has_pred = npred > 0
        if has_pred.any():
            precision = float(np.mean(tp[has_pred] / npred[has_pred]))
        else:
            precision = 0.0
        recall = float(np.mean(tp[has_label] / Y.sum(axis=1)[has_label]))
        if precision + recall > 0:
            best = max(best, 2 * precision * recall / (precision + recall))
    return best


@dataclass
class MetricReport:
    metrics: dict  # task -> {"rmse":, "mae":} or {"fmax":}
    counts: dict  # task -> number of samples/chains scored

    def to_json(self) -> str:
        return json.dumps({"metrics": self.metrics, "counts": self.counts},
                          sort_keys=True, indent=1)


def score_samples(store: ParamStore, cfg: HeMeNetConfig, data, tasks=TASKS) -> dict:
    """Frozen-statistics scoring of (PackedGraph, SampleLabels) pairs.
    Returns per-task prediction/label lists in input order, mergeable
    across shards by concatenation.  Each sample pools its labeled
    (task, scope) pairs only (``label_plan``); a chain's scores are its
    row of one sigmoid of the task's logits block."""
    aff_preds = {"lba": [], "ppa": []}
    aff_labels = {"lba": [], "ppa": []}
    prop_scores = {t: [] for t in PROPERTY_TASKS}
    prop_labels = {t: [] for t in PROPERTY_TASKS}
    with no_grad():
        for pg, labels in data:
            plan = label_plan(pg, labels, tasks)
            if not plan.pools:
                continue
            H, _ = encode(pg, store, cfg)
            logits = readout_and_heads(H, pg.scopes, plan.pools, store, cfg)
            for task, y in plan.targets.items():
                if task in AFFINITY_TASKS:
                    aff_preds[task].append(logits[task].item())
                    aff_labels[task].append(y)
                else:
                    prop_scores[task].extend(sigmoid(logits[task]).data)
                    prop_labels[task].extend(y)
    return {"aff_preds": aff_preds, "aff_labels": aff_labels,
            "prop_scores": prop_scores, "prop_labels": prop_labels}


def merge_scores(shards) -> dict:
    out = None
    for shard in shards:
        if out is None:
            out = {k: {t: list(v) for t, v in d.items()} for k, d in shard.items()}
            continue
        for key, per_task in shard.items():
            for task, values in per_task.items():
                out[key][task].extend(values)
    return out


def metrics_from_scores(scored: dict) -> MetricReport:
    metrics = {}
    counts = {}
    for task in AFFINITY_TASKS:
        if scored["aff_preds"][task]:
            r, m = rmse_mae(scored["aff_preds"][task], scored["aff_labels"][task])
            metrics[task] = {"rmse": r, "mae": m}
            counts[task] = len(scored["aff_preds"][task])
    for task in PROPERTY_TASKS:
        if scored["prop_scores"][task]:
            metrics[task] = {"fmax": fmax(np.stack(scored["prop_scores"][task]),
                                          np.stack(scored["prop_labels"][task]))}
            counts[task] = len(scored["prop_scores"][task])
    return MetricReport(metrics=metrics, counts=counts)


def evaluate(store: ParamStore, cfg: HeMeNetConfig, data, tasks=TASKS,
             workers: int = 1) -> MetricReport:
    """Per-task metrics over labeled samples/chains, eval-mode norm.
    ``workers`` threads score contiguous shards of ``data``, merged in
    input order, so the report does not depend on ``workers``."""
    if workers <= 1 or len(data) <= 1:
        return metrics_from_scores(score_samples(store, cfg, data, tasks))
    size = -(-len(data) // workers)
    shards = [data[i:i + size] for i in range(0, len(data), size)]
    scored = _thread_map(partial(score_samples, store, cfg, tasks=tasks), shards, workers)
    return metrics_from_scores(merge_scores(scored))


def metric_lines(epoch: int, split: str, report: MetricReport) -> list[str]:
    """JSONL rows {epoch, split, task, metric, value}."""
    rows = []
    for task in sorted(report.metrics):
        for metric, value in sorted(report.metrics[task].items()):
            rows.append(json.dumps(
                {"epoch": epoch, "split": split, "task": task,
                 "metric": metric, "value": value}, sort_keys=True))
    return rows


def _thread_map(fn, items: list, workers: int) -> list:
    """``[fn(x) for x in items]``, on up to ``workers`` threads."""
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def prepare_data(records_labels, graph_cfg, dtype, workers: int = 1) -> list:
    """Build and pack graphs for (ComplexRecord, SampleLabels) pairs, in
    order, on up to ``workers`` threads."""
    from .graph import build_graph  # looked up per call, so a wrapper installed later is seen

    def pack(pair):
        rec, labels = pair
        return pack_graph(build_graph(rec, graph_cfg), dtype), labels

    return _thread_map(pack, list(records_labels), workers)
