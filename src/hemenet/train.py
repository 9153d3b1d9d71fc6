"""Multi-task training: masked partial-label loss, balanced batch
sampling, the epoch loop, and evaluation metrics.

The loss sums a squared-error term per present affinity label and a
weighted binary cross-entropy term per present property label,
averaging property terms over the chains that carry them.  Absent
labels contribute exactly zero value and zero gradient.  Every batch
holds at least one affinity-labeled sample per affinity task while any
remain in the epoch, so the shared encoder always sees both regression
signals.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .datasets import PROPERTY_TASKS, TASKS, SampleLabels
from .errors import ConfigError, DataError, NumericsError
from .model import (
    HeMeNetConfig,
    PackedGraph,
    PredictionBundle,
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
    tmean,
)


@dataclass
class LossWeights:
    lam: float = 1.0  # classification/regression trade-off

    def validate(self):
        if self.lam < 0:
            raise ConfigError("loss weights must be nonnegative")


def tasks_present(labels: SampleLabels) -> tuple[str, ...]:
    out = []
    if labels.lba is not None:
        out.append("lba")
    if labels.ppa is not None:
        out.append("ppa")
    for task in PROPERTY_TASKS:
        if any(props.get(task) is not None for props in labels.chain_props.values()):
            out.append(task)
    return tuple(out)


def multitask_loss(pred: PredictionBundle, labels: SampleLabels,
                   w: LossWeights, tasks=TASKS) -> tuple[Tensor, dict]:
    """Masked objective over one sample; returns (scalar loss,
    per-task float breakdown).  Tasks without labels, and labels of
    tasks outside ``tasks``, are skipped entirely, so the associated
    heads receive exactly zero gradient."""
    w.validate()
    terms = []
    breakdown = {}
    for task, y in (("lba", labels.lba), ("ppa", labels.ppa)):
        if y is None or task not in tasks:
            continue
        value = getattr(pred, task)
        if value is None:
            raise DataError(f"label {task} present but prediction missing")
        term = (value - float(y)) ** 2
        terms.append(term)
        breakdown[task] = term.item()
    for task in PROPERTY_TASKS:
        if task not in tasks:
            continue
        labeled = {cid: props[task] for cid, props in labels.chain_props.items()
                   if props.get(task) is not None}
        if not labeled:
            continue
        per_chain = []
        for cid in sorted(labeled):
            chain_pred = pred.prop(task).get(cid)
            if chain_pred is None:
                raise DataError(f"label {task} present on chain {cid} but prediction missing")
            target = np.asarray(labeled[cid], dtype=chain_pred.logits.dtype)
            bce = tmean(binary_cross_entropy_with_logits(chain_pred.logits, target))
            per_chain.append(bce)
        total = per_chain[0]
        for extra in per_chain[1:]:
            total = total + extra
        term = total * (w.lam / len(per_chain))
        terms.append(term)
        breakdown[task] = term.item()
    if not terms:
        return Tensor(0.0, dtype=np.float64), {}
    loss = terms[0]
    for term in terms[1:]:
        loss = loss + term
    return loss, breakdown


def balanced_batches(samples, batch_size: int, seed: int) -> list[list[int]]:
    """Batch index lists covering each sample once; every batch takes
    one LBA-labeled and one PPA-labeled sample while the epoch's
    remaining pool has them, rest filled uniformly without replacement."""
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    def _labels(item):
        return item[1] if isinstance(item, tuple) else item.labels

    lba_pool = [i for i, s in enumerate(samples) if _labels(s).lba is not None]
    ppa_pool = [i for i, s in enumerate(samples) if _labels(s).ppa is not None]
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
        for pool in ("lba", "ppa"):
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


def train_epoch(store: ParamStore, cfg: HeMeNetConfig, data, w: LossWeights,
                opt: OptimConfig, seed: int, batch_size: int = 4,
                clip: float = 1.0, tasks=TASKS) -> EpochStats:
    """One pass over ``data`` (list of (PackedGraph, SampleLabels)).

    Batch loss is the mean of per-sample losses; gradients are clipped
    by global norm then applied per batch.  lr == 0 runs the loop
    without updates.  A non-finite loss aborts, naming the batch.
    """
    t0 = time.perf_counter()
    task_sums: dict[str, float] = {}
    task_counts: dict[str, int] = {}
    losses = []
    norms = []
    for batch in balanced_batches(data, batch_size, seed):
        ids = [data[i][0].complex_id for i in batch]
        store.zero_grads()
        try:
            total = None
            for i in batch:
                pg, labels = data[i]
                wanted = [t for t in tasks_present(labels) if t in tasks]
                if not wanted:
                    continue
                H, _ = encode(pg, store, cfg, train=True)
                pred = readout_and_heads(H, pg.scopes, wanted, store, cfg, pg.complex_id)
                loss, breakdown = multitask_loss(pred, labels, w, tasks=wanted)
                total = loss if total is None else total + loss
                for name, val in breakdown.items():
                    task_sums[name] = task_sums.get(name, 0.0) + val
                    task_counts[name] = task_counts.get(name, 0) + 1
            if total is None:
                continue
            batch_loss = total * (1.0 / len(batch))
            if not np.isfinite(batch_loss.item()):
                raise NumericsError("non-finite batch loss")
            batch_loss.backward()
        except NumericsError as exc:
            raise NumericsError(f"batch {ids}: {exc}") from None
        losses.append(batch_loss.item())
        norms.append(store.clip_global_norm(clip))
        if opt.lr != 0:  # lr 0 means run the loop without updates
            optimizer_step(store, opt)
        store.zero_grads()
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
    across shards by concatenation."""
    aff_preds = {"lba": [], "ppa": []}
    aff_labels = {"lba": [], "ppa": []}
    prop_scores = {t: [] for t in PROPERTY_TASKS}
    prop_labels = {t: [] for t in PROPERTY_TASKS}
    with no_grad():
        for pg, labels in data:
            wanted = [t for t in tasks_present(labels) if t in tasks]
            if not wanted:
                continue
            H, _ = encode(pg, store, cfg, train=False)
            pred = readout_and_heads(H, pg.scopes, wanted, store, cfg, pg.complex_id)
            for task in ("lba", "ppa"):
                y = getattr(labels, task)
                if task in wanted and y is not None:
                    aff_preds[task].append(getattr(pred, task).item())
                    aff_labels[task].append(float(y))
            for task in PROPERTY_TASKS:
                if task not in wanted:
                    continue
                for cid, props in sorted(labels.chain_props.items()):
                    if props.get(task) is None:
                        continue
                    prop_scores[task].append(pred.prop(task)[cid].probs.numpy())
                    prop_labels[task].append(np.asarray(props[task]))
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
    for task in ("lba", "ppa"):
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


def evaluate(store: ParamStore, cfg: HeMeNetConfig, data, tasks=TASKS) -> MetricReport:
    """Per-task metrics over labeled samples/chains, eval-mode norm."""
    return metrics_from_scores(score_samples(store, cfg, data, tasks))


def metric_lines(epoch: int, split: str, report: MetricReport) -> list[str]:
    """JSONL rows {epoch, split, task, metric, value}."""
    rows = []
    for task in sorted(report.metrics):
        for metric, value in sorted(report.metrics[task].items()):
            rows.append(json.dumps(
                {"epoch": epoch, "split": split, "task": task,
                 "metric": metric, "value": value}, sort_keys=True))
    return rows


def prepare_data(records_labels, graph_cfg, dtype) -> list:
    """Build and pack graphs for (ComplexRecord, SampleLabels) pairs."""
    from .graph import build_graph

    out = []
    for rec, labels in records_labels:
        out.append((pack_graph(build_graph(rec, graph_cfg), dtype), labels))
    return out
