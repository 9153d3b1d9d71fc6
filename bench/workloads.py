"""The three benchmark workloads and the loop that measures them.

Every workload is a closed loop with one client, the calling loop, in
one process.  A workload is a set-up (inputs from the seed, graphs,
parameters or checkpoint), a warm-up, and a *unit* of work repeated
until the run's time is spent:

- ``train-paper``: one unit is one epoch of ``train.train_epoch`` steps
  (one call per batch, batches from ``train.balanced_batches`` exactly
  as ``train_epoch`` draws them) followed by one ``model.save_model``.
- ``eval-multichain``: one unit is one group of complexes evaluated as
  ``train.evaluate`` does it, split into its two halves so the checks see
  every prediction: each complex scored without gradients by
  ``train.score_samples`` (timed one by one), then
  ``train.metrics_from_scores`` once over the group's merged scores.
- ``ingest-large``: one unit is one round over seven complexes of 3.2k
  to 12.5k heavy atoms, each taken from canonical JSON text through
  ``structio.parse_canonical_json``, ``graph.build_graph`` and
  ``model.pack_graph``.

Units are whole, so every run covers the same mix of inputs.  Complex
shapes are fixed per workload (see ``gen``), which keeps the work per
unit nearly independent of the seed.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import gen
from hemenet import graph, model, structio, train
from hemenet.datasets import PROPERTY_TASKS
from hemenet.errors import DataError, NumericsError
from hemenet.numcore import OptimConfig

SETUP_REPS = 3  # cold set-ups per run; setup_s reports their median
OP_ERRORS = (NumericsError, DataError)

# training and graph settings of the paper, shared by every scale
BATCH_SIZE = 4
LR = 1e-3
CLIP = 1.0
RADIUS = 4.5


# -- sizes --------------------------------------------------------------------


def _spread(k: int, lo: int, hi: int) -> int:
    """Deterministic, well-mixed sizes in [lo, hi] for slot k."""
    return lo + (k * 37) % (hi - lo + 1)


def _split(total: int, parts: int) -> tuple[int, ...]:
    base, extra = divmod(total, parts)
    return tuple(base + (i < extra) for i in range(parts))


@dataclass(frozen=True)
class Scale:
    """Model and input sizes.  ``PAPER`` is what the benchmark runs;
    ``TINY`` runs the same code paths in seconds, for tests."""
    model: model.HeMeNetConfig
    # train corpus: (chain lengths, ligand atoms, affinity task, tasks per chain)
    train_corpus: tuple
    eval_complexes: int
    eval_residues: tuple[int, int]
    eval_ligand: int
    eval_group: int  # complexes per evaluate call, one unit of eval-multichain
    # ingest: chain lengths per complex, smallest to largest
    ingest_complexes: tuple


PAPER = Scale(
    model=model.HeMeNetConfig(),  # L=6, d=256, heads=4, float32, paper label dims
    train_corpus=(
        ((180,), 24, "lba", (("ec", "mf"),)),
        ((60, 60), 0, "ppa", (("bp",), ("cc",))),
        ((150,), 0, None, (("ec", "mf", "bp", "cc"),)),
        ((70, 60), 16, "lba", (("mf",), ())),
        ((60,), 0, None, (("ec", "bp"),)),
        ((90, 60), 0, "ppa", ((), ("ec", "cc"))),
        ((110,), 20, "lba", ((),)),
        ((80, 60), 0, None, (("bp", "cc"), ("mf",))),
    ),
    eval_complexes=60,
    eval_residues=(40, 120),
    eval_ligand=12,
    eval_group=20,
    ingest_complexes=((190, 190),) * 5 + ((383, 383), (374, 374, 374, 374)),
)

_TINY_DIMS = {"ec": 5, "mf": 4, "bp": 7, "cc": 3}
TINY = Scale(
    model=model.HeMeNetConfig(L=2, d=8, heads=2, e_r_width=4, d_A=4, task_dims=_TINY_DIMS),
    train_corpus=(
        ((8,), 4, "lba", (("ec", "mf"),)),
        ((5, 5), 0, "ppa", (("bp",), ("cc",))),
        ((9,), 0, None, (("ec", "mf", "bp", "cc"),)),
        ((6, 4), 3, "lba", (("mf",), ())),
        ((7,), 0, None, (("bp", "cc"),)),
        ((5, 4), 0, "ppa", ((), ("ec",))),
    ),
    eval_complexes=6,
    eval_residues=(8, 14),
    eval_ligand=3,
    eval_group=3,
    ingest_complexes=((6, 6), (6, 6), (10, 10)),
)


# -- results --------------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed; a failure is an op that raised
    NumericsError/DataError or whose output failed a check."""
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, what: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")
        return not problems


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def check_scores(scored: dict) -> list[str]:
    """Predictions and probabilities are finite; probabilities lie in
    [0, 1]."""
    problems = []
    for task, preds in scored["aff_preds"].items():
        if not _all_finite(preds):
            problems.append(f"non-finite {task} prediction")
    for task, probs in scored["prop_scores"].items():
        for p in probs:
            if not np.isfinite(p).all():
                problems.append(f"non-finite {task} probability")
            elif (p < 0).any() or (p > 1).any():
                problems.append(f"{task} probability outside [0, 1]")
    return problems


def check_report(report: train.MetricReport) -> list[str]:
    return [f"non-finite {task} metric" for task, values in report.metrics.items()
            if not _all_finite(values.values())]


def check_epoch(stats: train.EpochStats) -> list[str]:
    values = [stats.loss, stats.grad_norm, *stats.per_task.values()]
    return [] if _all_finite(values) else ["non-finite loss or gradient norm"]


def check_params_equal(loaded, store) -> list[str]:
    """A store read back from a checkpoint holds byte-equal params."""
    if loaded.names() != store.names():
        return ["checkpoint parameter names differ"]
    bad = [n for n in store.names()
           if loaded[n].data.tobytes() != store[n].data.tobytes()]
    return [f"checkpoint params differ: {bad[:3]}"] if bad else []


def prep(rec, dtype):
    """Record -> packed graph; returns (graph, packed, validation problems)."""
    g = graph.build_graph(rec, graph.GraphConfig(radius=RADIUS))
    return g, model.pack_graph(g, dtype), graph.validate(g)


@dataclass
class Unit:
    """What one unit of work did: items completed, the seconds of each
    operation in it (steps, complexes or preps), and extra timed work
    (checkpoint saves) that counts toward throughput."""
    items: float
    op_seconds: list
    extra_seconds: float = 0.0
    largest_seconds: float | None = None


# -- workloads ------------------------------------------------------------------


class Workload:
    """Shared plumbing: a prepared corpus of (record, graph, packed,
    labels) and the defaults for the hooks the measuring loop calls."""
    name = ""
    ckpt = None

    def __init__(self, scale: Scale, seed: int, workdir: str, tally: Tally):
        self.scale, self.seed, self.workdir, self.tally = scale, seed, workdir, tally
        self.records, self.graphs, self.packed, self.data = [], [], [], []

    def _prepare(self, pairs) -> None:
        """Read every (record, labels) back from canonical JSON text, as a
        run reads its records file, then build, pack and validate its graph."""
        self.records, self.graphs, self.packed, self.data = [], [], [], []
        for rec, labels in pairs:
            rec = structio.parse_canonical_json(structio.write_canonical_json(rec))
            g, pg, problems = prep(rec, self.scale.model.np_dtype)
            self.tally.record(f"graph {rec.complex_id}", problems)
            self.records.append(rec)
            self.graphs.append(g)
            self.packed.append(pg)
            self.data.append((pg, labels))

    def fixed_pass(self) -> list[Unit]:
        """The fixed work a traced run measures twice."""
        return [self.unit()]

    def finish(self) -> None:
        pass

    def checkpoint_bytes(self) -> int:
        return os.path.getsize(self.ckpt) if self.ckpt and os.path.exists(self.ckpt) else 0


class TrainPaper(Workload):
    name = "train-paper"

    def __init__(self, *args):
        super().__init__(*args)
        self.ckpt = os.path.join(self.workdir, "train.bin")
        self.opt = OptimConfig(lr=LR)
        self.weights = train.LossWeights()
        self.epoch = 0
        self.loss_after_warmup = None

    def setup(self):
        s = self.scale
        rng = np.random.default_rng(self.seed)
        pairs = []
        for k, (lengths, n_lig, aff, tasks) in enumerate(s.train_corpus):
            rec = gen.make_complex(rng, f"tr{k:02d}", lengths, n_lig)
            pairs.append((rec, gen.make_labels(rng, rec, aff, tasks, s.model.task_dims)))
        self._prepare(pairs)
        self.store = model.init_params(s.model, seed=self.seed)

    def _step(self, batch, seed):
        try:
            stats = train.train_epoch(self.store, self.scale.model, batch, self.weights,
                                      self.opt, seed=seed, batch_size=BATCH_SIZE, clip=CLIP)
        except OP_ERRORS as exc:
            self.tally.record("train step", [str(exc)])
            return None
        self.tally.record("train step", check_epoch(stats))
        return stats

    def _batches(self, epoch):
        # the shuffle follows the epoch, not the input seed, so every seed
        # groups the same shapes into a batch and step times compare
        order = train.balanced_batches(self.data, BATCH_SIZE, epoch)
        return [[self.data[i] for i in b] for b in order]

    def warmup(self):
        """Epoch 0, a fixed sequence of steps.  The loss of its last step
        follows the updates before it (backward, clipping, Adam), so it is
        the run's check value."""
        stats = None
        for b, batch in enumerate(self._batches(0)):
            stats = self._step(batch, b)
        self.loss_after_warmup = stats.loss if stats else float("nan")
        self.epoch = 1

    def unit(self) -> Unit:
        times, samples = [], 0
        for b, batch in enumerate(self._batches(self.epoch)):
            t0 = time.perf_counter()
            self._step(batch, self.epoch * 1000 + b)
            times.append(time.perf_counter() - t0)
            samples += len(batch)
        t0 = time.perf_counter()
        model.save_model(self.ckpt, self.store, self.scale.model,
                         extra={"epoch": self.epoch, "seed": self.seed})
        save = time.perf_counter() - t0
        self.epoch += 1
        return Unit(samples, times, save)

    def finish(self):
        if os.path.exists(self.ckpt):
            loaded, _, _ = model.load_model(self.ckpt)
            self.tally.record("checkpoint round trip", check_params_equal(loaded, self.store))


class EvalMultichain(Workload):
    name = "eval-multichain"

    def __init__(self, *args):
        super().__init__(*args)
        self.ckpt = os.path.join(self.workdir, "eval.bin")
        self.next = 0

    def setup(self):
        s = self.scale
        rng = np.random.default_rng(self.seed)
        pairs = []
        for k in range(s.eval_complexes):
            n_chains = 2 + k % 3
            lengths = _split(_spread(k, *s.eval_residues), n_chains)
            n_lig = s.eval_ligand if k % 2 == 0 else 0
            rec = gen.make_complex(rng, f"ev{k:03d}", lengths, n_lig)
            labels = gen.make_labels(rng, rec, "lba" if n_lig else "ppa",
                                     [PROPERTY_TASKS] * n_chains, s.model.task_dims)
            pairs.append((rec, labels))
        self._prepare(pairs)
        fresh = model.init_params(s.model, seed=self.seed)
        model.save_model(self.ckpt, fresh, s.model, extra={"seed": self.seed})
        self.store, self.cfg, _ = model.load_model(self.ckpt, expect=s.model)
        self.tally.record("checkpoint round trip", check_params_equal(self.store, fresh))

    def _evaluate(self, samples) -> Unit:
        """One ``train.evaluate`` over ``samples``: score each complex (timed
        one by one), then metrics once over the merged scores (timed as
        extra work)."""
        times, shards = [], []
        for sample in samples:
            what = f"eval {sample[0].complex_id}"
            try:
                t0 = time.perf_counter()
                scored = train.score_samples(self.store, self.cfg, [sample])
                times.append(time.perf_counter() - t0)
            except OP_ERRORS as exc:
                self.tally.record(what, [str(exc)])
                continue
            self.tally.record(what, check_scores(scored))
            shards.append(scored)
        if not shards:
            return Unit(0, times)
        try:
            t0 = time.perf_counter()
            report = train.metrics_from_scores(train.merge_scores(shards))
            metrics_s = time.perf_counter() - t0
        except OP_ERRORS as exc:
            self.tally.record("eval metrics", [str(exc)])
            return Unit(len(times), times)
        self.tally.record("eval metrics", check_report(report))
        return Unit(len(times), times, metrics_s)

    def warmup(self):
        self._evaluate(self.data[:1])

    def unit(self) -> Unit:
        """The next group of the corpus, round robin."""
        g = self.scale.eval_group
        start = (self.next * g) % len(self.data)
        self.next += 1
        return self._evaluate(self.data[start:start + g])

    def fixed_pass(self) -> list[Unit]:
        """The first group of the corpus, the same one on every call."""
        self.next = 0
        return [self.unit()]


class IngestLarge(Workload):
    name = "ingest-large"

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.texts, self.atoms = [], []
        for k, lengths in enumerate(self.scale.ingest_complexes):
            rec = gen.make_complex(rng, f"in{k}", lengths, 8)
            self.texts.append(structio.write_canonical_json(rec))
            self.atoms.append(rec.heavy_atom_count())

    def _prep(self, text):
        """Returns (seconds, graph, packed), or Nones for a failed op."""
        try:
            t0 = time.perf_counter()
            rec = structio.parse_canonical_json(text)
            g = graph.build_graph(rec, graph.GraphConfig(radius=RADIUS))
            pg = model.pack_graph(g, self.scale.model.np_dtype)
            seconds = time.perf_counter() - t0
        except OP_ERRORS as exc:
            self.tally.record("ingest", [str(exc)])
            return None, None, None
        self.tally.record(f"ingest {rec.complex_id}", graph.validate(g))
        return seconds, g, pg

    def warmup(self):
        self._prep(self.texts[0])

    def unit(self) -> Unit:
        times, atoms = [], 0
        self.graphs, self.packed = [], []
        for text, n in zip(self.texts, self.atoms):
            seconds, g, pg = self._prep(text)
            if seconds is not None:
                times.append(seconds)
                atoms += n
                self.graphs.append(g)
                self.packed.append(pg)
        largest = times[-1] if len(times) == len(self.texts) else None
        return Unit(atoms, times, largest_seconds=largest)


WORKLOADS = {w.name: w for w in (TrainPaper, EvalMultichain, IngestLarge)}


# -- measurement ----------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_with_tail(values, q: float, min_beyond: int = 10):
    """The q-quantile of ``values`` if at least ``min_beyond`` samples lie
    beyond it, else None."""
    if len(values) * (1.0 - q) < min_beyond:
        return None
    return float(np.quantile(np.asarray(values), q))


def set_up(wl) -> float:
    """Set up SETUP_REPS times from cold inputs, then warm up once.
    Returns the median set-up seconds plus the warm-up seconds."""
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    wl.warmup()
    return statistics.median(setups) + time.perf_counter() - t0


def measure(wl, seconds: float) -> list[Unit]:
    """Run whole units until ``seconds`` have passed (at least one)."""
    units = []
    t0 = time.perf_counter()
    while not units or time.perf_counter() - t0 < seconds:
        units.append(wl.unit())
    return units


def summarize(units: list[Unit], setup_s: float) -> dict:
    ops = [t for u in units for t in u.op_seconds]
    busy = sum(ops) + sum(u.extra_seconds for u in units)
    items = sum(u.items for u in units)
    largest = [u.largest_seconds for u in units if u.largest_seconds is not None]
    return {
        "setup_s": setup_s,
        "throughput": items / busy if busy > 0 else 0.0,
        "op_s_p50": statistics.median(ops) if ops else 0.0,
        "op_s_p90": percentile_with_tail(ops, 0.9),
        "n_ops": len(ops),
        "prep_largest_s": statistics.median(largest) if largest else None,
        "peak_rss_mb": peak_rss_mb(),
        "items": items,
        "busy_s": busy,
        "unit_s": [sum(u.op_seconds) + u.extra_seconds for u in units],
    }
