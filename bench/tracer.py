"""Span tracing around hemenet's public functions.

The tracer replaces public names *where callers look them up* (for
example ``hemenet.train.encode``, which ``train.py`` imports, rather than
``hemenet.model.encode``) with wrappers that record one span per call.
Nothing in ``src/`` changes and an untraced run installs nothing.

A span is (name, start, end, parent, sample): ``parent`` is the index of
the enclosing span or -1, and ``sample`` is the complex id of the
nearest enclosing span that names one.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import json
import time

import hemenet.geom
import hemenet.graph
import hemenet.model
import hemenet.numcore.tensor
import hemenet.structio
import hemenet.train
from hemenet.numcore import ParamStore, Tensor

# numcore ops that each produce exactly one tensor (composites such as
# masked_sum are left unwrapped, so op counts are exact)
TENSOR_OPS = (
    "add", "sub", "mul", "div", "neg", "power", "matmul", "frobenius_norm",
    "pairwise_distance", "concat", "reshape", "transpose", "gather_rows",
    "segment_sum", "tsum", "tmean", "sigmoid", "silu", "relu", "exp", "log",
    "softmax", "binary_cross_entropy_with_logits", "batch_norm", "layer_norm",
)

# (module, attribute, span name) for every layer boundary traced
LAYER_FUNCTIONS = (
    (hemenet.structio, "parse_canonical_json", "structio.parse"),
    (hemenet.graph, "build_graph", "graph.build"),
    (hemenet.model, "pack_graph", "model.pack"),
    (hemenet.model, "init_params", "model.init"),
    (hemenet.train, "encode", "model.encode"),
    (hemenet.model, "layer_forward", "model.layer_forward"),
    (hemenet.train, "readout_and_heads", "model.readout"),
    (hemenet.model, "task_aware_readout", "model.task_readout"),
    (hemenet.geom, "normalized_flat_relation", "geom.relation"),
    (hemenet.geom, "masked_centroid", "geom.centroid"),
    (hemenet.train, "optimizer_step", "params.optim"),
    (ParamStore, "clip_global_norm", "params.clip"),
    (Tensor, "backward", "tensor.backward"),
    (hemenet.model, "save_model", "checkpoint.save"),
    (hemenet.model, "load_model", "checkpoint.load"),
    (hemenet.train, "train_epoch", "train.step"),
    (hemenet.train, "multitask_loss", "train.loss"),
    (hemenet.train, "score_samples", "train.score"),
    (hemenet.train, "metrics_from_scores", "train.metrics"),
)

# modules whose global op names the encoder, geometry, loss and operator
# sugar (Tensor.__add__ -> tensor.add) resolve at call time
OP_NAMESPACES = (hemenet.model, hemenet.geom, hemenet.train, hemenet.numcore.tensor)
# the model's MLPs look their activation up in this table, not by name
ACTIVATION_TABLE = hemenet.model._ACTIVATIONS


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.samples: list[str | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ------------------------------------------------------

    def begin(self, name: str, sample: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if sample is None and parent >= 0:
            sample = self.samples[parent]
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.samples.append(sample)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sample = getattr(args[0], "complex_id", None) if args else None
            idx = tracer.begin(name, sample)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)

        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        targets = list(LAYER_FUNCTIONS)
        for module in OP_NAMESPACES:
            targets += [(module, op, f"tensor.{op}") for op in TENSOR_OPS if hasattr(module, op)]
        targets += [(ACTIVATION_TABLE, act, f"tensor.{act}") for act in ACTIVATION_TABLE]
        for owner, key, span in targets:
            original = _get(owner, key)
            self._saved.append((owner, key, original))
            _set(owner, key, self._wrap(original, span))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            _set(owner, key, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis -------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        out = self.durations()
        for dur, parent in zip(list(out), self.parents):
            if parent >= 0:
                out[parent] -= dur
        return out

    def ancestor_named(self, idx: int, name: str) -> int:
        """Index of the nearest enclosing span called ``name``, or -1."""
        p = self.parents[idx]
        while p >= 0 and self.names[p] != name:
            p = self.parents[p]
        return p

    def dump(self, path) -> None:
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "sample": smp}
            for n, s, e, p, smp in zip(self.names, self.starts, self.ends,
                                       self.parents, self.samples)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans}, fh)
            fh.write("\n")
