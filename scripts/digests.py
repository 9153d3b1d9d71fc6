"""Print a checkout's equivalence digests, one SHA-256 per line.

    python3 scripts/digests.py               # about 20 s on 2 vCPUs
    python3 scripts/digests.py --scale tiny  # about 1 s

Run it in two checkouts: each imports the package from its own ``src/``,
and equal lines mean a change left those outputs byte-identical.  Inputs
are the benchmark's (``bench/gen.py`` at the shapes of
``bench/workloads.py``).  The records are those of the train-paper,
eval-multichain and ingest-large set-ups at the PAPER scale, seeds 1 and
7, then at the TINY scale, seed 3 (165 records; ``--scale tiny`` keeps
the last 15), each scale and seed in workload order.

- ``texts``: each record's canonical JSON text, then its
  write(parse(text)) bytes.  dbd4a604... at PAPER scale, as recorded in
  ``BENCH_one_reader.json``.
- ``three_decimal_texts``: the same for the records with every
  coordinate rounded to three decimals.  9bbea18b... at PAPER scale.
- ``graphs``: each record read back through its text, under three graph
  settings: every relation's edges, then in float32 and float64 every
  packed array (name, dtype, shape and bytes) and the readout scopes.
- ``training``: train-paper's warm-up epoch and one more epoch at seed 7
  (TINY: seed 3): every sample's scaled loss, batch statistics and the
  step's gradient dict after its backward, in parameter name order, and
  after each epoch every parameter, running statistic and Adam moment.
- ``eval``: eval-multichain's group 0 at the same seed, scored one
  complex at a time: every affinity prediction and property score.
"""

import argparse
import dataclasses
import hashlib
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import gen  # noqa: E402
import workloads  # noqa: E402

import hemenet.train  # noqa: E402
from hemenet import structio  # noqa: E402
from hemenet.datasets import PROPERTY_TASKS  # noqa: E402
from hemenet.graph import GraphConfig, RelationKind, build_graph  # noqa: E402
from hemenet.model import pack_graph  # noqa: E402
from hemenet.structio import parse_canonical_json, write_canonical_json  # noqa: E402

RECORD_INPUTS = {
    "paper": ((workloads.PAPER, 1), (workloads.PAPER, 7), (workloads.TINY, 3)),
    "tiny": ((workloads.TINY, 3),),
}
RUN_INPUTS = {"paper": (workloads.PAPER, 7), "tiny": (workloads.TINY, 3)}
GRAPH_CONFIGS = (GraphConfig(radius=4.5), GraphConfig(geometry="calpha", radius=6.0),
                 GraphConfig(spatial_rule="knn", k=10))
PACKED_ARRAYS = ("X0", "mask", "type_idx", "elem_idx", "src", "dst", "kind", "pool",
                 "dst_channels", "deg")


def workload_records(scale, seed):
    """The records of the three workloads' set-ups, in their order: the
    same generator draws as ``TrainPaper``, ``EvalMultichain`` and
    ``IngestLarge`` make (labels are drawn, as they advance the rng)."""
    dims = scale.model.task_dims
    rng = np.random.default_rng(seed)
    for k, (lengths, n_lig, aff, tasks) in enumerate(scale.train_corpus):
        rec = gen.make_complex(rng, f"tr{k:02d}", lengths, n_lig)
        gen.make_labels(rng, rec, aff, tasks, dims)
        yield rec
    rng = np.random.default_rng(seed)
    for k in range(scale.eval_complexes):
        n_chains = 2 + k % 3
        lengths = workloads._split(workloads._spread(k, *scale.eval_residues), n_chains)
        n_lig = scale.eval_ligand if k % 2 == 0 else 0
        rec = gen.make_complex(rng, f"ev{k:03d}", lengths, n_lig)
        gen.make_labels(rng, rec, "lba" if n_lig else "ppa", [PROPERTY_TASKS] * n_chains, dims)
        yield rec
    rng = np.random.default_rng(seed)
    for k, lengths in enumerate(scale.ingest_complexes):
        yield gen.make_complex(rng, f"in{k}", lengths, 8)


def rounded_to_three_decimals(rec):
    def rounded(atoms):
        return structio.AtomArrays(atoms.names, atoms.elements, np.round(atoms.xyz, 3))
    chains = tuple(dataclasses.replace(ch, residues=structio.ResidueArrays(
        ch.residues.types, ch.residues.counts, rounded(ch.residues.atoms))) for ch in rec.chains)
    return dataclasses.replace(rec, chains=chains, ligand_atoms=rounded(rec.ligand_atoms))


def texts_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        text = write_canonical_json(rec)
        h.update(text.encode())
        h.update(write_canonical_json(parse_canonical_json(text)).encode())
    return h.hexdigest()


def graphs_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        back = parse_canonical_json(write_canonical_json(rec))
        for cfg in GRAPH_CONFIGS:
            g = build_graph(back, cfg)
            for kind in RelationKind:
                h.update(g.edges[kind].tobytes())
            for dtype in (np.float32, np.float64):
                pg = pack_graph(g, dtype)
                for name in PACKED_ARRAYS:
                    arr = getattr(pg, name)
                    h.update(f"{name} {arr.dtype} {arr.shape}".encode())
                    h.update(arr.tobytes())
                for key, nodes in pg.scopes.items():
                    h.update(key.encode())
                    h.update(nodes.tobytes())
    return h.hexdigest()


def _update_arrays(h, named) -> None:
    for name, arr in named:
        h.update(f"{name} {arr.dtype} {arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())


def _update_store(h, store) -> None:
    _update_arrays(h, ((name, t.data) for name, t in store.items()))
    _update_arrays(h, sorted(store.state.items()))
    for name in sorted(store.opt_state):
        st = store.opt_state[name]
        h.update(f"{name} step {st['step']}".encode())
        _update_arrays(h, (("m", st["m"]), ("v", st["v"])))


def training_digest(scale, seed, workdir) -> str:
    """Every sample's backward of train-paper's warm-up and first epoch, as
    ``train.train_epoch`` calls it, and the store after each epoch."""
    h = hashlib.sha256()
    w = workloads.TrainPaper(scale, seed, workdir, workloads.Tally())
    w.setup()
    sample_backward = hemenet.train._sample_backward

    def hashed(pg, plan, store, cfg, weights, share, grads):
        value, breakdown, batch_stats = sample_backward(pg, plan, store, cfg, weights, share,
                                                        grads)
        h.update(f"{pg.complex_id} {value!r} {sorted(breakdown.items())!r}".encode())
        _update_arrays(h, sorted(batch_stats.items()))
        _update_arrays(h, ((name, grads[t]) for name, t in store.items() if t in grads))
        return value, breakdown, batch_stats

    hemenet.train._sample_backward = hashed
    try:
        w.warmup()
        _update_store(h, w.store)
        w.unit()
        _update_store(h, w.store)
    finally:
        hemenet.train._sample_backward = sample_backward
    if w.tally.failed:
        raise SystemExit(f"training failed: {w.tally.problems}")
    return h.hexdigest()


def eval_digest(scale, seed, workdir) -> str:
    h = hashlib.sha256()
    w = workloads.EvalMultichain(scale, seed, workdir, workloads.Tally())
    w.setup()
    for sample in w.data[:scale.eval_group]:
        scored = hemenet.train.score_samples(w.store, w.cfg, [sample])
        h.update(sample[0].complex_id.encode())
        for task, preds in scored["aff_preds"].items():
            h.update(f"{task} {preds!r}".encode())
        for task, rows in scored["prop_scores"].items():
            _update_arrays(h, ((task, row) for row in rows))
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", choices=sorted(RECORD_INPUTS), default="paper")
    args = ap.parse_args()
    records = [rec for scale, seed in RECORD_INPUTS[args.scale]
               for rec in workload_records(scale, seed)]
    print("texts", texts_digest(records), flush=True)
    print("three_decimal_texts", texts_digest(map(rounded_to_three_decimals, records)),
          flush=True)
    print("graphs", graphs_digest(records), flush=True)
    with tempfile.TemporaryDirectory() as workdir:
        print("training", training_digest(*RUN_INPUTS[args.scale], workdir), flush=True)
        print("eval", eval_digest(*RUN_INPUTS[args.scale], workdir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
