"""Command-line pipeline: ingest -> annotate -> split -> train -> eval,
plus synthetic data generation, ablation sweeps, symmetry checks, and
prompt-correlation export.

The parser declares each setting once: its flag, type, default and
choices.  A JSON config file (``--config``) may set any optional flag of
the command, under the flag's destination name and with the flag's JSON
type; flags win over the file and the file wins over the defaults.  The
train command serializes the complete effective configuration to
``run.json`` inside the run directory, and a run is reproducible from
that file alone plus the input data.  Exit codes: 0 success, 1 input
error, 2 config error, 3 numerical failure.  ``--workers`` parallelizes
graph building and evaluation with threads; the training reduction is
always single-threaded.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import __version__
from .datasets import (
    AFFINITY_TASKS,
    PAPER_TASK_DIMS,
    TASKS,
    SyntheticConfig,
    annotate_complex,
    assemble_splits,
    build_uniprot_table,
    generate_synthetic,
    load_labels,
    save_labels,
    synthetic_cluster_map,
)
from .errors import ConfigError, DataError, NumericsError, ParseError, SchemaError
from .graph import GraphConfig
from .model import HeMeNetConfig, init_params, load_model, prompt_correlation, save_model
from .numcore import OptimConfig, atomic_open
from .structio import dump_records, filter_max_atoms, load_records, parse_pdb_subset
from .train import (LossWeights, cosine_lr, evaluate, label_plan, metric_lines, prepare_data,
                    train_epoch)
from .verify import run_all

log = logging.getLogger("hemenet")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

BEST_VAL_RULE = ("mean over labeled tasks of the normalized headline metric: "
                 "fmax for property tasks, 1/(1+rmse) for affinity tasks; "
                 "highest mean wins, earlier epoch breaks ties")


def _seed(given: int | None) -> int:
    """``given``, or HEMENET_SEED (default 0) when no seed was given."""
    if given is not None:
        return given
    raw = os.environ.get("HEMENET_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"HEMENET_SEED must be an integer, got {raw!r}") from None


# -- dataset plumbing ----------------------------------------------------------


def _load_corpus(records_path, labels_path):
    records = {rec.complex_id: rec for rec in load_records(records_path)}
    labels_by_id, dims = load_labels(labels_path)
    missing = sorted(set(labels_by_id) - set(records))
    if missing:
        raise DataError(f"labels reference unknown complexes: {missing[:5]}")
    for cid in sorted(labels_by_id):
        chains = {ch.chain_id for ch in records[cid].chains}
        absent = sorted(set(labels_by_id[cid].chain_props) - chains)
        if absent:
            raise DataError(f"{labels_path}: labels of complex {cid} name chain {absent[0]!r}, "
                            f"which its structure lacks")
    return records, labels_by_id, dims


def _split_pairs(splits_path, split: str, records, labels_by_id) -> list:
    """(record, labels) of the labeled complexes of ``split``, by id.
    A splits file that is not an object of id -> split name is a
    DataError naming it."""
    with open(splits_path, "r", encoding="utf-8") as fh:
        assignment = json.load(fh)
    if not (isinstance(assignment, dict) and all(isinstance(s, str) for s in assignment.values())):
        raise DataError(f"{splits_path}: splits file is not an object of id -> split name")
    if split == "all":
        ids = sorted(assignment)
    else:
        ids = sorted(cid for cid, s in assignment.items() if s == split)
    return [(records[cid], labels_by_id[cid]) for cid in ids if cid in labels_by_id]


# -- ingest --------------------------------------------------------------------


def _pdb_files(paths) -> list[Path]:
    out = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(sorted(q for q in p.rglob("*") if q.suffix in (".pdb", ".ent")))
        else:
            out.append(p)
    return out


def cmd_ingest(args) -> int:
    if args.max_atoms < 1:
        raise ConfigError(f"--max-atoms must be >= 1, got {args.max_atoms}")
    files = _pdb_files(args.paths)
    if not files:
        log.warning("no structure files found under %s", args.paths)
    records = []
    failures = []
    for path in files:
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
            rec = parse_pdb_subset(text, complex_id=path.stem)  # and validates it
            if not filter_max_atoms(rec, args.max_atoms):
                log.warning("%s: dropped, exceeds %d heavy atoms", path, args.max_atoms)
                continue
            records.append(rec)
        except (ParseError, SchemaError, DataError, OSError) as exc:
            failures.append((str(path), str(exc)))
    dump_records(args.out, records)
    print(f"ingested {len(records)} of {len(files)} files -> {args.out}")
    if failures:
        for path, msg in failures:
            print(f"failed: {path}: {msg}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


# -- annotate ------------------------------------------------------------------


def _parse_dims(raw) -> dict:
    """Label dims from ``ec=8,mf=8`` on the command line or from
    ``{"ec": 8, "mf": 8}`` in a config file."""
    if isinstance(raw, str):
        try:
            raw = {key.strip(): int(value) for key, _, value in
                   (part.partition("=") for part in raw.split(","))}
        except ValueError:
            raise ConfigError(f"bad dims {raw!r}, want e.g. ec=8,mf=8") from None
    if not isinstance(raw, dict) or any(type(v) is not int or v < 1 for v in raw.values()):
        raise ConfigError(f"dims must map tasks to integers >= 1, got {raw!r}")
    bad = [key for key in raw if key not in TASKS]
    if bad:
        raise ConfigError(f"unknown task in dims: {bad[0]!r}")
    return raw


def _read_affinities(path) -> dict[str, tuple[str, float]]:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"{path}:{ln}: expected complex_id<TAB>task<TAB>value")
            cid, task, value = parts
            if task not in AFFINITY_TASKS:
                raise ParseError(f"{path}:{ln}: affinity task must be lba or ppa")
            try:
                pk = float(value)
            except ValueError:
                raise ParseError(f"{path}:{ln}: bad affinity value {value!r}") from None
            if cid in out:
                raise ParseError(f"{path}:{ln}: duplicate affinity for {cid}")
            out[cid] = (task, pk)
    return out


def cmd_annotate(args) -> int:
    dims = args.dims
    table = build_uniprot_table(*args.annotations, dims=dims)
    records = load_records(args.records)
    base_by_id = {}
    if args.base:
        base_by_id, base_dims = load_labels(args.base)
        if dims is None:
            dims = base_dims
    dims = dims or dict(PAPER_TASK_DIMS)
    affinities = _read_affinities(args.affinities) if args.affinities else {}
    labels_by_id = {}
    for rec in records:
        labels = annotate_complex(rec, table, base=base_by_id.get(rec.complex_id))
        if rec.complex_id in affinities:
            task, pk = affinities[rec.complex_id]
            setattr(labels, task, pk)
        labels.validate(dims)
        labels_by_id[rec.complex_id] = labels
    save_labels(args.out, labels_by_id, dims)
    print(f"annotated {len(labels_by_id)} complexes -> {args.out}")
    return EXIT_OK


# -- split ---------------------------------------------------------------------


def cmd_split(args) -> int:
    seed = _seed(args.seed)
    records, labels_by_id, _ = _load_corpus(args.records, args.labels)
    samples = [(records[cid], labels_by_id[cid]) for cid in sorted(labels_by_id)]
    split = assemble_splits(samples, args.clusters, seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(split.assignment.items())), fh, indent=1, sort_keys=True)
        fh.write("\n")
    prov = {"cluster_of": dict(sorted(split.cluster_of.items())),
            "dropped": sorted(split.dropped), "seed": seed}
    with open(str(args.out) + ".provenance.json", "w", encoding="utf-8") as fh:
        json.dump(prov, fh, indent=1, sort_keys=True)
        fh.write("\n")
    kept = {s: sum(1 for v in split.assignment.values() if v == s)
            for s in ("train", "val", "test")}
    print(f"split {kept} dropped={len(split.dropped)} -> {args.out}")
    return EXIT_OK


# -- gen-synthetic -------------------------------------------------------------


def cmd_gen_synthetic(args) -> int:
    seed = _seed(args.seed)
    scfg = SyntheticConfig(n_samples=args.n, max_residues=args.max_residues, seed=seed,
                           dims=args.dims, extra_property_rate=args.extra_rate)
    samples = generate_synthetic(scfg)
    clusters = synthetic_cluster_map(samples, args.clusters, seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_records(out / "records.ndjson", [rec for rec, _ in samples])
    save_labels(out / "labels.json", {rec.complex_id: lab for rec, lab in samples}, args.dims)
    with open(out / "clusters.tsv", "w", encoding="utf-8") as fh:
        for key in sorted(clusters):
            fh.write(f"{key}\t{clusters[key]}\n")
    with open(out / "meta.json", "w", encoding="utf-8") as fh:
        json.dump({"n": scfg.n_samples, "max_residues": scfg.max_residues,
                   "seed": seed, "dims": args.dims,
                   "extra_rate": scfg.extra_property_rate}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(samples)} synthetic complexes -> {out}")
    return EXIT_OK


# -- train ---------------------------------------------------------------------


SCHEDULES = ("constant", "cosine")
# the values each string setting of a run may take
RUN_CHOICES = {**HeMeNetConfig.CHOICES, **GraphConfig.CHOICES, "schedule": SCHEDULES}


@dataclass
class RunConfig:
    """Every knob of a training run; run.json holds exactly these, and
    ``train`` has one flag per field, of the field's type and default."""

    records: str | None = None  # the four paths are required
    labels: str | None = None
    splits: str | None = None
    out: str | None = None
    L: int = 6
    d: int = 256
    heads: int = 4
    readout: str = "task_aware"
    relations: str = "hetero"
    norm: str = "batch"
    act: str = "silu"
    dtype: str = "float32"
    geometry: str = "full_atom"
    spatial_rule: str = "radius"
    radius: float = 4.5
    k: int = 10
    tasks: str = field(default=",".join(TASKS),
                       metadata={"help": "comma-separated subset of " + ",".join(TASKS)})
    epochs: int = 30
    batch_size: int = 4
    lr: float = 1e-3
    schedule: str = "constant"
    clip: float = 1.0
    lam: float = 1.0
    seed: int | None = None  # None: HEMENET_SEED
    workers: int = 1
    resume: str | None = field(default=None, metadata={"help": "checkpoint to continue from"})


def _task_list(raw: str) -> tuple[str, ...]:
    """Tasks of a comma-separated list; unknown names or none at all
    are a ConfigError."""
    wanted = tuple(t.strip() for t in raw.split(",") if t.strip())
    bad = [t for t in wanted if t not in TASKS]
    if bad:
        raise ConfigError(f"unknown tasks {bad}")
    if not wanted:
        raise ConfigError("empty task list")
    return wanted


# RunConfig fields that cannot change what a run computes.  Every other
# one is recorded in each epoch checkpoint, and --resume must match it.
NOT_STEERING = ("records", "labels", "splits", "out", "workers", "resume")
# keys run.json adds to the RunConfig fields; a config file may hold them
RUN_JSON_EXTRAS = ("task_dims", "version", "best_val_rule")


def _run_config(args) -> RunConfig:
    rc = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
    for req in ("records", "labels", "splits", "out"):
        if not getattr(rc, req):
            raise ConfigError(f"missing required setting {req!r}")
    rc.seed = _seed(rc.seed)
    if not (rc.clip > 0 and rc.batch_size >= 1 and rc.lr >= 0 and rc.lam >= 0):  # or NaN
        raise ConfigError("need --clip > 0, --batch-size >= 1, --lr >= 0 and --lam >= 0, got "
                          f"{rc.clip}, {rc.batch_size}, {rc.lr} and {rc.lam}")
    if rc.epochs < 0:
        raise ConfigError(f"--epochs must be >= 0, got {rc.epochs}")
    _check_workers(rc.workers)
    return rc


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")


def _val_score(metrics: dict) -> float:
    """Mean of normalized per-task metrics in TASKS order; see BEST_VAL_RULE."""
    parts = []
    for task in TASKS:
        mets = metrics.get(task)
        if mets is None:
            continue
        if "fmax" in mets:
            parts.append(mets["fmax"])
        else:
            parts.append(1.0 / (1.0 + mets["rmse"]))
    return float(np.mean(parts)) if parts else float("-inf")


def _resumed_history(out: Path, start_epoch: int) -> list[str]:
    """The ``metrics.jsonl`` rows in ``out`` of epochs before
    ``start_epoch``, verbatim.  An unterminated last line was cut by an
    interrupted write; its epoch's checkpoint is saved only after its
    rows, so the line is from an epoch at or after any checkpoint and is
    dropped."""
    path = out / "metrics.jsonl"
    if not path.exists():
        return []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            complete = fh.read().split("\n")[:-1]
        return [line for line in complete if json.loads(line)["epoch"] < start_epoch]
    except (ValueError, TypeError, KeyError) as exc:
        raise DataError(f"cannot resume the history in {path}: {exc!r}") from exc


def cmd_train(args) -> int:
    rc = _run_config(args)
    gcfg = GraphConfig(**{f.name: getattr(rc, f.name) for f in fields(GraphConfig)})
    records, labels_by_id, dims = _load_corpus(rc.records, rc.labels)
    mcfg = HeMeNetConfig(L=rc.L, d=rc.d, heads=rc.heads, readout=rc.readout,
                         relations=rc.relations, norm=rc.norm, act=rc.act,
                         task_dims=dims, dtype=rc.dtype)
    tasks = _task_list(rc.tasks)
    record = {f.name: getattr(rc, f.name) for f in fields(RunConfig)
              if f.name not in NOT_STEERING}  # what each epoch checkpoint records
    record["tasks"] = ",".join(tasks)
    if rc.schedule != "cosine":  # only cosine rates depend on the epoch count
        del record["epochs"]
    out = Path(rc.out)
    # history is kept only in place: best.bin must live beside the rows
    in_place = bool(rc.resume) and Path(rc.resume).parent.resolve() == out.resolve()
    start_epoch, best = 0, (float("-inf"), -1)
    if rc.resume:
        store, _, saved = load_model(rc.resume, expect=mcfg)
        changed = [f"--{f.name.replace('_', '-')} {getattr(rc, f.name)} (checkpoint: {f.name} "
                   f"{saved.get(f.name)})" for f in fields(RunConfig)
                   if f.name not in NOT_STEERING and record.get(f.name) != saved.get(f.name)]
        if changed:
            raise ConfigError(f"cannot resume {rc.resume} with settings other than its own: "
                              f"{'; '.join(changed)} (None: not recorded)")
        start_epoch = int(saved.get("epoch", -1)) + 1
        if rc.epochs < start_epoch:
            raise ConfigError(f"--epochs {rc.epochs} is below the {start_epoch} epochs "
                              f"{rc.resume} has trained")
        if in_place:
            try:
                best = (float(saved["best_score"]), int(saved["best_epoch"]))
            except (KeyError, TypeError, ValueError):
                raise DataError(f"{rc.resume} records no best epoch") from None
        log.info("resuming from %s at epoch %d", rc.resume, start_epoch)
    else:
        store = init_params(mcfg, seed=rc.seed)
    train_pairs = _split_pairs(rc.splits, "train", records, labels_by_id)
    if not train_pairs:
        raise DataError("train split is empty")
    val_pairs = _split_pairs(rc.splits, "val", records, labels_by_id)
    train_data = prepare_data(train_pairs, gcfg, mcfg.np_dtype, rc.workers)
    val_data = prepare_data(val_pairs, gcfg, mcfg.np_dtype, rc.workers)
    del records, train_pairs, val_pairs  # the packed graphs are all the epochs read
    for pg, labels in train_data + val_data:  # a labeled chain without nodes stops the run here
        label_plan(pg, labels, tasks)

    out.mkdir(parents=True, exist_ok=True)
    run_meta = dict(sorted(asdict(rc).items()))
    run_meta["task_dims"] = dict(sorted(dims.items()))
    run_meta["version"] = __version__
    run_meta["best_val_rule"] = BEST_VAL_RULE
    with open(out / "run.json", "w", encoding="utf-8") as fh:
        json.dump(run_meta, fh, indent=1, sort_keys=True)
        fh.write("\n")

    lines = _resumed_history(out, start_epoch) if in_place else []
    if in_place and best[1] >= 0:  # best.bin may hold a later epoch
        kept, _, _ = load_model(out / f"ckpt_epoch{best[1]:04d}.bin", expect=mcfg)
        save_model(out / "best.bin", kept, mcfg,
                   extra={"epoch": best[1], **record, "val_score": best[0]})
    weights = LossWeights(lam=rc.lam)

    # An epoch's rows are on disk before its checkpoint, and best.bin before
    # its rows, so resuming from any checkpoint finds that epoch's history.
    with atomic_open(out / "metrics.jsonl", "w", encoding="utf-8") as metrics:
        metrics.write("".join(line + "\n" for line in lines))
    with open(out / "metrics.jsonl", "a", encoding="utf-8") as metrics:
        for epoch in range(start_epoch, rc.epochs):
            lr = rc.lr if rc.schedule == "constant" else cosine_lr(rc.lr, epoch, rc.epochs)
            stats = train_epoch(store, mcfg, train_data, weights, OptimConfig(lr=lr),
                                seed=rc.seed + epoch, batch_size=rc.batch_size,
                                clip=rc.clip, tasks=tasks)
            rows = [json.dumps({"epoch": epoch, "split": "train", "task": "_total",
                                "metric": "loss", "value": stats.loss}, sort_keys=True)]
            log.info("epoch %d loss %.5f grad %.3f (%.1fs)", epoch, stats.loss,
                     stats.grad_norm, stats.seconds)
            if val_data:
                report = evaluate(store, mcfg, val_data, tasks, rc.workers)
                rows.extend(metric_lines(epoch, "val", report))
                score = _val_score(report.metrics)
            else:
                score = float(epoch)  # no validation: latest epoch wins
            if score > best[0]:
                best = (score, epoch)
                save_model(out / "best.bin", store, mcfg,
                           extra={"epoch": epoch, **record, "val_score": score})
            metrics.write("".join(row + "\n" for row in rows))
            metrics.flush()
            save_model(out / f"ckpt_epoch{epoch:04d}.bin", store, mcfg,
                       extra={"epoch": epoch, **record, "best_score": best[0],
                              "best_epoch": best[1]})

    final = evaluate(store, mcfg, val_data or train_data, tasks, rc.workers)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        fh.write(final.to_json())
        fh.write("\n")
    print(f"trained {rc.epochs - start_epoch} epochs; best epoch {best[1]} -> {out}")
    return EXIT_OK


# -- eval ----------------------------------------------------------------------


def cmd_eval(args) -> int:
    tasks = _task_list(args.tasks)
    _check_workers(args.workers)
    store, mcfg, record = load_model(args.checkpoint)
    records, labels_by_id, dims = _load_corpus(args.records, args.labels)
    if dict(sorted(dims.items())) != dict(sorted(mcfg.task_dims.items())):
        raise ConfigError(f"label dims {dims} do not match checkpoint {mcfg.task_dims}")
    # graphs as in training: every checkpoint train writes records their settings
    missing = [f.name for f in fields(GraphConfig) if f.name not in record]
    if missing:
        raise DataError(f"{args.checkpoint}: checkpoint record lacks graph settings {missing}")
    gcfg = GraphConfig(**{f.name: record[f.name] for f in fields(GraphConfig)})
    pairs = _split_pairs(args.splits, args.split, records, labels_by_id)
    if not pairs:
        log.warning("split %r is empty; writing empty report", args.split)
    data = prepare_data(pairs, gcfg, mcfg.np_dtype, args.workers)
    del records, pairs  # the packed graphs are all evaluate reads
    report_json = evaluate(store, mcfg, data, tasks, args.workers).to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report_json)
            fh.write("\n")
    print(report_json)
    return EXIT_OK


# -- ablate --------------------------------------------------------------------

ABLATION_AXES = {axis: RUN_CHOICES[axis] for axis in ("readout", "relations", "geometry")}


def cmd_ablate(args) -> int:
    if not args.base:
        raise ConfigError("ablate requires --config with a full train configuration")
    out_root = Path(args.out)
    axes = args.axes.split(",") if args.axes else list(ABLATION_AXES)
    bad = [a for a in axes if a not in ABLATION_AXES]
    if bad:
        raise ConfigError(f"unknown ablation axes {bad}")
    # each variant is the train command line that runs it, all checked first
    variants = {f"{axis}={value}": parse_args(["train", "--config", args.base, f"--{axis}", value,
                                               "--out", str(out_root / f"{axis}={value}")])
                for axis in axes for value in ABLATION_AXES[axis]}
    for variant in variants.values():
        _run_config(variant)
    out_root.mkdir(parents=True, exist_ok=True)
    summary = {}
    for name, variant in variants.items():
        code = cmd_train(variant)
        if code != EXIT_OK:
            return code
        with open(out_root / name / "report.json", "r", encoding="utf-8") as fh:
            summary[name] = json.load(fh)["metrics"]
    with open(out_root / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"ablation over {axes} -> {out_root / 'summary.json'}")
    return EXIT_OK


# -- check-equivariance --------------------------------------------------------


def cmd_check_equivariance(args) -> int:
    if args.trials < 1:  # zero graphs exercise no symmetry
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.tol is not None and not args.tol >= 0:  # or NaN
        raise ConfigError(f"--tol must be >= 0, got {args.tol}")
    store = mcfg = None
    dtype = args.dtype
    if args.checkpoint:
        store, mcfg, _ = load_model(args.checkpoint)
        dtype = mcfg.dtype
    reports = run_all(trials=args.trials, seed=_seed(args.seed), dtype=dtype, tol=args.tol,
                      cfg=mcfg, store=store)
    ok = True
    for rep in reports:
        print("\n".join(rep.lines()))
        ok = ok and rep.ok
    if not ok:
        print("equivariance violation detected", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# -- prompt-corr ---------------------------------------------------------------


def cmd_prompt_corr(args) -> int:
    store, mcfg, _ = load_model(args.checkpoint)
    matrix = prompt_correlation(store, mcfg)
    rows = ["task," + ",".join(TASKS)]
    for i, task in enumerate(TASKS):
        rows.append(task + "," + ",".join(f"{matrix[i, j]:.6f}" for j in range(len(TASKS))))
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def _config_values(sp: argparse.ArgumentParser, path, extra=()) -> dict:
    """Settings of the config file ``path`` for the command parser ``sp``:
    one per optional flag, keyed by its destination, with the flag's JSON
    type (an int, a number, a string, a list of strings for ``nargs``
    flags, or null where the default is None) and one of its choices.
    Keys in ``extra`` are accepted and dropped; any other key, or a value
    of another type or choice, is a ConfigError naming the key."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    flags = {a.dest: a for a in sp._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(cfg) - set(flags) - set(extra))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown} in {path}")
    fixed = sorted(k for k in cfg
                   if k in flags and (flags[k].required or not flags[k].option_strings))
    if fixed:
        raise ConfigError(f"config keys {fixed} in {path} are for the command line only")
    return {key: _config_value(flags[key], key, value) for key, value in cfg.items()
            if key in flags}


_JSON_TYPES = {int: ("an integer", int), float: ("a number", (int, float)),
               str: ("a string", str), None: ("a string", str)}


def _config_value(action: argparse.Action, key: str, value):
    if value is None and action.default is None:
        return None
    if action.type not in _JSON_TYPES:  # a parse function of the raw value
        return action.type(value)
    want, kinds = _JSON_TYPES[action.type]
    if action.nargs is not None:
        want, ok = "a list of strings", isinstance(value, list) and all(
            isinstance(v, str) for v in value)
    else:
        ok = isinstance(value, kinds) and not isinstance(value, bool)
    if not ok:
        raise ConfigError(f"config key {key!r} must be {want}"
                          f"{' or null' if action.default is None else ''}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config key {key!r} must be one of {list(action.choices)}, "
                          f"got {value!r}")
    return float(value) if action.type is float else value


def _add_config(sp):
    sp.add_argument("--config", help="JSON file of settings; flags override it")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The ``hemenet`` parser and its command parsers by name."""
    p = argparse.ArgumentParser(prog="hemenet",
                                description="heterogeneous equivariant multi-task "
                                            "network pipeline")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="convert PDB-format files to canonical records")
    sp.add_argument("paths", nargs="+")
    sp.add_argument("--out", required=True)
    sp.add_argument("--max-atoms", type=int, default=15000)
    _add_config(sp)
    sp.set_defaults(fn=cmd_ingest)

    sp = sub.add_parser("annotate", help="attach property/affinity labels to records")
    sp.add_argument("--records", required=True)
    sp.add_argument("--annotations", nargs="+", default=[],
                    help="TSV files: uniprot_id<TAB>task<TAB>index")
    sp.add_argument("--affinities", help="TSV: complex_id<TAB>lba|ppa<TAB>pK")
    sp.add_argument("--base", help="existing labels to merge over")
    sp.add_argument("--dims", type=_parse_dims,
                    help="override label dims, e.g. ec=8,mf=8,bp=8,cc=8")
    sp.add_argument("--out", required=True)
    _add_config(sp)
    sp.set_defaults(fn=cmd_annotate)

    sp = sub.add_parser("split", help="assign complexes to train/val/test")
    sp.add_argument("--records", required=True)
    sp.add_argument("--labels", required=True)
    sp.add_argument("--clusters", required=True, help="TSV: chain_key<TAB>cluster_id")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", required=True)
    _add_config(sp)
    sp.set_defaults(fn=cmd_split)

    sp = sub.add_parser("gen-synthetic", help="write a synthetic corpus for testing")
    sp.add_argument("--out", required=True)
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--max-residues", type=int, default=6)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--dims", type=_parse_dims, default={"ec": 8, "mf": 8, "bp": 8, "cc": 8})
    sp.add_argument("--extra-rate", type=float, default=0.5)
    sp.add_argument("--clusters", type=int, default=4)
    _add_config(sp)
    sp.set_defaults(fn=cmd_gen_synthetic)

    sp = sub.add_parser("train", help="train a model; writes checkpoints and metrics")
    hints = get_type_hints(RunConfig)
    for f in fields(RunConfig):
        kind = next(iter(get_args(hints[f.name])), hints[f.name])  # str | None: str
        sp.add_argument("--" + f.name.replace("_", "-"), type=kind, default=f.default,
                        choices=RUN_CHOICES.get(f.name), help=f.metadata.get("help"))
    _add_config(sp)
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("eval", help="score a checkpoint on a split")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--records", required=True)
    sp.add_argument("--labels", required=True)
    sp.add_argument("--splits", required=True)
    sp.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    sp.add_argument("--tasks", default=",".join(TASKS))
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out")
    _add_config(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("ablate", help="sweep readout/relations/geometry variants")
    sp.add_argument("--out", required=True)
    sp.add_argument("--axes", help="subset of " + ",".join(ABLATION_AXES))
    sp.add_argument("--config", dest="base",
                    help="train --config file that every variant starts from")
    sp.set_defaults(fn=cmd_ablate)

    sp = sub.add_parser("check-equivariance", help="run the symmetry test suites")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--dtype", choices=HeMeNetConfig.CHOICES["dtype"], default="float64")
    sp.add_argument("--tol", type=float)
    sp.add_argument("--checkpoint")
    _add_config(sp)
    sp.set_defaults(fn=cmd_check_equivariance)

    sp = sub.add_parser("prompt-corr", help="export task-query correlation matrix")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--out")
    _add_config(sp)
    sp.set_defaults(fn=cmd_prompt_corr)

    return p, sub.choices


def parse_args(argv=None) -> argparse.Namespace:
    """Settings from the flags, else from the ``--config`` file, else the
    defaults the parser declares."""
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        sp = commands[args.command]
        extra = RUN_JSON_EXTRAS if args.command == "train" else ()
        sp.set_defaults(**_config_values(sp, args.config, extra))
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                            format="%(levelname)s %(name)s: %(message)s")
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ParseError, SchemaError, DataError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

if __name__ == "__main__":
    sys.exit(main())
