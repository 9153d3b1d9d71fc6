"""Command-line pipeline: ingest -> annotate -> split -> train -> eval,
plus synthetic data generation, ablation sweeps, symmetry checks, and
prompt-correlation export.

Every flag can also be supplied through a JSON config file
(``--config``); explicit flags override file values.  The train
command serializes the complete effective configuration to
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import (
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
from .graph import GraphConfig, build_graph
from .model import (
    HeMeNetConfig,
    init_params,
    load_model,
    pack_graph,
    prompt_correlation,
    save_model,
)
from .numcore import OptimConfig, atomic_open
from .structio import dump_records, filter_max_atoms, load_records, parse_pdb_subset, validate_record
from .train import (
    LossWeights,
    cosine_lr,
    evaluate,
    merge_scores,
    metric_lines,
    metrics_from_scores,
    score_samples,
    train_epoch,
)
from .verify import run_all

log = logging.getLogger("hemenet")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

BEST_VAL_RULE = ("mean over labeled tasks of the normalized headline metric: "
                 "fmax for property tasks, 1/(1+rmse) for affinity tasks; "
                 "highest mean wins, earlier epoch breaks ties")


def _env_seed() -> int:
    raw = os.environ.get("HEMENET_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"HEMENET_SEED must be an integer, got {raw!r}") from None


def _file_cfg(args) -> dict:
    path = getattr(args, "config", None)
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _opt(args, cfg: dict, name: str, default):
    """Flag wins over config file wins over default."""
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    if name in cfg:
        return cfg[name]
    return default


def _parallel_map(fn, items, workers: int):
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _chunks(items, n: int):
    size = max(1, (len(items) + n - 1) // n)
    return [items[i:i + size] for i in range(0, len(items), size)]


# -- dataset plumbing ----------------------------------------------------------


def _pack_pair(pair, gcfg: GraphConfig, dtype):
    rec, labels = pair
    return pack_graph(build_graph(rec, gcfg), dtype), labels


def _load_corpus(records_path, labels_path):
    records = {rec.complex_id: rec for rec in load_records(records_path)}
    labels_by_id, dims = load_labels(labels_path)
    missing = sorted(set(labels_by_id) - set(records))
    if missing:
        raise DataError(f"labels reference unknown complexes: {missing[:5]}")
    return records, labels_by_id, dims


def _split_ids(splits_path, split: str, labels_by_id) -> list[str]:
    with open(splits_path, "r", encoding="utf-8") as fh:
        assignment = json.load(fh)
    if split == "all":
        ids = sorted(assignment)
    else:
        ids = sorted(cid for cid, s in assignment.items() if s == split)
    return [cid for cid in ids if cid in labels_by_id]


def _build_data(records, labels_by_id, ids, gcfg, dtype, workers):
    pairs = [(records[cid], labels_by_id[cid]) for cid in ids]
    return _parallel_map(partial(_pack_pair, gcfg=gcfg, dtype=dtype), pairs, workers)


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
    cfg = _file_cfg(args)
    max_atoms = int(_opt(args, cfg, "max_atoms", 15000))
    files = _pdb_files(args.paths)
    if not files:
        log.warning("no structure files found under %s", args.paths)
    records = []
    failures = []
    for path in files:
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
            rec = parse_pdb_subset(text, complex_id=path.stem)
            validate_record(rec)
            if not filter_max_atoms(rec, max_atoms):
                log.warning("%s: dropped, exceeds %d heavy atoms", path, max_atoms)
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


def _parse_dims(raw) -> dict | None:
    if raw is None:
        return None
    if isinstance(raw, dict):
        return {k: int(v) for k, v in raw.items()}
    out = {}
    for part in str(raw).split(","):
        key, _, value = part.partition("=")
        if key.strip() not in TASKS:
            raise ConfigError(f"unknown task in dims: {key.strip()!r}")
        out[key.strip()] = int(value)
    return out


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
            if task not in ("lba", "ppa"):
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
    cfg = _file_cfg(args)
    dims = _parse_dims(_opt(args, cfg, "dims", None))
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
    cfg = _file_cfg(args)
    seed = _opt(args, cfg, "seed", None)
    seed = _env_seed() if seed is None else int(seed)
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
    cfg = _file_cfg(args)
    seed = _opt(args, cfg, "seed", None)
    seed = _env_seed() if seed is None else int(seed)
    dims = _parse_dims(_opt(args, cfg, "dims", None)) or \
        {"ec": 8, "mf": 8, "bp": 8, "cc": 8}
    scfg = SyntheticConfig(
        n_samples=int(_opt(args, cfg, "n", 8)),
        max_residues=int(_opt(args, cfg, "max_residues", 6)),
        seed=seed,
        dims=dims,
        extra_property_rate=float(_opt(args, cfg, "extra_rate", 0.5)),
    )
    samples = generate_synthetic(scfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_records(out / "records.ndjson", [rec for rec, _ in samples])
    save_labels(out / "labels.json", {rec.complex_id: lab for rec, lab in samples}, dims)
    clusters = synthetic_cluster_map(samples, int(_opt(args, cfg, "clusters", 4)), seed)
    with open(out / "clusters.tsv", "w", encoding="utf-8") as fh:
        for key in sorted(clusters):
            fh.write(f"{key}\t{clusters[key]}\n")
    with open(out / "meta.json", "w", encoding="utf-8") as fh:
        json.dump({"n": scfg.n_samples, "max_residues": scfg.max_residues,
                   "seed": seed, "dims": dims,
                   "extra_rate": scfg.extra_property_rate}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(samples)} synthetic complexes -> {out}")
    return EXIT_OK


# -- train ---------------------------------------------------------------------


@dataclass
class RunConfig:
    """Every knob of a training run; run.json holds exactly these."""

    records: str
    labels: str
    splits: str
    out: str
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
    tasks: str = ",".join(TASKS)
    epochs: int = 30
    batch_size: int = 4
    lr: float = 1e-3
    schedule: str = "constant"
    clip: float = 1.0
    lam: float = 1.0
    seed: int = 0
    workers: int = 1
    resume: str | None = None


def _task_list(raw: str) -> tuple[str, ...]:
    """Tasks of a comma-separated list; unknown names or none at all
    are a ConfigError."""
    wanted = tuple(t.strip() for t in str(raw).split(",") if t.strip())
    bad = [t for t in wanted if t not in TASKS]
    if bad:
        raise ConfigError(f"unknown tasks {bad}")
    if not wanted:
        raise ConfigError("empty task list")
    return wanted


_TRAIN_KEYS = [f.name for f in RunConfig.__dataclass_fields__.values()]


def _run_config(args) -> RunConfig:
    cfg = _file_cfg(args)
    unknown = set(cfg) - set(_TRAIN_KEYS) - {"task_dims", "version", "best_val_rule"}
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    values = {}
    for name in _TRAIN_KEYS:
        default = RunConfig.__dataclass_fields__[name].default
        values[name] = _opt(args, cfg, name, default)
    for req in ("records", "labels", "splits", "out"):
        if not isinstance(values[req], str) or not values[req]:
            raise ConfigError(f"missing required setting {req!r}")
    if getattr(args, "seed", None) is None and "seed" not in cfg:
        values["seed"] = _env_seed()
    rc = RunConfig(**values)
    if rc.schedule not in ("constant", "cosine"):
        raise ConfigError(f"unknown schedule {rc.schedule!r}")
    return rc


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


def _resumed_history(out: Path, start_epoch: int,
                     validated: bool) -> tuple[list[str], tuple[float, int]]:
    """The ``metrics.jsonl`` rows in ``out`` of epochs before
    ``start_epoch``, verbatim, and the best (score, epoch) among those
    epochs, scored from their ``val`` rows as the training loop scores
    them.  An unterminated last line was cut by an interrupted write;
    its epoch's checkpoint is saved only after its rows, so the line is
    from an epoch at or after any checkpoint and is dropped."""
    lines, by_epoch, best = [], {}, (float("-inf"), -1)
    path = out / "metrics.jsonl"
    if not path.exists():
        return lines, best
    try:
        with open(path, "r", encoding="utf-8") as fh:
            complete = fh.read().split("\n")[:-1]
        for line in complete:
            row = json.loads(line)
            if row["epoch"] < start_epoch:
                lines.append(line)
                mets = by_epoch.setdefault(row["epoch"], {})
                if row["split"] == "val":
                    mets.setdefault(row["task"], {})[row["metric"]] = float(row["value"])
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise DataError(f"cannot resume the history in {path}: {exc!r}") from exc
    for epoch in sorted(by_epoch):
        score = _val_score(by_epoch[epoch]) if validated else float(epoch)
        if score > best[0]:
            best = (score, epoch)
    return lines, best


def _restore_best(out: Path, best: tuple[float, int], mcfg, extra: dict) -> None:
    """Make ``best.bin`` hold the carried best epoch, from its epoch
    checkpoint, when it holds another: a later epoch of a longer run
    resumed from an earlier checkpoint, or a save cut between its two
    renames."""
    score, epoch = best
    try:
        with open(out / "best.bin.json", "r", encoding="utf-8") as fh:
            current = json.load(fh).get("epoch")
    except (OSError, ValueError, AttributeError):
        current = None
    if current == epoch and (out / "best.bin").exists():
        return
    store, _, _ = load_model(out / f"ckpt_epoch{epoch:04d}.bin", expect=mcfg)
    save_model(out / "best.bin", store, mcfg,
               extra={"epoch": epoch, **extra, "val_score": score})
    log.info("best.bin restored to epoch %d", epoch)


def cmd_train(args) -> int:
    rc = _run_config(args)
    gcfg = GraphConfig(geometry=rc.geometry, spatial_rule=rc.spatial_rule,
                       radius=rc.radius, k=rc.k)
    records, labels_by_id, dims = _load_corpus(rc.records, rc.labels)
    mcfg = HeMeNetConfig(L=rc.L, d=rc.d, heads=rc.heads, readout=rc.readout,
                         relations=rc.relations, norm=rc.norm, act=rc.act,
                         task_dims=dims, dtype=rc.dtype)
    tasks = _task_list(rc.tasks)
    # eval rebuilds its graphs from these, so every checkpoint records them
    extra = {"seed": rc.seed, **asdict(gcfg)}
    if rc.schedule == "cosine":  # its rates depend on the run's epoch count
        extra["epochs"] = rc.epochs
    start_epoch = 0
    if rc.resume:
        store, _, sidecar = load_model(rc.resume, expect=mcfg)
        if sidecar.get("epochs") != extra.get("epochs"):
            raise ConfigError(
                f"cannot resume {rc.resume} with --schedule {rc.schedule} --epochs {rc.epochs}: "
                f"it was written with cosine epochs {sidecar.get('epochs')} (None: constant "
                "schedule), so the learning rates would differ from an uninterrupted run")
        start_epoch = int(sidecar.get("epoch", -1)) + 1
    else:
        store = init_params(mcfg, seed=rc.seed)

    out = Path(rc.out)
    out.mkdir(parents=True, exist_ok=True)
    run_meta = dict(sorted(asdict(rc).items()))
    run_meta["task_dims"] = dict(sorted(dims.items()))
    run_meta["version"] = __version__
    run_meta["best_val_rule"] = BEST_VAL_RULE
    with open(out / "run.json", "w", encoding="utf-8") as fh:
        json.dump(run_meta, fh, indent=1, sort_keys=True)
        fh.write("\n")

    train_ids = _split_ids(rc.splits, "train", labels_by_id)
    val_ids = _split_ids(rc.splits, "val", labels_by_id)
    if not train_ids:
        raise DataError("train split is empty")
    train_data = _build_data(records, labels_by_id, train_ids, gcfg, mcfg.np_dtype, rc.workers)
    val_data = _build_data(records, labels_by_id, val_ids, gcfg, mcfg.np_dtype, rc.workers)

    lines, best = [], (float("-inf"), -1)
    if rc.resume:
        # history is kept only in place: best.bin must live beside the rows
        if Path(rc.resume).parent.resolve() == out.resolve():
            lines, best = _resumed_history(out, start_epoch, bool(val_data))
            if best[1] >= 0:
                _restore_best(out, best, mcfg, extra)
        log.info("resumed from %s at epoch %d", rc.resume, start_epoch)
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
                report = _eval_parallel(store, mcfg, val_data, tasks, rc.workers)
                rows.extend(metric_lines(epoch, "val", report))
                score = _val_score(report.metrics)
            else:
                score = float(epoch)  # no validation: latest epoch wins
            if score > best[0]:
                best = (score, epoch)
                save_model(out / "best.bin", store, mcfg,
                           extra={"epoch": epoch, **extra, "val_score": score})
            metrics.write("".join(row + "\n" for row in rows))
            metrics.flush()
            save_model(out / f"ckpt_epoch{epoch:04d}.bin", store, mcfg,
                       extra={"epoch": epoch, **extra})

    final = _eval_parallel(store, mcfg, val_data or train_data, tasks, rc.workers)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        fh.write(final.to_json())
        fh.write("\n")
    print(f"trained {rc.epochs - start_epoch} epochs; best epoch {best[1]} -> {out}")
    return EXIT_OK


def _eval_parallel(store, mcfg, data, tasks, workers: int):
    if workers <= 1 or len(data) <= 1:
        return evaluate(store, mcfg, data, tasks)
    shards = _chunks(data, workers)
    fn = partial(score_samples, store, mcfg, tasks=tasks)
    scored = _parallel_map(lambda shard: fn(shard), shards, workers)
    return metrics_from_scores(merge_scores(scored))


# -- eval ----------------------------------------------------------------------


def cmd_eval(args) -> int:
    cfg = _file_cfg(args)
    workers = int(_opt(args, cfg, "workers", 1))
    split = _opt(args, cfg, "split", "test")
    tasks = _task_list(_opt(args, cfg, "tasks", ",".join(TASKS)))
    store, mcfg, sidecar = load_model(args.checkpoint)
    records, labels_by_id, dims = _load_corpus(args.records, args.labels)
    if dict(sorted(dims.items())) != dict(sorted(mcfg.task_dims.items())):
        raise ConfigError(f"label dims {dims} do not match checkpoint {mcfg.task_dims}")
    # graphs as in training; sidecars that do not record them get the defaults
    gcfg = GraphConfig(**{f.name: sidecar[f.name] for f in fields(GraphConfig)
                          if f.name in sidecar})
    ids = _split_ids(args.splits, split, labels_by_id)
    if not ids:
        log.warning("split %r is empty; writing empty report", split)
        report_json = json.dumps({"metrics": {}, "counts": {}}, sort_keys=True, indent=1)
    else:
        data = _build_data(records, labels_by_id, ids, gcfg, mcfg.np_dtype, workers)
        report_json = _eval_parallel(store, mcfg, data, tasks, workers).to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report_json)
            fh.write("\n")
    print(report_json)
    return EXIT_OK


# -- ablate --------------------------------------------------------------------

ABLATION_AXES = {
    "readout": ("task_aware", "sum", "weighted_prompt"),
    "relations": ("hetero", "homogeneous"),
    "geometry": ("full_atom", "calpha"),
}


def cmd_ablate(args) -> int:
    base_cfg = _file_cfg(args)
    if not base_cfg:
        raise ConfigError("ablate requires --config with a full train configuration")
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    axes = args.axes.split(",") if args.axes else list(ABLATION_AXES)
    bad = [a for a in axes if a not in ABLATION_AXES]
    if bad:
        raise ConfigError(f"unknown ablation axes {bad}")
    summary = {}
    for axis in axes:
        for value in ABLATION_AXES[axis]:
            name = f"{axis}={value}"
            variant = dict(base_cfg)
            variant[axis] = value
            variant["out"] = str(out_root / name)
            ns = argparse.Namespace(config=None, **{k: None for k in _TRAIN_KEYS})
            for key, val in variant.items():
                setattr(ns, key, val)
            code = cmd_train(ns)
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
    cfg = _file_cfg(args)
    trials = int(_opt(args, cfg, "trials", 100))
    seed = _opt(args, cfg, "seed", None)
    seed = _env_seed() if seed is None else int(seed)
    dtype = _opt(args, cfg, "dtype", "float64")
    tol = _opt(args, cfg, "tol", None)
    store = mcfg = None
    if args.checkpoint:
        store, mcfg, _ = load_model(args.checkpoint)
        dtype = mcfg.dtype
    reports = run_all(trials=trials, seed=seed, dtype=dtype,
                      tol=None if tol is None else float(tol),
                      cfg=mcfg, store=store, leak=args.leak)
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


def _add_config(p):
    p.add_argument("--config", help="JSON file of settings; flags override it")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hemenet",
                                description="heterogeneous equivariant multi-task "
                                            "network pipeline")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="convert PDB-format files to canonical records")
    sp.add_argument("paths", nargs="+")
    sp.add_argument("--out", required=True)
    sp.add_argument("--max-atoms", dest="max_atoms", type=int)
    _add_config(sp)
    sp.set_defaults(fn=cmd_ingest)

    sp = sub.add_parser("annotate", help="attach property/affinity labels to records")
    sp.add_argument("--records", required=True)
    sp.add_argument("--annotations", nargs="+", default=[],
                    help="TSV files: uniprot_id<TAB>task<TAB>index")
    sp.add_argument("--affinities", help="TSV: complex_id<TAB>lba|ppa<TAB>pK")
    sp.add_argument("--base", help="existing labels to merge over")
    sp.add_argument("--dims", help="override label dims, e.g. ec=8,mf=8,bp=8,cc=8")
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
    sp.add_argument("--n", type=int)
    sp.add_argument("--max-residues", dest="max_residues", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--dims")
    sp.add_argument("--extra-rate", dest="extra_rate", type=float)
    sp.add_argument("--clusters", type=int)
    _add_config(sp)
    sp.set_defaults(fn=cmd_gen_synthetic)

    sp = sub.add_parser("train", help="train a model; writes checkpoints and metrics")
    sp.add_argument("--records")
    sp.add_argument("--labels")
    sp.add_argument("--splits")
    sp.add_argument("--out")
    sp.add_argument("--L", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--heads", type=int)
    sp.add_argument("--readout", choices=("task_aware", "sum", "weighted_prompt"))
    sp.add_argument("--relations", choices=("hetero", "homogeneous"))
    sp.add_argument("--norm", choices=("batch", "layer"))
    sp.add_argument("--act", choices=("silu", "relu"))
    sp.add_argument("--dtype", choices=("float32", "float64"))
    sp.add_argument("--geometry", choices=("full_atom", "calpha"))
    sp.add_argument("--spatial-rule", dest="spatial_rule", choices=("radius", "knn"))
    sp.add_argument("--radius", type=float)
    sp.add_argument("--k", type=int)
    sp.add_argument("--tasks", help="comma-separated subset of " + ",".join(TASKS))
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--batch-size", dest="batch_size", type=int)
    sp.add_argument("--lr", type=float)
    sp.add_argument("--schedule", choices=("constant", "cosine"))
    sp.add_argument("--clip", type=float)
    sp.add_argument("--lam", type=float)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--workers", type=int)
    sp.add_argument("--resume", help="checkpoint to continue from")
    _add_config(sp)
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("eval", help="score a checkpoint on a split")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--records", required=True)
    sp.add_argument("--labels", required=True)
    sp.add_argument("--splits", required=True)
    sp.add_argument("--split", choices=("train", "val", "test", "all"))
    sp.add_argument("--tasks")
    sp.add_argument("--workers", type=int)
    sp.add_argument("--out")
    _add_config(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("ablate", help="sweep readout/relations/geometry variants")
    sp.add_argument("--out", required=True)
    sp.add_argument("--axes", help="subset of readout,relations,geometry")
    _add_config(sp)
    sp.set_defaults(fn=cmd_ablate)

    sp = sub.add_parser("check-equivariance", help="run the symmetry test suites")
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--dtype", choices=("float32", "float64"))
    sp.add_argument("--tol", type=float)
    sp.add_argument("--checkpoint")
    sp.add_argument("--leak", action="store_true", help=argparse.SUPPRESS)
    _add_config(sp)
    sp.set_defaults(fn=cmd_check_equivariance)

    sp = sub.add_parser("prompt-corr", help="export task-query correlation matrix")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--out")
    _add_config(sp)
    sp.set_defaults(fn=cmd_prompt_corr)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
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
