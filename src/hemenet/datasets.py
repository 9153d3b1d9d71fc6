"""Dataset assembly: merging per-chain property annotations into samples,
split assignment with cluster-leakage control, and synthetic desk-scale
corpus generation.

Tasks: two complex-level affinity regressions (lba, ppa, pK units) and
four chain-level multi-label classifications (ec, mf, bp, cc).  A
sample is fully labeled when it carries exactly one affinity and all
four property bitvectors on every chain.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .structio import (
    RESIDUE_ATOM_ORDER,
    AtomArrays,
    Chain,
    ComplexRecord,
    ligand_arrays,
    residue_arrays,
)

AFFINITY_TASKS = ("lba", "ppa")
PROPERTY_TASKS = ("ec", "mf", "bp", "cc")
TASKS = AFFINITY_TASKS + PROPERTY_TASKS
PAPER_TASK_DIMS = {"ec": 538, "mf": 490, "bp": 1944, "cc": 321}

# fully-labeled split proportions (train/val/test)
SPLIT_FRACTIONS = (328 / 1327, 530 / 1327, 469 / 1327)


@dataclass
class SampleLabels:
    lba: float | None = None
    ppa: float | None = None
    chain_props: dict[str, dict[str, np.ndarray | None]] = field(default_factory=dict)

    def validate(self, dims: dict[str, int]) -> None:
        if self.lba is not None and self.ppa is not None:
            raise DataError("sample carries both affinity labels")
        for task in AFFINITY_TASKS:
            value = getattr(self, task)
            if value is not None and (isinstance(value, bool) or not (
                    isinstance(value, numbers.Real) and math.isfinite(value))):
                raise DataError(f"{task} label {value!r} is not a finite number")
        for cid, props in self.chain_props.items():
            for task, vec in props.items():
                if task not in PROPERTY_TASKS:
                    raise DataError(f"chain {cid}: unknown property task {task!r}")
                if vec is not None and len(vec) != dims[task]:
                    raise DataError(
                        f"chain {cid}: {task} vector length {len(vec)} != {dims[task]}")

    def props_for(self, chain_id: str) -> dict[str, np.ndarray | None]:
        got = self.chain_props.get(chain_id, {})
        return {t: got.get(t) for t in PROPERTY_TASKS}


def is_fully_labeled(labels: SampleLabels, chain_ids) -> bool:
    """Exactly one affinity present and all four property vectors on
    every listed chain."""
    n_affinity = (labels.lba is not None) + (labels.ppa is not None)
    if n_affinity != 1:
        return False
    for cid in chain_ids:
        props = labels.props_for(cid)
        if any(props[t] is None for t in PROPERTY_TASKS):
            return False
    return True


# -- annotation table ---------------------------------------------------------


@dataclass
class UniProtPropertyTable:
    dims: dict[str, int] = field(default_factory=lambda: dict(PAPER_TASK_DIMS))
    rows: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)

    def set_bit(self, uniprot_id: str, task: str, index: int) -> None:
        if task not in PROPERTY_TASKS:
            raise DataError(f"unknown task {task!r}")
        if not 0 <= index < self.dims[task]:
            raise DataError(
                f"{task} index {index} out of range (valid 0..{self.dims[task] - 1})")
        entry = self.rows.setdefault(uniprot_id, {})
        if task not in entry:
            entry[task] = np.zeros(self.dims[task], dtype=np.uint8)
        entry[task][index] = 1

    def get(self, uniprot_id: str | None) -> dict[str, np.ndarray]:
        if uniprot_id is None:
            return {}
        return self.rows.get(uniprot_id, {})


def _iter_source_lines(src):
    """Lines of the file at ``src`` (a ``str`` or ``PathLike`` path), or
    of ``src`` itself when it is any other iterable of lines."""
    if isinstance(src, (str, os.PathLike)):
        with open(src, "r", encoding="utf-8") as fh:
            yield from fh.read().splitlines()
    else:
        yield from src


def build_uniprot_table(*sources, dims: dict[str, int] | None = None) -> UniProtPropertyTable:
    """Fold annotation TSVs (uniprot_id \\t task \\t index) into one
    table.  Duplicate rows are OR-ed; bad indices error with their row
    number."""
    table = UniProtPropertyTable(dims=dict(dims or PAPER_TASK_DIMS))
    for src in sources:
        for rowno, line in enumerate(_iter_source_lines(src), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"row {rowno}: expected 3 tab-separated fields, got {len(parts)}")
            uid, task, idx_raw = parts
            try:
                idx = int(idx_raw)
            except ValueError:
                raise DataError(f"row {rowno}: bad index {idx_raw!r}") from None
            try:
                table.set_bit(uid, task, idx)
            except DataError as exc:
                raise DataError(f"row {rowno}: {exc}") from None
    return table


def annotate_complex(rec: ComplexRecord, table: UniProtPropertyTable,
                     base: SampleLabels | None = None) -> SampleLabels:
    """Attach every table bitvector available for each chain's UniProt
    id.  Existing labels in ``base`` are kept and OR-merged; chains
    with unknown ids receive nothing.  Monotone in the table."""
    out = SampleLabels(
        lba=base.lba if base else None,
        ppa=base.ppa if base else None,
        chain_props={cid: {t: (None if v is None else v.copy()) for t, v in props.items()}
                     for cid, props in (base.chain_props if base else {}).items()},
    )
    for chain in rec.chains:
        found = table.get(chain.uniprot_id)
        if not found:
            continue
        entry = out.chain_props.setdefault(chain.chain_id, {})
        for task, vec in found.items():
            prev = entry.get(task)
            entry[task] = vec.copy() if prev is None else (prev | vec)
    out.validate(table.dims)
    return out


# -- split assembly -----------------------------------------------------------


def chain_key(complex_id: str, chain_id: str) -> str:
    return f"{complex_id}:{chain_id}"


@dataclass
class SplitAssignment:
    assignment: dict[str, str]  # complex_id -> train|val|test
    cluster_of: dict[str, str]  # chain_key -> merged cluster id
    dropped: tuple[str, ...] = ()  # partial samples excluded by the leakage rule


class _UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic root choice
            lo, hi = sorted((ra, rb))
            self.parent[hi] = lo


def read_cluster_map(src) -> dict[str, str]:
    """Cluster TSV: chain_key \\t cluster_id."""
    out: dict[str, str] = {}
    for rowno, line in enumerate(_iter_source_lines(src), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"row {rowno}: expected 2 tab-separated fields")
        out[parts[0]] = parts[1]
    return out


def assemble_splits(samples, clusters, seed: int,
                    fractions: tuple[float, float, float] = SPLIT_FRACTIONS) -> SplitAssignment:
    """Assign complexes to train/val/test.

    ``samples``: list of (ComplexRecord, SampleLabels).  ``clusters``:
    mapping chain_key -> cluster id, or a TSV source.  Fully-labeled
    samples are split at random by ``fractions``; partially labeled
    samples join train only when none of their chains share a (merged)
    cluster with any test complex.  Clusters co-occurring within one
    complex are merged transitively.
    """
    if not isinstance(clusters, dict):
        clusters = read_cluster_map(clusters)
    missing = []
    for rec, _ in samples:
        for ch in rec.chains:
            if chain_key(rec.complex_id, ch.chain_id) not in clusters:
                missing.append(chain_key(rec.complex_id, ch.chain_id))
    if missing:
        raise DataError(f"chains missing from cluster map: {sorted(missing)}")

    uf = _UnionFind()
    for rec, _ in samples:
        keys = [chain_key(rec.complex_id, ch.chain_id) for ch in rec.chains]
        for k in keys:
            uf.find(clusters[k])
        for a, b in zip(keys, keys[1:]):
            uf.union(clusters[a], clusters[b])
    cluster_of = {}
    for rec, _ in samples:
        for ch in rec.chains:
            k = chain_key(rec.complex_id, ch.chain_id)
            cluster_of[k] = uf.find(clusters[k])

    full = [rec.complex_id for rec, labels in samples
            if is_fully_labeled(labels, [c.chain_id for c in rec.chains])]
    fully = set(full)
    partial = [rec.complex_id for rec, _ in samples if rec.complex_id not in fully]
    by_id = {rec.complex_id: rec for rec, _ in samples}

    rng = np.random.default_rng(seed)
    order = [full[i] for i in rng.permutation(len(full))]
    f_train, f_val, _ = fractions
    n = len(order)
    n_train = int(round(f_train * n))
    n_val = int(round((f_train + f_val) * n)) - n_train
    assignment = {}
    for cid in order[:n_train]:
        assignment[cid] = "train"
    for cid in order[n_train:n_train + n_val]:
        assignment[cid] = "val"
    for cid in order[n_train + n_val:]:
        assignment[cid] = "test"

    test_clusters = {
        cluster_of[chain_key(cid, ch.chain_id)]
        for cid, split in assignment.items() if split == "test"
        for ch in by_id[cid].chains
    }
    dropped = []
    for cid in partial:
        own = {cluster_of[chain_key(cid, ch.chain_id)] for ch in by_id[cid].chains}
        if own & test_clusters:
            dropped.append(cid)
        else:
            assignment[cid] = "train"
    return SplitAssignment(assignment=assignment, cluster_of=cluster_of,
                           dropped=tuple(sorted(dropped)))


# -- labels serialization -----------------------------------------------------


def labels_to_obj(labels: SampleLabels) -> dict:
    chains = {}
    for cid in sorted(labels.chain_props):
        props = labels.chain_props[cid]
        chains[cid] = {
            t: (None if props.get(t) is None
                else [int(i) for i in np.flatnonzero(props[t])])
            for t in PROPERTY_TASKS
        }
    return {"lba": labels.lba, "ppa": labels.ppa, "chains": chains}


def labels_from_obj(obj: dict, dims: dict[str, int]) -> SampleLabels:
    chain_props = {}
    for cid, props in obj.get("chains", {}).items():
        entry = {}
        for t in PROPERTY_TASKS:
            bits = props.get(t)
            if bits is None:
                entry[t] = None
            else:
                vec = np.zeros(dims[t], dtype=np.uint8)
                for i in bits:
                    if type(i) is not int:  # JSON integers only: no true, no 1.0
                        raise DataError(f"chain {cid}: {t} index {i!r} is not an integer")
                    if not 0 <= i < dims[t]:
                        raise DataError(f"chain {cid}: {t} index {i} out of range")
                    vec[i] = 1
                entry[t] = vec
        chain_props[cid] = entry
    labels = SampleLabels(lba=obj.get("lba"), ppa=obj.get("ppa"), chain_props=chain_props)
    labels.validate(dims)
    return labels


def save_labels(path, labels_by_id: dict[str, SampleLabels], dims: dict[str, int]) -> None:
    obj = {
        "dims": {t: dims[t] for t in PROPERTY_TASKS},
        "labels": {cid: labels_to_obj(labels_by_id[cid]) for cid in sorted(labels_by_id)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_labels(path) -> tuple[dict[str, SampleLabels], dict[str, int]]:
    """Labels and property dims as ``save_labels`` writes them.  Any
    other layout, or a label of the wrong type, is a DataError naming
    the file."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        dims = {t: obj["dims"][t] for t in PROPERTY_TASKS}
        for t, dim in dims.items():
            if type(dim) is not int or dim < 1:
                raise ValueError(f"{t} dim {dim!r} is not an integer >= 1")
        out = {cid: labels_from_obj(entry, dims) for cid, entry in obj["labels"].items()}
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DataError(f"{path}: malformed labels file: {exc!r}") from None
    return out, dims


# -- synthetic corpus ---------------------------------------------------------


@dataclass(frozen=True)
class SyntheticConfig:
    n_samples: int = 8
    max_residues: int = 6
    seed: int = 0
    dims: dict[str, int] = field(default_factory=lambda: {"ec": 8, "mf": 8, "bp": 8, "cc": 8})
    extra_property_rate: float = 0.5

    def validate(self):
        if self.n_samples < 1 or self.max_residues < 1:
            raise ConfigError(f"n_samples and max_residues must be >= 1, got "
                              f"{self.n_samples} and {self.max_residues}")
        if not 0 <= self.extra_property_rate <= 1:  # or NaN
            raise ConfigError(f"extra_property_rate must be in [0, 1], "
                              f"got {self.extra_property_rate}")


_RESIDUE_NAMES = tuple(sorted(RESIDUE_ATOM_ORDER))
_LIGAND_ELEMENTS = ("C", "N", "O", "S", "P", "F", "Cl")


def _atom_element(atom_name: str) -> str:
    for sym in ("Cl", "Br", "Se"):
        if atom_name.startswith(sym.upper()):
            return sym
    return atom_name[0]


def _synthetic_chain(rng, chain_id: str, uid: str, n_residues: int, origin) -> Chain:
    types, counts, names, xyz = [], [], [], []
    center = np.asarray(origin, dtype=float)
    for _ in range(n_residues):
        rname = _RESIDUE_NAMES[rng.integers(len(_RESIDUE_NAMES))]
        atom_names = RESIDUE_ATOM_ORDER[rname]
        types.append(rname)
        counts.append(len(atom_names))
        names += atom_names
        xyz += (center + rng.normal(scale=0.7, size=(len(atom_names), 3))).tolist()
        step = rng.normal(size=3)
        center = center + 3.8 * step / np.linalg.norm(step)
    return Chain(chain_id, uid, residue_arrays(types, counts, names,
                                               list(map(_atom_element, names)), xyz,
                                               f"chain {chain_id!r}: residues"))


def _random_ligand(rng, n: int, elements, anchor, scale: float) -> AtomArrays:
    """``n`` ligand atoms, each of an element drawn from ``elements`` and
    placed ``anchor`` plus normal noise of ``scale`` Angstrom."""
    drawn = [(elements[rng.integers(len(elements))], anchor + rng.normal(scale=scale, size=3))
             for _ in range(n)]
    return ligand_arrays([e for e, _ in drawn], [xyz.tolist() for _, xyz in drawn])


def _random_bits(rng, dim: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=np.uint8)
    k = int(rng.integers(1, max(2, dim // 2 + 1)))
    idx = rng.choice(dim, size=min(k, dim), replace=False)
    vec[idx] = 1
    return vec


def generate_synthetic(config: SyntheticConfig = SyntheticConfig()):
    """Random but structurally valid complexes with labels covering
    every task.  Deterministic in the seed."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    out = []
    for i in range(config.n_samples):
        anchor = TASKS[i % len(TASKS)]
        complex_id = f"syn{i:04d}"
        with_lba = anchor == "lba" or (anchor in PROPERTY_TASKS and rng.random() < 0.5)
        n_chains = 2 if anchor == "ppa" else 1
        chains = []
        for c in range(n_chains):
            cid = chr(ord("A") + c)
            uid = f"SYN{i:04d}{cid}"
            n_res = int(rng.integers(1, config.max_residues + 1))
            origin = rng.normal(scale=5.0, size=3) + np.array([30.0 * c, 0.0, 0.0])
            chains.append(_synthetic_chain(rng, cid, uid, n_res, origin))
        ligand = ligand_arrays([], [])
        if with_lba:
            ligand = _random_ligand(rng, int(rng.integers(3, 9)), _LIGAND_ELEMENTS,
                                    chains[0].residues.atoms.xyz[0], 2.5)
        partition = {}
        for c, ch in enumerate(chains):
            if anchor == "ppa" and c == n_chains - 1:
                partition[ch.chain_id] = "ligand_side"
            else:
                partition[ch.chain_id] = "receptor"
        rec = ComplexRecord(complex_id, tuple(chains), ligand, partition)

        labels = SampleLabels()
        if with_lba:
            labels.lba = float(np.clip(rng.normal(6.0, 1.5), 0.1, 15.9))
        elif anchor == "ppa":
            labels.ppa = float(np.clip(rng.normal(6.0, 1.5), 0.1, 15.9))
        for ch in chains:
            entry = {}
            for task in PROPERTY_TASKS:
                wanted = task == anchor or rng.random() < config.extra_property_rate
                entry[task] = _random_bits(rng, config.dims[task]) if wanted else None
            labels.chain_props[ch.chain_id] = entry
        labels.validate(config.dims)
        out.append((rec, labels))
    return out


def synthetic_cluster_map(samples, n_clusters: int, seed: int) -> dict[str, str]:
    """Random cluster assignment over all chains, for split testing."""
    if n_clusters < 1:
        raise ConfigError(f"n_clusters must be >= 1, got {n_clusters}")
    rng = np.random.default_rng(seed)
    out = {}
    for rec, _ in samples:
        for ch in rec.chains:
            out[chain_key(rec.complex_id, ch.chain_id)] = f"clu{rng.integers(n_clusters):03d}"
    return out
