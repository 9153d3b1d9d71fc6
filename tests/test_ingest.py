"""Ingest end to end: canonical JSON to record to graph to packed arrays,
pinned to one digest, and kept free of per-atom Python objects."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from hemenet import structio, verify
from hemenet.cli import main
from hemenet.datasets import SyntheticConfig, generate_synthetic
from hemenet.errors import SchemaError
from hemenet.graph import GraphConfig, RelationKind, build_graph
from hemenet.model import pack_graph
from hemenet.structio import parse_canonical_json, parse_pdb_subset, write_canonical_json

PINNED_CONFIGS = (GraphConfig(radius=4.5), GraphConfig(geometry="calpha", radius=6.0),
                  GraphConfig(spatial_rule="knn", k=10))
PACKED_ARRAYS = ("X0", "mask", "type_idx", "elem_idx", "src", "dst", "kind", "pool",
                 "dst_channels", "deg")


def ingest_digest(seeds=(5, 11)) -> str:
    """SHA-256 over, for each synthetic complex: write∘parse of its canonical
    JSON, and under each pinned setting every relation's edges and every
    packed array (with its dtype and shape) in float32 and float64."""
    h = hashlib.sha256()
    for seed in seeds:
        for rec, _ in generate_synthetic(SyntheticConfig(n_samples=16, max_residues=80,
                                                         seed=seed)):
            back = parse_canonical_json(write_canonical_json(rec))
            h.update(write_canonical_json(back).encode())
            for cfg in PINNED_CONFIGS:
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


def test_ingest_is_pinned_to_its_digest():
    # computed before records held arrays: the record layer, the graph
    # fill and the radius search changed without changing a byte
    assert ingest_digest() == "5493a265fe28ff1893ccd2a77bff782dfcf13ae843783956a4c9ab447fc258f4"


def counting(made, name, call):
    """``call``, appending ``name`` to ``made`` on each call."""
    def counted(*args, **kwargs):
        made.append(name)
        return call(*args, **kwargs)
    return counted


def count_objects(monkeypatch) -> list:
    """The names of the Atom and Residue objects made from now on, in order."""
    made = []
    for cls in (structio.Atom, structio.Residue):
        monkeypatch.setattr(cls, "__init__", counting(made, cls.__name__, cls.__init__))
    return made


def pdb_text(rec) -> str:
    """``rec``'s chains as fixed-column ATOM records, its ligand as HETATM."""
    lines = []
    for ch in rec.chains:
        res = ch.residues
        seqs = np.repeat(np.arange(1, len(res) + 1), res.counts)
        types = np.repeat(res.types, res.counts)
        for name, e, (x, y, z), seq, t in zip(res.atoms.names, res.atoms.elements, res.atoms.xyz,
                                               seqs, types):
            lines.append(f"ATOM  {len(lines) + 1:5d} {name:<4s} "
                         f"{structio.RESIDUE_TYPES[t]:<3s} {ch.chain_id}{seq:4d}    "
                         f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00{'':16s}{structio.ELEMENTS[e]:>2s}")
    for k, (e, (x, y, z)) in enumerate(zip(rec.ligand_atoms.elements, rec.ligand_atoms.xyz)):
        lines.append(f"HETATM{len(lines) + 1:5d} X{k:<3d} LIG Z   1    "
                     f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00{'':16s}{structio.ELEMENTS[e]:>2s}")
    return "\n".join(lines) + "\n"


def test_ingest_makes_no_atom_or_residue_objects(monkeypatch):
    # a chain of about 3k heavy atoms and four ligand atoms: reading it from
    # canonical JSON or PDB, drawing synthetic records and verify's random
    # complexes, and building the graph fill and read arrays only
    rec = generate_synthetic(SyntheticConfig(n_samples=2, max_residues=400, seed=2))[0][0]
    text, pdb = write_canonical_json(rec), pdb_text(rec)
    made = count_objects(monkeypatch)
    back = parse_canonical_json(text)
    for cfg in PINNED_CONFIGS:
        build_graph(back, cfg)
    from_pdb = parse_pdb_subset(pdb)
    drawn = generate_synthetic(SyntheticConfig(n_samples=12, max_residues=40, seed=3))
    rng = np.random.default_rng(0)
    small = [verify.random_complex(rng, 12) for _ in range(5)]
    assert made == []
    assert back.heavy_atom_count() > 2500 and len(back.ligand_atoms) == 4
    assert from_pdb.heavy_atom_count() == back.heavy_atom_count()
    assert len(drawn) == 12 and all(len(r.ligand_atoms) >= 2 for r in small)
    # the counter does count: the one view makes its objects
    back.chains[0].residues[1]
    assert made == ["Atom"] * back.chains[0].residues.counts[1] + ["Residue"]


def test_cli_run_makes_no_atom_or_residue_objects(monkeypatch, tmp_path):
    # gen-synthetic -> split -> train -> eval reads records only as arrays:
    # the one view ResidueArrays keeps is the benchmark generator's alone
    made = count_objects(monkeypatch)
    data, splits, run = tmp_path / "data", tmp_path / "splits.json", tmp_path / "run"
    corpus = ["--records", str(data / "records.ndjson"), "--labels", str(data / "labels.json")]
    assert main(["gen-synthetic", "--out", str(data), "--n", "10", "--seed", "7"]) == 0
    assert main(["split", *corpus, "--clusters", str(data / "clusters.tsv"), "--seed", "0",
                 "--out", str(splits)]) == 0
    assert main(["train", *corpus, "--splits", str(splits), "--out", str(run), "--L", "2",
                 "--d", "16", "--epochs", "2", "--seed", "0"]) == 0
    assert main(["eval", "--checkpoint", str(run / "best.bin"), *corpus,
                 "--splits", str(splits), "--split", "all"]) == 0
    assert made == []


def rounded_to_three_decimals(rec):
    """``rec`` with every coordinate rounded as a PDB file writes it (8.3
    columns), so about one in a thousand is a whole number."""
    def rounded(atoms):
        return structio.AtomArrays(atoms.names, atoms.elements, np.round(atoms.xyz, 3))
    chains = tuple(structio.Chain(ch.chain_id, ch.uniprot_id, structio.ResidueArrays(
        ch.residues.types, ch.residues.counts, rounded(ch.residues.atoms))) for ch in rec.chains)
    return dataclasses.replace(rec, chains=chains, ligand_atoms=rounded(rec.ligand_atoms))


def test_whole_numbers_and_no_ligand_take_the_one_reader(monkeypatch):
    # canonical JSON writes a whole-number coordinate as a bare JSON int,
    # and a record may have no ligand atoms: both are valid, so neither
    # makes an Atom or Residue or walks values one by one
    rec = generate_synthetic(SyntheticConfig(n_samples=2, max_residues=400, seed=2))[0][0]
    no_ligand = dataclasses.replace(rec, ligand_atoms=structio.ligand_arrays([], []))
    texts = [write_canonical_json(rounded_to_three_decimals(rec)), write_canonical_json(no_ligand)]
    whole = [v for ch in json.loads(texts[0])["chains"] for r in ch["residues"]
             for a in r["atoms"] for v in a["xyz"] if type(v) is int]
    assert len(whole) >= 3 and '"ligand_atoms": []' in texts[1]
    made = count_objects(monkeypatch)
    monkeypatch.setattr(structio, "_raise_first_problem",
                        counting(made, "walk", structio._raise_first_problem))
    backs = [parse_canonical_json(text) for text in texts]
    assert made == []
    assert [write_canonical_json(back) for back in backs] == texts
    assert len(backs[1].ligand_atoms) == 0
    # the counters do count: the one view makes its objects, and a ligand the
    # schema refuses is named by the walk
    backs[1].chains[0].residues[0]
    with pytest.raises(SchemaError, match="unknown element symbol 'Qq'"):
        structio.ligand_arrays(["Qq"], [[0.0, 0.0, 0.0]])
    assert made == ["Atom"] * backs[1].chains[0].residues.counts[0] + ["Residue", "walk"]
