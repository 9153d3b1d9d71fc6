"""Ingest end to end: canonical JSON to record to graph to packed arrays,
pinned to one digest, and kept free of per-atom Python objects."""

import dataclasses
import hashlib
import json

import numpy as np

from hemenet import structio
from hemenet.datasets import SyntheticConfig, generate_synthetic
from hemenet.graph import GraphConfig, RelationKind, build_graph
from hemenet.model import pack_graph
from hemenet.structio import parse_canonical_json, write_canonical_json

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


def test_ingest_makes_no_atom_or_residue_objects(monkeypatch):
    # a chain of about 3k heavy atoms and four ligand atoms: parsing and
    # building the graph read arrays only
    rec = generate_synthetic(SyntheticConfig(n_samples=2, max_residues=400, seed=2))[0][0]
    text = write_canonical_json(rec)
    made = []
    for cls in (structio.Atom, structio.Residue):
        init = cls.__init__

        def counted(self, *args, _init=init, **kwargs):
            made.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    back = parse_canonical_json(text)
    for cfg in PINNED_CONFIGS:
        build_graph(back, cfg)
    assert made == []
    assert back.heavy_atom_count() > 2500 and len(back.ligand_atoms) == 4
    # the counter does count: reading views makes the objects
    assert len(back.ligand_atoms[1:3]) == 2 and made == ["Atom", "Atom"]


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
    # makes an Atom or Residue, packs objects or walks values one by one
    rec = generate_synthetic(SyntheticConfig(n_samples=2, max_residues=400, seed=2))[0][0]
    texts = [write_canonical_json(rounded_to_three_decimals(rec)),
             write_canonical_json(dataclasses.replace(rec, ligand_atoms=()))]
    whole = [v for ch in json.loads(texts[0])["chains"] for r in ch["residues"]
             for a in r["atoms"] for v in a["xyz"] if type(v) is int]
    assert len(whole) >= 3 and '"ligand_atoms": []' in texts[1]
    made = []

    def counting(name, call):
        def counted(*args, **kwargs):
            made.append(name)
            return call(*args, **kwargs)
        return counted
    for cls in (structio.Atom, structio.Residue):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    for cls in (structio.AtomArrays, structio.ResidueArrays):
        monkeypatch.setattr(cls, "pack", classmethod(counting(f"{cls.__name__}.pack",
                                                              cls.pack.__func__)))
    monkeypatch.setattr(structio, "_raise_first_problem",
                        counting("walk", structio._raise_first_problem))
    backs = [parse_canonical_json(text) for text in texts]
    assert made == []
    assert [write_canonical_json(back) for back in backs] == texts
    assert len(backs[1].ligand_atoms) == 0
    # the counters do count: a hand-built ligand packs and makes its atoms
    dataclasses.replace(backs[1], ligand_atoms=(structio.Atom("", "C", (0.0, 0.0, 0.0)),))
    assert made == ["Atom", "AtomArrays.pack"]
