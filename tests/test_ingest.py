"""Ingest end to end: canonical JSON to record to graph to packed arrays,
pinned to one digest, and kept free of per-atom Python objects."""

import hashlib

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
