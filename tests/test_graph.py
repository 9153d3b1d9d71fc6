"""Graph construction: canonical node order, the six relation kinds,
spatial rules, alpha-carbon reduction, structural validation, and the
packed arrays against per-node packing read straight from the record."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from hemenet.errors import ConfigError, DataError
from hemenet.graph import (
    _SEQ_OFFSETS,
    LIGAND_TYPE,
    GraphConfig,
    HeteroGraph,
    N_RELATIONS,
    RelationKind,
    _candidates,
    _spatial_pairs,
    build_graph,
    squared_threshold,
    validate,
)
from hemenet.model import pack_graph
from hemenet.structio import ELEMENT_INDEX, ELEMENTS, MAX_CHANNELS, RESIDUE_INDEX, ComplexRecord

from conftest import make_chain, make_ligand

GLY_OFFSETS = {
    "N": (0.0, 0.0, 0.0),
    "CA": (1.4, 0.0, 0.0),
    "C": (2.0, 1.2, 0.0),
    "O": (3.1, 1.4, 0.0),
}


def gly(base, drop_ca=False):
    atoms = tuple(
        (name, "N" if name == "N" else ("O" if name == "O" else "C"),
         (base[0] + dx, base[1] + dy, base[2] + dz))
        for name, (dx, dy, dz) in GLY_OFFSETS.items()
        if not (drop_ca and name == "CA")
    )
    return ("GLY", atoms)


def chain_of(chain_id, n, spacing=10.0, y=0.0):
    return make_chain(chain_id, [gly((i * spacing, y, 0.0)) for i in range(n)])


def record(chains=(), ligand=(), partition=None):
    part = partition if partition is not None else {c.chain_id: "receptor" for c in chains}
    return ComplexRecord("test", tuple(chains), make_ligand(ligand), part)


def rows(g, kind) -> tuple:
    """One relation's edges as a tuple of (src, dst) tuples."""
    return tuple(map(tuple, g.edges[kind].tolist()))


def all_rows(g) -> dict:
    return {kind: rows(g, kind) for kind in g.edges}


def test_canonical_node_order_and_kinds():
    rec = record(
        chains=[chain_of("A", 2), chain_of("B", 3, y=50.0)],
        ligand=[("C", (100.0, 0.0, 0.0)), ("metal", (104.0, 0.0, 0.0))],
    )
    g = build_graph(rec)
    assert g.n_nodes == 7
    assert g.chain_ids == ("A", "B")
    assert g.chain.tolist() == [0, 0, 1, 1, 1, -1, -1]
    assert g.seq_pos.tolist() == [0, 1, 0, 1, 2, -1, -1]
    assert g.channels.tolist() == [4] * 5 + [1] * 2
    assert g.node_type.tolist() == [RESIDUE_INDEX["GLY"]] * 5 + [
        LIGAND_TYPE + ELEMENT_INDEX["C"], LIGAND_TYPE + ELEMENT_INDEX["metal"]]
    assert g.X.shape == (7, 3, MAX_CHANNELS) and g.elements.shape == (7, MAX_CHANNELS)
    assert set(g.edges) == set(RelationKind) and N_RELATIONS == 6
    for e in g.edges.values():
        assert e.dtype == np.int64 and e.ndim == 2 and e.shape[1] == 2
    # the per-node records bench/run.py reads
    assert [(n.index, n.channels) for n in g.nodes] == [
        (0, 4), (1, 4), (2, 4), (3, 4), (4, 4), (5, 1), (6, 1)]


def test_self_loops_on_every_node_including_ligand():
    rec = record(chains=[chain_of("A", 3)], ligand=[("C", (2.0, 2.0, 0.0))])
    g = build_graph(rec)
    assert rows(g, RelationKind.SELF_LOOP) == tuple((i, i) for i in range(4))


def test_sequence_offsets_within_chain_only():
    rec = record(chains=[chain_of("A", 4), chain_of("B", 2, y=100.0)])
    g = build_graph(rec)
    assert rows(g, RelationKind.SEQ_PLUS_1) == ((0, 1), (1, 2), (2, 3), (4, 5))
    assert rows(g, RelationKind.SEQ_MINUS_1) == ((1, 0), (2, 1), (3, 2), (5, 4))
    assert rows(g, RelationKind.SEQ_PLUS_2) == ((0, 2), (1, 3))
    assert rows(g, RelationKind.SEQ_MINUS_2) == ((2, 0), (3, 1))


def test_dropped_residue_leaves_sequence_gap():
    # a residue dropped by the alpha-carbon rule keeps its position in
    # the chain, so the flanking residues are +2 apart, not adjacent
    ca_less = gly((10.0, 0.0, 0.0), drop_ca=True)
    full = make_chain("A", [gly((0.0, 0.0, 0.0)), ca_less, gly((20.0, 0.0, 0.0))])
    g = build_graph(record(chains=[full]), GraphConfig(geometry="calpha"))
    assert g.n_nodes == 2
    assert g.seq_pos.tolist() == [0, 2]
    assert rows(g, RelationKind.SEQ_PLUS_1) == ()
    assert rows(g, RelationKind.SEQ_PLUS_2) == ((0, 1),)


def test_radius_rule_uses_minimum_interatom_distance():
    # centroids ~10 apart but one atom pair 3 apart: edge must exist
    res_a = ("GLY", (
        ("N", "N", (0.0, 0.0, 0.0)),
        ("CA", "C", (1.4, 0.0, 0.0)),
        ("C", "C", (2.0, 1.2, 0.0)),
        ("O", "O", (7.0, 0.0, 0.0)),  # reaches toward the neighbor
    ))
    res_b = gly((10.0, 0.0, 0.0))
    rec = record(chains=[make_chain("A", [res_a]), make_chain("B", [res_b])])
    g = build_graph(rec, GraphConfig(spatial_rule="radius", radius=4.5))
    spatial = set(rows(g, RelationKind.SPATIAL))
    assert (0, 1) in spatial and (1, 0) in spatial
    # centroid distance alone would have missed it
    c0 = g.X[0, :, :4].mean(axis=1)
    c1 = g.X[1, :, :4].mean(axis=1)
    assert np.linalg.norm(c0 - c1) > 4.5


def test_radius_rule_excludes_distant_pairs():
    rec = record(chains=[chain_of("A", 3, spacing=30.0)])
    g = build_graph(rec, GraphConfig(spatial_rule="radius", radius=4.5))
    assert rows(g, RelationKind.SPATIAL) == ()


def test_knn_union_symmetrization():
    lig = [("C", (0.0, 0.0, 0.0)),
           ("C", (1.0, 0.0, 0.0)),
           ("C", (2.5, 0.0, 0.0))]
    g = build_graph(record(ligand=lig), GraphConfig(spatial_rule="knn", k=1))
    spatial = set(rows(g, RelationKind.SPATIAL))
    # node 2's nearest is node 1; the union adds the reverse direction
    assert spatial == {(0, 1), (1, 0), (1, 2), (2, 1)}


def test_knn_caps_at_n_minus_1():
    lig = [("C", (float(i), 0.0, 0.0)) for i in range(3)]
    g = build_graph(record(ligand=lig), GraphConfig(spatial_rule="knn", k=10))
    spatial = set(rows(g, RelationKind.SPATIAL))
    assert spatial == {(i, j) for i in range(3) for j in range(3) if i != j}


def test_calpha_geometry_single_channel():
    rec = record(chains=[chain_of("A", 3)])
    g = build_graph(rec, GraphConfig(geometry="calpha"))
    assert g.channels.tolist() == [1, 1, 1]
    assert g.X[:, 0, 0].tolist() == [1.4, 11.4, 21.4]
    assert not g.X[:, :, 1:].any() and not g.elements[:, 1:].any()


def test_calpha_drops_ca_less_residue():
    ch = make_chain("A", [gly((0.0, 0.0, 0.0)),
                          gly((10.0, 0.0, 0.0), drop_ca=True),
                          gly((20.0, 0.0, 0.0))])
    g_full = build_graph(record(chains=[ch]), GraphConfig(geometry="full_atom"))
    g_ca = build_graph(record(chains=[ch]), GraphConfig(geometry="calpha"))
    assert g_full.n_nodes == 3
    assert g_ca.n_nodes == 2


def test_empty_graph_rejected():
    rec = ComplexRecord("x", (), make_ligand(), {})
    with pytest.raises(DataError, match="no nodes"):
        build_graph(rec)


def test_channel_mask_property():
    rec = record(chains=[chain_of("A", 1)])
    g = build_graph(rec)
    mask = pack_graph(g).mask[0]
    assert mask.shape == (14,)
    np.testing.assert_array_equal(mask[:4], 1.0)
    np.testing.assert_array_equal(mask[4:], 0.0)
    assert g.channels[0] == 4
    assert not g.X[0, :, 4:].any() and not g.elements[0, 4:].any()


def test_coordinates_are_read_only():
    g = build_graph(record(chains=[chain_of("A", 1)]))
    for arr in (g.X, g.channels, g.elements, g.node_type, g.chain, g.seq_pos,
                *g.edges.values()):
        with pytest.raises(ValueError):
            arr[0] = 99


def test_chain_masks_groups_residue_nodes():
    rec = record(chains=[chain_of("A", 2), chain_of("B", 1, y=50.0)],
                 ligand=[("C", (0.0, 5.0, 0.0))])
    scopes = pack_graph(build_graph(rec)).scopes
    assert {k: v.tolist() for k, v in scopes.items()} == {"": [0, 1, 2, 3], "A": [0, 1], "B": [2]}


def test_graph_config_validation():
    with pytest.raises(ConfigError):
        GraphConfig(geometry="coarse")
    with pytest.raises(ConfigError):
        GraphConfig(spatial_rule="delaunay")
    for radius in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError):
            GraphConfig(radius=radius)
    with pytest.raises(ConfigError):
        GraphConfig(k=0)


def test_graph_config_rejects_infinite_radius():
    # an infinite radius would join every node pair, and the exact squared
    # threshold of the radius rule exists only for a finite one
    for radius in (float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match="finite"):
            GraphConfig(radius=radius)
    GraphConfig(radius=np.finfo(np.float64).max)


def test_validate_accepts_built_graphs():
    rec = record(chains=[chain_of("A", 3, spacing=3.0)],
                 ligand=[("C", (1.0, 2.0, 0.0))])
    assert validate(build_graph(rec)) == []
    assert validate(build_graph(rec, GraphConfig(spatial_rule="knn", k=2))) == []


def test_validate_flags_violations():
    def problems(g, kind, edges):
        # hand-built tuple edges are read as arrays are
        return validate(dataclasses.replace(g, edges={**g.edges, kind: edges}))

    g = build_graph(record(chains=[chain_of("A", 2, spacing=3.0)]))
    assert validate(g) == []
    assert problems(g, RelationKind.SELF_LOOP, ((0, 0),)) == [
        "self-loop set is not exactly {(i,i) for every node}"]
    assert problems(g, RelationKind.SPATIAL, ((0, 1),)) == [
        "SPATIAL: edge (0,1) missing its reverse"]
    assert problems(g, RelationKind.SPATIAL, ((0, 0), (0, 1), (1, 0), (0, 1))) == [
        "SPATIAL: duplicate edges", "SPATIAL: self edge (0,0)"]
    assert problems(g, RelationKind.SEQ_PLUS_1, ((0, 9), (0, 9))) == [
        "SEQ_PLUS_1: duplicate edges", "SEQ_PLUS_1: edge (0,9) out of range",
        "SEQ_PLUS_1: edge (0,9) out of range"]
    # a negative index is out of range, and no alias of an in-range node
    assert problems(g, RelationKind.SEQ_MINUS_1, ((-1, 0), (1, 0), (-2, 1))) == [
        "SEQ_MINUS_1: edge (-1,0) out of range", "SEQ_MINUS_1: edge (-2,1) out of range"]
    assert problems(g, RelationKind.SPATIAL, ((0, 1), (1, -1))) == [
        "SPATIAL: edge (1,-1) out of range", "SPATIAL: edge (0,1) missing its reverse",
        "SPATIAL: edge (1,-1) missing its reverse"]
    assert problems(g, RelationKind.SEQ_PLUS_2, ((0, 1),)) == [
        "SEQ_PLUS_2: edge (0,1) has wrong sequence offset"]
    with_ligand = build_graph(record(chains=[chain_of("A", 2)],
                                     ligand=[("C", (0.0, 2.0, 0.0))]))
    assert problems(with_ligand, RelationKind.SEQ_PLUS_1, ((0, 1), (1, 2))) == [
        "SEQ_PLUS_1: edge (1,2) touches a non-residue node"]
    two_chains = build_graph(record(chains=[chain_of("A", 1), chain_of("B", 1, y=3.0)]))
    assert problems(two_chains, RelationKind.SEQ_PLUS_1, ((0, 1),)) == [
        "SEQ_PLUS_1: edge (0,1) crosses chains"]
    # padded channels must hold +0.0 coordinates and element id 0
    X, elements = g.X.copy(), g.elements.copy()
    X[0, 2, 9] = 0.5
    elements[1, 13] = 3
    assert validate(dataclasses.replace(g, X=X, elements=elements)) == [
        "node 0: padded coordinates or element ids are not 0",
        "node 1: padded coordinates or element ids are not 0"]
    X[0, 2, 9] = np.nan
    assert validate(dataclasses.replace(g, X=X)) == [
        "node 0: padded coordinates or element ids are not 0", "node 0: non-finite coordinates"]
    channels = np.array([0, 15])
    assert validate(dataclasses.replace(with_ligand, channels=np.array([4, 4, 2]))) == [
        "node 2: ligand atom with 2 channels"]
    assert validate(dataclasses.replace(g, channels=channels)) == [
        "node 0: channel count 0 out of range",
        "node 0: padded coordinates or element ids are not 0",
        "node 1: channel count 15 out of range"]


# -- equivalence with a brute-force reference ---------------------------------


def node_coords(g: HeteroGraph, i: int) -> np.ndarray:
    """Node i's real channels, (3, c)."""
    return g.X[i, :, :g.channels[i]]


def reference_edges(g: HeteroGraph) -> dict:
    """Every relation of ``g`` recomputed by brute force from its nodes:
    all node pairs for sequence offsets, every atom pair for the radius
    rule (the same float64 distance expression), and a per-node sort
    with index tie-breaks for knn."""
    cfg, n = g.config, g.n_nodes
    chain_id = [g.chain_ids[c] if c >= 0 else None for c in g.chain.tolist()]
    pos = g.seq_pos.tolist()
    edges = {k: set() for k in RelationKind}
    edges[RelationKind.SELF_LOOP] = {(i, i) for i in range(n)}
    for a in range(n):
        for b in range(n):
            if chain_id[a] is not None and chain_id[a] == chain_id[b] \
                    and pos[b] - pos[a] in _SEQ_OFFSETS:
                edges[_SEQ_OFFSETS[pos[b] - pos[a]]].add((a, b))
    pairs = set()
    if cfg.spatial_rule == "radius":
        for i in range(n):
            for j in range(i + 1, n):
                a, b = node_coords(g, i).T, node_coords(g, j).T
                d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
                if d.min() <= cfg.radius:
                    pairs.add((i, j))
    elif n > 1:
        cent = np.stack([node_coords(g, i).mean(axis=1) for i in range(n)])
        d = np.linalg.norm(cent[:, None, :] - cent[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        for i in range(n):
            for j in np.lexsort((np.arange(n), d[i]))[:min(cfg.k, n - 1)]:
                pairs.add((min(i, int(j)), max(i, int(j))))
    edges[RelationKind.SPATIAL] = pairs | {(j, i) for i, j in pairs}
    return {k: tuple(sorted(v)) for k, v in edges.items()}


def random_complex(seed: int, n_chains=3, n_res=12, n_lig=6, quantised=False):
    """Chains of residues with 1-16 atoms (some without CA) scattered
    around sites in a box, plus ligand atoms.  Quantised coordinates lie
    on a 0.5 A grid, so atom distances of exactly 4.5 A and tied knn
    distances are common."""
    rng = np.random.default_rng(seed)
    box = 5.0 * (n_chains * n_res + n_lig) ** (1.0 / 3.0)

    def xyz(site, scale):
        v = site + rng.normal(scale=scale, size=3)
        return tuple(float(c) for c in (np.round(v * 2.0) / 2.0 if quantised else v))

    chains = []
    for c in range(n_chains):
        residues = []
        for _ in range(n_res):
            site = rng.uniform(0.0, box, size=3)
            names = [f"X{a}" for a in range(int(rng.integers(1, 17)))]
            if rng.random() < 0.8:
                names[int(rng.integers(len(names)))] = "CA"
            residues.append(("ALA", [(nm, "C", xyz(site, 1.5)) for nm in names]))
        chains.append(make_chain(chr(ord("A") + c), residues))
    ligand = [("O", xyz(rng.uniform(0.0, box, size=3), 0.0)) for _ in range(n_lig)]
    return record(chains=chains, ligand=ligand)


def assert_matches_reference(rec, cfg):
    g = build_graph(rec, cfg)
    assert all_rows(g) == reference_edges(g)
    assert validate(g) == []
    return g


CONFIGS = [
    GraphConfig(),
    GraphConfig(radius=2.5),
    GraphConfig(geometry="calpha", radius=6.0),
    GraphConfig(spatial_rule="knn", k=3),
    GraphConfig(spatial_rule="knn", k=1, geometry="calpha"),
    GraphConfig(spatial_rule="knn", k=5),
]


@pytest.mark.parametrize("quantised", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_edges_match_brute_force_reference(seed, quantised):
    rec = random_complex(seed, quantised=quantised)
    for cfg in CONFIGS:
        assert_matches_reference(rec, cfg)


def test_quantised_inputs_hit_exact_ties():
    # the quantised complexes do exercise the boundary cases they are for
    rec = random_complex(0, quantised=True)
    atoms = np.concatenate([ch.residues.atoms.xyz for ch in rec.chains])
    d = np.linalg.norm(atoms[:, None, :] - atoms[None, :, :], axis=-1)
    assert (d == 4.5).any()
    g = build_graph(dataclasses.replace(rec, ligand_atoms=make_ligand()),
                    GraphConfig(spatial_rule="knn", geometry="calpha"))
    cent = np.stack([node_coords(g, i).mean(axis=1) for i in range(g.n_nodes)])
    dc = np.linalg.norm(cent[:, None, :] - cent[None, :, :], axis=-1)
    np.fill_diagonal(dc, np.inf)
    assert any(len(set(row)) < len(row) for row in np.sort(dc, axis=1)[:, :4])


def test_degenerate_graphs_match_reference():
    one = record(chains=[chain_of("A", 1)])
    assert_matches_reference(one, GraphConfig())
    assert_matches_reference(one, GraphConfig(spatial_rule="knn"))
    lig = random_complex(7, n_chains=0, n_lig=20)
    for cfg in CONFIGS[:3] + CONFIGS[4:5]:
        assert_matches_reference(lig, cfg)
    lone = ComplexRecord("x", (), make_ligand([("C", (0.0, 0.0, 0.0))]), {})
    g = assert_matches_reference(lone, GraphConfig())
    assert rows(g, RelationKind.SPATIAL) == ()


def test_radius_joining_every_pair():
    rec = random_complex(5)
    g = assert_matches_reference(rec, GraphConfig(radius=1e4))
    n = g.n_nodes
    assert len(g.edges[RelationKind.SPATIAL]) == n * (n - 1)


@pytest.mark.parametrize("offset", [0.0, -37.25, 1e6])
def test_radius_boundary_is_inclusive_to_the_ulp(offset):
    def pair(x1):
        lig = [("C", (offset, 0.0, 0.0)), ("C", (x1, 0.0, 0.0))]
        return record(ligand=lig)

    def joined(rec, radius):
        g = assert_matches_reference(rec, GraphConfig(radius=radius))
        return rows(g, RelationKind.SPATIAL) == ((0, 1), (1, 0))

    at = pair(offset + 4.5)
    assert joined(at, 4.5)
    assert not joined(at, np.nextafter(4.5, 0.0))
    assert joined(at, np.nextafter(4.5, np.inf))
    assert not joined(pair(np.nextafter(offset + 4.5, np.inf)), 4.5)
    # the same boundary reached between residue nodes whose centroids
    # are far apart: one atom of each reaches toward the other
    res_a = ("GLY", (("N", "N", (offset - 6.0, 0.0, 0.0)), ("CA", "C", (offset, 0.0, 0.0))))
    res_b = ("GLY", (("N", "N", (offset + 4.5, 0.0, 0.0)),
                     ("CA", "C", (offset + 10.5, 0.0, 0.0))))
    rec = record(chains=[make_chain("A", [res_a]), make_chain("B", [res_b])])
    assert joined(rec, 4.5)
    assert not joined(rec, np.nextafter(4.5, 0.0))


def test_broad_phase_keeps_pairs_with_tight_bounds():
    # two-atom residues on one line, with the closest atoms exactly the
    # radius apart: the centroid gap equals the sum of bounding radii plus
    # the radius, so only the broad-phase slack absorbs the rounding
    rng = np.random.default_rng(13)
    for trial in range(200):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        p = rng.uniform(-50.0, 50.0, size=3)
        s, t = rng.uniform(0.5, 4.0, size=2)
        q = p + (s + t + 4.5) * u
        ends = [(p - s * u, p + s * u), (q - t * u, q + t * u)]
        radius = float(np.linalg.norm((ends[0][1] - ends[1][0])[None], axis=-1)[0])
        residues = [("GLY", [(f"A{k}", "C", x) for k, x in enumerate(pair)]) for pair in ends]
        rec = record(chains=[make_chain("A", residues[:1]), make_chain("B", residues[1:])])
        g = assert_matches_reference(rec, GraphConfig(radius=radius))
        assert rows(g, RelationKind.SPATIAL) == ((0, 1), (1, 0)), trial


def boundary_pairs(radius, slack, count=12):
    """Centroids and reaches of ``count`` node pairs on lines far apart, each
    pair's centroid gap exactly (reach_a + reach_b) + (radius + slack), for
    reaches where adding them in the other order misses the gap."""
    rng = np.random.default_rng(21)
    pad = radius + slack
    cent, reach = [], []
    while len(reach) < 2 * count:
        ra, rb = rng.uniform(0.5, 8.0, size=2)
        gap = (ra + rb) + pad
        if min(ra + (rb + pad), rb + (ra + pad)) < gap:
            y = 100.0 * len(reach)
            cent += [(0.0, y, 0.0), (gap, y, 0.0)]
            reach += [ra, rb]
    return np.array(cent).T, np.array(reach)


def node_orders(n):
    """(mirror x, node order) pairs that put each pair's other end first:
    as given, reversed in index, mirrored in x (the sweep's rows swap), and
    mirrored and shuffled.  Mirroring changes no distance, bit for bit."""
    return [(False, np.arange(n)), (False, np.arange(n)[::-1]), (True, np.arange(n)),
            (True, np.random.default_rng(3).permutation(n))]


def as_original_pairs(i, j, order):
    """Pairs found among nodes taken in ``order``, as a set of original
    (lower, higher) index pairs."""
    a, b = order[i], order[j]
    return set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))


def test_broad_phase_does_not_depend_on_which_end_comes_first():
    radius, slack = 4.5, 1e-6

    def candidates(cent, reach):
        found = []
        for mirror, order in node_orders(len(reach)):
            moved = cent[:, order] * np.array([[-1.0 if mirror else 1.0], [1.0], [1.0]])
            found.append(as_original_pairs(*_candidates(moved, reach[order], radius, slack),
                                           order))
        assert all(f == found[0] for f in found)
        return found[0]

    cent, reach = boundary_pairs(radius, slack)
    gaps = np.diff(cent[0])[::2]
    assert (np.sqrt(gaps * gaps) == gaps).all()  # the centroid gap is computed exactly
    assert candidates(cent, reach) == {(k, k + 1) for k in range(0, len(reach), 2)}
    # a cloud with many centroids tied in x
    rng = np.random.default_rng(5)
    cloud = candidates(np.round(rng.uniform(0.0, 20.0, size=(3, 300)) * 2.0) / 2.0,
                       rng.uniform(0.0, 3.0, size=300))
    assert 0 < len(cloud) < 300 * 299 // 2
    # and so the edges: the narrow phase meets the same pairs
    for rec in (every_width_complex(0), random_complex(1, quantised=True)):
        g = build_graph(rec, GraphConfig())
        want = as_original_pairs(*_spatial_pairs(g.X, g.channels, g.config), np.arange(g.n_nodes))
        assert len(want) > g.n_nodes
        for mirror, order in node_orders(g.n_nodes):
            moved = g.X[order] * np.array([-1.0 if mirror else 1.0, 1.0, 1.0])[:, None]
            assert as_original_pairs(*_spatial_pairs(moved, g.channels[order], g.config),
                                     order) == want


@pytest.mark.parametrize("k", [1, 3, 6, 7, 20])
def test_knn_ties_broken_by_index(k):
    # on a cubic lattice most nodes have six neighbours at the same
    # distance; the k nearest take the lowest indices among equals
    pts = np.stack(np.meshgrid(*[np.arange(5) * 1.5] * 3, indexing="ij"), -1).reshape(-1, 3)
    order = np.random.default_rng(k).permutation(len(pts))
    lig = [("C", pts[i]) for i in order]
    assert_matches_reference(record(ligand=lig), GraphConfig(spatial_rule="knn", k=k))


def test_sequence_edges_with_repeated_chain_id():
    # validate_record rejects repeated chain ids, but build_graph takes a
    # hand-built record as is: every residue pair sharing an id is joined
    # by its sequence offset, as the reference does
    rec = record(chains=[chain_of("A", 3), chain_of("A", 2, y=50.0)])
    assert_matches_reference(rec, GraphConfig())


# -- packed arrays against per-node packing read from the record --------------


def reference_pack(rec: ComplexRecord, cfg: GraphConfig, dtype) -> dict:
    """The node arrays as packed one node at a time, read straight from
    the record: a node per residue (its first CA alone under C-alpha
    geometry, none without one; else its first 14 atoms), then a node per
    ligand atom.  Returns X0, mask, type_idx, elem_idx and the scopes."""
    nodes, scopes = [], {"": None}  # (atom indices, atoms, type row) per node
    for chain in rec.chains:
        res = chain.residues
        lo = 0
        for t, count in zip(res.types.tolist(), res.counts.tolist()):
            at = range(lo, lo + count)
            lo += count
            if cfg.geometry == "calpha":
                at = [a for a in at if res.atoms.names[a] == "CA"][:1]
                if not at:
                    continue
            else:
                at = at[:MAX_CHANNELS]
            scopes.setdefault(chain.chain_id, []).append(len(nodes))
            nodes.append((list(at), res.atoms, t))
    lig = rec.ligand_atoms
    nodes += [([a], lig, LIGAND_TYPE + e) for a, e in enumerate(lig.elements.tolist())]
    n = len(nodes)
    X0 = np.zeros((n, 3, MAX_CHANNELS), dtype=dtype)
    mask = np.zeros((n, MAX_CHANNELS), dtype=dtype)
    type_idx = np.zeros(n, dtype=np.int64)
    elem_idx = np.zeros((n, MAX_CHANNELS), dtype=np.int64)
    for i, (at, atoms, type_row) in enumerate(nodes):
        c = len(at)
        X0[i, :, :c] = atoms.xyz[at].T
        mask[i, :c] = 1.0
        elem_idx[i, :c] = atoms.elements[at]
        type_idx[i] = type_row
    scopes = {k: np.arange(n) if v is None else np.asarray(v, dtype=np.int64)
              for k, v in scopes.items()}
    return {"X0": X0, "mask": mask, "type_idx": type_idx, "elem_idx": elem_idx,
            "scopes": scopes}


def assert_packs_like_reference(rec, cfg):
    """Every packed array is byte-equal to its reference in float32 and
    float64: the node arrays to ``reference_pack``, the edge arrays to the
    brute-force ``reference_edges`` in relation order, with each
    receiver's channel count, the row it reads of the shared pooling
    table (compared as ``pool[dst_channels]``) and its in-degree."""
    from hemenet.geom import pooling_matrix
    g = build_graph(rec, cfg)
    edges = reference_edges(g)
    src = [s for kind in RelationKind for s, _ in edges[kind]]
    dst = [d for kind in RelationKind for _, d in edges[kind]]
    kind = [int(k) for k in RelationKind for _ in edges[k]]
    for dtype in (np.float32, np.float64):
        pg = pack_graph(g, dtype)
        want = reference_pack(rec, cfg, dtype)
        counts = [int(want["mask"][d].sum()) for d in dst]
        pool = np.zeros((len(dst), MAX_CHANNELS, MAX_CHANNELS), dtype=dtype)
        for e, c in enumerate(counts):
            pool[e, :, :c] = pooling_matrix(c)
        want.update(src=np.array(src, dtype=np.int64), dst=np.array(dst, dtype=np.int64),
                    kind=np.array(kind, dtype=np.int64), pool=pool,
                    dst_channels=np.array(counts, dtype=np.int64),
                    deg=np.array([dst.count(i) for i in range(pg.n)], dtype=dtype))
        for name, w in want.items():
            if name == "scopes":
                got = pg.scopes
                assert list(got) == list(w), name
                for key in w:
                    assert got[key].dtype == w[key].dtype, key
                    assert got[key].tobytes() == w[key].tobytes(), key
            else:
                got = pg.pool[pg.dst_channels] if name == "pool" else getattr(pg, name)
                assert got.dtype == w.dtype and got.shape == w.shape, name
                assert got.tobytes() == w.tobytes(), name
    return g


def unk_record():
    """One UNK residue of 16 mixed-element atoms, truncated to 14, beside
    a glycine and two ligand atoms."""
    rng = np.random.default_rng(5)
    elements = ("N", "C", "O", "S", "Se", "metal", "other", "C")
    atoms = [(f"X{k}", elements[k % len(elements)], rng.normal(scale=2.0, size=3))
             for k in range(16)]
    chain = make_chain("A", [("UNK", atoms), gly((3.0, 0.0, 0.0))])
    return record(chains=[chain], ligand=[("Br", (1.0, 1.0, 1.0)), ("P", (2.0, -1.0, 0.5))])


def lattice_ligand(k=7):
    """Ligand atoms on a shuffled cubic lattice: knn distances tie often."""
    pts = np.stack(np.meshgrid(*[np.arange(5) * 1.5] * 3, indexing="ij"), -1).reshape(-1, 3)
    order = np.random.default_rng(k).permutation(len(pts))
    return record(ligand=[("C", pts[i]) for i in order])


PACK_CASES = {
    "calpha-ca-less": (lambda: random_complex(1), GraphConfig(geometry="calpha", radius=6.0)),
    "full-atom-over-14": (lambda: random_complex(2), GraphConfig()),
    "unk-truncated": (unk_record, GraphConfig()),
    "unk-truncated-knn": (unk_record, GraphConfig(spatial_rule="knn", k=2)),
    "ligand-only": (lambda: random_complex(7, n_chains=0, n_lig=20), GraphConfig()),
    "one-residue": (lambda: record(chains=[chain_of("A", 1)]), GraphConfig()),
    "one-ligand-atom": (lambda: record(ligand=[("I", (0.0, 0.0, 0.0))]), GraphConfig()),
    "repeated-chain-id": (lambda: record(chains=[chain_of("A", 3), chain_of("B", 2, y=5.0),
                                                 chain_of("A", 2, y=3.0)]), GraphConfig()),
    "knn-ties": (lattice_ligand, GraphConfig(spatial_rule="knn", k=6)),
    "knn-ties-quantised": (lambda: random_complex(3, quantised=True),
                           GraphConfig(spatial_rule="knn", k=5)),
}


@pytest.mark.parametrize("case", PACK_CASES)
def test_packed_arrays_bitwise_equal_per_node_reference(case):
    make, cfg = PACK_CASES[case]
    assert_packs_like_reference(make(), cfg)


@pytest.mark.parametrize("cfg", [GraphConfig(), GraphConfig(geometry="calpha", radius=6.0),
                                 GraphConfig(spatial_rule="knn", k=10)],
                         ids=["radius", "calpha", "knn"])
def test_synthetic_samples_pack_bitwise_equal_per_node_reference(synthetic_samples, cfg):
    for rec, _ in synthetic_samples:
        assert_packs_like_reference(rec, cfg)


def globule_complex(n_chains: int, n_res: int, atoms_per_res: int, seed: int = 0):
    """Compact chains of residues on a jittered 5.2 A lattice, side by
    side along x, with atoms scattered around each residue site."""
    rng = np.random.default_rng(seed)
    side = int(np.ceil(n_res ** (1.0 / 3.0)))
    grid = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"), -1).reshape(-1, 3)
    chains = []
    for c in range(n_chains):
        sites = (grid[:n_res] + [c * (side + 0.2), 0, 0]) * 5.2
        residues = [("ALA", [("CA" if a == 0 else f"X{a}", "C",
                              site + rng.normal(scale=1.5, size=3))
                             for a in range(atoms_per_res)])
                    for site in sites]
        chains.append(make_chain(chr(ord("A") + c), residues))
    return record(chains=chains)


def test_memory_bounded_on_15k_atom_complex():
    # 15 000 heavy atoms, the ingest cap: building and packing the graph
    # must stay within a fixed memory budget, independent of atom count
    rec = globule_complex(n_chains=3, n_res=500, atoms_per_res=10)
    assert rec.heavy_atom_count() == 15_000
    tracemalloc.start()
    try:
        g = build_graph(rec, GraphConfig(radius=4.5))
        pack_graph(g, np.float32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g.edges[RelationKind.SPATIAL]) > 10 * g.n_nodes  # contacts do occur
    assert peak < 256 * 2**20, f"peak {peak / 2**20:.0f} MB"


# -- the radius search against its earlier form --------------------------------


def reference_spatial_pairs(g, radius):
    """The radius rule as it was computed before the coordinate planes:
    (n, C, 3) padded coordinates, ``np.linalg.norm`` over the length-3
    axis, a gathered channel mask per candidate block, and a centroid
    broad phase with the same slack."""
    n = g.n_nodes
    if n < 2:
        return []
    counts = g.channels
    real = np.arange(MAX_CHANNELS) < counts[:, None]
    pad = np.zeros((n, MAX_CHANNELS, 3))
    pad[real] = np.concatenate([node_coords(g, i).T for i in range(n)])
    cent = pad.sum(axis=1) / counts[:, None]
    reach = np.where(real, np.linalg.norm(pad - cent[:, None, :], axis=-1), 0.0).max(axis=1)
    slack = 1e-6 + 1e-9 * np.abs(pad).max()
    cand_i, cand_j = [], []
    rows = max(1, (1 << 16) // n)
    for lo in range(0, n - 1, rows):
        hi = min(lo + rows, n - 1)
        gap = np.linalg.norm(cent[lo:hi, None, :] - cent[None, lo + 1:, :], axis=-1)
        near = gap <= reach[lo:hi, None] + reach[None, lo + 1:] + (radius + slack)
        i, j = np.nonzero(np.triu(near))
        cand_i.append(i + lo)
        cand_j.append(j + lo + 1)
    cand_i = np.concatenate(cand_i)
    cand_j = np.concatenate(cand_j)
    hit = np.zeros(len(cand_i), dtype=bool)
    for lo in range(0, len(cand_i), 256):
        i, j = cand_i[lo:lo + 256], cand_j[lo:lo + 256]
        d = np.linalg.norm(pad[i][:, :, None, :] - pad[j][:, None, :, :], axis=-1)
        ok = (d <= radius) & real[i][:, :, None] & real[j][:, None, :]
        hit[lo:lo + 256] = ok.any(axis=(1, 2))
    return list(zip(cand_i[hit].tolist(), cand_j[hit].tolist()))


def assert_pairs_match_reference(rec, cfg):
    g = build_graph(rec, cfg)
    i, j = _spatial_pairs(g.X, g.channels, cfg)
    pairs = list(zip(i.tolist(), j.tolist()))
    assert pairs == reference_spatial_pairs(g, cfg.radius)
    return pairs


def test_spatial_pairs_match_earlier_form_at_ingest_cap():
    rec = globule_complex(n_chains=3, n_res=500, atoms_per_res=10, seed=1)
    assert rec.heavy_atom_count() == 15_000
    pairs = assert_pairs_match_reference(rec, GraphConfig(radius=4.5))
    assert len(pairs) > 5 * 1500


@pytest.mark.parametrize("seed", range(6))
def test_spatial_pairs_match_earlier_form_on_quantised_inputs(seed):
    # quantised coordinates put many atom pairs exactly on the radius
    rec = random_complex(seed, n_chains=4, n_res=30, n_lig=12, quantised=True)
    for cfg in (GraphConfig(), GraphConfig(radius=2.5), GraphConfig(radius=np.nextafter(4.5, 0.0)),
                GraphConfig(geometry="calpha", radius=6.0)):
        assert_pairs_match_reference(rec, cfg)


def every_width_complex(seed: int):
    """Three UNK residues of each channel count 1-14 in a 12 A box, and
    ligand atoms: every pair of narrow-phase width classes occurs."""
    rng = np.random.default_rng(seed)
    residues = []
    for c in list(range(1, MAX_CHANNELS + 1)) * 3:
        site = rng.uniform(0.0, 12.0, size=3)
        residues.append(("UNK", [(f"X{a}", "C", site + rng.normal(scale=1.2, size=3))
                                 for a in range(c)]))
    order = rng.permutation(len(residues))
    ligand = [("N", rng.uniform(0.0, 12.0, size=3)) for _ in range(6)]
    return record(chains=[make_chain("A", [residues[i] for i in order])], ligand=ligand)


@pytest.mark.parametrize("seed", range(3))
def test_spatial_pairs_match_earlier_form_over_every_channel_count(seed):
    rec = every_width_complex(seed)
    for cfg in (GraphConfig(), GraphConfig(radius=2.0), GraphConfig(radius=9.0)):
        assert_pairs_match_reference(rec, cfg)


def test_spatial_pairs_match_earlier_form_with_far_flung_atoms():
    # one residue reaches 40 A from its centroid, which widens every row's
    # sweep window; a lone ligand atom sits far out on the other side
    rec = random_complex(4, n_chains=2, n_res=20, n_lig=5)
    far = ("UNK", (("X0", "C", (0.0, 0.0, 0.0)), ("X1", "C", (80.0, 3.0, -2.0))))
    lig = rec.ligand_atoms
    ligand = make_ligand([*zip([ELEMENTS[e] for e in lig.elements], lig.xyz),
                          ("S", (-60.0, 1.0, 1.0))])
    chains = rec.chains + (make_chain("Z", [far]),)
    rec = ComplexRecord(rec.complex_id, chains, ligand, {**rec.partition, "Z": "receptor"})
    for cfg in (GraphConfig(), GraphConfig(radius=45.0)):
        pairs = assert_pairs_match_reference(rec, cfg)
    assert len(pairs) > 100


def test_spatial_pairs_match_earlier_form_with_centroids_tied_in_x():
    # ligand atoms and two-atom residues on a few x planes: most centroids
    # share their x with others, so the sweep's sort order decides ties
    rng = np.random.default_rng(9)
    ligand = [("C", (float(x), float(y), float(z)))
              for x in (0.0, 1.5, 3.0) for y, z in rng.integers(-4, 5, size=(12, 2))]
    residues = [("GLY", (("N", "N", (x - 0.5, y, 0.0)), ("CA", "C", (x + 0.5, y, 0.0))))
                for x in (0.0, 3.0) for y in rng.uniform(-6.0, 6.0, size=8)]
    rec = record(chains=[make_chain("A", residues)], ligand=ligand)
    g = build_graph(rec, GraphConfig())
    cent_x = np.array([node_coords(g, i)[0].mean() for i in range(g.n_nodes)])
    assert len(np.unique(cent_x)) <= 3
    for cfg in (GraphConfig(), GraphConfig(radius=1.5), GraphConfig(radius=3.0)):
        assert_pairs_match_reference(rec, cfg)


@pytest.mark.parametrize("radius", [4.5, np.nextafter(4.5, 0.0), np.nextafter(4.5, np.inf),
                                    1e-3, 1e4, 2.5, 6.0, 1e-300, 1e200])
def test_squared_threshold_is_exact(radius):
    t = squared_threshold(radius)
    with np.errstate(over="ignore"):  # 1e200 squared is +inf
        assert np.sqrt(t) <= radius < np.sqrt(np.nextafter(t, np.inf))
        square = np.float64(radius) * np.float64(radius)
        for sq in (t, np.nextafter(t, 0.0), np.nextafter(t, np.inf),
                   square, np.nextafter(square, 0.0), np.nextafter(square, np.inf)):
            assert (sq <= t) == (np.sqrt(sq) <= radius), sq
