"""Graph construction: canonical node order, the six relation kinds,
spatial rules, alpha-carbon reduction, and structural validation."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from hemenet.errors import ConfigError, DataError
from hemenet.graph import (
    _SEQ_OFFSETS,
    GraphConfig,
    HeteroGraph,
    N_RELATIONS,
    RelationKind,
    build_graph,
    chain_masks,
    validate,
)
from hemenet.model import pack_graph
from hemenet.structio import Atom, Chain, ComplexRecord, Residue

GLY_OFFSETS = {
    "N": (0.0, 0.0, 0.0),
    "CA": (1.4, 0.0, 0.0),
    "C": (2.0, 1.2, 0.0),
    "O": (3.1, 1.4, 0.0),
}


def gly(base, drop_ca=False):
    atoms = tuple(
        Atom(name, "N" if name == "N" else ("O" if name == "O" else "C"),
             (base[0] + dx, base[1] + dy, base[2] + dz))
        for name, (dx, dy, dz) in GLY_OFFSETS.items()
        if not (drop_ca and name == "CA")
    )
    return Residue("GLY", atoms)


def chain_of(chain_id, n, spacing=10.0, y=0.0):
    return Chain(chain_id, None,
                 tuple(gly((i * spacing, y, 0.0)) for i in range(n)))


def record(chains=(), ligand=(), partition=None):
    part = partition if partition is not None else {c.chain_id: "receptor" for c in chains}
    return ComplexRecord("test", tuple(chains), tuple(ligand), part)


def test_canonical_node_order_and_kinds():
    rec = record(
        chains=[chain_of("A", 2), chain_of("B", 3, y=50.0)],
        ligand=[Atom("", "C", (100.0, 0.0, 0.0)), Atom("", "metal", (104.0, 0.0, 0.0))],
    )
    g = build_graph(rec)
    assert g.n_nodes == 7
    assert [n.index for n in g.nodes] == list(range(7))
    assert [n.kind for n in g.nodes] == ["residue"] * 5 + ["ligand_atom"] * 2
    assert [n.chain_id for n in g.nodes[:5]] == ["A", "A", "B", "B", "B"]
    assert [n.seq_pos for n in g.nodes[:5]] == [0, 1, 0, 1, 2]
    assert g.nodes[5].entity == "ligand_side"
    assert g.nodes[0].channels == 4 and g.nodes[5].channels == 1
    assert set(g.edges) == set(RelationKind) and N_RELATIONS == 6


def test_self_loops_on_every_node_including_ligand():
    rec = record(chains=[chain_of("A", 3)], ligand=[Atom("", "C", (2.0, 2.0, 0.0))])
    g = build_graph(rec)
    assert g.edges[RelationKind.SELF_LOOP] == tuple((i, i) for i in range(4))


def test_sequence_offsets_within_chain_only():
    rec = record(chains=[chain_of("A", 4), chain_of("B", 2, y=100.0)])
    g = build_graph(rec)
    assert g.edges[RelationKind.SEQ_PLUS_1] == ((0, 1), (1, 2), (2, 3), (4, 5))
    assert g.edges[RelationKind.SEQ_MINUS_1] == ((1, 0), (2, 1), (3, 2), (5, 4))
    assert g.edges[RelationKind.SEQ_PLUS_2] == ((0, 2), (1, 3))
    assert g.edges[RelationKind.SEQ_MINUS_2] == ((2, 0), (3, 1))


def test_dropped_residue_leaves_sequence_gap():
    # a residue dropped by the alpha-carbon rule keeps its position in
    # the chain, so the flanking residues are +2 apart, not adjacent
    ca_less = gly((10.0, 0.0, 0.0), drop_ca=True)
    full = Chain("A", None, (gly((0.0, 0.0, 0.0)), ca_less, gly((20.0, 0.0, 0.0))))
    g = build_graph(record(chains=[full]), GraphConfig(geometry="calpha"))
    assert g.n_nodes == 2
    assert [n.seq_pos for n in g.nodes] == [0, 2]
    assert g.edges[RelationKind.SEQ_PLUS_1] == ()
    assert g.edges[RelationKind.SEQ_PLUS_2] == ((0, 1),)


def test_radius_rule_uses_minimum_interatom_distance():
    # centroids ~10 apart but one atom pair 3 apart: edge must exist
    res_a = Residue("GLY", (
        Atom("N", "N", (0.0, 0.0, 0.0)),
        Atom("CA", "C", (1.4, 0.0, 0.0)),
        Atom("C", "C", (2.0, 1.2, 0.0)),
        Atom("O", "O", (7.0, 0.0, 0.0)),  # reaches toward the neighbor
    ))
    res_b = gly((10.0, 0.0, 0.0))
    rec = record(chains=[Chain("A", None, (res_a,)), Chain("B", None, (res_b,))])
    g = build_graph(rec, GraphConfig(spatial_rule="radius", radius=4.5))
    spatial = set(g.edges[RelationKind.SPATIAL])
    assert (0, 1) in spatial and (1, 0) in spatial
    # centroid distance alone would have missed it
    c0 = g.nodes[0].X.mean(axis=1)
    c1 = g.nodes[1].X.mean(axis=1)
    assert np.linalg.norm(c0 - c1) > 4.5


def test_radius_rule_excludes_distant_pairs():
    rec = record(chains=[chain_of("A", 3, spacing=30.0)])
    g = build_graph(rec, GraphConfig(spatial_rule="radius", radius=4.5))
    assert g.edges[RelationKind.SPATIAL] == ()


def test_knn_union_symmetrization():
    lig = [Atom("", "C", (0.0, 0.0, 0.0)),
           Atom("", "C", (1.0, 0.0, 0.0)),
           Atom("", "C", (2.5, 0.0, 0.0))]
    g = build_graph(record(ligand=lig), GraphConfig(spatial_rule="knn", k=1))
    spatial = set(g.edges[RelationKind.SPATIAL])
    # node 2's nearest is node 1; the union adds the reverse direction
    assert spatial == {(0, 1), (1, 0), (1, 2), (2, 1)}


def test_knn_caps_at_n_minus_1():
    lig = [Atom("", "C", (float(i), 0.0, 0.0)) for i in range(3)]
    g = build_graph(record(ligand=lig), GraphConfig(spatial_rule="knn", k=10))
    spatial = set(g.edges[RelationKind.SPATIAL])
    assert spatial == {(i, j) for i in range(3) for j in range(3) if i != j}


def test_calpha_geometry_single_channel():
    rec = record(chains=[chain_of("A", 3)])
    g = build_graph(rec, GraphConfig(geometry="calpha"))
    assert all(n.channels == 1 for n in g.nodes)
    ca_x = [n.X[0, 0] for n in g.nodes]
    assert ca_x == [1.4, 11.4, 21.4]


def test_calpha_drops_ca_less_residue():
    ch = Chain("A", None, (gly((0.0, 0.0, 0.0)),
                           gly((10.0, 0.0, 0.0), drop_ca=True),
                           gly((20.0, 0.0, 0.0))))
    g_full = build_graph(record(chains=[ch]), GraphConfig(geometry="full_atom"))
    g_ca = build_graph(record(chains=[ch]), GraphConfig(geometry="calpha"))
    assert g_full.n_nodes == 3
    assert g_ca.n_nodes == 2


def test_empty_graph_rejected():
    rec = ComplexRecord("x", (), (), {})
    with pytest.raises(DataError, match="no nodes"):
        build_graph(rec)


def test_partition_side_carried_to_nodes():
    rec = record(chains=[chain_of("A", 1), chain_of("B", 1, y=50.0)],
                 partition={"A": "receptor", "B": "ligand_side"})
    g = build_graph(rec)
    assert g.nodes[0].entity == "receptor"
    assert g.nodes[1].entity == "ligand_side"


def test_channel_mask_property():
    rec = record(chains=[chain_of("A", 1)])
    node = build_graph(rec).nodes[0]
    mask = node.channel_mask
    assert mask.shape == (14,)
    np.testing.assert_array_equal(mask[:4], 1.0)
    np.testing.assert_array_equal(mask[4:], 0.0)


def test_coordinates_are_read_only():
    g = build_graph(record(chains=[chain_of("A", 1)]))
    with pytest.raises(ValueError):
        g.nodes[0].X[0, 0] = 99.0


def test_chain_masks_groups_residue_nodes():
    rec = record(chains=[chain_of("A", 2), chain_of("B", 1, y=50.0)],
                 ligand=[Atom("", "C", (0.0, 5.0, 0.0))])
    masks = chain_masks(build_graph(rec))
    assert masks == {"A": (0, 1), "B": (2,)}


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


def test_validate_accepts_built_graphs():
    rec = record(chains=[chain_of("A", 3, spacing=3.0)],
                 ligand=[Atom("", "C", (1.0, 2.0, 0.0))])
    assert validate(build_graph(rec)) == []
    assert validate(build_graph(rec, GraphConfig(spatial_rule="knn", k=2))) == []


def test_validate_flags_violations():
    g = build_graph(record(chains=[chain_of("A", 2, spacing=3.0)]))
    # missing self-loop
    broken = dataclasses.replace(g, edges={**g.edges, RelationKind.SELF_LOOP: ((0, 0),)})
    assert any("self-loop" in p for p in validate(broken))
    # asymmetric spatial edge
    broken = dataclasses.replace(g, edges={**g.edges, RelationKind.SPATIAL: ((0, 1),)})
    assert any("missing its reverse" in p for p in validate(broken))
    # out-of-range edge and duplicates
    broken = dataclasses.replace(
        g, edges={**g.edges, RelationKind.SEQ_PLUS_1: ((0, 9), (0, 9))})
    problems = validate(broken)
    assert any("out of range" in p for p in problems)
    assert any("duplicate" in p for p in problems)
    # sequence edge with the wrong offset
    broken = dataclasses.replace(g, edges={**g.edges, RelationKind.SEQ_PLUS_2: ((0, 1),)})
    assert any("wrong sequence offset" in p for p in validate(broken))


# -- equivalence with a brute-force reference ---------------------------------


def reference_edges(g: HeteroGraph) -> dict:
    """Every relation of ``g`` recomputed by brute force from its nodes:
    all node pairs for sequence offsets, every atom pair for the radius
    rule (the same float64 distance expression), and a per-node sort
    with index tie-breaks for knn."""
    cfg, nodes, n = g.config, g.nodes, g.n_nodes
    edges = {k: set() for k in RelationKind}
    edges[RelationKind.SELF_LOOP] = {(i, i) for i in range(n)}
    for a in nodes:
        for b in nodes:
            if a.kind == b.kind == "residue" and a.chain_id == b.chain_id \
                    and b.seq_pos - a.seq_pos in _SEQ_OFFSETS:
                edges[_SEQ_OFFSETS[b.seq_pos - a.seq_pos]].add((a.index, b.index))
    pairs = set()
    if cfg.spatial_rule == "radius":
        for i in range(n):
            for j in range(i + 1, n):
                d = np.linalg.norm(nodes[i].X.T[:, None, :] - nodes[j].X.T[None, :, :], axis=-1)
                if d.min() <= cfg.radius:
                    pairs.add((i, j))
    elif n > 1:
        cent = np.stack([node.X.mean(axis=1) for node in nodes])
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
            residues.append(Residue("ALA", tuple(Atom(nm, "C", xyz(site, 1.5))
                                                 for nm in names)))
        chains.append(Chain(chr(ord("A") + c), None, tuple(residues)))
    ligand = tuple(Atom("", "O", xyz(rng.uniform(0.0, box, size=3), 0.0))
                   for _ in range(n_lig))
    return record(chains=chains, ligand=ligand)


def assert_matches_reference(rec, cfg):
    g = build_graph(rec, cfg)
    assert g.edges == reference_edges(g)
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
    atoms = np.array([a.xyz for ch in rec.chains for r in ch.residues for a in r.atoms])
    d = np.linalg.norm(atoms[:, None, :] - atoms[None, :, :], axis=-1)
    assert (d == 4.5).any()
    g = build_graph(dataclasses.replace(rec, ligand_atoms=()),
                    GraphConfig(spatial_rule="knn", geometry="calpha"))
    cent = np.stack([node.X.mean(axis=1) for node in g.nodes])
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
    lone = ComplexRecord("x", (), (Atom("", "C", (0.0, 0.0, 0.0)),), {})
    g = assert_matches_reference(lone, GraphConfig())
    assert g.edges[RelationKind.SPATIAL] == ()


def test_radius_joining_every_pair():
    rec = random_complex(5)
    g = assert_matches_reference(rec, GraphConfig(radius=1e4))
    n = g.n_nodes
    assert len(g.edges[RelationKind.SPATIAL]) == n * (n - 1)


@pytest.mark.parametrize("offset", [0.0, -37.25, 1e6])
def test_radius_boundary_is_inclusive_to_the_ulp(offset):
    def pair(x1):
        lig = (Atom("", "C", (offset, 0.0, 0.0)), Atom("", "C", (x1, 0.0, 0.0)))
        return record(ligand=lig)

    def joined(rec, radius):
        g = assert_matches_reference(rec, GraphConfig(radius=radius))
        return g.edges[RelationKind.SPATIAL] == ((0, 1), (1, 0))

    at = pair(offset + 4.5)
    assert joined(at, 4.5)
    assert not joined(at, np.nextafter(4.5, 0.0))
    assert joined(at, np.nextafter(4.5, np.inf))
    assert not joined(pair(np.nextafter(offset + 4.5, np.inf)), 4.5)
    # the same boundary reached between residue nodes whose centroids
    # are far apart: one atom of each reaches toward the other
    res_a = Residue("GLY", (Atom("N", "N", (offset - 6.0, 0.0, 0.0)),
                            Atom("CA", "C", (offset, 0.0, 0.0))))
    res_b = Residue("GLY", (Atom("N", "N", (offset + 4.5, 0.0, 0.0)),
                            Atom("CA", "C", (offset + 10.5, 0.0, 0.0))))
    rec = record(chains=[Chain("A", None, (res_a,)), Chain("B", None, (res_b,))])
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
        residues = [Residue("GLY", tuple(Atom(f"A{k}", "C", tuple(float(v) for v in x))
                                         for k, x in enumerate(pair)))
                    for pair in ends]
        rec = record(chains=[Chain("A", None, (residues[0],)), Chain("B", None, (residues[1],))])
        g = assert_matches_reference(rec, GraphConfig(radius=radius))
        assert g.edges[RelationKind.SPATIAL] == ((0, 1), (1, 0)), trial


@pytest.mark.parametrize("k", [1, 3, 6, 7, 20])
def test_knn_ties_broken_by_index(k):
    # on a cubic lattice most nodes have six neighbours at the same
    # distance; the k nearest take the lowest indices among equals
    pts = np.stack(np.meshgrid(*[np.arange(5) * 1.5] * 3, indexing="ij"), -1).reshape(-1, 3)
    order = np.random.default_rng(k).permutation(len(pts))
    lig = [Atom("", "C", tuple(float(v) for v in pts[i])) for i in order]
    assert_matches_reference(record(ligand=lig), GraphConfig(spatial_rule="knn", k=k))


def test_sequence_edges_with_repeated_chain_id():
    # validate_record rejects repeated chain ids, but build_graph takes a
    # hand-built record as is: every residue pair sharing an id is joined
    # by its sequence offset, as the reference does
    rec = record(chains=[chain_of("A", 3), chain_of("A", 2, y=50.0)])
    assert_matches_reference(rec, GraphConfig())


def globule_complex(n_chains: int, n_res: int, atoms_per_res: int, seed: int = 0):
    """Compact chains of residues on a jittered 5.2 A lattice, side by
    side along x, with atoms scattered around each residue site."""
    rng = np.random.default_rng(seed)
    side = int(np.ceil(n_res ** (1.0 / 3.0)))
    grid = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"), -1).reshape(-1, 3)
    chains = []
    for c in range(n_chains):
        sites = (grid[:n_res] + [c * (side + 0.2), 0, 0]) * 5.2
        residues = tuple(
            Residue("ALA", tuple(
                Atom("CA" if a == 0 else f"X{a}", "C",
                     tuple(float(v) for v in site + rng.normal(scale=1.5, size=3)))
                for a in range(atoms_per_res)))
            for site in sites)
        chains.append(Chain(chr(ord("A") + c), None, residues))
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
