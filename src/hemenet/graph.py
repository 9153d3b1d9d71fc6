"""Heterogeneous full-atom multi-channel graph construction.

One node per residue (all its heavy atoms as coordinate channels, or a
single alpha-carbon channel) plus one node per ligand atom.  Six
directed relation kinds: sequence offsets -2/-1/+1/+2 within a chain,
a self-loop on every node, and symmetric spatial edges from either a
distance cutoff on minimum inter-atom distance or k-nearest-neighbor
on node centroids.  Node indices follow a canonical order: chains in
input order, residues in sequence order, ligand atoms last.

The radius rule is exact.  A broad phase bounds each node by the sphere
around its channel centroid that holds all its atoms; by the triangle
inequality two nodes whose spheres are more than the radius apart have
no atom pair within it.  Only the remaining candidate pairs reach the
narrow phase, which tests every real atom pair against the float64
distance the rule is defined by.  Coordinates are held as contiguous
x/y/z planes, and the narrow phase compares the squared distance, summed
in the order ``np.linalg.norm`` sums it, with the largest float64 whose
square root is within the radius: the same decision, bit for bit, with
no square root taken.  Work is done in blocks whose temporaries stay
near 1.5 MB, so atom-level work and memory scale with the number of
candidates, near-linear in contacts; the one quadratic step is a
vectorised pass over node pairs (residues, not atoms).  Sequence edges
come from a (chain, position) lookup, O(residues).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import IntEnum
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DataError
from .structio import ELEMENT_INDEX, MAX_CHANNELS, ComplexRecord

log = logging.getLogger(__name__)


class RelationKind(IntEnum):
    SEQ_MINUS_2 = 0
    SEQ_MINUS_1 = 1
    SEQ_PLUS_1 = 2
    SEQ_PLUS_2 = 3
    SELF_LOOP = 4
    SPATIAL = 5


N_RELATIONS = len(RelationKind)
_SEQ_OFFSETS = {
    -2: RelationKind.SEQ_MINUS_2,
    -1: RelationKind.SEQ_MINUS_1,
    1: RelationKind.SEQ_PLUS_1,
    2: RelationKind.SEQ_PLUS_2,
}


@dataclass(frozen=True)
class GraphNode:
    index: int
    kind: str  # "residue" | "ligand_atom"
    label: str  # residue type or element symbol
    chain_id: str | None
    seq_pos: int | None  # position within the chain, residue nodes only
    entity: str  # "receptor" | "ligand_side"
    X: np.ndarray  # (3, c) read-only
    channel_elements: tuple[int, ...]  # element vocabulary ids, length c

    @property
    def channels(self) -> int:
        return self.X.shape[1]

    @property
    def channel_mask(self) -> np.ndarray:
        w = np.zeros(MAX_CHANNELS)
        w[: self.channels] = 1.0
        return w


@dataclass(frozen=True)
class GraphConfig:
    # the values each string setting may take; the CLI's choices read them
    CHOICES: ClassVar[dict] = {
        "geometry": ("full_atom", "calpha"),
        "spatial_rule": ("radius", "knn"),
    }

    geometry: str = "full_atom"
    spatial_rule: str = "radius"
    radius: float = 4.5
    k: int = 10

    def __post_init__(self):
        for name, allowed in self.CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}")
        if not 0 < self.radius < np.inf or self.k < 1:  # NaN fails the first test
            raise ConfigError("radius must be positive and finite, and k >= 1")


@dataclass(frozen=True)
class HeteroGraph:
    complex_id: str
    nodes: tuple[GraphNode, ...]
    edges: dict[RelationKind, tuple[tuple[int, int], ...]]
    config: GraphConfig = field(default_factory=GraphConfig)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


def build_graph(rec: ComplexRecord, cfg: GraphConfig = GraphConfig()) -> HeteroGraph:
    nodes: list[GraphNode] = []
    for chain in rec.chains:
        entity = rec.partition.get(chain.chain_id, "receptor")
        for pos, res in enumerate(chain.residues):
            if cfg.geometry == "calpha":
                ca = next((a for a in res.atoms if a.name == "CA"), None)
                if ca is None:
                    log.warning("%s chain %s residue %d: no CA atom, dropped",
                                rec.complex_id, chain.chain_id, pos)
                    continue
                atoms = [ca]
            else:
                atoms = list(res.atoms[:MAX_CHANNELS])
                if len(res.atoms) > MAX_CHANNELS:
                    log.warning("%s chain %s residue %d: truncated to %d channels",
                                rec.complex_id, chain.chain_id, pos, MAX_CHANNELS)
            X = _freeze(np.array([a.xyz for a in atoms]).T.reshape(3, len(atoms)))
            nodes.append(GraphNode(
                index=len(nodes), kind="residue", label=res.residue_type,
                chain_id=chain.chain_id, seq_pos=pos, entity=entity, X=X,
                channel_elements=tuple(ELEMENT_INDEX[a.element] for a in atoms),
            ))
    for atom in rec.ligand_atoms:
        X = _freeze(np.array(atom.xyz).reshape(3, 1))
        nodes.append(GraphNode(
            index=len(nodes), kind="ligand_atom", label=atom.element,
            chain_id=None, seq_pos=None, entity="ligand_side", X=X,
            channel_elements=(ELEMENT_INDEX[atom.element],),
        ))
    if not nodes:
        raise DataError(f"{rec.complex_id}: graph has no nodes")

    edges: dict[RelationKind, list[tuple[int, int]]] = {k: [] for k in RelationKind}
    for i in range(len(nodes)):
        edges[RelationKind.SELF_LOOP].append((i, i))

    # sequential edges keyed by destination-minus-source sequence offset;
    # a list per position, since chain ids are not required to be unique
    at: dict[tuple[str, int], list[int]] = {}
    for node in nodes:
        if node.kind == "residue":
            at.setdefault((node.chain_id, node.seq_pos), []).append(node.index)
    for (chain_id, pos), sources in at.items():
        for off, kind in _SEQ_OFFSETS.items():
            for b in at.get((chain_id, pos + off), ()):
                edges[kind].extend((a, b) for a in sources)

    for i, j in _spatial_pairs(nodes, cfg):
        edges[RelationKind.SPATIAL].append((i, j))
        edges[RelationKind.SPATIAL].append((j, i))

    return HeteroGraph(
        complex_id=rec.complex_id,
        nodes=tuple(nodes),
        edges={k: tuple(sorted(v)) for k, v in edges.items()},
        config=cfg,
    )


# Broad-phase margin: covers the rounding of centroids, bounding radii and
# distances, each within a few ulps of the largest coordinate magnitude,
# so no pair the float64 narrow phase would join is ever pruned.
_SLACK_ABS = 1e-6
_SLACK_REL = 1e-9
# Block sizes keep a block's temporaries near 1.5 MB: fast while
# cache-resident, and small enough not to fragment the heap of a process
# that goes on to train or evaluate (19 MB narrow-phase blocks raised the
# peak RSS of graph set-up followed by evaluation by 16% under glibc
# malloc).  A narrow-phase block holds two (256, C, C) float64 arrays,
# 0.4 MB each; larger blocks ran slower.
_BLOCK = 1 << 16  # node pairs per broad-phase block
_PAIR_BLOCK = 256  # candidate pairs per narrow-phase block


def squared_threshold(radius: float) -> float:
    """The largest float64 ``T`` with ``np.sqrt(T) <= radius``.

    ``np.sqrt`` is correctly rounded and monotone, so for every float64
    ``sq``, ``sq <= T`` exactly when ``np.sqrt(sq) <= radius``.  ``radius``
    must be finite and positive; ``radius * radius`` is within an ulp or
    two of ``T``, so each loop takes a step or two (from +inf, when the
    square overflows, one step down reaches the largest float).
    """
    r = np.float64(radius)
    with np.errstate(over="ignore"):
        t = r * r
        while np.sqrt(t) > r:
            t = np.nextafter(t, 0.0)
        while np.sqrt(np.nextafter(t, np.inf)) <= r:
            t = np.nextafter(t, np.inf)
    return float(t)


def _spatial_pairs(nodes, cfg: GraphConfig) -> list[tuple[int, int]]:
    """Unordered node pairs (i < j) joined by the spatial rule.

    Radius: nodes i, j are joined when some atom pair (a, b) has
    ``np.linalg.norm(a - b) <= radius`` in float64.  Coordinates are held
    as three contiguous x/y/z planes of shape (n, C), so every distance
    is elementwise work on whole arrays rather than a reduction over a
    length-3 axis.  The broad phase keeps pairs with
    ``|c_i - c_j| <= r_i + r_j + radius + slack``, where ``c`` is a
    node's channel centroid and ``r`` the largest distance from it to
    the node's atoms; ``|a - b| >= |c_i - c_j| - r_i - r_j`` for any such
    atoms, so a pruned pair has none within the radius.  It costs one
    pass over the n(n-1)/2 node pairs in blocks of ``_BLOCK``.  The
    narrow phase evaluates all C x C channel pairs of each candidate in
    blocks of ``_PAIR_BLOCK`` as ``sq = (dx*dx + dy*dy) + dz*dz``: the
    same sum in the same order that ``np.linalg.norm`` takes, so ``sq``
    is bitwise the norm's square, and ``sq <= squared_threshold(radius)``
    is exactly ``sqrt(sq) <= radius`` with no square root taken.
    Padding channels hold +inf on the row side and -inf on the column
    side, so every difference that involves one is +inf (never NaN) and
    never joins; no mask is gathered.  Both block sizes keep a block's
    temporaries near 1.5 MB (see ``_BLOCK``), so cost and memory scale
    with the candidate count.
    """
    n = len(nodes)
    if n < 2:
        return []
    if cfg.spatial_rule == "radius":
        counts = np.array([node.channels for node in nodes])
        real = np.arange(MAX_CHANNELS) < counts[:, None]  # (n, C)
        flat = np.concatenate([node.X for node in nodes], axis=1)  # (3, atoms)
        rows = np.full((3, n, MAX_CHANNELS), np.inf)
        rows[:, real] = flat
        cols = np.where(real, rows, -np.inf)
        starts = np.cumsum(counts) - counts
        cent = np.add.reduceat(flat, starts, axis=1) / counts
        off = flat - np.repeat(cent, counts, axis=1)
        reach = np.maximum.reduceat(np.sqrt((off * off).sum(axis=0)), starts)
        slack = _SLACK_ABS + _SLACK_REL * np.abs(flat).max()
        cx, cy, cz = cent
        reach_col = reach + (cfg.radius + slack)
        cand_i, cand_j = [], []
        step = max(1, _BLOCK // n)
        for lo in range(0, n - 1, step):
            hi = min(lo + step, n - 1)
            # row r is node lo + r, column c is node lo + 1 + c: j > i is c >= r
            d = cx[lo:hi, None] - cx[None, lo + 1:]
            gap = d * d
            d = cy[lo:hi, None] - cy[None, lo + 1:]
            gap += d * d
            d = cz[lo:hi, None] - cz[None, lo + 1:]
            gap += d * d
            near = np.sqrt(gap, out=gap) <= reach[lo:hi, None] + reach_col[None, lo + 1:]
            i, j = np.nonzero(np.triu(near))
            cand_i.append(i + lo)
            cand_j.append(j + lo + 1)
        cand_i = np.concatenate(cand_i)
        cand_j = np.concatenate(cand_j)
        limit = squared_threshold(cfg.radius)
        hit = np.zeros(len(cand_i), dtype=bool)
        for lo in range(0, len(cand_i), _PAIR_BLOCK):
            i, j = cand_i[lo:lo + _PAIR_BLOCK], cand_j[lo:lo + _PAIR_BLOCK]
            d = rows[0, i][:, :, None] - cols[0, j][:, None, :]
            sq = d * d
            np.subtract(rows[1, i][:, :, None], cols[1, j][:, None, :], out=d)
            sq += np.multiply(d, d, out=d)
            np.subtract(rows[2, i][:, :, None], cols[2, j][:, None, :], out=d)
            sq += np.multiply(d, d, out=d)
            hit[lo:lo + _PAIR_BLOCK] = (sq <= limit).any(axis=(1, 2))
        return list(zip(cand_i[hit].tolist(), cand_j[hit].tolist()))
    # knn on centroids, symmetrized as a union; the stable sort breaks
    # distance ties by node index for determinism
    cent = np.stack([node.X.mean(axis=1) for node in nodes])
    d = np.linalg.norm(cent[:, None, :] - cent[None, :, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    k = min(cfg.k, n - 1)
    a = np.repeat(np.arange(n), k)
    b = np.argsort(d, axis=1, kind="stable")[:, :k].ravel()
    keys = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    return list(zip((keys // n).tolist(), (keys % n).tolist()))


def chain_masks(g: HeteroGraph) -> dict[str, tuple[int, ...]]:
    """Residue node indices grouped by chain; ligand atoms belong to none."""
    out: dict[str, list[int]] = {}
    for node in g.nodes:
        if node.kind == "residue":
            out.setdefault(node.chain_id, []).append(node.index)
    return {cid: tuple(idx) for cid, idx in out.items()}


def validate(g: HeteroGraph) -> list[str]:
    """Check every structural invariant; returns violations (empty = valid)."""
    problems = []
    n = g.n_nodes
    for node in g.nodes:
        c = node.channels
        if node.kind == "ligand_atom" and c != 1:
            problems.append(f"node {node.index}: ligand atom with {c} channels")
        if not 1 <= c <= MAX_CHANNELS:
            problems.append(f"node {node.index}: channel count {c} out of range")
        if len(node.channel_elements) != c:
            problems.append(f"node {node.index}: channel elements do not match channels")
        if node.channel_mask.sum() != c:
            problems.append(f"node {node.index}: mask weight != channel count")
        if not np.isfinite(node.X).all():
            problems.append(f"node {node.index}: non-finite coordinates")
    for kind, pairs in g.edges.items():
        if len(set(pairs)) != len(pairs):
            problems.append(f"{kind.name}: duplicate edges")
        for s, d in pairs:
            if not (0 <= s < n and 0 <= d < n):
                problems.append(f"{kind.name}: edge ({s},{d}) out of range")
    loops = set(g.edges.get(RelationKind.SELF_LOOP, ()))
    expect = {(i, i) for i in range(n)}
    if loops != expect:
        problems.append("self-loop set is not exactly {(i,i) for every node}")
    for off, kind in _SEQ_OFFSETS.items():
        for s, d in g.edges.get(kind, ()):
            if not (0 <= s < n and 0 <= d < n):
                continue  # already reported above
            a, b = g.nodes[s], g.nodes[d]
            if a.kind != "residue" or b.kind != "residue":
                problems.append(f"{kind.name}: edge ({s},{d}) touches a non-residue node")
            elif a.chain_id != b.chain_id:
                problems.append(f"{kind.name}: edge ({s},{d}) crosses chains")
            elif b.seq_pos - a.seq_pos != off:
                problems.append(f"{kind.name}: edge ({s},{d}) has wrong sequence offset")
    spatial = set(g.edges.get(RelationKind.SPATIAL, ()))
    for s, d in spatial:
        if s == d:
            problems.append(f"SPATIAL: self edge ({s},{d})")
        if (d, s) not in spatial:
            problems.append(f"SPATIAL: edge ({s},{d}) missing its reverse")
    return problems
