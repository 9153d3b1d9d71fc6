"""Heterogeneous full-atom multi-channel graph construction.

One node per residue (all its heavy atoms as coordinate channels, or a
single alpha-carbon channel) plus one node per ligand atom.  Six
directed relation kinds: sequence offsets -2/-1/+1/+2 within a chain,
a self-loop on every node, and symmetric spatial edges from either a
distance cutoff on minimum inter-atom distance or k-nearest-neighbor
on node centroids.  Node indices follow a canonical order: chains in
input order, residues in sequence order, ligand atoms last.  A graph is
read-only arrays over the nodes (a structure of arrays, as in Biotite's
``AtomArray``) and one sorted (m, 2) edge array per relation, filled
from the record's arrays by masks, with no loop over atoms or residues;
``model.pack_graph`` only casts and derives.

The radius rule is exact.  A broad phase bounds each node by the sphere
around its channel centroid that holds all its atoms; by the triangle
inequality two nodes whose spheres are more than the radius apart have
no atom pair within it.  Its test is symmetric in the two ends, bit for
bit, so a pair's fate does not depend on which end the sweep meets
first.  It sorts the centroids by x and compares each node only with
those after it whose x lies within its largest possible bound (sort and
sweep, as in I-COLLIDE's broad phase), so it meets a slab of the
complex, not all of it.  Only the remaining candidate pairs
reach the narrow phase, which tests every real atom pair against the
float64 distance the rule is defined by.  Coordinates are held as
contiguous x/y/z planes, and the narrow phase compares the squared
distance, summed in the order ``np.linalg.norm`` sums it, with the
largest float64 whose square root is within the radius: the same
decision, bit for bit, with no square root taken.  It groups candidates
by the channel-width class of each end and computes those channels
only, skipping most padding.  Work is done in blocks whose temporaries
stay near 1.5 MB or below, so atom-level work and memory scale with
the number of candidates, near-linear in contacts.  Sequence edges come
from a sorted (chain, position) key, O(residues log residues).
"""

from __future__ import annotations

import logging
from collections import namedtuple
from dataclasses import dataclass, field
from enum import IntEnum
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DataError
from .structio import ELEMENTS, MAX_CHANNELS, RESIDUE_INDEX, ComplexRecord

log = logging.getLogger(__name__)

# node type ids (the encoder's embedding rows): residue types, then ligand elements
LIGAND_TYPE = len(RESIDUE_INDEX)
N_NODE_TYPES = LIGAND_TYPE + len(ELEMENTS)


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
_SEQ_PROBLEMS = ("touches a non-residue node", "crosses chains", "has wrong sequence offset")
_Node = namedtuple("_Node", "index channels")


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


@dataclass(frozen=True, eq=False)
class HeteroGraph:
    """One complex as read-only arrays.  Padded channels (``k >= channels[i]``)
    hold +0.0 coordinates and element id 0, which the encoder relies on."""
    complex_id: str
    X: np.ndarray  # (n, 3, C) float64 coordinates
    channels: np.ndarray  # (n,) real channels: 1-14 for a residue, 1 for a ligand atom
    elements: np.ndarray  # (n, C) element id per channel
    node_type: np.ndarray  # (n,) residue type id, or LIGAND_TYPE + element id
    chain: np.ndarray  # (n,) index into chain_ids, -1 for a ligand atom
    seq_pos: np.ndarray  # (n,) position within the chain, -1 for a ligand atom
    chain_ids: tuple[str, ...]  # distinct chain ids in input order
    edges: dict[RelationKind, np.ndarray]  # (m, 2) int64 (src, dst) rows, ascending
    config: GraphConfig = field(default_factory=GraphConfig)

    @property
    def n_nodes(self) -> int:
        return len(self.channels)

    @property
    def nodes(self) -> tuple[_Node, ...]:  # bench/run.py's alone, until ROADMAP item 9
        return tuple(_Node(i, c) for i, c in enumerate(self.channels.tolist()))


def build_graph(rec: ComplexRecord, cfg: GraphConfig = GraphConfig()) -> HeteroGraph:
    # per chain, then the ligand: the kept atoms' coordinates and element ids,
    # and per node its channel count, type id, chain code and sequence position
    coords, elements, channels, node_type, chain, seq_pos = ([] for _ in range(6))
    codes: dict[str, int] = {}  # chain id -> chain code; ids need not be unique
    for ch in rec.chains:
        code = codes.setdefault(ch.chain_id, len(codes))
        counts, atoms = ch.residues.counts, ch.residues.atoms
        residue = np.repeat(np.arange(len(counts)), counts)  # of each atom
        if cfg.geometry == "calpha":
            ca = np.flatnonzero(atoms.names == "CA")
            keep = ca[np.unique(residue[ca], return_index=True)[1]]  # each residue's first
            pos = residue[keep]
            width = np.ones(len(pos), dtype=np.int64)
            for r in np.setdiff1d(np.arange(len(counts)), pos).tolist():
                log.warning("%s chain %s residue %d: no CA atom, dropped",
                            rec.complex_id, ch.chain_id, r)
        else:
            for r in np.flatnonzero(counts > MAX_CHANNELS).tolist():
                log.warning("%s chain %s residue %d: truncated to %d channels",
                            rec.complex_id, ch.chain_id, r, MAX_CHANNELS)
            first = np.cumsum(counts) - counts
            keep = np.flatnonzero(np.arange(len(residue)) - first[residue] < MAX_CHANNELS)
            pos = np.arange(len(counts))
            width = np.minimum(counts, MAX_CHANNELS)
        coords.append(atoms.xyz[keep])
        elements.append(atoms.elements[keep])
        channels.append(width)
        node_type.append(ch.residues.types[pos])
        chain.append(np.full(len(pos), code))
        seq_pos.append(pos)
    lig = rec.ligand_atoms
    n_res = sum(map(len, channels))
    coords.append(lig.xyz)
    elements.append(lig.elements)
    channels.append(np.ones(len(lig), dtype=np.int64))
    node_type.append(LIGAND_TYPE + lig.elements.astype(np.int64))
    chain.append(np.full(len(lig), -1))
    seq_pos.append(np.full(len(lig), -1))
    channels, node_type, chain, seq_pos = (np.concatenate(a).astype(np.int64)
                                           for a in (channels, node_type, chain, seq_pos))
    n = len(channels)
    if not n:
        raise DataError(f"{rec.complex_id}: graph has no nodes")
    real = np.arange(MAX_CHANNELS) < channels[:, None]
    X = np.zeros((n, 3, MAX_CHANNELS))
    X.transpose(0, 2, 1)[real] = np.concatenate(coords)
    elem = np.zeros((n, MAX_CHANNELS), dtype=np.int64)
    elem[real] = np.concatenate(elements)

    i, j = _spatial_pairs(X, channels, cfg)
    pairs = {**_sequence_edges(chain[:n_res], seq_pos[:n_res]),
             RelationKind.SELF_LOOP: (np.arange(n), np.arange(n)),
             RelationKind.SPATIAL: (np.concatenate([i, j]), np.concatenate([j, i]))}
    # one (m, 2) array per kind, in RelationKind order, rows sorted as tuples sort
    edges = {kind: np.stack([s, d], axis=1)[np.lexsort((d, s))] for kind, (s, d) in pairs.items()}
    for arr in (X, channels, elem, node_type, chain, seq_pos, *edges.values()):
        arr.flags.writeable = False
    return HeteroGraph(rec.complex_id, X, channels, elem, node_type, chain, seq_pos,
                       tuple(codes), edges, cfg)


def _sequence_edges(chain: np.ndarray, pos: np.ndarray) -> dict:
    """Per offset's kind, (src, dst) of the residues of one chain id that far apart."""
    key = chain * (pos.max(initial=0) + 3) + pos  # two chains' keys are over 2 apart
    order = np.argsort(key, kind="stable")
    out = {}
    for off, kind in _SEQ_OFFSETS.items():
        lo, hi = (np.searchsorted(key[order], key + off, side) for side in ("left", "right"))
        # source a meets the residues order[lo[a]:hi[a]], hits[a] of them
        hits = hi - lo
        out[kind] = (np.repeat(np.arange(len(key)), hits),
                     order[np.arange(hits.sum()) - np.repeat(np.cumsum(hits) - hi, hits)])
    return out


# Broad-phase margin: covers the rounding of centroids, bounding radii and
# distances, each within a few ulps of the largest coordinate magnitude,
# so no pair the float64 narrow phase would join is ever pruned.
_SLACK_ABS = 1e-6
_SLACK_REL = 1e-9
# Block sizes keep a block's temporaries near 1.5 MB: fast while
# cache-resident, and small enough not to fragment the heap of a process
# that goes on to train or evaluate (19 MB narrow-phase blocks raised the
# peak RSS of graph set-up followed by evaluation by 16% under glibc
# malloc).  A narrow-phase block holds two float64 arrays of 128 x C x C
# channel pairs, 0.2 MB each; blocks twice that size were no faster.
_BLOCK = 1 << 16  # node pairs per broad-phase block
_PAIR_BLOCK = 128 * MAX_CHANNELS * MAX_CHANNELS  # channel pairs per narrow-phase block
# Channel-width classes of the narrow phase: a node of c channels is
# compared over the first WIDTHS[k] >= c of them, so most padding is skipped
_WIDTHS = np.array([1, 4, 8, 11, MAX_CHANNELS])


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


def _spatial_pairs(X: np.ndarray, counts: np.ndarray,
                   cfg: GraphConfig) -> tuple[np.ndarray, np.ndarray]:
    """Unordered node pairs (i < j) joined by the spatial rule, as arrays
    ``i`` and ``j`` in ascending (i, j) order.

    Radius: nodes i, j are joined when some atom pair (a, b) has
    ``np.linalg.norm(a - b) <= radius`` in float64.  Coordinates are held
    as three contiguous x/y/z planes of shape (n, C), so every distance
    is elementwise work on whole arrays rather than a reduction over a
    length-3 axis.  The broad phase (``_candidates``) keeps the pairs with
    ``|c_i - c_j| <= (r_i + r_j) + (radius + slack)``, where ``c`` is a node's
    channel centroid and ``r`` the largest distance from it to the node's
    atoms; ``|a - b| >= |c_i - c_j| - r_i - r_j`` for any such atoms, so a
    pruned pair has none within the radius.  The narrow phase
    (``_joined``) tests each candidate's channel pairs as
    ``sq = (dx*dx + dy*dy) + dz*dz``: the same sum in the same order that
    ``np.linalg.norm`` takes, so ``sq`` is bitwise the norm's square, and
    ``sq <= squared_threshold(radius)`` is exactly ``sqrt(sq) <= radius``
    with no square root taken.
    """
    n = len(counts)
    if n < 2:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    if cfg.spatial_rule == "radius":
        real = np.arange(MAX_CHANNELS) < counts[:, None]  # (n, C)
        planes = X.transpose(1, 0, 2)  # (3, n, C)
        flat = planes[:, real]  # (3, atoms)
        starts = np.cumsum(counts) - counts
        cent = np.add.reduceat(flat, starts, axis=1) / counts
        off = flat - np.repeat(cent, counts, axis=1)
        reach = np.maximum.reduceat(np.sqrt((off * off).sum(axis=0)), starts)
        slack = _SLACK_ABS + _SLACK_REL * np.abs(flat).max()
        i, j = _candidates(cent, reach, cfg.radius, slack)
        hit = _joined(planes, real, counts, i, j, squared_threshold(cfg.radius))
        return i[hit], j[hit]
    # knn on centroids of the real channels (a padded sum adds in another order),
    # symmetrized as a union; the stable sort breaks distance ties by node index
    cent = np.empty((n, 3))
    for c in np.unique(counts):
        cent[counts == c] = X[counts == c, :, :c].mean(axis=2)
    d = np.linalg.norm(cent[:, None, :] - cent[None, :, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    k = min(cfg.k, n - 1)
    a = np.repeat(np.arange(n), k)
    b = np.argsort(d, axis=1, kind="stable")[:, :k].ravel()
    keys = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    return keys // n, keys % n


def _gap(cent: np.ndarray, a, b) -> np.ndarray:
    """The centroid distances of nodes ``a`` and ``b`` (broadcast together)."""
    gap = None
    for axis in cent:  # x, y, then z
        d = axis[a] - axis[b]
        gap = d * d if gap is None else np.add(gap, d * d, out=gap)
    return np.sqrt(gap, out=gap)


def _candidates(cent: np.ndarray, reach: np.ndarray, radius: float,
                slack: float) -> tuple[np.ndarray, np.ndarray]:
    """Node pairs (i < j, ascending) with
    ``|c_i - c_j| <= (reach[i] + reach[j]) + (radius + slack)``.

    Both sides are symmetric in i and j, bit for bit (float addition
    commutes, and the squared differences do not depend on their sign),
    so the test gives one answer whichever end of a pair comes first.  A
    sort-and-sweep over the centroids' x: a pair can pass only if
    ``|x_i - x_j|`` is within its bound, at most ``reach`` of one plus
    the largest ``reach`` and ``radius + slack``, so each row of x-sorted
    nodes meets only the columns after it that lie within that window
    (another ``slack`` covers the rounding of x).  Blocks of about
    ``_BLOCK`` node pairs take the test itself."""
    n = len(reach)
    order = np.argsort(cent[0], kind="stable")
    sorted_cent = cent[:, order]
    x = sorted_cent[0]
    bound = reach[order]
    pad = radius + slack
    window = np.searchsorted(x, x + (bound + (bound.max() + pad + slack)), side="right")
    window = np.maximum.accumulate(window)  # rows p meet columns p + 1 .. window[p] - 1
    rows, cols = [], []
    lo = 0
    while lo < n - 1:
        width = window[lo] - lo  # a block of rows much shorter than the window wastes little
        hi = min(n - 1, lo + max(1, min(_BLOCK // width, width // 4)))
        end = window[hi - 1]
        # row r is sorted node lo + r, column c is sorted node lo + 1 + c: c >= r is after it
        limit = bound[lo:hi, None] + bound[None, lo + 1:end]
        limit += pad
        near = _gap(sorted_cent, np.s_[lo:hi, None], np.s_[None, lo + 1:end]) <= limit
        r, c = np.nonzero(np.triu(near))
        rows.append(r + lo)
        cols.append(c + lo + 1)
        lo = hi
    a, b = order[np.concatenate(rows)], order[np.concatenate(cols)]
    i, j = np.minimum(a, b), np.maximum(a, b)
    ascending = np.lexsort((j, i))
    return i[ascending], j[ascending]


def _joined(planes: np.ndarray, real: np.ndarray, counts: np.ndarray,
            i: np.ndarray, j: np.ndarray, limit: float) -> np.ndarray:
    """Per candidate pair (i[k], j[k]), whether some atom pair is within
    the radius, its squared distance ``<= limit``.

    Candidates are grouped by the width class (``_WIDTHS``) of each end
    and compared over only those channels, in blocks of ``_PAIR_BLOCK``
    channel pairs.  Padding channels hold +inf on the row side and -inf
    on the column side, so every difference that involves one is +inf
    (never NaN) and never joins; no mask is gathered."""
    rows = np.where(real, planes, np.inf)
    cols = np.where(real, planes, -np.inf)
    width = np.searchsorted(_WIDTHS, counts)  # class of each node
    group = width[i] * len(_WIDTHS) + width[j]
    order = np.argsort(group, kind="stable")
    bounds = np.searchsorted(group[order], np.arange(len(_WIDTHS) ** 2 + 1))
    hit = np.zeros(len(i), dtype=bool)
    for g in np.flatnonzero(np.diff(bounds)).tolist():
        wi, wj = _WIDTHS[g // len(_WIDTHS)], _WIDTHS[g % len(_WIDTHS)]
        step = max(1, _PAIR_BLOCK // (wi * wj))
        members = order[bounds[g]:bounds[g + 1]]
        for lo in range(0, len(members), step):
            k = members[lo:lo + step]
            a, b = i[k], j[k]
            d = rows[0, a, :wi][:, :, None] - cols[0, b, :wj][:, None, :]
            sq = d * d
            np.subtract(rows[1, a, :wi][:, :, None], cols[1, b, :wj][:, None, :], out=d)
            sq += np.multiply(d, d, out=d)
            np.subtract(rows[2, a, :wi][:, :, None], cols[2, b, :wj][:, None, :], out=d)
            sq += np.multiply(d, d, out=d)
            hit[k] = (sq <= limit).any(axis=(1, 2))
    return hit


def validate(g: HeteroGraph) -> list[str]:
    """Check every structural invariant; returns violations (empty = valid).
    Edges are read through ``np.asarray``, so hand-built tuple edges are
    checked too.  Spatial problems are listed in ascending edge order."""
    problems = []
    n, c = g.n_nodes, g.channels
    pad = np.arange(MAX_CHANNELS) >= c[:, None]
    node_checks = (
        ((g.chain < 0) & (c != 1), "ligand atom with {} channels"),
        ((c < 1) | (c > MAX_CHANNELS), "channel count {} out of range"),
        (((g.X != 0) & pad[:, None, :]).any(axis=(1, 2)) | ((g.elements != 0) & pad).any(axis=1),
         "padded coordinates or element ids are not 0"),
        (~np.isfinite(g.X).all(axis=(1, 2)), "non-finite coordinates"),
    )
    for i in np.flatnonzero(np.any([bad for bad, _ in node_checks], axis=0)):
        problems += [f"node {i}: " + what.format(c[i]) for bad, what in node_checks if bad[i]]

    edges = {kind: np.asarray(g.edges.get(kind, ()), dtype=np.int64).reshape(-1, 2)
             for kind in RelationKind}
    for kind, p in edges.items():
        keys = np.sort(_row_keys(p, n))
        if (keys[1:] == keys[:-1]).any():
            problems.append(f"{kind.name}: duplicate edges")
        problems += [f"{kind.name}: edge ({s},{d}) out of range"
                     for s, d in p[~_in_range(p, n)].tolist()]
    loops = edges[RelationKind.SELF_LOOP]
    if not ((loops[:, 0] == loops[:, 1]).all()
            and np.array_equal(np.unique(loops[:, 0]), np.arange(n))):
        problems.append("self-loop set is not exactly {(i,i) for every node}")
    residue = g.chain >= 0
    for off, kind in _SEQ_OFFSETS.items():
        s, d = edges[kind][_in_range(edges[kind], n)].T  # the rest are reported above
        bad = np.stack([~(residue[s] & residue[d]), g.chain[s] != g.chain[d],
                        g.seq_pos[d] - g.seq_pos[s] != off])
        problems += [f"{kind.name}: edge ({s[e]},{d[e]}) {_SEQ_PROBLEMS[bad[:, e].argmax()]}"
                     for e in np.flatnonzero(bad.any(axis=0))]
    # reverses looked up in sorted keys: np.isin's table kind takes O(n^2) bytes, and
    # its sort kind with np.unique here read 11% more ingest-large peak RSS
    p = edges[RelationKind.SPATIAL]
    keys, back = np.sort(_row_keys(p, n)), _row_keys(p[:, ::-1], n)
    found = keys[np.searchsorted(keys, back).clip(max=len(keys) - 1)] == back
    # a self edge is its own reverse, so each distinct edge has one problem at most
    problems += [f"SPATIAL: self edge ({s},{d})" if s == d else
                 f"SPATIAL: edge ({s},{d}) missing its reverse"
                 for s, d in np.unique(p[(p[:, 0] == p[:, 1]) | ~found], axis=0).tolist()]
    return problems


def _in_range(p: np.ndarray, n: int) -> np.ndarray:
    """Per row of ``p``, whether both ends are node indices."""
    if not len(p) or (p.min() >= 0 and p.max() < n):
        return np.ones(len(p), dtype=bool)
    return ((p >= 0) & (p < n)).all(axis=1)


def _row_keys(p: np.ndarray, n: int) -> np.ndarray:
    """One int64 per row, equal exactly where the rows are: ``src * n + dst``,
    over the ranks of the values if an end is no node index."""
    if not _in_range(p, n).all():
        values, ranks = np.unique(p, return_inverse=True)
        p, n = ranks.reshape(-1, 2), len(values)
    return p[:, 0] * n + p[:, 1]
