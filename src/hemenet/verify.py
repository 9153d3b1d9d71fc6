"""Executable checks of the architecture's symmetry guarantees.

Random full-atom graphs are pushed through the encoder alongside
rigid-motion copies (rotations, reflections, translations).  Feature
outputs must match to tolerance and coordinate outputs must transform
with the motion; the task readout must be pose-invariant bitwise in
float64.  The encoder's fused relation and coordinate-message ops are
checked channel count by channel count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .datasets import AFFINITY_TASKS, _synthetic_chain
from .errors import ConfigError
from .geom import masked_centroid, normalized_flat_relation, pooling_matrix, pooling_table
from .graph import GraphConfig, HeteroGraph, build_graph
from .model import (
    TASKS,
    HeMeNetConfig,
    encode,
    init_params,
    pack_graph,
    readout_and_heads,
)
from .numcore import Tensor, coordinate_message, no_grad
from .structio import MAX_CHANNELS, Atom, ComplexRecord

_LIG_ELEMENTS = ("C", "N", "O", "S", "P", "F", "Cl", "Br")


def random_complex(rng: np.random.Generator, max_nodes: int = 12) -> ComplexRecord:
    """Small random complex: one chain of 3+ residues plus 2-4 ligand
    atoms, total node count <= max_nodes."""
    if max_nodes < 5:
        raise ConfigError("random_complex needs max_nodes >= 5")
    n_lig = int(rng.integers(2, min(4, max_nodes - 3) + 1))
    n_res = int(rng.integers(3, max_nodes - n_lig + 1))
    chain = _synthetic_chain(rng, "A", "RNDA", n_res, rng.normal(scale=3.0, size=3))
    anchor = chain.residues.atoms.xyz[0]
    ligand = tuple(
        Atom("", _LIG_ELEMENTS[rng.integers(len(_LIG_ELEMENTS))],
             tuple(float(v) for v in anchor + rng.normal(scale=2.0, size=3)))
        for _ in range(n_lig))
    return ComplexRecord("rnd", (chain,), ligand, {"A": "receptor"})


def random_graph(rng: np.random.Generator, max_nodes: int = 12,
                 cfg: GraphConfig = GraphConfig()) -> HeteroGraph:
    """Random graph with every relation kind populated."""
    for _ in range(50):
        g = build_graph(random_complex(rng, max_nodes), cfg)
        if all(len(e) for e in g.edges.values()):
            return g
    raise ConfigError("could not draw a graph covering all relation kinds")


def random_rigid_motion(rng: np.random.Generator,
                        reflect: bool | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal Q (det +1 or -1) and translation t."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    want = rng.random() < 0.5 if reflect is None else reflect
    if (np.linalg.det(q) < 0) != want:
        q = q.copy()
        q[:, 0] = -q[:, 0]
    return q, rng.normal(scale=10.0, size=3)


def transform_graph(g: HeteroGraph, q: np.ndarray, t: np.ndarray) -> HeteroGraph:
    """``g`` moved by ``x -> q @ x + t``; padded channels stay +0.0."""
    real = np.arange(MAX_CHANNELS) < g.channels[:, None, None]
    return replace(g, X=np.where(real, q @ g.X + t[:, None], 0.0))


@dataclass
class SuiteReport:
    name: str
    trials: int
    dtype: str
    worst: dict  # check name -> worst-case deviation
    tol: float
    ok: bool
    seconds: float

    def lines(self) -> list[str]:
        status = "pass" if self.ok else "FAIL"
        out = [f"[{status}] {self.name}: {self.trials} trials, "
               f"dtype {self.dtype}, tolerance {self.tol:g}"]
        for check in sorted(self.worst):
            out.append(f"    {check}: worst deviation {self.worst[check]:.3e}")
        out.append(f"    elapsed {self.seconds:.1f}s")
        return out


def _tolerance(dtype: str, tol: float | None) -> float:
    if tol is not None:
        return tol
    return 1e-10 if dtype == "float64" else 1e-4


def equivariance_suite(n_graphs: int = 100, n_motions: int = 10, seed: int = 0,
                       dtype: str = "float64", tol: float | None = None,
                       cfg: HeMeNetConfig | None = None, store=None) -> SuiteReport:
    """Feature invariance and coordinate equivariance of the encoder
    under random rigid motions, reflections included.  Equivariance is
    measured on the real channels; every padded channel of every output
    must be exactly zero."""
    t0 = time.perf_counter()
    tol = _tolerance(dtype, tol)
    if cfg is None:
        cfg = HeMeNetConfig(L=2, d=16, dtype=dtype,
                            task_dims={"ec": 8, "mf": 8, "bp": 8, "cc": 8})
    if store is None:
        store = init_params(cfg, seed=seed + 1)
    rng = np.random.default_rng(seed)
    np_dtype = cfg.np_dtype
    feat_dev = 0.0
    coord_dev = 0.0
    padded_nonzeros = 0
    n_reflections = 0
    with no_grad():
        for i in range(n_graphs):
            g = random_graph(rng)
            pg = pack_graph(g, np_dtype)
            H0, X0 = encode(pg, store, cfg)
            real = np.broadcast_to(pg.mask[:, None, :] == 1, X0.shape)
            padded_nonzeros += int(np.count_nonzero(X0.data[~real]))
            for j in range(n_motions):
                # guarantee reflections appear: odd draws flip
                q, t = random_rigid_motion(rng, reflect=(j % 2 == 1) or None)
                if np.linalg.det(q) < 0:
                    n_reflections += 1
                pg2 = pack_graph(transform_graph(g, q, t), np_dtype)
                H1, X1 = encode(pg2, store, cfg)
                feat_dev = max(feat_dev, float(np.max(np.abs(H1.data - H0.data))))
                expect = q.astype(np_dtype) @ X0.data + t.astype(np_dtype)[None, :, None]
                coord_dev = max(coord_dev, float(np.max(np.abs(X1.data - expect)[real])))
                padded_nonzeros += int(np.count_nonzero(X1.data[~real]))
    worst = {"feature_invariance": feat_dev, "coordinate_equivariance": coord_dev,
             "padded_channel_nonzeros": float(padded_nonzeros),
             "reflections_exercised": float(n_reflections)}
    ok = feat_dev <= tol and coord_dev <= tol and padded_nonzeros == 0 and n_reflections > 0
    return SuiteReport("encoder rigid-motion equivariance", n_graphs * n_motions,
                       dtype, worst, tol, ok, time.perf_counter() - t0)


def primitives_suite(trials: int = 50, seed: int = 0, dtype: str = "float64",
                tol: float | None = None) -> SuiteReport:
    """Relation invariance, coordinate-message equivariance, and pooled
    output length, exercised for every channel count 1..14.  The fused
    ops run as the encoder runs them, on one edge from a node of cj
    channels to one of ci, unmasked on arbitrary padded coordinates:
    zeroed attribute rows must make the relation blind to them, and the
    receiver's row of ``pooling_table``, read as the encoder reads it,
    must leave the message past the receiver's count exactly 0.  The
    message is taken around the sender's ``masked_centroid``, so a rigid
    motion must rotate it and its translation cancel."""
    t0 = time.perf_counter()
    tol = _tolerance(dtype, tol)
    np_dtype = np.float64 if dtype == "float64" else np.float32
    rng = np.random.default_rng(seed)
    d_A = HeMeNetConfig().d_A
    edge, one = np.array([0]), Tensor(np.ones(1, dtype=np_dtype))
    inv_dev = 0.0
    equi_dev = 0.0
    padding_leaks = 0
    for trial in range(trials):
        ci = int(rng.integers(1, 15))
        cj = int(rng.integers(1, 15))
        # trials 0..13 pin ci to cover every channel count exhaustively
        if trial < 14:
            ci = trial + 1
        Xi = rng.normal(size=(3, 14)).astype(np_dtype)
        Xj = rng.normal(size=(3, 14)).astype(np_dtype)
        wi = np.zeros(14, dtype=np_dtype)
        wi[:ci] = 1
        wj = np.zeros(14, dtype=np_dtype)
        wj[:cj] = 1
        Ai = rng.normal(size=(14, d_A)).astype(np_dtype) * wi[:, None]
        Aj = rng.normal(size=(14, d_A)).astype(np_dtype) * wj[:, None]
        A_nodes = Tensor(np.stack([Ai, Aj]))
        q, t = random_rigid_motion(rng)
        q = q.astype(np_dtype)
        t = t.astype(np_dtype)

        def relation(X_i, X_j):
            return normalized_flat_relation(Tensor(X_i[None]), Tensor(X_j[None]), A_nodes,
                                            edge, edge + 1, HeMeNetConfig.eps).data

        R0 = relation(Xi, Xj)
        R1 = relation(q @ Xi + t[:, None], q @ Xj + t[:, None])
        inv_dev = max(inv_dev, float(np.max(np.abs(R1 - R0))))
        # the encoder's padded coordinates are +0.0: the same relation
        padding_leaks += int(not np.array_equal(relation(Xi * wi, Xj * wj), R0))

        # the receiver's table row alone must zero the message's padded channels
        s = Tensor(rng.normal(size=(1, 14)).astype(np_dtype))

        def message(X_i, X_j):
            centroid = masked_centroid(Tensor((X_j * wj)[None]), wj[None])  # +0.0 padding
            return coordinate_message(Tensor(X_i[None]), centroid, s, pooling_table(np_dtype),
                                      [ci], one, edge, edge, 1).data[0]

        Y0 = message(Xi, Xj)
        Y1 = message(q @ Xi + t[:, None], q @ Xj + t[:, None])
        equi_dev = max(equi_dev, float(np.max(np.abs(Y1 - q @ Y0))))
        padding_leaks += int(np.any(Y0[:, ci:]) or np.any(Y1[:, ci:]))
    length_mismatches = sum(pooling_matrix(c).shape != (14, c) for c in range(1, 15))
    worst = {"relation_invariance": inv_dev, "scaling_equivariance": equi_dev,
             "pooled_length_mismatches": float(length_mismatches),
             "padded_channel_leaks": float(padding_leaks)}
    ok = inv_dev <= tol and equi_dev <= tol and length_mismatches == 0 and padding_leaks == 0
    return SuiteReport("relation/scaling primitives", trials, dtype, worst, tol,
                       ok, time.perf_counter() - t0)


def readout_suite(n_graphs: int = 20, n_motions: int = 5, seed: int = 0,
                  cfg: HeMeNetConfig | None = None, store=None) -> SuiteReport:
    """Bitwise pose-invariance of the readout stage in float64.

    The encoder's feature output is pose-invariant to tolerance (see
    equivariance_suite); the readout must add no pose dependence at
    all.  Feeding one feature matrix through the readout with scopes
    and node order taken from each transformed pose must reproduce every
    task's logits bit for bit, every chain pooled for every task.
    """
    t0 = time.perf_counter()
    if cfg is None:
        cfg = HeMeNetConfig(L=2, d=16, dtype="float64",
                            task_dims={"ec": 8, "mf": 8, "bp": 8, "cc": 8})
    if cfg.dtype != "float64":
        raise ConfigError("readout bitwise check requires float64")
    if store is None:
        store = init_params(cfg, seed=seed + 1)
    rng = np.random.default_rng(seed)
    mismatches = 0
    with no_grad():
        for i in range(n_graphs):
            g = random_graph(rng)
            pg = pack_graph(g, np.float64)
            H, _ = encode(pg, store, cfg)
            chains = tuple(sorted(k for k in pg.scopes if k))
            pools = {t: ("",) if t in AFFINITY_TASKS else chains for t in TASKS}
            base = _logits_bytes(readout_and_heads(H, pg.scopes, pools, store, cfg))
            for _ in range(n_motions):
                q, t = random_rigid_motion(rng)
                pg2 = pack_graph(transform_graph(g, q, t), np.float64)
                again = _logits_bytes(readout_and_heads(H, pg2.scopes, pools, store, cfg))
                if again != base:
                    mismatches += 1
    worst = {"bitwise_mismatches": float(mismatches)}
    return SuiteReport("readout pose invariance (bitwise)", n_graphs * n_motions,
                       "float64", worst, 0.0, mismatches == 0,
                       time.perf_counter() - t0)


def _logits_bytes(logits: dict) -> bytes:
    return b"".join(logits[task].data.tobytes() for task in sorted(logits))


def run_all(trials: int = 100, seed: int = 0, dtype: str = "float64",
            tol: float | None = None, cfg: HeMeNetConfig | None = None,
            store=None) -> list[SuiteReport]:
    reports = [
        equivariance_suite(n_graphs=trials, n_motions=10, seed=seed, dtype=dtype,
                           tol=tol, cfg=cfg, store=store),
        primitives_suite(trials=max(trials // 2, 14), seed=seed, dtype=dtype, tol=tol),
    ]
    if dtype == "float64":
        reports.append(readout_suite(n_graphs=max(trials // 5, 5), seed=seed,
                                     cfg=cfg, store=store))
    return reports
