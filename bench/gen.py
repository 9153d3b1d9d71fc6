"""Seeded synthetic inputs for the benchmark workloads.

Complex *shapes* (chain lengths, residue composition, ligand sizes, label
patterns) are fixed per workload; the seed only permutes residue order
and draws coordinates and label bits.  Work per run therefore depends on
the seed only through the geometry, which keeps timings comparable
across seeds while the inputs themselves differ.

Chains are compact globules: residues sit on a jittered cubic lattice
at protein-like density, threaded into a chain by a greedy
nearest-neighbour walk, so sequence neighbours are spatial neighbours.
Chains of one complex sit side by side, giving inter-chain contacts
through their side chains, and a ligand sits at the first residue of
the first chain, on its surface.
"""

from __future__ import annotations

import numpy as np

from hemenet.datasets import PROPERTY_TASKS, SampleLabels
from hemenet.structio import RESIDUE_ATOM_ORDER, Atom, Chain, ComplexRecord, Residue

RESIDUE_NAMES = tuple(sorted(RESIDUE_ATOM_ORDER))
LIGAND_ELEMENTS = ("C", "C", "C", "N", "O", "O", "S", "P", "F", "Cl")
RESIDUE_VOLUME = 140.0  # cubic Angstrom per residue: sets globule density


def _element(atom_name: str) -> str:
    return atom_name[0]


def lattice_sites(n: int) -> np.ndarray:
    """(n, 3) residue sites for an n-residue chain: the n points of a cubic
    lattice (one site per RESIDUE_VOLUME) nearest the origin, threaded
    by a greedy nearest-neighbour walk.  A function of n alone, so the
    contact count of a chain barely depends on the seed."""
    spacing = RESIDUE_VOLUME ** (1.0 / 3.0)
    k = int(np.ceil((3.0 * n / (4.0 * np.pi)) ** (1.0 / 3.0))) + 2
    axis = np.arange(-k, k + 1, dtype=float)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    dist = np.linalg.norm(grid, axis=1)
    pts = grid[np.lexsort((grid[:, 2], grid[:, 1], grid[:, 0], dist))[:n]] * spacing
    order = [int(np.argmax(pts[:, 0]))]
    left = np.ones(n, dtype=bool)
    left[order[0]] = False
    for _ in range(n - 1):
        d = np.sum((pts - pts[order[-1]]) ** 2, axis=1)
        d[~left] = np.inf
        nxt = int(np.argmin(d))
        order.append(nxt)
        left[nxt] = False
    return pts[order]


def _radius(n: int) -> float:
    return (3.0 * n * RESIDUE_VOLUME / (4.0 * np.pi)) ** (1.0 / 3.0)


def _residue(rng, name: str, ca: np.ndarray) -> Residue:
    names = RESIDUE_ATOM_ORDER[name]
    out = rng.normal(size=3)
    out /= np.linalg.norm(out)
    atoms = []
    for k, atom_name in enumerate(names):
        if atom_name == "CA":
            xyz = ca
        elif k < 4:  # backbone N, C, O around the alpha carbon
            xyz = ca + rng.normal(scale=0.9, size=3)
        else:  # side chain extends outward from the alpha carbon
            xyz = ca + out * (1.5 + 0.55 * (k - 4)) + rng.normal(scale=0.5, size=3)
        atoms.append(Atom(atom_name, _element(atom_name), tuple(float(v) for v in xyz)))
    return Residue(name, tuple(atoms))


def make_complex(rng, complex_id: str, chain_lengths, n_ligand: int = 0) -> ComplexRecord:
    """A complex with one globular chain per entry of ``chain_lengths``.

    The residue composition of a chain depends only on its length (the
    first n entries of a cyclic walk over the 20 standard types), so the
    heavy-atom count is a function of the shape alone.
    """
    chains = []
    offset = 0.0
    for c, n in enumerate(chain_lengths):
        if c:  # chains sit in a row along x, surfaces 1 A apart
            offset += _radius(chain_lengths[c - 1]) + _radius(n) + 1.0
        names = [RESIDUE_NAMES[i % len(RESIDUE_NAMES)] for i in range(n)]
        names = [names[i] for i in rng.permutation(n)]
        cas = lattice_sites(n) + rng.normal(scale=0.5, size=(n, 3)) + [offset, 0.0, 0.0]
        cid = chr(ord("A") + c)
        chains.append(Chain(cid, f"{complex_id}{cid}",
                            tuple(_residue(rng, nm, ca) for nm, ca in zip(names, cas))))
    ligand = ()
    if n_ligand:
        surface = np.asarray(chains[0].residues[0].atoms[0].xyz)
        ligand = tuple(
            Atom("", LIGAND_ELEMENTS[int(rng.integers(len(LIGAND_ELEMENTS)))],
                 tuple(float(v) for v in surface + rng.normal(scale=2.0, size=3)))
            for _ in range(n_ligand))
    partition = {ch.chain_id: ("ligand_side" if c and c == len(chains) - 1 else "receptor")
                 for c, ch in enumerate(chains)}
    return ComplexRecord(complex_id, tuple(chains), ligand, partition)


def random_bits(rng, dim: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=np.uint8)
    vec[rng.choice(dim, size=min(dim, int(rng.integers(1, 9))), replace=False)] = 1
    return vec


def make_labels(rng, rec: ComplexRecord, affinity: str | None, tasks_per_chain,
                dims: dict) -> SampleLabels:
    """Labels with one optional affinity and, per chain, the property
    tasks named in ``tasks_per_chain`` (a list aligned with the chains)."""
    labels = SampleLabels()
    if affinity is not None:
        setattr(labels, affinity, float(np.clip(rng.normal(6.0, 1.5), 0.1, 15.9)))
    for ch, tasks in zip(rec.chains, tasks_per_chain):
        labels.chain_props[ch.chain_id] = {
            t: (random_bits(rng, dims[t]) if t in tasks else None) for t in PROPERTY_TASKS}
    labels.validate(dims)
    return labels
