"""Structure ingestion: fixed-column PDB subset parsing, the canonical
JSON interchange format, and the heavy-atom size filter.

All coordinates are in Angstrom.  Hydrogens are excluded everywhere;
the 14-channel convention counts heavy atoms only.  A record holds its
atoms as read-only arrays, a structure of arrays as in Biotite's
``AtomArray``: per chain the residue type ids and atom counts, then
every atom's name, element id and float64 coordinates, residue after
residue; the ligand atoms likewise, all named "".  There is one schema
check: every builder (the JSON and PDB readers, the synthetic
generators, the constructors) hands columns to ``residue_arrays`` and
``ligand_arrays``, which check them in bulk.  Only when a check refuses
is a chain's (or the ligand's) input walked value by value, to name the
first bad value in document order as the JSON reader names it.
Non-finite coordinates pass the packer; ``validate_record`` is the one
check that refuses them.  Records are read only as arrays.  ``Atom`` and
``Residue`` remain only as object input to ``Chain`` and ``ComplexRecord``
and as one view, ``chain.residues[i]``, both for the benchmark's input
generator (bench/gen.py) until it fills columns.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain as chained
from operator import itemgetter

import numpy as np

from .errors import ParseError, SchemaError

log = logging.getLogger(__name__)

# -- element vocabulary -----------------------------------------------------

ELEMENTS = ("C", "N", "O", "S", "P", "F", "Cl", "Br", "I", "B", "Se", "metal", "other")
ELEMENT_INDEX = {sym: i for i, sym in enumerate(ELEMENTS)}

_METALS = {
    "Li", "Na", "K", "Rb", "Cs", "Be", "Mg", "Ca", "Sr", "Ba",
    "Sc", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
    "Y", "Zr", "Nb", "Mo", "Tc", "Ru", "Rh", "Pd", "Ag", "Cd",
    "La", "Ce", "Hf", "Ta", "W", "Re", "Os", "Ir", "Pt", "Au",
    "Hg", "Al", "Ga", "In", "Tl", "Sn", "Pb", "Bi",
}
_OTHER_KNOWN = {"He", "Ne", "Ar", "Kr", "Xe", "Rn", "Si", "Ge", "As", "Sb", "Te", "At", "Po"}
_HYDROGENS = {"H", "D", "T"}


@lru_cache(maxsize=1024)
def classify_element(symbol: str) -> str | None:
    """Map a raw element symbol onto the vocabulary, or None if unknown.

    Hydrogen isotopes return None: they are excluded from all records.
    Memoized per symbol: a structure repeats a handful of symbols.
    """
    sym = symbol.strip()
    if not sym:
        return None
    sym = sym[0].upper() + sym[1:].lower()
    if sym in _HYDROGENS:
        return None
    if sym in ELEMENT_INDEX:
        return sym
    if sym == "Metal":
        return "metal"
    if sym == "Other":
        return "other"
    if sym in _METALS:
        return "metal"
    if sym in _OTHER_KNOWN:
        return "other"
    return None


# -- canonical residue channel layout ---------------------------------------

# Heavy atoms per residue: backbone N, CA, C, O, then side chain in the
# standard PDB atom-name order.  The longest (TRP) has 14, fixing C=14.
RESIDUE_ATOM_ORDER: dict[str, tuple[str, ...]] = {
    "ALA": ("N", "CA", "C", "O", "CB"),
    "ARG": ("N", "CA", "C", "O", "CB", "CG", "CD", "NE", "CZ", "NH1", "NH2"),
    "ASN": ("N", "CA", "C", "O", "CB", "CG", "OD1", "ND2"),
    "ASP": ("N", "CA", "C", "O", "CB", "CG", "OD1", "OD2"),
    "CYS": ("N", "CA", "C", "O", "CB", "SG"),
    "GLN": ("N", "CA", "C", "O", "CB", "CG", "CD", "OE1", "NE2"),
    "GLU": ("N", "CA", "C", "O", "CB", "CG", "CD", "OE1", "OE2"),
    "GLY": ("N", "CA", "C", "O"),
    "HIS": ("N", "CA", "C", "O", "CB", "CG", "ND1", "CD2", "CE1", "NE2"),
    "ILE": ("N", "CA", "C", "O", "CB", "CG1", "CG2", "CD1"),
    "LEU": ("N", "CA", "C", "O", "CB", "CG", "CD1", "CD2"),
    "LYS": ("N", "CA", "C", "O", "CB", "CG", "CD", "CE", "NZ"),
    "MET": ("N", "CA", "C", "O", "CB", "CG", "SD", "CE"),
    "PHE": ("N", "CA", "C", "O", "CB", "CG", "CD1", "CD2", "CE1", "CE2", "CZ"),
    "PRO": ("N", "CA", "C", "O", "CB", "CG", "CD"),
    "SER": ("N", "CA", "C", "O", "CB", "OG"),
    "THR": ("N", "CA", "C", "O", "CB", "OG1", "CG2"),
    "TRP": ("N", "CA", "C", "O", "CB", "CG", "CD1", "CD2", "NE1", "CE2",
            "CE3", "CZ2", "CZ3", "CH2"),
    "TYR": ("N", "CA", "C", "O", "CB", "CG", "CD1", "CD2", "CE1", "CE2", "CZ", "OH"),
    "VAL": ("N", "CA", "C", "O", "CB", "CG1", "CG2"),
}
RESIDUE_TYPES = tuple(sorted(RESIDUE_ATOM_ORDER)) + ("UNK",)
RESIDUE_INDEX = {name: i for i, name in enumerate(RESIDUE_TYPES)}
MAX_CHANNELS = 14

# waters and common crystallization additives, dropped at parse time
_SOLVENT = {
    "HOH", "WAT", "DOD", "SO4", "PO4", "GOL", "EDO", "PEG", "PGE",
    "ACT", "DMS", "FMT", "NO3", "IMD", "MES", "TRS", "BME", "IPA", "MPD",
}


# -- record types ------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    name: str
    element: str  # element symbol, as classify_element reads it
    xyz: tuple[float, float, float]


@dataclass(frozen=True)
class Residue:
    residue_type: str  # three-letter code or UNK
    atoms: tuple[Atom, ...]


@dataclass(frozen=True, eq=False)
class AtomArrays:
    """Atoms as read-only arrays."""
    names: np.ndarray  # (atoms,) str objects
    elements: np.ndarray  # (atoms,) int8 ELEMENT_INDEX ids
    xyz: np.ndarray  # (atoms, 3) float64

    def __post_init__(self):
        for arr in (self.names, self.elements, self.xyz):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other):
        if not isinstance(other, AtomArrays):
            return NotImplemented
        return (np.array_equal(self.names, other.names)
                and np.array_equal(self.elements, other.elements)
                and np.array_equal(self.xyz, other.xyz))


@dataclass(frozen=True, eq=False)
class ResidueArrays:
    """A chain's residues as read-only arrays: residue ``r`` owns the
    ``counts[r]`` atoms that follow those of residues ``0..r-1``."""
    types: np.ndarray  # (residues,) int8 RESIDUE_INDEX ids
    counts: np.ndarray  # (residues,) int64 atoms per residue
    atoms: AtomArrays

    def __post_init__(self):
        for arr in (self.types, self.counts):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.types)

    __iter__ = None  # not a sequence: the view below reads one residue

    def __getitem__(self, i: int) -> Residue:
        """Residue ``i`` as a ``Residue`` of ``Atom`` objects: the one view,
        which bench/gen.py:96 reads.  It goes with ROADMAP item 4's bench
        change, when gen.py fills columns."""
        i = range(len(self))[i]
        lo = int(self.counts[:i].sum())
        at = slice(lo, lo + int(self.counts[i]))
        return Residue(RESIDUE_TYPES[self.types[i]], tuple(
            Atom(name, ELEMENTS[e], tuple(xyz)) for name, e, xyz in zip(
                self.atoms.names[at].tolist(), self.atoms.elements[at].tolist(),
                self.atoms.xyz[at].tolist())))

    def __eq__(self, other):
        if not isinstance(other, ResidueArrays):
            return NotImplemented
        return (np.array_equal(self.types, other.types)
                and np.array_equal(self.counts, other.counts) and self.atoms == other.atoms)


@dataclass(frozen=True)
class Chain:
    chain_id: str
    uniprot_id: str | None
    residues: ResidueArrays  # or Residue objects, packed on construction

    def __post_init__(self):
        if not isinstance(self.residues, ResidueArrays):
            residues = tuple(self.residues)
            atoms = [a for res in residues for a in res.atoms]
            object.__setattr__(self, "residues", residue_arrays(
                [res.residue_type for res in residues], [len(res.atoms) for res in residues],
                [a.name for a in atoms], [a.element for a in atoms], [list(a.xyz) for a in atoms],
                f"chain {self.chain_id!r}: residues"))


@dataclass(frozen=True)
class ComplexRecord:
    complex_id: str
    chains: tuple[Chain, ...]
    ligand_atoms: AtomArrays  # or Atom objects, packed on construction
    partition: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.ligand_atoms, AtomArrays):
            atoms = tuple(self.ligand_atoms)
            object.__setattr__(self, "ligand_atoms", ligand_arrays(
                [a.element for a in atoms], [list(a.xyz) for a in atoms]))

    def heavy_atom_count(self) -> int:
        return sum(len(ch.residues.atoms) for ch in self.chains) + len(self.ligand_atoms)


# -- the column packer: the one schema check ----------------------------------


def residue_arrays(types, counts, names, symbols, xyz, where: str) -> ResidueArrays:
    """A chain's residues from columns: each residue's type code and atom
    count, then residue after residue each atom's name, element symbol and
    ``[x, y, z]``.  A value the schema refuses raises the JSON reader's
    SchemaError under ``where``; a non-finite coordinate is kept, for
    ``validate_record`` to report."""
    ids = [RESIDUE_INDEX.get(t) if isinstance(t, str) else None for t in types]
    atoms = _atom_columns(names, symbols, xyz)
    if atoms is None or None in ids:
        ends = np.cumsum(counts, dtype=np.int64).tolist()
        flat = [{"name": n, "element": e, "xyz": v} for n, e, v in zip(names, symbols, xyz)]
        _raise_first_problem([{"type": t, "atoms": flat[lo:hi]}
                              for t, lo, hi in zip(types, [0] + ends[:-1], ends)],
                             where, residues=True)
    return ResidueArrays(np.array(ids, dtype=np.int8), np.array(counts, dtype=np.int64), atoms)


def ligand_arrays(symbols, xyz) -> AtomArrays:
    """Ligand atoms from columns, as ``residue_arrays`` packs residue atoms
    under ``$.ligand_atoms``; every ligand atom is named ""."""
    atoms = _atom_columns(None, symbols, xyz)
    if atoms is None:
        _raise_first_problem([{"element": e, "xyz": v} for e, v in zip(symbols, xyz)],
                             "$.ligand_atoms", residues=False)
    return atoms


def _atom_columns(names: list | None, symbols: list, xyz: list) -> AtomArrays | None:
    """Atoms from columns, or None if a value breaks the schema: names
    (None for "" each) and element symbols are strings, the symbols ones
    ``classify_element`` knows, and each ``xyz`` is a list of three real
    numbers.  Each check runs once over all values."""
    names = [""] * len(symbols) if names is None else names
    if not (all(issubclass(t, str) for t in {*map(type, names), *map(type, symbols)})
            and set(map(type, xyz)) <= {list} and set(map(len, xyz)) <= {3}):
        return None
    coords = list(chained.from_iterable(xyz))
    if not all(map(_real_type, set(map(type, coords)))):
        return None
    ids = {sym: ELEMENT_INDEX.get(classify_element(sym), -1) for sym in set(symbols)}
    try:  # an int is read as float(v) is; past the float range, it has no float
        coords = np.array(coords, dtype=np.float64).reshape(-1, 3)
    except OverflowError:
        return None
    if -1 in ids.values():
        return None
    return AtomArrays(np.fromiter(names, object, len(names)),
                      np.fromiter(map(ids.__getitem__, symbols), np.int8, len(symbols)), coords)


def _real_type(t: type) -> bool:
    """Whether values of type ``t`` are numbers; bools are not."""
    return t is not bool and issubclass(t, (int, float, np.integer, np.floating))


def validate_record(rec: ComplexRecord) -> None:
    """Raise SchemaError on the first broken record invariant, in
    document order: chains (each residue, then each of its atoms), then
    the ligand atoms, then the partition."""
    if not rec.chains and not len(rec.ligand_atoms):
        raise SchemaError("$", "record has no chains and no ligand atoms")
    chain_ids = set()
    for ci, ch in enumerate(rec.chains):
        if ch.chain_id in chain_ids:
            raise SchemaError(f"$.chains[{ci}].chain_id", f"duplicate chain id {ch.chain_id!r}")
        chain_ids.add(ch.chain_id)
        if not len(ch.residues):
            raise SchemaError(f"$.chains[{ci}]", "chain has no residues")
        _check_residues(ch.residues, f"$.chains[{ci}].residues")
    lig = rec.ligand_atoms
    bad = np.flatnonzero(~np.isfinite(lig.xyz).all(axis=1))
    if len(bad):
        raise SchemaError(f"$.ligand_atoms[{bad[0]}]",
                          f"non-finite or malformed coordinates {tuple(lig.xyz[bad[0]].tolist())}")
    if set(rec.partition) != chain_ids:
        raise SchemaError("$.partition",
                          f"must cover exactly the chain ids {sorted(chain_ids)}")
    for cid, side in rec.partition.items():
        if side not in ("receptor", "ligand_side"):
            raise SchemaError(f"$.partition.{cid}", f"invalid side {side!r}")


def _check_residues(res: ResidueArrays, where: str) -> None:
    """The first residue with no atoms, or atom with non-finite coordinates
    or a name repeated within its residue, of ``res`` named ``where``."""
    counts, atoms = res.counts, res.atoms
    residue = np.repeat(np.arange(len(counts)), counts)  # of each atom
    nonfinite = ~np.isfinite(atoms.xyz).all(axis=1)
    bad = nonfinite | _repeated_names(atoms.names, residue)
    first_atom = int(bad.argmax()) if bad.any() else None
    empty = np.flatnonzero(counts == 0)
    if len(empty) and (first_atom is None or empty[0] < residue[first_atom]):
        raise SchemaError(f"{where}[{empty[0]}]", "residue has no resolved heavy atoms")
    if first_atom is None:
        return
    ri = residue[first_atom]
    path = f"{where}[{ri}].atoms[{first_atom - int(counts[:ri].sum())}]"
    if nonfinite[first_atom]:
        raise SchemaError(path, "non-finite or malformed coordinates "
                                f"{tuple(atoms.xyz[first_atom].tolist())}")
    raise SchemaError(path, f"duplicate atom name {atoms.names[first_atom]!r}")


def _repeated_names(names: np.ndarray, residue: np.ndarray) -> np.ndarray:
    """Per atom, whether an earlier atom of its residue has its name."""
    names = names.tolist()
    codes = {name: k for k, name in enumerate(set(names))}
    key = residue * max(len(codes), 1) + np.fromiter(map(codes.__getitem__, names), np.int64,
                                                     len(names))
    order = np.argsort(key, kind="stable")  # equal keys keep document order
    repeated = np.zeros(len(names), dtype=bool)
    repeated[order[1:][key[order][1:] == key[order][:-1]]] = True
    return repeated


# -- PDB subset parser --------------------------------------------------------


def _pdb_element(line: str, lineno: int) -> str | None:
    """Element from columns 77-78, falling back to the atom-name field."""
    sym = line[76:78].strip() if len(line) >= 78 else ""
    if not sym:
        name = line[12:16]
        # names like " CA ", "1HB "; first alphabetic char is the element
        for ch in name:
            if ch.isalpha():
                sym = ch
                break
    if not sym:
        raise ParseError(f"line {lineno}: cannot determine element")
    return classify_element(sym)


def _pdb_float(line: str, lo: int, hi: int, what: str, lineno: int) -> float:
    raw = line[lo:hi]
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"line {lineno}: bad {what} field {raw.strip()!r}") from None


def parse_pdb_subset(text: str, complex_id: str = "complex") -> ComplexRecord:
    """Parse fixed-column ATOM/HETATM records into a ComplexRecord.

    First model wins; hydrogens, waters and common additives are
    dropped; altloc conflicts resolve by highest occupancy then
    first-seen; HETATM atoms go to ligand_atoms.  Chains default to the
    receptor side of the partition.
    """
    chains: dict[str, dict] = {}
    ligand: dict[tuple, tuple] = {}  # key -> ((element, xyz), occupancy)
    seen_model = False
    n_atom_lines = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        tag = line[:6].strip()
        if tag == "MODEL":
            if seen_model:
                break
            seen_model = True
            continue
        if tag == "ENDMDL":
            break
        if tag not in ("ATOM", "HETATM"):
            continue
        if len(line) < 54:
            raise ParseError(f"line {lineno}: truncated atom record")
        n_atom_lines += 1
        res_name = line[17:20].strip()
        if res_name in _SOLVENT:
            continue
        element = _pdb_element(line, lineno)
        if element is None:
            continue  # hydrogen or unrecognizable symbol
        x = _pdb_float(line, 30, 38, "x coordinate", lineno)
        y = _pdb_float(line, 38, 46, "y coordinate", lineno)
        z = _pdb_float(line, 46, 54, "z coordinate", lineno)
        occ_raw = line[54:60].strip()
        try:
            occupancy = float(occ_raw) if occ_raw else 1.0
        except ValueError:
            raise ParseError(f"line {lineno}: bad occupancy field {occ_raw!r}") from None
        atom_name = line[12:16].strip()
        atom = (element, [x, y, z])
        chain_id = line[21].strip() or "_"
        try:
            res_seq = int(line[22:26])
        except ValueError:
            raise ParseError(f"line {lineno}: bad residue number {line[22:26].strip()!r}") from None
        icode = line[26] if len(line) > 26 else " "
        if tag == "HETATM":
            key = (chain_id, res_seq, icode, atom_name)
            prev = ligand.get(key)
            if prev is None or occupancy > prev[1]:
                ligand[key] = (atom, occupancy)
            continue
        ch = chains.setdefault(chain_id, {})
        res = ch.setdefault((res_seq, icode), {"name": res_name, "atoms": {}})
        prev = res["atoms"].get(atom_name)
        if prev is None or occupancy > prev[1]:
            res["atoms"][atom_name] = (atom, occupancy)

    if n_atom_lines == 0:
        raise ParseError("empty structure: no ATOM/HETATM records")

    out_chains = []
    for chain_id, residues in chains.items():  # insertion order = file order
        types, counts, names, atoms = [], [], [], []
        for key in sorted(residues):
            res = residues[key]
            kept = _canonical_residue_atoms(res["name"], res["atoms"])
            if kept:
                types.append(res["name"] if res["name"] in RESIDUE_ATOM_ORDER else "UNK")
                counts.append(len(kept))
                names += kept
                atoms += [res["atoms"][name][0] for name in kept]
        if types:
            out_chains.append(Chain(chain_id, None, residue_arrays(
                types, counts, names, [a[0] for a in atoms], [a[1] for a in atoms],
                f"chain {chain_id!r}: residues")))
    lig = [atom for atom, _ in ligand.values()]
    rec = ComplexRecord(complex_id, tuple(out_chains),
                        ligand_arrays([a[0] for a in lig], [a[1] for a in lig]),
                        {ch.chain_id: "receptor" for ch in out_chains})
    validate_record(rec)
    return rec


def _canonical_residue_atoms(res_name: str, atoms: dict) -> list[str]:
    """The names of ``atoms`` (keyed by name) to keep, in the residue
    template's order; extras beyond the channel budget are dropped with a
    logged count."""
    order = RESIDUE_ATOM_ORDER.get(res_name)
    if order is not None:
        kept = [n for n in order if n in atoms]
        extras = len(atoms) - len(kept)
        if extras:
            log.warning("residue %s: dropped %d non-template atom(s)", res_name, extras)
        return kept
    # UNK: first-seen order, truncated at the channel cap
    if len(atoms) > MAX_CHANNELS:
        log.warning("residue %s: truncated %d atoms to %d channels",
                    res_name, len(atoms), MAX_CHANNELS)
    return list(atoms)[:MAX_CHANNELS]


# -- canonical JSON -----------------------------------------------------------


def _want(obj, key, kind, path):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing")
    val = obj[key]
    if not isinstance(val, kind) or isinstance(val, bool):
        raise SchemaError(f"{path}.{key}",
                          f"expected {kind.__name__}, got {type(val).__name__}")
    return val


def parse_canonical_json(text: str) -> ComplexRecord:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    return _record_from_obj(obj)


def _record_from_obj(obj) -> ComplexRecord:
    """``parse_canonical_json`` of already decoded JSON."""
    complex_id = _want(obj, "complex_id", str, "$")
    chains = []
    for ci, ch in enumerate(_want(obj, "chains", list, "$")):
        cpath = f"$.chains[{ci}]"
        chain_id = _want(ch, "chain_id", str, cpath)
        uid = ch.get("uniprot_id") if isinstance(ch, dict) else None
        if uid is not None and not isinstance(uid, str):
            raise SchemaError(f"{cpath}.uniprot_id", "expected string or null")
        residues = _want(ch, "residues", list, cpath)
        columns = _residue_fields(residues)
        if columns is None:
            _raise_first_problem(residues, f"{cpath}.residues", residues=True)
        chains.append(Chain(chain_id, uid, residue_arrays(*columns, f"{cpath}.residues")))
    atoms = _want(obj, "ligand_atoms", list, "$")
    columns = _fields(atoms, ("element", "xyz"))
    if columns is None:
        _raise_first_problem(atoms, "$.ligand_atoms", residues=False)
    lig = ligand_arrays(*columns)
    part_obj = _want(obj, "partition", dict, "$")
    partition = {}
    for cid, side in part_obj.items():
        if not isinstance(side, str):
            raise SchemaError(f"$.partition.{cid}", "expected string")
        partition[cid] = side
    rec = ComplexRecord(complex_id, tuple(chains), lig, partition)
    validate_record(rec)
    return rec


# Bulk reads: the objects of a chain (or of the ligand) and the keys the
# schema names are checked once over all its values, and their values go to
# the column packer.  Whatever is refused, ``_raise_first_problem`` walks
# value by value to name.


def _residue_fields(residues: list) -> list | None:
    """The columns ``residue_arrays`` takes, of decoded JSON residues."""
    fields = _fields(residues, ("type", "atoms"))
    if fields is None or not set(map(type, fields[1])) <= {list}:
        return None
    atoms = _fields(list(chained.from_iterable(fields[1])), ("name", "element", "xyz"))
    return None if atoms is None else [fields[0], list(map(len, fields[1])), *atoms]


def _fields(objs: list, keys) -> list | None:
    """Per key, the values of ``objs`` under it; None unless each is an
    object holding every key."""
    if not set(map(type, objs)) <= {dict}:
        return None
    try:
        return [list(map(itemgetter(key), objs)) for key in keys]
    except KeyError:
        return None


def _raise_first_problem(items: list, where: str, residues: bool) -> None:
    """Raise the first value of ``items`` (residues, or ligand atoms, named
    ``{where}[{index}]``) that breaks the schema, in document order: a
    residue's type before its atoms, an atom's name (residue atoms only),
    element and ``xyz`` in that order.  A non-finite coordinate is not
    refused here: ``validate_record`` reports it."""
    for k, obj in enumerate(items):
        path = f"{where}[{k}]"
        atoms = [(path, obj)]
        if residues:
            rtype = _want(obj, "type", str, path)
            if rtype not in RESIDUE_INDEX:
                raise SchemaError(f"{path}.type", f"unknown residue type {rtype!r}")
            atoms = [(f"{path}.atoms[{ai}]", a)
                     for ai, a in enumerate(_want(obj, "atoms", list, path))]
        for apath, atom in atoms:
            if residues:
                _want(atom, "name", str, apath)
            sym = _want(atom, "element", str, apath)
            if classify_element(sym) is None:
                raise SchemaError(f"{apath}.element", f"unknown element symbol {sym!r}")
            xyz = _want(atom, "xyz", list, apath)
            if len(xyz) != 3:
                raise SchemaError(f"{apath}.xyz", f"expected 3 values, got {len(xyz)}")
            for i, v in enumerate(xyz):
                try:  # a number with a float: an int past the float range has none
                    ok = _real_type(type(v)) and isinstance(float(v), float)
                except OverflowError:
                    ok = False
                if not ok:
                    raise SchemaError(f"{apath}.xyz[{i}]", f"bad coordinate {v!r}")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


_RESIDUE_JSON = [json.dumps(t) for t in RESIDUE_TYPES]
_ELEMENT_JSON = [json.dumps(e) for e in ELEMENTS]


def _atoms_json(atoms: AtomArrays, with_name: bool) -> list[str]:
    """One JSON object per atom, as ``write_canonical_json`` writes it."""
    coords = iter(map(_fmt, atoms.xyz.ravel().tolist()))
    elements = [_ELEMENT_JSON[e] for e in atoms.elements.tolist()]
    if not with_name:
        return [f'{{"element": {e}, "xyz": [{x}, {y}, {z}]}}'
                for e, x, y, z in zip(elements, coords, coords, coords)]
    names = atoms.names.tolist()
    quoted = {name: json.dumps(name) for name in set(names)}
    return [f'{{"name": {quoted[n]}, "element": {e}, "xyz": [{x}, {y}, {z}]}}'
            for n, e, x, y, z in zip(names, elements, coords, coords, coords)]


def write_canonical_json(rec: ComplexRecord) -> str:
    """Serialize with a fixed field order and 17-significant-digit
    floats, so write∘parse∘write is byte-stable."""
    validate_record(rec)
    parts = [f'{{"complex_id": {json.dumps(rec.complex_id)}, "chains": [']
    chain_bits = []
    for ch in rec.chains:
        res = ch.residues
        atom_bits = _atoms_json(res.atoms, with_name=True)
        ends = np.cumsum(res.counts).tolist()
        res_bits = [f'{{"type": {_RESIDUE_JSON[t]}, "atoms": [{", ".join(atom_bits[lo:hi])}]}}'
                    for t, lo, hi in zip(res.types.tolist(), [0] + ends[:-1], ends)]
        uid = json.dumps(ch.uniprot_id) if ch.uniprot_id is not None else "null"
        chain_bits.append(
            f'{{"chain_id": {json.dumps(ch.chain_id)}, "uniprot_id": {uid}, '
            f'"residues": [{", ".join(res_bits)}]}}')
    parts.append(", ".join(chain_bits))
    parts.append('], "ligand_atoms": [')
    parts.append(", ".join(_atoms_json(rec.ligand_atoms, with_name=False)))
    parts.append('], "partition": {')
    parts.append(", ".join(
        f"{json.dumps(cid)}: {json.dumps(rec.partition[cid])}"
        for cid in sorted(rec.partition)))
    parts.append("}}")
    return "".join(parts)


def load_records(path) -> list[ComplexRecord]:
    """Read one record per line (blank lines skipped) or a single record,
    decoding each record's JSON once."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.strip()
    if not stripped:
        raise SchemaError(str(path), "empty file")
    lines = [line for line in stripped.splitlines() if line.strip()]
    try:
        first = json.loads(lines[0])
    except ValueError:  # a record spread over several lines, or invalid JSON
        return [parse_canonical_json(stripped)]
    return [_record_from_obj(first)] + [parse_canonical_json(line) for line in lines[1:]]


def dump_records(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(write_canonical_json(rec))
            fh.write("\n")


# -- size filter --------------------------------------------------------------


def filter_max_atoms(rec: ComplexRecord, limit: int = 15000) -> bool:
    """True = keep.  Drop only when the heavy-atom count exceeds the
    limit; a record at exactly the limit is kept."""
    return rec.heavy_atom_count() <= limit
