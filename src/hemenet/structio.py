"""Structure ingestion: fixed-column PDB subset parsing, the canonical
JSON interchange format, and the heavy-atom size filter.

All coordinates are in Angstrom.  Hydrogens are excluded everywhere;
the 14-channel convention counts heavy atoms only.  Records are frozen
dataclasses, immutable after construction and safe to share.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache

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
    element: str  # vocabulary symbol
    xyz: tuple[float, float, float]


@dataclass(frozen=True)
class Residue:
    residue_type: str  # three-letter code or UNK
    atoms: tuple[Atom, ...]


@dataclass(frozen=True)
class Chain:
    chain_id: str
    uniprot_id: str | None
    residues: tuple[Residue, ...]


@dataclass(frozen=True)
class ComplexRecord:
    complex_id: str
    chains: tuple[Chain, ...]
    ligand_atoms: tuple[Atom, ...]
    partition: dict[str, str] = field(default_factory=dict)

    def heavy_atom_count(self) -> int:
        n = sum(len(res.atoms) for ch in self.chains for res in ch.residues)
        return n + len(self.ligand_atoms)


def validate_record(rec: ComplexRecord) -> None:
    """Raise SchemaError on any broken record invariant."""
    _validate(rec, check_atoms=True)


def _validate(rec: ComplexRecord, check_atoms: bool) -> None:
    """The checks of ``validate_record``, first failure raised.  With
    ``check_atoms=False`` only the record-level ones run (chains,
    residues, duplicate atom names, partition): for atoms whose element
    and coordinates the JSON parser has already checked value by value."""
    if not rec.chains and not rec.ligand_atoms:
        raise SchemaError("$", "record has no chains and no ligand atoms")
    chain_ids = set()
    for ci, ch in enumerate(rec.chains):
        if ch.chain_id in chain_ids:
            raise SchemaError(f"$.chains[{ci}].chain_id", f"duplicate chain id {ch.chain_id!r}")
        chain_ids.add(ch.chain_id)
        if not ch.residues:
            raise SchemaError(f"$.chains[{ci}]", "chain has no residues")
        for ri, res in enumerate(ch.residues):
            if not res.atoms:
                raise SchemaError(f"$.chains[{ci}].residues[{ri}]",
                                  "residue has no resolved heavy atoms")
            if check_atoms or len({atom.name for atom in res.atoms}) != len(res.atoms):
                _check_residue_atoms(res, f"$.chains[{ci}].residues[{ri}]", check_atoms)
    if check_atoms:
        for ai, atom in enumerate(rec.ligand_atoms):
            _check_atom(atom, f"$.ligand_atoms[{ai}]")
    if set(rec.partition) != chain_ids:
        raise SchemaError("$.partition",
                          f"must cover exactly the chain ids {sorted(chain_ids)}")
    for cid, side in rec.partition.items():
        if side not in ("receptor", "ligand_side"):
            raise SchemaError(f"$.partition.{cid}", f"invalid side {side!r}")


def _check_residue_atoms(res: Residue, path: str, check_atoms: bool) -> None:
    seen = set()
    for ai, atom in enumerate(res.atoms):
        if check_atoms:
            _check_atom(atom, f"{path}.atoms[{ai}]")
        if atom.name in seen:
            raise SchemaError(f"{path}.atoms[{ai}]", f"duplicate atom name {atom.name!r}")
        seen.add(atom.name)


def _check_atom(atom: Atom, path: str) -> None:
    if atom.element not in ELEMENT_INDEX:
        raise SchemaError(path, f"element {atom.element!r} not in vocabulary")
    if len(atom.xyz) != 3 or not all(_finite_coord(v) for v in atom.xyz):
        raise SchemaError(path, f"non-finite or malformed coordinates {atom.xyz}")


def _finite_coord(v) -> bool:
    """True when ``v`` is a real number (not a bool) whose float is finite;
    an int too large for a float is not."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


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
    ligand: dict[tuple, tuple[Atom, float]] = {}
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
        atom = Atom(atom_name, element, (x, y, z))
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
    for chain_id in chains:  # insertion order = file order
        residues = []
        for key in sorted(chains[chain_id]):
            res = chains[chain_id][key]
            atoms = _canonical_residue_atoms(
                res["name"], {n: a for n, (a, _) in res["atoms"].items()})
            if atoms:
                residues.append(Residue(_residue_type(res["name"]), tuple(atoms)))
        if residues:
            out_chains.append(Chain(chain_id, None, tuple(residues)))

    rec = ComplexRecord(
        complex_id=complex_id,
        chains=tuple(out_chains),
        ligand_atoms=tuple(a for a, _ in ligand.values()),
        partition={ch.chain_id: "receptor" for ch in out_chains},
    )
    validate_record(rec)
    return rec


def _residue_type(res_name: str) -> str:
    return res_name if res_name in RESIDUE_ATOM_ORDER else "UNK"


def _canonical_residue_atoms(res_name: str, atoms: dict[str, Atom]) -> list[Atom]:
    """Order atoms by the residue template; extras beyond the channel
    budget are dropped with a logged count."""
    order = RESIDUE_ATOM_ORDER.get(res_name)
    if order is not None:
        kept = [atoms[n] for n in order if n in atoms]
        extras = len(atoms) - len(kept)
        if extras:
            log.warning("residue %s: dropped %d non-template atom(s)", res_name, extras)
        return kept
    # UNK: first-seen order, truncated at the channel cap
    all_atoms = list(atoms.values())
    if len(all_atoms) > MAX_CHANNELS:
        log.warning("residue %s: truncated %d atoms to %d channels",
                    res_name, len(all_atoms), MAX_CHANNELS)
        all_atoms = all_atoms[:MAX_CHANNELS]
    return all_atoms


# -- canonical JSON -----------------------------------------------------------


def _want(obj, key, kind, path):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing")
    val = obj[key]
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, kind) or isinstance(val, bool):
        raise SchemaError(f"{path}.{key}",
                          f"expected {kind.__name__}, got {type(val).__name__}")
    return val


def _parse_atom(obj, where: str, index: int, with_name: bool) -> Atom:
    """The atom ``obj`` of decoded JSON, named ``{where}[{index}]`` in errors.

    The usual atom, an object with string fields and three finite floats,
    is taken after one exact-type test per value (a JSON value is exactly
    a dict, list, str, int, float, bool or None, so ``type(v) is float``
    excludes bools and ints).  The sum of three floats is finite only when
    each is.  Anything else, including integer coordinates and floats
    whose sum overflows, goes through ``_parse_atom_checked``, which
    raises the first problem it finds."""
    if type(obj) is dict:
        name = obj.get("name") if with_name else ""
        sym = obj.get("element")
        xyz = obj.get("xyz")
        if type(name) is str and type(sym) is str and type(xyz) is list and len(xyz) == 3:
            element = classify_element(sym)
            x, y, z = xyz
            if (element is not None and type(x) is float and type(y) is float
                    and type(z) is float and math.isfinite(x + y + z)):
                return Atom(name, element, (x, y, z))
    return _parse_atom_checked(obj, f"{where}[{index}]", with_name)


def _parse_atom_checked(obj, path, with_name: bool) -> Atom:
    name = _want(obj, "name", str, path) if with_name else ""
    sym = _want(obj, "element", str, path)
    element = classify_element(sym)
    if element is None:
        raise SchemaError(f"{path}.element", f"unknown element symbol {sym!r}")
    xyz = _want(obj, "xyz", list, path)
    if len(xyz) != 3:
        raise SchemaError(f"{path}.xyz", f"expected 3 values, got {len(xyz)}")
    coords = []
    for i, v in enumerate(xyz):
        if not _finite_coord(v):
            raise SchemaError(f"{path}.xyz[{i}]", f"bad coordinate {v!r}")
        coords.append(float(v))
    return Atom(name, element, tuple(coords))


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
        residues = []
        for ri, res in enumerate(_want(ch, "residues", list, cpath)):
            rpath = f"{cpath}.residues[{ri}]"
            rtype = _want(res, "type", str, rpath)
            if rtype not in RESIDUE_INDEX:
                raise SchemaError(f"{rpath}.type", f"unknown residue type {rtype!r}")
            where = f"{rpath}.atoms"
            atoms = [_parse_atom(a, where, ai, with_name=True)
                     for ai, a in enumerate(_want(res, "atoms", list, rpath))]
            residues.append(Residue(rtype, tuple(atoms)))
        chains.append(Chain(chain_id, uid, tuple(residues)))
    lig = [_parse_atom(a, "$.ligand_atoms", ai, with_name=False)
           for ai, a in enumerate(_want(obj, "ligand_atoms", list, "$"))]
    part_obj = _want(obj, "partition", dict, "$")
    partition = {}
    for cid, side in part_obj.items():
        if not isinstance(side, str):
            raise SchemaError(f"$.partition.{cid}", "expected string")
        partition[cid] = side
    rec = ComplexRecord(complex_id, tuple(chains), tuple(lig), partition)
    _validate(rec, check_atoms=False)  # every atom was checked as it was parsed
    return rec


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_canonical_json(rec: ComplexRecord) -> str:
    """Serialize with a fixed field order and 17-significant-digit
    floats, so write∘parse∘write is byte-stable."""
    validate_record(rec)
    parts = [f'{{"complex_id": {json.dumps(rec.complex_id)}, "chains": [']
    chain_bits = []
    for ch in rec.chains:
        res_bits = []
        for res in ch.residues:
            atom_bits = [
                f'{{"name": {json.dumps(a.name)}, "element": {json.dumps(a.element)}, '
                f'"xyz": [{_fmt(a.xyz[0])}, {_fmt(a.xyz[1])}, {_fmt(a.xyz[2])}]}}'
                for a in res.atoms
            ]
            res_bits.append(
                f'{{"type": {json.dumps(res.residue_type)}, "atoms": [{", ".join(atom_bits)}]}}')
        uid = json.dumps(ch.uniprot_id) if ch.uniprot_id is not None else "null"
        chain_bits.append(
            f'{{"chain_id": {json.dumps(ch.chain_id)}, "uniprot_id": {uid}, '
            f'"residues": [{", ".join(res_bits)}]}}')
    parts.append(", ".join(chain_bits))
    parts.append('], "ligand_atoms": [')
    parts.append(", ".join(
        f'{{"element": {json.dumps(a.element)}, '
        f'"xyz": [{_fmt(a.xyz[0])}, {_fmt(a.xyz[1])}, {_fmt(a.xyz[2])}]}}'
        for a in rec.ligand_atoms))
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
