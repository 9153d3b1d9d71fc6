"""Structure ingestion: fixed-column parsing, element vocabulary,
canonical residue layout, and the byte-stable JSON interchange form."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemenet import structio
from hemenet.errors import ParseError, SchemaError
from hemenet.structio import (
    ELEMENTS,
    MAX_CHANNELS,
    RESIDUE_ATOM_ORDER,
    RESIDUE_TYPES,
    Atom,
    Chain,
    ComplexRecord,
    Residue,
    classify_element,
    dump_records,
    filter_max_atoms,
    load_records,
    parse_canonical_json,
    parse_pdb_subset,
    validate_record,
    write_canonical_json,
)


def pline(tag, serial, name, res, chain, seq, x, y, z,
          occ=1.0, element="", altloc=" ", icode=" "):
    """Build one fixed-column atom record."""
    nm = f" {name:<3s}" if len(name) < 4 else name[:4]
    return (f"{tag:<6s}{serial:5d} {nm}{altloc}{res:<3s} {chain}{seq:4d}{icode}"
            f"   {x:8.3f}{y:8.3f}{z:8.3f}{occ:6.2f}{'':16s}{element:>2s}")


def tiny_pdb():
    lines = [
        pline("ATOM", 1, "N", "ALA", "A", 1, 0.0, 0.0, 0.0, element="N"),
        pline("ATOM", 2, "CA", "ALA", "A", 1, 1.5, 0.0, 0.0, element="C"),
        pline("ATOM", 3, "C", "ALA", "A", 1, 2.0, 1.4, 0.0, element="C"),
        pline("ATOM", 4, "O", "ALA", "A", 1, 3.2, 1.6, 0.0, element="O"),
        pline("ATOM", 5, "CB", "ALA", "A", 1, 2.0, -1.4, 0.0, element="C"),
        pline("ATOM", 6, "N", "GLY", "A", 2, 1.2, 2.4, 0.0, element="N"),
        pline("ATOM", 7, "CA", "GLY", "A", 2, 1.6, 3.8, 0.0, element="C"),
        pline("ATOM", 8, "C", "GLY", "A", 2, 0.5, 4.8, 0.0, element="C"),
        pline("ATOM", 9, "O", "GLY", "A", 2, -0.7, 4.5, 0.0, element="O"),
        pline("HETATM", 10, "C1", "LIG", "B", 1, 5.0, 5.0, 5.0, element="C"),
        pline("HETATM", 11, "ZN", "LIG", "B", 1, 6.0, 5.0, 5.0, element="ZN"),
    ]
    return "\n".join(lines) + "\n"


# -- element vocabulary -------------------------------------------------------


def test_classify_element_cases():
    assert classify_element("C") == "C"
    assert classify_element(" n ") == "N"
    assert classify_element("cl") == "Cl"
    assert classify_element("FE") == "metal"
    assert classify_element("Zn") == "metal"
    assert classify_element("SI") == "other"
    assert classify_element("Metal") == "metal"
    assert classify_element("Other") == "other"
    for hydrogen in ("H", "D", "T", "h"):
        assert classify_element(hydrogen) is None
    assert classify_element("") is None
    assert classify_element("Xq") is None


def test_residue_templates():
    assert max(len(v) for v in RESIDUE_ATOM_ORDER.values()) == MAX_CHANNELS
    assert len(RESIDUE_ATOM_ORDER["TRP"]) == MAX_CHANNELS
    assert RESIDUE_ATOM_ORDER["GLY"] == ("N", "CA", "C", "O")
    for order in RESIDUE_ATOM_ORDER.values():
        assert order[:4] == ("N", "CA", "C", "O")
    assert RESIDUE_TYPES[-1] == "UNK"
    assert len(RESIDUE_TYPES) == 21


# -- fixed-column parsing -----------------------------------------------------


def test_parse_basic_structure():
    rec = parse_pdb_subset(tiny_pdb(), complex_id="demo")
    assert rec.complex_id == "demo"
    assert [ch.chain_id for ch in rec.chains] == ["A"]
    chain = rec.chains[0]
    assert [r.residue_type for r in chain.residues] == ["ALA", "GLY"]
    assert [a.name for a in chain.residues[0].atoms] == ["N", "CA", "C", "O", "CB"]
    assert len(rec.ligand_atoms) == 2
    assert {a.element for a in rec.ligand_atoms} == {"C", "metal"}
    assert rec.partition == {"A": "receptor"}
    assert rec.heavy_atom_count() == 11


def test_parse_altloc_resolves_by_occupancy():
    lines = [
        pline("ATOM", 1, "N", "GLY", "A", 1, 0.0, 0.0, 0.0, element="N"),
        pline("ATOM", 2, "CA", "GLY", "A", 1, 1.0, 0.0, 0.0, occ=0.4,
              altloc="A", element="C"),
        pline("ATOM", 3, "CA", "GLY", "A", 1, 9.0, 0.0, 0.0, occ=0.6,
              altloc="B", element="C"),
        pline("ATOM", 4, "C", "GLY", "A", 1, 2.0, 0.0, 0.0, element="C"),
        pline("ATOM", 5, "O", "GLY", "A", 1, 3.0, 0.0, 0.0, element="O"),
    ]
    rec = parse_pdb_subset("\n".join(lines))
    ca = rec.chains[0].residues[0].atoms[1]
    assert ca.name == "CA" and ca.xyz[0] == 9.0
    # ties keep the first-seen variant
    lines[2] = pline("ATOM", 3, "CA", "GLY", "A", 1, 9.0, 0.0, 0.0, occ=0.4,
                     altloc="B", element="C")
    rec = parse_pdb_subset("\n".join(lines))
    assert rec.chains[0].residues[0].atoms[1].xyz[0] == 1.0


def test_parse_drops_solvent_and_hydrogens():
    lines = [
        pline("ATOM", 1, "N", "GLY", "A", 1, 0.0, 0.0, 0.0, element="N"),
        pline("ATOM", 2, "CA", "GLY", "A", 1, 1.0, 0.0, 0.0, element="C"),
        pline("ATOM", 3, "C", "GLY", "A", 1, 2.0, 0.0, 0.0, element="C"),
        pline("ATOM", 4, "O", "GLY", "A", 1, 3.0, 0.0, 0.0, element="O"),
        pline("ATOM", 5, "HA", "GLY", "A", 1, 1.0, 1.0, 0.0, element="H"),
        pline("HETATM", 6, "O", "HOH", "W", 1, 8.0, 8.0, 8.0, element="O"),
        pline("HETATM", 7, "S", "SO4", "W", 2, 9.0, 9.0, 9.0, element="S"),
    ]
    rec = parse_pdb_subset("\n".join(lines))
    assert rec.heavy_atom_count() == 4
    assert rec.ligand_atoms == ()


def test_parse_non_template_atom_dropped():
    lines = [
        pline("ATOM", 1, "N", "GLY", "A", 1, 0.0, 0.0, 0.0, element="N"),
        pline("ATOM", 2, "CA", "GLY", "A", 1, 1.0, 0.0, 0.0, element="C"),
        pline("ATOM", 3, "C", "GLY", "A", 1, 2.0, 0.0, 0.0, element="C"),
        pline("ATOM", 4, "O", "GLY", "A", 1, 3.0, 0.0, 0.0, element="O"),
        pline("ATOM", 5, "OXT", "GLY", "A", 1, 4.0, 0.0, 0.0, element="O"),
    ]
    rec = parse_pdb_subset("\n".join(lines))
    assert [a.name for a in rec.chains[0].residues[0].atoms] == ["N", "CA", "C", "O"]


def test_parse_first_model_wins():
    body = [
        "MODEL        1",
        pline("ATOM", 1, "N", "GLY", "A", 1, 0.0, 0.0, 0.0, element="N"),
        pline("ATOM", 2, "CA", "GLY", "A", 1, 1.0, 0.0, 0.0, element="C"),
        pline("ATOM", 3, "C", "GLY", "A", 1, 2.0, 0.0, 0.0, element="C"),
        pline("ATOM", 4, "O", "GLY", "A", 1, 3.0, 0.0, 0.0, element="O"),
        "ENDMDL",
        "MODEL        2",
        pline("ATOM", 5, "N", "ALA", "B", 9, 50.0, 0.0, 0.0, element="N"),
        "ENDMDL",
    ]
    rec = parse_pdb_subset("\n".join(body))
    assert len(rec.chains) == 1 and rec.chains[0].chain_id == "A"


def test_parse_element_fallback_from_atom_name():
    line = pline("ATOM", 1, "CA", "GLY", "A", 1, 0.0, 0.0, 0.0)
    full = "\n".join([
        pline("ATOM", 1, "N", "GLY", "A", 1, 0.0, 0.0, 0.0),
        line,
        pline("ATOM", 3, "C", "GLY", "A", 1, 2.0, 0.0, 0.0),
        pline("ATOM", 4, "O", "GLY", "A", 1, 3.0, 0.0, 0.0),
    ])
    rec = parse_pdb_subset(full)
    assert [a.element for a in rec.chains[0].residues[0].atoms] == ["N", "C", "C", "O"]


def test_parse_unknown_residue_keeps_channel_cap():
    lines = [pline("HETATM", 90, "XX", "ZZZ", "L", 5, 1.0, 1.0, 1.0, element="P")]
    atoms = [pline("ATOM", i, f"C{i}", "XYZ", "A", 1, float(i), 0.0, 0.0, element="C")
             for i in range(1, 17)]
    rec = parse_pdb_subset("\n".join(atoms + lines))
    res = rec.chains[0].residues[0]
    assert res.residue_type == "UNK"
    assert len(res.atoms) == MAX_CHANNELS
    assert res.atoms[0].name == "C1"


def test_parse_insertion_code_ordering():
    lines = [
        pline("ATOM", 1, "N", "GLY", "A", 2, 0.0, 0.0, 0.0, element="N", icode="A"),
        pline("ATOM", 2, "CA", "GLY", "A", 2, 1.0, 0.0, 0.0, element="C", icode="A"),
        pline("ATOM", 3, "C", "GLY", "A", 2, 2.0, 0.0, 0.0, element="C", icode="A"),
        pline("ATOM", 4, "O", "GLY", "A", 2, 3.0, 0.0, 0.0, element="O", icode="A"),
        pline("ATOM", 5, "N", "ALA", "A", 2, 0.0, 5.0, 0.0, element="N"),
        pline("ATOM", 6, "CA", "ALA", "A", 2, 1.0, 5.0, 0.0, element="C"),
        pline("ATOM", 7, "C", "ALA", "A", 2, 2.0, 5.0, 0.0, element="C"),
        pline("ATOM", 8, "O", "ALA", "A", 2, 3.0, 5.0, 0.0, element="O"),
    ]
    rec = parse_pdb_subset("\n".join(lines))
    # blank insertion code sorts before "A" at the same residue number
    assert [r.residue_type for r in rec.chains[0].residues] == ["ALA", "GLY"]


def test_parse_error_paths():
    with pytest.raises(ParseError, match="truncated"):
        parse_pdb_subset("ATOM      1  N   GLY A   1")
    bad_x = pline("ATOM", 1, "N", "GLY", "A", 1, 0.0, 0.0, 0.0, element="N")
    bad_x = bad_x[:30] + "  abc   " + bad_x[38:]
    with pytest.raises(ParseError, match="x coordinate"):
        parse_pdb_subset(bad_x)
    bad_seq = pline("ATOM", 1, "N", "GLY", "A", 1, 0.0, 0.0, 0.0, element="N")
    bad_seq = bad_seq[:22] + "  x " + bad_seq[26:]
    with pytest.raises(ParseError, match="residue number"):
        parse_pdb_subset(bad_seq)
    with pytest.raises(ParseError, match="no ATOM"):
        parse_pdb_subset("HEADER    test\nEND\n")


# -- canonical JSON -----------------------------------------------------------


def strip_ligand_names(rec):
    # ligand atom names are not part of the interchange form
    from dataclasses import replace
    return replace(rec, ligand_atoms=tuple(
        replace(a, name="") for a in rec.ligand_atoms))


def test_json_round_trip_is_byte_stable():
    rec = parse_pdb_subset(tiny_pdb(), complex_id="demo")
    text1 = write_canonical_json(rec)
    rec2 = parse_canonical_json(text1)
    text2 = write_canonical_json(rec2)
    assert text1 == text2
    assert rec2 == strip_ligand_names(rec)


def test_json_round_trip_preserves_awkward_floats():
    rec = ComplexRecord(
        "x",
        (Chain("A", "P12345", (Residue("GLY", (
            Atom("N", "N", (0.1, -1e-7, 12345.678901234567)),
            Atom("CA", "C", (np.nextafter(1.0, 2.0), 0.0, -0.0)),
        )),)),),
        (Atom("", "metal", (1e20, 2.5, -3.25)),),
        {"A": "receptor"},
    )
    text = write_canonical_json(rec)
    back = parse_canonical_json(text)
    for a, b in zip(rec.chains[0].residues[0].atoms, back.chains[0].residues[0].atoms):
        assert a.xyz == b.xyz
    assert back.ligand_atoms[0].xyz == rec.ligand_atoms[0].xyz


def test_json_schema_errors():
    good = write_canonical_json(parse_pdb_subset(tiny_pdb()))
    with pytest.raises(SchemaError, match="invalid JSON"):
        parse_canonical_json(good[:-5])
    with pytest.raises(SchemaError, match="complex_id"):
        parse_canonical_json("{}")
    obj = json.loads(good)
    obj["chains"][0]["residues"][0]["type"] = "ZZZ"
    with pytest.raises(SchemaError, match="unknown residue type"):
        parse_canonical_json(json.dumps(obj))
    obj = json.loads(good)
    obj["chains"][0]["residues"][0]["atoms"][0]["xyz"] = [1.0, 2.0]
    with pytest.raises(SchemaError, match="expected 3 values"):
        parse_canonical_json(json.dumps(obj))
    obj = json.loads(good)
    obj["chains"][0]["residues"][0]["atoms"][0]["xyz"] = [1.0, True, 3.0]
    with pytest.raises(SchemaError, match="bad coordinate"):
        parse_canonical_json(json.dumps(obj))
    obj = json.loads(good)
    obj["ligand_atoms"][0]["element"] = "Qq"
    with pytest.raises(SchemaError, match="unknown element"):
        parse_canonical_json(json.dumps(obj))
    obj = json.loads(good)
    obj["partition"] = {"A": "receptor", "Z": "receptor"}
    with pytest.raises(SchemaError, match="partition"):
        parse_canonical_json(json.dumps(obj))
    # atoms are checked as they are parsed, the record after: a repeated
    # atom name is still found
    obj = json.loads(good)
    obj["chains"][0]["residues"][1]["atoms"][2]["name"] = "N"
    with pytest.raises(SchemaError, match="duplicate atom name 'N'") as err:
        parse_canonical_json(json.dumps(obj))
    assert err.value.path == "$.chains[0].residues[1].atoms[2]"


def test_mixed_atoms_parse_as_the_checked_path_does():
    # int, float and -0.0 coordinates, odd element case and spacing, and a
    # float sum that overflows: the one reader takes them all, and each
    # value is what the schema's rule makes of it, float(v) and
    # classify_element(symbol), down to the sign of zero
    atoms = [{"name": "N", "element": "N", "xyz": [1, -0.0, 2.5]},
             {"name": "CA", "element": "cl", "xyz": [-0.0, 0, -3]},
             {"name": "C", "element": " Fe ", "xyz": [1e308, 1e308, 0.0]},
             {"name": "O", "element": "o", "xyz": [0.5, 2**60, -0.0]}]
    ligand = [{"element": "CL", "xyz": [-0.0, -0.0, -0.0]},
              {"element": " se", "xyz": [7, 8.25, 9]}]
    text = json.dumps({"complex_id": "mix", "chains": [
        {"chain_id": "A", "uniprot_id": None, "residues": [{"type": "UNK", "atoms": atoms}]}],
        "ligand_atoms": ligand, "partition": {"A": "receptor"}})
    rec = parse_canonical_json(text)
    parsed = list(rec.chains[0].residues[0].atoms) + list(rec.ligand_atoms)
    assert [a.name for a in parsed] == ["N", "CA", "C", "O", "", ""]
    assert [a.element for a in parsed] == [classify_element(a["element"]) for a in atoms + ligand]
    for got, want in zip(parsed, atoms + ligand):
        assert [type(v) for v in got.xyz] == [float] * 3
        assert np.array(got.xyz).tobytes() == np.array([float(v) for v in want["xyz"]]).tobytes()
    assert [a.element for a in parsed] == ["N", "Cl", "metal", "O", "Cl", "Se"]


@pytest.mark.parametrize("atom, path, message", [
    ([1.0, 2.0, 3.0], "$.ligand_atoms[0]", "expected object, got list"),
    ({"xyz": [1.0, 2.0, 3.0]}, "$.ligand_atoms[0].element", "missing"),
    ({"element": "C", "xyz": (1.0, 2.0, 3.0)}, None, None),
    ({"element": "C"}, "$.ligand_atoms[0].xyz", "missing"),
    ({"element": 6, "xyz": [1.0, 2.0, 3.0]}, "$.ligand_atoms[0].element",
     "expected str, got int"),
    ({"element": "H", "xyz": [1.0, 2.0, 3.0]}, "$.ligand_atoms[0].element",
     "unknown element symbol 'H'"),
    ({"element": "C", "xyz": "1 2 3"}, "$.ligand_atoms[0].xyz", "expected list, got str"),
    ({"element": "C", "xyz": [1.0, 2.0, 3.0, 4.0]}, "$.ligand_atoms[0].xyz",
     "expected 3 values, got 4"),
    ({"element": "C", "xyz": [1.0, None, 3.0]}, "$.ligand_atoms[0].xyz[1]", "bad coordinate None"),
    ({"element": "C", "xyz": [1.0, 2.0, False]}, "$.ligand_atoms[0].xyz[2]",
     "bad coordinate False"),
    ({"element": "C", "xyz": [float("nan"), "x", 3.0]}, "$.ligand_atoms[0].xyz[0]",
     "bad coordinate nan"),
    ({"element": "C", "xyz": [1.0, float("-inf"), 3.0]}, "$.ligand_atoms[0].xyz[1]",
     "bad coordinate -inf"),
    ({"element": "Qq", "xyz": [1.0]}, "$.ligand_atoms[0].element", "unknown element symbol 'Qq'"),
])
def test_atom_schema_errors_name_value_and_path(atom, path, message):
    # a JSON tuple is a list, so the third case is a good atom
    text = json.dumps({"complex_id": "x", "chains": [], "ligand_atoms": [atom], "partition": {}})
    if path is None:
        assert parse_canonical_json(text).ligand_atoms[0].xyz == (1.0, 2.0, 3.0)
        return
    with pytest.raises(SchemaError) as err:
        parse_canonical_json(text)
    assert err.value.path == path
    assert str(err.value) == f"{path}: {message}"


def test_validate_record_invariants():
    with pytest.raises(SchemaError, match="no chains"):
        validate_record(ComplexRecord("x", (), (), {}))
    with pytest.raises(SchemaError, match="no residues"):
        validate_record(ComplexRecord("x", (Chain("A", None, ()),), (), {"A": "receptor"}))
    atom = Atom("N", "N", (0.0, 0.0, 0.0))
    with pytest.raises(SchemaError, match="duplicate atom name"):
        validate_record(ComplexRecord(
            "x", (Chain("A", None, (Residue("GLY", (atom, atom)),)),), (), {"A": "receptor"}))
    with pytest.raises(SchemaError, match="invalid side"):
        validate_record(ComplexRecord(
            "x", (Chain("A", None, (Residue("GLY", (atom,)),)),), (), {"A": "upstream"}))
    with pytest.raises(SchemaError, match="non-finite"):
        validate_record(ComplexRecord(
            "x", (), (Atom("", "C", (float("nan"), 0.0, 0.0)),), {}))


def two_chain_json(second_id="A", first_xyz=None):
    """Canonical JSON for two two-residue GLY chains, CA atoms at x = 0, 30
    and x = 100, 130; the second chain's id defaults to a repeat of A."""
    def chain(cid, xs):
        return {"chain_id": cid, "uniprot_id": None, "residues": [
            {"type": "GLY", "atoms": [{"name": "CA", "element": "C", "xyz": [x, 0.0, 0.0]}]}
            for x in xs]}
    obj = {"complex_id": "dup", "chains": [chain("A", [0.0, 30.0]), chain(second_id, [100.0, 130.0])],
           "ligand_atoms": [], "partition": {"A": "receptor", second_id: "receptor"}}
    if first_xyz is not None:
        obj["chains"][0]["residues"][0]["atoms"][0]["xyz"] = first_xyz
    return json.dumps(obj)


def test_duplicate_chain_ids_rejected():
    parse_canonical_json(two_chain_json(second_id="B"))
    with pytest.raises(SchemaError, match="duplicate chain id 'A'") as err:
        parse_canonical_json(two_chain_json())
    assert err.value.path == "$.chains[1].chain_id"
    atom = Atom("CA", "C", (0.0, 0.0, 0.0))
    chain = Chain("A", None, (Residue("GLY", (atom,)),))
    with pytest.raises(SchemaError, match="duplicate chain id"):
        validate_record(ComplexRecord("x", (chain, chain), (), {"A": "receptor"}))


@pytest.mark.parametrize("coord", ["1" + "0" * 400, "1e400", "-1e400"],
                         ids=["401-digit-int", "1e400", "-1e400"])
def test_out_of_range_coordinate_is_schema_error(coord):
    # a 401-digit integer has no float; 1e400 parses as an infinite float
    text = two_chain_json(second_id="B", first_xyz=[0.0, 0.0, 0.0]).replace(
        "[0.0, 0.0, 0.0]", f"[{coord}, 0.0, 0.0]", 1)
    with pytest.raises(SchemaError, match="bad coordinate") as err:
        parse_canonical_json(text)
    assert err.value.path == "$.chains[0].residues[0].atoms[0].xyz[0]"


def test_integer_past_digit_limit_is_schema_error(tmp_path):
    # json.loads refuses ints over 4300 digits with a plain ValueError
    text = two_chain_json(second_id="B", first_xyz=[0.0, 0.0, 0.0]).replace(
        "[0.0, 0.0, 0.0]", "[1" + "0" * 5000 + ", 0.0, 0.0]", 1)
    with pytest.raises(SchemaError, match="invalid JSON"):
        parse_canonical_json(text)
    path = tmp_path / "records.ndjson"
    path.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_records(path)


def test_validate_record_rejects_unrepresentable_coordinates():
    for xyz in [(10 ** 400, 0.0, 0.0), (0.0, float("inf"), 0.0), (0.0, 0.0, "1.5")]:
        with pytest.raises(SchemaError, match="non-finite or malformed"):
            validate_record(ComplexRecord("x", (), (Atom("", "C", xyz),), {}))
    validate_record(ComplexRecord("x", (), (Atom("", "C", (1, np.float32(2.5), 3.0)),), {}))


def test_load_and_dump_records(tmp_path):
    rec = parse_pdb_subset(tiny_pdb(), complex_id="one")
    rec2 = parse_pdb_subset(tiny_pdb(), complex_id="two")
    path = tmp_path / "records.ndjson"
    dump_records(path, [rec, rec2])
    back = load_records(path)
    assert [r.complex_id for r in back] == ["one", "two"]
    assert back[0] == strip_ligand_names(rec)
    single = tmp_path / "single.json"
    single.write_text(write_canonical_json(rec), encoding="utf-8")
    assert load_records(single) == [strip_ligand_names(rec)]
    empty = tmp_path / "empty.json"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(SchemaError, match="empty file"):
        load_records(empty)


def test_load_records_decodes_each_record_once(tmp_path, monkeypatch):
    """Both layouts, one complete JSON decode per record; an NDJSON file
    is not first decoded whole up to its "Extra data"."""
    recs = [parse_pdb_subset(tiny_pdb(), complex_id=cid) for cid in ("one", "two", "three")]
    ndjson, single = tmp_path / "records.ndjson", tmp_path / "single.json"
    dump_records(ndjson, recs)
    single.write_text(json.dumps(json.loads(write_canonical_json(recs[0])), indent=2),
                      encoding="utf-8")
    decodes = []
    raw_decode = json.JSONDecoder.raw_decode

    def counted(self, s, *args, **kwargs):
        out = raw_decode(self, s, *args, **kwargs)
        decodes.append(out[1])
        return out

    monkeypatch.setattr(json.JSONDecoder, "raw_decode", counted)
    assert [r.complex_id for r in load_records(ndjson)] == ["one", "two", "three"]
    assert len(decodes) == 3
    decodes.clear()
    assert load_records(single) == [strip_ligand_names(recs[0])]
    assert len(decodes) == 1


def test_filter_max_atoms_boundary():
    rec = parse_pdb_subset(tiny_pdb())
    n = rec.heavy_atom_count()
    assert filter_max_atoms(rec, limit=n)
    assert not filter_max_atoms(rec, limit=n - 1)


# -- malformed atoms: the first problem in document order ---------------------


def fault_document():
    """Decoded canonical JSON: chains A (GLY, SER) and B (ALA, GLY) and two
    ligand atoms, every atom with three float coordinates."""
    def residue(rtype, x0):
        return {"type": rtype, "atoms": [
            {"name": name, "element": name[0], "xyz": [x0 + 1.5 * k, 0.5, -1.25]}
            for k, name in enumerate(RESIDUE_ATOM_ORDER[rtype])]}
    return {"complex_id": "faults", "chains": [
        {"chain_id": "A", "uniprot_id": None,
         "residues": [residue("GLY", 0.0), residue("SER", 10.0)]},
        {"chain_id": "B", "uniprot_id": "P12345",
         "residues": [residue("ALA", 20.0), residue("GLY", 30.0)]}],
        "ligand_atoms": [{"element": "C", "xyz": [5.0, 5.0, 5.0]},
                         {"element": "Cl", "xyz": [6.5, 5.0, 5.0]}],
        "partition": {"A": "receptor", "B": "ligand_side"}}


# where a fault goes: (list of atoms, index) in the document
FAULT_POSITIONS = {
    "first-atom": lambda doc: (doc["chains"][0]["residues"][0]["atoms"], 0),
    "last-atom": lambda doc: (doc["chains"][-1]["residues"][-1]["atoms"], -1),
    "ligand-atom": lambda doc: (doc["ligand_atoms"], 1),
}


def _set_coord(i, value):
    def fault(atoms, k):
        atoms[k]["xyz"][i] = value
    return fault


def _set(key, value):
    def fault(atoms, k):
        atoms[k][key] = value
    return fault


def _repeat_name(atoms, k):
    # the neighbour's name (a ligand atom's name is not read)
    atoms[k]["name"] = atoms[1 if k == 0 else k - 1].get("name", "C1")


FAULTS = {
    "int-xyz": _set("xyz", [1, -2, 3]),
    "bool-xyz": _set_coord(1, True),
    "string-xyz": _set_coord(2, "3.0"),
    "two-long-xyz": _set("xyz", [1.0, 2.0]),
    "overflowing-sum": _set("xyz", [1e308, 1e308, 0.0]),
    "unknown-element": _set("element", "Qq"),
    "hydrogen": _set("element", "H"),
    "not-an-object": lambda atoms, k: atoms.__setitem__(k, [1.0, 2.0, 3.0]),
    "missing-key": lambda atoms, k: atoms[k].pop("xyz"),
    "duplicate-name": _repeat_name,
}

_FIRST = "$.chains[0].residues[0].atoms[0]"
_LAST = "$.chains[1].residues[1].atoms[3]"
_LIG = "$.ligand_atoms[1]"
# (path, message) each fault raises at each position, None where the atom is
# valid: int coordinates and a sum past the float range are, and ligand
# atom names are not read
FAULT_ERRORS = {
    ("int-xyz", "first-atom"): None,
    ("int-xyz", "last-atom"): None,
    ("int-xyz", "ligand-atom"): None,
    ("bool-xyz", "first-atom"): (f"{_FIRST}.xyz[1]", "bad coordinate True"),
    ("bool-xyz", "last-atom"): (f"{_LAST}.xyz[1]", "bad coordinate True"),
    ("bool-xyz", "ligand-atom"): (f"{_LIG}.xyz[1]", "bad coordinate True"),
    ("string-xyz", "first-atom"): (f"{_FIRST}.xyz[2]", "bad coordinate '3.0'"),
    ("string-xyz", "last-atom"): (f"{_LAST}.xyz[2]", "bad coordinate '3.0'"),
    ("string-xyz", "ligand-atom"): (f"{_LIG}.xyz[2]", "bad coordinate '3.0'"),
    ("two-long-xyz", "first-atom"): (f"{_FIRST}.xyz", "expected 3 values, got 2"),
    ("two-long-xyz", "last-atom"): (f"{_LAST}.xyz", "expected 3 values, got 2"),
    ("two-long-xyz", "ligand-atom"): (f"{_LIG}.xyz", "expected 3 values, got 2"),
    ("overflowing-sum", "first-atom"): None,
    ("overflowing-sum", "last-atom"): None,
    ("overflowing-sum", "ligand-atom"): None,
    ("unknown-element", "first-atom"): (f"{_FIRST}.element", "unknown element symbol 'Qq'"),
    ("unknown-element", "last-atom"): (f"{_LAST}.element", "unknown element symbol 'Qq'"),
    ("unknown-element", "ligand-atom"): (f"{_LIG}.element", "unknown element symbol 'Qq'"),
    ("hydrogen", "first-atom"): (f"{_FIRST}.element", "unknown element symbol 'H'"),
    ("hydrogen", "last-atom"): (f"{_LAST}.element", "unknown element symbol 'H'"),
    ("hydrogen", "ligand-atom"): (f"{_LIG}.element", "unknown element symbol 'H'"),
    ("not-an-object", "first-atom"): (_FIRST, "expected object, got list"),
    ("not-an-object", "last-atom"): (_LAST, "expected object, got list"),
    ("not-an-object", "ligand-atom"): (_LIG, "expected object, got list"),
    ("missing-key", "first-atom"): (f"{_FIRST}.xyz", "missing"),
    ("missing-key", "last-atom"): (f"{_LAST}.xyz", "missing"),
    ("missing-key", "ligand-atom"): (f"{_LIG}.xyz", "missing"),
    ("duplicate-name", "first-atom"): ("$.chains[0].residues[0].atoms[1]",
                                       "duplicate atom name 'CA'"),
    ("duplicate-name", "last-atom"): (_LAST, "duplicate atom name 'C'"),
    ("duplicate-name", "ligand-atom"): None,
}


@pytest.mark.parametrize("position", FAULT_POSITIONS)
@pytest.mark.parametrize("fault", FAULTS)
def test_malformed_atom_reports_text_and_path(fault, position):
    doc = fault_document()
    atoms, k = FAULT_POSITIONS[position](doc)
    FAULTS[fault](atoms, k)
    want = FAULT_ERRORS[fault, position]
    if want is None:
        rec = parse_canonical_json(json.dumps(doc))
        got = rec.ligand_atoms if position == "ligand-atom" else (
            [a for ch in rec.chains for r in ch.residues for a in r.atoms])
        assert got[k].xyz == tuple(float(v) for v in atoms[k]["xyz"])
        return
    with pytest.raises(SchemaError) as err:
        parse_canonical_json(json.dumps(doc))
    assert (err.value.path, str(err.value)) == (want[0], f"{want[0]}: {want[1]}")


def _two_faults(first, second):
    """The fault document with two faults, each a (locate, fault) pair."""
    def make():
        doc = fault_document()
        for locate, fault in (first, second):
            fault(*locate(doc))
        return doc
    return make


def _atom_at(chain, residue, atom):
    return lambda doc: (doc["chains"][chain]["residues"][residue]["atoms"], atom)


@pytest.mark.parametrize("make, path, message", [
    # an atom of chain A's second residue before one of chain B's first
    (_two_faults((_atom_at(0, 1, 2), FAULTS["bool-xyz"]), (_atom_at(1, 0, 0), FAULTS["hydrogen"])),
     "$.chains[0].residues[1].atoms[2].xyz[1]", "bad coordinate True"),
    # two faults in one residue: the earlier atom's
    (_two_faults((_atom_at(1, 1, 3), FAULTS["missing-key"]),
                 (_atom_at(1, 1, 1), FAULTS["string-xyz"])),
     "$.chains[1].residues[1].atoms[1].xyz[2]", "bad coordinate '3.0'"),
    # a residue's type is read before its atoms
    (_two_faults((_atom_at(0, 1, 0), FAULTS["two-long-xyz"]),
                 (lambda doc: (doc["chains"][0]["residues"], 1), _set("type", "ZZZ"))),
     "$.chains[0].residues[1].type", "unknown residue type 'ZZZ'"),
    # a repeated name is a record check, made once every atom has parsed
    (_two_faults((_atom_at(0, 0, 0), FAULTS["duplicate-name"]),
                 (lambda doc: (doc["ligand_atoms"], 0), FAULTS["unknown-element"])),
     "$.ligand_atoms[0].element", "unknown element symbol 'Qq'"),
], ids=["across-chains", "within-residue", "type-before-atoms", "atoms-before-names"])
def test_first_of_two_faults_is_reported(make, path, message):
    with pytest.raises(SchemaError) as err:
        parse_canonical_json(json.dumps(make()))
    assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")


# -- the one reader against the schema's per-value rule ------------------------

_NEG_ZERO = "<-0>"  # stands for the JSON literal -0, which decodes to the int 0
_BIG = 2**1024 - 2**970 - 1  # the largest int whose float is finite
_GOOD_COORDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-2**64, 2**64),
    st.integers(-_BIG, _BIG),
    st.sampled_from([0, _NEG_ZERO, -0.0, 2**53 + 1, -(2**53 + 1), _BIG, -_BIG]))
_BAD_COORDS = st.one_of(
    st.sampled_from([10**400, -10**400, _BIG + 1, True, False, None, float("nan"),
                     float("inf"), float("-inf")]),
    st.text(max_size=3))
_GOOD_ELEMENTS = st.sampled_from(["C", "c", " N ", "o", "cl", "CL", " se", "Fe", "zn", "metal",
                                  "Other", "Si"])
_BAD_ELEMENTS = st.sampled_from(["H", "D", "Qq", "", " ", 6, None, ["C"]])


class Refused(Exception):
    pass


def _expect(obj, key, kind, path):
    if type(obj) is not dict:
        raise Refused(path, f"expected object, got {type(obj).__name__}")
    if key not in obj:
        raise Refused(f"{path}.{key}", "missing")
    if type(obj[key]) is not kind:
        raise Refused(f"{path}.{key}", f"expected {kind.__name__}, got {type(obj[key]).__name__}")
    return obj[key]


def _rule_atom(atom, path, named):
    """The schema's rule for one atom: (name, element, coordinates), or Refused."""
    name = _expect(atom, "name", str, path) if named else ""
    sym = _expect(atom, "element", str, path)
    if classify_element(sym) is None:
        raise Refused(f"{path}.element", f"unknown element symbol {sym!r}")
    xyz = _expect(atom, "xyz", list, path)
    if len(xyz) != 3:
        raise Refused(f"{path}.xyz", f"expected 3 values, got {len(xyz)}")
    for i, v in enumerate(xyz):
        try:
            ok = type(v) in (int, float) and math.isfinite(float(v))
        except OverflowError:
            ok = False
        if not ok:
            raise Refused(f"{path}.xyz[{i}]", f"bad coordinate {v!r}")
    return name, classify_element(sym), [float(v) for v in xyz]


def per_value_rule(doc):
    """The atoms of a decoded document, chain by chain and then the ligand,
    as the rule takes them value by value; Refused(path, message) at the
    first value it refuses."""
    out = []
    for ci, ch in enumerate(doc["chains"]):
        for ri, res in enumerate(ch["residues"]):
            path = f"$.chains[{ci}].residues[{ri}]"
            rtype = _expect(res, "type", str, path)
            if rtype not in RESIDUE_TYPES:
                raise Refused(f"{path}.type", f"unknown residue type {rtype!r}")
            out += [_rule_atom(a, f"{path}.atoms[{ai}]", named=True)
                    for ai, a in enumerate(_expect(res, "atoms", list, path))]
    return out + [_rule_atom(a, f"$.ligand_atoms[{ai}]", named=False)
                  for ai, a in enumerate(doc["ligand_atoms"])]


@st.composite
def good_atom(draw, name):
    atom = {"element": draw(_GOOD_ELEMENTS), "xyz": draw(st.lists(_GOOD_COORDS, min_size=3,
                                                                   max_size=3))}
    return atom if name is None else {"name": name, **atom}


def _fault_atom(draw, atom):
    """One problem in ``atom``: a bad value, a wrong type or length, a missing key."""
    kind = draw(st.sampled_from(["coord"] * 4 + ["length", "xyz-type", "element", "name",
                                                 "missing", "not-object"]))
    if kind == "coord" and type(atom.get("xyz")) is list and atom["xyz"]:
        atom["xyz"][draw(st.integers(0, len(atom["xyz"]) - 1))] = draw(_BAD_COORDS)
    elif kind == "length":
        atom["xyz"] = draw(st.lists(_GOOD_COORDS, min_size=2, max_size=4).filter(
            lambda xyz: len(xyz) != 3))
    elif kind == "xyz-type":
        atom["xyz"] = draw(st.sampled_from(["1 2 3", None, {"x": 1.0}]))
    elif kind == "element":
        atom["element"] = draw(_BAD_ELEMENTS)
    elif kind == "name" and "name" in atom:
        atom["name"] = draw(st.sampled_from([7, None, ["CA"]]))
    elif kind == "missing":
        atom.pop(draw(st.sampled_from(sorted(atom))))
    elif kind == "not-object":
        return [1.0, 2.0, 3.0]
    return atom


@st.composite
def documents(draw):
    """A record of 1-2 chains of 1-3 residues of 1-4 atoms and 0-3 ligand
    atoms, all valid, with up to two faults put in anywhere."""
    chains = [{"chain_id": cid, "uniprot_id": None, "residues": [
        {"type": draw(st.sampled_from(RESIDUE_TYPES)),
         "atoms": [draw(good_atom(f"A{k}")) for k in range(draw(st.integers(1, 4)))]}
        for _ in range(draw(st.integers(1, 3)))]}
        for cid in "AB"[:draw(st.integers(1, 2))]]
    ligand = [draw(good_atom(None)) for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        residues = [r for ch in chains for r in ch["residues"]]
        where = draw(st.sampled_from(["residue", "atom", "ligand"] if ligand else
                                     ["residue", "atom"]))
        if where == "residue":
            res = draw(st.sampled_from(residues))
            key, value = draw(st.sampled_from([("type", "ZZZ"), ("type", 20), ("atoms", None),
                                               ("atoms", "N CA C")]))
            if value is None:
                res.pop(key, None)
            else:
                res[key] = value
        else:
            atoms = ligand if where == "ligand" else draw(st.sampled_from(
                [r["atoms"] for r in residues if type(r.get("atoms")) is list]
                or [ligand]))
            if atoms:
                k = draw(st.integers(0, len(atoms) - 1))
                if type(atoms[k]) is dict:
                    atoms[k] = _fault_atom(draw, atoms[k])
    text = json.dumps({"complex_id": "prop", "chains": chains, "ligand_atoms": ligand,
                       "partition": {ch["chain_id"]: "receptor" for ch in chains}})
    return text.replace(json.dumps(_NEG_ZERO), "-0")


@settings(max_examples=300, deadline=None)
@given(documents())
def test_one_reader_accepts_what_the_per_value_rule_accepts(text):
    # 300 small records, about 2.6 s on 2 vCPU; a walk runs only where the rule refuses
    try:
        want = per_value_rule(json.loads(text))
    except Refused as refused:
        want = refused.args
    walks = []
    walk = structio._raise_first_problem
    with mock.patch.object(structio, "_raise_first_problem",
                           lambda *args, **kw: walks.append(args) or walk(*args, **kw)):
        if isinstance(want, tuple):
            with pytest.raises(SchemaError) as err:
                parse_canonical_json(text)
            assert (err.value.path, str(err.value)) == (want[0], f"{want[0]}: {want[1]}")
            assert len(walks) == 1
            return
        rec = parse_canonical_json(text)
    assert walks == []
    atoms = [ch.residues.atoms for ch in rec.chains] + [rec.ligand_atoms]
    assert [n for a in atoms for n in a.names.tolist()] == [name for name, _, _ in want]
    assert [ELEMENTS[e] for a in atoms for e in a.elements.tolist()] == [e for _, e, _ in want]
    got = np.concatenate([a.xyz for a in atoms])
    assert got.dtype == np.float64
    assert got.tobytes() == np.array([xyz for _, _, xyz in want]).reshape(-1, 3).tobytes()
