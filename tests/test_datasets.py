"""Label tables, annotation, leakage-safe splits, label serialization,
and the synthetic corpus generator."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemenet.datasets import (
    PROPERTY_TASKS,
    SampleLabels,
    SyntheticConfig,
    annotate_complex,
    assemble_splits,
    build_uniprot_table,
    chain_key,
    generate_synthetic,
    is_fully_labeled,
    labels_from_obj,
    labels_to_obj,
    load_labels,
    read_cluster_map,
    save_labels,
    synthetic_cluster_map,
)
from hemenet.errors import ConfigError, DataError
from hemenet.structio import ComplexRecord

from conftest import make_chain, make_ligand

DIMS = {"ec": 8, "mf": 8, "bp": 8, "cc": 8}


def tiny_residue(base=(0.0, 0.0, 0.0)):
    return ("GLY", (
        ("N", "N", (base[0], base[1], base[2])),
        ("CA", "C", (base[0] + 1.4, base[1], base[2])),
        ("C", "C", (base[0] + 2.0, base[1] + 1.2, base[2])),
        ("O", "O", (base[0] + 3.1, base[1] + 1.4, base[2])),
    ))


def make_rec(complex_id, chain_ids, uids=None):
    uids = uids or {cid: None for cid in chain_ids}
    chains = tuple(
        make_chain(cid, [tiny_residue((10.0 * k, 0.0, 0.0))], uids.get(cid))
        for k, cid in enumerate(chain_ids)
    )
    return ComplexRecord(complex_id, chains,
                         make_ligand(), {cid: "receptor" for cid in chain_ids})


def full_labels(chain_ids, affinity="lba", value=5.0):
    labels = SampleLabels()
    setattr(labels, affinity, value)
    for cid in chain_ids:
        labels.chain_props[cid] = {
            t: np.ones(DIMS[t], dtype=np.uint8) for t in PROPERTY_TASKS}
    return labels


# -- annotation table ---------------------------------------------------------


def test_table_build_and_or_merge():
    tsv = "U1\tec\t0\nU1\tec\t3\nU1\tec\t0\n# comment\n\nU2\tmf\t7\n"
    table = build_uniprot_table(tsv.splitlines(), dims=DIMS)
    np.testing.assert_array_equal(
        table.rows["U1"]["ec"], [1, 0, 0, 1, 0, 0, 0, 0])
    np.testing.assert_array_equal(np.flatnonzero(table.rows["U2"]["mf"]), [7])
    assert table.get(None) == {}
    assert table.get("U9") == {}


def test_table_boundary_indices():
    table = build_uniprot_table([f"U1\tec\t{DIMS['ec'] - 1}", "U1\tec\t0"], dims=DIMS)
    assert table.rows["U1"]["ec"][DIMS["ec"] - 1] == 1
    with pytest.raises(DataError, match="row 1.*out of range"):
        build_uniprot_table([f"U1\tec\t{DIMS['ec']}"], dims=DIMS)
    with pytest.raises(DataError, match="row 1.*out of range"):
        build_uniprot_table(["U1\tec\t-1"], dims=DIMS)


def test_table_malformed_rows():
    with pytest.raises(DataError, match="row 1: expected 3"):
        build_uniprot_table(["U1\tec"], dims=DIMS)
    with pytest.raises(DataError, match="row 2: bad index"):
        build_uniprot_table(["U1\tec\t1", "U1\tec\tseven"], dims=DIMS)
    with pytest.raises(DataError, match="unknown task"):
        build_uniprot_table(["U1\tgo\t1"], dims=DIMS)


def test_annotate_attaches_by_uniprot_id():
    rec = make_rec("c1", ["A", "B"], uids={"A": "U1", "B": None})
    table = build_uniprot_table(["U1\tec\t2", "U1\tbp\t5"], dims=DIMS)
    labels = annotate_complex(rec, table)
    assert np.flatnonzero(labels.chain_props["A"]["ec"]).tolist() == [2]
    assert np.flatnonzero(labels.chain_props["A"]["bp"]).tolist() == [5]
    assert "mf" not in labels.chain_props["A"]
    assert "B" not in labels.chain_props


def test_annotate_merges_base_labels():
    rec = make_rec("c1", ["A"], uids={"A": "U1"})
    base = SampleLabels(lba=6.3, chain_props={
        "A": {"ec": np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8)}})
    table = build_uniprot_table(["U1\tec\t3"], dims=DIMS)
    merged = annotate_complex(rec, table, base=base)
    assert merged.lba == 6.3
    np.testing.assert_array_equal(
        np.flatnonzero(merged.chain_props["A"]["ec"]), [0, 3])
    # the base object is untouched
    np.testing.assert_array_equal(np.flatnonzero(base.chain_props["A"]["ec"]), [0])


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["U1", "U2"]), st.sampled_from(PROPERTY_TASKS),
              st.integers(0, 7)),
    max_size=20))
def test_annotate_is_monotone_in_the_table(rows):
    rec = make_rec("c1", ["A", "B"], uids={"A": "U1", "B": "U2"})
    half = rows[: len(rows) // 2]
    t_small = build_uniprot_table([f"{u}\t{t}\t{i}" for u, t, i in half],
                                  dims=DIMS)
    t_big = build_uniprot_table([f"{u}\t{t}\t{i}" for u, t, i in rows],
                                dims=DIMS)
    small = annotate_complex(rec, t_small)
    big = annotate_complex(rec, t_big)
    for cid, props in small.chain_props.items():
        for task, vec in props.items():
            if vec is None:
                continue
            grown = big.chain_props[cid][task]
            assert np.all(vec <= grown)


# -- labeled-sample predicate ---------------------------------------------------


def test_is_fully_labeled_cases():
    chains = ["A"]
    assert is_fully_labeled(full_labels(chains), chains)
    assert is_fully_labeled(full_labels(chains, affinity="ppa"), chains)
    # no affinity
    labels = full_labels(chains)
    labels.lba = None
    assert not is_fully_labeled(labels, chains)
    # both affinities
    labels = full_labels(chains)
    labels.ppa = 4.0
    assert not is_fully_labeled(labels, chains)
    # one property vector missing
    labels = full_labels(chains)
    labels.chain_props["A"]["cc"] = None
    assert not is_fully_labeled(labels, chains)
    # a chain with no property entry at all
    labels = full_labels(chains)
    assert not is_fully_labeled(labels, ["A", "B"])


def test_labels_validate():
    labels = SampleLabels(lba=1.0, ppa=2.0)
    with pytest.raises(DataError, match="both affinity"):
        labels.validate(DIMS)
    labels = SampleLabels(chain_props={"A": {"ec": np.ones(9, dtype=np.uint8)}})
    with pytest.raises(DataError, match="length 9"):
        labels.validate(DIMS)
    labels = SampleLabels(chain_props={"A": {"zz": np.ones(8, dtype=np.uint8)}})
    with pytest.raises(DataError, match="unknown property task"):
        labels.validate(DIMS)


# -- splits ---------------------------------------------------------------------


def make_corpus(n_full=8, n_partial=4):
    samples = []
    for i in range(n_full):
        rec = make_rec(f"full{i}", ["A"])
        samples.append((rec, full_labels(["A"])))
    for i in range(n_partial):
        rec = make_rec(f"part{i}", ["A"])
        labels = SampleLabels(lba=3.0)  # affinity only
        samples.append((rec, labels))
    return samples


def test_split_determinism_and_fractions():
    samples = make_corpus()
    clusters = {chain_key(rec.complex_id, ch.chain_id): f"c{k}"
                for k, (rec, _) in enumerate(samples) for ch in rec.chains}
    out1 = assemble_splits(samples, clusters, seed=5, fractions=(0.5, 0.25, 0.25))
    out2 = assemble_splits(samples, clusters, seed=5, fractions=(0.5, 0.25, 0.25))
    assert out1.assignment == out2.assignment
    assert out1.cluster_of == out2.cluster_of
    counts = {s: 0 for s in ("train", "val", "test")}
    for cid, split in out1.assignment.items():
        if cid.startswith("full"):
            counts[split] += 1
    assert counts == {"train": 4, "val": 2, "test": 2}


def test_split_accepts_tsv_cluster_source():
    samples = make_corpus(n_full=4, n_partial=0)
    tsv = "\n".join(
        f"{chain_key(rec.complex_id, ch.chain_id)}\tc{k}"
        for k, (rec, _) in enumerate(samples) for ch in rec.chains)
    out = assemble_splits(samples, tsv.splitlines(), seed=1, fractions=(0.5, 0.25, 0.25))
    assert len(out.assignment) == 4
    assert read_cluster_map(tsv.splitlines()) == {
        chain_key(rec.complex_id, rec.chains[0].chain_id): f"c{k}"
        for k, (rec, _) in enumerate(samples)}


def test_split_missing_cluster_rejected():
    samples = make_corpus(n_full=2, n_partial=0)
    with pytest.raises(DataError, match="missing from cluster map"):
        assemble_splits(samples, {}, seed=0)


def test_partial_sharing_test_cluster_is_dropped():
    # one fully labeled complex lands in test (fractions force it);
    # a partial complex sharing its cluster must be dropped
    full_rec = make_rec("full0", ["A"])
    part_rec = make_rec("part0", ["A"])
    samples = [(full_rec, full_labels(["A"])), (part_rec, SampleLabels(ppa=2.0))]
    clusters = {"full0:A": "c0", "part0:A": "c0"}
    out = assemble_splits(samples, clusters, seed=0, fractions=(0.0, 0.0, 1.0))
    assert out.assignment["full0"] == "test"
    assert out.dropped == ("part0",)
    assert "part0" not in out.assignment


def test_clusters_merge_through_shared_complex():
    # bridge complex carries chains in c1 and c2, merging them; a partial
    # complex in c1 then conflicts with a test complex in c2
    bridge = make_rec("bridge", ["A", "B"])
    test_rec = make_rec("tst", ["A"])
    part_rec = make_rec("prt", ["A"])
    samples = [
        (bridge, full_labels(["A", "B"])),
        (test_rec, full_labels(["A"], affinity="ppa")),
        (part_rec, SampleLabels(lba=1.0)),
    ]
    clusters = {"bridge:A": "c1", "bridge:B": "c2", "tst:A": "c2", "prt:A": "c1"}
    out = assemble_splits(samples, clusters, seed=3, fractions=(0.0, 0.0, 1.0))
    assert out.cluster_of["bridge:A"] == out.cluster_of["bridge:B"]
    assert out.dropped == ("prt",)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), map_seed=st.integers(0, 1000),
       n_clusters=st.integers(1, 6))
def test_no_partial_train_sample_shares_cluster_with_test(seed, map_seed, n_clusters):
    samples = make_corpus(n_full=6, n_partial=5)
    clusters = synthetic_cluster_map(samples, n_clusters=n_clusters, seed=map_seed)
    out = assemble_splits(samples, clusters, seed=seed, fractions=(0.4, 0.2, 0.4))
    by_id = {rec.complex_id: rec for rec, _ in samples}
    # every sample is either assigned or dropped, never both
    assigned = set(out.assignment)
    assert assigned.isdisjoint(out.dropped)
    assert assigned | set(out.dropped) == set(by_id)
    test_clusters = {
        out.cluster_of[chain_key(cid, ch.chain_id)]
        for cid, split in out.assignment.items() if split == "test"
        for ch in by_id[cid].chains
    }
    for cid, split in out.assignment.items():
        if not cid.startswith("part"):
            continue
        assert split == "train"
        own = {out.cluster_of[chain_key(cid, ch.chain_id)]
               for ch in by_id[cid].chains}
        assert not (own & test_clusters)


# -- label serialization ---------------------------------------------------------


def test_labels_obj_round_trip():
    labels = SampleLabels(ppa=7.25, chain_props={
        "A": {"ec": np.array([0, 1, 0, 1, 0, 0, 0, 0], dtype=np.uint8), "mf": None},
        "B": {"bp": np.zeros(8, dtype=np.uint8)},
    })
    back = labels_from_obj(labels_to_obj(labels), DIMS)
    assert back.lba is None and back.ppa == 7.25
    np.testing.assert_array_equal(
        back.chain_props["A"]["ec"], labels.chain_props["A"]["ec"])
    assert back.chain_props["A"]["mf"] is None
    assert np.count_nonzero(back.chain_props["B"]["bp"]) == 0


def test_labels_file_round_trip(tmp_path):
    by_id = {
        "c1": full_labels(["A"]),
        "c2": SampleLabels(ppa=2.5, chain_props={
            "A": {"ec": np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8)}}),
    }
    path = tmp_path / "labels.json"
    save_labels(path, by_id, DIMS)
    back, dims = load_labels(path)
    assert dims == DIMS
    assert set(back) == {"c1", "c2"}
    assert back["c2"].ppa == 2.5
    np.testing.assert_array_equal(
        np.flatnonzero(back["c2"].chain_props["A"]["ec"]), [0, 7])
    # identical bytes on rewrite
    path2 = tmp_path / "again.json"
    save_labels(path2, back, dims)
    assert path.read_bytes() == path2.read_bytes()


def test_labels_from_obj_rejects_bad_index():
    obj = {"lba": 1.0, "chains": {"A": {"ec": [11]}}}
    with pytest.raises(DataError, match="out of range"):
        labels_from_obj(obj, DIMS)


@pytest.mark.parametrize("keys, value, why", [
    (("labels", "c", "chains", "A", "ec", 0), True, "ec index True is not an integer"),
    (("labels", "c", "chains", "A", "ec", 0), 1.0, "ec index 1.0 is not an integer"),
    (("dims", "ec"), 8.7, "ec dim 8.7 is not an integer >= 1"),
    (("dims", "ec"), "8", "ec dim '8' is not an integer >= 1"),
    (("dims", "ec"), 0, "ec dim 0 is not an integer >= 1"),
    (("dims", "ec"), True, "ec dim True is not an integer >= 1"),
    (("labels", "c", "lba"), True, "lba label True is not a finite number"),
], ids=["bool-bit", "float-bit", "float-dim", "text-dim", "zero-dim",
        "bool-dim", "bool-affinity"])
def test_load_labels_rejects_wrong_json_types(tmp_path, keys, value, why):
    """Bits and dims are JSON integers (not booleans, not floats), dims
    are at least 1, and affinities are numbers that are not booleans;
    anything else is a DataError naming the file."""
    path = tmp_path / "labels.json"
    save_labels(path, {"c": full_labels(["A"])}, DIMS)
    obj = json.loads(path.read_text(encoding="utf-8"))
    target = obj
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(str(path)) + ": .*" + re.escape(why)):
        load_labels(path)


# -- synthetic corpus -------------------------------------------------------------


def test_synthetic_deterministic():
    cfg = SyntheticConfig(n_samples=6, seed=42)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert [rec.complex_id for rec, _ in a] == [rec.complex_id for rec, _ in b]
    for (ra, la), (rb, lb) in zip(a, b):
        assert ra == rb
        assert labels_to_obj(la) == labels_to_obj(lb)


def test_synthetic_anchors_cover_tasks():
    samples = generate_synthetic(SyntheticConfig(n_samples=6, seed=0))
    rec_lba, lab_lba = samples[0]  # anchor order follows the task mix
    assert lab_lba.lba is not None and len(rec_lba.ligand_atoms) >= 3
    rec_ppa, lab_ppa = samples[1]
    assert lab_ppa.ppa is not None
    assert len(rec_ppa.chains) == 2
    assert "ligand_side" in rec_ppa.partition.values()
    for k, task in enumerate(("ec", "mf", "bp", "cc"), start=2):
        _, labels = samples[k]
        assert any(props.get(task) is not None
                   for props in labels.chain_props.values())


def test_synthetic_minimum_size():
    samples = generate_synthetic(SyntheticConfig(n_samples=2, max_residues=1, seed=1))
    for rec, labels in samples:
        assert all(len(ch.residues) == 1 for ch in rec.chains)
        labels.validate(DIMS)


def test_synthetic_config_validation():
    with pytest.raises(ConfigError):
        SyntheticConfig(n_samples=0).validate()


def test_synthetic_cluster_map_covers_all_chains():
    samples = generate_synthetic(SyntheticConfig(n_samples=5, seed=2))
    cmap = synthetic_cluster_map(samples, n_clusters=3, seed=0)
    for rec, _ in samples:
        for ch in rec.chains:
            assert chain_key(rec.complex_id, ch.chain_id) in cmap
