"""End-to-end command-line behavior: exit codes, reproducible run
metadata, resume, parallel evaluation, and the auxiliary tools."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from hemenet import cli
from hemenet.cli import main
from test_structio import pline, tiny_pdb, two_chain_json

TRAIN_ARGS = [
    "--L", "1", "--d", "8", "--heads", "2", "--norm", "layer",
    "--dtype", "float32", "--epochs", "2", "--batch-size", "4",
    "--lr", "1e-3", "--seed", "0",
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    data = root / "data"
    assert main(["gen-synthetic", "--out", str(data), "--n", "10", "--seed", "7",
                 "--extra-rate", "1.0", "--clusters", "3"]) == 0
    splits = root / "splits.json"
    assert main(["split", "--records", str(data / "records.ndjson"),
                 "--labels", str(data / "labels.json"),
                 "--clusters", str(data / "clusters.tsv"),
                 "--seed", "0", "--out", str(splits)]) == 0
    return {
        "records": str(data / "records.ndjson"),
        "labels": str(data / "labels.json"),
        "clusters": str(data / "clusters.tsv"),
        "splits": str(splits),
        "root": root,
    }


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--records", corpus["records"], "--labels", corpus["labels"],
                 "--splits", corpus["splits"], "--out", str(out), *TRAIN_ARGS])
    assert code == 0
    return out


def corpus_args(corpus, out):
    return ["--records", corpus["records"], "--labels", corpus["labels"],
            "--splits", corpus["splits"], "--out", str(out)]


# -- corpus tools ---------------------------------------------------------------


def test_gen_synthetic_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen-synthetic", "--out", str(out), "--n", "4",
                     "--seed", "3"]) == 0
    for name in ("records.ndjson", "labels.json", "clusters.tsv", "meta.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_split_outputs_and_determinism(corpus, tmp_path):
    again = tmp_path / "splits2.json"
    assert main(["split", "--records", corpus["records"], "--labels", corpus["labels"],
                 "--clusters", corpus["clusters"], "--seed", "0",
                 "--out", str(again)]) == 0
    assert Path(corpus["splits"]).read_bytes() == again.read_bytes()
    prov = json.loads((again.parent / "splits2.json.provenance.json").read_text())
    assert prov["seed"] == 0
    assignment = json.loads(again.read_text())
    assert set(assignment.values()) == {"train", "val", "test"}
    # assigned + dropped covers the corpus exactly once
    assert len(assignment) + len(prov["dropped"]) == 10


def test_split_missing_cluster_file(corpus, tmp_path):
    code = main(["split", "--records", corpus["records"], "--labels", corpus["labels"],
                 "--clusters", str(tmp_path / "nope.tsv"), "--seed", "0",
                 "--out", str(tmp_path / "s.json")])
    assert code == 1


# -- ingest -----------------------------------------------------------------------


def test_ingest_mixed_inputs(tmp_path, capsys):
    good = tmp_path / "good.pdb"
    good.write_text(tiny_pdb(), encoding="utf-8")
    bad = tmp_path / "bad.pdb"
    bad.write_text("ATOM      1  N   GLY A   1\n", encoding="utf-8")
    out = tmp_path / "records.ndjson"
    assert main(["ingest", str(good), str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "bad.pdb" in err
    assert out.exists() and len(out.read_text().splitlines()) == 1

    assert main(["ingest", str(good), "--out", str(out)]) == 0
    assert main(["ingest", str(tmp_path / "missing.pdb"), "--out", str(out)]) == 1


def test_ingest_max_atoms_filter(tmp_path, caplog):
    good = tmp_path / "good.pdb"
    good.write_text(tiny_pdb(), encoding="utf-8")
    out = tmp_path / "records.ndjson"
    assert main(["ingest", str(good), "--out", str(out), "--max-atoms", "5"]) == 0
    assert out.read_text().strip() == ""
    assert "exceeds 5 heavy atoms" in caplog.text


# -- annotate ---------------------------------------------------------------------


def test_annotate_affinities_and_properties(corpus, tmp_path):
    ann = tmp_path / "ann.tsv"
    ann.write_text("SYN0000A\tec\t2\nSYN0000A\tmf\t0\n", encoding="utf-8")
    aff = tmp_path / "aff.tsv"
    aff.write_text("syn0000\tlba\t6.3\n", encoding="utf-8")
    out = tmp_path / "labels.json"
    assert main(["annotate", "--records", corpus["records"],
                 "--annotations", str(ann), "--affinities", str(aff),
                 "--dims", "ec=8,mf=8,bp=8,cc=8", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    entry = obj["labels"]["syn0000"]
    assert entry["lba"] == 6.3
    assert entry["chains"]["A"]["ec"] == [2]
    assert entry["chains"]["A"]["mf"] == [0]


def test_annotate_missing_annotation_file(corpus, tmp_path, capsys):
    missing = tmp_path / "missing.tsv"
    assert main(["annotate", "--records", corpus["records"], "--annotations",
                 str(missing), "--out", str(tmp_path / "x.json")]) == 1
    err = capsys.readouterr().err
    assert "input error:" in err and str(missing) in err


def test_annotate_bad_affinity_rows(corpus, tmp_path):
    aff = tmp_path / "aff.tsv"
    aff.write_text("syn0000\tkd\t6.3\n", encoding="utf-8")
    assert main(["annotate", "--records", corpus["records"], "--affinities",
                 str(aff), "--out", str(tmp_path / "x.json")]) == 1
    aff.write_text("syn0000\tlba\t6.3\nsyn0000\tppa\t2.0\n", encoding="utf-8")
    assert main(["annotate", "--records", corpus["records"], "--affinities",
                 str(aff), "--out", str(tmp_path / "x.json")]) == 1


# -- train ------------------------------------------------------------------------


def test_train_outputs(trained):
    for name in ("run.json", "metrics.jsonl", "report.json", "best.bin",
                 "best.bin.json", "ckpt_epoch0000.bin", "ckpt_epoch0001.bin"):
        assert (trained / name).exists(), name
    run = json.loads((trained / "run.json").read_text())
    assert run["epochs"] == 2 and run["seed"] == 0
    assert run["task_dims"] == {"bp": 8, "cc": 8, "ec": 8, "mf": 8}
    assert "best_val_rule" in run
    rows = [json.loads(line) for line in
            (trained / "metrics.jsonl").read_text().splitlines()]
    assert {row["split"] for row in rows} == {"train", "val"}
    assert {row["epoch"] for row in rows} == {0, 1}


def test_run_json_reproduces_run_byte_identically(corpus, trained, tmp_path):
    out2 = tmp_path / "again"
    config = tmp_path / "config.json"
    run = json.loads((trained / "run.json").read_text())
    run.pop("version")
    run.pop("best_val_rule")
    run.pop("task_dims")
    run["out"] = str(out2)
    config.write_text(json.dumps(run), encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 0
    for name in ("metrics.jsonl", "report.json", "best.bin"):
        assert (trained / name).read_bytes() == (out2 / name).read_bytes(), name


def test_flags_override_config_file(corpus, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "records": corpus["records"], "labels": corpus["labels"],
        "splits": corpus["splits"], "out": str(tmp_path / "a"),
        "L": 1, "d": 8, "heads": 2, "norm": "layer", "epochs": 1,
        "lr": 0.1, "seed": 0}), encoding="utf-8")
    out = tmp_path / "b"
    assert main(["train", "--config", str(config), "--lr", "1e-3",
                 "--out", str(out)]) == 0
    run = json.loads((out / "run.json").read_text())
    assert run["lr"] == 1e-3 and run["L"] == 1


def test_unknown_config_key_rejected(corpus, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "records": corpus["records"], "labels": corpus["labels"],
        "splits": corpus["splits"], "out": str(tmp_path / "x"),
        "momentum": 0.9}), encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 2


def test_env_seed_fallback(corpus, tmp_path, monkeypatch):
    monkeypatch.setenv("HEMENET_SEED", "123")
    out = tmp_path / "envseed"
    assert main(["train", *corpus_args(corpus, out), "--L", "1", "--d", "8",
                 "--heads", "2", "--norm", "layer", "--epochs", "1"]) == 0
    assert json.loads((out / "run.json").read_text())["seed"] == 123
    monkeypatch.setenv("HEMENET_SEED", "not-a-number")
    assert main(["train", *corpus_args(corpus, tmp_path / "bad"), "--L", "1",
                 "--d", "8", "--heads", "2", "--epochs", "1"]) == 2


def test_task_subset_restricts_metrics(corpus, tmp_path):
    out = tmp_path / "subset"
    assert main(["train", *corpus_args(corpus, out), *TRAIN_ARGS,
                 "--tasks", "lba,ec"]) == 0
    rows = [json.loads(line) for line in
            (out / "metrics.jsonl").read_text().splitlines()]
    assert {row["task"] for row in rows} <= {"_total", "lba", "ec"}
    assert main(["train", *corpus_args(corpus, tmp_path / "bad"), *TRAIN_ARGS,
                 "--tasks", "lba,docking"]) == 2


def test_resume_continues_identically(corpus, tmp_path):
    full = tmp_path / "full"
    short = tmp_path / "short"
    resumed = tmp_path / "resumed"
    base = ["train", "--L", "1", "--d", "8", "--heads", "2", "--norm", "layer",
            "--dtype", "float32", "--batch-size", "4", "--lr", "1e-3", "--seed", "0"]
    assert main([*base, *corpus_args(corpus, full), "--epochs", "3"]) == 0
    assert main([*base, *corpus_args(corpus, short), "--epochs", "2"]) == 0
    assert main([*base, *corpus_args(corpus, resumed), "--epochs", "3",
                 "--resume", str(short / "ckpt_epoch0001.bin")]) == 0
    want = (full / "ckpt_epoch0002.bin").read_bytes()
    assert (resumed / "ckpt_epoch0002.bin").read_bytes() == want
    # a resume into another directory starts its history there afresh
    assert json.loads((resumed / "best.bin.json").read_text())["epoch"] == 2
    rows = [json.loads(line) for line in (resumed / "metrics.jsonl").read_text().splitlines()]
    assert {row["epoch"] for row in rows} == {2}


def test_resume_in_place_keeps_history(corpus, tmp_path):
    """2 epochs, then a resume to 4 in the same --out, write the same
    metrics.jsonl, best.bin and report.json as a straight 4-epoch run."""
    full, split = tmp_path / "full", tmp_path / "split"
    base = ["train", "--L", "1", "--d", "8", "--heads", "2", "--norm", "layer",
            "--dtype", "float32", "--batch-size", "4", "--lr", "1e-3", "--seed", "0"]
    assert main([*base, *corpus_args(corpus, full), "--epochs", "4"]) == 0
    assert main([*base, *corpus_args(corpus, split), "--epochs", "2"]) == 0
    assert main([*base, *corpus_args(corpus, split), "--epochs", "4",
                 "--resume", str(split / "ckpt_epoch0001.bin")]) == 0
    for name in ("metrics.jsonl", "best.bin", "best.bin.json", "report.json"):
        assert (split / name).read_bytes() == (full / name).read_bytes(), name
    rows = [json.loads(line) for line in (full / "metrics.jsonl").read_text().splitlines()]
    assert sorted({row["epoch"] for row in rows}) == [0, 1, 2, 3]
    assert {row["split"] for row in rows} == {"train", "val"}
    assert not [p for p in os.listdir(split) if p.endswith(".tmp")]


@pytest.mark.parametrize("where", ["train", "validation"])
def test_resume_after_interruption_equals_uninterrupted_run(corpus, tmp_path, monkeypatch,
                                                            where):
    """A resumed run killed in its first epoch, during training or during
    validation, keeps the carried history on disk and leaves no checkpoint
    for that epoch; resuming again, even past a row cut mid-line, ends
    byte-equal to a straight 4-epoch run."""
    full, split = tmp_path / "full", tmp_path / "split"
    base = ["train", "--L", "1", "--d", "8", "--heads", "2", "--norm", "layer",
            "--dtype", "float32", "--batch-size", "4", "--lr", "1e-3", "--seed", "0"]
    resume = [*base, *corpus_args(corpus, split), "--epochs", "4",
              "--resume", str(split / "ckpt_epoch0001.bin")]
    assert main([*base, *corpus_args(corpus, full), "--epochs", "4"]) == 0
    assert main([*base, *corpus_args(corpus, split), "--epochs", "2"]) == 0
    history = (split / "metrics.jsonl").read_bytes()

    class Killed(Exception):
        pass

    on_disk = []

    def kill(*args, **kwargs):  # what a kill -9 here would leave
        on_disk.append((split / "metrics.jsonl").read_bytes())
        raise Killed

    with monkeypatch.context() as patch:
        patch.setattr(cli, "train_epoch" if where == "train" else "_eval_parallel", kill)
        with pytest.raises(Killed):
            main(resume)
    assert on_disk == [history]
    assert (split / "metrics.jsonl").read_bytes() == history
    assert not (split / "ckpt_epoch0002.bin").exists()
    with open(split / "metrics.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"epoch": 2, "split": "tra')
    assert main(resume) == 0
    for name in ("metrics.jsonl", "best.bin", "best.bin.json", "report.json"):
        assert (split / name).read_bytes() == (full / name).read_bytes(), name
    assert not [p for p in os.listdir(split) if p.endswith(".tmp")]


def test_resume_from_earlier_checkpoint_restores_best(corpus, tmp_path):
    """Resuming in place from the checkpoint before a longer run's best
    epoch, with --epochs up to that checkpoint, gives the best.bin of the
    shorter run, not the longer run's later best."""
    run, short = tmp_path / "run", tmp_path / "short"
    assert main(["train", *corpus_args(corpus, run), *TRAIN_ARGS, "--epochs", "4"]) == 0
    best = json.loads((run / "best.bin.json").read_text())["epoch"]
    assert best >= 1
    assert main(["train", *corpus_args(corpus, short), *TRAIN_ARGS, "--epochs", str(best)]) == 0
    assert main(["train", *corpus_args(corpus, run), *TRAIN_ARGS, "--epochs", str(best),
                 "--resume", str(run / f"ckpt_epoch{best - 1:04d}.bin")]) == 0
    for name in ("metrics.jsonl", "best.bin", "best.bin.json", "report.json"):
        assert (run / name).read_bytes() == (short / name).read_bytes(), name


def test_cosine_resume_with_same_epochs_equals_uninterrupted_run(corpus, tmp_path,
                                                                 monkeypatch):
    """Under --schedule cosine, a run stopped after 2 of 4 epochs and
    resumed with the same --epochs 4 writes what 4 straight epochs write."""
    full, split = tmp_path / "full", tmp_path / "split"
    base = ["train", *TRAIN_ARGS, "--schedule", "cosine", "--lr", "1e-2", "--epochs", "4"]
    assert main([*base, *corpus_args(corpus, full)]) == 0
    assert json.loads((full / "best.bin.json").read_text())["epochs"] == 4

    class Killed(Exception):
        pass

    real, calls = cli.train_epoch, []

    def stop_before_epoch_2(*args, **kwargs):
        calls.append(kwargs["seed"])
        if len(calls) == 3:
            raise Killed
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "train_epoch", stop_before_epoch_2)
        with pytest.raises(Killed):
            main([*base, *corpus_args(corpus, split)])
    assert not (split / "ckpt_epoch0002.bin").exists()
    assert main([*base, *corpus_args(corpus, split),
                 "--resume", str(split / "ckpt_epoch0001.bin")]) == 0
    for name in ("metrics.jsonl", "best.bin", "best.bin.json", "report.json"):
        assert (split / name).read_bytes() == (full / name).read_bytes(), name


@pytest.mark.parametrize("first, second", [
    (["--schedule", "cosine", "--epochs", "2"], ["--schedule", "cosine", "--epochs", "4"]),
    (["--epochs", "2"], ["--schedule", "cosine", "--epochs", "4"]),
    (["--schedule", "cosine", "--epochs", "2"], ["--epochs", "4"]),
])
def test_resume_rejects_a_changed_learning_rate_schedule(corpus, tmp_path, capsys,
                                                         first, second):
    """The cosine rate of an epoch depends on the run's epoch count, so
    resuming with another count, or switching schedule, is refused
    before anything is written."""
    run = tmp_path / "run"
    assert main(["train", *TRAIN_ARGS, *corpus_args(corpus, run), *first]) == 0
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    capsys.readouterr()
    assert main(["train", *TRAIN_ARGS, *corpus_args(corpus, run), *second,
                 "--resume", str(run / "ckpt_epoch0001.bin")]) == 2
    err = capsys.readouterr().err
    assert "--epochs 4" in err and ("epochs 2" in err if "cosine" in first else "None" in err)
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_resume_rejects_garbled_history(corpus, trained, tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    for name in ("ckpt_epoch0000.bin", "ckpt_epoch0000.bin.json"):
        (run / name).write_bytes((trained / name).read_bytes())
    (run / "metrics.jsonl").write_text('{"epoch": 0}\nnot json\n', encoding="utf-8")
    assert main(["train", *corpus_args(corpus, run), *TRAIN_ARGS,
                 "--resume", str(run / "ckpt_epoch0000.bin")]) == 1


@pytest.mark.parametrize("flag, value", [
    ("--heads", "0"), ("--d", "-4"), ("--radius", "nan"), ("--clip", "-1"), ("--clip", "0"),
])
def test_train_rejects_bad_settings(corpus, tmp_path, capsys, flag, value):
    assert main(["train", *corpus_args(corpus, tmp_path / "x"), *TRAIN_ARGS,
                 flag, value]) == 2
    assert "config error:" in capsys.readouterr().err


def test_train_missing_records_file(corpus, tmp_path):
    assert main(["train", "--records", str(tmp_path / "none.ndjson"),
                 "--labels", corpus["labels"], "--splits", corpus["splits"],
                 "--out", str(tmp_path / "x"), "--epochs", "1"]) == 1


@pytest.mark.parametrize("text, why", [
    (two_chain_json(), "$.chains[1].chain_id: duplicate chain id"),
    (two_chain_json(second_id="B", first_xyz=[10 ** 400, 0, 0]), ".xyz[0]: bad coordinate"),
], ids=["duplicate-chain-id", "401-digit-coordinate"])
def test_bad_record_is_input_error(corpus, tmp_path, capsys, text, why):
    records = tmp_path / "records.ndjson"
    records.write_text(text + "\n", encoding="utf-8")
    code = main(["split", "--records", str(records), "--labels", corpus["labels"],
                 "--clusters", corpus["clusters"], "--seed", "0",
                 "--out", str(tmp_path / "splits.json")])
    assert code == 1  # EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error:" in err and why in err


def test_geometry_and_relations_variants(corpus, tmp_path):
    out = tmp_path / "variant"
    assert main(["train", *corpus_args(corpus, out), *TRAIN_ARGS,
                 "--geometry", "calpha", "--relations", "homogeneous",
                 "--readout", "sum"]) == 0
    run = json.loads((out / "run.json").read_text())
    assert run["geometry"] == "calpha"
    assert run["relations"] == "homogeneous"
    # eval takes the graph settings from the checkpoint, so it needs no flags
    sidecar = json.loads((out / "ckpt_epoch0001.bin.json").read_text())
    assert (sidecar["geometry"], sidecar["spatial_rule"]) == ("calpha", "radius")
    report = tmp_path / "eval.json"
    assert main(["eval", "--checkpoint", str(out / "ckpt_epoch0001.bin"),
                 "--records", corpus["records"], "--labels", corpus["labels"],
                 "--splits", corpus["splits"], "--split", "val", "--out", str(report)]) == 0
    assert report.read_bytes() == (out / "report.json").read_bytes()


# -- eval -------------------------------------------------------------------------


def test_eval_writes_report(corpus, trained, tmp_path):
    report_path = tmp_path / "report.json"
    assert main(["eval", "--checkpoint", str(trained / "best.bin"),
                 "--records", corpus["records"], "--labels", corpus["labels"],
                 "--splits", corpus["splits"], "--split", "test",
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert "metrics" in report and "counts" in report


def test_eval_parallel_matches_serial(corpus, trained, tmp_path):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    common = ["eval", "--checkpoint", str(trained / "best.bin"),
              "--records", corpus["records"], "--labels", corpus["labels"],
              "--splits", corpus["splits"], "--split", "all"]
    assert main([*common, "--out", str(serial)]) == 0
    assert main([*common, "--workers", "4", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_eval_empty_split_warns(corpus, trained, tmp_path, capsys):
    splits = tmp_path / "train_only.json"
    assignment = json.loads(Path(corpus["splits"]).read_text())
    splits.write_text(json.dumps({k: "train" for k in assignment}), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["eval", "--checkpoint", str(trained / "best.bin"),
                 "--records", corpus["records"], "--labels", corpus["labels"],
                 "--splits", str(splits), "--split", "test",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["metrics"] == {}


@pytest.mark.parametrize("field, value", [("eps", 0), ("eps", -1), ("d_A", 0), ("e_r_width", 0)])
def test_eval_rejects_bad_sidecar_config(corpus, trained, tmp_path, field, value):
    """A sidecar whose geometry settings the encoder cannot run is a
    configuration error, not a numerics failure or a silent prediction."""
    ckpt = tmp_path / "best.bin"
    ckpt.write_bytes((trained / "best.bin").read_bytes())
    sidecar = json.loads((trained / "best.bin.json").read_text())
    sidecar[field] = value
    (tmp_path / "best.bin.json").write_text(json.dumps(sidecar), encoding="utf-8")
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--records", corpus["records"], "--labels", corpus["labels"],
                 "--splits", corpus["splits"], "--split", "test",
                 "--out", str(tmp_path / "report.json")]) == 2
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("tasks", ["lba,dock", ","])
def test_eval_rejects_unknown_or_empty_tasks(corpus, trained, tmp_path, capsys, tasks):
    assert main(["eval", "--checkpoint", str(trained / "best.bin"),
                 "--records", corpus["records"], "--labels", corpus["labels"],
                 "--splits", corpus["splits"], "--tasks", tasks,
                 "--out", str(tmp_path / "report.json")]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_eval_dims_mismatch_rejected(corpus, trained, tmp_path):
    other = tmp_path / "other"
    assert main(["gen-synthetic", "--out", str(other), "--n", "4", "--seed", "1",
                 "--dims", "ec=4,mf=4,bp=4,cc=4"]) == 0
    splits = tmp_path / "s.json"
    recs = json.loads((other / "labels.json").read_text())["labels"]
    splits.write_text(json.dumps({k: "test" for k in recs}), encoding="utf-8")
    assert main(["eval", "--checkpoint", str(trained / "best.bin"),
                 "--records", str(other / "records.ndjson"),
                 "--labels", str(other / "labels.json"),
                 "--splits", str(splits), "--split", "test"]) == 2


# -- ablate -----------------------------------------------------------------------


def test_ablate_readout_axis(corpus, tmp_path):
    config = tmp_path / "base.json"
    config.write_text(json.dumps({
        "records": corpus["records"], "labels": corpus["labels"],
        "splits": corpus["splits"], "out": "unused",
        "L": 1, "d": 8, "heads": 2, "norm": "layer", "epochs": 1,
        "lr": 1e-3, "seed": 0}), encoding="utf-8")
    out = tmp_path / "abl"
    assert main(["ablate", "--config", str(config), "--out", str(out),
                 "--axes", "readout"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"readout=task_aware", "readout=sum",
                            "readout=weighted_prompt"}
    assert main(["ablate", "--config", str(config), "--out", str(out),
                 "--axes", "optimizer"]) == 2
    assert main(["ablate", "--out", str(out), "--axes", "readout"]) == 2


# -- verification and prompts -------------------------------------------------------


def test_check_equivariance_passes(capsys):
    assert main(["check-equivariance", "--trials", "6", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "[pass]" in out and "[fail]" not in out


def test_check_equivariance_leak_fails():
    assert main(["check-equivariance", "--trials", "4", "--seed", "3",
                 "--leak"]) == 3


def test_check_equivariance_with_checkpoint(trained):
    assert main(["check-equivariance", "--trials", "4", "--seed", "0",
                 "--checkpoint", str(trained / "best.bin")]) == 0


def test_prompt_corr_csv(trained, tmp_path):
    out = tmp_path / "corr.csv"
    assert main(["prompt-corr", "--checkpoint", str(trained / "best.bin"),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "task,lba,ppa,ec,mf,bp,cc"
    assert len(lines) == 7
    grid = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
    np.testing.assert_allclose(np.diag(grid), 1.0, atol=1e-9)
