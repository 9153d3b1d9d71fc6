"""End-to-end command-line behavior: exit codes, reproducible run
metadata, resume, parallel evaluation, and the auxiliary tools."""

import dataclasses
import gc
import json
import os
import shutil
import weakref
from pathlib import Path

import numpy as np
import pytest

from hemenet import cli
from hemenet.cli import main
from hemenet.graph import GraphConfig
from hemenet.model import HeMeNetConfig, load_model
from hemenet.numcore import read_tensors, save_store
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


def record_of(path) -> dict:
    """The JSON record inside the checkpoint at ``path``."""
    return load_model(path)[2]


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


@pytest.mark.parametrize("flag", ["--n", "--max-residues", "--clusters"])
def test_gen_synthetic_rejects_a_zero_count(tmp_path, capsys, flag):
    out = tmp_path / "gen"
    assert main(["gen-synthetic", "--out", str(out), "--seed", "3", flag, "0"]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rate", ["2", "-1", "nan"])
def test_gen_synthetic_rejects_an_extra_rate_outside_0_1(tmp_path, capsys, rate):
    out = tmp_path / "gen"
    assert main(["gen-synthetic", "--out", str(out), "--seed", "3", "--extra-rate", rate]) == 2
    assert "extra_property_rate must be in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-synthetic", "annotate"])
@pytest.mark.parametrize("dims", ["ec=-1,mf=8,bp=8,cc=8", "ec=0,mf=8,bp=8,cc=8"],
                         ids=["negative", "zero"])
def test_dims_below_one_exit_2_before_writing(tmp_path, capsys, command, dims):
    out = tmp_path / "out"
    extra = ["--records", str(tmp_path / "none.ndjson")] if command == "annotate" else []
    assert main([command, *extra, "--dims", dims, "--out", str(out)]) == 2
    assert "dims must map tasks to integers >= 1" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_ingest_rejects_max_atoms_below_one(tmp_path, capsys, limit):
    good = tmp_path / "good.pdb"
    good.write_text(tiny_pdb(), encoding="utf-8")
    out = tmp_path / "records.ndjson"
    assert main(["ingest", str(good), "--out", str(out), "--max-atoms", limit]) == 2
    assert f"config error: --max-atoms must be >= 1, got {limit}" in capsys.readouterr().err
    assert not out.exists()


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
                 "ckpt_epoch0000.bin", "ckpt_epoch0001.bin"):
        assert (trained / name).exists(), name
    assert not list(trained.glob("*.bin.json"))  # each checkpoint is one file
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
    want, _, want_record = read_tensors(full / "ckpt_epoch0002.bin")
    got, _, got_record = read_tensors(resumed / "ckpt_epoch0002.bin")
    assert {k: v.tobytes() for k, v in got.items()} == {k: v.tobytes() for k, v in want.items()}
    # a resume into another directory starts its history there afresh, so
    # only the best-so-far in the epoch's record differs
    assert record_of(resumed / "best.bin")["epoch"] == 2
    assert got_record["best_epoch"] == 2
    for key in ("best_epoch", "best_score"):
        del got_record[key], want_record[key]
    assert got_record == want_record
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
    for name in ("metrics.jsonl", "best.bin", "report.json"):
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
        patch.setattr(cli, "train_epoch" if where == "train" else "evaluate", kill)
        with pytest.raises(Killed):
            main(resume)
    assert on_disk == [history]
    assert (split / "metrics.jsonl").read_bytes() == history
    assert not (split / "ckpt_epoch0002.bin").exists()
    with open(split / "metrics.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"epoch": 2, "split": "tra')
    assert main(resume) == 0
    for name in ("metrics.jsonl", "best.bin", "report.json"):
        assert (split / name).read_bytes() == (full / name).read_bytes(), name
    assert not [p for p in os.listdir(split) if p.endswith(".tmp")]


def test_resume_from_earlier_checkpoint_restores_best(corpus, tmp_path):
    """Resuming in place from the checkpoint before a longer run's best
    epoch, with --epochs up to that checkpoint, gives the best.bin of the
    shorter run, not the longer run's later best."""
    run, short = tmp_path / "run", tmp_path / "short"
    assert main(["train", *corpus_args(corpus, run), *TRAIN_ARGS, "--epochs", "4"]) == 0
    best = record_of(run / "best.bin")["epoch"]
    assert best >= 1
    assert main(["train", *corpus_args(corpus, short), *TRAIN_ARGS, "--epochs", str(best)]) == 0
    assert main(["train", *corpus_args(corpus, run), *TRAIN_ARGS, "--epochs", str(best),
                 "--resume", str(run / f"ckpt_epoch{best - 1:04d}.bin")]) == 0
    for name in ("metrics.jsonl", "best.bin", "report.json"):
        assert (run / name).read_bytes() == (short / name).read_bytes(), name


def test_cosine_resume_with_same_epochs_equals_uninterrupted_run(corpus, tmp_path,
                                                                 monkeypatch):
    """Under --schedule cosine, a run stopped after 2 of 4 epochs and
    resumed with the same --epochs 4 writes what 4 straight epochs write."""
    full, split = tmp_path / "full", tmp_path / "split"
    base = ["train", *TRAIN_ARGS, "--schedule", "cosine", "--lr", "1e-2", "--epochs", "4"]
    assert main([*base, *corpus_args(corpus, full)]) == 0
    assert record_of(full / "best.bin")["epochs"] == 4

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
    for name in ("metrics.jsonl", "best.bin", "report.json"):
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
    shutil.copy(trained / "ckpt_epoch0000.bin", run)
    (run / "metrics.jsonl").write_text('{"epoch": 0}\nnot json\n', encoding="utf-8")
    assert main(["train", *corpus_args(corpus, run), *TRAIN_ARGS,
                 "--resume", str(run / "ckpt_epoch0000.bin")]) == 1


@pytest.mark.parametrize("flag, value", [
    ("--seed", "5"), ("--lr", "0.01"), ("--batch-size", "2"), ("--lam", "0.5"),
    ("--clip", "0.5"), ("--tasks", "lba,ec"), ("--geometry", "calpha"), ("--radius", "5.0"),
    ("--k", "4"),
])
def test_resume_rejects_a_changed_setting(corpus, trained, tmp_path, capsys, flag, value):
    """Each setting that steers the run is recorded in every epoch
    checkpoint; resuming with another value exits 2, names the flag with
    both values, and writes nothing."""
    run = Path(shutil.copytree(trained, tmp_path / "run"))
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    recorded = record_of(run / "ckpt_epoch0000.bin")[flag[2:].replace("-", "_")]
    capsys.readouterr()
    assert main(["train", *corpus_args(corpus, run), *TRAIN_ARGS, flag, value, "--epochs", "3",
                 "--resume", str(run / "ckpt_epoch0000.bin")]) == 2
    err = capsys.readouterr().err
    assert f"{flag} {value}" in err and f"{flag[2:].replace('-', '_')} {recorded}" in err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


@pytest.mark.parametrize("epochs", ["1", "0"])
def test_resume_rejects_fewer_epochs_than_the_checkpoint_has_trained(corpus, trained, tmp_path,
                                                                     capsys, epochs):
    """Resuming after epoch 1 continues at epoch 2, so --epochs below 2
    exits 2 and leaves the run directory as it was."""
    run = Path(shutil.copytree(trained, tmp_path / "run"))
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    capsys.readouterr()
    assert main(["train", *corpus_args(corpus, run), *TRAIN_ARGS, "--epochs", epochs,
                 "--resume", str(run / "ckpt_epoch0001.bin")]) == 2
    assert f"--epochs {epochs} is below the 2 epochs" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_resume_with_other_workers_or_task_spacing_equals_uninterrupted_run(corpus, trained,
                                                                             tmp_path):
    """--workers cannot change what a run computes, and the task list is
    recorded as parsed, so neither blocks a resume."""
    run = tmp_path / "run"
    assert main(["train", *corpus_args(corpus, run), *TRAIN_ARGS, "--epochs", "1"]) == 0
    assert main(["train", *corpus_args(corpus, run), *TRAIN_ARGS, "--workers", "2",
                 "--tasks", "lba, ppa, ec, mf, bp, cc",
                 "--resume", str(run / "ckpt_epoch0000.bin")]) == 0
    for name in ("metrics.jsonl", "best.bin", "report.json", "ckpt_epoch0001.bin"):
        assert (run / name).read_bytes() == (trained / name).read_bytes(), name


def test_resume_from_a_checkpoint_without_a_run_record_exits_2(corpus, trained, tmp_path,
                                                              capsys):
    """A checkpoint whose record lacks the run's settings cannot show the
    resume matches them, so it is refused."""
    run = Path(shutil.copytree(trained, tmp_path / "run"))
    ckpt = run / "ckpt_epoch0001.bin"
    store, _, meta = load_model(ckpt)
    for key in ("tasks", "batch_size", "lr", "schedule", "clip", "lam", "best_score",
                "best_epoch"):
        del meta[key]
    save_store(ckpt, store, meta)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    capsys.readouterr()
    assert main(["train", *corpus_args(corpus, run), *TRAIN_ARGS, "--epochs", "3",
                 "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "--lr 0.001 (checkpoint: lr None)" in err and "--tasks" in err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_every_run_setting_is_recorded_or_exempt(corpus, trained, tmp_path):
    """A RunConfig field is either recorded in each epoch checkpoint, and
    so checked on --resume, or one of the named few that cannot change
    what a run computes.  A new setting is recorded unless named here."""
    assert set(cli.NOT_STEERING) == {"records", "labels", "splits", "out", "workers", "resume"}
    out = tmp_path / "cosine"
    assert main(["train", *corpus_args(corpus, out), *TRAIN_ARGS, "--epochs", "1",
                 "--schedule", "cosine"]) == 0
    fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
    for run, unrecorded in ((out, set()), (trained, {"epochs"})):  # epochs: cosine only
        record = record_of(run / "ckpt_epoch0000.bin")
        assert fields & set(record) == fields - set(cli.NOT_STEERING) - unrecorded


@pytest.mark.parametrize("flag, value", [
    ("--heads", "0"), ("--d", "-4"), ("--radius", "nan"), ("--radius", "inf"),
    ("--clip", "-1"), ("--clip", "0"),
    ("--lam", "nan"), ("--lr", "nan"), ("--lr", "-1"), ("--batch-size", "0"),
    ("--workers", "0"), ("--epochs", "-1"),
])
def test_train_rejects_bad_settings(corpus, tmp_path, capsys, flag, value):
    assert main(["train", *corpus_args(corpus, tmp_path / "x"), *TRAIN_ARGS,
                 flag, value]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_train_missing_records_file(corpus, tmp_path):
    assert main(["train", "--records", str(tmp_path / "none.ndjson"),
                 "--labels", corpus["labels"], "--splits", corpus["splits"],
                 "--out", str(tmp_path / "x"), "--epochs", "1"]) == 1


def _damaged_labels(corpus, damage):
    obj = json.loads(Path(corpus["labels"]).read_text(encoding="utf-8"))
    if damage == "no-dims":
        del obj["dims"]
    elif damage == "text-dim":
        obj["dims"]["ec"] = "x"
    else:  # a text or NaN affinity on the first affinity-labeled complex
        entry = next(e for e in obj["labels"].values() if e["lba"] is not None)
        entry["lba"] = "high" if damage == "text-affinity" else float("nan")
    return obj


@pytest.mark.parametrize("damage, why", [
    ("no-dims", "malformed labels file: KeyError('dims')"),
    ("text-dim", "malformed labels file: ValueError("),
    ("text-affinity", "lba label 'high' is not a finite number"),
    ("nan-affinity", "lba label nan is not a finite number"),
], ids=["no-dims", "text-dim", "text-affinity", "nan-affinity"])
def test_train_rejects_malformed_labels_before_writing(corpus, tmp_path, capsys, damage, why):
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps(_damaged_labels(corpus, damage)), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--records", corpus["records"], "--labels", str(labels),
                 "--splits", corpus["splits"], "--out", str(out), *TRAIN_ARGS]) == 1
    err = capsys.readouterr().err
    assert "input error:" in err and f"{labels}: {why}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_splits_file_that_is_not_an_object_is_input_error(corpus, trained, tmp_path, capsys,
                                                         command):
    splits = tmp_path / "splits.json"
    ids = sorted(json.loads(Path(corpus["splits"]).read_text(encoding="utf-8")))
    splits.write_text(json.dumps(ids), encoding="utf-8")
    out = tmp_path / "out"
    common = ["--records", corpus["records"], "--labels", corpus["labels"],
              "--splits", str(splits), "--out", str(out)]
    args = {"train": ["train", *common, *TRAIN_ARGS],
            "eval": ["eval", "--checkpoint", str(trained / "best.bin"), *common]}[command]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "input error:" in err and f"{splits}: splits file is not an object" in err
    assert not out.exists()  # train reads the splits before it writes run.json


@pytest.mark.parametrize("command", ["train", "eval"])
def test_label_for_a_chain_the_structure_lacks_is_input_error(corpus, trained, tmp_path, capsys,
                                                              command):
    obj = json.loads(Path(corpus["labels"]).read_text(encoding="utf-8"))
    cid = sorted(obj["labels"])[0]
    obj["labels"][cid]["chains"]["ZZ"] = {"mf": [0, 2]}
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "out"
    common = ["--records", corpus["records"], "--labels", str(labels),
              "--splits", corpus["splits"], "--out", str(out)]
    args = {"train": ["train", *common, *TRAIN_ARGS],
            "eval": ["eval", "--checkpoint", str(trained / "best.bin"), "--split", "all", *common]}
    assert main(args[command]) == 1
    err = capsys.readouterr().err
    assert "input error:" in err and "Traceback" not in err
    assert f"{labels}: labels of complex {cid} name chain 'ZZ'" in err
    assert not out.exists()  # checked when the corpus is read, before any write


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
    record = record_of(out / "ckpt_epoch0001.bin")
    assert (record["geometry"], record["spatial_rule"]) == ("calpha", "radius")
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


def test_train_and_eval_release_the_records_once_packed(corpus, trained, tmp_path, monkeypatch):
    # the records are read only to build the graphs: by the first epoch of
    # train and the first scoring of eval, none of them is alive
    read = cli.load_records
    records, alive = [], []

    def load_records(path):
        out = list(read(path))
        records.extend(weakref.ref(rec) for rec in out)
        return out

    def counting_alive(fn):
        def wrapper(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in records))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "load_records", load_records)
    monkeypatch.setattr(cli, "train_epoch", counting_alive(cli.train_epoch))
    monkeypatch.setattr(cli, "evaluate", counting_alive(cli.evaluate))
    assert main(["train", *corpus_args(corpus, tmp_path / "run"), *TRAIN_ARGS]) == 0
    assert main(["eval", "--checkpoint", str(trained / "best.bin"),
                 "--records", corpus["records"], "--labels", corpus["labels"],
                 "--splits", corpus["splits"], "--split", "all",
                 "--out", str(tmp_path / "report.json")]) == 0
    assert len(records) == 20 and len(alive) == 6  # 2 epochs, 2 val scores, report; eval
    assert alive == [0] * 6


def test_eval_parallel_matches_serial(corpus, trained, tmp_path):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    common = ["eval", "--checkpoint", str(trained / "best.bin"),
              "--records", corpus["records"], "--labels", corpus["labels"],
              "--splits", corpus["splits"], "--split", "all"]
    assert main([*common, "--out", str(serial)]) == 0
    assert main([*common, "--workers", "4", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_eval_empty_split_warns(corpus, trained, tmp_path, caplog):
    splits = tmp_path / "train_only.json"
    assignment = json.loads(Path(corpus["splits"]).read_text())
    splits.write_text(json.dumps({k: "train" for k in assignment}), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["eval", "--checkpoint", str(trained / "best.bin"),
                 "--records", corpus["records"], "--labels", corpus["labels"],
                 "--splits", str(splits), "--split", "test",
                 "--out", str(out)]) == 0
    assert "split 'test' is empty; writing empty report" in caplog.text
    assert out.read_bytes() == b'{\n "counts": {},\n "metrics": {}\n}\n'


@pytest.mark.parametrize("command", ["train", "eval"])
def test_labeled_chain_without_nodes_is_input_error(corpus, tmp_path, capsys, command):
    """Under ``--geometry calpha`` a chain whose residues all lack CA has
    no graph node.  A property label on it is an input error naming the
    complex, not a traceback; ``train`` stops at the samples' plans,
    before it writes anything."""
    assignment = json.loads(Path(corpus["splits"]).read_text(encoding="utf-8"))
    labels = json.loads(Path(corpus["labels"]).read_text(encoding="utf-8"))["labels"]
    records = [json.loads(line) for line in
               Path(corpus["records"]).read_text(encoding="utf-8").splitlines()]
    rec = next(r for r in records
               if assignment.get(r["complex_id"]) == "val" and len(r["chains"]) > 1)
    chain = rec["chains"][-1]
    assert labels[rec["complex_id"]]["chains"][chain["chain_id"]]["ec"]
    for residue in chain["residues"]:
        residue["atoms"] = [a for a in residue["atoms"] if a["name"] != "CA"]
    stripped = tmp_path / "records.ndjson"
    stripped.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    common = ["--records", str(stripped), "--labels", corpus["labels"],
              "--splits", corpus["splits"]]
    if command == "train":
        args = ["train", *common, "--out", str(tmp_path / "run"), *TRAIN_ARGS,
                "--geometry", "calpha"]
    else:
        run = tmp_path / "calpha"
        assert main(["train", *corpus_args(corpus, run), *TRAIN_ARGS, "--geometry", "calpha"]) == 0
        capsys.readouterr()
        args = ["eval", "--checkpoint", str(run / "best.bin"), *common, "--split", "val"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (f"input error: complex {rec['complex_id']}: label ec present on chain "
            f"{chain['chain_id']} but prediction missing") in err
    if command == "train":
        assert not list((tmp_path / "run").glob("*"))


# -- config files -----------------------------------------------------------------


def eval_args(corpus, trained):
    return ["eval", "--checkpoint", str(trained / "best.bin"), "--records", corpus["records"],
            "--labels", corpus["labels"], "--splits", corpus["splits"]]


@pytest.mark.parametrize("command, key, value", [
    ("train", "lr", "0.01"), ("train", "radius", "5"), ("train", "epochs", 1.5),
    ("train", "readout", "bogus"), ("train", "seed", True), ("ingest", "max_atoms", "x"),
    ("check-equivariance", "trials", "5"), ("eval", "workers", "2"),
    ("annotate", "annotations", "ann.tsv"),
])
def test_config_value_of_the_wrong_type_or_choice_exits_2(corpus, trained, tmp_path, capsys,
                                                          command, key, value):
    """A config value must have its flag's JSON type and one of its
    choices; otherwise the command exits 2 naming the key, writes
    nothing, and prints no traceback."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    out = tmp_path / "out"
    args = {"train": ["train", *corpus_args(corpus, out), *TRAIN_ARGS],
            "ingest": ["ingest", str(tmp_path), "--out", str(out)],
            "check-equivariance": ["check-equivariance"],
            "eval": [*eval_args(corpus, trained), "--out", str(out)],
            "annotate": ["annotate", "--records", corpus["records"], "--out", str(out)],
            }[command]
    capsys.readouterr()
    assert main([*args, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(key) in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("keys", [["records"], ["checkpoint", "splits"]])
def test_config_cannot_set_required_flags(corpus, trained, tmp_path, capsys, keys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: "/nonexistent" for key in keys}), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main([*eval_args(corpus, trained), "--out", str(out), "--config", str(config)]) == 2
    assert f"config keys {keys}" in capsys.readouterr().err
    assert not out.exists()


def test_config_sets_optional_flags(corpus, trained, tmp_path, capsys, monkeypatch):
    """Every optional flag can come from the file: eval's report path,
    check-equivariance's checkpoint, gen-synthetic's dims as an object."""
    report = tmp_path / "report.json"
    config = tmp_path / "eval.json"
    config.write_text(json.dumps({"out": str(report), "split": "all", "workers": 2}),
                      encoding="utf-8")
    assert main([*eval_args(corpus, trained), "--config", str(config)]) == 0
    want = tmp_path / "want.json"
    assert main([*eval_args(corpus, trained), "--split", "all", "--out", str(want)]) == 0
    assert report.read_bytes() == want.read_bytes()

    loaded = []
    real = cli.load_model
    monkeypatch.setattr(cli, "load_model", lambda path: loaded.append(path) or real(path))
    monkeypatch.setattr(cli, "run_all", lambda **kwargs: [])
    config = tmp_path / "equi.json"
    config.write_text(json.dumps({"checkpoint": str(trained / "best.bin")}), encoding="utf-8")
    assert main(["check-equivariance", "--config", str(config)]) == 0
    assert loaded == [str(trained / "best.bin")]

    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"dims": {"ec": 4, "mf": 4, "bp": 4, "cc": 4}, "n": 3}),
                      encoding="utf-8")
    assert main(["gen-synthetic", "--out", str(tmp_path / "gen"), "--seed", "1",
                 "--config", str(config)]) == 0
    meta = json.loads((tmp_path / "gen" / "meta.json").read_text())
    assert meta["dims"] == {"ec": 4, "mf": 4, "bp": 4, "cc": 4} and meta["n"] == 3


def test_every_command_parses_and_train_has_a_flag_per_run_setting():
    _, commands = cli.build_parser()
    flags = {a.dest for a in commands["train"]._actions} - {"help", "config"}
    assert flags == {f.name for f in dataclasses.fields(cli.RunConfig)}
    for name in commands:
        with pytest.raises(SystemExit) as stop:
            main([name, "--help"])
        assert stop.value.code == 0, name


def test_train_flags_default_as_their_configs():
    """Each train flag that names a model or graph config field defaults to
    that field's default, declared once, in the config."""
    _, commands = cli.build_parser()
    flags = {a.dest: a.default for a in commands["train"]._actions}
    named = {f.name: f.default for config in (HeMeNetConfig, GraphConfig)
             for f in dataclasses.fields(config) if f.name in flags}
    assert set(named) == {"L", "d", "heads", "readout", "relations", "norm", "act", "dtype",
                          "geometry", "spatial_rule", "radius", "k"}
    assert {name: flags[name] for name in named} == named


@pytest.mark.parametrize("field, value", [("eps", 0), ("eps", -1), ("d_A", 0), ("e_r_width", 0)])
def test_eval_rejects_bad_sidecar_config(corpus, trained, tmp_path, field, value):
    """A record whose geometry settings the encoder cannot run is a
    configuration error, not a numerics failure or a silent prediction."""
    ckpt = tmp_path / "best.bin"
    store, _, record = load_model(trained / "best.bin")
    record[field] = value
    save_store(ckpt, store, record)
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--records", corpus["records"], "--labels", corpus["labels"],
                 "--splits", corpus["splits"], "--split", "test",
                 "--out", str(tmp_path / "report.json")]) == 2
    assert not (tmp_path / "report.json").exists()


def test_eval_rejects_workers_below_one(corpus, trained, tmp_path, capsys):
    assert main([*eval_args(corpus, trained), "--workers", "0",
                 "--out", str(tmp_path / "report.json")]) == 2
    assert "config error: --workers must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("tasks", ["lba,dock", ","])
def test_eval_rejects_unknown_or_empty_tasks(corpus, trained, tmp_path, capsys, tasks):
    assert main(["eval", "--checkpoint", str(trained / "best.bin"),
                 "--records", corpus["records"], "--labels", corpus["labels"],
                 "--splits", corpus["splits"], "--tasks", tasks,
                 "--out", str(tmp_path / "report.json")]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["eval", "split"])
def test_unknown_config_key_rejected_by_every_command(corpus, trained, tmp_path, capsys,
                                                      command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"taks": "lba"}), encoding="utf-8")
    args = {"eval": ["--checkpoint", str(trained / "best.bin"), "--splits", corpus["splits"]],
            "split": ["--clusters", corpus["clusters"]]}[command]
    out = tmp_path / "out.json"
    assert main([command, "--records", corpus["records"], "--labels", corpus["labels"],
                 *args, "--out", str(out), "--config", str(config)]) == 2
    assert "unknown config keys ['taks']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("damage, why", [
    ("missing-L", "checkpoint record holds no model config"),
    ("list", "checkpoint record is not a JSON object"),
    ("cut", "corrupt checkpoint"),
    ("version-1", "unsupported checkpoint version 1"),
], ids=["missing-L", "list", "cut", "version-1"])
def test_eval_rejects_malformed_sidecar(corpus, trained, tmp_path, capsys, damage, why):
    """A checkpoint whose record is cut short, is not an object holding
    every architecture field, or that is a version-1 archive (record in a
    separate file) is an input error naming the file, not a traceback."""
    ckpt = tmp_path / "best.bin"
    store, _, record = load_model(trained / "best.bin")
    if damage == "missing-L":
        del record["L"]
    save_store(ckpt, store, [record] if damage == "list" else record)
    raw = ckpt.read_bytes()  # magic, version u32, dtype u8, count u64, meta_len u64
    if damage == "cut":
        ckpt.write_bytes(raw[:100])
    elif damage == "version-1":
        meta_len = int.from_bytes(raw[17:25], "little")
        ckpt.write_bytes(raw[:4] + (1).to_bytes(4, "little") + raw[8:17] + raw[25 + meta_len:])
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--records", corpus["records"], "--labels", corpus["labels"],
                 "--splits", corpus["splits"], "--out", str(tmp_path / "report.json")]) == 1
    err = capsys.readouterr().err
    assert "input error:" in err and f"{ckpt}: {why}" in err
    assert not (tmp_path / "report.json").exists()


def test_eval_rejects_a_record_without_graph_settings(corpus, trained, tmp_path, capsys):
    """Every checkpoint train writes records how it built its graphs;
    one that does not is an input error naming the file and the keys."""
    ckpt = tmp_path / "best.bin"
    store, _, record = load_model(trained / "best.bin")
    del record["radius"], record["k"]
    save_store(ckpt, store, record)
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--records", corpus["records"], "--labels", corpus["labels"],
                 "--splits", corpus["splits"], "--out", str(tmp_path / "report.json")]) == 1
    err = capsys.readouterr().err
    assert f"input error: {ckpt}: checkpoint record lacks graph settings ['radius', 'k']" in err
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


def test_ablate_readout_axis(corpus, tmp_path, capsys):
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
    # a base config without the paths fails every variant before --out is made
    config.write_text(json.dumps({"L": 1, "d": 8, "heads": 2, "epochs": 1}), encoding="utf-8")
    bare = tmp_path / "ablout"
    assert main(["ablate", "--config", str(config), "--out", str(bare), "--axes", "readout"]) == 2
    assert "missing required setting 'records'" in capsys.readouterr().err
    assert not bare.exists()


# -- verification and prompts -------------------------------------------------------


def test_check_equivariance_passes(capsys):
    assert main(["check-equivariance", "--trials", "6", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "[pass]" in out and "[fail]" not in out


@pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--tol", "-1"), ("--tol", "nan")])
def test_check_equivariance_rejects_bad_trials_or_tol(monkeypatch, capsys, flag, value):
    """Zero trials exercise no symmetry and a negative or NaN tolerance
    fails every check: each is a config error, before any suite runs."""
    monkeypatch.setattr(cli, "run_all", lambda **kwargs: pytest.fail("a suite ran"))
    assert main(["check-equivariance", flag, value]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "violation" not in err


def test_check_equivariance_leak_fails(coord_leak):
    assert main(["check-equivariance", "--trials", "4", "--seed", "3"]) == 3


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
