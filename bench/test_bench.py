"""Tests of the benchmark itself, at tiny sizes through the same code paths.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import hemenet.train  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tiny(workload, tmp_path, trace=False, seed=3):
    return run.run(workload, seed, 0.01, trace, scale=workloads.TINY, out_dir=str(tmp_path))


def test_spec_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_pass_reports_every_end_to_end_metric(workload, tmp_path):
    result, lines = tiny(workload, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    # every user-facing metric is printed with its unit
    for name, unit, _, _ in run.NAMED_METRICS:
        assert any(line.startswith(f"{name} [{unit}]: ") for line in lines), name
    assert any(line.startswith("error_rate [failed/attempted]: 0 ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_reports_every_per_layer_metric(workload, tmp_path):
    result, lines = tiny(workload, tmp_path, trace=True)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} [{m['unit']}]: ") for line in lines)
    spans = [f for f in os.listdir(tmp_path) if f.startswith("spans-")]
    assert spans, "spans were not written"
    # the tracer restores every wrapped name
    assert hemenet.train.encode is hemenet.model.encode


def test_self_times_add_up_to_traced_time_per_item(tmp_path):
    result, lines = tiny("eval-multichain", tmp_path, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    words = next(line for line in lines if line.startswith("traced pass")).split()
    per_item = float(words[2]) / float(words[-2])  # "traced pass T s vs ... over N items"
    total = sum(v for k, v in m.items() if k.startswith("self."))
    assert total == pytest.approx(per_item, rel=0.05)
    assert m["model.ops_per_forward"] > 0 and m["model.readouts_per_complex"] > 0


def test_injected_nonfinite_prediction_counts_as_error(tmp_path, monkeypatch):
    original = hemenet.train.score_samples

    def poisoned(*args, **kwargs):
        scored = original(*args, **kwargs)
        probs = scored["prop_scores"]["ec"]
        probs[0] = np.full_like(probs[0], np.nan)
        return scored

    monkeypatch.setattr(hemenet.train, "score_samples", poisoned)
    result, lines = tiny("eval-multichain", tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1
    rate = next(line for line in lines if line.startswith("error_rate"))
    assert not rate.startswith("error_rate [failed/attempted]: 0 ")
    assert any("non-finite ec probability" in line for line in lines)


def test_train_loss_last_repeats_for_a_seed(tmp_path):
    def loss_line(lines):
        return next(line for line in lines if line.startswith("train_loss_last"))

    _, first = tiny("train-paper", tmp_path, seed=5)
    _, second = tiny("train-paper", tmp_path, seed=5)
    _, other = tiny("train-paper", tmp_path, seed=6)
    assert loss_line(first) == loss_line(second)
    assert loss_line(first) != loss_line(other)


def test_train_loss_last_follows_the_optimizer_update(tmp_path, monkeypatch):
    def loss_line(lines):
        return next(line for line in lines if line.startswith("train_loss_last"))

    _, updated = tiny("train-paper", tmp_path, seed=5)
    monkeypatch.setattr(hemenet.train, "optimizer_step", lambda *args, **kwargs: None)
    _, frozen = tiny("train-paper", tmp_path, seed=5)
    assert loss_line(updated) != loss_line(frozen)


def test_inputs_depend_on_the_seed_only(tmp_path):
    def texts(seed):
        wl = workloads.IngestLarge(workloads.TINY, seed, str(tmp_path), workloads.Tally())
        wl.setup()
        return wl.texts, wl.atoms

    assert texts(1) == texts(1)
    assert texts(1)[0] != texts(2)[0]
    assert texts(1)[1] == texts(2)[1]  # shapes, hence atom counts, are fixed


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
