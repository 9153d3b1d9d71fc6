"""Eleven numbered end-to-end guarantees, one test per criterion.

Each test prints a single pass/fail line (also echoed after the run in
the terminal summary) and pins the tolerance and time budget it was
checked against.
"""

import json
import time

import numpy as np
import pytest

import conftest
from conftest import SMALL_DIMS, every_pool, make_chain, make_ligand
from test_datasets import full_labels, make_rec
from test_train import brute_force_fmax

from hemenet.cli import main
from hemenet.datasets import (
    PROPERTY_TASKS,
    SampleLabels,
    SyntheticConfig,
    assemble_splits,
    generate_synthetic,
    is_fully_labeled,
)
from hemenet.graph import GraphConfig, RelationKind, build_graph
from hemenet.model import (
    TASKS,
    HeMeNetConfig,
    encode,
    init_params,
    pack_graph,
    readout_and_heads,
)
from hemenet.numcore import OptimConfig, add, grad_check
from hemenet.structio import ComplexRecord
from hemenet.train import (
    LossWeights,
    balanced_batches,
    cosine_lr,
    evaluate,
    fmax,
    label_plan,
    multitask_loss,
    prepare_data,
    rmse_mae,
    train_epoch,
)
from hemenet.verify import equivariance_suite, primitives_suite, readout_suite


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_01_encoder_equivariance():
    t0 = time.perf_counter()
    r64 = equivariance_suite(n_graphs=100, n_motions=10, seed=0, dtype="float64")
    r32 = equivariance_suite(n_graphs=100, n_motions=10, seed=0, dtype="float32")
    elapsed = time.perf_counter() - t0
    ok = (r64.ok and r64.tol == 1e-10 and r32.ok and r32.tol == 1e-4
          and elapsed < 120.0)
    _report(1, ok,
            "encoder rigid-motion equivariance, 100 graphs x 10 motions with "
            f"reflections: float64 worst {max(r64.worst['feature_invariance'], r64.worst['coordinate_equivariance']):.2e} "
            f"(tol 1e-10), float32 worst {max(r32.worst['feature_invariance'], r32.worst['coordinate_equivariance']):.2e} "
            f"(tol 1e-4), {elapsed:.0f}s < 120s")


def test_criterion_02_relation_and_scaling_identities():
    rep = primitives_suite(trials=50, seed=1, dtype="float64")
    ok = rep.ok and rep.worst["pooled_length_mismatches"] == 0.0
    _report(2, ok,
            "relation invariance and channel-scaling equivariance over every "
            f"channel count 1..14: worst {max(rep.worst['relation_invariance'], rep.worst['scaling_equivariance']):.2e} "
            f"(tol {rep.tol:g}), pooled lengths exact")


def test_criterion_03_readout_pose_invariance_bitwise():
    rep = readout_suite(n_graphs=20, n_motions=5, seed=2)
    _report(3, rep.ok,
            f"readout bundles bitwise identical across poses: "
            f"{int(rep.worst['bitwise_mismatches'])} mismatches in {rep.trials} trials")


def test_criterion_04_gradient_fidelity():
    t0 = time.perf_counter()
    residues = [("GLY", [("CA", "C", (3.0 * k, 0.0, 0.0))]) for k in range(2)]
    rec = ComplexRecord("grad3", (make_chain("A", residues),),
                        make_ligand([("C", (1.5, 2.0, 0.0))]), {"A": "receptor"})
    pg = pack_graph(build_graph(rec, GraphConfig()), np.float64)
    cfg = HeMeNetConfig(L=2, d=8, heads=2, task_dims=SMALL_DIMS, dtype="float64")
    store = init_params(cfg, seed=0)
    lba_labels = SampleLabels(lba=1.25, chain_props={
        "A": {t: (np.arange(8) % 2).astype(np.uint8) for t in PROPERTY_TASKS}})
    ppa_labels = SampleLabels(ppa=0.5)
    w = LossWeights()

    plans = [label_plan(pg, lba_labels), label_plan(pg, ppa_labels)]

    def fn():
        H, _ = encode(pg, store, cfg)
        logits = readout_and_heads(H, pg.scopes, every_pool(pg.scopes), store, cfg)
        return add(multitask_loss(logits, plans[0], w)[0],
                   multitask_loss(logits, plans[1], w)[0])

    # loss is O(4); central differences at eps=1e-5 cannot resolve
    # gradient entries below ~1e-5, so treat those as zero on both sides
    rep = grad_check(fn, store, eps=1e-5, tol=1e-5, zero_floor=1e-5)
    elapsed = time.perf_counter() - t0
    ok = rep.ok and elapsed < 300.0
    _report(4, ok,
            "analytic vs central-difference gradients, 3-node graph, d=8, L=2, "
            f"all heads: max rel error {rep.max_rel_error:.2e} (tol 1e-5), "
            f"{len(rep.per_param)} parameters, {elapsed:.0f}s < 300s")


def test_criterion_05_overfit_tiny_corpus():
    t0 = time.perf_counter()
    samples = generate_synthetic(SyntheticConfig(n_samples=8, seed=3))
    cfg = HeMeNetConfig(L=2, d=32, norm="layer", task_dims=SMALL_DIMS,
                        dtype="float64")
    store = init_params(cfg, seed=0)
    data = prepare_data(samples, GraphConfig(), np.float64)
    w = LossWeights()
    epochs = 1000  # 2 batches of 4 per epoch = 2000 optimizer steps
    first = last = None
    for epoch in range(epochs):
        opt = OptimConfig(lr=cosine_lr(1e-2, epoch, epochs))
        stats = train_epoch(store, cfg, data, w, opt, seed=epoch, batch_size=4)
        if first is None:
            first = stats.loss
        last = stats.loss
    rep = evaluate(store, cfg, data)
    elapsed = time.perf_counter() - t0
    mses = {t: rep.metrics[t]["rmse"] ** 2 for t in ("lba", "ppa")
            if t in rep.metrics}
    fmaxes = {t: rep.metrics[t]["fmax"] for t in PROPERTY_TASKS
              if t in rep.metrics}
    ok = (last <= 0.05 * first
          and mses and all(v <= 1e-2 for v in mses.values())
          and fmaxes and all(v >= 0.95 for v in fmaxes.values())
          and elapsed < 600.0)
    _report(5, ok,
            f"8-sample overfit, 2000 steps: loss {last:.4f} <= 5% of {first:.2f}, "
            f"affinity MSE {max(mses.values()):.2e} <= 1e-2, "
            f"Fmax {min(fmaxes.values()):.3f} >= 0.95, {elapsed:.0f}s < 600s")


def test_criterion_06_metric_oracles():
    rng = np.random.default_rng(6)
    exact = 0
    for _ in range(200):
        n, k = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        S = np.round(rng.random((n, k)), 2)
        Y = rng.random((n, k)) < 0.4
        Y[rng.integers(n), rng.integers(k)] = True
        if fmax(S, Y) == brute_force_fmax(S, Y):
            exact += 1
    reg_ok = True
    for _ in range(50):
        n = int(rng.integers(1, 30))
        a, b = rng.normal(size=n), rng.normal(size=n)
        r, m = rmse_mae(a, b)
        reg_ok &= abs(r - float(np.sqrt(np.mean((a - b) ** 2)))) <= 1e-12
        reg_ok &= abs(m - float(np.mean(np.abs(a - b)))) <= 1e-12
    _report(6, exact == 200 and reg_ok,
            f"fmax equals exhaustive threshold sweep in {exact}/200 random "
            "trials, rmse/mae within 1e-12 of direct formulas")


def test_criterion_07_unlabeled_heads_zero_gradient(small_cfg64, synthetic_data64):
    rng = np.random.default_rng(7)
    store = init_params(small_cfg64, seed=2)
    clean = True
    trials = 50
    for _ in range(trials):
        pg, labels = synthetic_data64[int(rng.integers(len(synthetic_data64)))]
        present = list(label_plan(pg, labels).pools)
        k = int(rng.integers(1, len(present) + 1))
        wanted = tuple(sorted(rng.choice(present, size=k, replace=False).tolist()))
        grads = {}
        H, _ = encode(pg, store, small_cfg64)
        plan = label_plan(pg, labels, wanted)
        logits = readout_and_heads(H, pg.scopes, plan.pools, store, small_cfg64)
        loss, _ = multitask_loss(logits, plan, LossWeights())
        loss.backward(grads)
        for task in TASKS:
            if task in wanted:
                continue
            for sfx in ("w1", "b1", "w2", "b2"):
                g = grads.get(store.params[f"head.{task}.{sfx}"])
                if g is not None and np.any(g):
                    clean = False
    _report(7, clean,
            f"heads outside the active task subset receive exactly zero "
            f"gradient in {trials}/{trials} random subsets")


def test_criterion_08_batch_quotas():
    samples = []
    for i in range(5):
        samples.append((None, SampleLabels(lba=1.0)))
    for i in range(4):
        samples.append((None, SampleLabels(ppa=1.0)))
    for i in range(7):
        samples.append((None, SampleLabels(chain_props={
            "A": {"ec": np.ones(8, dtype=np.uint8)}})))
    n_lba = 5
    n_ppa = 4
    ok = True
    for seed in range(1000):
        batches = balanced_batches(samples, batch_size=4, seed=seed)
        flat = sorted(i for b in batches for i in b)
        ok &= flat == list(range(len(samples)))
        seen_lba = seen_ppa = 0
        for batch in batches:
            has_lba = any(samples[i][1].lba is not None for i in batch)
            has_ppa = any(samples[i][1].ppa is not None for i in batch)
            if seen_lba < n_lba:
                ok &= has_lba
            if seen_ppa < n_ppa:
                ok &= has_ppa
            seen_lba += sum(1 for i in batch if samples[i][1].lba is not None)
            seen_ppa += sum(1 for i in batch if samples[i][1].ppa is not None)
    _report(8, ok,
            "every batch carries both affinity kinds while their pools last, "
            "each sample drawn exactly once, 1000 epochs")


def test_criterion_09_calpha_degeneracy():
    rng = np.random.default_rng(9)
    cfg = HeMeNetConfig(L=2, d=16, task_dims=SMALL_DIMS, dtype="float64")
    store = init_params(cfg, seed=9)
    exact = True
    for _ in range(5):
        n = int(rng.integers(3, 7))
        residues = [("GLY", [("CA", "C", rng.normal(scale=4.0, size=3))]) for _ in range(n)]
        rec = ComplexRecord("ca", (make_chain("A", residues),), make_ligand(), {"A": "receptor"})
        g_full = build_graph(rec, GraphConfig(geometry="full_atom"))
        g_ca = build_graph(rec, GraphConfig(geometry="calpha"))
        exact &= all(g_full.edges[k].tobytes() == g_ca.edges[k].tobytes() for k in RelationKind)
        Hf, Xf = encode(pack_graph(g_full, np.float64), store, cfg)
        Hc, Xc = encode(pack_graph(g_ca, np.float64), store, cfg)
        exact &= Hf.data.tobytes() == Hc.data.tobytes()
        exact &= Xf.data.tobytes() == Xc.data.tobytes()
    _report(9, exact,
            "single-atom residues: full-atom and C-alpha geometries give "
            "identical edges and bitwise identical encoder output, 5 graphs")


def _tiny_pdb(i: int) -> str:
    from test_structio import pline
    dx = 0.37 * i
    serial = iter(range(1, 99))
    lines = []
    for seq, base in ((1, 0.0), (2, 3.8)):
        for name, (x, y, z) in (("N", (0.0, 0.0, 0.0)), ("CA", (1.4, 0.0, 0.0)),
                                ("C", (2.0, 1.2, 0.0)), ("O", (3.1, 1.4, 0.0))):
            lines.append(pline("ATOM", next(serial), name, "GLY", "A", seq,
                               x + base + dx, y, z, element=name[0]))
    lines.append(pline("HETATM", next(serial), "C1", "LIG", "B", 1,
                       1.5 + dx, 2.5, 0.5, element="C"))
    lines.append("END")
    return "\n".join(lines) + "\n"


def test_criterion_10_pipeline_determinism(tmp_path):
    for i in range(8):
        (tmp_path / f"c{i}.pdb").write_text(_tiny_pdb(i), encoding="utf-8")
    records = tmp_path / "records.ndjson"
    assert main(["ingest", *(str(tmp_path / f"c{i}.pdb") for i in range(8)),
                 "--out", str(records)]) == 0
    aff = tmp_path / "aff.tsv"
    aff.write_text("".join(f"c{i}\t{'lba' if i % 2 else 'ppa'}\t{4.0 + i / 8}\n"
                           for i in range(8)), encoding="utf-8")
    labels = tmp_path / "labels.json"
    assert main(["annotate", "--records", str(records), "--affinities", str(aff),
                 "--dims", "ec=8,mf=8,bp=8,cc=8", "--out", str(labels)]) == 0
    clusters = tmp_path / "clusters.tsv"
    clusters.write_text("".join(f"c{i}:A\tK{i % 3}\n" for i in range(8)),
                        encoding="utf-8")
    splits = tmp_path / "splits.json"
    assert main(["split", "--records", str(records), "--labels", str(labels),
                 "--clusters", str(clusters), "--seed", "0",
                 "--out", str(splits)]) == 0
    out1 = tmp_path / "run1"
    assert main(["train", "--records", str(records), "--labels", str(labels),
                 "--splits", str(splits), "--out", str(out1), "--L", "1",
                 "--d", "8", "--heads", "2", "--norm", "layer",
                 "--dtype", "float32", "--epochs", "5", "--batch-size", "8",
                 "--lr", "1e-3", "--seed", "0"]) == 0
    run = json.loads((out1 / "run.json").read_text())
    for key in ("version", "best_val_rule", "task_dims"):
        run.pop(key)
    out2 = tmp_path / "run2"
    run["out"] = str(out2)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(run), encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 0
    reports = []
    for out in (out1, out2):
        rep = out / "eval.json"
        assert main(["eval", "--checkpoint", str(out / "best.bin"),
                     "--records", str(records), "--labels", str(labels),
                     "--splits", str(splits), "--split", "train",
                     "--out", str(rep)]) == 0
        reports.append(rep.read_bytes())
    same = all((out1 / name).read_bytes() == (out2 / name).read_bytes()
               for name in ("metrics.jsonl", "report.json", "best.bin"))
    same &= reports[0] == reports[1]
    _report(10, same,
            "ingest, annotate, split, 5-step train, eval: rerun from the "
            "recorded run.json reproduces every metric file byte for byte")


def test_criterion_11_labeling_predicate_and_split_hygiene():
    cases = []

    def case(labels, chains, expect):
        cases.append((labels, list(chains), expect))

    case(full_labels(["A"]), "A", True)
    case(full_labels(["A"], affinity="ppa"), "A", True)
    case(full_labels(["A", "B"]), "AB", True)
    case(full_labels(["A", "B", "C"], affinity="ppa"), "ABC", True)
    no_aff = full_labels(["A"])
    no_aff.lba = None
    case(no_aff, "A", False)
    both = full_labels(["A"])
    both.ppa = 1.0
    case(both, "A", False)
    for task in PROPERTY_TASKS:  # 4 cases, one property vector missing
        labels = full_labels(["A"])
        labels.chain_props["A"][task] = None
        case(labels, "A", False)
    case(full_labels(["A"]), "AB", False)  # chain B has no entry
    case(SampleLabels(), [], False)  # no affinity at all
    case(SampleLabels(lba=1.0), [], True)  # no chains to check
    case(SampleLabels(ppa=1.0), [], True)
    case(SampleLabels(lba=1.0, ppa=2.0), [], False)
    case(full_labels(["B"]), "A", False)  # props on the wrong chain
    zeros = full_labels(["A"])
    zeros.chain_props["A"]["ec"] = np.zeros(8, dtype=np.uint8)
    case(zeros, "A", True)  # all-negative vector still counts as labeled
    case(full_labels(["A", "B"]), "A", True)  # extra entry is harmless
    partial_two = full_labels(["A", "B"])
    partial_two.chain_props["B"]["mf"] = None
    case(partial_two, "AB", False)
    case(SampleLabels(lba=1.0, chain_props={"A": {"ec": np.ones(8, np.uint8)}}),
         "A", False)  # only one of four property tasks
    assert len(cases) == 20
    table_ok = all(is_fully_labeled(labels, chains) is expect
                   for labels, chains, expect in cases)

    # partially labeled complexes must never reach val or test, and are
    # dropped outright when they share a cluster with a test complex
    recs = {f"f{i}": make_rec(f"f{i}", ["A"]) for i in range(4)}
    samples = [(recs[f"f{i}"], full_labels(["A"])) for i in range(4)]
    samples.append((make_rec("p0", ["A"]), SampleLabels(lba=3.0)))
    samples.append((make_rec("p1", ["A"]), SampleLabels(ppa=1.0)))
    clusters = {f"f{i}:A": f"c{i}" for i in range(4)}
    clusters["p0:A"] = "c0"  # collides with f0's cluster
    clusters["p1:A"] = "c9"
    out = assemble_splits(samples, clusters, seed=0, fractions=(0.0, 0.0, 1.0))
    split_ok = (out.dropped == ("p0",)
                and out.assignment["p1"] == "train"
                and all(out.assignment[f"f{i}"] == "test" for i in range(4)))
    for seed in range(10):
        mixed = assemble_splits(samples, clusters, seed=seed)
        split_ok &= all(mixed.assignment.get(cid, "train") == "train"
                        for cid in ("p0", "p1") if cid in mixed.assignment)
    _report(11, table_ok and split_ok,
            "20-case labeling predicate table exact, partial samples confined "
            "to train or dropped on any cluster overlap with test")
