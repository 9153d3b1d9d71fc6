"""Benchmark entry point for hemenet.

    python3 bench/run.py --workload train-paper --seed 1 --seconds 22 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the checkout this file lives in.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``:

- ``--trace 0`` measures with nothing wrapped and reports the end-to-end
  metrics of BENCHMARK.json;
- ``--trace 1`` wraps hemenet's public functions (see ``tracer``), runs a
  fixed pass of the workload untraced and then traced, and reports the
  per-layer metrics, the self time per module and the tracing overhead.

Lines before it are human-readable: the environment, the ten
user-facing metrics of README.md (n/a where the workload does not
exercise one), error_rate and the check value ``train_loss_last``.  Results and spans
are also written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# One BLAS thread: on a small shared machine a second thread that must
# meet the first at every matmul turns any stolen time into a stall, and
# the run-to-run spread grows more than the throughput does.
BLAS_THREADS = 1


def pin_threads(n: int) -> None:
    """Must run before numpy is imported: OpenBLAS sizes its pool at load."""
    for var in THREAD_VARS:
        os.environ[var] = str(n)


def import_hemenet():
    """Import hemenet from this checkout's src/ only; None if absent."""
    if not os.path.isfile(os.path.join(SRC, "hemenet", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import hemenet
    if not os.path.abspath(hemenet.__file__).startswith(SRC + os.sep):
        return None
    return hemenet


def environment(threads: int, dtype: str) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_threads": threads,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "dtype": dtype,
    }


# -- end-to-end report -------------------------------------------------------------

# The user-facing metric names, each mapped to the end-to-end metric of
# BENCHMARK.json that carries it on its workload (None: all workloads).
NAMED_METRICS = (
    ("setup_s", "s", None, "setup_s"),
    ("train_samples_per_s", "samples/s", "train-paper", "throughput"),
    ("train_step_s_p50", "s", "train-paper", "op_s_p50"),
    ("eval_complexes_per_s", "complexes/s", "eval-multichain", "throughput"),
    ("eval_complex_s_p50", "s", "eval-multichain", "op_s_p50"),
    ("eval_complex_s_p90", "s", "eval-multichain", "op_s_p90"),
    ("prep_atoms_per_s", "atoms/s", "ingest-large", "throughput"),
    ("prep_largest_s", "s", "ingest-large", "prep_largest_s"),
    ("peak_rss_mb", "MB", None, "peak_rss_mb"),
)

# end-to-end metric -> unit, as in BENCHMARK.json
E2E_UNITS = {"setup_s": "s", "throughput": "items/s", "op_s_p50": "s", "peak_rss_mb": "MB"}


def error_line(tally) -> str:
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    return f"error_rate [failed/attempted]: {rate:.6g} ({tally.failed}/{tally.attempted})"


def report_lines(workload: str, summary: dict, tally) -> list[str]:
    lines = []
    for name, unit, only, key in NAMED_METRICS:
        if only is not None and only != workload:
            lines.append(f"{name} [{unit}]: n/a (not exercised by {workload})")
        elif summary.get(key) is None and key == "op_s_p90":
            lines.append(f"{name} [{unit}]: not reported "
                         f"({summary['n_ops']} samples, fewer than 10 beyond it)")
        elif summary.get(key) is None:
            lines.append(f"{name} [{unit}]: not measured (an operation failed)")
        else:
            lines.append(f"{name} [{unit}]: {summary[key]:.6g}")
    lines.append(error_line(tally))
    lines.append(f"ops measured: {summary['n_ops']}, {summary['items']:g} items "
                 f"in {summary['busy_s']:.3f} s busy")
    lines.append("seconds per unit: " + " ".join(f"{t:.3f}" for t in summary["unit_s"]))
    return lines


# -- per-layer report --------------------------------------------------------------

MODULES = ("structio", "graph", "model", "geom", "tensor", "params", "checkpoint", "train")
TRACED_OPS = ("matmul", "gather_rows", "segment_sum", "silu", "sigmoid", "concat", "mul",
              "batch_norm", "layer_norm", "softmax")

# per-layer metric -> span; value is mean inclusive seconds per call
CALL_SPANS = {
    "structio.parse_s": "structio.parse",
    "graph.build_s": "graph.build",
    "model.pack_s": "model.pack",
    "model.encode_s": "model.encode",
    "model.layer_forward_s": "model.layer_forward",
    "model.readout_s": "model.readout",
    "geom.relation_s": "geom.relation",
    "geom.centroid_s": "geom.centroid",
    "tensor.backward_s": "tensor.backward",
    "params.clip_s": "params.clip",
    "params.optim_s": "params.optim",
    "checkpoint.save_s": "checkpoint.save",
    "checkpoint.load_s": "checkpoint.load",
    "train.loss_s": "train.loss",
    "train.metrics_s": "train.metrics",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {name: "s" for name in CALL_SPANS}
    for op in TRACED_OPS:
        units[f"tensor.{op}.fwd_s"] = "s"
        units[f"tensor.{op}.calls"] = "count"
    for mod in MODULES + ("bench",):
        units[f"self.{mod}_s"] = "s"
    units.update({
        "graph.atoms": "count", "graph.nodes": "count", "graph.edges": "count",
        "graph.pair_hit_ratio": "ratio", "model.packed_bytes": "bytes",
        "model.pool_bytes": "bytes", "model.ops_per_forward": "count",
        "model.readouts_per_complex": "count", "checkpoint.bytes": "bytes",
        "trace.spans": "count", "trace.overhead_s": "s", "trace.overhead_share": "ratio",
    })
    return units


def graph_counts(graphs, packed) -> dict:
    from hemenet.graph import RelationKind
    atoms = sum(node.channels for g in graphs for node in g.nodes)
    nodes = sum(g.n_nodes for g in graphs)
    edges = sum(len(v) for g in graphs for v in g.edges.values())
    kept = sum(len(g.edges[RelationKind.SPATIAL]) // 2 for g in graphs)
    scanned = sum(g.n_nodes * (g.n_nodes - 1) // 2 for g in graphs)
    packed_bytes = 0
    for pg in packed:
        arrays = [pg.X0, pg.mask, pg.type_idx, pg.elem_idx, pg.src, pg.dst, pg.kind,
                  pg.pool, pg.deg, *pg.kind_pos, *pg.scopes.values()]
        packed_bytes += sum(a.nbytes for a in arrays)
    return {
        "graph.atoms": atoms, "graph.nodes": nodes, "graph.edges": edges,
        "graph.pair_hit_ratio": kept / scanned if scanned else 0.0,
        "model.packed_bytes": packed_bytes,
        "model.pool_bytes": sum(pg.pool.nbytes for pg in packed),
    }


def layer_metrics(tr, pass_lo: int, pass_hi: int, pass_wall: float, items: float) -> dict:
    """Per-layer metrics from the spans; self times and bench time are
    taken over the traced pass, spans [pass_lo, pass_hi), per item."""
    dur = tr.durations()
    own = tr.self_times()
    out = {}
    for metric, span in CALL_SPANS.items():
        calls = [d for n, d in zip(tr.names, dur) if n == span]
        out[metric] = sum(calls) / len(calls) if calls else 0.0

    op_time, op_calls, in_encode = {}, {}, 0
    for i in range(pass_lo, pass_hi):
        name = tr.names[i]
        if name.startswith("tensor.") and name != "tensor.backward":
            op = name[len("tensor."):]
            op_time[op] = op_time.get(op, 0.0) + dur[i]
            op_calls[op] = op_calls.get(op, 0) + 1
            in_encode += tr.ancestor_named(i, "model.encode") >= 0
    for op in TRACED_OPS:
        out[f"tensor.{op}.fwd_s"] = op_time.get(op, 0.0) / items
        out[f"tensor.{op}.calls"] = op_calls.get(op, 0) / items
    n_encode = tr.names[pass_lo:pass_hi].count("model.encode")
    out["model.ops_per_forward"] = in_encode / n_encode if n_encode else 0
    n_readout = tr.names.count("model.readout")
    out["model.readouts_per_complex"] = (
        tr.names.count("model.task_readout") / n_readout if n_readout else 0)

    per_module = dict.fromkeys(MODULES, 0.0)
    roots = 0.0
    for i in range(pass_lo, pass_hi):
        per_module[tr.names[i].split(".")[0]] += own[i]
        if tr.parents[i] < 0:
            roots += dur[i]
    for mod, sec in per_module.items():
        out[f"self.{mod}_s"] = sec / items
    out["self.bench_s"] = (pass_wall - roots) / items
    out["trace.spans"] = len(tr.names)
    return out


# -- run --------------------------------------------------------------------------


def untraced(W, wl, workload: str, seconds: float, tally) -> tuple[dict, list[str]]:
    setup_s = W.set_up(wl)
    units = W.measure(wl, seconds)
    wl.finish()
    summary = W.summarize(units, setup_s)
    metrics = {k: {"value": float(summary[k]), "unit": u} for k, u in E2E_UNITS.items()}
    return metrics, report_lines(workload, summary, tally)


def traced(wl, spans_path: str, tally) -> tuple[dict, list[str]]:
    """Set up once traced, warm up, then run the workload's fixed pass
    untraced and traced; the difference is the tracing overhead."""
    from tracer import Tracer

    tr = Tracer()
    with tr:
        wl.setup()
    wl.warmup()

    def fixed_pass():
        t0 = time.perf_counter()
        done = wl.fixed_pass()
        return time.perf_counter() - t0, sum(u.items for u in done)

    plain_wall, plain_items = fixed_pass()
    lo = len(tr.names)
    with tr:
        traced_wall, items = fixed_pass()
    wl.finish()
    values = layer_metrics(tr, lo, len(tr.names), traced_wall, items)
    values.update(graph_counts(wl.graphs, wl.packed))
    values["checkpoint.bytes"] = wl.checkpoint_bytes()
    plain = plain_wall / plain_items
    values["trace.overhead_s"] = traced_wall / items - plain
    values["trace.overhead_share"] = values["trace.overhead_s"] / plain
    tr.dump(spans_path)

    units = per_layer_units()
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in sorted(units)}
    lines = [f"traced pass {traced_wall:.3f} s vs untraced {plain_wall:.3f} s "
             f"over {items:g} items"]
    lines += [f"{k} [{units[k]}]: {values[k]:.6g}" for k in sorted(units)]
    lines.append(error_line(tally))
    return metrics, lines


def run(workload: str, seed: int, seconds: float, trace: bool, scale=None,
        out_dir: str = OUT) -> tuple[dict, list[str]]:
    """Run one workload; returns (result object, human-readable lines)."""
    import workloads as W

    os.makedirs(out_dir, exist_ok=True)
    workdir = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tally = W.Tally()
    wl = W.WORKLOADS[workload](scale or W.PAPER, seed, workdir, tally)
    try:
        if trace:
            spans = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
            metrics, lines = traced(wl, spans, tally)
        else:
            metrics, lines = untraced(W, wl, workload, seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    loss = getattr(wl, "loss_after_warmup", None)
    if loss is not None:
        lines.append(f"train_loss_last (check value, last step of warm-up epoch 0): {loss!r}")
    lines += [f"check failed: {p}" for p in tally.problems[:20]]
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pin_threads(BLAS_THREADS)
    if import_hemenet() is None:
        print(f"hemenet sources not found under {SRC}", file=sys.stderr)
        return 2
    from workloads import PAPER, WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    env = environment(BLAS_THREADS, PAPER.model.dtype)
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "report": lines, "result": result}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"[{args.workload} seed={args.seed} trace={args.trace}] environment: "
          + ", ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(f"[{args.workload}] {line}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
