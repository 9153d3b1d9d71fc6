"""Overfit a tiny synthetic corpus end to end.

Sanity experiment for the whole stack: eight generated complexes, the
small recipe (L=2, d=32, layer norm, Adam at 1e-2 with cosine decay),
two optimizer steps per epoch.  After the configured number of epochs
the affinity errors should be near machine noise and every property
Fmax should reach 1.0.

    python3 scripts/overfit_demo.py --epochs 1000
"""

import argparse
import time

import numpy as np

from hemenet.datasets import SyntheticConfig, generate_synthetic
from hemenet.graph import GraphConfig
from hemenet.model import HeMeNetConfig, init_params
from hemenet.numcore import OptimConfig
from hemenet.train import LossWeights, cosine_lr, evaluate, prepare_data, train_epoch


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epochs", type=int, default=1000)
    ap.add_argument("--n-samples", type=int, default=8)
    ap.add_argument("--d", type=int, default=32)
    ap.add_argument("--lr", type=float, default=1e-2)
    ap.add_argument("--data-seed", type=int, default=3)
    ap.add_argument("--param-seed", type=int, default=0)
    args = ap.parse_args()

    samples = generate_synthetic(SyntheticConfig(n_samples=args.n_samples,
                                                 seed=args.data_seed))
    cfg = HeMeNetConfig(L=2, d=args.d, norm="layer", dtype="float64",
                        task_dims={"ec": 8, "mf": 8, "bp": 8, "cc": 8})
    store = init_params(cfg, seed=args.param_seed)
    data = prepare_data(samples, GraphConfig(), np.float64)
    w = LossWeights()

    t0 = time.perf_counter()
    first = None
    for epoch in range(args.epochs):
        opt = OptimConfig(lr=cosine_lr(args.lr, epoch, args.epochs))
        stats = train_epoch(store, cfg, data, w, opt, seed=epoch, batch_size=4)
        first = first if first is not None else stats.loss
        if epoch % max(args.epochs // 20, 1) == 0 or epoch == args.epochs - 1:
            print(f"epoch {epoch:4d}  loss {stats.loss:10.6f}  "
                  f"({stats.loss / first:8.2%} of initial)  "
                  f"grad norm {stats.grad_norm:8.3f}")
    print(f"\ntrained {args.epochs} epochs in {time.perf_counter() - t0:.0f}s")

    report = evaluate(store, cfg, data)
    for task in sorted(report.metrics):
        vals = ", ".join(f"{k} {v:.6f}" for k, v in sorted(report.metrics[task].items()))
        print(f"  {task:4s} {vals}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
