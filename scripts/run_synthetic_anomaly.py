#!/usr/bin/env python3
"""Desk-scale anomaly experiment on synthetic shell data.

Trains the full detector plus its three ablations on the same seed and
prints an AUC table, mirroring how the decomposition experiments are run.
"""
import argparse
import sys
import time
from dataclasses import replace

from randist import BoostConfig, TrainConfig, run_anomaly, synth_anomaly
from randist.anomaly import SOURCES


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-normal", type=int, default=950)
    parser.add_argument("--n-anomaly", type=int, default=50)
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--members", type=int, default=10)
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--data-seed", type=int, default=7)
    parser.add_argument("--source", choices=SOURCES, default="rff")
    args = parser.parse_args(argv)

    data = synth_anomaly(args.n_normal, args.n_anomaly, args.dim, seed=args.data_seed)
    print(f"data: {data.n} rows, {data.d} columns, {data.labels.mean():.1%} anomalies")

    full = BoostConfig(
        train=TrainConfig.anomaly_defaults(epochs=args.epochs, seed=args.seed),
        members=args.members,
        source=args.source,
    )
    variants = {
        "full": full,
        "no_pair_loss": replace(full, train=replace(full.train, use_pair_loss=False)),
        "no_aux_loss": replace(full, train=replace(full.train, use_aux_loss=False)),
        "no_boosting": replace(full, filter_rounds=0),
    }

    print(f"{'variant':<14} {'auc_roc':>8} {'auc_pr':>8} {'seconds':>8}")
    for label, config in variants.items():
        t0 = time.perf_counter()
        result = run_anomaly(data, config)
        print(
            f"{label:<14} {result.auc_roc:>8.4f} {result.auc_pr:>8.4f} "
            f"{time.perf_counter() - t0:>8.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
