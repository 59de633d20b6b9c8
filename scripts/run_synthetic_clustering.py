#!/usr/bin/env python3
"""Desk-scale clustering experiment: K-means quality on the learned space.

Compares the learned embedding against clustering the raw standardized
features, and optionally sweeps the supervisory source.
"""
import argparse
import sys

from randist import TrainConfig, run_clustering, standardize, synth_blobs
from randist.clustering import restart_scores


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clusters", type=int, default=4)
    parser.add_argument("--per-cluster", type=int, default=100)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--m", type=int, default=64)
    parser.add_argument("--epochs", type=int, default=1000)
    parser.add_argument("--restarts", type=int, default=10)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--data-seed", type=int, default=5)
    parser.add_argument("--all-sources", action="store_true",
                        help="also run the srp supervisory source")
    args = parser.parse_args(argv)

    data = synth_blobs(args.clusters, args.per_cluster, args.dim, seed=args.data_seed)
    print(f"data: {data.n} rows, {data.d} columns, {args.clusters} clusters")

    # the restarts the learned rows get, seeded alike, on the standardized features
    nmis, fs, _ = restart_scores(standardize(data)[0].features, data.labels, args.restarts, args.seed)
    print(f"{'space':<22} {'nmi':>14} {'f':>14}")
    print(f"{'raw standardized':<22} {nmis.mean():>14.4f} {fs.mean():>14.4f}")

    sources = ["rff", "srp"] if args.all_sources else ["rff"]
    for source in sources:
        cfg = TrainConfig.clustering_defaults(m=args.m, epochs=args.epochs, seed=args.seed)
        result = run_clustering(data, cfg, restarts=args.restarts, source=source)
        print(
            f"{'learned (' + source + ')':<22} "
            f"{result.nmi_mean:>8.4f}+-{result.nmi_std:.3f} "
            f"{result.f_mean:>8.4f}+-{result.f_std:.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
