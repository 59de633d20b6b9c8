"""Clustering on learned embeddings: Lloyd's K-means with k-means++ seeding
and restart averaging of NMI / pairwise-F against ground-truth classes.

When the embedding has no more rows than columns, the restarts share its
Gram and run the same Lloyd steps in kernel form, on row weights.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .anomaly import build_map
from .data import Dataset, standardize as standardize_dataset
from .encoder import EncoderModel, LossTrace, TrainConfig, ablate, train
from .metrics import nmi, pairwise_f
from .rng import child_seed, stream


@dataclass
class KMeansResult:
    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations_run: int


def embed(model: EncoderModel, data) -> np.ndarray:
    """Rows of the learned representation for a Dataset or matrix."""
    X = data.features if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    return model.forward_batch(X)


def _sq_dists(X: np.ndarray, x2: np.ndarray, C: np.ndarray) -> np.ndarray:
    # x2 is np.sum(X * X, axis=1), computed once per K-means input
    d2 = (
        x2[:, None]
        + np.sum(C * C, axis=1)[None, :]
        - 2.0 * (X @ C.T)
    )
    return np.maximum(d2, 0.0)


class _Rows(NamedTuple):
    """A K-means input shared by restarts: the rows, their squared norms and,
    optionally, their Gram K = X X^T. With K, centroids are held as k x n row
    weights A (centroids A X), and distances need only K (kernel k-means)."""

    X: np.ndarray
    x2: np.ndarray
    K: Optional[np.ndarray] = None


def _row_dists(rows: _Rows, idx) -> np.ndarray:
    """Squared distances of every row to the rows idx."""
    X, x2, K = rows
    if K is None:
        return _sq_dists(X, x2, X[idx])
    return np.maximum(x2[:, None] + x2[idx][None, :] - 2.0 * K[:, idx], 0.0)


def _centroid_dists(rows: _Rows, C: np.ndarray) -> np.ndarray:
    """Squared distances of every row to the centroids C (row weights with K)."""
    X, x2, K = rows
    if K is None:
        return _sq_dists(X, x2, C)
    P = C @ K  # P[j, i] = c_j . x_i
    return np.maximum(x2[:, None] + np.sum(C * P, axis=1)[None, :] - 2.0 * P.T, 0.0)


def _at_rows(rows: _Rows, idx) -> np.ndarray:
    """Centroids placed on the rows idx: their coordinates, or one-hot weights with K."""
    if rows.K is None:
        return rows.X[idx]
    return (np.asarray(idx)[..., None] == np.arange(rows.X.shape[0])).astype(np.float64)


def _plusplus_init(rows: _Rows, k: int, rng: np.random.Generator) -> np.ndarray:
    # greedy k-means++: draw a few D^2-weighted candidates per step and
    # keep the one that shrinks the potential most; returns the picked rows
    n = rows.X.shape[0]
    trials = 2 + int(math.log(k)) if k > 1 else 1
    picks = np.empty(k, dtype=np.int64)
    picks[0] = rng.integers(0, n)
    closest = _row_dists(rows, picks[:1]).ravel()
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:  # all remaining points coincide with a centroid
            candidates = rng.integers(0, n, size=trials)
        else:
            candidates = rng.choice(n, size=trials, p=closest / total)
        cand_closest = np.minimum(closest[:, None], _row_dists(rows, candidates))
        best = int(np.argmin(cand_closest.sum(axis=0)))  # the first lowest total wins
        picks[c] = candidates[best]
        closest = cand_closest[:, best]
    return picks


def kmeans(X: np.ndarray, k: int, max_iters: int = 300, seed: int = 0) -> KMeansResult:
    """Lloyd iterations from k-means++ until the assignments stop changing.

    Empty clusters are reseeded to the point currently farthest from its
    centroid, so every cluster id stays populated.
    """
    if isinstance(X, _Rows):
        rows = X
    else:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {X.shape}")
        rows = _Rows(X, np.sum(X * X, axis=1))
    n = rows.X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    rng = stream(seed)
    centroids = _at_rows(rows, _plusplus_init(rows, k, rng))
    assignments = np.full(n, -1, dtype=np.int64)
    point_d2 = np.zeros(n)
    iterations = 0
    for _ in range(max_iters):
        d2 = _centroid_dists(rows, centroids)
        new_assign = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(n), new_assign]
        for empty in np.setdiff1d(np.arange(k), new_assign):
            farthest = int(np.argmax(point_d2))
            centroids[empty] = _at_rows(rows, farthest)
            new_assign[farthest] = empty
            point_d2[farthest] = 0.0
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        iterations += 1
        onehot = np.arange(k)[:, None] == assignments
        members = onehot if rows.K is not None else onehot @ rows.X
        centroids = members / onehot.sum(axis=1)[:, None]
    else:
        # out of iterations: make the reported state self-consistent
        d2 = _centroid_dists(rows, centroids)
        assignments = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(n), assignments]
    if rows.K is not None:
        centroids = centroids @ rows.X
    inertia = float(point_d2.sum())
    return KMeansResult(
        assignments=assignments, centroids=centroids, inertia=inertia, iterations_run=iterations
    )


@dataclass
class ClusteringResult:
    nmi_mean: float
    nmi_std: float
    f_mean: float
    f_std: float
    nmi_values: np.ndarray
    f_values: np.ndarray
    model: EncoderModel
    trace: LossTrace
    embeddings: np.ndarray
    assignments: np.ndarray  # from the first restart, for export
    train_seconds: float = 0.0
    cluster_seconds: float = 0.0


def run_clustering(
    data: Dataset,
    config: Optional[TrainConfig] = None,
    restarts: int = 30,
    ablation: str = "none",
    source: str = "rff",
    standardize: bool = True,
    normalize_embeddings: bool = False,
    kmeans_max_iters: int = 300,
    bandwidth: Optional[float] = None,
    density: Optional[float] = None,
    map_dim: Optional[int] = None,
    workers: int = 1,
) -> ClusteringResult:
    """Train the representation, embed, and K-means with restart averaging.

    k is the number of distinct ground-truth labels, which must be present.
    The reconstruction auxiliary loss is on by default and removed by
    ablation='no_aux_loss'; 'no_pair_loss' keeps only the reconstruction
    loss. Reported NMI/F statistics are mean and population std over
    restarts.
    """
    if data.labels is None:
        raise ValueError("clustering evaluation needs ground-truth labels")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if kmeans_max_iters < 1:
        raise ValueError(f"kmeans_max_iters must be >= 1, got {kmeans_max_iters}")
    if config is None:
        config = TrainConfig.clustering_defaults()
    if config.task != "clustering":
        raise ValueError(f"clustering pipeline needs task='clustering', got {config.task!r}")
    cfg = ablate(config, ablation)

    X = data.features
    if standardize:
        X = standardize_dataset(data)[0].features
    d = X.shape[1]

    k_map = map_dim if map_dim is not None else cfg.m
    mapping = build_map(source, d, k_map, X, child_seed(cfg.seed, 10_000), bandwidth, density)

    t0 = time.perf_counter()
    model, trace = train(X, cfg, mapping)
    H = embed(model, X)
    t1 = time.perf_counter()
    if normalize_embeddings:
        norms = np.linalg.norm(H, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        H = H / norms

    k = int(np.unique(data.labels).size)
    seeds = [child_seed(cfg.seed, 20_000 + r) for r in range(restarts)]
    # with n <= m the n x n Gram is no larger than H (8n^2 bytes), and each
    # restart's Lloyd step reads it once instead of reading H twice
    rows = _Rows(H, np.sum(H * H, axis=1), H @ H.T if H.shape[0] <= H.shape[1] else None)

    def one_restart(seed: int) -> KMeansResult:
        return kmeans(rows, k, max_iters=kmeans_max_iters, seed=seed)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one_restart, seeds))
    else:
        results = [one_restart(s) for s in seeds]

    nmi_values = np.array([nmi(data.labels, r.assignments) for r in results])
    f_values = np.array([pairwise_f(data.labels, r.assignments) for r in results])
    return ClusteringResult(
        nmi_mean=float(nmi_values.mean()),
        nmi_std=float(nmi_values.std()),
        f_mean=float(f_values.mean()),
        f_std=float(f_values.std()),
        nmi_values=nmi_values,
        f_values=f_values,
        model=model,
        trace=trace,
        embeddings=H,
        assignments=results[0].assignments,
        train_seconds=t1 - t0,
        cluster_seconds=time.perf_counter() - t1,
    )
