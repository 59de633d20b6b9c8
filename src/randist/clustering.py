"""Clustering on learned embeddings: Lloyd's K-means with k-means++ seeding
and restart averaging of NMI / pairwise-F against ground-truth classes.

Centroids are k x n row weights A (centroids A X): one-hot rows from
seeding, member means after each update. When the embedding has no more
rows than columns, the restarts share its Gram K and read the centroid
products from it (kernel k-means); otherwise they are formed from the
centroids' coordinates. `kmeans` runs the restarts in lockstep: each
Lloyd round forms the centroid products of every restart still running
from one product over their stacked row weights, so the rows or their
Gram are read once per round. Each restart keeps its own random stream,
seeding, repair and convergence test. `restart_scores` scores a run of
restarts against labels; it is the only caller of `kmeans`.

`run_clustering` holds one lane (`forks.spare_lane`) for its whole call and
shares it with `train`, `embed` and `restart_scores`. The lane runs the
second block of each large one-off product: the embedding's second row
block, the second side of the rows' Gram (`mappings.gram_product`) and,
in each Lloyd round, the second row block of the stacked row weights'
product. The blocks follow from shapes alone and run in turn without a
lane, so results are the same bits with and without one.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .anomaly import build_map
from .data import Dataset, standardize as standardize_dataset
from .encoder import EncoderModel, LossTrace, TrainConfig, train
from .forks import halves, spare_lane
from .mappings import gram_product
from .metrics import nmi, pairwise_f
from .rng import child_seed, stream

MAX_ITERS = 300  # Lloyd rounds before a restart stops unconverged


def embed(model: EncoderModel, data, lane=None) -> np.ndarray:
    """Rows of the learned representation for a Dataset or matrix, in two
    row blocks, the second on the lane when one is given."""
    X = data.features if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    return model.forward_batch(X, lane=lane)


class _Rows(NamedTuple):
    """A K-means input shared by restarts: the rows, their squared norms and,
    optionally, their Gram K = X X^T (kernel k-means: products with the
    centroids are then read from K instead of formed from X)."""

    X: np.ndarray
    x2: np.ndarray
    K: Optional[np.ndarray] = None


def _dists(x2: np.ndarray, P: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Squared distances from the rows' and centroids' squared norms and the
    n x k products P[i, j] = x_i . c_j. P is overwritten: scaling it in place
    saves an n x k temporary per call."""
    P *= 2.0
    d2 = x2[:, None] + c2[None, :]
    d2 -= P
    return np.maximum(d2, 0.0, out=d2)


def _row_dists(rows: _Rows, idx) -> np.ndarray:
    """Squared distances of every row to the rows idx."""
    X, x2, K = rows
    return _dists(x2, X @ X[idx].T if K is None else K[:, idx], x2[idx])


def _centroid_dists(rows: _Rows, As: list, lane=None):
    """Squared distances of every row to each restart's centroids A X (A: k x n
    row weights), one n x k matrix per restart in turn. The centroid products
    of all restarts come from one product over their stacked row weights, so
    the rows (or their Gram) are read once per round, not once per restart.
    That product runs in two blocks of the stacked rows, the second on the
    lane when one is given."""
    X, x2, K = rows
    k = As[0].shape[0]
    A = np.vstack(As)
    if K is None:
        C, Pt = np.empty((A.shape[0], X.shape[1])), np.empty((X.shape[0], A.shape[0]))

        def block(a, b):
            np.matmul(A[a:b], X, out=C[a:b])
            np.matmul(X, C[a:b].T, out=Pt[:, a:b])

        halves(lane, block, A.shape[0])
        P, c2 = Pt.T, np.sum(C * C, axis=1)
    else:
        P = np.empty((A.shape[0], K.shape[1]))
        halves(lane, lambda a, b: np.matmul(A[a:b], K, out=P[a:b]), A.shape[0])
        c2 = np.sum(A * P, axis=1)
    for j in range(0, A.shape[0], k):  # P[j, i] = c_j . x_i
        yield _dists(x2, P[j : j + k].T, c2[j : j + k])


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


class _Restart:
    """The state of one K-means restart: row weights A, assignments and the
    rows' squared distances to their centroids."""

    def __init__(self, rows: _Rows, k: int, seed: int):
        n = rows.X.shape[0]
        self.ids = np.arange(n)
        self.A = (_plusplus_init(rows, k, stream(seed))[:, None] == self.ids).astype(np.float64)
        self.assignments = np.full(n, -1, dtype=np.int64)
        self.point_d2 = np.zeros(n)
        self.iterations = 0

    def step(self, d2: np.ndarray) -> bool:
        """One Lloyd round from the distances to the current centroids; True
        when the assignments did not change (the restart has converged)."""
        ids, k = self.ids, self.A.shape[0]
        new_assign = np.argmin(d2, axis=1)
        point_d2 = d2[ids, new_assign]
        counts = np.bincount(new_assign, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            # the farthest row whose cluster keeps another member (a row taken
            # earlier in this round sits alone in its new cluster: it stays)
            farthest = int(np.argmax(np.where(counts[new_assign] > 1, point_d2, -1.0)))
            counts[new_assign[farthest]] -= 1
            counts[empty] = 1
            new_assign[farthest] = empty
            point_d2[farthest] = 0.0
        self.point_d2 = point_d2
        if np.array_equal(new_assign, self.assignments):
            return True
        self.assignments = new_assign
        self.iterations += 1
        onehot = np.arange(k)[:, None] == new_assign
        self.A = onehot / onehot.sum(axis=1)[:, None]
        return False

    def settle(self, d2: np.ndarray) -> None:
        """Out of iterations: make the reported state self-consistent."""
        self.assignments = np.argmin(d2, axis=1)
        self.point_d2 = d2[self.ids, self.assignments]


def kmeans(rows: _Rows, k: int, seeds: list, lane=None) -> list:
    """One K-means restart per seed, run in lockstep for at most MAX_ITERS
    rounds: each round forms the distances of every restart still running
    from one shared product (see `_centroid_dists`, which takes the lane);
    seeding, repair and convergence stay per restart. Returns the final
    restart states: a restart's centroids are A X, its inertia
    point_d2.sum(), its rounds `iterations`.

    An empty cluster takes the point farthest from its centroid among those
    whose cluster keeps another member, so every cluster id stays populated.
    """
    n = rows.X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    if not seeds:
        raise ValueError("restarts must be >= 1, got 0")
    restarts = [_Restart(rows, k, seed) for seed in seeds]
    running = restarts
    for _ in range(MAX_ITERS):
        dists = _centroid_dists(rows, [r.A for r in running], lane)
        running = [r for r, d2 in zip(running, dists) if not r.step(d2)]
        if not running:
            break
    else:
        for r, d2 in zip(running, _centroid_dists(rows, [r.A for r in running], lane)):
            r.settle(d2)
    return restarts


def restart_scores(X: np.ndarray, labels: np.ndarray, restarts: int, seed: int, lane=None) -> tuple:
    """K-means the rows of X `restarts` times, with k the number of distinct
    labels and restart r seeded child_seed(seed, 20_000 + r): each restart's
    NMI and pairwise F against the labels, and the first restart's assignments.
    The lane, when given, runs the second block of the Gram and of each
    Lloyd round's product."""
    k = int(np.unique(labels).size)
    seeds = [child_seed(seed, 20_000 + r) for r in range(restarts)]
    # with n <= width the n x n Gram is no larger than X (8n^2 bytes), and each
    # Lloyd round reads it once instead of reading X twice
    rows = _Rows(X, np.sum(X * X, axis=1), gram_product(X, lane) if X.shape[0] <= X.shape[1] else None)
    assignments = [r.assignments for r in kmeans(rows, k, seeds, lane)]
    nmi_values = np.array([nmi(labels, a) for a in assignments])
    f_values = np.array([pairwise_f(labels, a) for a in assignments])
    return nmi_values, f_values, assignments[0]


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
    source: str = "rff",
    standardize: bool = True,
) -> ClusteringResult:
    """Train the representation, embed, and K-means with restart averaging.

    k is the number of distinct ground-truth labels, which must be present.
    The reconstruction auxiliary loss is on by default and removed by
    config.use_aux_loss = False; config.use_pair_loss = False keeps only the
    reconstruction loss. Reported NMI/F statistics are mean and population
    std over restarts.
    """
    if data.labels is None:
        raise ValueError("clustering evaluation needs ground-truth labels")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if config is None:
        config = TrainConfig.clustering_defaults()
    if config.task != "clustering":
        raise ValueError(f"clustering pipeline needs task='clustering', got {config.task!r}")

    X = data.features
    if standardize:
        X = standardize_dataset(data)[0].features

    mapping = build_map(source, config.m, X, child_seed(config.seed, 10_000))

    with spare_lane() as lane:  # one lane for the whole run (see the module docstring)
        t0 = time.perf_counter()
        model, trace = train(X, config, mapping, lane)
        H = embed(model, X, lane)
        t1 = time.perf_counter()
        nmi_values, f_values, assignments = restart_scores(H, data.labels, restarts, config.seed, lane)
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
        assignments=assignments,
        train_seconds=t1 - t0,
        cluster_seconds=time.perf_counter() - t1,
    )
