"""Independent brute-force oracles used to check the fast implementations.

Everything here is deliberately naive: plain Python loops over pairs,
ranks and contingency cells, a pair-by-pair objective and gradient, and
central finite differences for gradients. None of it shares code with the
package, except `pairwise_target`, which reads a frozen mapping through the
package's `apply`. `gaussian_projection` is the dense Gaussian map, which no
pipeline ships: `jl_audit` checks it against the Johnson-Lindenstrauss bound,
next to the shipped sparse map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from randist.mappings import apply


def auc_roc_bruteforce(scores, labels) -> float:
    scores = list(map(float, scores))
    labels = list(map(int, labels))
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def auc_pr_bruteforce(scores, labels) -> float:
    # walk ranks in descending score order, stable on ties
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    seen = 0
    hits = 0
    precision_sum = 0.0
    for idx in order:
        seen += 1
        if labels[idx] == 1:
            hits += 1
            precision_sum += hits / seen
    return precision_sum / hits


def contingency(a, b):
    table = {}
    for x, y in zip(a, b):
        table[(x, y)] = table.get((x, y), 0) + 1
    return table


def nmi_bruteforce(a, b) -> float:
    n = len(a)
    table = contingency(a, b)
    row, col = {}, {}
    for (x, y), c in table.items():
        row[x] = row.get(x, 0) + c
        col[y] = col.get(y, 0) + c
    h_a = -sum(c / n * math.log(c / n) for c in row.values())
    h_b = -sum(c / n * math.log(c / n) for c in col.values())
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    if h_a == 0.0 or h_b == 0.0:
        return 0.0
    mi = sum(
        c / n * math.log(n * c / (row[x] * col[y])) for (x, y), c in table.items()
    )
    return min(1.0, max(0.0, mi / math.sqrt(h_a * h_b)))


def pairwise_f_bruteforce(a, b) -> float:
    n = len(a)
    tp = pred = true = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            true += same_a
            pred += same_b
            tp += same_a and same_b
    if true == 0 and pred == 0:
        return 1.0
    precision = tp / pred if pred else 0.0
    recall = tp / true if true else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def roc_trapezoid(scores, labels) -> float:
    """Area under the ROC curve by trapezoidal integration over thresholds."""
    thresholds = sorted(set(scores), reverse=True)
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    points = [(0.0, 0.0)]
    for t in thresholds:
        tp = sum(1 for s, l in zip(scores, labels) if s >= t and l == 1)
        fp = sum(1 for s, l in zip(scores, labels) if s >= t and l == 0)
        points.append((fp / n_neg, tp / n_pos))
    points.append((1.0, 1.0))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def flatten_params(model) -> np.ndarray:
    parts = [model.w.ravel(), model.b.ravel()]
    if model.decoder_w is not None:
        parts += [model.decoder_w.ravel(), model.decoder_b.ravel()]
    return np.concatenate([p.copy() for p in parts])


def set_params(model, theta: np.ndarray) -> None:
    pos = 0
    for name in ("w", "b", "decoder_w", "decoder_b"):
        a = getattr(model, name)
        if a is None:
            continue
        setattr(model, name, theta[pos : pos + a.size].reshape(a.shape).copy())
        pos += a.size


def fd_gradient(objective, model, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of `objective(model)` over all parameters."""
    theta = flatten_params(model)
    grad = np.empty_like(theta)
    for p in range(theta.size):
        up = theta.copy()
        up[p] += h
        set_params(model, up)
        f_up = objective(model)
        down = theta.copy()
        down[p] -= h
        set_params(model, down)
        f_down = objective(model)
        grad[p] = (f_up - f_down) / (2.0 * h)
    set_params(model, theta)
    return grad


def kmeans_loop(X, k: int, max_iters: int = 300, seed: int = 0):
    """Greedy k-means++ and Lloyd's iterations, one candidate and one cluster at a time.

    The package's K-means before it batched the seeding candidates and the
    centroid update; returns (assignments, inertia).
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    x2 = np.sum(X * X, axis=1)

    def sq_dists(C):
        return np.maximum(x2[:, None] + np.sum(C * C, axis=1)[None, :] - 2.0 * (X @ C.T), 0.0)

    rng = np.random.default_rng(seed)
    trials = 2 + int(math.log(k)) if k > 1 else 1
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(0, n)]
    closest = sq_dists(centroids[:1]).ravel()
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            candidates = rng.integers(0, n, size=trials)
        else:
            candidates = rng.choice(n, size=trials, p=closest / total)
        best_pick, best_closest, best_total = None, None, np.inf
        for pick in candidates:
            cand_closest = np.minimum(closest, sq_dists(X[pick : pick + 1]).ravel())
            cand_total = cand_closest.sum()
            if cand_total < best_total:
                best_pick, best_closest, best_total = pick, cand_closest, cand_total
        centroids[c] = X[best_pick]
        closest = best_closest

    assignments = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        d2 = sq_dists(centroids)
        new_assign = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(n), new_assign]
        for empty in np.setdiff1d(np.arange(k), new_assign):
            farthest = int(np.argmax(point_d2))
            centroids[empty] = X[farthest]
            new_assign[farthest] = empty
            point_d2[farthest] = 0.0
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for c in range(k):
            centroids[c] = X[assignments == c].mean(axis=0)
    else:
        d2 = sq_dists(centroids)
        assignments = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(n), assignments]
    return assignments, float(point_d2.sum())


def median_bandwidth_reference(X, max_points: int = 1000, seed: int = 0) -> float:
    """The median heuristic the package must equal bit for bit: the whole n x n
    matrix of (sq_i + sq_j) - 2 G_ij from one X @ X.T, the pairs i < j through
    triu_indices, then np.median. The package packs the same pairs into its
    Gram's buffer and selects the middle ones with a partition."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = X.shape[0]
    if n > max_points:
        idx = np.random.default_rng(seed).choice(n, size=max_points, replace=False)
        X = X[idx]
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    iu = np.triu_indices(X.shape[0], k=1)
    if iu[0].size == 0:
        return 1.0
    med = float(np.median(np.sqrt(np.maximum(d2[iu], 0.0))))
    return med if med > 0.0 else 1.0


def _loop_embed(model, x):
    z = model.w @ x + model.b
    return np.where(z > 0, z, model.leaky_slope * z), np.where(z > 0, 1.0, model.leaky_slope)


def forward(model, x) -> np.ndarray:
    """The embedding of one row, for comparisons with `forward_batch`."""
    return _loop_embed(model, np.asarray(x, dtype=np.float64))[0]


def batch_objective_loop(model, X, targets, config) -> tuple:
    """(total, pair, aux) of one batch by plain loops over all ordered pairs of
    its rows, self-pairs included; `targets` are the mapped rows of X."""
    nb = len(X)
    H = [_loop_embed(model, x)[0] for x in X]
    pair = aux = 0.0
    if config.use_pair_loss:
        for i in range(nb):
            for j in range(nb):
                pair += (float(H[i] @ H[j]) - float(targets[i] @ targets[j])) ** 2
        pair /= nb * nb
    if config.use_aux_loss:
        for i in range(nb):
            if config.task == "anomaly":
                res = H[i] - targets[i]
            else:
                res = model.decoder_w @ H[i] + model.decoder_b - X[i]
            aux += float(np.mean(res * res))
        aux /= nb
    return pair + config.aux_weight * aux, pair, aux


def batch_gradient_loop(model, X, targets, config) -> np.ndarray:
    """Analytic gradient of batch_objective_loop's total, pair by pair and row
    by row, flattened in flatten_params order."""
    nb, lam = len(X), config.aux_weight
    rows = [_loop_embed(model, x) for x in X]
    dH = [np.zeros(model.w.shape[0]) for _ in range(nb)]
    dw, db = np.zeros_like(model.w), np.zeros_like(model.b)
    parts = [dw, db]
    if model.decoder_w is not None:
        parts += [np.zeros_like(model.decoder_w), np.zeros_like(model.decoder_b)]
    if config.use_pair_loss:
        for i in range(nb):
            for j in range(nb):
                r = float(rows[i][0] @ rows[j][0]) - float(targets[i] @ targets[j])
                dH[i] += (2.0 * r / (nb * nb)) * rows[j][0]
                dH[j] += (2.0 * r / (nb * nb)) * rows[i][0]
    if config.use_aux_loss and config.task == "anomaly":
        for i in range(nb):
            dH[i] += (2.0 * lam / (len(targets[i]) * nb)) * (rows[i][0] - targets[i])
    elif config.use_aux_loss:
        ddw, ddb = parts[2], parts[3]
        for i in range(nb):
            res = model.decoder_w @ rows[i][0] + model.decoder_b - X[i]
            coef = 2.0 * lam / (len(X[i]) * nb)
            ddw += coef * np.outer(res, rows[i][0])
            ddb += coef * res
            dH[i] += coef * (model.decoder_w.T @ res)
    for i in range(nb):
        dz = dH[i] * rows[i][1]
        dw += np.outer(dz, X[i])
        db += dz
    return np.concatenate([p.ravel() for p in parts])


def rbf_kernel(x, y, sigma: float) -> float:
    """exp(-||x-y||^2 / (2 sigma^2)); the kernel the rff mapping approximates."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    diff = x - y
    return float(np.exp(-np.dot(diff, diff) / (2.0 * sigma * sigma)))


def pairwise_target(mapping, x_i, x_j) -> float:
    """Supervisory label for a pair: the dot product of the mapped vectors."""
    return float(np.dot(apply(mapping, x_i[None, :])[0], apply(mapping, x_j[None, :])[0]))


@dataclass(frozen=True)
class JlAudit:
    epsilon: float
    sample_pairs: int
    violation_rate: float
    bound: float


def gaussian_projection(X, k: int, seed: int = 0) -> np.ndarray:
    """X @ W.T / sqrt(k) with W_ij ~ N(0, 1), a k x d matrix drawn from
    default_rng(seed): the dense Gaussian random projection."""
    X = np.asarray(X, dtype=np.float64)
    W = np.random.default_rng(seed).standard_normal((k, X.shape[1]))
    return X @ W.T / math.sqrt(k)


def jl_audit(X, project, epsilon: float, n_pairs: int = 2000, seed: int = 0) -> JlAudit:
    """How often the projection `project` (rows of a matrix in, rows out)
    moves a sampled pair's inner product by >= epsilon.

    Rows are rescaled by the largest row norm so every vector has norm <= 1
    (the preservation guarantee is stated for such vectors), then projected.
    The reported bound is the Gaussian projection's, 4 exp(-(eps^2-eps^3) K / 4)
    at the projected width K.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must be in (0, 0.5), got {epsilon}")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    max_norm = float(np.max(np.linalg.norm(X, axis=1)))
    Xh = X / max_norm if max_norm > 0 else X
    P = project(Xh)
    rng = np.random.default_rng(seed)
    i = rng.integers(0, Xh.shape[0], size=n_pairs)
    j = rng.integers(0, Xh.shape[0], size=n_pairs)
    orig = np.sum(Xh[i] * Xh[j], axis=1)
    proj = np.sum(P[i] * P[j], axis=1)
    violation_rate = float(np.mean(np.abs(orig - proj) >= epsilon))
    bound = 4.0 * math.exp(-(epsilon**2 - epsilon**3) * P.shape[1] / 4.0)
    return JlAudit(epsilon=epsilon, sample_pairs=n_pairs, violation_rate=violation_rate, bound=bound)
