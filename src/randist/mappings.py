"""Frozen random mappings that supply supervisory inner products.

Four constructions are available:

* Gaussian random projection: x -> (1/sqrt(K)) A x with A_ij ~ N(0, 1),
  which preserves norms and inner products in the Johnson-Lindenstrauss
  sense. Library-only: no pipeline source selects it.
* Sparse random projection: entries +/- sqrt(1/(density*K)) with
  probability density/2 each, 0 otherwise (very-sparse scheme, default
  density 1/sqrt(D)); inner products are unbiased.
* Random Fourier features: x -> sqrt(2/K) cos(W x + b) with
  W_ij ~ N(0, 1/sigma^2) and b ~ U[0, 2pi); dot products are unbiased
  estimates of the Gaussian RBF kernel exp(-||x-y||^2 / (2 sigma^2)).
* Identity: supervisory dots are the raw Gram entries.

A mapping is frozen at construction; `apply` is pure and thread-safe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rng import child_seed, stream

GAUSSIAN_RP = "gaussian_rp"
SPARSE_RP = "sparse_rp"
RFF = "rff"
IDENTITY = "identity"
KINDS = (GAUSSIAN_RP, SPARSE_RP, RFF, IDENTITY)


@dataclass(frozen=True)
class RandomMap:
    kind: str
    in_dim: int
    out_dim: int
    seed: int
    weights: Optional[np.ndarray] = None  # K x D, absent for identity
    offsets: Optional[np.ndarray] = None  # length K, rff only
    bandwidth: Optional[float] = None  # rff only
    density: Optional[float] = None  # sparse_rp only


def _check_dims(d: int, k: int) -> None:
    if d < 1 or k < 1:
        raise ValueError(f"dimensions must be positive, got d={d}, k={k}")


def gaussian_rp(d: int, k: int, seed: int = 0) -> RandomMap:
    """Dense Gaussian projection; application scales by 1/sqrt(k)."""
    _check_dims(d, k)
    weights = stream(seed).standard_normal((k, d))
    return RandomMap(kind=GAUSSIAN_RP, in_dim=d, out_dim=k, seed=seed, weights=weights)


def sparse_rp(d: int, k: int, density: Optional[float] = None, seed: int = 0) -> RandomMap:
    """Signed sparse projection with scaling baked into the entries."""
    _check_dims(d, k)
    if density is None:
        density = 1.0 / math.sqrt(d)
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    value = math.sqrt(1.0 / (density * k))
    u = stream(seed).random((k, d))
    weights = np.where(u < density / 2.0, value, np.where(u < density, -value, 0.0))
    return RandomMap(
        kind=SPARSE_RP, in_dim=d, out_dim=k, seed=seed, weights=weights, density=density
    )


MAX_BANDWIDTH_POINTS = 1000  # median_bandwidth subsamples larger inputs
BANDWIDTH_BLOCK = 128  # rows of squared distances median_bandwidth forms at a time


def median_bandwidth(X: np.ndarray, max_points: int = MAX_BANDWIDTH_POINTS, seed: int = 0) -> float:
    """Median of pairwise distances over a uniform subsample of <= max_points rows.
    Raises ValueError when X holds a nan or an inf, subsampled or not."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if not np.isfinite(X).all():
        raise ValueError("median_bandwidth needs finite rows, got a nan or an inf")
    n = X.shape[0]
    if n > max_points:
        idx = stream(seed).choice(n, size=max_points, replace=False)
        X = X[idx]
        n = max_points
    if n < 2:
        return 1.0
    sq = np.sum(X * X, axis=1)
    G = X @ X.T
    G *= 2.0
    # the pairs i < j in row-major order, (sq_i + sq_j) - 2G_ij, a block of
    # rows at a time: no n x n distance matrix or mask
    d2 = np.empty(n * (n - 1) // 2)
    cols = np.arange(n)
    pos = 0
    for lo in range(0, n - 1, BANDWIDTH_BLOCK):
        hi = min(lo + BANDWIDTH_BLOCK, n - 1)
        block = sq[lo:hi, None] + sq[lo + 1:]
        block -= G[lo:hi, lo + 1:]
        upper = block[cols[lo:hi, None] < cols[lo + 1:]]
        d2[pos:pos + upper.size] = upper
        pos += upper.size
    # np.median's middle one or two, selected on the squared distances: sqrt
    # is monotone, so only they need it.
    half = d2.size // 2
    d2.partition(half)
    mid = d2[half:half + 1] if d2.size % 2 else np.array([d2[:half].max(), d2[half]])
    med = float(np.mean(np.sqrt(np.maximum(mid, 0.0))))
    return med if med > 0.0 else 1.0


def rff(
    d: int,
    k: int,
    bandwidth: Optional[float] = None,
    data: Optional[np.ndarray] = None,
    seed: int = 0,
) -> RandomMap:
    """Random Fourier features for the RBF kernel at the given bandwidth.

    When `bandwidth` is omitted it is set by the median heuristic on
    `data` (which must then be provided).
    """
    _check_dims(d, k)
    if bandwidth is None:
        if data is None:
            raise ValueError("rff needs an explicit bandwidth or data for the median heuristic")
        bandwidth = median_bandwidth(data, seed=child_seed(seed, 1))
    if not (bandwidth > 0 and math.isfinite(bandwidth)):
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    rng = stream(seed)
    weights = rng.standard_normal((k, d)) / bandwidth
    offsets = rng.uniform(0.0, 2.0 * math.pi, size=k)
    return RandomMap(
        kind=RFF,
        in_dim=d,
        out_dim=k,
        seed=seed,
        weights=weights,
        offsets=offsets,
        bandwidth=float(bandwidth),
    )


def identity_map(d: int) -> RandomMap:
    if d < 1:
        raise ValueError(f"dimension must be positive, got d={d}")
    return RandomMap(kind=IDENTITY, in_dim=d, out_dim=d, seed=0)


def row_products(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """X @ W.T with one vector-matrix product per row, so that a row's bits do
    not depend on the batch it sits in (BLAS blocks X @ W.T over the rows)."""
    return (np.ascontiguousarray(X)[:, None, :] @ W.T)[:, 0, :]


def apply(mapping: RandomMap, X: np.ndarray, rowwise: bool = False) -> np.ndarray:
    """Map the rows of matrix X through the frozen projection;
    rowwise=True makes each output row independent of the others (row_products)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != mapping.in_dim:
        raise ValueError(f"input must be a matrix with {mapping.in_dim} columns, got shape {X.shape}")
    dot = row_products if rowwise else (lambda A, W: A @ W.T)
    if mapping.kind == IDENTITY:
        out = X
    elif mapping.kind == GAUSSIAN_RP:
        out = dot(X, mapping.weights) / math.sqrt(mapping.out_dim)
    elif mapping.kind == SPARSE_RP:
        out = dot(X, mapping.weights)
    elif mapping.kind == RFF:
        out = math.sqrt(2.0 / mapping.out_dim) * np.cos(dot(X, mapping.weights) + mapping.offsets)
    else:
        raise ValueError(f"unknown mapping kind {mapping.kind!r}")
    return out
