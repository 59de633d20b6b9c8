"""Frozen random mappings that supply supervisory inner products.

Three constructions are available, one per pipeline source:

* Sparse random projection: entries +/- sqrt(1/(density*K)) with
  probability density/2 each, 0 otherwise (very-sparse scheme, density
  1/sqrt(D)); inner products are unbiased.
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

SPARSE_RP = "sparse_rp"
RFF = "rff"
IDENTITY = "identity"
KINDS = (SPARSE_RP, RFF, IDENTITY)


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


def sparse_rp(d: int, k: int, seed: int = 0) -> RandomMap:
    """Signed sparse projection at density 1/sqrt(d), with scaling baked into the entries."""
    _check_dims(d, k)
    density = 1.0 / math.sqrt(d)
    value = math.sqrt(1.0 / (density * k))
    u = stream(seed).random((k, d))
    weights = np.where(u < density / 2.0, value, np.where(u < density, -value, 0.0))
    return RandomMap(
        kind=SPARSE_RP, in_dim=d, out_dim=k, seed=seed, weights=weights, density=density
    )


MAX_BANDWIDTH_POINTS = 1000  # median_bandwidth subsamples larger inputs


def median_bandwidth(X: np.ndarray, seed: int = 0) -> float:
    """Median of pairwise distances over a uniform subsample of <= MAX_BANDWIDTH_POINTS
    rows. Raises ValueError when X holds a nan or an inf, subsampled or not."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.size and not (np.isfinite(X.min()) and np.isfinite(X.max())):
        raise ValueError("median_bandwidth needs finite rows, got a nan or an inf")
    n = X.shape[0]
    if n > MAX_BANDWIDTH_POINTS:
        idx = stream(seed).choice(n, size=MAX_BANDWIDTH_POINTS, replace=False)
        X = X[idx]
        n = MAX_BANDWIDTH_POINTS
    if n < 2:
        return 1.0
    sq = np.sum(X * X, axis=1)
    G = X @ X.T
    del X  # a subsample's copy is not needed beside G
    G *= 2.0
    # the pairs i < j in row-major order, (sq_i + sq_j) - 2G_ij, packed into G's own buffer:
    # row i's end at flat position (i+1)(n-1) - i(i+1)/2 <= (i+1)n, so no write reaches a
    # row not yet read, and row i itself is read into `row` before its write
    d2 = G.reshape(-1)
    pos = 0
    for i in range(n - 1):
        row = sq[i] + sq[i + 1:]
        row -= G[i, i + 1:]
        d2[pos:pos + row.size] = row
        pos += row.size
    d2 = d2[:pos]
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
    elif mapping.kind == SPARSE_RP:
        out = dot(X, mapping.weights)
    elif mapping.kind == RFF:
        out = math.sqrt(2.0 / mapping.out_dim) * np.cos(dot(X, mapping.weights) + mapping.offsets)
    else:
        raise ValueError(f"unknown mapping kind {mapping.kind!r}")
    return out
