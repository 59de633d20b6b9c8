"""Loss evaluators shared by training and tests.

Conventions, applied identically here, in the training gradients and in
anomaly scoring:

* pair loss: raw squared error between the embedded dot product and the
  supervisory dot product;
* reconstruction loss: squared error between the input and its decoded
  reconstruction, averaged over the D input coordinates;
* novelty loss: squared error between the embedding and the mapped input,
  averaged over the K coordinates (this is also the anomaly score).

Both auxiliary losses are coordinate means. Summing instead of averaging
makes the gradient scale with the data dimension, which breaks the fixed
0.1 learning rate as soon as columns are correlated.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mappings import apply


@dataclass
class PairBatch:
    """Index pairs into a data matrix plus their supervisory targets."""

    i: np.ndarray
    j: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.i = np.asarray(self.i, dtype=np.int64)
        self.j = np.asarray(self.j, dtype=np.int64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if not (self.i.shape == self.j.shape == self.y.shape) or self.i.ndim != 1:
            raise ValueError("i, j and y must be 1-D arrays of equal length")
        if self.i.size == 0:
            raise ValueError("empty pair batch")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("pair targets must be finite")

    def __len__(self) -> int:
        return self.i.size


def distance_prediction_loss(model, x_i, x_j, y_ij: float) -> float:
    """Squared error between the learned and the supervisory dot product."""
    return float((np.dot(model.forward(x_i), model.forward(x_j)) - y_ij) ** 2)


def reconstruction_loss(model, x) -> float:
    """Mean squared reconstruction error through the decoder."""
    res = np.asarray(x, dtype=np.float64) - model.decode(model.forward(x))
    return float(np.mean(res * res))


def novelty_rows(model, X) -> np.ndarray:
    """Novelty of each row of an N x D matrix: the one scoring code path. A row's
    value is bit-identical whatever batch it sits in (see mappings.row_products)."""
    if model.m != model.random_map.out_dim:
        raise ValueError(
            f"novelty loss needs m == mapping out_dim, got {model.m} vs {model.random_map.out_dim}"
        )
    X = np.asarray(X, dtype=np.float64)
    res = model.forward_batch(X, rowwise=True) - apply(model.random_map, X, rowwise=True)
    return np.mean(res * res, axis=1)


def novelty_loss(model, x) -> float:
    """Mean squared deviation of the embedding from the mapped input."""
    return float(novelty_rows(model, np.asarray(x, dtype=np.float64)[None, ...])[0])


def batch_objective(model, X, batch: PairBatch, config) -> float:
    """Mean pair loss plus aux_weight times the mean per-point auxiliary loss.

    The auxiliary term averages over the distinct points of the batch, not
    over pairs, so its weight does not depend on the pairing scheme.
    """
    if not (config.use_pair_loss or config.use_aux_loss):
        raise ValueError("no loss enabled")
    X = np.asarray(X, dtype=np.float64)
    total = 0.0
    if config.use_pair_loss:
        pair_losses = [
            distance_prediction_loss(model, X[i], X[j], y)
            for i, j, y in zip(batch.i, batch.j, batch.y)
        ]
        total += float(np.mean(pair_losses))
    if config.use_aux_loss:
        point_loss = novelty_loss if config.task == "anomaly" else reconstruction_loss
        distinct = np.unique(np.concatenate([batch.i, batch.j]))
        total += config.aux_weight * float(np.mean([point_loss(model, X[p]) for p in distinct]))
    return total
