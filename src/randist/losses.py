"""Novelty scoring, and the loss conventions of the training objective.

`encoder.grad_batch` is the one implementation of the objective and its
gradients; this module holds the novelty evaluator that anomaly scoring
uses. The conventions, applied identically in both:

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

import numpy as np

from .mappings import apply


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

