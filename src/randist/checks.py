"""Fast self-contained invariant checks behind the `selftest` subcommand.

Each check returns (name, ok, detail). They are smaller cousins of the
full test suite, meant to catch a broken build in seconds.
"""
from __future__ import annotations

import os
import tempfile

import numpy as np

from .data import Dataset, standardize, synth_blobs, unstandardize
from .encoder import TrainConfig, grad_batch, init_model
from .mappings import apply, gaussian_rp, identity_map, pairwise_target, rbf_kernel, rff
from .metrics import auc_pr, auc_roc, nmi, pairwise_f
from .clustering import kmeans
from .persist import load_model, save_model


def _flatten_params(model):
    parts = [model.w.ravel(), model.b.ravel()]
    if model.has_decoder:
        parts += [model.decoder_w.ravel(), model.decoder_b.ravel()]
    return np.concatenate(parts)


def _set_params(model, theta):
    pos = 0
    for name in ("w", "b", "decoder_w", "decoder_b"):
        a = getattr(model, name)
        if a is None:
            continue
        setattr(model, name, theta[pos : pos + a.size].reshape(a.shape).copy())
        pos += a.size


def check_gradients() -> tuple:
    rng = np.random.default_rng(11)
    X = rng.standard_normal((6, 4))
    mapping = gaussian_rp(4, 3, seed=5)
    worst = 0.0
    # 6 rows > m = k = 3 take the m x m form of the pair term, 3 rows the nb x nb form
    for task, use_aux, n in (
        ("anomaly", False, 6), ("anomaly", True, 6), ("clustering", True, 6), ("clustering", True, 3)
    ):
        config = TrainConfig(m=3, epochs=1, task=task, batch_size=4, use_aux_loss=use_aux, seed=3)
        model = init_model(4, 3, config, mapping, seed=7)
        Xb, targets = X[:n], apply(mapping, X[:n])
        grads, _ = grad_batch(model, Xb, targets, config)
        analytic = [grads.dw.ravel(), grads.db.ravel()]
        if model.has_decoder:
            analytic += [grads.ddecoder_w.ravel(), grads.ddecoder_b.ravel()]
        analytic = np.concatenate(analytic)
        theta = _flatten_params(model)
        h = 1e-5
        numeric = np.empty_like(theta)
        for p in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[p] += h
            down[p] -= h
            _set_params(model, up)
            f_up = grad_batch(model, Xb, targets, config)[1][0]
            _set_params(model, down)
            f_down = grad_batch(model, Xb, targets, config)[1][0]
            numeric[p] = (f_up - f_down) / (2 * h)
        _set_params(model, theta)
        scale = max(1.0, float(np.max(np.abs(numeric))))
        worst = max(worst, float(np.max(np.abs(analytic - numeric))) / scale)
    return "gradients-match-finite-differences", worst < 1e-4, f"max rel err {worst:.2e}"


def check_standardize_roundtrip() -> tuple:
    rng = np.random.default_rng(2)
    X = rng.normal(3.0, 5.0, size=(40, 6))
    X[:, 2] = 7.25
    data = Dataset(X)
    std, params = standardize(data)
    back = unstandardize(std, params)
    err = float(np.max(np.abs(back.features - X)))
    return "standardize-roundtrip", err < 1e-9, f"max abs err {err:.2e}"


def check_metric_oracles() -> tuple:
    ok = True
    details = []
    got = auc_roc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0])
    ok &= abs(got - 0.75) < 1e-12
    details.append(f"auc_roc {got}")
    got = auc_pr([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0])
    ok &= abs(got - 5.0 / 6.0) < 1e-12
    details.append(f"auc_pr {got}")
    ok &= nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0
    ok &= nmi([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    got = pairwise_f([0, 0, 1, 1], [0, 1, 1, 1])
    ok &= abs(got - 0.4) < 1e-12
    details.append(f"pairwise_f {got}")
    return "metric-spot-oracles", bool(ok), "; ".join(details)


def check_mapping() -> tuple:
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal(8), rng.standard_normal(8)
    mapping = rff(8, 2048, bandwidth=2.0, seed=9)
    approx = pairwise_target(mapping, x, y)
    exact = rbf_kernel(x, y, 2.0)
    err = abs(approx - exact)
    same = np.array_equal(apply(mapping, x), apply(rff(8, 2048, bandwidth=2.0, seed=9), x))
    ident = np.array_equal(apply(identity_map(3), np.eye(3)), np.eye(3))
    ok = err < 0.1 and same and ident
    return "random-mapping", ok, f"rff kernel err {err:.3f}, deterministic {same}"


def check_persist_roundtrip() -> tuple:
    mapping = rff(5, 4, bandwidth=1.5, seed=3)
    config = TrainConfig(m=4, epochs=1, task="anomaly", batch_size=2, seed=0)
    model = init_model(5, 4, config, mapping, seed=12)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10, 5))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.rdst")
        save_model(path, model)
        loaded = load_model(path)
    ok = all(np.array_equal(model.forward(r), loaded.forward(r)) for r in X)
    return "model-file-roundtrip", ok, "forward outputs bit-identical"


def check_kmeans() -> tuple:
    X = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [9.0, 9.0]])
    result = kmeans(X, 2, seed=1)
    ok = result.inertia == 0.0 and result.assignments[0] != result.assignments[2]
    blobs = synth_blobs(3, 20, 4, seed=5)
    r2 = kmeans(blobs.features, 3, seed=2)
    ok = ok and nmi(blobs.labels, r2.assignments) > 0.99
    return "kmeans", bool(ok), f"inertia {result.inertia}"


ALL_CHECKS = (
    check_standardize_roundtrip,
    check_mapping,
    check_gradients,
    check_metric_oracles,
    check_kmeans,
    check_persist_roundtrip,
)


def run_selftest(emit=print) -> bool:
    all_ok = True
    for check in ALL_CHECKS:
        name, ok, detail = check()
        all_ok &= ok
        emit(f"selftest {name}: {'ok' if ok else 'FAIL'} ({detail})")
    return bool(all_ok)
