"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The expensive end-to-end runs are shared between
criteria through module-scoped fixtures.
"""
import os
import time

import numpy as np
import pytest

from randist.anomaly import BoostConfig, run_anomaly
from randist.clustering import run_clustering
from randist.data import load_csv, synth_anomaly, synth_blobs
from randist.encoder import TrainConfig, grad_batch, init_model
from randist.mappings import apply, median_bandwidth, rff, sparse_rp
from randist.metrics import auc_pr, auc_roc, nmi, pairwise_f
from randist.report import format_report
from randist.rng import stream

from oracles import (
    auc_pr_bruteforce,
    auc_roc_bruteforce,
    batch_objective_loop,
    fd_gradient,
    gaussian_projection,
    jl_audit,
    nmi_bruteforce,
    pairwise_f_bruteforce,
    pairwise_target,
    rbf_kernel,
)


def _report_line(cid, ok, detail):
    print(f"\n[acceptance] criterion {cid}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {cid}: {detail}"


ANOMALY_SEED = 11
ANOMALY_DATA_SEED = 7
CLUSTER_SEED = 9


def _anomaly_config(**train):
    return BoostConfig(
        train=TrainConfig.anomaly_defaults(seed=ANOMALY_SEED, **train),
        members=10,
        filter_fraction=0.05,
        filter_rounds=1,
        source="rff",
    )


@pytest.fixture(scope="module")
def anomaly_runs():
    data = synth_anomaly(950, 50, 16, seed=ANOMALY_DATA_SEED)
    t0 = time.perf_counter()
    full = run_anomaly(data, _anomaly_config())
    no_pair = run_anomaly(data, _anomaly_config(use_pair_loss=False))
    no_aux = run_anomaly(data, _anomaly_config(use_aux_loss=False))
    elapsed = time.perf_counter() - t0
    return {"data": data, "full": full, "no_pair": no_pair, "no_aux": no_aux, "seconds": elapsed}


@pytest.fixture(scope="module")
def clustering_run():
    data = synth_blobs(4, 100, 32, seed=5)
    cfg = TrainConfig.clustering_defaults(m=64, seed=CLUSTER_SEED)
    t0 = time.perf_counter()
    result = run_clustering(data, cfg, restarts=10, source="rff")
    elapsed = time.perf_counter() - t0
    return {"data": data, "result": result, "config": cfg, "seconds": elapsed}


def _anomaly_report(result):
    return format_report(
        {
            "metrics.auc_roc": result.auc_roc,
            "metrics.auc_pr": result.auc_pr,
            "scores.sum": float(result.scores.sum()),
            "scores.first": float(result.scores[0]),
            "scores.last": float(result.scores[-1]),
        }
    )


def _clustering_report(result):
    return format_report(
        {
            "metrics.nmi_mean": result.nmi_mean,
            "metrics.nmi_std": result.nmi_std,
            "metrics.f_mean": result.f_mean,
            "metrics.f_std": result.f_std,
        }
    )


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    n, d, m = 8, 5, 4
    worst = 0.0
    configs = [
        dict(task="anomaly", use_pair_loss=True, use_aux_loss=False),
        dict(task="anomaly", use_pair_loss=True, use_aux_loss=True),
        dict(task="clustering", use_pair_loss=True, use_aux_loss=True),
    ]
    for seed in range(20):
        rng = stream(1000 + seed)
        X = rng.standard_normal((n, d))
        mapping = sparse_rp(d, m, seed=seed)
        targets = apply(mapping, X)
        for kw in configs:
            config = TrainConfig(m=m, epochs=1, batch_size=4, seed=seed, **kw)
            model = init_model(config, mapping, seed=seed + 1)
            # 8 rows > m = k = 4 take the m x m form of the pair term, 3 rows the nb x nb form
            for Xb, Tb in ((X, targets), (X[:3], targets[:3])):
                grads, _ = grad_batch(model, Xb, Tb, config)
                flat = [grads.dw.ravel(), grads.db.ravel()]
                if model.has_decoder:
                    flat += [grads.ddecoder_w.ravel(), grads.ddecoder_b.ravel()]
                analytic = np.concatenate(flat)
                numeric = fd_gradient(
                    lambda mod: batch_objective_loop(mod, Xb, Tb, config)[0], model, h=1e-5
                )
                scale = np.maximum(np.abs(numeric), 1e-3)
                worst = max(worst, float(np.max(np.abs(analytic - numeric) / scale)))
    elapsed = time.perf_counter() - t0
    _report_line(
        1,
        worst < 1e-4 and elapsed < 10.0,
        f"max relative gradient error {worst:.2e} over 20 seeds x 3 configs, {elapsed:.1f}s",
    )


def test_criterion_2_jl_preservation():
    t0 = time.perf_counter()
    X = stream(42).standard_normal((200, 64))
    audit = jl_audit(X, lambda A: gaussian_projection(A, 2000, seed=8), epsilon=0.3, n_pairs=5000, seed=1)
    elapsed = time.perf_counter() - t0
    ok = audit.violation_rate <= audit.bound + 0.01 and elapsed < 30.0
    _report_line(
        2,
        ok,
        f"violation rate {audit.violation_rate} vs bound {audit.bound:.2e} + 0.01, {elapsed:.1f}s",
    )


def test_criterion_3_rff_kernel_approximation():
    t0 = time.perf_counter()
    rng = stream(21)
    pts = rng.standard_normal((40, 10))
    sigma = median_bandwidth(pts)
    mapping = rff(10, 4096, bandwidth=sigma, seed=6)
    errs = []
    for _ in range(20):
        i, j = rng.integers(0, 40, size=2)
        approx = pairwise_target(mapping, pts[i], pts[j])
        errs.append(abs(approx - rbf_kernel(pts[i], pts[j], sigma)))
    mean_err = float(np.mean(errs))
    elapsed = time.perf_counter() - t0
    _report_line(
        3,
        mean_err <= 0.05 and elapsed < 10.0,
        f"mean |dot - kernel| = {mean_err:.4f} at K=4096, sigma={sigma:.3f}, {elapsed:.1f}s",
    )


def test_criterion_4_metric_oracles():
    t0 = time.perf_counter()
    rng = stream(99)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        scores = rng.integers(0, 4, n).astype(float) / 2.0  # ties guaranteed
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[rng.integers(0, n)] = 1 - labels[0]
        worst = max(worst, abs(auc_roc(scores, labels) - auc_roc_bruteforce(scores, labels)))
        worst = max(
            worst,
            abs(auc_pr(scores, labels) - auc_pr_bruteforce(scores.tolist(), labels.tolist())),
        )
        a = rng.integers(0, n, n).tolist()  # singletons and single-cluster included
        b = rng.integers(0, n, n).tolist()
        worst = max(worst, abs(nmi(a, b) - nmi_bruteforce(a, b)))
        worst = max(worst, abs(pairwise_f(a, b) - pairwise_f_bruteforce(a, b)))
    elapsed = time.perf_counter() - t0
    _report_line(
        4,
        worst < 1e-12 and elapsed < 30.0,
        f"max |metric - bruteforce| = {worst:.2e} over 1000 instances, {elapsed:.1f}s",
    )


def test_criterion_5_end_to_end_anomaly(anomaly_runs):
    full = anomaly_runs["full"]
    beats_ablation = (
        full.auc_roc > anomaly_runs["no_pair"].auc_roc
        or full.auc_roc > anomaly_runs["no_aux"].auc_roc
    )
    ok = (
        full.auc_roc >= 0.95
        and full.auc_pr >= 0.60
        and beats_ablation
        and anomaly_runs["seconds"] < 300.0
    )
    _report_line(
        5,
        ok,
        f"auc_roc={full.auc_roc:.4f} auc_pr={full.auc_pr:.4f}, ablations "
        f"no_pair={anomaly_runs['no_pair'].auc_roc:.4f} "
        f"no_aux={anomaly_runs['no_aux'].auc_roc:.4f}, {anomaly_runs['seconds']:.0f}s",
    )


def test_criterion_6_end_to_end_clustering(clustering_run):
    result = clustering_run["result"]
    ok = (
        result.nmi_mean >= 0.9
        and result.f_mean >= 0.9
        and clustering_run["seconds"] < 180.0
    )
    _report_line(
        6,
        ok,
        f"nmi={result.nmi_mean:.4f}+-{result.nmi_std:.3f} "
        f"f={result.f_mean:.4f}+-{result.f_std:.3f}, {clustering_run['seconds']:.0f}s",
    )


def test_criterion_7_determinism(anomaly_runs, clustering_run):
    repeat_full = run_anomaly(anomaly_runs["data"], _anomaly_config())
    anomaly_same = (
        np.array_equal(repeat_full.scores, anomaly_runs["full"].scores)
        and _anomaly_report(repeat_full) == _anomaly_report(anomaly_runs["full"])
    )
    repeat_cluster = run_clustering(
        clustering_run["data"], clustering_run["config"], restarts=10, source="rff"
    )
    cluster_same = _clustering_report(repeat_cluster) == _clustering_report(
        clustering_run["result"]
    )
    _report_line(
        7,
        anomaly_same and cluster_same,
        f"anomaly report identical: {anomaly_same}, clustering report identical: {cluster_same}",
    )


def test_criterion_8_score_scale_invariance(anomaly_runs):
    data = anomaly_runs["data"]
    scores = anomaly_runs["full"].scores
    scaled = 7.3 * scores
    ok = (
        auc_roc(scaled, data.labels) == anomaly_runs["full"].auc_roc
        and auc_pr(scaled, data.labels) == anomaly_runs["full"].auc_pr
    )
    _report_line(8, ok, "auc_roc and auc_pr unchanged under scores * 7.3")


SECOM_PATH = os.environ.get("RANDIST_SECOM_CSV", "")


@pytest.mark.skipif(
    not SECOM_PATH or not os.path.exists(SECOM_PATH),
    reason="optional real-data check; set RANDIST_SECOM_CSV to a prepared secom CSV "
    "(1567 rows, 590 feature columns, binary 'label' column, 1 = anomaly)",
)
def test_criterion_9_secom_optional():
    t0 = time.perf_counter()
    data = load_csv(SECOM_PATH, label_column="label")
    cfg = BoostConfig(
        train=TrainConfig.anomaly_defaults(seed=ANOMALY_SEED), members=10, source="rff"
    )
    result = run_anomaly(data, cfg)
    elapsed = time.perf_counter() - t0
    ok = 0.50 <= result.auc_roc <= 0.65 and elapsed < 600.0
    _report_line(9, ok, f"secom auc_roc={result.auc_roc:.4f}, {elapsed:.0f}s")
