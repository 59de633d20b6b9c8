"""Anomaly detection: novelty scoring, iterative top-fraction filtering and
an ensemble of independently seeded members.

Each member owns its own frozen mapping and model. Filtering ("boosting")
retrains from a fresh initialization after dropping the highest-scoring
fraction of the current training rows, so contaminating anomalies stop
biasing the fit. Scores are always computed on the full dataset; filtering
only changes training membership.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .data import Dataset, standardize as standardize_dataset
from .encoder import LOSS_ABLATIONS, EncoderModel, LossTrace, TrainConfig, ablate, train
from .forks import process_count, run_shares
# a row's anomaly score is its novelty value (higher is more anomalous). The
# pipeline calls score_rows through this module's global: perfbench wraps it here.
from .losses import novelty_rows as score_rows
from .mappings import MAX_BANDWIDTH_POINTS, RandomMap, identity_map, median_bandwidth, rff, sparse_rp
from .metrics import auc_pr, auc_roc
from .rng import child_seed

ABLATIONS = LOSS_ABLATIONS + ("no_boosting",)
SOURCES = ("rff", "srp", "identity")


def build_map(
    source: str, k: int, X: np.ndarray, seed: int, bandwidth: Optional[float] = None
) -> RandomMap:
    """The frozen mapping of a source in SOURCES from the d columns of matrix X
    to k: rff (median-heuristic bandwidth on X when None), srp (density
    1/sqrt(d)), or identity (which ignores k and has width d)."""
    d = X.shape[1]
    if source == "rff":
        return rff(d, k, bandwidth=bandwidth, data=X, seed=seed)
    if source == "srp":
        return sparse_rp(d, k, seed=seed)
    if source == "identity":
        return identity_map(d)
    raise ValueError(f"source must be one of {SOURCES}, got {source!r}")


@dataclass
class BoostConfig:
    train: TrainConfig
    members: int = 30
    filter_fraction: float = 0.05
    filter_rounds: int = 1
    source: str = "rff"
    bandwidth: Optional[float] = None  # rff source; median heuristic when None

    def __post_init__(self):
        problems = []
        if self.members < 1:
            problems.append(f"members must be >= 1, got {self.members}")
        if not 0.0 <= self.filter_fraction < 0.5:
            problems.append(f"filter_fraction must be in [0, 0.5), got {self.filter_fraction}")
        if self.filter_rounds < 0:
            problems.append(f"filter_rounds must be >= 0, got {self.filter_rounds}")
        if self.source not in SOURCES:
            problems.append(f"source must be one of {SOURCES}, got {self.source!r}")
        if self.train.task != "anomaly":
            problems.append(f"anomaly pipeline needs task='anomaly', got {self.train.task!r}")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass
class Member:
    model: EncoderModel  # model.random_map is the member's frozen mapping
    seed: int
    trace: LossTrace
    train_rows: int


@dataclass
class Ensemble:
    members: list = field(default_factory=list)
    processes: int = 1  # the processes that trained the members, the caller's included


def removal_count(fraction: float, n: int) -> int:
    """Rows dropped in one filtering round: floor(fraction * n), at least 1."""
    if fraction <= 0.0:
        return 0
    return max(1, math.floor(fraction * n))


def _check_filter_rows(n: int, config: BoostConfig) -> int:
    """The filtering rounds a member of `config` runs on n rows; a ValueError
    if one of them would leave fewer than two batches of rows."""
    rounds = config.filter_rounds if config.filter_fraction > 0.0 else 0
    left = n
    for round_idx in range(1, rounds + 1):
        left -= removal_count(config.filter_fraction, left)
        if left < 2 * config.train.batch_size:
            raise ValueError(
                f"filtering at round {round_idx} would leave {left} rows, "
                f"need at least {2 * config.train.batch_size} (2 x batch_size): "
                "set filter_rounds = 0 or a smaller batch_size"
            )
    return rounds


def boost_train_member(
    X: np.ndarray, config: BoostConfig, member_seed: int
) -> Member:
    """Train one member: full fit, then filter-and-refit rounds.

    The member trains at its mapping's width (identity's is the data's). The
    mapping stays frozen across rounds; each refit starts from a fresh
    initialization (seed derived from member_seed and the round). Ties in the
    filtering scores are broken by stable row order. The rows each round
    leaves depend only on the row count, so a table too small to filter is
    rejected before the first fit.
    """
    X = np.asarray(X, dtype=np.float64)
    rounds = _check_filter_rows(X.shape[0], config)
    mapping = build_map(config.source, config.train.m, X, child_seed(member_seed, 0), config.bandwidth)

    active = np.arange(X.shape[0])
    rows = X  # the training rows: X itself until a filtering round drops one

    def fit(round_idx: int):
        cfg = replace(config.train, m=mapping.out_dim, seed=child_seed(member_seed, 1 + round_idx))
        return train(rows, cfg, mapping)

    model, trace = fit(0)
    for round_idx in range(1, rounds + 1):
        scores = score_rows(model, rows)
        order = np.argsort(-scores, kind="mergesort")
        active = np.sort(active[order[removal_count(config.filter_fraction, active.size):]])
        rows = X[active]
        model, trace = fit(round_idx)
    return Member(model=model, seed=member_seed, trace=trace, train_rows=int(active.size))


def fit_ensemble(X: np.ndarray, config: BoostConfig) -> Ensemble:
    """Boost-train `members` independently seeded members.

    A table too small to filter is rejected before any member trains. Up to
    MAX_BANDWIDTH_POINTS rows the median heuristic takes no subsample, so
    every rff member would compute the same bandwidth: it is computed once.

    The members are split into one strided share per process
    (`forks.process_count`, at most one per member) and trained by
    `forks.run_shares`; they are put back in seed order. A member's
    arithmetic does not depend on the process that runs it, so the ensemble
    is bit-identical at any process count. Each share stops at its first
    failing member, and the lowest-numbered of those is raised: the member
    one process would have failed on.
    """
    X = np.asarray(X, dtype=np.float64)
    _check_filter_rows(X.shape[0], config)
    if config.source == "rff" and config.bandwidth is None and X.shape[0] <= MAX_BANDWIDTH_POINTS:
        config = replace(config, bandwidth=median_bandwidth(X))
    seeds = [child_seed(config.train.seed, i) for i in range(config.members)]
    workers = process_count(len(seeds))

    def share(w: int) -> tuple:
        # share w's members, trained until one raises, and what stopped them (None if none did)
        done = []
        try:
            for s in seeds[w::workers]:
                # the module global, so that a wrapper set on it applies in a child too
                done.append(boost_train_member(X, config, s))
        except Exception as err:
            if w == 0 and not done:
                raise  # member 0 failed: no child's member comes before it
            return done, err
        return done, None

    shares = run_shares(share, workers, "ensemble")
    # share w's members are w, w + workers, ...; it stopped at number w + workers * len(done)
    failed = [(w + workers * len(done), err) for w, (done, err) in enumerate(shares) if err is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    members = [None] * len(seeds)
    for w, (done, _) in enumerate(shares):
        members[w::workers] = done
    return Ensemble(members=members, processes=workers)


def ensemble_score(ensemble: Ensemble, X: np.ndarray) -> np.ndarray:
    """Per-row arithmetic mean of the member anomaly scores."""
    if not ensemble.members:
        raise ValueError("empty ensemble")
    X = np.asarray(X, dtype=np.float64)
    per_member = np.stack([score_rows(m.model, X) for m in ensemble.members])
    return per_member.mean(axis=0)


@dataclass
class AnomalyResult:
    scores: np.ndarray
    ensemble: Ensemble
    auc_roc: Optional[float] = None
    auc_pr: Optional[float] = None
    train_seconds: float = 0.0
    score_seconds: float = 0.0


def run_anomaly(
    data: Dataset,
    config: Optional[BoostConfig] = None,
    ablation: str = "none",
    standardize: bool = True,
) -> AnomalyResult:
    """Full detector: configure per ablation, fit, score, evaluate.

    `config.source` selects the frozen mapping. Metrics are filled only
    when labels are present; scores never need them.
    """
    if ablation not in ABLATIONS:
        raise ValueError(f"ablation must be one of {ABLATIONS}, got {ablation!r}")
    if config is None:
        config = BoostConfig(train=TrainConfig.anomaly_defaults())

    X = data.features
    if standardize:
        X = standardize_dataset(data)[0].features

    cfg = replace(
        config,
        train=ablate(config.train, "none" if ablation == "no_boosting" else ablation),
        filter_rounds=0 if ablation == "no_boosting" else config.filter_rounds,
    )

    t0 = time.perf_counter()
    ensemble = fit_ensemble(X, cfg)
    t1 = time.perf_counter()
    scores = ensemble_score(ensemble, X)
    result = AnomalyResult(
        scores=scores,
        ensemble=ensemble,
        train_seconds=t1 - t0,
        score_seconds=time.perf_counter() - t1,
    )
    if data.labels is not None:
        result.auc_roc = auc_roc(scores, data.labels)
        result.auc_pr = auc_pr(scores, data.labels)
    return result
