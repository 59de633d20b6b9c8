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
# a row's anomaly score is its novelty value (higher is more anomalous). The
# pipeline calls score_rows through this module's global: perfbench wraps it here.
from .losses import novelty_rows as score_rows
from .mappings import MAX_BANDWIDTH_POINTS, RandomMap, identity_map, median_bandwidth, rff, sparse_rp
from .metrics import auc_pr, auc_roc
from .rng import child_seed

ABLATIONS = LOSS_ABLATIONS + ("no_boosting",)
SOURCES = ("rff", "srp", "identity")


def build_map(
    source: str, d: int, k: int, X: np.ndarray, seed: int,
    bandwidth: Optional[float] = None, density: Optional[float] = None,
) -> RandomMap:
    """The frozen mapping of a source in SOURCES: rff (median-heuristic bandwidth
    on X when None), srp, or identity (which ignores k and has width d)."""
    if source == "rff":
        return rff(d, k, bandwidth=bandwidth, data=X, seed=seed)
    if source == "srp":
        return sparse_rp(d, k, density=density, seed=seed)
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
    density: Optional[float] = None  # srp source

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

    @property
    def seeds(self) -> list:
        return [m.seed for m in self.members]


def removal_count(fraction: float, n: int) -> int:
    """Rows dropped in one filtering round: floor(fraction * n), at least 1."""
    if fraction <= 0.0:
        return 0
    return max(1, math.floor(fraction * n))


def boost_train_member(
    X: np.ndarray, config: BoostConfig, member_seed: int
) -> Member:
    """Train one member: full fit, then filter-and-refit rounds.

    The member's mapping stays frozen across rounds; each refit starts from
    a fresh initialization (seed derived from member_seed and the round).
    Ties in the filtering scores are broken by stable row order.
    """
    X = np.asarray(X, dtype=np.float64)
    d = X.shape[1]
    mapping = build_map(
        config.source, d, config.train.m, X, child_seed(member_seed, 0), config.bandwidth, config.density
    )
    if config.train.m != mapping.out_dim:
        raise ValueError(
            f"anomaly scoring needs m == mapping out_dim, got {config.train.m} vs "
            f"{mapping.out_dim} (identity source forces m = data dim)"
        )

    active = np.arange(X.shape[0])
    rows = X  # the training rows: X itself until a filtering round drops one

    def fit(round_idx: int):
        cfg = replace(config.train, seed=child_seed(member_seed, 1 + round_idx))
        return train(rows, cfg, mapping)

    model, trace = fit(0)
    if config.filter_fraction > 0.0:
        for round_idx in range(1, config.filter_rounds + 1):
            n_remove = removal_count(config.filter_fraction, active.size)
            if active.size - n_remove < 2 * config.train.batch_size:
                raise ValueError(
                    f"filtering at round {round_idx} would leave "
                    f"{active.size - n_remove} rows, need at least {2 * config.train.batch_size}"
                )
            scores = score_rows(model, rows)
            order = np.argsort(-scores, kind="mergesort")
            active = np.sort(active[order[n_remove:]])
            rows = X[active]
            model, trace = fit(round_idx)
    return Member(model=model, seed=member_seed, trace=trace, train_rows=int(active.size))


def fit_ensemble(X: np.ndarray, config: BoostConfig) -> Ensemble:
    """Boost-train `members` independently seeded members.

    Up to MAX_BANDWIDTH_POINTS rows the median heuristic takes no subsample,
    so every rff member would compute the same bandwidth: it is computed once.
    """
    X = np.asarray(X, dtype=np.float64)
    if config.source == "rff" and config.bandwidth is None and X.shape[0] <= MAX_BANDWIDTH_POINTS:
        config = replace(config, bandwidth=median_bandwidth(X))
    seeds = [child_seed(config.train.seed, i) for i in range(config.members)]
    return Ensemble(members=[boost_train_member(X, config, s) for s in seeds])


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
    when labels are present; scores never need them. For the identity
    source the representation width is forced to the data dimension so
    novelty scoring stays well-defined.
    """
    if ablation not in ABLATIONS:
        raise ValueError(f"ablation must be one of {ABLATIONS}, got {ablation!r}")
    if config is None:
        config = BoostConfig(train=TrainConfig.anomaly_defaults())

    X = data.features
    if standardize:
        X = standardize_dataset(data)[0].features

    m = X.shape[1] if config.source == "identity" else config.train.m
    cfg = replace(
        config,
        train=ablate(replace(config.train, m=m), "none" if ablation == "no_boosting" else ablation),
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
