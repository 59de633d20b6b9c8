"""Anomaly detection: novelty scoring, iterative top-fraction filtering and
an ensemble of independently seeded members.

Each member owns its own frozen mapping and model. Filtering ("boosting")
retrains from a fresh initialization after dropping the highest-scoring
fraction of the current training rows, so contaminating anomalies stop
biasing the fit. Scores are always computed on the full dataset; filtering
only changes training membership.
"""
from __future__ import annotations

import ctypes
import functools
import math
import os
import pickle
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
    processes: int = 1  # the processes that trained the members, the caller's included

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


def _train_share(X: np.ndarray, config: BoostConfig, seeds: list) -> tuple:
    """The members of `seeds`, trained in order until one raises, and the
    exception that stopped them (None when every member trained)."""
    done = []
    try:
        for s in seeds:
            # the module global, so that a wrapper set on it applies in a child too
            done.append(boost_train_member(X, config, s))
    except Exception as err:
        return done, err
    return done, None


@functools.cache
def _openblas_num_threads():
    """The loaded OpenBLAS's thread-count getter, or None where no OpenBLAS
    is mapped into this process or its mappings cannot be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn
    return None


def _member_processes(members: int) -> int:
    """How many processes train an ensemble of `members`: the CPUs this
    process may run on, divided by the threads of the loaded OpenBLAS, and
    at most one per member.

    Processes whose BLAS threads outnumber the CPUs wait on each other, so
    OpenBLAS's default of one thread per CPU gives 1. The threads are asked
    of the library, which reads its thread variables once, when numpy loads
    it. The rule was checked on OpenBLAS only: with another BLAS, or where
    the platform cannot tell the CPUs, it is 1.
    """
    get_threads = _openblas_num_threads()
    if get_threads is None or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(members, len(os.sched_getaffinity(0)) // max(1, get_threads())))


def _fork_shares(X: np.ndarray, config: BoostConfig, seeds: list, workers: int, children: dict):
    """Fork a child for each strided share after the first, recording it in
    `children` as worker -> (pid, read end of its pipe).

    A child inherits X and config from the fork, so neither is copied unless
    written to. It pickles back what `_train_share` returns, or nothing if it
    is interrupted, and leaves through os._exit, so it never returns into the
    caller's stack and no cleanup of the parent's (open files, atexit
    handlers, test fixtures) runs twice. Signals are held from before the
    first fork until every child is in its try and in `children`: a handler
    raising in between would unwind a child into the caller's stack, or
    leave a child out of fit_ensemble's kill.
    """
    import signal  # here, so that importing randist loads no module it did not

    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    try:
        signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                status = 1
                try:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    os.close(read_fd)
                    # all or nothing: what fails to pickle is sent as no result at all
                    data = pickle.dumps(_train_share(X, config, seeds[w::workers]),
                                        protocol=pickle.HIGHEST_PROTOCOL)
                    with os.fdopen(write_fd, "wb") as fh:
                        fh.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children[w] = (pid, os.fdopen(read_fd, "rb"))
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _share_result(worker: int, pid: int, data: bytes, status: int) -> tuple:
    """What a child's `_train_share` returned, or an error if it sent nothing."""
    if not data:
        raise RuntimeError(
            f"ensemble worker {worker} (pid {pid}) exited without a result "
            f"(exit status {os.waitstatus_to_exitcode(status)})"
        )
    return pickle.loads(data)  # bytes our own child wrote


def fit_ensemble(X: np.ndarray, config: BoostConfig) -> Ensemble:
    """Boost-train `members` independently seeded members.

    Up to MAX_BANDWIDTH_POINTS rows the median heuristic takes no subsample,
    so every rff member would compute the same bandwidth: it is computed once.

    The members are split into one strided share per process
    (`_member_processes`). The caller trains the first share; each other
    share is trained in a forked child, and the members are put back in seed
    order. A member's arithmetic does not depend on the process that runs
    it, so the ensemble is bit-identical at any process count. Each share
    stops at its first failing member, and the lowest-numbered of those is
    raised: the member one process would have failed on. Every child still
    running when the error is raised, or when the caller is interrupted, is
    killed and reaped first.
    """
    X = np.asarray(X, dtype=np.float64)
    if config.source == "rff" and config.bandwidth is None and X.shape[0] <= MAX_BANDWIDTH_POINTS:
        config = replace(config, bandwidth=median_bandwidth(X))
    seeds = [child_seed(config.train.seed, i) for i in range(config.members)]
    workers = _member_processes(len(seeds))
    children = {}  # worker -> (pid, read end), until reaped
    try:
        if workers > 1:
            _fork_shares(X, config, seeds, workers, children)
        shares = [_train_share(X, config, seeds[::workers])]
        done, err = shares[0]
        # a child's members can come before the caller's failed one only if that is not member 0
        if err is None or done:
            for w in range(1, workers):
                pid, fh = children[w]
                with fh:
                    data = fh.read()
                status = os.waitpid(pid, 0)[1]
                del children[w]
                shares.append(_share_result(w, pid, data, status))
    finally:
        if children:
            import signal
        for pid, fh in children.values():
            fh.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
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
