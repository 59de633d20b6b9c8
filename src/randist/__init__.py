"""randist: representation learning without labels by predicting inner
products in a frozen random feature space, plus the anomaly-detection and
clustering pipelines built on the learned embeddings."""

from ._version import __version__
from .data import (
    Dataset,
    StandardizeParams,
    load_csv,
    standardize,
    synth_anomaly,
    synth_blobs,
    write_csv,
)
from .encoder import EncoderModel, Gradients, LossTrace, TrainConfig, grad_batch, init_model, train
from .mappings import (
    RandomMap,
    apply,
    identity_map,
    median_bandwidth,
    rff,
    sparse_rp,
)
from .anomaly import (
    AnomalyResult,
    BoostConfig,
    Ensemble,
    boost_train_member,
    ensemble_score,
    fit_ensemble,
    run_anomaly,
    score_rows,
)
from .clustering import ClusteringResult, embed, run_clustering
from .metrics import auc_pr, auc_roc, nmi, pairwise_f
from .persist import load_ensemble, save_ensemble
from .errors import ConfigError, DataError, ModelFileError, NumericError

__all__ = [
    "__version__",
    "Dataset",
    "StandardizeParams",
    "load_csv",
    "write_csv",
    "standardize",
    "synth_blobs",
    "synth_anomaly",
    "RandomMap",
    "sparse_rp",
    "rff",
    "identity_map",
    "median_bandwidth",
    "apply",
    "EncoderModel",
    "TrainConfig",
    "LossTrace",
    "Gradients",
    "init_model",
    "grad_batch",
    "train",
    "BoostConfig",
    "Ensemble",
    "AnomalyResult",
    "score_rows",
    "boost_train_member",
    "fit_ensemble",
    "ensemble_score",
    "run_anomaly",
    "ClusteringResult",
    "embed",
    "run_clustering",
    "auc_roc",
    "auc_pr",
    "nmi",
    "pairwise_f",
    "save_ensemble",
    "load_ensemble",
    "ConfigError",
    "DataError",
    "NumericError",
    "ModelFileError",
]
