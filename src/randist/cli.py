"""Command-line harness.

Subcommands: anomaly, cluster, project, eval. Options come from
an optional flat `key = value` config file plus command-line flags; a flag
always wins over the file. A subcommand's parser lists the options it
takes, as flags and as config keys, with their types; the library configs
(TrainConfig, BoostConfig) own the training defaults and their checks. The
run report echoes every resolved option (including filled-in defaults) as
sorted `key = value` lines, followed by metric, loss-trace and per-phase
timing fields.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import time
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from ._version import __version__
from .anomaly import ABLATIONS, SOURCES, BoostConfig, build_map, run_anomaly
from .clustering import run_clustering
from .data import _csv_rows, _is_label, load_csv, standardize as standardize_dataset
from .encoder import LOSS_ABLATIONS, TrainConfig
from .errors import ConfigError, DataError, ModelFileError, NumericError
from .mappings import apply as apply_map
from .metrics import auc_pr, auc_roc
from .persist import save_ensemble, save_model
from .report import format_report, write_text_atomic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


@dataclass
class RunConfig:
    """The resolved options of one run. A None training option is left to
    the library config that owns its default (TrainConfig, BoostConfig)."""

    task: str = "anomaly"
    input: Optional[str] = None
    label_column: Optional[str] = None
    score_column: str = "score"
    has_header: bool = True
    standardize: bool = True
    source: str = "rff"
    ablation: str = "none"
    m: Optional[int] = None
    k: Optional[int] = None
    epochs: Optional[int] = None
    batch_size: Optional[int] = None
    learning_rate: Optional[float] = None
    aux_weight: Optional[float] = None
    leaky_slope: Optional[float] = None
    members: Optional[int] = None
    filter_fraction: Optional[float] = None
    filter_rounds: Optional[int] = None
    restarts: int = 30
    kmeans_max_iters: int = 300
    normalize_embeddings: bool = False
    bandwidth: Optional[float] = None
    density: Optional[float] = None
    seed: int = 0
    out_report: Optional[str] = None
    out_scores: Optional[str] = None
    out_assignments: Optional[str] = None
    out_matrix: Optional[str] = None
    out_model: Optional[str] = None


def _task_options(parser: argparse.ArgumentParser, task: str) -> dict:
    """The options that `task`'s subparser lists, as {dest: action}: the
    config keys the task takes, their types, and what its report echoes."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[task]._actions if a.dest not in ("help", "config")}


def _coerce(key: str, raw: str, options: dict):
    if key not in options:
        raise ConfigError(f"unknown config key {key!r}")
    action = options[key]
    raw = raw.strip()
    if raw.lower() == "none":
        return None
    try:
        if isinstance(action, argparse.BooleanOptionalAction):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if action.type is not None:
            return action.type(raw)
    except ValueError as err:
        raise ConfigError(f"config key {key!r}: {err}") from None
    return raw


def _parse_config_file(path, options: dict) -> dict:
    values = {}
    problems = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            problems.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        try:
            values[key.strip()] = _coerce(key.strip(), value, options)
        except ConfigError as err:
            problems.append(f"line {lineno}: {err}")
    if problems:
        raise ConfigError("bad config file:\n" + "\n".join(problems))
    return values


def _resolve(task: str, file_values: dict, cli_values: dict) -> RunConfig:
    """Flags over file values over defaults; a None value (`none` in a file) is unset."""
    cfg = RunConfig(task=task)
    for values in (file_values, cli_values):
        for key, value in values.items():
            if value is not None:
                setattr(cfg, key, value)
    if task == "project" and cfg.k is None:
        cfg.k = 50
    return cfg


def _library_config(cfg: RunConfig, options: dict, problems: list):
    """The TrainConfig of a cluster run, or the BoostConfig of an anomaly run.

    It is built from the options given; the library fills in the others and
    checks every value. Its problems join `problems`, and the values it
    resolves are written back to cfg for the report.
    """

    def build(config_type, make, **fixed):
        names = [f.name for f in fields(config_type) if f.name in options]
        given = {name: getattr(cfg, name) for name in names if getattr(cfg, name) is not None}
        try:
            config = make(**given, **fixed)
        except ValueError as err:  # the library joins its problems with "; "
            problems.extend(str(err).split("; "))
            return None
        for name in names:
            setattr(cfg, name, getattr(config, name))
        return config

    defaults = TrainConfig.anomaly_defaults if cfg.task == "anomaly" else TrainConfig.clustering_defaults
    train = build(TrainConfig, defaults)
    if cfg.task == "cluster":
        return train
    # a stand-in for a failed TrainConfig lets BoostConfig list its own problems
    return build(BoostConfig, BoostConfig, train=train or defaults())


def _validate(cfg: RunConfig, options: dict):
    """Check cfg before any input is read and return its library config (None
    for project and eval). Every problem, the library's included, is raised
    at once, one per line."""
    problems = []
    task = cfg.task
    library = None
    if not cfg.input:
        problems.append("input file is required")
    if task in ("cluster", "project") and cfg.source not in SOURCES:  # BoostConfig checks anomaly's
        problems.append(f"source must be one of {SOURCES}, got {cfg.source!r}")
    if task in ("anomaly", "cluster"):
        ablations = ABLATIONS if task == "anomaly" else LOSS_ABLATIONS
        if cfg.ablation not in ablations:
            problems.append(f"ablation must be one of {ablations}, got {cfg.ablation!r}")
        library = _library_config(cfg, options, problems)
        if cfg.k is None:
            cfg.k = cfg.m
    if task == "anomaly" and cfg.m is not None and cfg.m != cfg.k and cfg.source != "identity":
        problems.append(f"anomaly scoring requires m == k, got m={cfg.m}, k={cfg.k}")
    if task == "cluster":
        if cfg.restarts < 1:
            problems.append(f"restarts must be >= 1, got {cfg.restarts}")
        if cfg.kmeans_max_iters < 1:
            problems.append(f"kmeans_max_iters must be >= 1, got {cfg.kmeans_max_iters}")
    if task == "project":
        if cfg.k < 1 and cfg.source != "identity":
            problems.append(f"projection dimension k must be >= 1, got {cfg.k}")
        if cfg.seed < 0:
            problems.append(f"seed must be non-negative, got {cfg.seed}")
        if not cfg.out_matrix:
            problems.append("project needs out_matrix")
    if cfg.bandwidth is not None and not (cfg.bandwidth > 0 and math.isfinite(cfg.bandwidth)):
        problems.append(f"bandwidth must be positive and finite, got {cfg.bandwidth}")
    if cfg.density is not None and not 0.0 < cfg.density <= 1.0:
        problems.append(f"density must be in (0, 1], got {cfg.density}")
    if problems:
        raise ConfigError("invalid configuration:\n" + "\n".join(problems))
    return library


def _write_csv_atomic(path, header: list, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_text_atomic(path, buf.getvalue())


def _cmd_anomaly(cfg: RunConfig, boost: BoostConfig) -> dict:
    data = load_csv(cfg.input, label_column=cfg.label_column, has_header=cfg.has_header)
    result = run_anomaly(data, boost, ablation=cfg.ablation, standardize=cfg.standardize)
    if cfg.source == "identity":
        cfg.m = cfg.k = data.d  # echo the forced width
    out = {"data.rows": data.n, "data.columns": data.d}
    if result.auc_roc is not None:
        out["metrics.auc_roc"] = result.auc_roc
        out["metrics.auc_pr"] = result.auc_pr
    first = np.mean([m.trace.total[0] for m in result.ensemble.members])
    last = np.mean([m.trace.total[-1] for m in result.ensemble.members])
    out["loss.first_epoch_total_mean"] = float(first)
    out["loss.last_epoch_total_mean"] = float(last)
    out["timing.train_seconds"] = result.train_seconds
    out["timing.score_seconds"] = result.score_seconds
    if cfg.out_scores:
        rows = (
            [i, repr(float(s))] + ([int(data.labels[i])] if data.labels is not None else [])
            for i, s in enumerate(result.scores)
        )
        header = ["index", "score"] + (["label"] if data.labels is not None else [])
        _write_csv_atomic(cfg.out_scores, header, rows)
    if cfg.out_model:
        save_ensemble(cfg.out_model, [m.model for m in result.ensemble.members])
    return out


def _cmd_cluster(cfg: RunConfig, train_cfg: TrainConfig) -> dict:
    data = load_csv(cfg.input, label_column=cfg.label_column, has_header=cfg.has_header)
    result = run_clustering(
        data,
        train_cfg,
        restarts=cfg.restarts,
        ablation=cfg.ablation,
        source=cfg.source,
        standardize=cfg.standardize,
        normalize_embeddings=cfg.normalize_embeddings,
        kmeans_max_iters=cfg.kmeans_max_iters,
        bandwidth=cfg.bandwidth,
        density=cfg.density,
        map_dim=cfg.k,
    )
    out = {"data.rows": data.n, "data.columns": data.d}
    out["metrics.nmi_mean"] = result.nmi_mean
    out["metrics.nmi_std"] = result.nmi_std
    out["metrics.f_mean"] = result.f_mean
    out["metrics.f_std"] = result.f_std
    out["loss.first_epoch_total"] = float(result.trace.total[0])
    out["loss.last_epoch_total"] = float(result.trace.total[-1])
    out["timing.train_seconds"] = result.train_seconds
    out["timing.cluster_seconds"] = result.cluster_seconds
    if cfg.out_assignments:
        rows = (
            [i, int(a)] + ([int(data.labels[i])] if data.labels is not None else [])
            for i, a in enumerate(result.assignments)
        )
        header = ["index", "cluster"] + (["label"] if data.labels is not None else [])
        _write_csv_atomic(cfg.out_assignments, header, rows)
    if cfg.out_model:
        save_model(cfg.out_model, result.model)
    return out


def _cmd_project(cfg: RunConfig, _: None) -> dict:
    data = load_csv(cfg.input, label_column=cfg.label_column, has_header=cfg.has_header)
    X = standardize_dataset(data)[0].features if cfg.standardize else data.features
    t0 = time.perf_counter()
    mapping = build_map(cfg.source, data.d, cfg.k, X, cfg.seed, cfg.bandwidth, cfg.density)
    cfg.k = mapping.out_dim  # identity: the data width
    projected = apply_map(mapping, X)
    out = {"data.rows": data.n, "data.columns": data.d}
    out["timing.project_seconds"] = time.perf_counter() - t0
    header = [f"p{i}" for i in range(projected.shape[1])]
    _write_csv_atomic(
        cfg.out_matrix, header, ([repr(float(v)) for v in row] for row in projected)
    )
    return out


def _read_eval_columns(cfg: RunConfig) -> tuple:
    try:
        with open(cfg.input, "r", newline="", encoding="utf-8") as fh:
            rows = [cells for _, cells in _csv_rows(fh, 1)]
    except OSError as err:
        raise DataError(f"cannot read {cfg.input}: {err}") from err
    if not rows:
        raise DataError(f"{cfg.input} is empty")
    header = None
    if cfg.has_header:
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
    if not rows:
        raise DataError(f"{cfg.input} has no data rows")

    def column_index(selector, what: str) -> int:
        if isinstance(selector, str) and not selector.lstrip("-").isdigit():
            if header is None or selector not in header:
                raise DataError(f"{what} {selector!r} not found in header {header}")
            return header.index(selector)
        idx = int(selector)
        if not 0 <= idx < len(rows[0]):
            raise DataError(f"{what} index {idx} out of range")
        return idx

    s_idx = column_index(cfg.score_column, "score column")
    l_idx = column_index(cfg.label_column if cfg.label_column is not None else "label", "label column")
    scores, labels = [], []
    for r, cells in enumerate(rows, start=2 if cfg.has_header else 1):
        try:
            score, label = float(cells[s_idx].strip()), float(cells[l_idx].strip())
        except (ValueError, IndexError) as err:
            raise DataError(f"bad row {r} in {cfg.input}: {err}") from None
        if not math.isfinite(score):
            raise DataError(f"bad row {r} in {cfg.input}: score {cells[s_idx]!r} is not finite")
        if not _is_label(label, cells[l_idx]):  # load_csv's rule
            raise DataError(
                f"bad row {r} in {cfg.input}: label {cells[l_idx]!r} is not an int64 integer "
                "that float64 holds exactly"
            )
        scores.append(score)
        labels.append(int(label))
    return np.asarray(scores), np.asarray(labels)


def _cmd_eval(cfg: RunConfig, _: None) -> dict:
    scores, labels = _read_eval_columns(cfg)
    return {
        "data.rows": scores.size,
        "metrics.auc_roc": auc_roc(scores, labels),
        "metrics.auc_pr": auc_pr(scores, labels),
    }


def _add_io(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file; flags override it")
    p.add_argument("--input", help="input CSV path")
    p.add_argument("--label-column", dest="label_column", help="label column name or 0-based index")
    p.add_argument("--has-header", dest="has_header", action=argparse.BooleanOptionalAction)
    p.add_argument("--out-report", dest="out_report")


def _add_common(p: argparse.ArgumentParser) -> None:
    _add_io(p)
    p.add_argument("--standardize", action=argparse.BooleanOptionalAction)
    p.add_argument("--seed", type=int)


def _add_train_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source", choices=list(SOURCES))
    p.add_argument("--ablation")
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--aux-weight", dest="aux_weight", type=float)
    p.add_argument("--leaky-slope", dest="leaky_slope", type=float)
    p.add_argument("--bandwidth", type=float)
    p.add_argument("--density", type=float)
    p.add_argument("--out-model", dest="out_model")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="randist", description=__doc__)
    parser.add_argument("--version", action="version", version=f"randist {__version__}")
    sub = parser.add_subparsers(dest="task", required=True)

    p = sub.add_parser("anomaly", help="train the detector ensemble and score every row")
    _add_common(p)
    _add_train_common(p)
    p.add_argument("--members", type=int)
    p.add_argument("--filter-fraction", dest="filter_fraction", type=float)
    p.add_argument("--filter-rounds", dest="filter_rounds", type=int)
    p.add_argument("--out-scores", dest="out_scores")

    p = sub.add_parser("cluster", help="learn an embedding and K-means it against labels")
    _add_common(p)
    _add_train_common(p)
    p.add_argument("--restarts", type=int)
    p.add_argument("--kmeans-max-iters", dest="kmeans_max_iters", type=int)
    p.add_argument("--normalize-embeddings", dest="normalize_embeddings",
                   action=argparse.BooleanOptionalAction)
    p.add_argument("--out-assignments", dest="out_assignments")

    p = sub.add_parser("project", help="apply a frozen random mapping and write the matrix")
    _add_common(p)
    p.add_argument("--source", choices=list(SOURCES))
    p.add_argument("--k", type=int)
    p.add_argument("--bandwidth", type=float)
    p.add_argument("--density", type=float)
    p.add_argument("--out-matrix", dest="out_matrix")

    p = sub.add_parser("eval", help="compute ranking metrics from a scores+labels CSV")
    _add_io(p)
    p.add_argument("--score-column", dest="score_column")
    return parser


_COMMANDS = {
    "anomaly": _cmd_anomaly,
    "cluster": _cmd_cluster,
    "project": _cmd_project,
    "eval": _cmd_eval,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    options = _task_options(parser, args.task)
    file_values = _parse_config_file(args.config, options) if args.config else {}
    cfg = _resolve(args.task, file_values, {key: getattr(args, key) for key in options})
    out = _COMMANDS[cfg.task](cfg, _validate(cfg, options))
    out.update({f"config.{key}": getattr(cfg, key) for key in ("task", *options)})
    out["version"] = __version__
    text = format_report(out)
    if cfg.out_report:
        write_text_atomic(cfg.out_report, text)
    sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        return run(argv)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, ModelFileError, OSError) as err:
        print(f"input/output error: {err}", file=sys.stderr)
        return EXIT_IO
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
