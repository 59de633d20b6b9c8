"""Command-line harness.

Subcommands: anomaly, cluster, project, eval. Options come from
an optional flat `key = value` config file plus command-line flags. A
subcommand's parser declares each option it takes, as a flag and as a
config key, once: its type, its valid values and any default the CLI owns.
A config file's values become the parser's defaults, so a flag wins over
the file and the file over the default. The library configs (TrainConfig,
BoostConfig) own the training defaults and their checks. The run report
echoes every resolved option (including filled-in defaults) as sorted
`key = value` lines, followed by metric, loss-trace and per-phase timing
fields.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
import time
from dataclasses import fields

import numpy as np

from ._version import __version__
from .anomaly import ABLATIONS, SOURCES, BoostConfig, build_map, run_anomaly
from .clustering import run_clustering
from .data import _column_index, _csv_rows, _is_label, load_csv, standardize as standardize_dataset
from .encoder import LOSS_ABLATIONS, TrainConfig
from .errors import ConfigError, DataError, ModelFileError, NumericError
from .mappings import apply as apply_map
from .metrics import auc_pr, auc_roc
from .persist import save_ensemble
from .report import format_report, write_text_atomic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


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


def parse_options(argv=None) -> tuple:
    """The resolved options of one run, and the {dest: action} of the options
    its subcommand takes: flags over config-file values over the parser's
    defaults. A `none` in the file leaves the default."""
    parser = build_parser()
    args = parser.parse_args(argv)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    task = sub.choices[args.task]
    options = {a.dest: a for a in task._actions if a.dest not in ("help", "config")}
    if args.config:
        file_values = _parse_config_file(args.config, options)
        task.set_defaults(**{key: value for key, value in file_values.items() if value is not None})
        args = parser.parse_args(argv)
    return args, options


def _library_config(cfg: argparse.Namespace, options: dict, problems: list):
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


def _validate(cfg: argparse.Namespace, options: dict):
    """Check cfg before any input is read and return its library config (None
    for project and eval). Every problem, the library's included, is raised
    at once, one per line."""
    problems = []
    task = cfg.task
    library = None
    if not cfg.input:
        problems.append("input file is required")
    for name, action in options.items():  # a config-file value skips argparse's check
        value = getattr(cfg, name)
        if action.choices is not None and value not in action.choices:
            problems.append(f"{name} must be one of {action.choices}, got {value!r}")
    if task == "anomaly" and cfg.source == "identity" and cfg.m is not None:
        problems.append(f"m cannot be set with source = identity, whose width is the data's, got m = {cfg.m}")
    if task in ("anomaly", "cluster"):
        library = _library_config(cfg, options, problems)
    if task == "cluster" and cfg.restarts < 1:
        problems.append(f"restarts must be >= 1, got {cfg.restarts}")
    if task == "project":
        if cfg.k < 1 and cfg.source != "identity":
            problems.append(f"projection dimension k must be >= 1, got {cfg.k}")
        if cfg.seed < 0:
            problems.append(f"seed must be non-negative, got {cfg.seed}")
        if not cfg.out_matrix:
            problems.append("project needs out_matrix")
    if problems:  # BoostConfig repeats a bad anomaly source
        raise ConfigError("invalid configuration:\n" + "\n".join(dict.fromkeys(problems)))
    return library


def _write_csv_atomic(path, header: list, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_text_atomic(path, buf.getvalue())


def _load(cfg: argparse.Namespace) -> tuple:
    """The input table, and the report fields of its shape and load."""
    t0 = time.perf_counter()
    data = load_csv(cfg.input, label_column=cfg.label_column, has_header=cfg.has_header)
    return data, {"data.rows": data.n, "data.columns": data.d, "timing.load_processes": data.processes,
                  "timing.load_seconds": time.perf_counter() - t0}


def _cmd_anomaly(cfg: argparse.Namespace, boost: BoostConfig) -> dict:
    data, out = _load(cfg)
    result = run_anomaly(data, boost, ablation=cfg.ablation, standardize=cfg.standardize)
    cfg.m = result.ensemble.members[0].model.m  # identity's: the data width
    if result.auc_roc is not None:
        out["metrics.auc_roc"] = result.auc_roc
        out["metrics.auc_pr"] = result.auc_pr
    first = np.mean([m.trace.total[0] for m in result.ensemble.members])
    last = np.mean([m.trace.total[-1] for m in result.ensemble.members])
    out["loss.first_epoch_total_mean"] = float(first)
    out["loss.last_epoch_total_mean"] = float(last)
    out["timing.train_seconds"] = result.train_seconds
    out["timing.score_seconds"] = result.score_seconds
    out["timing.member_processes"] = result.ensemble.processes
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


def _cmd_cluster(cfg: argparse.Namespace, train_cfg: TrainConfig) -> dict:
    data, out = _load(cfg)
    result = run_clustering(
        data,
        train_cfg,
        restarts=cfg.restarts,
        ablation=cfg.ablation,
        source=cfg.source,
        standardize=cfg.standardize,
    )
    out["metrics.nmi_mean"] = result.nmi_mean
    out["metrics.nmi_std"] = result.nmi_std
    out["metrics.f_mean"] = result.f_mean
    out["metrics.f_std"] = result.f_std
    out["loss.first_epoch_total"] = float(result.trace.total[0])
    out["loss.last_epoch_total"] = float(result.trace.total[-1])
    out["timing.train_seconds"] = result.train_seconds
    out["timing.cluster_seconds"] = result.cluster_seconds
    out["timing.train_lanes"] = result.train_lanes
    if cfg.out_assignments:
        rows = ([i, int(a), int(data.labels[i])] for i, a in enumerate(result.assignments))
        _write_csv_atomic(cfg.out_assignments, ["index", "cluster", "label"], rows)
    if cfg.out_model:
        save_ensemble(cfg.out_model, [result.model])
    return out


def _cmd_project(cfg: argparse.Namespace, _: None) -> dict:
    data, out = _load(cfg)
    X = standardize_dataset(data)[0].features if cfg.standardize else data.features
    t0 = time.perf_counter()
    mapping = build_map(cfg.source, cfg.k, X, cfg.seed)
    cfg.k = mapping.out_dim  # identity: the data width
    projected = apply_map(mapping, X)
    out["timing.project_seconds"] = time.perf_counter() - t0
    header = [f"p{i}" for i in range(projected.shape[1])]
    _write_csv_atomic(
        cfg.out_matrix, header, ([repr(float(v)) for v in row] for row in projected)
    )
    return out


def _read_eval_columns(cfg: argparse.Namespace) -> tuple:
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

    s_idx = _column_index(cfg.score_column, header, len(rows[0]), "score column")
    l_idx = _column_index(cfg.label_column, header, len(rows[0]), "label column")
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


def _cmd_eval(cfg: argparse.Namespace, _: None) -> dict:
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
    p.add_argument("--has-header", dest="has_header", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out-report", dest="out_report")


def _add_common(p: argparse.ArgumentParser) -> None:
    _add_io(p)
    p.add_argument("--standardize", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--seed", type=int, default=0)


def _add_train_common(p: argparse.ArgumentParser, ablations: tuple) -> None:
    p.add_argument("--source", choices=SOURCES, default="rff")
    p.add_argument("--ablation", choices=ablations, default="none")
    p.add_argument("--m", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--aux-weight", dest="aux_weight", type=float)
    p.add_argument("--out-model", dest="out_model")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="randist", description=__doc__)
    parser.add_argument("--version", action="version", version=f"randist {__version__}")
    sub = parser.add_subparsers(dest="task", required=True)
    # no prefix matching: like a config key, `--learning` is not `--learning-rate`
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("anomaly", help="train the detector ensemble and score every row")
    _add_common(p)
    _add_train_common(p, ABLATIONS)
    p.add_argument("--members", type=int)
    p.add_argument("--filter-fraction", dest="filter_fraction", type=float)
    p.add_argument("--filter-rounds", dest="filter_rounds", type=int)
    p.add_argument("--out-scores", dest="out_scores")

    p = add("cluster", help="learn an embedding and K-means it against labels")
    _add_common(p)
    _add_train_common(p, LOSS_ABLATIONS)
    p.add_argument("--restarts", type=int, default=30)
    p.add_argument("--out-assignments", dest="out_assignments")

    p = add("project", help="apply a frozen random mapping and write the matrix")
    _add_common(p)
    p.add_argument("--source", choices=SOURCES, default="rff")
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--out-matrix", dest="out_matrix")

    p = add("eval", help="compute ranking metrics from a scores+labels CSV")
    _add_io(p)
    p.add_argument("--score-column", dest="score_column", default="score")
    p.set_defaults(label_column="label")
    return parser


_COMMANDS = {
    "anomaly": _cmd_anomaly,
    "cluster": _cmd_cluster,
    "project": _cmd_project,
    "eval": _cmd_eval,
}


def run(argv=None) -> int:
    cfg, options = parse_options(argv)
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
