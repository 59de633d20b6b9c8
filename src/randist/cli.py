"""Command-line harness.

Subcommands: anomaly, cluster, eval. Options come from
an optional flat `key = value` config file plus command-line flags. A
subcommand's parser declares each option it takes, as a flag and as a
config key, once: its type, its valid values and any default the CLI owns.
A config file's values become the parser's defaults, so a flag wins over
the file and the file over the default. The library configs (TrainConfig,
BoostConfig) own the training defaults and their checks. The run report
echoes every resolved option (including filled-in defaults) as sorted
`key = value` lines, followed by metric, baseline, loss-trace and
per-phase timing fields.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
import time
from dataclasses import fields

import numpy as np

from ._version import __version__
from .anomaly import SOURCES, BoostConfig, run_anomaly
from .clustering import restart_scores, run_clustering
from .data import _column_index, load_csv, standardize as standardize_dataset
from .encoder import TrainConfig
from .errors import ConfigError, DataError, ModelFileError, NumericError
from .mappings import apply as apply_map
from .metrics import auc_pr, auc_roc
from .persist import save_ensemble
from .report import format_report, write_text_atomic

try:
    import resource
except ImportError:  # Windows: the report has no peak-memory keys
    resource = None

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# each --ablation name and the library config fields it sets; cluster runs
# no filter rounds, so it takes every name but the last
ABLATIONS = {
    "none": {},
    "no_pair_loss": {"use_pair_loss": False},
    "no_aux_loss": {"use_aux_loss": False},
    "no_boosting": {"filter_rounds": 0},
}


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

    It is built from the options given and the fields cfg.ablation sets,
    which win over an option; the library fills in the others and checks
    every value. Its problems join `problems`, and the values it resolves are
    written back to cfg for the report.
    """
    ablation = ABLATIONS.get(cfg.ablation, {})  # a bad name is a choice problem already

    def build(config_type, make, **fixed):
        own = {f.name for f in fields(config_type)}
        names = [name for name in options if name in own]
        given = {name: getattr(cfg, name) for name in names if getattr(cfg, name) is not None}
        given.update((name, value) for name, value in ablation.items() if name in own)
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
    for eval). Every problem, the library's included, is raised at once, one
    per line."""
    problems = []
    task = cfg.task
    if not cfg.input:
        problems.append("input file is required")
    if task == "cluster" and cfg.label_column is None:
        problems.append("label_column is required: clustering evaluation needs ground-truth labels")
    for name, action in options.items():  # a config-file value skips argparse's check
        value = getattr(cfg, name)
        if action.choices is not None and value not in action.choices:
            problems.append(f"{name} must be one of {action.choices}, got {value!r}")
    if task == "anomaly" and cfg.source == "identity" and cfg.m is not None:
        problems.append(f"m cannot be set with source = identity, whose width is the data's, got m = {cfg.m}")
    library = None if task == "eval" else _library_config(cfg, options, problems)
    if task == "cluster" and cfg.restarts < 1:
        problems.append(f"restarts must be >= 1, got {cfg.restarts}")
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
    """The input table, standardized when cfg.standardize is set (the raw copy
    is then dropped), and the report fields of its shape and load."""
    t0 = time.perf_counter()
    data = load_csv(cfg.input, label_column=cfg.label_column, has_header=cfg.has_header)
    out = {"data.rows": data.n, "data.columns": data.d, "timing.load_processes": data.processes,
           "timing.load_seconds": time.perf_counter() - t0}
    if cfg.standardize:
        data = standardize_dataset(data)[0]
    return data, out


def _check_labels(labels: np.ndarray, cfg: argparse.Namespace) -> None:
    """A DataError at the first label that is not 0 or 1, at its file row as
    load_csv numbers them."""
    bad = np.flatnonzero((labels != 0) & (labels != 1))
    if bad.size:
        row = bad[0] + (2 if cfg.has_header else 1)
        raise DataError(f"bad row {row} in {cfg.input}: label {float(labels[bad[0]])!r} is not 0 or 1")


def _cmd_anomaly(cfg: argparse.Namespace, boost: BoostConfig) -> dict:
    data, out = _load(cfg)
    if data.labels is not None:
        _check_labels(data.labels, cfg)  # before any member trains
    result = run_anomaly(data, boost, standardize=False)  # _load did
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
        source=cfg.source,
        standardize=False,  # _load did
    )
    out["metrics.nmi_mean"] = result.nmi_mean
    out["metrics.nmi_std"] = result.nmi_std
    out["metrics.f_mean"] = result.f_mean
    out["metrics.f_std"] = result.f_std
    result.embeddings = None  # unread here: free H before eta(X) and its Gram (8 MB each at 1000 x 1024)
    t0 = time.perf_counter()  # the same restarts on the frozen space eta(X) the encoder learned from
    nmis, fs, _ = restart_scores(apply_map(result.model.random_map, data.features), data.labels,
                                 cfg.restarts, cfg.seed)
    out["timing.baseline_seconds"] = time.perf_counter() - t0
    for name, values in (("nmi", nmis), ("f", fs)):
        out[f"baseline.frozen.{name}_mean"] = float(values.mean())
        out[f"baseline.frozen.{name}_std"] = float(values.std())
    out["loss.first_epoch_total"] = float(result.trace.total[0])
    out["loss.last_epoch_total"] = float(result.trace.total[-1])
    out["timing.train_seconds"] = result.train_seconds
    out["timing.cluster_seconds"] = result.cluster_seconds
    out["timing.train_lanes"] = result.trace.lanes
    if cfg.out_assignments:
        rows = ([i, int(a), int(data.labels[i])] for i, a in enumerate(result.assignments))
        _write_csv_atomic(cfg.out_assignments, ["index", "cluster", "label"], rows)
    if cfg.out_model:
        save_ensemble(cfg.out_model, [result.model])
    return out


def _cmd_eval(cfg: argparse.Namespace, _: None) -> dict:
    data = load_csv(cfg.input, has_header=cfg.has_header)
    s_idx = _column_index(cfg.score_column, data.feature_names, data.d, "score column")
    l_idx = _column_index(cfg.label_column, data.feature_names, data.d, "label column")
    scores, labels = data.features[:, s_idx], data.features[:, l_idx]
    _check_labels(labels, cfg)
    return {
        "data.rows": data.n,
        "metrics.auc_roc": auc_roc(scores, labels),
        "metrics.auc_pr": auc_pr(scores, labels),
    }


def _add_io(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file; flags override it")
    p.add_argument("--input", help="input CSV path")
    p.add_argument("--label-column", dest="label_column", help="label column name or 0-based index")
    p.add_argument("--has-header", dest="has_header", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out-report", dest="out_report")


def _add_train_common(p: argparse.ArgumentParser, ablations: tuple) -> None:
    _add_io(p)
    p.add_argument("--standardize", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--seed", type=int, default=0)
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
    _add_train_common(p, tuple(ABLATIONS))
    p.add_argument("--members", type=int)
    p.add_argument("--filter-fraction", dest="filter_fraction", type=float)
    p.add_argument("--filter-rounds", dest="filter_rounds", type=int)
    p.add_argument("--out-scores", dest="out_scores")

    p = add("cluster", help="learn an embedding and K-means it against labels")
    _add_train_common(p, tuple(ABLATIONS)[:-1])
    p.add_argument("--restarts", type=int, default=30)
    p.add_argument("--out-assignments", dest="out_assignments")

    p = add("eval", help="compute ranking metrics from a scores+labels CSV")
    _add_io(p)
    p.add_argument("--score-column", dest="score_column", default="score")
    p.set_defaults(label_column="label")
    return parser


def _peak_rss() -> dict:
    """The peak resident set of this process and of the largest child it
    reaped (its image before exec included), in MB of 2**20 bytes."""
    if resource is None:
        return {}
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes on macOS, kB on Linux
    return {
        key: resource.getrusage(who).ru_maxrss * unit / 2**20
        for key, who in (("timing.peak_rss_mb", resource.RUSAGE_SELF),
                         ("timing.children_peak_rss_mb", resource.RUSAGE_CHILDREN))
    }


_COMMANDS = {
    "anomaly": _cmd_anomaly,
    "cluster": _cmd_cluster,
    "eval": _cmd_eval,
}


def run(argv=None) -> int:
    cfg, options = parse_options(argv)
    out = _COMMANDS[cfg.task](cfg, _validate(cfg, options))
    out.update(_peak_rss())
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
