"""The benchmark's workloads: inputs made from a seed, one pipeline call per
operation, and the checks on its output.

Each workload runs a fixed list of input variants in turn. Variant v of a
workload differs from variant 0 only in the training seed, so the data
stays one table per seed. The quality figures are the mean over all
variants: a few-member ensemble's AUC moves a lot with its training seed,
and the mean over variants is what makes it repeat from seed to seed.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np


def derive_seed(*parts) -> int:
    """A non-negative 31-bit seed from any labels, stable across processes."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def filtered_rows(n: int, fraction: float, rounds: int) -> list:
    """Training rows of each fit: the full table, then after each filter round."""
    rows = [n]
    for _ in range(rounds):
        rows.append(rows[-1] - max(1, math.floor(fraction * rows[-1])))
    return rows


@dataclass
class Outcome:
    """What one operation produced, for the checks and the quality figures."""

    values: np.ndarray  # scores or assignments, one per input row
    quality: dict  # name -> value, deterministic per input


class Workload:
    name = ""
    why = ""
    variants = 1
    quality_names = ("", "")  # (primary, secondary), as the program names them

    def __init__(self):
        self.state = {}
        self.row_epochs = 0  # training rows x epochs over every fit of one operation
        self.notes = {}  # figures reported beside the metrics, made by final_problems

    def generate(self, rd, seed: int, workdir: str) -> None:
        raise NotImplementedError

    def prepare(self, rd, seed: int, workdir: str) -> None:
        raise NotImplementedError

    def run(self, v: int):
        raise NotImplementedError

    def outcome(self, v: int, result) -> Outcome:
        raise NotImplementedError

    def final_problems(self) -> list:
        """Checks made once after the timed loop; an empty list means they pass."""
        return []


def _save_table(path: str, data) -> None:
    np.savez(path, features=data.features, labels=data.labels)


def _load_table(rd, path: str):
    with np.load(path) as arrays:
        return rd.Dataset(arrays["features"], labels=arrays["labels"])


def _row_norm_baseline(rd, X: np.ndarray, labels: np.ndarray) -> dict:
    """How well the norm of a standardized row alone ranks the anomalies."""
    norms = np.linalg.norm(X, axis=1)
    return {"row_norm.auc_roc": rd.auc_roc(norms, labels), "row_norm.auc_pr": rd.auc_pr(norms, labels)}


class AnomalyPaper(Workload):
    name = "anomaly-paper"
    why = "paper anomaly recipe at m=50 < B=192: per-step novelty apply, row-loop scoring; no K-means, no file I/O"
    variants = 4
    quality_names = ("auc_roc", "auc_pr")
    MEMBERS = 2
    EPOCHS = 40

    def generate(self, rd, seed, workdir):
        data = rd.synth_anomaly(950, 50, 16, seed=derive_seed(self.name, seed, "data"))
        _save_table(os.path.join(workdir, "table.npz"), data)

    def prepare(self, rd, seed, workdir):
        data = _load_table(rd, os.path.join(workdir, "table.npz"))
        configs = [
            rd.BoostConfig(
                train=rd.TrainConfig.anomaly_defaults(
                    epochs=self.EPOCHS, seed=derive_seed(self.name, seed, "train", v)
                ),
                members=self.MEMBERS,
            )
            for v in range(self.variants)
        ]
        rows = filtered_rows(data.n, configs[0].filter_fraction, configs[0].filter_rounds)
        self.state = {"rd": rd, "data": data, "configs": configs, "n": data.n}
        self.row_epochs = self.MEMBERS * self.EPOCHS * sum(rows)

    def run(self, v):
        return self.state["rd"].run_anomaly(self.state["data"], self.state["configs"][v])

    def outcome(self, v, result):
        return Outcome(
            values=np.asarray(result.scores, dtype=np.float64),
            quality={"auc_roc": result.auc_roc, "auc_pr": result.auc_pr},
        )

    def final_problems(self):
        rd, data = self.state["rd"], self.state["data"]
        self.notes = _row_norm_baseline(rd, rd.standardize(data)[0].features, data.labels)
        return []


class ClusterWide(Workload):
    name = "cluster-wide"
    why = "clustering at m=1024 >= B: B x B Gram and decoder products, 30 K-means restarts; control with no novelty apply and no scoring"
    variants = 4
    quality_names = ("nmi_mean", "f_mean")
    EPOCHS = 20
    RESTARTS = 30

    def generate(self, rd, seed, workdir):
        data = rd.synth_blobs(4, 250, 32, seed=derive_seed(self.name, seed, "data"))
        _save_table(os.path.join(workdir, "table.npz"), data)

    def prepare(self, rd, seed, workdir):
        data = _load_table(rd, os.path.join(workdir, "table.npz"))
        configs = [
            rd.TrainConfig.clustering_defaults(
                epochs=self.EPOCHS, seed=derive_seed(self.name, seed, "train", v)
            )
            for v in range(self.variants)
        ]
        self.state = {"rd": rd, "data": data, "configs": configs, "n": data.n}
        self.row_epochs = data.n * self.EPOCHS

    def run(self, v):
        return self.state["rd"].run_clustering(
            self.state["data"], self.state["configs"][v], restarts=self.RESTARTS
        )

    def outcome(self, v, result):
        return Outcome(
            values=np.asarray(result.assignments, dtype=np.int64),
            quality={"nmi_mean": result.nmi_mean, "f_mean": result.f_mean},
        )


def _read_report(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.strip().partition(" = ")
            if sep:
                out[key] = value
    return out


def _read_scores(path: str) -> np.ndarray:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("score")
    return np.array([float(r[col]) for r in rows[1:]], dtype=np.float64)


class CliAnomalyWide(Workload):
    name = "cli-anomaly-wide"
    why = "randist anomaly CLI on a SECOM-shaped 1567 x 590 CSV: d >> m, CSV parse, scores CSV, model file and report"
    variants = 8
    quality_names = ("auc_roc", "auc_pr")
    MEMBERS = 2
    EPOCHS = 10

    def generate(self, rd, seed, workdir):
        data = rd.synth_anomaly(1463, 104, 590, seed=derive_seed(self.name, seed, "data"))
        rd.write_csv(data, os.path.join(workdir, "table.csv"))

    def prepare(self, rd, seed, workdir):
        from randist import cli

        out = os.path.join(workdir, "out")
        os.makedirs(out, exist_ok=True)
        paths = {
            "input": os.path.join(workdir, "table.csv"),
            "scores": os.path.join(out, "scores.csv"),
            "model": os.path.join(out, "model.rdst"),
            "report": os.path.join(out, "report.txt"),
        }
        argvs = [
            [
                "anomaly",
                "--input", paths["input"],
                "--label-column", "label",
                "--members", str(self.MEMBERS),
                "--epochs", str(self.EPOCHS),
                "--seed", str(derive_seed(self.name, seed, "train", v)),
                "--out-scores", paths["scores"],
                "--out-model", paths["model"],
                "--out-report", paths["report"],
            ]
            for v in range(self.variants)
        ]
        n = 1463 + 104
        self.state = {"rd": rd, "cli": cli, "paths": paths, "argvs": argvs, "n": n}
        # the CLI's default filter: one round dropping 5% of the rows
        self.row_epochs = self.MEMBERS * self.EPOCHS * sum(filtered_rows(n, 0.05, 1))

    def run(self, v):
        # the CLI echoes its report on stdout; the copy in --out-report is the one checked
        with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            code = self.state["cli"].run(self.state["argvs"][v])
        if code != 0:
            raise RuntimeError(f"randist anomaly exited with code {code}")
        return code

    def outcome(self, v, result):
        paths = self.state["paths"]
        report = _read_report(paths["report"])
        return Outcome(
            values=_read_scores(paths["scores"]),
            quality={
                "auc_roc": float(report["metrics.auc_roc"]),
                "auc_pr": float(report["metrics.auc_pr"]),
            },
        )

    def final_problems(self):
        """The saved ensemble reproduces the scores CSV of the run that wrote it."""
        rd, paths = self.state["rd"], self.state["paths"]
        models = rd.load_ensemble(paths["model"])
        data = rd.load_csv(paths["input"], label_column="label")
        X = rd.standardize(data)[0].features
        self.notes = _row_norm_baseline(rd, X, data.labels)
        rescored = np.stack([rd.score_rows(m, X) for m in models]).mean(axis=0)
        written = _read_scores(paths["scores"])
        if rescored.shape != written.shape or rescored.tobytes() != written.tobytes():
            differ = int(np.sum(rescored != written)) if rescored.shape == written.shape else -1
            return [f"saved model does not reproduce --out-scores bit-exactly ({differ} rows differ)"]
        return []


WORKLOADS = {cls.name: cls for cls in (AnomalyPaper, ClusterWide, CliAnomalyWide)}
