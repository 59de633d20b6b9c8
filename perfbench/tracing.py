"""Spans around the program's layer boundaries, recorded from outside.

A span wraps one public function in the namespace of the module that calls
it, so the program itself is untouched: `randist.anomaly.train` is the
encoder as the anomaly pipeline sees it. Each span records its name, start,
end, the span it ran inside, the operation (run id) it belongs to and a few
counts taken from the call's arguments or result. Spans are kept in memory
and written out when the run ends.

A wrap target that no longer exists (a refactor removed or renamed it) is
skipped; a span name whose targets are all missing is reported as absent
instead of failing the run.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time


def _train_attrs(args, kwargs, result):
    X = args[0] if args else kwargs["X"]
    config = args[1] if len(args) > 1 else kwargs["config"]
    n = len(X)
    batches = -(-n // config.batch_size)
    if n % config.batch_size == 1:  # a trailing one-row batch is skipped
        batches -= 1
    return {"rows": n, "steps": config.epochs * batches}


def _rows_attrs(args, kwargs, result):
    X = args[1] if len(args) > 1 else kwargs["X"]
    return {"rows": len(X)}


def _kmeans_attrs(args, kwargs, result):
    return {"iters": int(result.iterations_run)}


def _csv_attrs(args, kwargs, result):
    return {"cells": result.n * (result.d + (result.labels is not None))}


def _file_attrs(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _text_attrs(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode("utf-8"))}


# span name -> wrap targets (calling module, attribute) and the counts it records
SPANS = {
    "encoder.train": ([("randist.anomaly", "train"), ("randist.clustering", "train")], _train_attrs),
    "mappings.build": (
        [
            ("randist.anomaly", "rff"),
            ("randist.anomaly", "sparse_rp"),
            ("randist.clustering", "rff"),
            ("randist.clustering", "sparse_rp"),
        ],
        None,
    ),
    "mappings.apply.train": ([("randist.encoder", "apply")], None),
    "mappings.apply.score": ([("randist.losses", "apply")], None),
    "cli.run": ([("randist.cli", "run")], None),
    "anomaly.run": ([("randist.cli", "run_anomaly")], None),
    "anomaly.member": ([("randist.anomaly", "boost_train_member")], None),
    "anomaly.score_rows": ([("randist.anomaly", "score_rows")], _rows_attrs),
    "clustering.run": ([("randist.cli", "run_clustering")], None),
    "clustering.embed": ([("randist.clustering", "embed")], None),
    "clustering.kmeans": ([("randist.clustering", "kmeans")], _kmeans_attrs),
    "metrics": (
        [
            ("randist.anomaly", "auc_roc"),
            ("randist.anomaly", "auc_pr"),
            ("randist.clustering", "nmi"),
            ("randist.clustering", "pairwise_f"),
        ],
        None,
    ),
    "data.load_csv": ([("randist.cli", "load_csv")], _csv_attrs),
    "data.standardize": (
        [("randist.anomaly", "standardize_dataset"), ("randist.clustering", "standardize_dataset")],
        None,
    ),
    "persist.save_ensemble": ([("randist.cli", "save_ensemble")], _file_attrs),
    "report.write_text_atomic": ([("randist.cli", "write_text_atomic")], _text_attrs),
}

ROOT = "op"  # the span around one whole pipeline call, opened by the benchmark
# spans that only group other spans; their self time is what no layer span covers
STRUCTURAL = (ROOT, "cli.run", "anomaly.run", "clustering.run")


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, run id, counts)
        self.run_id = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []  # (module, attribute, original)
        self.present = {}  # span name -> True if at least one target exists

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name, fn, counts=None, args=(), kwargs=None):
        """Call fn inside a span named `name`; counts(args, kwargs, result) adds figures."""
        kwargs = kwargs or {}
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        extra = None
        if counts is not None:
            try:
                extra = counts(args, kwargs, result)
            except (AttributeError, KeyError, IndexError, TypeError, OSError):
                extra = None  # the call's shape changed; its counts read as absent
        self.spans.append((sid, name, start, end, parent, self.run_id, extra))
        return result

    def _wrapper(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.record(name, fn, counts, args, kwargs)

        return traced

    def install(self) -> None:
        for name, (targets, counts) in SPANS.items():
            self.present.setdefault(name, False)
            for module_name, attr in targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    continue
                self.present[name] = True
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, original, counts))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, run, extra in self.spans:
                record = {"id": sid, "name": name, "start": start, "end": end,
                          "parent": parent, "run": run}
                if extra:
                    record.update(extra)
                fh.write(json.dumps(record) + "\n")


# per-layer metric -> (unit, span names it needs present)
LAYER_METRICS = {
    "encoder.train.calls": ("count", ("encoder.train",)),
    "encoder.train.steps": ("count", ("encoder.train",)),
    "encoder.train.s": ("s", ("encoder.train",)),
    "encoder.train.self_s": ("s", ("encoder.train",)),
    "encoder.train.step_ms": ("ms", ("encoder.train",)),
    "mappings.build.calls": ("count", ("mappings.build",)),
    "mappings.build.s": ("s", ("mappings.build",)),
    "mappings.apply.train.calls": ("count", ("mappings.apply.train",)),
    "mappings.apply.train.s": ("s", ("mappings.apply.train",)),
    "mappings.apply.score.calls": ("count", ("mappings.apply.score",)),
    "mappings.apply.score.s": ("s", ("mappings.apply.score",)),
    "anomaly.score_rows.calls": ("count", ("anomaly.score_rows",)),
    "anomaly.score_rows.rows": ("count", ("anomaly.score_rows",)),
    "anomaly.score_rows.self_s": ("s", ("anomaly.score_rows",)),
    "anomaly.score_rows.rows_per_s": ("1/s", ("anomaly.score_rows",)),
    "anomaly.member.s.p50": ("s", ("anomaly.member",)),
    "anomaly.member.s.max": ("s", ("anomaly.member",)),
    "clustering.embed.s": ("s", ("clustering.embed",)),
    "clustering.kmeans.calls": ("count", ("clustering.kmeans",)),
    "clustering.kmeans.iters": ("count", ("clustering.kmeans",)),
    "clustering.kmeans.s": ("s", ("clustering.kmeans",)),
    "clustering.kmeans.ms_per_iter": ("ms", ("clustering.kmeans",)),
    "metrics.calls": ("count", ("metrics",)),
    "metrics.s": ("s", ("metrics",)),
    "data.load_csv.s": ("s", ("data.load_csv",)),
    "data.load_csv.cells_per_s": ("1/s", ("data.load_csv",)),
    "data.standardize.s": ("s", ("data.standardize",)),
    "persist.save_ensemble.s": ("s", ("persist.save_ensemble",)),
    "persist.bytes": ("B", ("persist.save_ensemble",)),
    "report.write_text_atomic.s": ("s", ("report.write_text_atomic",)),
    "report.write_text_atomic.bytes": ("B", ("report.write_text_atomic",)),
    "cli.self_s": ("s", ("cli.run",)),
    "trace.overhead_s": ("s", ()),
    "trace.covered_share": ("ratio", ()),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _op_metrics(spans: list) -> dict:
    """Per-layer figures of one traced operation."""
    children = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)

    def dur(span):
        return span[3] - span[2]

    def self_time(span):
        return dur(span) - sum(dur(c) for c in children.get(span[0], ()))

    def named(name):
        return [s for s in spans if s[1] == name]

    def total(name, key=None):
        if key is None:
            return sum(dur(s) for s in named(name))
        return sum((s[6] or {}).get(key, 0) for s in named(name))

    train = named("encoder.train")
    member_s = sorted(dur(s) for s in named("anomaly.member"))
    root = named(ROOT)[0]
    uncovered = sum(self_time(s) for s in spans if s[1] in STRUCTURAL)
    return {
        "encoder.train.calls": len(train),
        "encoder.train.steps": total("encoder.train", "steps"),
        "encoder.train.s": total("encoder.train"),
        "encoder.train.self_s": sum(self_time(s) for s in train),
        "encoder.train.step_ms": 1000.0 * _ratio(total("encoder.train"), total("encoder.train", "steps")),
        "mappings.build.calls": len(named("mappings.build")),
        "mappings.build.s": total("mappings.build"),
        "mappings.apply.train.calls": len(named("mappings.apply.train")),
        "mappings.apply.train.s": total("mappings.apply.train"),
        "mappings.apply.score.calls": len(named("mappings.apply.score")),
        "mappings.apply.score.s": total("mappings.apply.score"),
        "anomaly.score_rows.calls": len(named("anomaly.score_rows")),
        "anomaly.score_rows.rows": total("anomaly.score_rows", "rows"),
        "anomaly.score_rows.self_s": sum(self_time(s) for s in named("anomaly.score_rows")),
        "anomaly.score_rows.rows_per_s": _ratio(total("anomaly.score_rows", "rows"), total("anomaly.score_rows")),
        "anomaly.member.s.p50": statistics.median(member_s) if member_s else 0.0,
        "anomaly.member.s.max": member_s[-1] if member_s else 0.0,
        "clustering.embed.s": total("clustering.embed"),
        "clustering.kmeans.calls": len(named("clustering.kmeans")),
        "clustering.kmeans.iters": total("clustering.kmeans", "iters"),
        "clustering.kmeans.s": total("clustering.kmeans"),
        "clustering.kmeans.ms_per_iter": 1000.0 * _ratio(total("clustering.kmeans"), total("clustering.kmeans", "iters")),
        "metrics.calls": len(named("metrics")),
        "metrics.s": total("metrics"),
        "data.load_csv.s": total("data.load_csv"),
        "data.load_csv.cells_per_s": _ratio(total("data.load_csv", "cells"), total("data.load_csv")),
        "data.standardize.s": total("data.standardize"),
        "persist.save_ensemble.s": total("persist.save_ensemble"),
        "persist.bytes": total("persist.save_ensemble", "bytes"),
        "report.write_text_atomic.s": total("report.write_text_atomic"),
        "report.write_text_atomic.bytes": total("report.write_text_atomic", "bytes"),
        "cli.self_s": sum(self_time(s) for s in named("cli.run")),
        "trace.covered_share": 1.0 - _ratio(uncovered, dur(root)),
    }


def layer_metrics(tracer: Tracer, traced_s: list, untraced_s: list) -> dict:
    """Median over traced operations of each per-layer figure.

    A figure whose span is absent from the program reads None. Counts are
    the same in every operation of one run, so their median is that count.
    """
    by_run = {}
    for span in tracer.spans:
        by_run.setdefault(span[5], []).append(span)
    per_op = [_op_metrics(spans) for run, spans in sorted(by_run.items()) if run is not None]
    out = {}
    for name, (unit, needs) in LAYER_METRICS.items():
        if name == "trace.overhead_s":
            value = statistics.median(traced_s) - statistics.median(untraced_s)
        elif any(not tracer.present.get(n, False) for n in needs):
            value = None
        elif unit in ("count", "B"):  # a count stays a whole number
            value = statistics.median_low(op[name] for op in per_op)
        else:
            value = statistics.median(op[name] for op in per_op)
        out[name] = {"value": value, "unit": unit}
    return out
