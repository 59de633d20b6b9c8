"""Dataset ingestion, column standardization and synthetic generators.

All matrices are dense row-major float64. Standardization uses the
population convention (std over n, not n-1) everywhere; constant columns
become all-zero instead of raising because real tabular data routinely
contains them.
"""
from __future__ import annotations

import csv
import itertools
import math
import os
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DataError
from .forks import process_count, run_shares
from .rng import stream

SHARE_MIN_BYTES = 1 << 20  # a CSV share's least size: ~20 ms of parse, against ~5 ms to fork


@dataclass
class Dataset:
    """A numeric table with optional per-row integer labels."""

    features: np.ndarray
    labels: Optional[np.ndarray] = None
    feature_names: Optional[list] = None
    processes: int = 1  # the processes its file was parsed in, the caller's included

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise DataError(
                f"features must be a non-empty 2-D matrix, got shape {np.shape(self.features)}"
            )
        # with no n x d mask: NaN carries through both, an infinity is one of them
        if not (np.isfinite(feats.min()) and np.isfinite(feats.max())):
            raise DataError("features contain non-finite values")
        self.features = feats
        if self.labels is not None:
            labels = values = np.asarray(self.labels)
            bad = ()
            if labels.dtype.kind not in "biu":  # the cast would truncate 0.5 and turn NaN into -2**63
                values = labels.astype(np.float64)
                bad = np.flatnonzero(~((values == np.trunc(values)) & (values >= -(2.0**63)) & (values < 2.0**63)))
            elif labels.dtype.kind == "u" and labels.dtype.itemsize == 8:  # the cast would wrap 2**63 to -2**63
                bad = np.flatnonzero(labels >= 2**63)
            if len(bad):
                i = bad[0]
                raise DataError(f"label {values[i].item()!r} at index {i} is not an integer in [-2**63, 2**63)")
            labels = labels.astype(np.int64, copy=False)
            if labels.shape != (feats.shape[0],):
                raise DataError(
                    f"labels must have length {feats.shape[0]}, got shape {labels.shape}"
                )
            self.labels = labels
        if self.feature_names is not None:
            names = [str(c) for c in self.feature_names]
            if len(names) != feats.shape[1]:
                raise DataError(
                    f"feature_names must have length {feats.shape[1]}, got {len(names)}"
                )
            self.feature_names = names

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass
class StandardizeParams:
    """Per-column means and stds; stds of constant columns are stored as 1."""

    means: np.ndarray
    stds: np.ndarray


def _parse_cell(cell: str, row: int, col_name: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(
            f"non-numeric cell {cell!r} at row {row}, column {col_name}"
        ) from None
    if not math.isfinite(value):
        raise DataError(f"non-finite cell {cell!r} at row {row}, column {col_name}")
    return value


def _is_label(value: float, cell: str) -> bool:
    # a finite float that converts to int64 without truncation or overflow and,
    # from 2**53 on where float64 skips integers, equals the digits of its cell
    if not (value.is_integer() and -(2.0**63) <= value < 2.0**63):
        return False
    if abs(value) < 2.0**53:
        return True
    from decimal import Decimal  # imported on this rare path only, to keep it off startup

    return Decimal(cell.strip()) == Decimal(float(value))


def _raise_row_error(cells: list, row: int, header: Optional[list], label_idx: Optional[int]):
    """Raise the DataError for the first bad cell of a row, checking cell by cell."""
    for c, cell in enumerate(cells):
        col_name = repr(header[c]) if header is not None and c < len(header) else str(c)
        value = _parse_cell(cell.strip(), row, col_name)
        if c == label_idx and not _is_label(value, cell):
            if value != int(value):
                raise DataError(f"label cell {cell!r} at row {row} is not an integer")
            if -(2.0**63) <= value < 2.0**63:
                raise DataError(f"label cell {cell!r} at row {row} has no exact float64 value")
            raise DataError(f"label cell {cell!r} at row {row} is outside the int64 range")


def load_csv(
    path,
    label_column: Union[str, int, None] = None,
    has_header: bool = True,
) -> Dataset:
    """Read a comma-delimited numeric table.

    `label_column` selects the label column by header name or 0-based index;
    when given, that column is extracted into integer labels. Rows keep
    their file order. Every cell reads as Python's `float()` of the stripped
    cell. A plain numeric table (unquoted cells, no blank lines, finite
    values, labels below 2**53) in a seekable file is parsed by numpy's C
    reader, in shares of at least SHARE_MIN_BYTES, one per process; any
    other table, and every bad one, goes through a row-by-row check. Either
    way memory tracks the float table rather than the text. Error messages
    name the first offending row (1-based file line) and column.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            return _read_table(fh, path, label_column, has_header)
    except OSError as err:
        raise DataError(f"cannot read {path}: {err}") from err


def _csv_rows(lines, first_line: int):
    """(row number, cells) of each csv row of `lines`, counting from first_line;
    a row the csv module cannot split (a cell over its field size limit) raises
    DataError."""
    reader = csv.reader(lines)
    line = first_line
    while True:
        try:
            cells = next(reader)
        except StopIteration:
            return
        except csv.Error as err:
            raise DataError(f"cannot read row {line}: {err}") from None
        yield line, cells
        line += 1


def _column_index(selector: Union[str, int], header: Optional[list], width: int, what: str) -> int:
    """The 0-based index of the column that `selector` names, by header name or by index."""
    if isinstance(selector, str) and not selector.lstrip("-").isdigit():
        if header is None:
            raise DataError(f"{what} given by name but file has no header")
        if selector not in header:
            raise DataError(f"{what} {selector!r} not found in header {header}")
        return header.index(selector)
    idx = int(selector)
    if not 0 <= idx < width:
        raise DataError(f"{what} index {idx} out of range for {width} columns")
    return idx


def _read_table(fh, path, label_column, has_header: bool) -> Dataset:
    rows = _csv_rows(iter(fh.readline, ""), 1)  # readline, unlike next(fh), keeps fh.tell()
    header: Optional[list] = None
    if has_header:
        header_row = next(rows, None)
        if header_row is None:
            raise DataError(f"{path} is empty")
        header = [c.strip() for c in header_row[1]]
    start = fh.tell() if fh.seekable() else None
    first = next(rows, None)
    if first is None:
        raise DataError(f"{path} has no data rows")

    width = len(first[1])
    label_idx = None if label_column is None else _column_index(label_column, header, width, "label column")

    processes = 1
    if start is None:  # a pipe cannot rewind from the C pass to the row loop
        tables = [_parse_rows(itertools.chain([first], rows), width, header, label_idx)]
    else:
        bounds = _share_bounds(path, start)
        try:
            tables = _parse_plain(path, bounds, width, label_idx)
            processes = len(bounds)
        except ValueError:  # the row loop returns the same table or names the first bad cell
            fh.seek(start)
            tables = [_parse_rows(_csv_rows(fh, first[0]), width, header, label_idx)]
    features, labels = _split_labels(tables, label_idx)
    names = None
    if header is not None:
        names = [h for i, h in enumerate(header) if i != label_idx]
    return Dataset(features=features, labels=labels, feature_names=names, processes=processes)


def _split_labels(tables: list, label_idx: Optional[int]) -> tuple:
    """The features and labels of the row-wise parts `tables` of one table,
    with the label column (if any) taken out: each part is copied into one
    n x (width - 1) feature array, with no joined table in between."""
    if label_idx is None:
        return (tables[0] if len(tables) == 1 else np.concatenate(tables)), None
    n = sum(table.shape[0] for table in tables)
    features = np.empty((n, tables[0].shape[1] - 1))
    labels = np.empty(n, dtype=np.int64)
    row = 0
    for table in tables:
        rows = slice(row, row + table.shape[0])
        features[rows, :label_idx] = table[:, :label_idx]
        features[rows, label_idx:] = table[:, label_idx + 1 :]
        labels[rows] = table[:, label_idx]  # integral values (checked), cast as astype does
        row = rows.stop
    return features, labels


def _share_bounds(path, start) -> list:
    """Where each share of the data rows begins: `start`, then the byte after a
    newline near each p-th of the rest, p processes (`process_count`) of at least
    SHARE_MIN_BYTES each. A `start` past the end (a text position after a lone CR) gives one."""
    with open(path, "rb") as raw:
        size = raw.seek(0, os.SEEK_END)
        shares = process_count((size - start) // SHARE_MIN_BYTES)
        bounds = [start]
        for k in range(1, shares):
            raw.seek(max(bounds[-1] + 1, start + (size - start) * k // shares) - 1)
            raw.readline()  # to the first line that starts there or after
            if raw.tell() >= size:
                break
            bounds.append(raw.tell())
    return bounds


def _plain_lines(fh, size: float):
    """fh's lines, the first `size` bytes of them; a blank one raises ValueError."""
    for line in fh:
        if not line.strip():  # loadtxt skips such a line; the row loop calls it ragged
            raise ValueError("blank line")
        yield line
        size -= len(line) if line.isascii() else len(line.encode("utf-8"))
        if size <= 0:
            return


def _parse_plain(path, bounds: list, width: int, label_idx: Optional[int]) -> list:
    """The data rows, one table per share, from one loadtxt pass per share
    (`run_shares`) from each of `bounds` to the next; a ValueError where they
    might differ from `_parse_rows`, and any other error (an OSError) as is.

    Each share reads through its own handle, as a forked child shares the
    caller's file offsets. A share begins after a newline, where a line
    begins in text mode too and a UTF-8 handle's position is the byte
    offset, so the shares hold the lines of one pass. loadtxt strips a field by the same predicate as
    `str.strip` and parses it with the same correctly rounded conversion as
    `float()`; it rejects the quoted, underscored and non-ASCII-digit cells
    that `float()` or the csv module would read differently. What it would
    accept but the row loop rejects (non-finite cells, labels that need their
    cell's digits) is checked on each share's table.
    """
    sizes = [b - a for a, b in zip(bounds, bounds[1:])] + [math.inf]  # the last runs to the end

    def share(k: int) -> np.ndarray:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            fh.seek(bounds[k])
            lines = _plain_lines(fh, sizes[k])
            table = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None, dtype=np.float64, ndmin=2)
        if table.shape[1] != width or (table.size and not (np.isfinite(table.min()) and np.isfinite(table.max()))):
            raise ValueError("not a plain table")
        if label_idx is not None:
            labels = table[:, label_idx]
            if not (np.all(labels == np.trunc(labels)) and np.all(np.abs(labels) < 2.0**53)):
                raise ValueError("labels the row loop must check")
        return table

    return run_shares(share, len(bounds), "csv parse")


def _parse_rows(numbered_rows, width: int, header, label_idx) -> np.ndarray:
    """Parse the (row number, cells) pairs one by one, raising the DataError of
    the first bad cell."""
    rows = []
    for line, cells in numbered_rows:
        if len(cells) != width:  # fromiter below would truncate a long row
            raise DataError(f"ragged row {line}: expected {width} cells, got {len(cells)}")
        try:
            values = np.fromiter(map(float, map(str.strip, cells)), np.float64, width)
        except ValueError:
            values = None
        if values is None or not np.isfinite(values).all() or (
            label_idx is not None and not _is_label(values[label_idx], cells[label_idx])
        ):
            _raise_row_error(cells, line, header, label_idx)
        rows.append(values)
    return np.stack(rows)


def write_csv(data: Dataset, path) -> None:
    """Write a Dataset so that `load_csv` round-trips it exactly.

    Floats are written with shortest round-trip repr; a label column named
    "label" is appended when labels are present.
    """
    names = data.feature_names or [f"c{i}" for i in range(data.d)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + (["label"] if data.labels is not None else []))
        for r in range(data.n):
            row = [repr(float(v)) for v in data.features[r]]
            if data.labels is not None:
                row.append(str(int(data.labels[r])))
            writer.writerow(row)


def standardize(data: Dataset) -> tuple[Dataset, StandardizeParams]:
    """Shift and scale every column to mean 0, population std 1.

    Constant columns become all zeros (std stored as 1 so un-applying is
    still exact).
    """
    X = data.features
    const = X.max(axis=0) == X.min(axis=0)
    means = X.mean(axis=0)
    means[const] = X[0, const]  # exact value, so round-trip is bit-clean
    stds = X.std(axis=0)
    stds[const] = 1.0
    out = X - means
    out /= stds  # in place: the same two roundings, one n x d array fewer
    out[:, const] = 0.0
    params = StandardizeParams(means=means, stds=stds)
    return Dataset(out, labels=data.labels, feature_names=data.feature_names), params


def synth_blobs(k: int, per_cluster: int, d: int, *, seed: int = 0) -> Dataset:
    """Unit-variance Gaussian clusters with centers >= 12 apart pairwise.

    Centers sit on a lattice rotated by a random orthogonal matrix, so the
    between-cluster structure is spread over all coordinates instead of a
    few (a pure lattice loses its separation to per-column
    standardization). Rows are cluster-major; labels are the cluster ids
    0..k-1.
    """
    if k < 1 or per_cluster < 1 or d < 1:
        raise ValueError(f"k, per_cluster and d must be positive, got {k}, {per_cluster}, {d}")
    side = 1
    while side**d < k:
        side += 1
    centers = np.zeros((k, d))
    for i in range(k):
        digits, rest = [], i
        for _ in range(d):
            digits.append(rest % side)
            rest //= side
        centers[i] = np.asarray(digits, dtype=np.float64) * 12.0
    rng = stream(seed)
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    centers = centers @ rotation.T
    feats = np.repeat(centers, per_cluster, axis=0) + rng.standard_normal((k * per_cluster, d))
    labels = np.repeat(np.arange(k), per_cluster)
    return Dataset(feats, labels=labels)


def synth_anomaly(n_normal: int, n_anomaly: int, d: int, seed: int = 0) -> Dataset:
    """Standard-Gaussian normals plus anomalies on a distant shell.

    The shell starts at least six per-coordinate standard deviations from
    the origin and, for moderate d, six norm-standard-deviations beyond the
    bulk radius sqrt(d), so every anomaly outranks every normal in norm
    with overwhelming probability. Labels: 1 = anomaly, 0 = normal; rows
    are normals first.
    """
    if n_normal < 1 or d < 1:
        raise ValueError(f"n_normal and d must be positive, got {n_normal}, {d}")
    if n_anomaly < 0 or n_anomaly >= n_normal:
        raise ValueError(f"need 0 <= n_anomaly < n_normal, got {n_anomaly} vs {n_normal}")
    rng = stream(seed)
    normals = rng.standard_normal((n_normal, d))
    lo = max(6.0, math.sqrt(d) + 6.0 / math.sqrt(2.0))
    hi = lo + 2.0 / math.sqrt(2.0)
    directions = rng.standard_normal((n_anomaly, d))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = rng.uniform(lo, hi, size=(n_anomaly, 1))
    anomalies = directions / norms * radii
    feats = np.vstack([normals, anomalies])
    labels = np.concatenate([np.zeros(n_normal, dtype=np.int64), np.ones(n_anomaly, dtype=np.int64)])
    return Dataset(feats, labels=labels)
