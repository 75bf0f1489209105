"""Dataset container and CSV ingestion.

A dataset is a dense float feature matrix plus integer class labels, with an
optional per-point group tag (used for per-group vulnerability reporting).
"""
from __future__ import annotations

import csv
import mmap
from dataclasses import dataclass
from itertools import chain, islice, zip_longest
from pathlib import Path

import numpy as np

from .models import fork_map, usable_cpus


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    groups: list[str] | None = None

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if self.features.shape[0] < 1:
            raise ValueError("dataset must contain at least one point")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise ValueError("labels must be 1-D with one entry per row")
        as_int = self.labels.astype(np.int64)
        if not np.array_equal(as_int, self.labels):
            raise ValueError("labels must be integers")
        self.labels = as_int
        if np.any(self.labels < 0):
            raise ValueError("labels must be non-negative")
        if self.groups is not None and len(self.groups) != self.n_points:
            raise ValueError("groups must have one tag per point")

    @property
    def n_points(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1

    def subset(self, indices) -> "Dataset":
        """Row-select a new dataset, carrying the group tags along."""
        indices = np.asarray(indices)
        groups = [self.groups[i] for i in indices] if self.groups is not None else None
        return Dataset(self.features[indices], self.labels[indices], groups)


def load_csv_dataset(
    path: str | Path,
    label_column: str,
    group_column: str | None = None,
) -> Dataset:
    """Load a headered CSV with numeric feature columns and integer labels.

    Every column other than the label (and optional group) column is treated
    as a feature; header names must be unique. Every file is first parsed in
    numpy's C parser, which accepts a strict subset of what the Python row loop
    accepts and returns the same arrays and group cells. A file it refuses (a
    quote, a blank or ragged line, a cell such as ``1_000`` or a label such as
    ``1.0``) goes through the row loop, whose parse errors name the row and
    column, as does the error for a nan/inf feature.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        if _looks_numeric(header):
            raise ValueError(f"{path}: first row looks like data, expected a header")
        if len(set(header)) < len(header):
            name = next(name for i, name in enumerate(header) if name in header[:i])
            raise ValueError(f"{path}: column {name!r} appears more than once in header")
        for column in (label_column, group_column):
            if column is not None and column not in header:
                raise ValueError(f"{path}: no column named {column!r} in header")
        label_idx = header.index(label_column)
        group_idx = header.index(group_column) if group_column is not None else None
        feature_idx = [
            i for i in range(len(header)) if i != label_idx and i != group_idx
        ]
        if not feature_idx:
            raise ValueError(f"{path}: no feature column besides the label and group columns")
        columns = (_load_columns(path, len(header), feature_idx, label_idx, group_idx)
                   or _read_rows(path, reader, header, feature_idx, label_idx, group_idx))
    features, labels, groups = columns
    # min and max are non-finite exactly when some cell is, and need no
    # n x d mask on the common path.
    if features.size and not (np.isfinite(features.min()) and np.isfinite(features.max())):
        row, col = np.argwhere(~np.isfinite(features))[0]
        raise ValueError(
            f"{path}: row {row + 2}, column {header[feature_idx[col]]!r}: "
            f"non-finite value {float(features[row, col])!r}"
        )
    return Dataset(features=features, labels=labels, groups=groups)


def _load_columns(path: Path, n_cols: int, feature_idx: list[int], label_idx: int, group_idx=None):
    """(features, labels, groups) through `np.loadtxt` in shares, or None for the row loop.

    Only lines the csv module would split on every comma into `n_cols` cells
    reach loadtxt: no quote, no blank line (loadtxt skips those), no line past
    the csv field limit. That check stands in for the cell count `usecols`
    turns off. numpy refuses every cell that `float()` or `int()` reads
    differently (``1_000``, non-ASCII digits, a label ``1.0`` or outside int64).
    Share k of w, w the usable CPUs, is one `fork_map` job that writes data lines k, k + w, ...
    into those rows of two shared anonymous mappings; only its row count or group cells go back.
    """
    with path.open("rb") as raw:  # universal newlines end one line at most per b"\n" or b"\r"
        chunks = iter(lambda: raw.read(1 << 20), b"")
        bound = 1 + sum(chunk.count(b"\n") + chunk.count(b"\r") for chunk in chunks)
    d = len(feature_idx)
    w = len(usable_cpus())
    features = np.frombuffer(mmap.mmap(-1, 8 * d * bound), np.float64).reshape(bound, d)
    labels = np.frombuffer(mmap.mmap(-1, 8 * bound), np.int64)
    usecols = feature_idx + [label_idx] + ([] if group_idx is None else [group_idx])
    shared = (path, n_cols, usecols, features, labels, w)
    try:  # from a line check or a cell numpy refuses: the row loop names it
        parts = fork_map(_parse_share, shared, [(k,) for k in range(w)])
    except ValueError:
        return None
    groups = None if group_idx is None else [  # share k's cells are rows k, k + w, ...
        cell for row in zip_longest(*parts) for cell in row if cell is not None]
    n = sum(parts) if groups is None else len(groups)
    return (features[:n], labels[:n], groups) if n else None


def _parse_share(path: Path, n_cols: int, usecols: list[int], features, labels, w: int, k: int):
    """Share k of w: data lines k, k + w, ..., checked and parsed into those rows of features and
    labels; returns its row count (0 for no line: loadtxt warns on it), or, when usecols ends in a
    group column, its cells, read as an `object` field: the csv module's `str`s, spaces kept."""
    def checked(lines):
        for line in lines:
            if (line.count(",") != n_cols - 1 or '"' in line or not line.strip()
                    or len(line) > csv.field_size_limit()):
                raise ValueError("left to the row loop")
            yield line

    grouped = len(usecols) == features.shape[1] + 2
    with path.open(newline="") as handle:
        lines = islice(handle, 1 + k, None, w)
        if (first := next(lines, None)) is None:
            return [] if grouped else 0
        dtype = [("x", np.float64, (features.shape[1],)), ("y", np.int64), ("g", object)]
        table = np.loadtxt(checked(chain([first], lines)), dtype[:2 + grouped], delimiter=",",
                           comments=None, usecols=usecols, ndmin=1)
    features[k::w][:len(table)], labels[k::w][:len(table)] = table["x"], table["y"]
    return table["g"].tolist() if grouped else len(table)


def _read_rows(path: Path, reader, header: list[str], feature_idx, label_idx, group_idx):
    """(features, labels, groups) from the csv reader, one Python row at a time."""
    rows: list[list[float]] = []
    labels: list[int] = []
    groups: list[str] = []
    for row_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ValueError(
                f"{path}: row {row_no} has {len(row)} cells, header has {len(header)}"
            )
        feats = []
        for i in feature_idx:
            try:
                feats.append(float(row[i]))
            except ValueError:
                raise ValueError(
                    f"{path}: row {row_no}, column {header[i]!r}: "
                    f"non-numeric value {row[i]!r}"
                ) from None
        try:
            label = int(row[label_idx])
        except ValueError:
            label = None
        if label is None or not -(2**63) <= label < 2**63:
            raise ValueError(
                f"{path}: row {row_no}, column {header[label_idx]!r}: "
                f"label {row[label_idx]!r} is not a 64-bit integer"
            )
        rows.append(feats)
        labels.append(label)
        if group_idx is not None:
            groups.append(row[group_idx])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    groups = groups if group_idx is not None else None
    return np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int64), groups


def write_csv_dataset(path: str | Path, dataset: Dataset) -> None:
    """Write a dataset in the format load_csv_dataset reads back."""
    path = Path(path)
    header = [f"f{i}" for i in range(dataset.n_features)] + ["label"]
    if dataset.groups is not None:
        header.append("group")
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(dataset.n_points):
            row = [repr(v) for v in dataset.features[i].tolist()]
            row.append(str(int(dataset.labels[i])))
            if dataset.groups is not None:
                row.append(dataset.groups[i])
            writer.writerow(row)


def _looks_numeric(cells: list[str]) -> bool:
    for cell in cells:
        try:
            float(cell)
        except ValueError:
            return False
    return True
