"""Dataset container and CSV ingestion.

A dataset is a dense float feature matrix plus integer class labels, with two
optional per-point annotations: a group tag (used for per-group vulnerability
reporting) and a membership flag (used when a split doubles as an attack
evaluation set).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    groups: list[str] | None = None
    membership: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if self.features.shape[0] < 1:
            raise ValueError("dataset must contain at least one point")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise ValueError("labels must be 1-D with one entry per row")
        if not np.issubdtype(self.labels.dtype, np.integer):
            as_int = self.labels.astype(np.int64)
            if not np.array_equal(as_int, self.labels):
                raise ValueError("labels must be integers")
            self.labels = as_int
        else:
            self.labels = self.labels.astype(np.int64)
        if np.any(self.labels < 0):
            raise ValueError("labels must be non-negative")
        if self.groups is not None and len(self.groups) != self.n_points:
            raise ValueError("groups must have one tag per point")
        if self.membership is not None:
            self.membership = np.asarray(self.membership, dtype=bool)
            if self.membership.shape != (self.n_points,):
                raise ValueError("membership must have one flag per point")

    @property
    def n_points(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1

    def subset(self, indices, membership: np.ndarray | None = None) -> "Dataset":
        """Row-select a new dataset, carrying annotations along."""
        indices = np.asarray(indices)
        groups = [self.groups[i] for i in indices] if self.groups is not None else None
        if membership is None and self.membership is not None:
            membership = self.membership[indices]
        return Dataset(
            features=self.features[indices],
            labels=self.labels[indices],
            groups=groups,
            membership=membership,
        )


def load_csv_dataset(
    path: str | Path,
    label_column: str,
    group_column: str | None = None,
) -> Dataset:
    """Load a headered CSV with numeric feature columns and integer labels.

    Every column other than the label (and optional group) column is treated
    as a feature. Parse failures report the offending row and column.
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
        if label_column not in header:
            raise ValueError(f"{path}: no column named {label_column!r} in header")
        if group_column is not None and group_column not in header:
            raise ValueError(f"{path}: no column named {group_column!r} in header")
        label_idx = header.index(label_column)
        group_idx = header.index(group_column) if group_column is not None else None
        feature_idx = [
            i for i in range(len(header)) if i != label_idx and i != group_idx
        ]

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
                raise ValueError(
                    f"{path}: row {row_no}, column {label_column!r}: "
                    f"non-integer label {row[label_idx]!r}"
                ) from None
            rows.append(feats)
            labels.append(label)
            if group_idx is not None:
                groups.append(row[group_idx])

    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Dataset(
        features=np.array(rows, dtype=np.float64),
        labels=np.array(labels, dtype=np.int64),
        groups=groups if group_column is not None else None,
    )


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
