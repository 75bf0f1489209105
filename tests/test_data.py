"""CSV ingestion and the writer that feeds it."""
from __future__ import annotations

import numpy as np
import pytest

from explainleak import Dataset, SynthConfig, generate_synthetic
from explainleak.data import load_csv_dataset, write_csv_dataset


def test_csv_round_trip_is_exact(tmp_path):
    # Float64 features of every magnitude, including ones whose numpy repr
    # is not a plain float literal under numpy 2.
    rng = np.random.default_rng(3)
    features = rng.normal(size=(6, 4)) * np.array([1e-300, 1e-3, 1.0, 1e300])
    features[0, 0] = 0.1
    features[1, 1] = -0.0
    original = Dataset(features, np.array([0, 1, 2, 0, 1, 2]), groups=list("abcabc"))
    path = tmp_path / "data.csv"
    write_csv_dataset(path, original)
    loaded = load_csv_dataset(path, "label", "group")
    np.testing.assert_array_equal(loaded.features, original.features)
    assert loaded.features.tobytes() == original.features.tobytes()
    np.testing.assert_array_equal(loaded.labels, original.labels)
    assert loaded.groups == original.groups


def test_cells_are_plain_float_literals(tmp_path):
    dataset = generate_synthetic(SynthConfig(n_features=3, n_samples=10, seed=4))
    path = tmp_path / "synth.csv"
    write_csv_dataset(path, dataset)
    first_row = path.read_text().splitlines()[1].split(",")
    assert first_row[0] == repr(float(dataset.features[0, 0]))
    assert not any("np." in cell for cell in first_row)


@pytest.mark.parametrize(
    "cell, row, column", [("nan", 4, "x1"), ("inf", 7, "x0"), ("-Infinity", 41, "x1")]
)
def test_non_finite_cell_names_row_and_column(tmp_path, cell, row, column):
    lines = ["x0,x1,label"] + [f"{i}.0,{-i}.5,{i % 2}" for i in range(40)]
    x0, x1, label = lines[row - 1].split(",")
    lines[row - 1] = ",".join([cell if column == "x0" else x0, cell if column == "x1" else x1, label])
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"row {row}, column '{column}': non-finite value"):
        load_csv_dataset(path, "label")
