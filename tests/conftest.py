"""Shared fixtures and finite-difference helpers for the test suite."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from explainleak import Dataset, LayerSpec, TrainConfig, init_model, train

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a
# CI failure reproduces locally; tests keep their own example counts.
settings.register_profile("ci", derandomize=True, deadline=None)


def finite_difference_gradient(func, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one feature at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        plus = x.copy()
        minus = x.copy()
        plus[i] += h
        minus[i] -= h
        grad[i] = (func(plus) - func(minus)) / (2.0 * h)
    return grad


def relative_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """Max elementwise error scaled by the gradient's overall magnitude."""
    scale = max(1e-8, float(np.max(np.abs(exact))))
    return float(np.max(np.abs(approx - exact))) / scale


def two_blob_dataset(
    n: int = 40,
    n_features: int = 4,
    sep: float = 2.0,
    std: float = 0.6,
    seed: int = 0,
) -> Dataset:
    """Two Gaussian blobs at +-sep/2 along every axis, labels 0/1."""
    rng = np.random.default_rng(seed)
    half = n // 2
    centers = np.stack([-np.ones(n_features), np.ones(n_features)]) * sep / 2.0
    features = np.concatenate(
        [
            rng.normal(centers[0], std, size=(half, n_features)),
            rng.normal(centers[1], std, size=(n - half, n_features)),
        ]
    )
    labels = np.concatenate([np.zeros(half, np.int64), np.ones(n - half, np.int64)])
    order = rng.permutation(n)
    return Dataset(features[order], labels[order])


@pytest.fixture
def blob_dataset() -> Dataset:
    return two_blob_dataset()


@pytest.fixture
def small_trained_model(blob_dataset):
    """A lightly trained two-class MLP shared by explanation/attack tests."""
    model = init_model(
        [LayerSpec(8, "tanh"), LayerSpec(2, "identity")],
        input_dim=blob_dataset.n_features,
        seed=3,
    )
    train(model, blob_dataset, TrainConfig(optimizer="adagrad", lr=0.05, epochs=30, seed=3))
    return model
