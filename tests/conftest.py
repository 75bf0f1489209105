"""Shared fixtures, worst-case oracle families, finite-difference helpers and
the per-query reveal ranking that the block paths are held to."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from explainleak import (
    Dataset,
    LayerSpec,
    LogisticModel,
    TrainConfig,
    build_loo_cache,
    init_model,
    train,
)

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


def tangent_fixture(m: int) -> tuple[LogisticModel, list[LogisticModel], np.ndarray]:
    """One-dimensional oracle family where reveals follow tangent lines of t -> t^2.

    Base model is flat (w=0, b=0); dropping point k yields w=2k, b=k^2, so
    the leave-one-out logit at query t is the tangent line 2kt - k^2 of the
    parabola at t=k. Queries t=1..m are returned alongside the models: the
    oracle's reveal at t is the k whose tangent value is largest in absolute
    terms, which is generally not the nearest k.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    base = LogisticModel(w=np.zeros(1), b=0.0)
    loos = [
        LogisticModel(w=np.array([2.0 * k]), b=float(k * k)) for k in range(1, m + 1)
    ]
    queries = np.arange(1, m + 1, dtype=np.float64)[:, None]
    return base, loos, queries


def same_direction_fixture(
    w: np.ndarray, b: float, deltas: np.ndarray
) -> tuple[LogisticModel, list[LogisticModel]]:
    """Leave-one-out models that differ from the base only in the offset.

    With a shared weight vector the influence ordering is the same at every
    query point (larger offset shift wins), so a top-1 oracle can never be
    steered to reveal anything but the extreme point: the reconstruction
    attack must detect the linear dependence and stop at one recovery.
    """
    w = np.asarray(w, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    if np.unique(deltas).size != deltas.size:
        raise ValueError("offset shifts must be distinct")
    base = LogisticModel(w=w.copy(), b=float(b))
    loos = [LogisticModel(w=w.copy(), b=float(b + d)) for d in deltas]
    return base, loos


def reference_top_k(expl, y, k):
    """The per-query ranking the block paths replaced: a full stable argsort of
    -|I| at the predicted label, and the NaN check on its last entry."""
    influences = expl.influence(y)
    order = np.argsort(-np.abs(influences), kind="stable")
    if np.isnan(influences[order[-1]]):
        raise ValueError(f"influence of training point {order[-1]} is NaN")
    return order[:k].copy()


def clear_gap(expl, y, j: int) -> bool:
    """Whether the j-th and (j+1)-th largest |I| at y differ by more than 1e-12
    (|I| is at most 1): gemm and gemv round differently, so a block answer
    matches the per-query ranking only up to gaps of that size."""
    a = np.sort(np.abs(expl.influence(y)))[::-1]
    return j == a.size or a[j - 1] - a[j] > 1e-12


def assert_same_reveals(top, expl, Y, k):
    """Row i of a block answer against the per-query ranking of Y[i]: every
    prefix of the ranking that ends at a clear gap holds the same indices."""
    assert top.shape == (len(Y), k)
    for row, y in zip(top, Y):
        ref = reference_top_k(expl, y, k)
        for j in range(1, k + 1):
            if clear_gap(expl, y, j):
                assert sorted(row[:j]) == sorted(ref[:j]), (j, row, ref)


@st.composite
def loo_caches(draw):
    """A real leave-one-out cache, n 2-40 and d 1-6; with `duplicated`, every
    point is a copy of one of a few distinct points, so influences tie."""
    n, d = draw(st.integers(2, 40), label="n"), draw(st.integers(1, 6), label="d")
    rng = np.random.default_rng(draw(st.integers(0, 2**16), label="seed"))
    features = rng.normal(size=(n, d))
    labels = (features[:, 0] + rng.normal(size=n) > 0).astype(np.int64)
    if draw(st.booleans(), label="duplicated"):
        source = rng.integers(0, max(1, n // 4), size=n)
        features, labels = features[source], labels[source]
    epochs = draw(st.integers(1, 40), label="epochs")
    cfg = TrainConfig(optimizer="gd", lr=1.0, epochs=epochs, batch_size=None)
    return build_loo_cache(Dataset(features, labels), cfg)


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
