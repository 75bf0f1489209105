"""Example-based explanations via exact leave-one-out retraining.

The influence of training point x on a query y is the change in the query's
likelihood-form loss when x is dropped and the logistic model retrained:
I_y(x) = L(y, base) - L(y, without-x). Training is deterministic, so the
leave-one-out cache is exactly reproducible, and reveal operations rank
training points by |I| (dropping either of the label orientations flips only
the sign). All n leave-one-out models train in one batch (`train_logistic_loo`).
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor  # noqa: F401  (leakbench's tracer patches it)
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .models import LogisticModel, TrainConfig, TrainingDivergedError, sigmoid
from .models import train_logistic, train_logistic_loo


@dataclass
class RevealResult:
    """Top-k most influential training points for one query."""

    indices: np.ndarray
    influences: np.ndarray
    query: np.ndarray
    label: int


class LooInfluence:
    """A base logistic model and its stacked leave-one-out twins: the one
    influence kernel under both the explainer and the reconstruction oracle."""

    def __init__(self, base: LogisticModel, loo_models: list[LogisticModel]):
        self.base = base
        self.loo_models = list(loo_models)
        self._loo_w = np.stack([m.w for m in self.loo_models])
        self._loo_b = np.array([m.b for m in self.loo_models])

    @property
    def n_points(self) -> int:
        return len(self.loo_models)

    def predicted_label(self, y: np.ndarray) -> int:
        return 1 if self.base.positive_prob(y) >= 0.5 else 0

    def influence(self, y: np.ndarray, label: int | None = None) -> np.ndarray:
        """Signed influence of every training point on the query point.

        With label 0 the value is f_base(y) - f_without(y); label 1 flips the
        sign. Defaults to the base model's predicted label for y.
        """
        y = np.asarray(y, dtype=np.float64)
        if label is None:
            label = self.predicted_label(y)
        f_base = self.base.positive_prob(y)
        f_loo = sigmoid(self._loo_w @ y - self._loo_b)
        signed = f_base - f_loo
        return signed if label == 0 else -signed

    def top_k(self, y: np.ndarray, label: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices and influences of the k largest |I|, ties to the lower index (a
        stable sort); any NaN influence raises ValueError (the sort puts NaN last)."""
        influences = self.influence(y, label)
        order = np.argsort(-np.abs(influences), kind="stable")
        if np.isnan(influences[order[-1]]):
            raise ValueError(f"influence of training point {order[-1]} is NaN")
        top = order[:k].copy()  # a view would keep all n entries of order alive
        return top, influences[top]


@dataclass
class InfluenceExplainer(LooInfluence):
    dataset: Dataset
    base: LogisticModel
    loo_models: list[LogisticModel]
    k: int
    train_config: TrainConfig

    def __post_init__(self) -> None:
        if len(self.loo_models) != self.dataset.n_points:
            raise ValueError("need one leave-one-out model per training point")
        if not 1 <= self.k <= self.dataset.n_points:
            raise ValueError("k must lie in [1, n_points]")
        LooInfluence.__init__(self, self.base, self.loo_models)


def build_loo_cache(dataset: Dataset, cfg: TrainConfig, k: int = 1) -> InfluenceExplainer:
    """The base `train_logistic` fit plus one `train_logistic_loo` batch, identical
    on every call. A non-finite model without point i raises RuntimeError naming i."""
    base = train_logistic(dataset, cfg)
    W, b = train_logistic_loo(dataset, cfg)
    bad = np.flatnonzero(~(np.isfinite(W).all(axis=1) & np.isfinite(b)))
    if bad.size:
        exc = TrainingDivergedError(cfg.epochs - 1, cfg.epochs - 1, float("nan"))
        raise RuntimeError(f"leave-one-out retraining failed for index {bad[0]}: {exc}") from exc
    loo_models = [LogisticModel(w=w, b=bias) for w, bias in zip(W, b)]
    return InfluenceExplainer(dataset, base, loo_models, k, train_config=cfg)


def topk_explain(
    expl: InfluenceExplainer,
    y: np.ndarray,
    label: int | None = None,
    k: int | None = None,
) -> RevealResult:
    """The k most influential training points by |I|, ties to lower index."""
    k = expl.k if k is None else k
    if not 1 <= k <= expl.n_points:
        raise ValueError("k must lie in [1, n_points]")
    y = np.asarray(y, dtype=np.float64)
    if label is None:
        label = expl.predicted_label(y)
    top, influences = expl.top_k(y, label, k)
    return RevealResult(indices=top, influences=influences, query=y, label=label)


def self_reveals(expl: InfluenceExplainer, k: int | None = None) -> np.ndarray:
    """(n, k) top-k reveals of every training point queried with its own label.
    The ranking is stable, so the first j <= k columns are exactly the top-j."""
    k = expl.k if k is None else k
    X, labels = expl.dataset.features, expl.dataset.labels
    return np.array(
        [topk_explain(expl, X[i], int(labels[i]), k).indices for i in range(expl.n_points)]
    )


def _self_hits(reveals: np.ndarray) -> np.ndarray:
    """Whether each training point is in its own row of a `self_reveals` table."""
    return (reveals == np.arange(reveals.shape[0])[:, None]).any(axis=1)


def self_reveal_rate(reveals: np.ndarray) -> float:
    """Fraction of training points revealed by their own query."""
    return float(_self_hits(reveals).mean())


def group_reveal_rates(reveals: np.ndarray, groups: list[str] | None) -> dict[str, float]:
    """Per-group self-reveal rates; only groups present in the data appear."""
    if groups is None:
        raise ValueError("dataset carries no group tags")
    hits, tags = _self_hits(reveals), np.asarray(groups)
    return {tag: float(hits[tags == tag].mean()) for tag in dict.fromkeys(groups)}
