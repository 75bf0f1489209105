"""Example-based explanations via exact leave-one-out retraining.

The influence of training point x on a query y is the change in the query's
likelihood-form loss when x is dropped and the logistic model retrained:
I_y(x) = L(y, base) - L(y, without-x). Training is deterministic, so the
leave-one-out cache is exactly reproducible, and reveal operations rank
training points by |I| (dropping either of the label orientations flips only
the sign).
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor  # noqa: F401  (leakbench's tracer patches it)
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .models import LogisticModel, TrainConfig, train_logistic


@dataclass
class RevealResult:
    """Top-k most influential training points for one query."""

    indices: np.ndarray
    influences: np.ndarray
    query: np.ndarray
    label: int


@dataclass
class InfluenceExplainer:
    dataset: Dataset
    base: LogisticModel
    loo_models: list[LogisticModel]
    k: int
    train_config: TrainConfig
    _loo_w: np.ndarray = field(init=False, repr=False)
    _loo_b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.loo_models) != self.dataset.n_points:
            raise ValueError("need one leave-one-out model per training point")
        if not 1 <= self.k <= self.dataset.n_points:
            raise ValueError("k must lie in [1, n_points]")
        self._loo_w = np.stack([m.w for m in self.loo_models])
        self._loo_b = np.array([m.b for m in self.loo_models])

    @property
    def n_points(self) -> int:
        return self.dataset.n_points

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
        f_loo = 1.0 / (1.0 + np.exp(-(self._loo_w @ y - self._loo_b)))
        signed = f_base - f_loo
        return signed if label == 0 else -signed


def _train_without(dataset: Dataset, cfg: TrainConfig, i: int) -> LogisticModel:
    keep = np.concatenate([np.arange(i), np.arange(i + 1, dataset.n_points)])
    try:
        return train_logistic(dataset.subset(keep), cfg)
    except Exception as exc:
        raise RuntimeError(f"leave-one-out retraining failed for index {i}: {exc}") from exc


def build_loo_cache(dataset: Dataset, cfg: TrainConfig, k: int = 1) -> InfluenceExplainer:
    """Train the base model and one retrained model per left-out point.

    Training is deterministic and the retrainings run in index order, so the
    cache is identical on every call.
    """
    base = train_logistic(dataset, cfg)
    loo_models = [_train_without(dataset, cfg, i) for i in range(dataset.n_points)]
    return InfluenceExplainer(
        dataset=dataset, base=base, loo_models=loo_models, k=k, train_config=cfg
    )


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
    influences = expl.influence(y, label)
    order = np.lexsort((np.arange(expl.n_points), -np.abs(influences)))
    top = order[:k]
    return RevealResult(indices=top, influences=influences[top], query=y, label=label)


def self_reveal_rate(expl: InfluenceExplainer, k: int | None = None) -> float:
    """Fraction of training points revealed by their own query."""
    k = expl.k if k is None else k
    hits = 0
    for i in range(expl.n_points):
        result = topk_explain(
            expl, expl.dataset.features[i], int(expl.dataset.labels[i]), k
        )
        if i in result.indices:
            hits += 1
    return hits / expl.n_points


def group_reveal_rates(expl: InfluenceExplainer, k: int | None = None) -> dict[str, float]:
    """Per-group self-reveal rates; only groups present in the data appear."""
    if expl.dataset.groups is None:
        raise ValueError("dataset carries no group tags")
    k = expl.k if k is None else k
    hits: dict[str, int] = {}
    totals: dict[str, int] = {}
    for i in range(expl.n_points):
        tag = expl.dataset.groups[i]
        totals[tag] = totals.get(tag, 0) + 1
        result = topk_explain(
            expl, expl.dataset.features[i], int(expl.dataset.labels[i]), k
        )
        if i in result.indices:
            hits[tag] = hits.get(tag, 0) + 1
    return {tag: hits.get(tag, 0) / total for tag, total in totals.items()}
