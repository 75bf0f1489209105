"""Influence-based explanations reveal their own training data.

Builds the leave-one-out influence cache for a logistic model, shows a
single explanation (the top-k most influential training points for a
query), then measures how often training points appear in their *own*
explanation — a direct membership leak — and how a small planted
minority cluster is exposed far above the base rate.

Run with:  python3 demos/04_influence_reveals.py
"""
from __future__ import annotations

import numpy as np

from explainleak.data import Dataset
from explainleak.influence import (
    build_loo_cache,
    group_reveal_rates,
    self_reveal_rate,
    self_reveals,
    topk_explain,
)
from explainleak.models import TrainConfig

TRAIN = TrainConfig(optimizer="gd", lr=1.0, epochs=150, batch_size=None)


def minority_dataset(seed: int = 0) -> Dataset:
    """Two easy blobs plus a tiny cluster that disagrees with its side."""
    rng = np.random.default_rng(seed)
    half, n_minor, n_feat = 73, 4, 4
    features = np.vstack(
        [
            rng.normal(-1.0, 1.0, size=(half, n_feat)),
            rng.normal(+1.0, 1.0, size=(half, n_feat)),
            rng.normal(+3.0, 0.3, size=(n_minor, n_feat)),
        ]
    )
    labels = np.array([0] * half + [1] * half + [0] * n_minor)
    groups = np.array(["majority"] * (2 * half) + ["minority"] * n_minor)
    order = rng.permutation(len(labels))
    return Dataset(features=features[order], labels=labels[order], groups=groups[order])


def main() -> None:
    data = minority_dataset()
    expl = build_loo_cache(data, TRAIN)
    print(f"trained logistic model on {data.n_points} points, "
          f"accuracy {expl.base.accuracy(data.features, data.labels):.3f}; "
          f"cached {data.n_points} leave-one-out retrainings")

    query = np.full(4, 2.0)
    result = topk_explain(expl, query, None, 5)  # None: the predicted label
    print(f"\ntop-5 influence explanation for query {query.tolist()} "
          f"(label {result.label}):")
    print(f"{'rank':>5} {'train index':>12} {'influence':>12} {'group':>10}")
    for rank, (idx, value) in enumerate(zip(result.indices, result.influences), 1):
        print(f"{rank:>5} {idx:>12} {value:>12.5f} {data.groups[idx]:>10}")

    print("\nself-reveal rate: how often a point appears in its own top-k")
    print(f"{'k':>3} {'overall':>9} {'majority':>10} {'minority':>10}")
    reveals = self_reveals(expl, 10)  # its first k columns are the top-k reveals
    for k in (1, 3, 5, 10):
        rates = group_reveal_rates(reveals[:, :k], data.groups)
        print(f"{k:>3} {self_reveal_rate(reveals[:, :k]):>9.3f} "
              f"{rates['majority']:>10.3f} {rates['minority']:>10.3f}")
    print("\n(the 4-point minority cluster fights the local decision, so "
          "removing any\n of its points moves the model: every one is a "
          "certain membership leak)")


if __name__ == "__main__":
    main()
