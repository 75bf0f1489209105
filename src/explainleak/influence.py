"""Example-based explanations via exact leave-one-out retraining.

The influence of training point x on a query y is the change in the query's
likelihood-form loss when x is dropped and the logistic model retrained:
I_y(x) = L(y, base) - L(y, without-x). Training is deterministic, so the
leave-one-out cache is exactly reproducible, and reveal operations rank
training points by |I| (dropping either of the label orientations flips only
the sign). The n leave-one-out models train in `fork_map` blocks (`train_logistic_loo`).
`InfluenceOracle` holds its (n, d) weights and (n,) biases once, read by `influence`,
`top_k_rows` and the attack's top-1 `query`; `topk_explain` predicts at y once per query.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor  # noqa: F401  (leakbench's tracer patches it)
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .models import LogisticModel, TrainConfig, TrainingDivergedError, _row_blocks, sigmoid
from .models import train_logistic, train_logistic_loo

_ARGMIN_K = 64  # up to this k, k argmin passes beat one stable argsort of a block


@dataclass
class RevealResult:
    """Top-k most influential training points for one query."""

    indices: np.ndarray
    influences: np.ndarray
    label: int


@dataclass(frozen=True)
class OracleAnswer:
    """One oracle response: prediction at y, top influencer, its influence."""

    prediction: float
    index: int
    influence: float


class InfluenceOracle:
    """A base logistic model and its leave-one-out twins as weight and bias rows: the one
    influence kernel, and the top-1 oracle the reconstruction attack queries.

    `query` labels y with the base model's prediction, so the influence is the
    signed change in the likelihood of the wrong class at y when a point is
    dropped. Ties in |I| go to the lowest training index and a NaN influence
    raises ValueError. Every `query` call increments ``query_count``.
    """

    def __init__(self, base: LogisticModel, loo_w: np.ndarray, loo_b: np.ndarray):
        self.base = base
        self.loo_w = np.array(loo_w, dtype=np.float64, order="C")  # (n, d): one row per point
        self.loo_b = np.array(loo_b, dtype=np.float64, order="C")
        if self.loo_b.ndim != 1 or self.loo_w.shape != (len(self.loo_b), base.w.size):
            raise ValueError(f"leave-one-out weights {self.loo_w.shape} and biases "
                             f"{self.loo_b.shape} do not fit a {base.w.size}-feature base")
        self.query_count = 0

    @property
    def loo_models(self) -> list[LogisticModel]:  # leakbench's tracer counts them
        return [LogisticModel(w=w, b=b) for w, b in zip(self.loo_w, self.loo_b)]

    @property
    def n_points(self) -> int:
        return len(self.loo_b)

    @property
    def n_features(self) -> int:
        return self.base.w.shape[0]

    def influence(self, y: np.ndarray, label: int | None = None) -> np.ndarray:
        """Signed influence of every training point on the query point.

        With label 0 the value is f_base(y) - f_without(y); label 1 flips the
        sign. Defaults to the base model's predicted label for y.
        """
        y = np.asarray(y, dtype=np.float64)
        return self._signed(y, self.base.positive_prob(y), label)

    def _signed(self, y: np.ndarray, f: float, label: int | None = None) -> np.ndarray:
        """`influence` at a float64 y whose base prediction f the caller holds."""
        signed = f - sigmoid(self.loo_w @ y - self.loo_b)
        return signed if (_label(f) if label is None else label) == 0 else -signed

    def top_k_rows(self, Y: np.ndarray, k: int) -> np.ndarray:
        """(q, k) indices of the k largest |I| at each row of Y, ranked by
        `_rank_block`; no label is needed, as it only flips the sign of I. Rows
        are answered in blocks of at most `_BLOCK_FLOATS` influences."""
        n = self.n_points
        _check_k(k, n)
        Y = np.asarray(Y, dtype=np.float64)
        top = np.empty((len(Y), k), dtype=np.intp)
        for rows in _row_blocks(len(Y), n):
            blk = Y[rows]
            neg = blk @ self.loo_w.T
            neg -= self.loo_b
            sigmoid(neg, out=neg)
            neg -= self.base.positive_prob_batch(blk)[:, None]
            np.negative(np.abs(neg, out=neg), out=neg)
            top[rows] = _rank_block(neg, k)
        return top

    def query(self, y: np.ndarray) -> OracleAnswer:
        self.query_count += 1
        y = np.asarray(y, dtype=np.float64)
        f = self.base.positive_prob(y)
        _check_k(1, self.n_points)
        (idx,), (influence,) = _top(self._signed(y, f), 1)
        return OracleAnswer(prediction=float(f), index=int(idx), influence=float(influence))


def _label(f: float) -> int:  # the base model's label where it predicts f
    return 1 if f >= 0.5 else 0


def _top(influences: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    top = _rank_block(-np.abs(influences)[None, :], k)[0]
    return top, influences[top]


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:  # every reveal read checks its k here, before it reads a row
        raise ValueError("k must lie in [1, n_points]")


def _rank_block(neg: np.ndarray, k: int) -> np.ndarray:
    """Per row of a (rows, n) block of -|I|, the columns of its k smallest entries
    in ascending order, ties to the lower index: the first k columns of a stable
    argsort. Up to `_ARGMIN_K` it takes k first minima, masking all but the last with
    +inf in the block, which both callers pass as a temporary. A NaN raises ValueError naming
    the highest NaN index of the first NaN row; the caller has checked k with `_check_k`."""
    if np.isnan(neg.min()):
        row = np.isnan(neg[np.isnan(neg).any(axis=1).argmax()])
        raise ValueError(f"influence of training point {np.flatnonzero(row)[-1]} is NaN")
    if k > _ARGMIN_K:
        return np.argsort(neg, axis=1, kind="stable")[:, :k]
    top = np.empty((k, len(neg)), dtype=np.intp)  # row j holds pass j's columns
    for j in range(k - 1):  # +inf is never a -|I|; a k = 1 oracle query is one argmin
        neg[np.arange(len(neg)), neg.argmin(axis=1, out=top[j])] = np.inf
    neg.argmin(axis=1, out=top[-1])
    return top.T


class InfluenceExplainer(InfluenceOracle):
    """The oracle over its training set."""

    def __init__(self, dataset: Dataset, base: LogisticModel, loo_w: np.ndarray, loo_b: np.ndarray):
        if len(loo_b) != dataset.n_points:
            raise ValueError("need one leave-one-out model per training point")
        super().__init__(base, loo_w, loo_b)
        self.dataset = dataset


def build_loo_cache(dataset: Dataset, cfg: TrainConfig) -> InfluenceExplainer:
    """The base `train_logistic` fit plus one `train_logistic_loo` batch, identical
    on every call. A non-finite model without point i raises RuntimeError naming i."""
    base = train_logistic(dataset, cfg)
    W, b = train_logistic_loo(dataset, cfg)
    bad = np.flatnonzero(~(np.isfinite(W).all(axis=1) & np.isfinite(b)))
    if bad.size:
        exc = TrainingDivergedError(cfg.epochs - 1, cfg.epochs - 1, float("nan"))
        raise RuntimeError(f"leave-one-out retraining failed for index {bad[0]}: {exc}") from exc
    return InfluenceExplainer(dataset, base, W, b)


def topk_explain(
    expl: InfluenceExplainer, y: np.ndarray, label: int | None, k: int
) -> RevealResult:
    """The k most influential training points by |I|, ranked by `_rank_block`; a
    None label is the base model's predicted label for y, from its one prediction there."""
    _check_k(k, expl.n_points)
    y = np.asarray(y, dtype=np.float64)
    f = expl.base.positive_prob(y)
    label = _label(f) if label is None else label
    top, influences = _top(expl._signed(y, f, label), k)
    return RevealResult(indices=top, influences=influences, label=label)


def self_reveals(expl: InfluenceExplainer, k: int) -> np.ndarray:
    """(n, k) top-k reveals of every training point queried with its own label.
    The ranking is stable, so the first j <= k columns are exactly the top-j."""
    return expl.top_k_rows(expl.dataset.features, k)


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
