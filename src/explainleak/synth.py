"""Synthetic hypercube-cluster datasets and the gradient-norm correlation study.

Classes are Gaussian clouds centered on distinct random vertices of the
scaled hypercube {-class_sep, +class_sep}^n. Sweeping the dimension n while
training a fixed architecture exposes how strongly the input-gradient
1-norm separates training members from non-members.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .attacks import AttackStatistic, statistic_values
from .config import Config, ConfigError
from .data import Dataset
from .models import (
    TrainConfig,
    TrainingDivergedError,
    fork_map,
    init_target,
    train,
)

ARCHS: dict[str, tuple[int, ...]] = {
    "small": (5,),
    "base": (50, 50),
    "big": (100, 100, 100),
}


@dataclass(frozen=True)
class SynthConfig(Config):
    n_features: int
    n_classes: int = 2
    n_samples: int = 2000
    class_sep: float = 1.0
    cluster_std: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_features < 1:
            raise ValueError("n_features must be >= 1")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.n_samples < self.n_classes:
            raise ValueError("n_samples must be >= n_classes")
        if self.class_sep <= 0:
            raise ValueError("class_sep must be positive")
        if self.cluster_std < 0:
            raise ValueError("cluster_std must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.n_features < 63 and self.n_classes > 2**self.n_features:
            raise ValueError(
                f"{self.n_classes} classes need {self.n_classes} distinct vertices "
                f"but a {self.n_features}-cube has only {2**self.n_features}"
            )


def _hypercube_centers(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k distinct vertices of {0,1}^n, as rows."""
    if n <= 10:
        all_vertices = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        return all_vertices[rng.permutation(2**n)[:k]].astype(np.float64)
    chosen: dict[bytes, np.ndarray] = {}  # each vertex by its bytes, in first-draw order
    while len(chosen) < k:
        vertex = rng.integers(0, 2, size=n)
        chosen.setdefault(vertex.tobytes(), vertex)
    return np.stack(list(chosen.values())).astype(np.float64)


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Gaussian clusters on distinct hypercube vertices, shuffled.

    Class c is centered on a seeded-random vertex of
    {-class_sep, +class_sep}^n; counts are equal up to one extra point for
    the first n_samples mod n_classes classes.
    """
    rng = np.random.default_rng(cfg.seed)
    centers = (2.0 * _hypercube_centers(rng, cfg.n_features, cfg.n_classes) - 1.0)
    centers *= cfg.class_sep
    base, extra = divmod(cfg.n_samples, cfg.n_classes)
    counts = [base + (1 if c < extra else 0) for c in range(cfg.n_classes)]
    features = np.concatenate([center + rng.normal(0.0, cfg.cluster_std, (count, len(center)))
                               for center, count in zip(centers, counts)])
    labels = np.repeat(np.arange(cfg.n_classes, dtype=np.int64), counts)
    order = rng.permutation(cfg.n_samples)
    return Dataset(features=features[order], labels=labels[order])


class CorrelationResult(NamedTuple):
    value: float
    degenerate: bool


def membership_correlation(
    norms: np.ndarray, membership: np.ndarray
) -> CorrelationResult:
    """Pearson correlation between a statistic and non-membership.

    The indicator is 1 for non-members, so a positive value means the
    statistic runs larger off the training set. Zero variance on either
    side makes the correlation undefined; it is reported as 0 with the
    degenerate flag set.
    """
    norms = np.asarray(norms, dtype=np.float64)
    membership = np.asarray(membership, dtype=bool)
    if norms.shape != membership.shape or norms.ndim != 1:
        raise ValueError("norms and membership must be 1-D arrays of equal length")
    indicator = 1.0 - membership.astype(np.float64)
    if np.ptp(norms) == 0.0 or np.ptp(indicator) == 0.0:
        return CorrelationResult(0.0, True)
    value = float(np.corrcoef(norms, indicator)[0, 1])
    return CorrelationResult(value, False)


@dataclass
class DimensionResult:
    dim: int
    arch: str
    correlation: float
    degenerate: bool
    train_accuracy: float
    test_accuracy: float
    seed: int
    diverged: bool = False


@dataclass
class SweepConfig(Config):
    """The `sweep-dim` config and `dimension_sweep`'s argument: strictly ascending
    dims with enough hypercube vertices for the classes, and an `ARCHS` name. An
    omitted `train` is adagrad at lr 0.01, batch 32, for 100 epochs."""

    dims: tuple[int, ...]
    synth: SynthConfig
    arch: str = "base"
    train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=100))

    def __post_init__(self) -> None:
        if not self.dims or list(self.dims) != sorted(set(self.dims)):
            raise ConfigError(f"dims must be non-empty and strictly ascending, got {self.dims}")
        try:  # the smallest dim has the fewest hypercube vertices
            replace(self.synth, n_features=self.dims[0])
        except ValueError as exc:
            raise ConfigError(f"dims: {exc}") from None
        if self.arch not in ARCHS:
            raise ConfigError(f"arch must be one of {sorted(ARCHS)}")
        self.train.refuse_unread(logistic=False)


def _sweep_seed(base_seed: int, dim: int) -> int:
    return int(np.random.SeedSequence([base_seed, dim]).generate_state(1)[0])


def _run_dimension(sweep: SweepConfig, dim: int) -> DimensionResult:
    """One sweep row: a target of the arch's tanh layers and an identity head, as
    `harness.train_target` builds, trained on the first half of a fresh dataset."""
    seed = _sweep_seed(sweep.synth.seed, dim)
    cfg = replace(sweep.synth, n_features=dim, seed=seed)
    dataset = generate_synthetic(cfg)
    half = dataset.n_points // 2
    train_set = dataset.subset(np.arange(half))
    test_set = dataset.subset(np.arange(half, dataset.n_points))
    model = init_target(ARCHS[sweep.arch], "tanh", dim, dataset.n_classes, seed)
    try:
        train(model, train_set, replace(sweep.train, seed=seed))
    except TrainingDivergedError:
        nan = float("nan")
        return DimensionResult(dim=dim, arch=sweep.arch, correlation=nan, degenerate=True,
                               train_accuracy=nan, test_accuracy=nan, seed=seed, diverged=True)
    stat = AttackStatistic("expl_var", "gradient", use_l1=True)  # input-gradient 1-norm
    norms = np.concatenate(
        [statistic_values(stat, model, part.features) for part in (train_set, test_set)]
    )
    membership = np.arange(len(norms)) < train_set.n_points
    corr = membership_correlation(norms, membership)
    return DimensionResult(
        dim=dim,
        arch=sweep.arch,
        correlation=float("nan") if corr.degenerate else corr.value,
        degenerate=corr.degenerate,
        train_accuracy=model.accuracy(train_set.features, train_set.labels),
        test_accuracy=model.accuracy(test_set.features, test_set.labels),
        seed=seed,
    )


@dataclass
class SweepResult:
    """A dimension sweep's config, its rows in dims order, and its warnings."""

    config: dict
    rows: list[DimensionResult]
    warnings: list[str]
    name = "sweep_dim"

    def write(self, out_dir: str | Path) -> str:
        path = Path(out_dir) / "dimension_sweep.csv"
        rows = [f"{r.dim},{r.arch},{r.correlation},{r.train_accuracy},{r.test_accuracy},{r.seed},"
                f"{int(r.diverged)}\n" for r in self.rows]
        path.write_text("dim,arch,correlation,train_acc,test_acc,seed,diverged\n" + "".join(rows))
        return f"swept {len(self.rows)} dimensions, wrote {path}"


def dimension_sweep(cfg: SweepConfig) -> SweepResult:
    """Correlation + accuracies per dimension, one `fork_map` job each, largest first.

    A dimension whose training diverges is kept with NaN metrics and the diverged
    flag. One whose gradient norms hold one value, so that their correlation with
    membership is undefined, is kept with a NaN correlation and a warning.
    """
    rows = fork_map(_run_dimension, (cfg,), [(d,) for d in cfg.dims[::-1]])[::-1]
    return SweepResult(cfg.to_dict(), rows, [
        f"dim {r.dim}: every gradient norm is the same value, so the correlation is undefined"
        for r in rows if r.degenerate and not r.diverged])
