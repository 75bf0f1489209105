"""What makes explanation leakage appear: training time and dimension.

Part one retrains the same target for longer and longer and shows the
gradient-variance attack strengthening as the model keeps grinding its
training loss down, long after accuracy has stopped moving.
Part two sweeps the input dimension of a two-class task and shows the
gradient-norm/membership correlation rising from nothing, peaking, and
falling again once every direction saturates.

Run with:  python3 demos/03_overfitting_and_dimension.py
"""
from __future__ import annotations

import numpy as np

from explainleak.attacks import AttackStatistic
from explainleak.harness import OverfitConfig, run_overfit_sweep
from explainleak.models import TrainConfig
from explainleak.synth import SweepConfig, SynthConfig, dimension_sweep


def bar(value: float, scale: float = 100.0) -> str:
    return "#" * max(0, int(round(value * scale)))


def main() -> None:
    grid = list(range(5, 41, 5))
    cfg = OverfitConfig(
        synth=SynthConfig(
            n_features=100,
            n_classes=10,
            n_samples=800,
            class_sep=1.0,
            cluster_std=2.0,
            seed=0,
        ),
        hidden=(50,),
        activation="tanh",
        train=TrainConfig(optimizer="adagrad", lr=0.01, epochs=40),
        statistics=[AttackStatistic("expl_var", "gradient")],
        calibrations=["optimal"],
        repetitions=2,
        subsets_per_repetition=4,
        points_per_subset=100,
        seed=0,
        epoch_grid=grid,
    )
    result = run_overfit_sweep(cfg)

    print("longer training -> stronger membership signal")
    print(f"{'epochs':>7} {'train-test gap':>15} {'attack accuracy':>16}")
    for epochs in grid:
        rows = [r for r in result.records if r.epochs == epochs]
        gap = np.mean([r.train_accuracy - r.test_accuracy for r in rows])
        acc = np.mean([r.attack_accuracy for r in rows])
        print(f"{epochs:>7} {gap:>15.3f} {acc:>16.3f}  {bar(acc - 0.5)}")

    dims = [10, 50, 100, 500, 1000]
    template = SynthConfig(
        n_features=10, n_classes=2, n_samples=1000, class_sep=1.0,
        cluster_std=8.0, seed=0,
    )
    rows = dimension_sweep(SweepConfig(
        dims=tuple(dims),
        synth=template,
        arch="small",
        train=TrainConfig(optimizer="adagrad", lr=0.01, epochs=150),
    )).rows
    print("\ngradient-norm correlation with membership across input dimension")
    print(f"{'dim':>6} {'train acc':>10} {'test acc':>9} {'correlation':>12}")
    for row in rows:
        print(
            f"{row.dim:>6} {row.train_accuracy:>10.3f} {row.test_accuracy:>9.3f} "
            f"{row.correlation:>12.3f}  {bar(max(0.0, row.correlation), 200)}"
        )
    print("\n(low dimension: nothing to memorize; middle: memorization leaks; "
          "\n very high dimension: margins saturate and the signal fades)")


if __name__ == "__main__":
    main()
