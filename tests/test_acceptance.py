"""Acceptance suite: one test per release criterion, one PASS line each.

Every test prints a single ``criterion NN PASS`` line once its assertions
hold, so a verbose run reads as a checklist. Numeric tolerances and runtime
budgets are part of the release contract and must not be loosened. The
scaled-down experiment regimes (dataset shapes, seeds, training lengths)
were tuned once for signal and margin and are frozen here.
"""
from __future__ import annotations

import json
import time
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from conftest import finite_difference_gradient, relative_error
from explainleak.attacks import AttackStatistic, optimal_threshold
from explainleak.cli import main as cli_main
from explainleak.data import Dataset
from explainleak.explain import IgConfig, explain, ig_completeness_gap
from explainleak.graph import (
    build_influence_graph,
    strongly_connected_components,
    traverse_attack,
)
from explainleak.harness import (
    ExperimentConfig,
    run_overfit_sweep,
    run_threshold_experiment,
)
from explainleak.influence import build_loo_cache, group_reveal_rates, self_reveal_rate
from explainleak.models import (
    LayerSpec,
    LogisticModel,
    TrainConfig,
    init_model,
)
from explainleak.reconstruct import (
    InfluenceOracle,
    algorithm1_reconstruct,
    reconstruction_query_budget,
    same_direction_fixture,
    tangent_fixture,
)
from explainleak.synth import SynthConfig, dimension_sweep, generate_synthetic


def _report(number: int, label: str, elapsed: float | None = None) -> None:
    suffix = f" ({elapsed:.1f} s)" if elapsed is not None else ""
    print(f"criterion {number:02d} PASS — {label}{suffix}")


def _gradient_fixtures():
    """Ten seeded (model, point) pairs cycling tanh/relu/sigmoid nets."""
    fixtures = []
    for i in range(10):
        rng = np.random.default_rng(100 + i)
        activation = ("tanh", "relu", "sigmoid")[i % 3]
        n = int(rng.integers(3, 7))
        widths = [int(rng.integers(4, 10)) for _ in range(int(rng.integers(1, 3)))]
        layers = [LayerSpec(w, activation) for w in widths]
        layers.append(LayerSpec(3, "identity"))
        model = init_model(layers, input_dim=n, seed=100 + i)
        fixtures.append((model, rng.normal(0.0, 1.0, size=n)))
    return fixtures


def test_criterion_01_gradient_matches_finite_differences():
    start = time.perf_counter()
    worst = 0.0
    for model, x in _gradient_fixtures():
        target = int(np.argmax(model.forward(x)))
        grad = model.input_gradient(x, target)
        fd = finite_difference_gradient(lambda z: model.forward(z)[target], x)
        worst = max(worst, relative_error(grad, fd))
    elapsed = time.perf_counter() - start
    assert worst < 1e-4, f"max relative gradient error {worst:.2e}"
    assert elapsed < 10.0
    _report(1, f"input gradients match finite differences (worst {worst:.1e})", elapsed)


def _ig_fixtures():
    """Twenty low-curvature nets where the Riemann error is measurable."""
    fixtures = []
    for i in range(20):
        rng = np.random.default_rng(500 + i)
        n = int(rng.integers(3, 7))
        activation = ("tanh", "sigmoid")[i % 2]
        model = init_model(
            [LayerSpec(8, activation), LayerSpec(3, "identity")],
            input_dim=n,
            seed=500 + i,
        )
        fixtures.append((model, rng.normal(0.0, 1.0, size=n)))
    return fixtures


def test_criterion_02_integrated_gradients_completeness():
    start = time.perf_counter()
    ratios = []
    for model, x in _ig_fixtures():
        gap200 = ig_completeness_gap(model, x, IgConfig(steps=200))
        assert gap200 < 1e-3, f"completeness gap {gap200:.2e} at 200 steps"
        gap50 = ig_completeness_gap(model, x, IgConfig(steps=50))
        gap100 = ig_completeness_gap(model, x, IgConfig(steps=100))
        assert gap50 > 0.0
        ratios.append(gap100 / gap50)
    elapsed = time.perf_counter() - start
    for ratio in ratios:
        assert 0.4 <= ratio <= 0.6, f"doubling steps scaled error by {ratio:.3f}"
    assert elapsed < 30.0
    _report(
        2,
        f"attribution sums telescope; error halves with steps "
        f"(ratios {min(ratios):.3f}..{max(ratios):.3f})",
        elapsed,
    )


def test_criterion_03_smoothgrad_zero_noise_degenerates_to_gradient():
    for model, x in _gradient_fixtures():
        plain = explain(model, x, "gradient")
        smooth = explain(model, x, "smoothgrad", {"sigma": 0.0, "samples": 8})
        assert np.array_equal(plain.values, smooth.values)
    _report(3, "zero-noise smoothing returns the plain gradient bit-for-bit")


def _brute_force_best_accuracy(member, nonmember, member_if) -> float:
    """O(N^2) scan over all candidate cuts, including both infinities."""
    best = 0.0
    candidates = np.concatenate([member, nonmember, [-np.inf, np.inf]])
    for tau in candidates:
        if member_if == "leq":
            member_rate = np.mean(member <= tau)
            nonmember_rate = np.mean(nonmember > tau)
        else:
            member_rate = np.mean(member >= tau)
            nonmember_rate = np.mean(nonmember < tau)
        best = max(best, 0.5 * (member_rate + nonmember_rate))
    return float(best)


def test_criterion_04_threshold_matches_brute_force():
    rng = np.random.default_rng(42)
    for case in range(100):
        n_member = int(rng.integers(1, 201))
        n_nonmember = int(rng.integers(1, 201))
        if case % 3 == 0:  # heavy ties
            member = rng.integers(0, 6, size=n_member).astype(float)
            nonmember = rng.integers(0, 6, size=n_nonmember).astype(float)
        else:
            member = rng.normal(0.0, 1.0, size=n_member)
            nonmember = rng.normal(0.4, 1.2, size=n_nonmember)
        member_if = "leq" if case % 2 else "geq"
        tau, accuracy = optimal_threshold(member, nonmember, member_if)
        expected = _brute_force_best_accuracy(member, nonmember, member_if)
        assert accuracy == expected, (
            f"case {case}: {accuracy} vs brute force {expected}"
        )
        assert np.isfinite(tau) or tau in (-np.inf, np.inf)
    _report(4, "optimal threshold equals the exhaustive scan on 100 instances")


OVERFIT_SYNTH = SynthConfig(
    n_features=200, n_classes=20, n_samples=2000, class_sep=1.0, cluster_std=1.0, seed=0
)
TARGET_TRAIN = TrainConfig(optimizer="adagrad", lr=0.01, epochs=50)


@pytest.fixture(scope="module")
def overfit_experiment():
    cfg = ExperimentConfig(
        synth=OVERFIT_SYNTH,
        hidden=(50,),
        activation="tanh",
        train=TARGET_TRAIN,
        statistics=[AttackStatistic("expl_var", "gradient")],
        calibrations=["optimal", "shadow(3)"],
        repetitions=10,
        subsets_per_repetition=4,
        points_per_subset=500,
        seed=0,
    )
    start = time.perf_counter()
    result = run_threshold_experiment(cfg)
    return result, time.perf_counter() - start


def test_criterion_05_shadow_calibration_near_optimal(overfit_experiment):
    result, elapsed = overfit_experiment
    optimal = np.mean(
        [r.attack_accuracy for r in result.records if r.calibration == "optimal"]
    )
    shadow = np.mean(
        [r.attack_accuracy for r in result.records if r.calibration == "shadow(3)"]
    )
    assert optimal - shadow <= 0.03, f"shadow trails optimal by {optimal - shadow:.4f}"
    assert shadow <= optimal + 1e-12
    assert elapsed < 300.0
    _report(
        5,
        f"three-shadow calibration within 3 points of optimal "
        f"({shadow:.3f} vs {optimal:.3f})",
        elapsed,
    )


def test_criterion_06_attack_succeeds_only_in_overfit_regime(overfit_experiment):
    result, _ = overfit_experiment
    overfit_mean = np.mean(
        [r.attack_accuracy for r in result.records if r.calibration == "optimal"]
    )
    assert overfit_mean >= 0.55, f"overfit-regime attack only reached {overfit_mean:.4f}"

    null_cfg = ExperimentConfig(
        synth=SynthConfig(
            n_features=10,
            n_classes=2,
            n_samples=2000,
            class_sep=2.0,
            cluster_std=1.0,
            seed=0,
        ),
        hidden=(50,),
        activation="tanh",
        train=TARGET_TRAIN,
        statistics=[AttackStatistic("expl_var", "gradient")],
        calibrations=["optimal"],
        repetitions=10,
        subsets_per_repetition=2,
        points_per_subset=1000,
        seed=0,
    )
    null_mean = np.mean(
        [r.attack_accuracy for r in run_threshold_experiment(null_cfg).records]
    )
    assert null_mean <= 0.53, f"attack should be null here, got {null_mean:.4f}"
    _report(
        6,
        f"gradient-variance attack {overfit_mean:.3f} when memorizing, "
        f"{null_mean:.3f} on the generalizing target",
    )


def test_criterion_07_attack_accuracy_rises_with_epochs():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        synth=OVERFIT_SYNTH,
        hidden=(50,),
        activation="tanh",
        train=TARGET_TRAIN,
        statistics=[AttackStatistic("expl_var", "gradient")],
        calibrations=["optimal"],
        repetitions=2,
        subsets_per_repetition=4,
        points_per_subset=500,
        seed=1,
    )
    grid = list(range(5, 51, 5))
    result = run_overfit_sweep(cfg, grid)
    means = [
        float(np.mean([r.attack_accuracy for r in result.records if r.epochs == e]))
        for e in grid
    ]
    rho = stats.spearmanr(grid, means).statistic
    elapsed = time.perf_counter() - start
    assert rho > 0.7, f"Spearman over the epoch grid is {rho:.3f}"
    assert elapsed < 600.0
    _report(
        7,
        f"attack accuracy rises with training length (Spearman {rho:.2f}, "
        f"{means[0]:.3f} -> {means[-1]:.3f})",
        elapsed,
    )


def test_criterion_08_dimension_sweep_rises_then_falls():
    start = time.perf_counter()
    dims = [10, 100, 500, 1000, 2000]
    template = SynthConfig(
        n_features=10,
        n_classes=2,
        n_samples=2000,
        class_sep=1.0,
        cluster_std=10.0,
        seed=0,
    )
    rows = dimension_sweep(
        dims,
        template,
        arch="small",
        train_cfg=TrainConfig(optimizer="adagrad", lr=0.01, epochs=200),
        threads=5,
    )
    elapsed = time.perf_counter() - start
    assert [row.dim for row in rows] == dims
    assert not any(row.diverged for row in rows)
    corr = {row.dim: row.correlation for row in rows}
    peak = max(corr.values())
    assert abs(corr[10]) < 0.1, f"low-dimensional correlation {corr[10]:.3f}"
    assert corr[1000] > corr[10] + 0.1, (
        f"corr(1000)={corr[1000]:.3f} vs corr(10)={corr[10]:.3f}"
    )
    assert corr[2000] < peak, "correlation must fall after its peak"
    assert elapsed < 900.0
    _report(
        8,
        "gradient-norm correlation rises then falls with dimension "
        + " ".join(f"{d}:{corr[d]:+.2f}" for d in dims),
        elapsed,
    )


def test_criterion_09_cached_influence_is_exact():
    synth = SynthConfig(
        n_features=5, n_classes=2, n_samples=20, class_sep=2.0, cluster_std=1.0, seed=3
    )
    dataset = generate_synthetic(synth)
    train_cfg = TrainConfig(optimizer="gd", lr=1.0, epochs=120, batch_size=None)
    cached = build_loo_cache(dataset, train_cfg, k=1)
    fresh = build_loo_cache(dataset, train_cfg, k=1)  # retrains every model
    rng = np.random.default_rng(9)
    for _ in range(50):
        y = rng.normal(0.0, 2.0, size=5)
        index = int(rng.integers(0, 20))
        label = int(rng.integers(0, 2))
        a = cached.influence(y, label)[index]
        b = fresh.influence(y, label)[index]
        assert a == b, f"cache drift at index {index}: {a!r} != {b!r}"
    _report(9, "cached influence identical to retraining from scratch, 50 probes")


def test_criterion_10_subspace_reduction_recovers_everything():
    start = time.perf_counter()
    budget = reconstruction_query_budget(50, 20)
    assert budget == sum(50 - i + 1 for i in range(20))
    for seed in range(10):
        rng = np.random.default_rng(900 + seed)
        base_w = rng.normal(size=50)
        loo_w = base_w + rng.normal(scale=0.05, size=(20, 50))
        loo_b = 0.3 + rng.normal(scale=0.05, size=20)
        assert all(
            np.linalg.matrix_rank(np.stack([loo_w[i], loo_w[j]])) == 2
            for i, j in combinations(range(20), 2)
        ), "fixture lost pairwise independence"
        oracle = InfluenceOracle(
            LogisticModel(base_w, 0.3),
            [LogisticModel(loo_w[i], loo_b[i]) for i in range(20)],
        )
        result = algorithm1_reconstruct(oracle, y0=np.zeros(50), seed=seed)
        assert sorted(result.recovered) == list(range(20)), (
            f"seed {seed} recovered only {len(result.recovered)}/20"
        )
        assert result.queries_revealing <= budget
        assert result.retries == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(
        10,
        f"all 20 points recovered in 10/10 runs within {budget} revealing queries",
        elapsed,
    )


def test_criterion_11_worst_case_fixtures():
    # Each tangent line w_k*t - b_k peaks exactly at its own query t = k.
    base, loos, queries = tangent_fixture(10)
    assert base.w[0] == 0.0 and base.b == 0.0
    for k, y in enumerate(queries):
        lines = np.array([model.w[0] * y[0] - model.b for model in loos])
        assert int(np.argmax(lines)) == k
        assert lines[k] > np.max(np.delete(lines, k)), "tangency must be strict"

    # The shared-slope family collapses every query to the same reveal.
    base2, loos2 = same_direction_fixture(
        w=np.array([1.3]), b=0.2, deltas=np.linspace(0.5, 2.0, 8)
    )
    oracle = InfluenceOracle(base2, loos2)
    revealed = {
        oracle.query(np.array([t])).index for t in np.linspace(-5.0, 5.0, 1000)
    }
    assert len(revealed) == 1, f"grid search revealed {sorted(revealed)}"
    _report(
        11,
        "tangent family reveals one point per designated query; "
        "shared-slope family leaks exactly one point",
    )


def test_criterion_12_traversal_tracks_largest_component():
    start = time.perf_counter()
    train_cfg = TrainConfig(optimizer="gd", lr=1.0, epochs=150, batch_size=None)
    n_points = 300
    for seed in range(10):
        data = generate_synthetic(
            SynthConfig(
                n_features=4,
                n_classes=2,
                n_samples=n_points,
                class_sep=1.0,
                cluster_std=1.0,
                seed=seed,
            )
        )
        expl = build_loo_cache(data, train_cfg, k=5, threads=4)
        graph = build_influence_graph(expl, 5)
        components = sorted(
            strongly_connected_components(graph.edges), key=len, reverse=True
        )
        largest = set(components[0])
        assert len(largest) >= 2

        inside = min(largest)
        outcome = traverse_attack(
            expl, data.features[inside], 5, start_label=int(data.labels[inside])
        )
        assert largest <= set(outcome.recovered), (
            f"seed {seed}: start inside the component must recover all of it"
        )

        fresh = generate_synthetic(
            SynthConfig(
                n_features=4,
                n_classes=2,
                n_samples=10,
                class_sep=1.0,
                cluster_std=1.0,
                seed=1000 + seed,
            )
        )
        mean_recovered = float(
            np.mean(
                [len(traverse_attack(expl, x, 5).recovered) for x in fresh.features]
            )
        )
        assert len(largest) <= mean_recovered <= len(largest) + 0.2 * n_points, (
            f"seed {seed}: mean recovery {mean_recovered:.1f} outside "
            f"[{len(largest)}, {len(largest) + 0.2 * n_points:.0f}]"
        )
    elapsed = time.perf_counter() - start
    _report(
        12,
        "adaptive traversal recovers the largest strongly connected component",
        elapsed,
    )


def test_criterion_13_perturbation_methods_stay_null():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        synth=SynthConfig(
            n_features=200,
            n_classes=20,
            n_samples=2000,
            class_sep=0.2,
            cluster_std=0.2,
            seed=0,
        ),
        hidden=(50,),
        activation="tanh",
        train=TARGET_TRAIN,
        statistics=[
            AttackStatistic("expl_var", "local_surrogate", params={"num_samples": 200}),
            AttackStatistic(
                "expl_var", "smoothgrad", params={"samples": 25, "sigma": 1.0}
            ),
        ],
        calibrations=["optimal"],
        repetitions=20,
        subsets_per_repetition=1,
        points_per_subset=2000,
        seed=0,
    )
    result = run_threshold_experiment(cfg)
    elapsed = time.perf_counter() - start
    means = {}
    for label in ("expl_var[local_surrogate]", "expl_var[smoothgrad]"):
        accs = [r.attack_accuracy for r in result.records if r.statistic == label]
        assert len(accs) == 20
        means[label] = float(np.mean(accs))
        assert 0.48 <= means[label] <= 0.55, f"{label} mean {means[label]:.4f}"
    assert elapsed < 100.0  # about 4x the batched engine's time; the per-point loop took 120 s+
    _report(
        13,
        f"sampling-based attributions stay at chance (surrogate "
        f"{means['expl_var[local_surrogate]']:.3f}, smoothed gradient "
        f"{means['expl_var[smoothgrad]']:.3f})",
        elapsed,
    )


def _minority_dataset(seed: int) -> Dataset:
    """196 easy two-blob points plus a 2% cluster fighting the local label."""
    rng = np.random.default_rng(400 + seed)
    n_major, n_minor, n_feat = 196, 4, 4
    half = n_major // 2
    major = np.vstack(
        [
            rng.normal(-1.0, 1.0, size=(half, n_feat)),
            rng.normal(+1.0, 1.0, size=(n_major - half, n_feat)),
        ]
    )
    major_labels = np.array([0] * half + [1] * (n_major - half))
    minor = rng.normal(3.0, 0.3, size=(n_minor, n_feat))
    minor_labels = np.zeros(n_minor, dtype=np.int64)
    features = np.vstack([major, minor])
    labels = np.concatenate([major_labels, minor_labels])
    groups = np.array([0] * n_major + [1] * n_minor)
    order = rng.permutation(len(labels))
    return Dataset(
        features=features[order], labels=labels[order], groups=groups[order]
    )


def test_criterion_14_minority_group_is_more_exposed():
    start = time.perf_counter()
    train_cfg = TrainConfig(optimizer="gd", lr=1.0, epochs=150, batch_size=None)
    wins = 0
    for seed in range(10):
        expl = build_loo_cache(_minority_dataset(seed), train_cfg, k=5, threads=4)
        overall = self_reveal_rate(expl, 5)
        minority = group_reveal_rates(expl, 5)[1]
        wins += minority > overall
    elapsed = time.perf_counter() - start
    assert wins >= 8, f"minority exposure held in only {wins}/10 runs"
    _report(
        14,
        f"planted 2% minority self-reveals above the overall rate in {wins}/10 runs",
        elapsed,
    )


def test_criterion_15_reruns_are_byte_identical(tmp_path):
    attack_payload = {
        "synth": {"n_features": 2, "n_samples": 80, "class_sep": 2.0, "seed": 1},
        "hidden": [6],
        "train": {"optimizer": "adagrad", "lr": 0.05, "epochs": 8},
        "statistics": [{"kind": "expl_var", "method": "gradient"}],
        "calibrations": ["optimal"],
        "repetitions": 3,
        "subsets_per_repetition": 2,
        "points_per_subset": 12,
        "seed": 4,
    }
    config = tmp_path / "attack.json"
    config.write_text(json.dumps(attack_payload))
    runs = {
        "serial": ["attack", "--config", str(config), "--out", str(tmp_path / "serial")],
        "rerun": ["attack", "--config", str(config), "--out", str(tmp_path / "rerun")],
        "threads": [
            "attack",
            "--config",
            str(config),
            "--out",
            str(tmp_path / "threads"),
            "--threads",
            "4",
        ],
    }
    for argv in runs.values():
        assert cli_main(argv) == 0
    for name in ("threshold_records.csv", "threshold_decisions.csv"):
        reference = (tmp_path / "serial" / name).read_bytes()
        assert (tmp_path / "rerun" / name).read_bytes() == reference
        assert (tmp_path / "threads" / name).read_bytes() == reference

    sweep_payload = {
        "dims": [1, 2],
        "arch": "small",
        "synth": {"n_features": 1, "n_samples": 40, "class_sep": 2.0, "seed": 5},
        "train": {"optimizer": "adagrad", "lr": 0.05, "epochs": 10},
    }
    sweep_config = tmp_path / "sweep.json"
    sweep_config.write_text(json.dumps(sweep_payload))
    outs = []
    for name, threads in (("s1", None), ("s2", "3")):
        argv = ["sweep-dim", "--config", str(sweep_config), "--out", str(tmp_path / name)]
        if threads:
            argv += ["--threads", threads]
        assert cli_main(argv) == 0
        outs.append((tmp_path / name / "dimension_sweep.csv").read_bytes())
    assert outs[0] == outs[1]
    _report(15, "experiment CSVs byte-identical across reruns and thread counts")
