"""Tests for synthetic cluster generation and the dimension-correlation sweep."""
from __future__ import annotations

import numpy as np
import pytest

import explainleak.harness as harness_mod
import explainleak.synth as synth_mod
from conftest import finite_difference_gradient, use_cpus
from explainleak.attacks import AttackStatistic, statistic_values
from explainleak.config import ConfigError
from explainleak.harness import ExperimentConfig
from explainleak.models import LayerSpec, TrainConfig, TrainingDivergedError, train_logistic
from explainleak.synth import (
    ARCHS,
    CorrelationResult,
    DimensionResult,
    SweepConfig,
    SynthConfig,
    dimension_sweep,
    generate_synthetic,
    membership_correlation,
)

# The statistic the dimension sweep correlates with membership.
GRAD_NORM_L1 = AttackStatistic("expl_var", "gradient", use_l1=True)


def pearson_oracle(x: np.ndarray, y: np.ndarray) -> float:
    """Textbook Pearson correlation, written independently of the library."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dx = x - x.mean()
    dy = y - y.mean()
    return float((dx * dy).sum() / np.sqrt((dx * dx).sum() * (dy * dy).sum()))


class TestSynthConfig:
    def test_defaults(self):
        cfg = SynthConfig(n_features=4)
        assert cfg.n_classes == 2
        assert cfg.n_samples == 2000
        assert cfg.class_sep == 1.0
        assert cfg.cluster_std == 1.0
        assert cfg.seed == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_features": 0},
            {"n_features": 3, "n_classes": 1},
            {"n_features": 3, "n_samples": 1},
            {"n_features": 3, "class_sep": 0.0},
            {"n_features": 3, "class_sep": -1.0},
            {"n_features": 3, "cluster_std": -0.1},
            {"n_features": 3, "seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(**kwargs)

    def test_rejects_more_classes_than_vertices(self):
        # A 2-cube has 4 vertices, so 5 distinct class centers cannot exist.
        with pytest.raises(ValueError, match="vertices"):
            SynthConfig(n_features=2, n_classes=5)
        # Exactly filling the cube is allowed.
        SynthConfig(n_features=2, n_classes=4)

    def test_dict_round_trip(self):
        cfg = SynthConfig(
            n_features=7,
            n_classes=3,
            n_samples=123,
            class_sep=2.5,
            cluster_std=0.4,
            seed=9,
        )
        assert SynthConfig.from_dict(cfg.to_dict()) == cfg

    def test_archs_table(self):
        assert ARCHS == {
            "small": (5,),
            "base": (50, 50),
            "big": (100, 100, 100),
        }


class TestGenerateSynthetic:
    def test_one_feature_two_classes_centers(self):
        # With zero spread every point sits exactly on its class center, and
        # in one dimension the only two vertices are -sep and +sep.
        cfg = SynthConfig(
            n_features=1, n_classes=2, n_samples=10, class_sep=3.0, cluster_std=0.0
        )
        dataset = generate_synthetic(cfg)
        values = np.unique(dataset.features)
        assert values.tolist() == [-3.0, 3.0]
        # Each center belongs to exactly one class.
        for value in values:
            labels = dataset.labels[dataset.features[:, 0] == value]
            assert len(np.unique(labels)) == 1

    def test_centers_are_scaled_hypercube_vertices(self):
        cfg = SynthConfig(
            n_features=3,
            n_classes=4,
            n_samples=40,
            class_sep=2.5,
            cluster_std=0.0,
            seed=11,
        )
        dataset = generate_synthetic(cfg)
        centers = np.unique(dataset.features, axis=0)
        assert centers.shape == (4, 3)
        assert np.all(np.isin(centers, [-2.5, 2.5]))
        # One distinct center per class.
        for c in range(4):
            rows = np.unique(dataset.features[dataset.labels == c], axis=0)
            assert rows.shape == (1, 3)

    def test_class_balance_up_to_one(self):
        # 11 points over 3 classes: classes 0 and 1 get the two extras.
        cfg = SynthConfig(n_features=2, n_classes=3, n_samples=11, seed=4)
        dataset = generate_synthetic(cfg)
        counts = np.bincount(dataset.labels, minlength=3)
        assert counts.tolist() == [4, 4, 3]

    def test_even_split(self):
        cfg = SynthConfig(n_features=2, n_classes=4, n_samples=20, seed=4)
        counts = np.bincount(generate_synthetic(cfg).labels, minlength=4)
        assert counts.tolist() == [5, 5, 5, 5]

    def test_shapes_and_label_range(self):
        cfg = SynthConfig(n_features=6, n_classes=3, n_samples=33, seed=1)
        dataset = generate_synthetic(cfg)
        assert dataset.features.shape == (33, 6)
        assert dataset.labels.shape == (33,)
        assert dataset.labels.min() >= 0
        assert dataset.labels.max() == 2

    def test_seed_determinism(self):
        cfg = SynthConfig(n_features=5, n_samples=50, seed=21)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        c = generate_synthetic(SynthConfig(n_features=5, n_samples=50, seed=22))
        assert not np.array_equal(a.features, c.features)

    def test_output_is_shuffled(self):
        # Blocks are generated per class; the returned order must not be.
        cfg = SynthConfig(n_features=2, n_classes=2, n_samples=200, seed=0)
        labels = generate_synthetic(cfg).labels
        assert not np.array_equal(labels, np.sort(labels))

    def test_zero_std_separable_by_logistic(self):
        # Exact cluster centers are trivially separable.
        cfg = SynthConfig(
            n_features=2, n_classes=2, n_samples=40, class_sep=2.0, cluster_std=0.0
        )
        dataset = generate_synthetic(cfg)
        model = train_logistic(
            dataset, TrainConfig(optimizer="gd", lr=0.5, epochs=200, batch_size=None)
        )
        assert model.accuracy(dataset.features, dataset.labels) == 1.0

    def test_high_dimension_uses_sampled_vertices(self):
        # Above the enumeration cutoff the centers are rejection-sampled;
        # the contract (distinct scaled vertices) must still hold.
        cfg = SynthConfig(
            n_features=20, n_classes=6, n_samples=12, cluster_std=0.0, seed=3
        )
        dataset = generate_synthetic(cfg)
        centers = np.unique(dataset.features, axis=0)
        assert centers.shape == (6, 20)
        assert np.all(np.isin(centers, [-1.0, 1.0]))


class TestGradNorms:
    def test_matches_finite_difference_gradient(self, small_trained_model):
        model = small_trained_model
        x = np.array([0.3, -0.2, 0.8, 0.1])
        target = int(np.argmax(model.forward_batch(x[None])[0]))
        fd = finite_difference_gradient(lambda z: model.forward_batch(z[None])[0][target], x)
        norm = statistic_values(GRAD_NORM_L1, model, x[None])[0]
        assert norm == pytest.approx(np.abs(fd).sum(), rel=1e-5)

    def test_accepts_list_input(self, small_trained_model):
        assert statistic_values(GRAD_NORM_L1, small_trained_model, [[0.1, 0.2, 0.3, 0.4]])[0] >= 0.0

    def test_batch_matches_single(self, small_trained_model, blob_dataset):
        model = small_trained_model
        X = blob_dataset.features[:7]
        batch = statistic_values(GRAD_NORM_L1, model, X)
        single = np.array([statistic_values(GRAD_NORM_L1, model, x[None])[0] for x in X])
        assert batch == pytest.approx(single, abs=1e-12)
        assert batch.shape == (7,)

    def test_sweep_correlates_this_statistic(self, monkeypatch):
        seen = []

        def recording(stat, model, X, labels=None):
            seen.append(stat)
            return statistic_values(stat, model, X, labels)

        monkeypatch.setattr(synth_mod, "statistic_values", recording)
        template = SynthConfig(n_features=2, n_samples=40, seed=0)
        dimension_sweep(SweepConfig((2,), template, arch="small", train=TrainConfig(epochs=2)))
        assert seen == [GRAD_NORM_L1, GRAD_NORM_L1]


class TestMembershipCorrelation:
    def test_matches_textbook_pearson(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            norms = rng.normal(size=30)
            membership = rng.integers(0, 2, size=30).astype(bool)
            if membership.all() or not membership.any():
                continue
            result = membership_correlation(norms, membership)
            expected = pearson_oracle(norms, 1.0 - membership.astype(float))
            assert not result.degenerate
            assert result.value == pytest.approx(expected, abs=1e-12)

    def test_sign_convention(self):
        # Statistic larger off the training set => positive correlation.
        norms = np.array([1.0, 1.1, 0.9, 3.0, 3.2, 2.9])
        membership = np.array([True, True, True, False, False, False])
        result = membership_correlation(norms, membership)
        assert result.value > 0.9

    def test_antisymmetry_under_membership_flip(self):
        rng = np.random.default_rng(5)
        norms = rng.normal(size=40)
        membership = rng.integers(0, 2, size=40).astype(bool)
        forward = membership_correlation(norms, membership)
        flipped = membership_correlation(norms, ~membership)
        assert flipped.value == pytest.approx(-forward.value, abs=1e-12)

    def test_constant_norms_degenerate(self):
        result = membership_correlation(
            np.full(6, 2.0), np.array([True, False] * 3)
        )
        assert result == CorrelationResult(0.0, True)

    def test_constant_membership_degenerate(self):
        result = membership_correlation(np.arange(6.0), np.ones(6, dtype=bool))
        assert result == CorrelationResult(0.0, True)

    def test_perfect_correlation(self):
        norms = np.array([0.0, 0.0, 1.0, 1.0])
        membership = np.array([True, True, False, False])
        assert membership_correlation(norms, membership).value == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "norms, membership",
        [
            (np.arange(4.0), np.ones(5, dtype=bool)),
            (np.zeros((2, 2)), np.ones((2, 2), dtype=bool)),
        ],
    )
    def test_rejects_bad_shapes(self, norms, membership):
        with pytest.raises(ValueError, match="1-D"):
            membership_correlation(norms, membership)


FAST_TRAIN = TrainConfig(optimizer="adagrad", lr=0.05, epochs=20, batch_size=16)


class TestDimensionSweep:
    def test_rows_and_seed_derivation(self):
        template = SynthConfig(n_features=1, n_samples=60, class_sep=2.0, seed=5)
        rows = dimension_sweep(SweepConfig((1, 3), template, arch="small", train=FAST_TRAIN)).rows
        assert [row.dim for row in rows] == [1, 3]
        for row in rows:
            assert isinstance(row, DimensionResult)
            assert row.arch == "small"
            assert not row.diverged
            assert -1.0 <= row.correlation <= 1.0 or row.degenerate
            assert 0.0 <= row.train_accuracy <= 1.0
            assert 0.0 <= row.test_accuracy <= 1.0
            # Every dimension reseeds deterministically from (base seed, dim)
            # so runs stay reproducible regardless of scheduling.
            expected_seed = int(
                np.random.SeedSequence([template.seed, row.dim]).generate_state(1)[0]
            )
            assert row.seed == expected_seed

    def test_rerun_gives_identical_results(self):
        template = SynthConfig(n_features=1, n_samples=40, class_sep=2.0, seed=8)
        cfg = SweepConfig((1, 2, 4), template, arch="small", train=FAST_TRAIN)
        first = dimension_sweep(cfg)
        second = dimension_sweep(cfg)
        assert first == second

    @pytest.mark.usefixtures("worker_guard")
    def test_same_results_in_workers(self, monkeypatch):
        # The largest dim is mapped first; the rows still come back in dims order.
        template = SynthConfig(n_features=1, n_samples=40, class_sep=2.0, seed=8)
        cfg = SweepConfig((1, 2, 4), template, arch="small", train=FAST_TRAIN)
        rows = {}
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            rows[cpus] = dimension_sweep(cfg).rows
        assert repr(rows[1]) == repr(rows[2])  # float reprs round-trip: the same bits
        assert [row.dim for row in rows[2]] == [1, 2, 4]

    def test_diverged_dimension_kept_with_nan_row(self, monkeypatch):
        real_train = synth_mod.train

        def flaky_train(model, dataset, cfg):
            if dataset.n_features == 2:
                raise TrainingDivergedError(epoch=0, step=1, loss=float("inf"))
            return real_train(model, dataset, cfg)

        monkeypatch.setattr(synth_mod, "train", flaky_train)
        template = SynthConfig(n_features=1, n_samples=40, class_sep=2.0, seed=2)
        result = dimension_sweep(SweepConfig((1, 2, 3), template, arch="small", train=FAST_TRAIN))
        rows = result.rows
        assert [row.dim for row in rows] == [1, 2, 3]
        bad = rows[1]
        assert bad.diverged and bad.degenerate
        assert np.isnan(bad.correlation)
        assert np.isnan(bad.train_accuracy)
        assert np.isnan(bad.test_accuracy)
        assert bad.seed == int(
            np.random.SeedSequence([template.seed, 2]).generate_state(1)[0]
        )
        assert not rows[0].diverged and not rows[2].diverged
        assert result.warnings == []  # its diverged flag already names it

    def test_target_is_the_harness_target(self, monkeypatch):
        """The sweep's target is the one `harness.train_target` builds for the same widths:
        the arch's tanh layers, then an identity head of one logit per class. A tanh head
        bounded every 2-class prediction at e / (e + 1/e), about 0.881."""
        use_cpus(monkeypatch, 1)
        trained = {}

        def recording(owner):
            def train(model, *args):
                trained[owner] = model
                return real(model, *args)
            real = owner.train
            return train

        for owner in (synth_mod, harness_mod):
            monkeypatch.setattr(owner, "train", recording(owner))
        synth = SynthConfig(n_features=3, n_samples=40, seed=2)
        dimension_sweep(SweepConfig(dims=(3,), synth=synth, arch="base",
                                    train=TrainConfig(epochs=1)))
        cfg = ExperimentConfig(synth=synth, hidden=ARCHS["base"], train=TrainConfig(epochs=1))
        harness_mod.train_target(generate_synthetic(synth), cfg, seed=0, n_classes=2)
        swept, built = trained[synth_mod], trained[harness_mod]
        assert swept.layers[-1] == LayerSpec(2, "identity")
        assert swept.layers == built.layers and swept.input_dim == built.input_dim == 3

    def test_undefined_correlation_is_written_as_nan_with_a_warning(self, tmp_path):
        # Clusters 1000 apart with no spread saturate the tanh layer: every gradient
        # 1-norm is 0.0, so the correlation with membership is undefined, not 0.
        template = SynthConfig(n_features=4, n_samples=200, class_sep=1000.0, cluster_std=0.0)
        result = dimension_sweep(SweepConfig((4, 8), template, arch="small",
                                             train=TrainConfig(epochs=2)))
        assert [(r.dim, r.degenerate, r.diverged) for r in result.rows] == [
            (4, True, False), (8, True, False)]
        assert all(np.isnan(r.correlation) for r in result.rows)
        path = tmp_path / "dimension_sweep.csv"
        assert result.write(tmp_path) == f"swept 2 dimensions, wrote {path}"
        lines = path.read_text().splitlines()
        assert [line.split(",")[:3] for line in lines[1:]] == [["4", "small", "nan"],
                                                               ["8", "small", "nan"]]
        assert result.warnings == [
            f"dim {d}: every gradient norm is the same value, so the correlation is undefined"
            for d in (4, 8)]

    def test_separable_template_reaches_high_accuracy(self):
        template = SynthConfig(
            n_features=1, n_samples=80, class_sep=3.0, cluster_std=0.3, seed=1
        )
        rows = dimension_sweep(SweepConfig(
            (2,),
            template,
            arch="small",
            train=TrainConfig(optimizer="adagrad", lr=0.05, epochs=60),
        )).rows
        assert rows[0].train_accuracy >= 0.95
        assert rows[0].test_accuracy >= 0.9

    @pytest.mark.parametrize("dims", [(), (3, 1), (2, 2)])
    def test_rejects_bad_dims(self, dims):
        template = SynthConfig(n_features=1, n_samples=20)
        with pytest.raises(ConfigError, match="dims must be non-empty and strictly ascending"):
            SweepConfig(dims, template, arch="small", train=FAST_TRAIN)

    def test_rejects_unknown_arch(self):
        template = SynthConfig(n_features=1, n_samples=20)
        with pytest.raises(ConfigError, match="arch"):
            SweepConfig((1,), template, arch="huge", train=FAST_TRAIN)

    def test_rejects_a_dim_the_template_cannot_take(self):
        # A 1-cube has 2 vertices, too few for 3 classes; a 2-cube has 4.
        template = SynthConfig(n_features=4, n_classes=3, n_samples=30)
        with pytest.raises(ConfigError, match="dims: 3 classes need 3 distinct vertices"):
            SweepConfig((1, 4), template, arch="small")
        with pytest.raises(ConfigError, match="dims: n_features must be >= 1"):
            SweepConfig((0, 4), template, arch="small")
        assert SweepConfig((2, 4), template, arch="small").dims == (2, 4)
