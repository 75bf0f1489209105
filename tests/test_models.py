"""Model forward/gradient/training behavior against independent oracles."""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from explainleak import (
    Dataset,
    LayerSpec,
    LogisticModel,
    MlpModel,
    TrainConfig,
    TrainingDivergedError,
    init_model,
    train,
    train_logistic,
)
from conftest import finite_difference_gradient, relative_error, two_blob_dataset
from explainleak.models import sigmoid


def _hand_network() -> MlpModel:
    """A 2-3-2 network with fixed weights for hand-checkable forwards."""
    w1 = np.array([[0.5, -0.2, 0.1], [0.3, 0.8, -0.4]])
    b1 = np.array([0.1, 0.0, -0.2])
    w2 = np.array([[1.0, -1.0], [0.5, 0.5], [-0.3, 0.2]])
    b2 = np.array([0.0, 0.1])
    return MlpModel(
        layers=[LayerSpec(3, "tanh"), LayerSpec(2, "identity")],
        input_dim=2,
        weights=[w1, w2],
        biases=[b1, b2],
    )


class TestForward:
    def test_hand_computed_softmax(self):
        model = _hand_network()
        x = np.array([1.0, -0.5])
        hidden = np.tanh(
            np.array(
                [
                    0.5 * 1.0 + 0.3 * -0.5 + 0.1,
                    -0.2 * 1.0 + 0.8 * -0.5 + 0.0,
                    0.1 * 1.0 + -0.4 * -0.5 + -0.2,
                ]
            )
        )
        logits = np.array(
            [
                1.0 * hidden[0] + 0.5 * hidden[1] + -0.3 * hidden[2] + 0.0,
                -1.0 * hidden[0] + 0.5 * hidden[1] + 0.2 * hidden[2] + 0.1,
            ]
        )
        expected = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(model.forward(x), expected, rtol=1e-12)

    def test_probabilities_normalized(self):
        model = init_model([LayerSpec(5, "relu"), LayerSpec(3, "identity")], 4, seed=0)
        X = np.random.default_rng(1).normal(size=(10, 4))
        probs = model.forward_batch(X)
        assert probs.shape == (10, 3)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_batch_matches_single(self):
        model = init_model([LayerSpec(6, "tanh"), LayerSpec(2, "identity")], 3, seed=2)
        X = np.random.default_rng(4).normal(size=(7, 3))
        batch = model.forward_batch(X)
        for i in range(7):
            np.testing.assert_allclose(model.forward(X[i]), batch[i], rtol=1e-12)

    def test_sigmoid_head_two_columns(self):
        model = init_model([LayerSpec(4, "relu"), LayerSpec(1, "identity")], 3,
                           seed=5, final="sigmoid")
        X = np.random.default_rng(6).normal(size=(5, 3))
        probs = model.forward_batch(X)
        assert probs.shape == (5, 2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_loss_is_cross_entropy_of_label_prob(self):
        model = _hand_network()
        x = np.array([0.3, 0.7])
        probs = model.forward(x)
        assert model.loss(x, 0) == pytest.approx(-np.log(probs[0]), rel=1e-12)
        assert model.loss(x, 1) == pytest.approx(-np.log(probs[1]), rel=1e-12)

    def test_loss_batch_duplicated_rows_agree(self):
        model = _hand_network()
        x = np.array([0.2, -0.9])
        X = np.vstack([x, x, x])
        losses = model.loss_batch(X, np.array([1, 1, 1]))
        assert losses[0] == losses[1] == losses[2]


class TestInputGradients:
    @pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
    @pytest.mark.parametrize("final", ["softmax", "sigmoid"])
    def test_finite_difference(self, activation, final):
        out_width = 1 if final == "sigmoid" else 3
        model = init_model(
            [LayerSpec(8, activation), LayerSpec(out_width, "identity")],
            input_dim=5,
            seed=11,
            final=final,
        )
        rng = np.random.default_rng(12)
        for _ in range(4):
            # Offset from zero so relu kinks are not sampled at the boundary.
            x = rng.normal(size=5) + 0.1
            for target in range(2 if final == "sigmoid" else out_width):
                exact = model.input_gradient(x, target_class=target)
                fd = finite_difference_gradient(
                    lambda p, t=target: model.forward(p)[t], x
                )
                assert relative_error(fd, exact) < 1e-4

    def test_default_target_is_predicted_class(self):
        model = init_model([LayerSpec(6, "tanh"), LayerSpec(3, "identity")], 4, seed=7)
        X = np.random.default_rng(8).normal(size=(6, 4))
        predicted = model.predict_batch(X)
        np.testing.assert_array_equal(
            model.input_gradient_batch(X),
            model.input_gradient_batch(X, predicted),
        )

    def test_deep_network_finite_difference(self):
        model = init_model(
            [LayerSpec(10, "tanh"), LayerSpec(6, "relu"), LayerSpec(4, "identity")],
            input_dim=6,
            seed=21,
        )
        x = np.random.default_rng(22).normal(size=6) + 0.05
        exact = model.input_gradient(x, target_class=2)
        fd = finite_difference_gradient(lambda p: model.forward(p)[2], x)
        assert relative_error(fd, exact) < 1e-4


class TestParamGradients:
    def test_finite_difference_on_weights(self):
        model = init_model([LayerSpec(4, "tanh"), LayerSpec(2, "identity")], 3, seed=9)
        rng = np.random.default_rng(10)
        X = rng.normal(size=(6, 3))
        labels = rng.integers(0, 2, size=6)

        def mean_loss() -> float:
            return float(np.mean(model.loss_batch(X, labels)))

        grads = model.param_gradients(X, labels)
        h = 1e-6
        for layer, (dW, db) in enumerate(grads):
            for idx in [(0, 0), (dW.shape[0] - 1, dW.shape[1] - 1)]:
                original = model.weights[layer][idx]
                model.weights[layer][idx] = original + h
                up = mean_loss()
                model.weights[layer][idx] = original - h
                down = mean_loss()
                model.weights[layer][idx] = original
                assert (up - down) / (2 * h) == pytest.approx(dW[idx], abs=1e-5)
            original = model.biases[layer][0]
            model.biases[layer][0] = original + h
            up = mean_loss()
            model.biases[layer][0] = original - h
            down = mean_loss()
            model.biases[layer][0] = original
            assert (up - down) / (2 * h) == pytest.approx(db[0], abs=1e-5)


class TestInit:
    def test_weight_bounds_and_zero_biases(self):
        model = init_model([LayerSpec(16, "tanh"), LayerSpec(3, "identity")], 9, seed=1)
        assert np.all(np.abs(model.weights[0]) <= 1.0 / np.sqrt(9))
        assert np.all(np.abs(model.weights[1]) <= 1.0 / np.sqrt(16))
        for b in model.biases:
            np.testing.assert_array_equal(b, 0.0)

    def test_seed_determinism(self):
        a = init_model([LayerSpec(5, "relu"), LayerSpec(2, "identity")], 4, seed=42)
        b = init_model([LayerSpec(5, "relu"), LayerSpec(2, "identity")], 4, seed=42)
        c = init_model([LayerSpec(5, "relu"), LayerSpec(2, "identity")], 4, seed=43)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert any(
            not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights)
        )


class TestTraining:
    def test_training_reduces_loss_and_fits_blobs(self):
        ds = two_blob_dataset(n=60, seed=14)
        model = init_model([LayerSpec(8, "tanh"), LayerSpec(2, "identity")], 4, seed=14)
        before = float(np.mean(model.loss_batch(ds.features, ds.labels)))
        train(model, ds, TrainConfig(optimizer="adagrad", lr=0.05, epochs=40, seed=14))
        after = float(np.mean(model.loss_batch(ds.features, ds.labels)))
        assert after < before
        assert model.accuracy(ds.features, ds.labels) >= 0.95

    @pytest.mark.parametrize("optimizer", ["adagrad", "adam", "gd"])
    def test_same_seed_same_weights(self, optimizer):
        ds = two_blob_dataset(n=30, seed=15)
        batch = None if optimizer == "gd" else 32
        runs = []
        for _ in range(2):
            model = init_model(
                [LayerSpec(6, "tanh"), LayerSpec(2, "identity")], 4, seed=16
            )
            train(
                model,
                ds,
                TrainConfig(optimizer=optimizer, lr=0.05, epochs=5,
                            batch_size=batch, seed=16),
            )
            runs.append([W.copy() for W in model.weights])
        for wa, wb in zip(*runs):
            np.testing.assert_array_equal(wa, wb)

    def test_shuffle_seed_changes_weights(self):
        ds = two_blob_dataset(n=30, seed=15)
        outcomes = []
        for train_seed in (1, 2):
            model = init_model(
                [LayerSpec(6, "tanh"), LayerSpec(2, "identity")], 4, seed=16
            )
            train(
                model,
                ds,
                TrainConfig(optimizer="adagrad", lr=0.05, epochs=5,
                            batch_size=8, seed=train_seed),
            )
            outcomes.append(model.weights[0].copy())
        assert not np.array_equal(outcomes[0], outcomes[1])

    def test_single_adagrad_step_hand_computed(self):
        ds = two_blob_dataset(n=20, seed=17)
        model = init_model([LayerSpec(3, "tanh"), LayerSpec(2, "identity")], 4, seed=17)
        grads = model.param_gradients(ds.features, ds.labels)
        expected = [
            W - 0.5 * dW / (np.sqrt(dW * dW) + 1e-10)
            for W, (dW, _) in zip([W.copy() for W in model.weights], grads)
        ]
        train(
            model,
            ds,
            TrainConfig(optimizer="adagrad", lr=0.5, epochs=1, batch_size=None, seed=0),
        )
        for got, want in zip(model.weights, expected):
            np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_divergence_raises_with_location(self):
        ds = two_blob_dataset(n=20, sep=8.0, seed=18)
        model = init_model(
            [LayerSpec(4, "identity"), LayerSpec(2, "identity")], 4, seed=18
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as excinfo:
                train(
                    model,
                    ds,
                    TrainConfig(optimizer="gd", lr=1e155, epochs=50,
                                batch_size=None, seed=18),
                )
        assert excinfo.value.epoch >= 0
        assert excinfo.value.step >= 0
        assert not np.isfinite(excinfo.value.loss)

    def test_label_out_of_range_rejected(self):
        ds = Dataset(np.zeros((4, 2)), np.array([0, 1, 2, 0]))
        model = init_model([LayerSpec(3, "tanh"), LayerSpec(2, "identity")], 2, seed=0)
        with pytest.raises(ValueError):
            train(model, ds, TrainConfig(epochs=1))


class TestSerialization:
    def test_mlp_round_trip_exact(self):
        ds = two_blob_dataset(n=20, seed=19)
        model = init_model([LayerSpec(5, "tanh"), LayerSpec(2, "identity")], 4, seed=19)
        train(model, ds, TrainConfig(optimizer="adam", lr=0.01, epochs=3, seed=19))
        clone = MlpModel.from_json(model.to_json())
        for wa, wb in zip(model.weights, clone.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(model.biases, clone.biases):
            np.testing.assert_array_equal(ba, bb)
        assert clone.final == model.final
        assert [s.activation for s in clone.layers] == [
            s.activation for s in model.layers
        ]
        X = np.random.default_rng(20).normal(size=(5, 4))
        np.testing.assert_array_equal(model.forward_batch(X), clone.forward_batch(X))

    def test_logistic_round_trip_exact(self):
        model = LogisticModel(w=np.array([0.125, -2.5, 3.75]), b=-0.875)
        clone = LogisticModel.from_json(model.to_json())
        np.testing.assert_array_equal(model.w, clone.w)
        assert model.b == clone.b


class TestLogisticModel:
    def test_sigmoid_is_the_plain_formula_and_saturates_quietly(self):
        z = np.array([-1000.0, -709.0, -30.0, -0.5, 0.0, 2.0, 40.0, 1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = sigmoid(z)
            scalar = sigmoid(np.float64(-800.0))
            buffer = z.copy()
            in_place = sigmoid(buffer, out=buffer)
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(f, 1.0 / (1.0 + np.exp(-z)))
        assert f[0] == 0.0 and f[-1] == 1.0 and scalar == 0.0
        assert in_place is buffer
        np.testing.assert_array_equal(buffer, f)

    def test_probability_formula(self):
        model = LogisticModel(w=np.array([2.0, -1.0]), b=0.5)
        x = np.array([0.3, 0.4])
        expected = 1.0 / (1.0 + np.exp(-(2.0 * 0.3 - 1.0 * 0.4 - 0.5)))
        assert model.positive_prob(x) == pytest.approx(expected, rel=1e-12)

    def test_loss_is_wrong_class_likelihood(self):
        model = LogisticModel(w=np.array([1.0]), b=0.0)
        x = np.array([2.0])
        f = model.positive_prob(x)
        assert model.loss(x, 0) == pytest.approx(f)
        assert model.loss(x, 1) == pytest.approx(1.0 - f)
        assert 0.0 <= model.loss(x, 0) <= 1.0

    def test_gradient_finite_difference(self):
        model = LogisticModel(w=np.array([0.7, -1.2, 0.4]), b=0.2)
        x = np.array([0.5, 0.1, -0.3])
        for target in (0, 1):
            exact = model.input_gradient(x, target_class=target)
            fd = finite_difference_gradient(lambda p, t=target: model.forward(p)[t], x)
            assert relative_error(fd, exact) < 1e-6

    def test_train_logistic_deterministic_and_separating(self):
        ds = two_blob_dataset(n=40, n_features=3, seed=23)
        cfg = TrainConfig(optimizer="gd", lr=1.0, epochs=200, batch_size=None)
        a = train_logistic(ds, cfg)
        b = train_logistic(ds, cfg)
        np.testing.assert_array_equal(a.w, b.w)
        assert a.b == b.b
        # Class-1 blob sits at +1 along every axis, so every weight is positive.
        assert np.all(a.w > 0)
        assert a.accuracy(ds.features, ds.labels) >= 0.95

    def test_train_logistic_likelihood_monotone_in_epochs(self):
        ds = two_blob_dataset(n=30, n_features=2, seed=24)
        y = ds.labels.astype(np.float64)

        def mean_log_likelihood(model) -> float:
            f = model.positive_prob_batch(ds.features)
            f = np.clip(f, 1e-12, 1.0 - 1e-12)
            return float(np.mean(y * np.log(f) + (1.0 - y) * np.log(1.0 - f)))

        lls = [
            mean_log_likelihood(
                train_logistic(
                    ds, TrainConfig(optimizer="gd", lr=0.5, epochs=e, batch_size=None)
                )
            )
            for e in (1, 5, 25, 125)
        ]
        assert all(later >= earlier for earlier, later in zip(lls, lls[1:]))

    def test_train_logistic_rejects_multiclass(self):
        ds = Dataset(np.zeros((3, 2)), np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            train_logistic(ds, TrainConfig(epochs=1))

    def test_train_logistic_divergence_raises(self):
        # Gradient ascent at lr=1e308 overflows to inf and then nan; the fit
        # must not come back as a model.
        from explainleak import SynthConfig, generate_synthetic

        ds = generate_synthetic(SynthConfig(n_features=3, n_samples=40, seed=1))
        cfg = TrainConfig(optimizer="gd", lr=1e308, epochs=50, batch_size=None)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as excinfo:
                train_logistic(ds, cfg)
        assert excinfo.value.epoch == 49
        assert not np.isfinite(excinfo.value.loss)
