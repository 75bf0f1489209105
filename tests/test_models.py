"""Model forward/gradient/training behavior against independent oracles."""
from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from explainleak import (
    Dataset,
    LayerSpec,
    LogisticModel,
    MlpModel,
    SynthConfig,
    TrainConfig,
    TrainingDivergedError,
    generate_synthetic,
    init_model,
    train,
    train_logistic,
)
from conftest import finite_difference_gradient, relative_error, two_blob_dataset
from explainleak.models import _cross_entropy, sigmoid


# `MlpModel.to_json` of a trained 2-3-2 tanh network, from before the sigmoid head went.
LEGACY_MODEL_JSON = (
    '{"arch": [{"activation": "tanh", "width": 3}, {"activation": "identity", "width": 2}], '
    '"biases": [[0.0006500007793184114, 0.0025143315755478384, 0.0002414240608768453], '
    '[0.0008233278605141246, -0.000823327860514125]], "final": "softmax", "input_dim": 2, '
    '"seed": 0, "train_config": {"batch_size": 2, "epochs": 2, "lr": 0.01, "lr_decay": 0.0, '
    '"optimizer": "adagrad", "seed": 0}, "weights": [[[0.22246089289274507, '
    '-0.29980887338996554, -0.6738417981699343], [-0.6690802765012811, 0.4569699175339314, '
    '0.5694156696548235]], [[0.10463530539641475, 0.28349688481684665], [0.07227972210226591, '
    '0.48047244101134995], [0.39059936125302397, -0.6000712138286949]]]}'
)


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
        np.testing.assert_allclose(model.forward_batch(x[None])[0], expected, rtol=1e-12)

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
            np.testing.assert_allclose(model.forward_batch(X[i : i + 1])[0], batch[i], rtol=1e-12)

    def test_loss_is_cross_entropy_of_label_prob(self):
        model = _hand_network()
        x = np.array([0.3, 0.7])
        probs = model.forward_batch(x[None])[0]
        losses = model.loss_batch(np.vstack([x, x]), np.array([0, 1]))
        np.testing.assert_allclose(losses, -np.log(probs), rtol=1e-12)

    def test_loss_batch_duplicated_rows_agree(self):
        model = _hand_network()
        x = np.array([0.2, -0.9])
        X = np.vstack([x, x, x])
        losses = model.loss_batch(X, np.array([1, 1, 1]))
        assert losses[0] == losses[1] == losses[2]


class TestInputGradients:
    @pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
    @pytest.mark.parametrize("final", ["softmax"])  # the one output head
    def test_finite_difference(self, activation, final):
        out_width = 3
        model = init_model(
            [LayerSpec(8, activation), LayerSpec(out_width, "identity")], input_dim=5, seed=11
        )
        rng = np.random.default_rng(12)
        for _ in range(4):
            # Offset from zero so relu kinks are not sampled at the boundary.
            x = rng.normal(size=5) + 0.1
            for target in range(out_width):
                exact = model.input_gradient_batch(x[None], [target])[0]
                fd = finite_difference_gradient(
                    lambda p, t=target: model.forward_batch(p[None])[0][t], x
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
        exact = model.input_gradient_batch(x[None], [2])[0]
        fd = finite_difference_gradient(lambda p: model.forward_batch(p[None])[0][2], x)
        assert relative_error(fd, exact) < 1e-4


def _step_gradients(model, X, labels):
    """One `_gradient_step`, the one training-gradient path, into preallocated (dW, db)
    arrays: (grads, the mean cross-entropy of the label probabilities it returns)."""
    grads = [(np.empty_like(W), np.empty_like(b)) for W, b in zip(model.weights, model.biases)]
    return grads, float(np.mean(_cross_entropy(model._gradient_step(X, labels, grads))))


class TestParamGradients:
    def test_finite_difference_on_weights(self):
        model = init_model([LayerSpec(4, "tanh"), LayerSpec(2, "identity")], 3, seed=9)
        rng = np.random.default_rng(10)
        X = rng.normal(size=(6, 3))
        labels = rng.integers(0, 2, size=6)

        def mean_loss() -> float:
            return float(np.mean(model.loss_batch(X, labels)))

        grads, loss = _step_gradients(model, X, labels)
        assert loss == mean_loss()
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


# Each activation's derivative at pre-activation z, written from z alone so that
# the references below share no derivative formula with the package.
_DERIV = {
    "tanh": lambda z: 1.0 - np.tanh(z) ** 2,
    "relu": lambda z: np.where(z > 0.0, 1.0, 0.0),
    "sigmoid": lambda z: (1.0 / (1.0 + np.exp(-z))) * (1.0 - 1.0 / (1.0 + np.exp(-z))),
    "identity": lambda z: np.ones_like(z),
}


def _loop_param_gradients(model, X, labels):
    """The backward loop of the training gradients before `_gradient_step` shared `_backward`."""
    zs, acts, probs = model.forward_stack(X)
    delta = probs.copy()
    delta[np.arange(len(labels)), labels] -= 1.0
    delta = delta / X.shape[0]
    grads = [None] * len(model.layers)
    for l in range(len(model.layers) - 1, -1, -1):
        spec = model.layers[l]
        dz = delta * _DERIV[spec.activation](zs[l])
        grads[l] = (acts[l].T @ dz, dz.sum(axis=0))
        if l > 0:
            delta = dz @ model.weights[l].T
    return grads


def _loop_input_gradient(model, X, guided):
    """The backward loop `input_gradient_batch` ran before it shared `_backward`."""
    zs, acts, probs = model.forward_stack(X)
    outs = acts[1:]
    target_classes = np.argmax(probs, axis=1)
    rows = np.arange(len(probs))
    pc = probs[rows, target_classes]
    delta = -probs * pc[:, None]
    delta[rows, target_classes] += pc
    for l in range(len(model.layers) - 1, -1, -1):
        spec = model.layers[l]
        if guided and spec.activation == "relu":
            dz = delta * (zs[l] > 0.0) * (delta > 0.0)
        else:
            dz = delta * _DERIV[spec.activation](zs[l])
        if l == 0:
            return dz @ model.weights[0].T
        delta = dz @ model.weights[l].T


@np.errstate(over="ignore", invalid="ignore")
def _per_layer_train(model, dataset, cfg):
    """`train` as it was before its optimizers ran over one parameter list: every
    update rule written out for each layer's W and again for its b, on the
    gradients of the old backward loop and a loss computed each step."""
    X = dataset.features
    labels = dataset.labels
    n = X.shape[0]
    batch_size = cfg.batch_size if cfg.batch_size is not None else n
    rng = np.random.default_rng(cfg.seed)
    accum = [(np.zeros_like(W), np.zeros_like(b)) for W, b in zip(model.weights, model.biases)]
    adam_m = [(np.zeros_like(W), np.zeros_like(b)) for W, b in zip(model.weights, model.biases)]
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            loss = float(np.mean(model.loss_batch(X[batch], labels[batch])))
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, step, loss)
            grads = _loop_param_gradients(model, X[batch], labels[batch])
            lr_t = cfg.lr / (1.0 + cfg.lr_decay * step)
            step += 1
            if cfg.optimizer == "adagrad":
                for l, (dW, db) in enumerate(grads):
                    aW, ab = accum[l]
                    aW += dW * dW
                    ab += db * db
                    model.weights[l] -= lr_t * dW / (np.sqrt(aW) + 1e-10)
                    model.biases[l] -= lr_t * db / (np.sqrt(ab) + 1e-10)
            elif cfg.optimizer == "adam":
                b1, b2, eps = 0.9, 0.999, 1e-8
                for l, (dW, db) in enumerate(grads):
                    mW, mb = adam_m[l]
                    vW, vb = accum[l]
                    mW *= b1
                    mW += (1 - b1) * dW
                    mb *= b1
                    mb += (1 - b1) * db
                    vW *= b2
                    vW += (1 - b2) * dW * dW
                    vb *= b2
                    vb += (1 - b2) * db * db
                    corr1 = 1 - b1**step
                    corr2 = 1 - b2**step
                    model.weights[l] -= lr_t * (mW / corr1) / (np.sqrt(vW / corr2) + eps)
                    model.biases[l] -= lr_t * (mb / corr1) / (np.sqrt(vb / corr2) + eps)
            else:
                for l, (dW, db) in enumerate(grads):
                    model.weights[l] -= lr_t * dW
                    model.biases[l] -= lr_t * db
    if not all(np.isfinite(p).all() for p in model.weights + model.biases):
        raise TrainingDivergedError(cfg.epochs - 1, step - 1, float("nan"))
    return model


class TestOneBackwardLoop:
    """`_gradient_step` and `input_gradient_batch` walk one `_backward`; both
    are bit-identical to the separate loops they had before."""

    @pytest.mark.parametrize("final", ["softmax"])  # the one output head
    @pytest.mark.parametrize(
        "hidden", [[], [("tanh", 7)], [("relu", 6), ("sigmoid", 5)], [("relu", 4), ("relu", 3)]]
    )
    def test_gradients_equal_the_old_loops(self, final, hidden):
        out = LayerSpec(4, "identity")
        model = init_model([LayerSpec(w, a) for a, w in hidden] + [out], 5, seed=3)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(9, 5))
        labels = rng.integers(0, model.n_classes, size=9)
        for (dW, db), (want_W, want_b) in zip(
            _step_gradients(model, X, labels)[0], _loop_param_gradients(model, X, labels)
        ):
            np.testing.assert_array_equal(dW, want_W)
            np.testing.assert_array_equal(db, want_b)
        for guided in (False, True):
            np.testing.assert_array_equal(
                model.input_gradient_batch(X, guided=guided), _loop_input_gradient(model, X, guided)
            )

    def test_training_equals_the_old_loop(self, monkeypatch):
        ds = two_blob_dataset(n=40, n_features=12, seed=5)
        cfg = TrainConfig(optimizer="adagrad", lr=0.05, epochs=30, batch_size=8, seed=5)
        layers = [LayerSpec(10, "tanh"), LayerSpec(2, "identity")]
        new = train(init_model(layers, 12, seed=6), ds, cfg)

        def loop_step(self, X, labels, grads):
            for (dW, db), (want_W, want_b) in zip(grads, _loop_param_gradients(self, X, labels)):
                dW[...], db[...] = want_W, want_b
            return self.forward_batch(X)[np.arange(len(labels)), labels]

        monkeypatch.setattr(MlpModel, "_gradient_step", loop_step)
        old = train(init_model(layers, 12, seed=6), ds, cfg)
        for a, b in zip(new.weights + new.biases, old.weights + old.biases):
            np.testing.assert_array_equal(a, b)


class TestOneParameterList:
    """`train` runs each optimizer once over one flat vector of [W1, .., WL, b1, .., bL]
    and checks each step's label probabilities, not its loss; the weights, and
    where a fit diverges its epoch, step and message, are those of the per-layer
    W and b updates it replaced."""

    DEEP = [LayerSpec(9, "tanh"), LayerSpec(7, "relu"), LayerSpec(5, "sigmoid"),
            LayerSpec(4, "identity"), LayerSpec(2, "identity")]
    TWO_HIDDEN = [LayerSpec(8, "relu"), LayerSpec(6, "tanh"), LayerSpec(2, "identity")]

    @pytest.mark.parametrize("optimizer, lr_decay", [
        ("adagrad", 0.0), ("adagrad", 0.3), ("adam", 0.0), ("adam", 0.3), ("gd", 0.0), ("gd", 0.3),
    ])
    def test_weights_equal_the_per_layer_updates(self, optimizer, lr_decay):
        self._assert_same_weights(optimizer, lr_decay, None if optimizer == "gd" else 8, self.DEEP)

    @pytest.mark.parametrize("optimizer, lr_decay, batch_size", [
        ("adagrad", 0.0, None), ("adagrad", 0.3, 8), ("adam", 0.3, None), ("adam", 0.0, 8),
        ("gd", 0.0, None), ("gd", 0.3, None),
    ])
    def test_two_hidden_layers_and_full_batches(self, optimizer, lr_decay, batch_size):
        self._assert_same_weights(optimizer, lr_decay, batch_size, self.TWO_HIDDEN)

    def _assert_same_weights(self, optimizer, lr_decay, batch_size, layers):
        ds = two_blob_dataset(n=40, n_features=12, seed=5)
        cfg = TrainConfig(optimizer=optimizer, lr=0.05, lr_decay=lr_decay, epochs=15,
                          batch_size=batch_size, seed=5)
        new = train(init_model(layers, 12, seed=6), ds, cfg)
        old = _per_layer_train(init_model(layers, 12, seed=6), ds, cfg)
        for a, b in zip(new.weights + new.biases, old.weights + old.biases):
            np.testing.assert_array_equal(a, b)
        start = init_model(layers, 12, seed=6)
        assert all(not np.array_equal(a, b) for a, b in zip(new.weights, start.weights))

    def test_a_fit_diverging_mid_run_stops_where_the_old_loop_stopped(self):
        ds = two_blob_dataset(n=40, n_features=12, seed=5)
        layers = [LayerSpec(6, "identity"), LayerSpec(5, "identity"), LayerSpec(2, "identity")]
        cfg = TrainConfig(optimizer="adam", lr=10.0**101.5, epochs=15, batch_size=8, seed=5)
        raised = []
        for fit in (train, _per_layer_train):
            with pytest.raises(TrainingDivergedError) as excinfo:
                fit(init_model(layers, 12, seed=6), ds, cfg)
            raised.append((excinfo.value.epoch, excinfo.value.step, str(excinfo.value)))
        assert raised[0] == raised[1]
        assert raised[0][:2] == (1, 8)  # after some steps that did not diverge

    def test_the_weights_are_views_of_one_vector(self):
        ds = two_blob_dataset(n=40, n_features=12, seed=5)
        model = init_model(self.TWO_HIDDEN, 12, seed=6)
        held = model.weights[0]
        train(model, ds, TrainConfig(epochs=2, seed=5))
        params = [p for pair in zip(model.weights, model.biases) for p in pair]
        assert all(p.base is params[0].base for p in params)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(params) for b in params[i + 1:])
        assert not np.shares_memory(held, model.weights[0])


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
        grads, _ = _step_gradients(model, ds.features, ds.labels)
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

    @pytest.mark.parametrize("optimizer", ["adagrad", "adam"])
    def test_lr_decay_applies_from_the_second_mini_batch(self, monkeypatch, optimizer):
        # Both runs reach the second batch with the same weights and optimizer
        # state, so the decayed second step is the undecayed one over 1 + decay.
        ds = two_blob_dataset(n=16, seed=19)
        decay = 0.5
        real = MlpModel._gradient_step
        runs = {}
        for lr_decay in (0.0, decay):
            seen = []

            def spy(self, X, labels, grads):
                seen.append([W.copy() for W in self.weights])
                return real(self, X, labels, grads)

            monkeypatch.setattr(MlpModel, "_gradient_step", spy)
            model = init_model([LayerSpec(5, "tanh"), LayerSpec(2, "identity")], 4, seed=19)
            train(model, ds, TrainConfig(optimizer=optimizer, lr=0.05, lr_decay=lr_decay,
                                         epochs=1, batch_size=8, seed=19))
            runs[lr_decay] = seen + [model.weights]
        plain, decayed = runs[0.0], runs[decay]
        for a, b in zip(plain[1], decayed[1]):  # after the first batch
            np.testing.assert_array_equal(a, b)
        for start, a, b in zip(plain[1], plain[2], decayed[2]):
            np.testing.assert_allclose(b - start, (a - start) / (1.0 + decay),
                                       rtol=1e-9, atol=1e-15)
            assert not np.array_equal(a, b)

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

    def test_divergence_prints_no_numpy_warning(self):
        # relu, Adam at lr 1e102: the forward pass overflows in matmul and the
        # softmax subtracts infinities before the loss check sees a NaN.
        ds = generate_synthetic(SynthConfig(n_features=3, n_samples=200, seed=3))
        layers = [LayerSpec(50, "relu"), LayerSpec(50, "relu"), LayerSpec(2, "identity")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError, match="epoch 0, step 1"):
                train(init_model(layers, 3, seed=0), ds,
                      TrainConfig(optimizer="adam", lr=1e102, batch_size=8))

    def test_non_finite_last_update_raises(self):
        # One full-batch step from a finite loss to infinite weights: no later
        # loss is computed, so only the parameter check can catch it.
        ds = two_blob_dataset(n=20, sep=8.0, seed=18)
        ds = Dataset(ds.features * 1e3, ds.labels)
        model = init_model([LayerSpec(2, "identity")], ds.n_features, seed=18)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError, match="epoch 0, step 0"):
                train(model, ds, TrainConfig(optimizer="gd", lr=1e308, epochs=1,
                                             batch_size=None))

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

    def test_older_model_json_still_loads(self):
        """A file written while `to_json` still stored the output head as "final"."""
        clone = MlpModel.from_json(LEGACY_MODEL_JSON)
        assert clone.n_classes == 2 and clone.train_config == TrainConfig(epochs=2, batch_size=2)
        np.testing.assert_array_equal(
            clone.forward_batch(np.array([[0.5, -0.5]])), [[0.3837550178884103, 0.6162449821115897]]
        )
        legacy = json.loads(LEGACY_MODEL_JSON)
        del legacy["final"]
        assert json.loads(clone.to_json()) == legacy
        assert MlpModel.from_json(json.dumps(legacy)).to_json() == clone.to_json()

    @pytest.mark.parametrize("head", ["sigmoid", None])
    def test_other_output_head_refused(self, head):
        payload = dict(json.loads(LEGACY_MODEL_JSON), final=head)
        with pytest.raises(ValueError, match=f"output head {head!r}"):
            MlpModel.from_json(json.dumps(payload))


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
        losses = model.loss_batch(np.vstack([x, x]), np.array([0, 1]))
        assert losses == pytest.approx([f, 1.0 - f])
        assert np.all((0.0 <= losses) & (losses <= 1.0))

    def test_gradient_finite_difference(self):
        model = LogisticModel(w=np.array([0.7, -1.2, 0.4]), b=0.2)
        x = np.array([0.5, 0.1, -0.3])
        for target in (0, 1):
            exact = model.input_gradient_batch(x[None], [target])[0]
            fd = finite_difference_gradient(
                lambda p, t=target: model.forward_batch(p[None])[0][t], x
            )
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
