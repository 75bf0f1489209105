"""Explanation methods against closed forms and naive reimplementations."""
from __future__ import annotations

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explainleak import (
    EXPLANATION_METHODS,
    IgConfig,
    LayerSpec,
    LogisticModel,
    MlpModel,
    SmoothGradConfig,
    SurrogateConfig,
    explain,
    explain_batch,
    explain_grad_times_input,
    explain_gradient,
    explain_guided_backprop,
    explain_integrated_gradients,
    explain_local_surrogate,
    explain_lrp,
    explain_smoothgrad,
    ig_completeness_gap,
    init_model,
)

# The package re-exports the function `explain`, which shadows the submodule.
explain_module = importlib.import_module("explainleak.explain")


class LinearStub:
    """Two-class model whose class-1 score is exactly linear: c.x + d."""

    def __init__(self, coef: np.ndarray, intercept: float):
        self.coef = np.asarray(coef, dtype=np.float64)
        self.intercept = float(intercept)

    def _score(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coef + self.intercept

    def forward(self, x: np.ndarray) -> np.ndarray:
        t = float(self._score(np.asarray(x, dtype=np.float64)[None, :])[0])
        return np.array([1.0 - t, t])

    def forward_batch(self, X: np.ndarray) -> np.ndarray:
        t = self._score(np.asarray(X, dtype=np.float64))
        return np.stack([1.0 - t, t], axis=1)

    def input_gradient(self, x, target_class=None):
        return self.input_gradient_batch(np.asarray(x)[None, :],
                                         None if target_class is None
                                         else np.array([target_class]))[0]

    def input_gradient_batch(self, X, target_classes=None):
        X = np.asarray(X, dtype=np.float64)
        if target_classes is None:
            target_classes = np.argmax(self.forward_batch(X), axis=1)
        sign = np.where(np.asarray(target_classes) == 1, 1.0, -1.0)
        return sign[:, None] * np.tile(self.coef, (X.shape[0], 1))


@pytest.fixture
def stub() -> LinearStub:
    # Intercept 0.7 keeps class 1 predicted near the origin.
    return LinearStub(np.array([0.25, -0.4, 0.1]), 0.7)


class TestGradient:
    def test_matches_predicted_class_input_gradient(self, small_trained_model):
        x = np.array([0.3, -0.2, 0.5, 0.1])
        cls = int(np.argmax(small_trained_model.forward(x)))
        result = explain_gradient(small_trained_model, x)
        np.testing.assert_array_equal(
            result.values, small_trained_model.input_gradient(x, cls)
        )
        assert result.params["target_class"] == cls
        assert result.method == "gradient"

    def test_linear_stub_exact(self, stub):
        x = np.array([0.2, 0.1, -0.3])
        np.testing.assert_array_equal(explain_gradient(stub, x).values, stub.coef)

    def test_logistic_closed_form(self):
        model = LogisticModel(w=np.array([1.5, -0.8]), b=0.3)
        x = np.array([1.0, 0.2])
        f = model.positive_prob(x)
        expected = f * (1.0 - f) * model.w  # class 1 predicted at this x
        assert f > 0.5
        np.testing.assert_allclose(
            explain_gradient(model, x).values, expected, rtol=1e-12
        )


class TestGradTimesInput:
    def test_is_elementwise_product(self, small_trained_model):
        x = np.array([0.7, -0.1, 0.4, -0.6])
        grad = explain_gradient(small_trained_model, x).values
        np.testing.assert_array_equal(
            explain_grad_times_input(small_trained_model, x).values, x * grad
        )

    def test_zero_input_gives_zero(self, stub):
        values = explain_grad_times_input(stub, np.zeros(3)).values
        np.testing.assert_array_equal(values, np.zeros(3))


class TestIntegratedGradients:
    def test_linear_model_exact_at_any_steps(self, stub):
        x = np.array([0.4, -0.2, 0.6])
        for steps in (1, 7, 50):
            values = explain_integrated_gradients(stub, x, IgConfig(steps=steps)).values
            np.testing.assert_allclose(values, stub.coef * x, rtol=1e-12)

    def test_completeness_gap_zero_for_linear(self, stub):
        assert ig_completeness_gap(stub, np.array([0.1, 0.5, -0.2])) < 1e-12

    def test_gap_halves_when_steps_double(self):
        model = LogisticModel(w=np.array([1.5, -0.8]), b=0.3)
        x = np.array([1.2, 0.4])
        gap50 = ig_completeness_gap(model, x, IgConfig(steps=50))
        gap100 = ig_completeness_gap(model, x, IgConfig(steps=100))
        assert gap100 > 0
        assert 0.4 <= gap100 / gap50 <= 0.6

    def test_baseline_equal_to_x_gives_zero(self, small_trained_model):
        x = np.array([0.3, 0.3, -0.1, 0.2])
        values = explain_integrated_gradients(
            small_trained_model, x, IgConfig(steps=20, baseline=x.copy())
        ).values
        np.testing.assert_array_equal(values, np.zeros_like(x))

    def test_right_endpoint_single_step_is_gradient_at_x(self, small_trained_model):
        x = np.array([0.5, -0.4, 0.2, 0.1])
        values = explain_integrated_gradients(
            small_trained_model, x, IgConfig(steps=1)
        ).values
        cls = int(np.argmax(small_trained_model.forward(x)))
        expected = x * small_trained_model.input_gradient(x, cls)
        np.testing.assert_allclose(values, expected, rtol=1e-12)

    def test_baseline_shape_mismatch_rejected(self, stub):
        with pytest.raises(ValueError):
            explain_integrated_gradients(
                stub, np.zeros(3), IgConfig(steps=5, baseline=np.zeros(2))
            )

    def test_step_count_validated(self):
        with pytest.raises(ValueError):
            IgConfig(steps=0)


def _naive_guided_backprop(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Loop-based reference for the double-gated backward pass."""
    from explainleak.models import _activation_deriv

    zs, acts, probs = model.forward_stack(x[None, :])
    cls = int(np.argmax(probs[0]))
    if model.final == "softmax":
        pc = probs[0, cls]
        delta = np.array([-probs[0, j] * pc for j in range(probs.shape[1])])
        delta[cls] += pc
    else:
        p = probs[0, 1]
        delta = np.array([(1.0 if cls == 1 else -1.0) * p * (1.0 - p)])
    for l in range(len(model.layers) - 1, -1, -1):
        spec = model.layers[l]
        z = zs[l][0]
        dz = np.zeros_like(delta)
        for i in range(delta.size):
            if spec.activation == "relu":
                dz[i] = delta[i] if (z[i] > 0.0 and delta[i] > 0.0) else 0.0
            else:
                dz[i] = delta[i] * _activation_deriv(
                    spec.activation, z[i : i + 1], acts[l + 1][0, i : i + 1]
                )[0]
        prev = np.zeros(model.weights[l].shape[0])
        for j in range(prev.size):
            prev[j] = float(np.dot(model.weights[l][j], dz))
        delta = prev
    return delta


class TestGuidedBackprop:
    def test_hand_traced_relu_net(self):
        # One hidden relu pair: unit 0 active, unit 1 dead at x = (1, 1).
        w1 = np.array([[1.0, -1.0], [0.5, -0.5]])
        w2 = np.array([[2.0, -2.0], [1.0, 3.0]])
        model = MlpModel(
            layers=[LayerSpec(2, "relu"), LayerSpec(2, "identity")],
            input_dim=2,
            weights=[w1, w2],
            biases=[np.zeros(2), np.zeros(2)],
        )
        x = np.array([1.0, 1.0])
        # Forward: z1 = (1.5, -1.5) -> a1 = (1.5, 0); logits = (3.0, -3.0),
        # so class 0 is predicted with p0 = sigma-like softmax value.
        p = np.exp([3.0, -3.0])
        p = p / p.sum()
        # Softmax head delta for class 0: (p0 - p0^2, -p0 p1).
        d_logits = np.array([p[0] - p[0] ** 2, -p[0] * p[1]])
        # Through w2: dz at hidden = (w2 @ d_logits); relu double gate keeps
        # a unit only if z > 0 AND incoming delta > 0.
        d_hidden = w2 @ d_logits
        gate = (np.array([1.5, -1.5]) > 0) & (d_hidden > 0)
        d_hidden = d_hidden * gate
        expected = w1 @ d_hidden
        got = explain_guided_backprop(model, x)
        np.testing.assert_allclose(got.values, expected, rtol=1e-12)
        assert got.params["target_class"] == 0

    def test_equals_gradient_without_relu_layers(self):
        model = init_model(
            [LayerSpec(6, "tanh"), LayerSpec(3, "identity")], 4, seed=31
        )
        x = np.random.default_rng(32).normal(size=4)
        np.testing.assert_allclose(
            explain_guided_backprop(model, x).values,
            explain_gradient(model, x).values,
            rtol=1e-10,
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_naive_reimplementation(self, seed):
        model = init_model(
            [LayerSpec(5, "relu"), LayerSpec(4, "tanh"), LayerSpec(3, "identity")],
            input_dim=4,
            seed=seed,
        )
        x = np.random.default_rng(100 + seed).normal(size=4)
        np.testing.assert_allclose(
            explain_guided_backprop(model, x).values,
            _naive_guided_backprop(model, x),
            rtol=1e-10,
            atol=1e-14,
        )

    def test_requires_mlp(self):
        with pytest.raises(TypeError):
            explain_guided_backprop(LogisticModel(np.ones(2), 0.0), np.zeros(2))


def _naive_lrp(model: MlpModel, x: np.ndarray, eps: float) -> np.ndarray:
    """Loop-based epsilon-rule reference."""
    zs, acts, probs = model.forward_stack(x[None, :])
    cls = int(np.argmax(probs[0]))
    relevance = np.zeros(model.layers[-1].width)
    relevance[cls if model.final == "softmax" else 0] = probs[0, cls]
    for l in range(len(model.layers) - 1, -1, -1):
        z = zs[l][0]
        a = acts[l][0]
        out = np.zeros(a.size)
        for j in range(a.size):
            total = 0.0
            for i in range(z.size):
                denom = z[i] + eps * (1.0 if z[i] >= 0.0 else -1.0)
                total += a[j] * model.weights[l][j, i] * relevance[i] / denom
            out[j] = total
        relevance = out
    return relevance


class TestLrp:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_matches_naive_reimplementation(self, seed):
        model = init_model(
            [LayerSpec(4, "tanh"), LayerSpec(3, "relu"), LayerSpec(2, "identity")],
            input_dim=3,
            seed=seed,
        )
        x = np.random.default_rng(200 + seed).normal(size=3)
        np.testing.assert_allclose(
            explain_lrp(model, x).values,
            _naive_lrp(model, x, 1e-7),
            rtol=1e-9,
            atol=1e-14,
        )

    def test_conservation_without_biases(self):
        # With zero biases each affine layer redistributes relevance exactly
        # (up to the epsilon stabilizer), so the input sum equals the seed.
        model = init_model(
            [LayerSpec(6, "tanh"), LayerSpec(2, "identity")], 4, seed=41
        )
        for b in model.biases:
            b[:] = 0.0
        x = np.random.default_rng(42).normal(size=4)
        probs = model.forward(x)
        seed_value = probs[int(np.argmax(probs))]
        total = explain_lrp(model, x).values.sum()
        assert total == pytest.approx(seed_value, abs=1e-5)

    def test_requires_mlp(self):
        with pytest.raises(TypeError):
            explain_lrp(LogisticModel(np.ones(2), 0.0), np.zeros(2))

    def test_epsilon_validated(self, small_trained_model):
        with pytest.raises(ValueError):
            explain_lrp(small_trained_model, np.zeros(4), epsilon=0.0)


class TestSmoothGrad:
    def test_sigma_zero_bit_equal_to_gradient(self, small_trained_model):
        x = np.array([0.2, -0.5, 0.3, 0.8])
        smooth = explain_smoothgrad(
            small_trained_model, x, SmoothGradConfig(sigma=0.0, samples=10)
        )
        plain = explain_gradient(small_trained_model, x)
        np.testing.assert_array_equal(smooth.values, plain.values)

    def test_matches_manual_average(self, small_trained_model):
        x = np.array([0.1, 0.4, -0.2, 0.0])
        cfg = SmoothGradConfig(sigma=0.25, samples=12, seed=9)
        got = explain_smoothgrad(small_trained_model, x, cfg).values
        rng = np.random.default_rng(9)
        noise = rng.standard_normal((12, 4))
        grads = small_trained_model.input_gradient_batch(x[None, :] + 0.25 * noise)
        np.testing.assert_array_equal(got, grads.mean(axis=0))

    def test_seed_determinism(self, small_trained_model):
        x = np.array([0.3, 0.3, 0.3, 0.3])
        a = explain_smoothgrad(small_trained_model, x, SmoothGradConfig(seed=5)).values
        b = explain_smoothgrad(small_trained_model, x, SmoothGradConfig(seed=5)).values
        c = explain_smoothgrad(small_trained_model, x, SmoothGradConfig(seed=6)).values
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_per_feature_sigma_vector(self, small_trained_model):
        x = np.zeros(4)
        sigma = np.array([0.5, 0.0, 0.1, 0.0])
        values = explain_smoothgrad(
            small_trained_model, x, SmoothGradConfig(sigma=sigma, samples=8, seed=1)
        ).values
        assert values.shape == (4,)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            SmoothGradConfig(sigma=-0.1)


class TestLocalSurrogate:
    def test_recovers_linear_model(self, stub):
        x = np.array([0.1, -0.2, 0.3])
        exact = explain_local_surrogate(
            stub, x, SurrogateConfig(num_samples=400, ridge_lambda=0.0, seed=2)
        ).values
        np.testing.assert_allclose(exact, stub.coef, atol=1e-8)
        # The default ridge penalty only biases the fit at the ~1e-5 level.
        default = explain_local_surrogate(
            stub, x, SurrogateConfig(num_samples=400, seed=2)
        ).values
        np.testing.assert_allclose(default, stub.coef, atol=1e-4)

    def test_huge_ridge_shrinks_coefficients(self, stub):
        x = np.zeros(3)
        small = explain_local_surrogate(
            stub, x, SurrogateConfig(num_samples=300, ridge_lambda=1e-3, seed=3)
        ).values
        big = explain_local_surrogate(
            stub, x, SurrogateConfig(num_samples=300, ridge_lambda=1e9, seed=3)
        ).values
        assert np.abs(big).max() < 1e-4 * np.abs(small).max()

    def test_seed_determinism(self, small_trained_model):
        x = np.array([0.2, 0.2, -0.1, 0.4])
        a = explain_local_surrogate(
            small_trained_model, x, SurrogateConfig(num_samples=100, seed=7)
        ).values
        b = explain_local_surrogate(
            small_trained_model, x, SurrogateConfig(num_samples=100, seed=7)
        ).values
        np.testing.assert_array_equal(a, b)

    def test_records_intercept_and_kernel(self, stub):
        result = explain_local_surrogate(stub, np.zeros(3), SurrogateConfig(seed=1))
        assert "intercept" in result.params
        assert result.params["kernel_width"] == pytest.approx(0.75 * np.sqrt(3))


class TestDispatcher:
    def test_all_methods_listed_and_dispatchable(self, small_trained_model):
        x = np.array([0.4, -0.3, 0.2, 0.1])
        assert len(EXPLANATION_METHODS) == 7
        for method in EXPLANATION_METHODS:
            result = explain(small_trained_model, x, method)
            assert result.method == method
            assert result.values.shape == x.shape
            assert np.all(np.isfinite(result.values))

    def test_params_reach_method_config(self, small_trained_model):
        x = np.array([0.4, -0.3, 0.2, 0.1])
        via_dispatch = explain(
            small_trained_model, x, "integrated_gradients", {"steps": 13}
        )
        direct = explain_integrated_gradients(small_trained_model, x, IgConfig(steps=13))
        np.testing.assert_array_equal(via_dispatch.values, direct.values)
        assert via_dispatch.params["steps"] == 13

    def test_unknown_method_rejected(self, small_trained_model):
        with pytest.raises(ValueError):
            explain(small_trained_model, np.zeros(4), "saliency_maps")

    def test_explanation_json_round_trip(self, small_trained_model):
        from explainleak import Explanation

        original = explain(small_trained_model, np.array([0.1, 0.2, 0.3, 0.4]), "gradient")
        clone = Explanation.from_json(original.to_json())
        np.testing.assert_array_equal(original.values, clone.values)
        assert clone.method == original.method


# ---------------------------------------------------------------------------
# Batched engine against per-point explanations

# Row-norm relative tolerances. A one-row matmul goes through BLAS gemv and a
# many-row one through gemm, whose summation orders differ, so even methods
# whose own arithmetic is unchanged agree only to within a few ulps. The
# sampling methods also reorder their reductions.
UNSAMPLED_RTOL = {"gradient": 1e-12, "grad_times_input": 1e-12,
                         "guided_backprop": 1e-12, "lrp": 1e-10}
SAMPLING_RTOL = 1e-10
BLOCK_ROWS = 6
ROW_COUNTS = (1, BLOCK_ROWS - 1, BLOCK_ROWS + 1, 11)  # 11 is prime, two blocks


def assert_rows_close(got: np.ndarray, want: np.ndarray, rtol: float) -> None:
    """Each row's max error within rtol of its max magnitude (floored at 1e-3,
    as a model with a flat output has explanations of pure rounding noise)."""
    assert got.shape == want.shape
    scale = np.maximum(np.abs(want).max(axis=1), 1e-3)
    err = np.abs(got - want).max(axis=1) / scale
    assert np.all(err <= rtol), f"max row error {err.max():.3e} > {rtol:.0e}"


@st.composite
def mlp_models(draw):
    seed = draw(st.integers(0, 2**16))
    d = draw(st.integers(1, 5))
    hidden = draw(st.lists(
        st.tuples(st.integers(1, 6), st.sampled_from(["tanh", "relu", "sigmoid", "identity"])),
        min_size=1, max_size=2,
    ))
    sigmoid_head = draw(st.booleans())
    out = LayerSpec(1 if sigmoid_head else draw(st.integers(2, 4)), "identity")
    layers = [LayerSpec(w, a) for w, a in hidden] + [out]
    model = init_model(layers, d, seed, final="sigmoid" if sigmoid_head else "softmax")
    rng = np.random.default_rng(seed)
    for b in model.biases:
        b[:] = rng.normal(scale=0.5, size=b.shape)
    return model


def _method_params(draw, method: str, d: int) -> tuple[dict, int]:
    """Params for one method and the float count of one row's samples."""
    if method == "integrated_gradients":
        steps = draw(st.integers(1, 12))
        baseline = draw(st.sampled_from([None, 0.5]))
        params = {"steps": steps}
        if baseline is not None:
            params["baseline"] = np.full(d, baseline)
        return params, steps * d
    if method == "smoothgrad":
        samples = draw(st.integers(1, 12))
        sigma = draw(st.sampled_from(["scalar", "vector"]))
        params = {"samples": samples, "seed": draw(st.integers(0, 99)),
                  "sigma": 0.3 if sigma == "scalar"
                  else np.linspace(0.0, 0.6, d)}
        return params, samples * d
    if method == "local_surrogate":
        samples = draw(st.integers(2 * d + 2, 40))
        params = {"num_samples": samples, "seed": draw(st.integers(0, 99)),
                  "ridge_lambda": draw(st.sampled_from([0.0, 1e-3, 0.5]))}
        return params, samples * d
    if method == "lrp":
        return {"epsilon": draw(st.sampled_from([1e-7, 1e-2]))}, d
    return {}, d


@st.composite
def batch_cases(draw):
    model = draw(mlp_models())
    method = draw(st.sampled_from(EXPLANATION_METHODS))
    params, row_floats = _method_params(draw, method, model.input_dim)
    n = draw(st.sampled_from(ROW_COUNTS))
    X = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(-2, 2, (n, model.input_dim))
    return model, method, params, row_floats, X


class TestExplainBatch:
    @settings(max_examples=120, deadline=None)
    @given(batch_cases())
    def test_equals_stacked_per_point(self, case):
        model, method, params, row_floats, X = case
        with mock.patch.object(explain_module, "_BLOCK_FLOATS", BLOCK_ROWS * row_floats):
            batch = explain_batch(model, X, method, params)
            stacked = np.vstack([explain(model, x, method, params).values for x in X])
        rtol = UNSAMPLED_RTOL.get(method, SAMPLING_RTOL)
        assert_rows_close(batch, stacked, rtol)

    @settings(max_examples=40, deadline=None)
    @given(mlp_models(), st.sampled_from(ROW_COUNTS), st.integers(0, 99),
           st.sampled_from([0.0, 1e-3, 0.5]))
    def test_surrogate_matches_per_point_ridge_fit(self, model, n, seed, lam):
        """The shared-noise identity against the per-point fit it replaced."""
        d = model.input_dim
        X = np.random.default_rng(seed).uniform(-2, 2, (n, d))
        cfg = SurrogateConfig(num_samples=4 * d + 4, ridge_lambda=lam, seed=seed)
        with mock.patch.object(explain_module, "_BLOCK_FLOATS", BLOCK_ROWS * cfg.num_samples * d):
            batch = explain_batch(model, X, "local_surrogate", vars(cfg))
            points = [explain_local_surrogate(model, x, cfg) for x in X]
        fits = [_reference_surrogate(model, x, cfg) for x in X]
        assert_rows_close(batch, np.vstack([f[:d] for f in fits]), SAMPLING_RTOL)
        for point, fit in zip(points, fits):
            assert point.params["intercept"] == pytest.approx(fit[d], rel=SAMPLING_RTOL, abs=1e-13)

    def test_gradient_is_the_model_batch_gradient(self, small_trained_model):
        X = np.random.default_rng(5).normal(size=(9, 4))
        np.testing.assert_array_equal(
            explain_batch(small_trained_model, X, "gradient"),
            small_trained_model.input_gradient_batch(X, None),
        )
        np.testing.assert_array_equal(
            explain_batch(small_trained_model, X, "grad_times_input"),
            X * small_trained_model.input_gradient_batch(X, None),
        )

    def test_structural_methods_require_mlp(self):
        model = LogisticModel(np.ones(2), 0.0)
        for method in ("guided_backprop", "lrp"):
            with pytest.raises(TypeError):
                explain_batch(model, np.zeros((3, 2)), method)

    def test_rejects_single_vector_and_unknown_method(self, small_trained_model):
        with pytest.raises(ValueError):
            explain_batch(small_trained_model, np.zeros(4), "gradient")
        with pytest.raises(ValueError):
            explain_batch(small_trained_model, np.zeros((2, 4)), "saliency_maps")


def _reference_surrogate(model, x: np.ndarray, cfg: SurrogateConfig) -> np.ndarray:
    """Per-point weighted ridge fit on the design [x + E, 1]: (coefs, intercept)."""
    n = x.shape[0]
    width = cfg.kernel_width if cfg.kernel_width is not None else 0.75 * np.sqrt(n)
    samples = x + np.random.default_rng(cfg.seed).standard_normal((cfg.num_samples, n))
    cls = int(np.argmax(model.forward(x)))
    target = model.forward_batch(samples)[:, cls]
    weights = np.exp(-((samples - x) ** 2).sum(axis=1) / width**2)
    design = np.hstack([samples, np.ones((cfg.num_samples, 1))]) * np.sqrt(weights)[:, None]
    penalty = np.diag(np.append(np.ones(n), 0.0))
    return np.linalg.solve(design.T @ design + cfg.ridge_lambda * penalty,
                           design.T @ (target * np.sqrt(weights)))
