"""Feature-attribution methods for the classifiers in this package.

Every method explains the model's *predicted* class at the query point and
returns signed values aligned with the input features. Methods that only need
probabilities and input gradients (gradient, gradient-times-input, integrated
gradients, smoothgrad, local surrogate) accept any model exposing
`forward_batch`/`input_gradient_batch`; the structural methods (guided
backprop, layer-wise relevance) walk MlpModel internals and require one.
`explain_batch` explains every row of a matrix in one call; `explain` explains
one point and records the settings used. The sampling methods (smoothgrad,
local surrogate) share an MlpModel's first layer across each row's perturbed
copies: (x + e) W1 + b1 = (x W1 + b1) + e W1, so only layers 2..L run per copy,
and smoothgrad averages the first-layer gradients before the one W1^T. Any other
model, and integrated gradients, evaluates the copies x + e themselves.
"""
from __future__ import annotations

import typing
from dataclasses import dataclass, field, fields

import numpy as np

from .config import decode
from .models import MlpModel, _row_blocks


@dataclass
class Explanation:
    method: str
    values: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)


@dataclass
class IgConfig:
    steps: int = 50
    baseline: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.baseline is not None:
            self.baseline = np.asarray(self.baseline, dtype=np.float64)


@dataclass
class SmoothGradConfig:
    sigma: float | np.ndarray = 0.1
    samples: int = 25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if np.any(np.asarray(self.sigma) < 0):
            raise ValueError("sigma must be non-negative")


@dataclass
class SurrogateConfig:
    num_samples: int = 500
    kernel_width: float | None = None
    ridge_lambda: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError("num_samples must be at least 1")
        if self.kernel_width is not None and self.kernel_width <= 0:
            raise ValueError("kernel_width must be positive")
        if self.ridge_lambda < 0:
            raise ValueError("ridge_lambda must be non-negative")


@dataclass
class LrpConfig:
    epsilon: float = 1e-7

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def _integrated_gradients(model, X: np.ndarray, cfg: IgConfig) -> np.ndarray:
    n, d = X.shape
    baseline = np.zeros(d) if cfg.baseline is None else cfg.baseline
    if baseline.shape != (d,):
        raise ValueError("baseline shape must match x")
    classes = np.argmax(model.forward_batch(X), axis=1)
    alphas = ((np.arange(cfg.steps) + 1.0) / cfg.steps)[:, None]
    out = np.empty((n, d))
    for rows in _row_blocks(n, cfg.steps * d):
        diff = X[rows] - baseline
        path = (baseline + alphas * diff[:, None, :]).reshape(-1, d)
        grads = model.input_gradient_batch(path, np.repeat(classes[rows], cfg.steps))
        out[rows] = diff * grads.reshape(-1, cfg.steps, d).mean(axis=1)
    return out


def _lrp(model: MlpModel, X: np.ndarray, cfg: LrpConfig) -> np.ndarray:
    zs, acts, probs = model.forward_stack(X)
    rows = np.arange(X.shape[0])
    classes = np.argmax(probs, axis=1)
    relevance = np.zeros((X.shape[0], model.layers[-1].width))
    relevance[rows, classes] = probs[rows, classes]
    for l in range(len(model.layers) - 1, -1, -1):
        z = zs[l]
        stabilized = z + cfg.epsilon * np.where(z >= 0.0, 1.0, -1.0)
        relevance = acts[l] * ((relevance / stabilized) @ model.weights[l].T)
    return relevance


def _perturbed_blocks(model, X: np.ndarray, noise: np.ndarray):
    """(rows, inputs) per row block of the copies x + e of the rows of X, one per
    row e of noise, as a (rows * S, .) array. An MlpModel gets the copies' first
    pre-activations (x W1 + b1) + e W1, with E W1 computed once, in blocks whose
    copies' activations over all layers fit in _BLOCK_FLOATS; any other model
    gets the copies themselves."""
    samples, d = noise.shape
    if isinstance(model, MlpModel):
        W1 = model.weights[0]
        shift = noise @ W1
        for rows in _row_blocks(len(X), samples * sum(l.width for l in model.layers)):
            base = X[rows] @ W1 + model.biases[0]
            yield rows, (base[:, None, :] + shift).reshape(-1, W1.shape[1])
    else:
        for rows in _row_blocks(len(X), samples * d):
            yield rows, (X[rows, None, :] + noise).reshape(-1, d)


def _smoothgrad(model, X: np.ndarray, cfg: SmoothGradConfig) -> np.ndarray:
    """An MlpModel averages each row's first-layer gradients before the one W1^T."""
    sigma = np.asarray(cfg.sigma, dtype=np.float64)
    if np.all(sigma == 0.0):
        return model.input_gradient_batch(X, None)
    n, d = X.shape
    noise = sigma * np.random.default_rng(cfg.seed).standard_normal((cfg.samples, d))
    out = np.empty((n, d))
    for rows, inputs in _perturbed_blocks(model, X, noise):
        if isinstance(model, MlpModel):
            dz = model._first_layer_delta(*model._forward_from(inputs))
            out[rows] = dz.reshape(-1, cfg.samples, dz.shape[1]).mean(axis=1) @ model.weights[0].T
        else:
            grads = model.input_gradient_batch(inputs, None)
            out[rows] = grads.reshape(-1, cfg.samples, d).mean(axis=1)
    return out


def _local_surrogate(model, X: np.ndarray, cfg: SurrogateConfig):
    """(coefficients, intercepts, classes, kernel width, lambda) for the rows of X.

    Every row shares the seeded noise E and so the kernel weights W. The
    intercept is unpenalized, so fitting t on D = [E, 1] instead of [x + E, 1]
    keeps the slopes beta and moves the intercept to c' = c + x.beta:
    [beta, c'] = M t with M = (D^T W D + lambda P)^-1 D^T W, solved once.
    """
    n, d = X.shape
    kernel_width = cfg.kernel_width if cfg.kernel_width is not None else 0.75 * np.sqrt(d)
    noise = np.random.default_rng(cfg.seed).standard_normal((cfg.num_samples, d))
    design = np.hstack([noise, np.ones((cfg.num_samples, 1))])
    weighted_t = (design * np.exp(-(noise**2).sum(axis=1) / kernel_width**2)[:, None]).T
    system = weighted_t @ design
    penalty = np.diag(np.append(np.ones(d), 0.0))
    lam = cfg.ridge_lambda
    try:
        solver = np.linalg.solve(system + lam * penalty, weighted_t)
    except np.linalg.LinAlgError:
        lam = max(lam, 1e-8)
        solver = np.linalg.solve(system + lam * penalty, weighted_t)
    del design, weighted_t, system, penalty
    classes = np.argmax(model.forward_batch(X), axis=1)
    fit = np.empty((n, d + 1))
    for rows, inputs in _perturbed_blocks(model, X, noise):
        if isinstance(model, MlpModel):
            probs = model._forward_from(inputs)[2]
        else:
            probs = model.forward_batch(inputs)
        target = probs[np.arange(len(probs)), np.repeat(classes[rows], cfg.num_samples)]
        fit[rows] = target.reshape(-1, cfg.num_samples) @ solver.T
    coef = fit[:, :d]
    return coef, fit[:, d] - (X * coef).sum(axis=1), classes, float(kernel_width), float(lam)


# Each method's batch form f(model, X, cfg) and the dataclass of its params cfg;
# a method whose dataclass is None takes no params and gets cfg None.
_METHODS = {
    "gradient": (lambda model, X, _: model.input_gradient_batch(X, None), None),
    "grad_times_input": (lambda model, X, _: X * model.input_gradient_batch(X, None), None),
    "integrated_gradients": (_integrated_gradients, IgConfig),
    "guided_backprop": (lambda model, X, _: model.input_gradient_batch(X, None, guided=True), None),
    "lrp": (_lrp, LrpConfig),
    "smoothgrad": (_smoothgrad, SmoothGradConfig),
    "local_surrogate": (lambda model, X, cfg: _local_surrogate(model, X, cfg)[0], SurrogateConfig),
}
EXPLANATION_METHODS = tuple(_METHODS)


def _method_params(method: str, params: dict | None):
    """The method's params dataclass built from params (None for a method without
    params); an unknown method or a key the method does not take raises ValueError,
    and a value that is not its field's JSON type (sigma and baseline may also be
    arrays) raises the config codec's ConfigError naming the field."""
    if method not in _METHODS:
        raise ValueError(f"unknown explanation method {method!r}")
    params, cls = params or {}, _METHODS[method][1]
    unknown = set(params) - {f.name for f in fields(cls)} if cls else set(params)
    if unknown:
        raise ValueError(f"{method} does not take params {sorted(unknown)}")
    hints = typing.get_type_hints(cls) if cls else {}
    for key, value in params.items():
        if np.ndarray not in typing.get_args(hints[key]):
            decode(key, hints[key], value)
    return cls(**params) if cls else None


def explain_batch(model, X: np.ndarray, method: str, params: dict | None = None) -> np.ndarray:
    """Explanations of every row of X as an (N, d) array; params as in `explain`.

    Row i is `explain(model, X[i], method, params).values` up to summation
    order (see `explain`). Sampling methods draw their seeded noise once for
    the batch and reduce each row block of perturbed copies before the next. An
    MlpModel's copies share its first layer (x W1 + b1 per row, E W1 per noise
    draw) and enter the network at the first pre-activation; other models, such
    as LogisticModel or any object with `forward_batch`/`input_gradient_batch`,
    get the copies x + E.
    """
    cfg = _method_params(method, params)
    if method in ("guided_backprop", "lrp") and not isinstance(model, MlpModel):
        raise TypeError(f"{method} walks MlpModel layers")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("explain_batch expects a 2-D array, one point per row")
    return _METHODS[method][0](model, X, cfg)


def explain(model, x: np.ndarray, method: str, params: dict | None = None) -> Explanation:
    """One point's explanation of its predicted class, with the settings used.

    Methods, with their params and defaults:
      gradient: the predicted-class probability's input gradient at x.
      grad_times_input: x times that gradient.
      integrated_gradients (steps=50, baseline=0): x - baseline times the mean
        gradient at `steps` right-endpoint points on the path from the baseline
        to x, the class held fixed.
      guided_backprop (MlpModel): the gradient, also zeroed at each ReLU where
        the gradient arriving from above is negative.
      lrp (MlpModel; epsilon=1e-7): the class probability, passed back through
        each affine layer by shares a_j*w_ji / (z_i + eps*sign(z_i)), sign(0)=+1.
      smoothgrad (sigma=0.1, scalar or per feature; samples=25; seed=0): mean
        gradient at seeded Gaussian perturbations of x; sigma=0 is the gradient.
      local_surrogate (num_samples=500, kernel_width=0.75*sqrt(d),
        ridge_lambda=1e-3, seed=0): coefficients of a ridge fit (intercept
        unpenalized) of the class probability at x + z, z unit Gaussian, with
        weights exp(-||z||^2 / kernel_width^2); lambda >= 1e-8 if singular.

    The result is row 0 of a one-row `explain_batch`. It is not bit-identical
    to row i of a many-row batch: numpy computes a one-row matmul with BLAS
    gemv and a many-row one with gemm, which round differently.
    """
    x = np.asarray(x, dtype=np.float64)
    cfg = _method_params(method, params)
    if method == "local_surrogate":
        coef, intercept, classes, width, lam = _local_surrogate(model, x[None, :], cfg)
        info = {"target_class": int(classes[0]), "kernel_width": width, "ridge_lambda": lam,
                "num_samples": cfg.num_samples, "seed": cfg.seed, "intercept": float(intercept[0])}
        return Explanation(method, coef[0], info)
    values = explain_batch(model, x[None, :], method, params)[0]
    if method == "smoothgrad":
        sigma = np.asarray(cfg.sigma, dtype=np.float64).tolist()  # a float or a list
        info = {"sigma": sigma, "samples": cfg.samples, "seed": cfg.seed}
    else:
        info = {"target_class": int(np.argmax(model.forward_batch(x[None, :])[0]))}
        if method == "integrated_gradients":
            info["steps"] = cfg.steps
        elif method == "lrp":
            info["epsilon"] = cfg.epsilon
    return Explanation(method, values, info)


def ig_completeness_gap(model, x: np.ndarray, cfg: IgConfig | None = None) -> float:
    """|sum of attributions - (c(x) - c(baseline))| for the predicted class."""
    cfg = cfg if cfg is not None else IgConfig()
    x = np.asarray(x, dtype=np.float64)
    baseline = np.zeros_like(x) if cfg.baseline is None else cfg.baseline
    result = explain(model, x, "integrated_gradients", vars(cfg))
    probs = model.forward_batch(np.stack([x, baseline]))[:, result.params["target_class"]]
    return float(abs(result.values.sum() - (probs[0] - probs[1])))
