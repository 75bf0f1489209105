"""Feature-attribution methods for the classifiers in this package.

Every method explains the model's *predicted* class at the query point and
returns a signed `Explanation` whose values align with the input features.
Methods that only need probabilities and input gradients (gradient,
gradient-times-input, integrated gradients, smoothgrad, local surrogate)
accept any model exposing `forward`/`forward_batch`/`input_gradient_batch`;
the structural methods (guided backprop, layer-wise relevance) walk MlpModel
internals and require one. `explain_batch` explains every row of a matrix in
one call; the per-point functions are its one-row case.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .models import _BLOCK_FLOATS, MlpModel


@dataclass
class Explanation:
    method: str
    values: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)

    def to_json(self) -> str:
        return json.dumps(
            {"method": self.method, "params": self.params, "values": self.values.tolist()},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Explanation":
        payload = json.loads(text)
        return cls(payload["method"], payload["values"], payload["params"])


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


def _row_blocks(n_rows: int, floats_per_row: int):
    """Row slices whose perturbed copies each fit in _BLOCK_FLOATS (one row at least)."""
    step = max(1, _BLOCK_FLOATS // floats_per_row)
    return (slice(i, i + step) for i in range(0, n_rows, step))


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


def _lrp(model: MlpModel, X: np.ndarray, epsilon: float = 1e-7) -> np.ndarray:
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    zs, acts, probs = model.forward_stack(X)
    rows = np.arange(X.shape[0])
    classes = np.argmax(probs, axis=1)
    relevance = np.zeros((X.shape[0], model.layers[-1].width))
    relevance[rows, classes if model.final == "softmax" else 0] = probs[rows, classes]
    for l in range(len(model.layers) - 1, -1, -1):
        z = zs[l]
        stabilized = z + epsilon * np.where(z >= 0.0, 1.0, -1.0)
        relevance = acts[l] * ((relevance / stabilized) @ model.weights[l].T)
    return relevance


def _smoothgrad(model, X: np.ndarray, cfg: SmoothGradConfig) -> np.ndarray:
    sigma = np.asarray(cfg.sigma, dtype=np.float64)
    if np.all(sigma == 0.0):
        return model.input_gradient_batch(X, None)
    n, d = X.shape
    noise = sigma * np.random.default_rng(cfg.seed).standard_normal((cfg.samples, d))
    out = np.empty((n, d))
    for rows in _row_blocks(n, cfg.samples * d):
        points = (X[rows, None, :] + noise).reshape(-1, d)
        grads = model.input_gradient_batch(points, None)
        out[rows] = grads.reshape(-1, cfg.samples, d).mean(axis=1)
    return out


def _local_surrogate(model, X: np.ndarray, cfg: SurrogateConfig):
    """(coefficients, intercepts, classes, kernel width, lambda) for the rows of X."""
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
    for rows in _row_blocks(n, cfg.num_samples * d):
        points = (X[rows, None, :] + noise).reshape(-1, d)
        picked = np.repeat(classes[rows], cfg.num_samples)
        target = model.forward_batch(points)[np.arange(len(points)), picked]
        fit[rows] = target.reshape(-1, cfg.num_samples) @ solver.T
    coef = fit[:, :d]
    return coef, fit[:, d] - (X * coef).sum(axis=1), classes, float(kernel_width), float(lam)


# The batch form of each method, called as f(model, X, **params).
_BATCH_METHODS = {
    "gradient": lambda model, X, **_: model.input_gradient_batch(X, None),
    "grad_times_input": lambda model, X, **_: X * model.input_gradient_batch(X, None),
    "integrated_gradients": lambda model, X, **p: _integrated_gradients(model, X, IgConfig(**p)),
    "guided_backprop": lambda model, X, **_: model.input_gradient_batch(X, None, guided=True),
    "lrp": _lrp,
    "smoothgrad": lambda model, X, **p: _smoothgrad(model, X, SmoothGradConfig(**p)),
    "local_surrogate": lambda model, X, **p: _local_surrogate(model, X, SurrogateConfig(**p))[0],
}
EXPLANATION_METHODS = tuple(_BATCH_METHODS)


def explain_batch(model, X: np.ndarray, method: str, params: dict | None = None) -> np.ndarray:
    """Explanations of every row of X as an (N, d) array; params as in `explain`.

    Row i is `explain(model, X[i], method, params).values` up to summation
    order. Sampling methods draw their seeded noise once for the batch and
    reduce each row block of perturbed copies before building the next.
    """
    if method not in _BATCH_METHODS:
        raise ValueError(f"unknown explanation method {method!r}")
    if method in ("guided_backprop", "lrp") and not isinstance(model, MlpModel):
        raise TypeError(f"{method} walks MlpModel layers")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("explain_batch expects a 2-D array, one point per row")
    return _BATCH_METHODS[method](model, X, **(params or {}))


def explain(model, x: np.ndarray, method: str, params: dict | None = None) -> Explanation:
    """One point's explanation (row 0 of `explain_batch`) with the settings used."""
    x = np.asarray(x, dtype=np.float64)
    params = dict(params or {})
    if method == "local_surrogate":
        cfg = SurrogateConfig(**params)
        coef, intercept, classes, width, lam = _local_surrogate(model, x[None, :], cfg)
        info = {"target_class": int(classes[0]), "kernel_width": width, "ridge_lambda": lam,
                "num_samples": cfg.num_samples, "seed": cfg.seed, "intercept": float(intercept[0])}
        return Explanation(method, coef[0], info)
    values = explain_batch(model, x[None, :], method, params)[0]
    if method == "smoothgrad":
        cfg = SmoothGradConfig(**params)
        sigma = np.asarray(cfg.sigma, dtype=np.float64).tolist()  # a float or a list
        info = {"sigma": sigma, "samples": cfg.samples, "seed": cfg.seed}
    else:
        info = {"target_class": int(np.argmax(model.forward(x)))}
        if method == "integrated_gradients":
            info["steps"] = IgConfig(**params).steps
        elif method == "lrp":
            info["epsilon"] = params.get("epsilon", 1e-7)
    return Explanation(method, values, info)


def explain_gradient(model, x: np.ndarray) -> Explanation:
    """Signed gradient of the predicted-class probability at x."""
    return explain(model, x, "gradient")


def explain_grad_times_input(model, x: np.ndarray) -> Explanation:
    return explain(model, x, "grad_times_input")


def explain_integrated_gradients(
    model, x: np.ndarray, cfg: IgConfig | None = None
) -> Explanation:
    """Path-integrated gradient from a baseline to x.

    The integral is approximated by a right-endpoint Riemann sum over
    `steps` points (the sampled path includes x and excludes the baseline),
    then multiplied coordinatewise by (x - baseline). The target class is
    the predicted class at x, held fixed along the path.
    """
    return explain(model, x, "integrated_gradients", asdict(cfg or IgConfig()))


def ig_completeness_gap(model, x: np.ndarray, cfg: IgConfig | None = None) -> float:
    """|sum of attributions - (c(x) - c(baseline))| for the predicted class."""
    cfg = cfg if cfg is not None else IgConfig()
    x = np.asarray(x, dtype=np.float64)
    baseline = np.zeros_like(x) if cfg.baseline is None else cfg.baseline
    result = explain_integrated_gradients(model, x, cfg)
    cls = result.params["target_class"]
    delta = model.forward(x)[cls] - model.forward(baseline)[cls]
    return float(abs(result.values.sum() - delta))


def explain_guided_backprop(model: MlpModel, x: np.ndarray) -> Explanation:
    """Gradient backward pass with double gating at every ReLU layer: there the
    flowing gradient is zeroed both where the forward pre-activation was
    non-positive and where the gradient arriving from above is negative."""
    return explain(model, x, "guided_backprop")


def explain_lrp(model: MlpModel, x: np.ndarray, epsilon: float = 1e-7) -> Explanation:
    """Epsilon-rule relevance propagation through the affine layers.

    The predicted-class output probability seeds the relevance at the last
    layer's unit; each affine layer then redistributes relevance by signed
    contribution share a_j*w_ji / (z_i + eps*sign(z_i)), with sign(0) taken
    as +1 so dead units divide by +eps.
    """
    return explain(model, x, "lrp", {"epsilon": epsilon})


def explain_smoothgrad(
    model, x: np.ndarray, cfg: SmoothGradConfig | None = None
) -> Explanation:
    """Mean of explain_gradient over seeded Gaussian perturbations of x.

    sigma may be a scalar or a per-feature vector. sigma = 0 degenerates to
    the plain gradient (returned directly, so the equality is bit-exact).
    """
    return explain(model, x, "smoothgrad", asdict(cfg or SmoothGradConfig()))


def explain_local_surrogate(
    model, x: np.ndarray, cfg: SurrogateConfig | None = None
) -> Explanation:
    """Weighted ridge fit of a local linear surrogate around x.

    Perturbations are unit Gaussians centred at x; sample j receives weight
    exp(-||z_j - x||^2 / kernel_width^2), and a ridge-penalized weighted
    least squares (intercept unpenalized) predicts the model's probability
    for the class predicted at x. The surrogate's coefficients are the
    explanation. A singular normal system is re-solved with the lambda floor
    1e-8. The seeded noise E = Z - x, and so W, is the same for every x.
    The intercept is unpenalized, so regressing the targets t on D = [E, 1]
    instead of [x + E, 1] keeps the slopes beta and moves the intercept to
    c' = c + x.beta: [beta, c'] = M t with M = (D^T W D + lambda P)^-1 D^T W.
    A batch solves M once and reports the intercept c' - x.beta.
    """
    return explain(model, x, "local_surrogate", asdict(cfg or SurrogateConfig()))
