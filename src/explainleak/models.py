"""Dense feed-forward classifiers trained from scratch on numpy.

Two model families are provided. `MlpModel` is a fully connected network with
per-layer activations and a probability head (softmax over k logits, or a
single-logit sigmoid for binary heads). `LogisticModel` is a linear classifier
f(x) = 1 / (1 + exp(-(w.x - b))) trained by full-batch gradient ascent on the
log-likelihood; it is the model family the influence and reconstruction
machinery operates on; `train_logistic_loo` trains all n leave-one-out fits at once.

Everything is deterministic under explicit seeds: weight init draws from a
seeded generator, and epoch shuffles come from a generator derived from the
training seed, so identical configs reproduce bit-identical parameters.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import Config

ACTIVATIONS = ("tanh", "relu", "sigmoid", "identity")
OPTIMIZERS = ("adagrad", "adam", "gd")
FINAL_HEADS = ("softmax", "sigmoid")

_LOSS_CLAMP = 1e-12
# Floats (512 KiB) per block of explain's perturbed rows or of train_logistic_loo's models
_BLOCK_FLOATS = 1 << 16


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss stops being finite."""

    def __init__(self, epoch: int, step: int, loss: float):
        super().__init__(
            f"training diverged at epoch {epoch}, step {step}: loss={loss!r}"
        )
        self.epoch = epoch
        self.step = step
        self.loss = loss


@np.errstate(over="ignore")  # as a decorator it costs half of a `with` block per call
def sigmoid(z, out: np.ndarray | None = None):
    """1 / (1 + exp(-z)), into out if given; exp(-z) overflowing (f = 0) is not warned."""
    if out is None:  # ufuncs given out= cost about 1 µs more each on a scalar
        return 1.0 / (1.0 + np.exp(-z))
    denominator = np.add(np.exp(np.negative(z, out=out), out=out), 1.0, out=out)
    return np.divide(1.0, denominator, out=out)


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return sigmoid(z)
    if name == "identity":
        return z
    raise ValueError(f"unknown activation {name!r}")


def _activation_deriv(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Derivative of the activation, given pre-activation z and output a."""
    if name == "tanh":
        return 1.0 - a * a
    if name == "relu":
        return (z > 0.0).astype(z.dtype)
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "identity":
        return np.ones_like(z)
    raise ValueError(f"unknown activation {name!r}")


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class LayerSpec:
    width: int
    activation: str = "tanh"

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("layer width must be at least 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {ACTIVATIONS}, got {self.activation!r}"
            )


@dataclass
class TrainConfig(Config):
    optimizer: str = "adagrad"
    lr: float = 0.01
    lr_decay: float = 0.0
    epochs: int = 50
    batch_size: int | None = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.lr_decay < 0:
            raise ValueError("lr_decay must be non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be at least 1 (or None for full batch)")
        if self.optimizer == "gd" and self.batch_size is not None:
            raise ValueError("optimizer 'gd' is full-batch; set batch_size=None")


class MlpModel:
    """Fully connected classifier: affine + activation per layer, then a head.

    `layers[-1].width` is the number of logits; with the softmax head that is
    the class count, with the sigmoid head it must be 1 and the model is a
    two-class classifier whose forward pass returns [1 - p, p].
    """

    def __init__(
        self,
        layers: Sequence[LayerSpec],
        input_dim: int,
        weights: Sequence[np.ndarray],
        biases: Sequence[np.ndarray],
        final: str = "softmax",
        seed: int | None = None,
        train_config: TrainConfig | None = None,
    ):
        layers = [
            l if isinstance(l, LayerSpec) else LayerSpec(**l) for l in layers
        ]
        if not layers:
            raise ValueError("at least one layer is required")
        if input_dim < 1:
            raise ValueError("input_dim must be at least 1")
        if final not in FINAL_HEADS:
            raise ValueError(f"final must be one of {FINAL_HEADS}")
        if final == "sigmoid" and layers[-1].width != 1:
            raise ValueError("sigmoid head requires a single output logit")
        if len(weights) != len(layers) or len(biases) != len(layers):
            raise ValueError("need one weight matrix and bias vector per layer")
        fan_in = input_dim
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for spec, W, bvec in zip(layers, weights, biases):
            W = np.asarray(W, dtype=np.float64)
            bvec = np.asarray(bvec, dtype=np.float64)
            if W.shape != (fan_in, spec.width):
                raise ValueError(
                    f"weight shape {W.shape} does not match ({fan_in}, {spec.width})"
                )
            if bvec.shape != (spec.width,):
                raise ValueError(f"bias shape {bvec.shape} does not match ({spec.width},)")
            self.weights.append(W)
            self.biases.append(bvec)
            fan_in = spec.width
        self.layers = layers
        self.input_dim = input_dim
        self.final = final
        self.seed = seed
        self.train_config = train_config

    @property
    def n_classes(self) -> int:
        return 2 if self.final == "sigmoid" else self.layers[-1].width

    # ------------------------------------------------------------------
    # forward passes

    def forward_stack(self, X: np.ndarray):
        """All pre-activations and activations; returns (zs, acts, probs)."""
        zs: list[np.ndarray] = []
        acts: list[np.ndarray] = [X]
        a = X
        for spec, W, bvec in zip(self.layers, self.weights, self.biases):
            z = a @ W + bvec
            a = _activate(spec.activation, z)
            zs.append(z)
            acts.append(a)
        if self.final == "softmax":
            probs = _softmax(a)
        else:
            p = sigmoid(a[..., 0])
            probs = np.stack([1.0 - p, p], axis=-1)
        return zs, acts, probs

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class-probability vector for a single point."""
        x = np.asarray(x, dtype=np.float64)
        return self.forward_stack(x[None, :])[2][0]

    def forward_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return self.forward_stack(X)[2]

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward_batch(X), axis=1)

    def accuracy(self, X: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.predict_batch(X) == np.asarray(labels)))

    def loss(self, x: np.ndarray, label: int) -> float:
        """Cross-entropy of the predicted distribution at one point."""
        p = self.forward(x)[int(label)]
        return float(-np.log(max(p, _LOSS_CLAMP)))

    def loss_batch(self, X: np.ndarray, labels: np.ndarray) -> np.ndarray:
        probs = self.forward_batch(X)
        picked = probs[np.arange(len(labels)), np.asarray(labels)]
        return -np.log(np.maximum(picked, _LOSS_CLAMP))

    # ------------------------------------------------------------------
    # gradients

    def _head_delta(self, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """d(mean CE)/d(last activation), times batch size."""
        if self.final == "softmax":
            delta = probs.copy()
            delta[np.arange(len(labels)), labels] -= 1.0
            return delta
        # single-logit sigmoid: dCE/da = p1 - y
        return (probs[:, 1] - labels)[:, None]

    def param_gradients(self, X: np.ndarray, labels: np.ndarray):
        """Mean cross-entropy gradients for every layer: list of (dW, db)."""
        grads, _ = self._param_gradients_with_loss(X, labels)
        return grads

    def _param_gradients_with_loss(self, X: np.ndarray, labels: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        labels = np.asarray(labels)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError("gradient requires a non-empty 2-D batch")
        zs, acts, probs = self.forward_stack(X)
        picked = probs[np.arange(len(labels)), labels]
        loss = float(np.mean(-np.log(np.maximum(picked, _LOSS_CLAMP))))
        batch = X.shape[0]
        delta = self._head_delta(probs, labels) / batch
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(self.layers)
        for l in range(len(self.layers) - 1, -1, -1):
            spec = self.layers[l]
            dz = delta * _activation_deriv(spec.activation, zs[l], acts[l + 1])
            grads[l] = (acts[l].T @ dz, dz.sum(axis=0))
            if l > 0:
                delta = dz @ self.weights[l].T
        return grads, loss

    def input_gradient(self, x: np.ndarray, target_class: int | None = None) -> np.ndarray:
        """Gradient of the target-class probability with respect to the input.

        Defaults to the predicted class (argmax of the forward pass).
        """
        x = np.asarray(x, dtype=np.float64)
        targets = None if target_class is None else np.array([int(target_class)])
        return self.input_gradient_batch(x[None, :], targets)[0]

    def input_gradient_batch(
        self, X: np.ndarray, target_classes: np.ndarray | None = None, guided: bool = False
    ) -> np.ndarray:
        """Per-row gradients of the target-class probability (default: predicted).
        `guided` zeroes the gradient at a ReLU also where the gradient arriving
        from above is negative, as guided backprop does."""
        X = np.asarray(X, dtype=np.float64)
        zs, acts, probs = self.forward_stack(X)
        if target_classes is None:
            target_classes = np.argmax(probs, axis=1)
        else:
            target_classes = np.asarray(target_classes, dtype=np.int64)
        rows = np.arange(X.shape[0])
        if self.final == "softmax":
            pc = probs[rows, target_classes]
            delta = -probs * pc[:, None]
            delta[rows, target_classes] += pc
        else:
            p = probs[:, 1]
            sign = np.where(target_classes == 1, 1.0, -1.0)
            delta = (sign * p * (1.0 - p))[:, None]
        for l in range(len(self.layers) - 1, -1, -1):
            spec = self.layers[l]
            if guided and spec.activation == "relu":
                dz = delta * (zs[l] > 0.0) * (delta > 0.0)
            else:
                dz = delta * _activation_deriv(spec.activation, zs[l], acts[l + 1])
            delta = dz @ self.weights[l].T
        return delta

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> str:
        payload = {
            "arch": [
                {"width": s.width, "activation": s.activation} for s in self.layers
            ],
            "input_dim": self.input_dim,
            "final": self.final,
            "weights": [W.tolist() for W in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "seed": self.seed,
            "train_config": self.train_config.to_dict() if self.train_config else None,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MlpModel":
        payload = json.loads(text)
        cfg = payload.get("train_config")
        return cls(
            layers=[LayerSpec(**spec) for spec in payload["arch"]],
            input_dim=payload["input_dim"],
            weights=[np.array(W, dtype=np.float64) for W in payload["weights"]],
            biases=[np.array(b, dtype=np.float64) for b in payload["biases"]],
            final=payload.get("final", "softmax"),
            seed=payload.get("seed"),
            train_config=TrainConfig.from_dict(cfg) if cfg else None,
        )


def init_model(
    layers: Sequence[LayerSpec],
    input_dim: int,
    seed: int,
    final: str = "softmax",
) -> MlpModel:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    layers = [l if isinstance(l, LayerSpec) else LayerSpec(**l) for l in layers]
    weights = []
    biases = []
    fan_in = input_dim
    for spec in layers:
        scale = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-scale, scale, size=(fan_in, spec.width)))
        biases.append(np.zeros(spec.width))
        fan_in = spec.width
    return MlpModel(layers, input_dim, weights, biases, final=final, seed=seed)


def train(model: MlpModel, dataset, cfg: TrainConfig) -> MlpModel:
    """Train in place with seeded epoch shuffles; returns the same model.

    Mini-batches are consecutive slices of a fresh seeded permutation each
    epoch. The step-decayed learning rate lr/(1 + decay*step) advances once
    per mini-batch. A non-finite batch loss aborts with diagnostics.
    """
    X = dataset.features
    labels = dataset.labels
    if labels.max() >= model.n_classes:
        raise ValueError("dataset has labels outside the model's class range")
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
            grads, loss = model._param_gradients_with_loss(X[batch], labels[batch])
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, step, loss)
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
                    model.weights[l] -= cfg.lr * (mW / corr1) / (np.sqrt(vW / corr2) + eps)
                    model.biases[l] -= cfg.lr * (mb / corr1) / (np.sqrt(vb / corr2) + eps)
            else:  # plain full-batch gradient step
                for l, (dW, db) in enumerate(grads):
                    model.weights[l] -= lr_t * dW
                    model.biases[l] -= lr_t * db
    model.train_config = cfg
    return model


# ----------------------------------------------------------------------
# logistic models


@dataclass
class LogisticModel:
    """Linear two-class model f(x) = sigmoid(w.x - b)."""

    w: np.ndarray
    b: float

    def __post_init__(self) -> None:
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = float(self.b)
        if self.w.ndim != 1:
            raise ValueError("w must be a vector")

    @property
    def n_classes(self) -> int:
        return 2

    def decision_batch(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.w - self.b

    def positive_prob(self, x: np.ndarray) -> float:
        return float(sigmoid(np.dot(x, self.w) - self.b))

    def positive_prob_batch(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision_batch(X))

    def forward(self, x: np.ndarray) -> np.ndarray:
        f = self.positive_prob(x)
        return np.array([1.0 - f, f])

    def forward_batch(self, X: np.ndarray) -> np.ndarray:
        f = self.positive_prob_batch(X)
        return np.stack([1.0 - f, f], axis=1)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        return (self.positive_prob_batch(X) >= 0.5).astype(np.int64)

    def accuracy(self, X: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.predict_batch(X) == np.asarray(labels)))

    def input_gradient(self, x: np.ndarray, target_class: int | None = None) -> np.ndarray:
        f = self.positive_prob(x)
        if target_class is None:
            target_class = 1 if f >= 0.5 else 0
        sign = 1.0 if target_class == 1 else -1.0
        return sign * f * (1.0 - f) * self.w

    def input_gradient_batch(
        self, X: np.ndarray, target_classes: np.ndarray | None = None
    ) -> np.ndarray:
        f = self.positive_prob_batch(X)
        if target_classes is None:
            target_classes = (f >= 0.5).astype(np.int64)
        sign = np.where(np.asarray(target_classes) == 1, 1.0, -1.0)
        return (sign * f * (1.0 - f))[:, None] * self.w[None, :]

    def loss(self, x: np.ndarray, label: int) -> float:
        """Likelihood-form value (1-f)^l * f^(1-l); lies in [0, 1]."""
        f = self.positive_prob(x)
        return f if int(label) == 0 else 1.0 - f

    def loss_batch(self, X: np.ndarray, labels: np.ndarray) -> np.ndarray:
        f = self.positive_prob_batch(X)
        labels = np.asarray(labels)
        return np.where(labels == 0, f, 1.0 - f)

    def to_json(self) -> str:
        return json.dumps({"w": self.w.tolist(), "b": self.b}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LogisticModel":
        payload = json.loads(text)
        return cls(w=np.array(payload["w"], dtype=np.float64), b=payload["b"])


def _binary_targets(labels: np.ndarray) -> np.ndarray:
    if np.any(labels > 1):
        raise ValueError("train_logistic requires binary 0/1 labels")
    return labels.astype(np.float64)


def train_logistic(dataset, cfg: TrainConfig) -> LogisticModel:
    """Full-batch gradient ascent on the log-likelihood, from zero init.

    Deterministic by construction: the ascent path depends only on the data
    and on cfg.lr / cfg.epochs. Labels must be binary 0/1. Gradients are
    mean-normalized over the batch; a non-finite fit raises TrainingDivergedError.
    """
    X = dataset.features
    y = _binary_targets(dataset.labels)
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(cfg.epochs):
        f = sigmoid(X @ w - b)
        resid = y - f
        w += cfg.lr * (resid @ X) / len(y)
        b += cfg.lr * float(np.mean(f - y))
    if not (np.isfinite(w).all() and np.isfinite(b)):
        raise TrainingDivergedError(cfg.epochs - 1, cfg.epochs - 1, float("nan"))
    return LogisticModel(w=w, b=b)


def train_logistic_loo(dataset, cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """All n leave-one-out `train_logistic` fits, (n, d) weights and (n,) biases, in
    blocks of models. Row i trains on all points with point i's residual zeroed, so
    each step is the mean gradient of the other n - 1 (the bias is the weight of a
    constant -1 feature). Rows equal per-subset fits up to summation order; they are
    returned unchecked, so the caller can name a non-finite row."""
    y = _binary_targets(dataset.labels)
    n = len(y)
    X = np.hstack([dataset.features, -np.ones((n, 1))])
    W = np.zeros((n, X.shape[1]))
    step = max(1, _BLOCK_FLOATS // n)
    for start in range(0, n, step):
        w_blk = W[start:start + step]  # a view: the block trains in place
        resid = np.empty((len(w_blk), n))
        for _ in range(cfg.epochs):
            np.matmul(w_blk, X.T, out=resid)
            np.subtract(y, sigmoid(resid, out=resid), out=resid)
            np.fill_diagonal(resid[:, start:], 0.0)  # row r leaves out point start + r
            w_blk += cfg.lr * (resid @ X) / (n - 1)
    return W[:, :-1], W[:, -1]
