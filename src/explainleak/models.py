"""Dense feed-forward classifiers trained from scratch on numpy.

Two model families are provided. `MlpModel` is a fully connected network with
per-layer activations and a softmax head over its k logits. `LogisticModel` is
a linear classifier f(x) = 1 / (1 + exp(-(w.x - b))) trained by full-batch
gradient ascent on the log-likelihood; it is the model family the influence and
reconstruction machinery operates on; `train_logistic_loo` trains all n
leave-one-out fits in blocks, which `fork_map` runs in workers it forks itself.

Everything is deterministic under explicit seeds: weight init draws from a
seeded generator, and epoch shuffles come from a generator derived from the
training seed, so identical configs reproduce bit-identical parameters.
"""
from __future__ import annotations

import json
import os
import pickle
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import Config, ConfigError

OPTIMIZERS = ("adagrad", "adam", "gd")

_LOSS_CLAMP = 1e-12
# Floats (512 KiB) per block of rows: explain's perturbed copies, train_logistic_loo's
# models, and the influence queries of top_k_rows and baseline_attack
_BLOCK_FLOATS = 1 << 16


def _row_blocks(n_rows: int, floats_per_row: int):
    """Row slices that fit in _BLOCK_FLOATS at floats_per_row floats a row (one row at least)."""
    step = max(1, _BLOCK_FLOATS // floats_per_row)
    return (slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step))


def usable_cpus() -> set[int]:
    """The CPUs this process may run on: its affinity set on Linux, else one CPU."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else {0}


def _run_share(pipe: int, cpu: int, cpus, fn, shared: tuple, jobs: list) -> None:
    """A forked worker's jobs, run in turn from a CPU of its own (forked workers can share
    one for longer than a short map lasts); their results, or its error, go down pipe."""
    try:  # pinned, it moves there; widened again, the scheduler may still move it
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, cpus)
    except OSError:  # a CPU this host lacks: it stays where it was forked
        pass
    try:
        sent = [fn(*shared, *job) for job in jobs]
    except Exception as exc:  # raised again, as itself, in the parent
        sent = exc
    sys.stdout.flush()
    sys.stderr.flush()
    with open(pipe, "wb") as out:
        out.write(pickle.dumps(sent))


def fork_map(fn, shared: tuple, jobs: list) -> list:
    """[fn(*shared, *job) for job in jobs], in job order: the one map of CSV parse shares, LOO
    blocks, threshold targets, their statistics' halves and sweep dims. With 2 or more jobs and
    usable CPUs, it forks w = min(jobs, CPUs) workers, no pool: worker k inherits fn, shared and
    the jobs, runs jobs k, k + w, ... and pickles back their results down its own pipe while the
    parent waits. A job's error is raised as itself, a dead worker's as BrokenProcessPool."""
    cpus = usable_cpus()
    w = min(len(jobs), len(cpus))
    if w < 2:
        return [fn(*shared, *job) for job in jobs]
    import signal  # only a forked map needs it

    sys.stdout.flush()  # or a worker prints the parent's buffered text a second time
    sys.stderr.flush()
    workers, results = [], [None] * len(jobs)
    try:
        for k, cpu in enumerate(sorted(cpus)[:w]):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker never returns into the caller's stack
                try:
                    _run_share(write, cpu, cpus, fn, shared, jobs[k::w])
                finally:
                    os._exit(0)
            os.close(write)
            workers.append((pid, open(read, "rb")))
        for k, (_, pipe) in enumerate(workers):
            sent = pipe.read()
            if not sent:
                from concurrent.futures.process import BrokenProcessPool
                raise BrokenProcessPool("a forked worker terminated abruptly")
            sent = pickle.loads(sent)
            if isinstance(sent, Exception):
                raise sent
            results[k::w] = sent
        return results
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss stops being finite."""

    def __init__(self, epoch: int, step: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch}, step {step}: loss={loss!r}")
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


# Each activation as (f(z), f'(z) given z and a = f(z)).
_ACTIVATIONS = {
    "tanh": (np.tanh, lambda z, a: 1.0 - a * a),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z, a: (z > 0.0).astype(z.dtype)),
    "sigmoid": (sigmoid, lambda z, a: a * (1.0 - a)),
    "identity": (lambda z: z, None),  # f' = 1: _backward passes the gradient on as it is
}
ACTIVATIONS = tuple(_ACTIVATIONS)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _cross_entropy(picked: np.ndarray) -> np.ndarray:
    """Per-row -log p, p each row's label probability clamped below at _LOSS_CLAMP."""
    return -np.log(np.maximum(picked, _LOSS_CLAMP))


@dataclass(frozen=True)
class LayerSpec:
    width: int
    activation: str = "tanh"

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("layer width must be at least 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")


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

    def refuse_unread(self, logistic: bool) -> None:
        """Raise ConfigError for a setting no fit reads: every config derives each
        fit's seed, and a logistic fit reads only lr and epochs."""
        if self.seed != 0:
            raise ConfigError(f"train.seed must be 0 (each fit's seed is derived), got {self.seed}")
        if logistic and self.optimizer != "gd":
            raise ConfigError(
                f"train.optimizer must be 'gd' for a logistic target, got {self.optimizer!r}"
            )
        if logistic and self.lr_decay != 0:
            raise ConfigError(
                f"train.lr_decay must be 0 for a logistic target, got {self.lr_decay}"
            )


class MlpModel:
    """Fully connected classifier: affine + activation per layer, then a
    softmax over the `layers[-1].width` logits, one per class."""

    def __init__(self, layers: Sequence[LayerSpec], input_dim: int, weights: Sequence[np.ndarray],
                 biases: Sequence[np.ndarray], seed: int | None = None,
                 train_config: TrainConfig | None = None):
        if not layers:
            raise ValueError("at least one layer is required")
        if input_dim < 1:
            raise ValueError("input_dim must be at least 1")
        if len(weights) != len(layers) or len(biases) != len(layers):
            raise ValueError("need one weight matrix and bias vector per layer")
        fan_in = input_dim
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for spec, W, bvec in zip(layers, weights, biases):
            W = np.asarray(W, dtype=np.float64)
            bvec = np.asarray(bvec, dtype=np.float64)
            if W.shape != (fan_in, spec.width):
                raise ValueError(f"weight shape {W.shape} does not match ({fan_in}, {spec.width})")
            if bvec.shape != (spec.width,):
                raise ValueError(f"bias shape {bvec.shape} does not match ({spec.width},)")
            self.weights.append(W)
            self.biases.append(bvec)
            fan_in = spec.width
        self.layers = list(layers)
        self.input_dim = input_dim
        self.seed = seed
        self.train_config = train_config

    @property
    def n_classes(self) -> int:
        return self.layers[-1].width

    # ------------------------------------------------------------------
    # forward passes

    def _forward_from(self, z1: np.ndarray):
        """(zs, outs, probs) from the first layer's pre-activation z1 = X W1 + b1;
        outs[l] is layer l's output. Sampled explanations pass z1 directly."""
        zs: list[np.ndarray] = []
        outs: list[np.ndarray] = []
        z = z1
        for l, spec in enumerate(self.layers):
            if l:
                z = outs[-1] @ self.weights[l] + self.biases[l]
            zs.append(z)
            outs.append(_ACTIVATIONS[spec.activation][0](z))
        return zs, outs, _softmax(outs[-1])

    def forward_stack(self, X: np.ndarray):
        """All pre-activations and activations; returns (zs, acts, probs)."""
        zs, outs, probs = self._forward_from(X @ self.weights[0] + self.biases[0])
        return zs, [X, *outs], probs

    def forward_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return self.forward_stack(X)[2]

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward_batch(X), axis=1)

    def accuracy(self, X: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.predict_batch(X) == np.asarray(labels)))

    def loss_batch(self, X: np.ndarray, labels: np.ndarray) -> np.ndarray:
        return _cross_entropy(self.forward_batch(X)[np.arange(len(labels)), np.asarray(labels)])

    # ------------------------------------------------------------------
    # gradients

    def _gradient_step(self, X: np.ndarray, labels: np.ndarray, grads) -> np.ndarray:
        """Write the mean cross-entropy gradients into grads' (dW, db) arrays; returns
        each row's label probability, NaN where the forward pass broke down."""
        zs, acts, probs = self.forward_stack(X)
        rows = np.arange(len(labels))
        picked = probs[rows, labels]
        probs[rows, labels] -= 1.0  # d(CE)/d(last activation), times the batch size
        probs /= X.shape[0]
        for l, dz in self._backward(zs, acts[1:], probs):
            np.matmul(acts[l].T, dz, out=grads[l][0])
            dz.sum(axis=0, out=grads[l][1])
        return picked

    def _backward(self, zs, outs, delta, guided=False):
        """The backward pass from delta, the gradient at the last activation:
        yields (l, dz) for l = L-1 .. 0, dz the gradient at layer l's
        pre-activation; outs[l] is layer l's output. `guided` as in
        `input_gradient_batch`."""
        for l in range(len(self.layers) - 1, -1, -1):
            spec = self.layers[l]
            derivative = _ACTIVATIONS[spec.activation][1]
            if guided and spec.activation == "relu":
                dz = delta * (zs[l] > 0.0) * (delta > 0.0)
            else:
                dz = delta if derivative is None else delta * derivative(zs[l], outs[l])
            yield l, dz
            if l:
                delta = dz @ self.weights[l].T

    def _first_layer_delta(self, zs, outs, probs, target_classes=None, guided=False):
        """Per-row gradients of the target-class probability (default: predicted)
        with respect to z1, from `_forward_from`: the backward pass without W1^T."""
        if target_classes is None:
            target_classes = np.argmax(probs, axis=1)
        else:
            target_classes = np.asarray(target_classes, dtype=np.int64)
        rows = np.arange(len(probs))
        pc = probs[rows, target_classes]
        delta = -probs * pc[:, None]
        delta[rows, target_classes] += pc
        for _, dz in self._backward(zs, outs, delta, guided):
            pass
        return dz

    def input_gradient_batch(self, X: np.ndarray, target_classes: np.ndarray | None = None,
                             guided: bool = False) -> np.ndarray:
        """Per-row gradients of the target-class probability (default: predicted).
        `guided` zeroes the gradient at a ReLU also where the gradient arriving
        from above is negative, as guided backprop does."""
        X = np.asarray(X, dtype=np.float64)
        zs, acts, probs = self.forward_stack(X)
        delta = self._first_layer_delta(zs, acts[1:], probs, target_classes, guided)
        return delta @ self.weights[0].T

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> str:
        payload = {
            "arch": [{"width": s.width, "activation": s.activation} for s in self.layers],
            "input_dim": self.input_dim,
            "weights": [W.tolist() for W in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "seed": self.seed,
            "train_config": self.train_config.to_dict() if self.train_config else None,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MlpModel":
        """Reads `to_json`'s payload; an older file's `"final"` head must be softmax."""
        payload = json.loads(text)
        if payload.get("final", "softmax") != "softmax":
            raise ValueError(f"unsupported output head {payload['final']!r}: only softmax")
        cfg = payload.get("train_config")
        return cls(
            layers=[LayerSpec(**spec) for spec in payload["arch"]],
            input_dim=payload["input_dim"],
            weights=[np.array(W, dtype=np.float64) for W in payload["weights"]],
            biases=[np.array(b, dtype=np.float64) for b in payload["biases"]],
            seed=payload.get("seed"),
            train_config=TrainConfig.from_dict(cfg) if cfg else None,
        )


def init_model(layers: Sequence[LayerSpec], input_dim: int, seed: int) -> MlpModel:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    fan_ins = [input_dim] + [spec.width for spec in layers[:-1]]
    weights = [rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in), size=(fan_in, spec.width))
               for fan_in, spec in zip(fan_ins, layers)]
    biases = [np.zeros(spec.width) for spec in layers]
    return MlpModel(layers, input_dim, weights, biases, seed=seed)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite loss or parameter raises below
def train(model: MlpModel, dataset, cfg: TrainConfig) -> MlpModel:
    """Train in place with seeded epoch shuffles; returns the same model.

    Mini-batches are consecutive slices of a fresh seeded permutation each
    epoch. The step-decayed learning rate lr/(1 + decay*step) advances once
    per mini-batch. A non-finite batch loss, or a non-finite parameter after the
    last step, raises TrainingDivergedError; numpy's overflow warnings are silenced.
    The optimizer updates one flat copy of the parameters, and model.weights and
    model.biases become views of it: arrays a caller held before are not updated.
    """
    X = dataset.features
    labels = dataset.labels
    if labels.max() >= model.n_classes:
        raise ValueError("dataset has labels outside the model's class range")
    n = X.shape[0]
    batch_size = cfg.batch_size if cfg.batch_size is not None else n
    rng = np.random.default_rng(cfg.seed)

    params, L = model.weights + model.biases, len(model.layers)  # W1 .. WL, b1 .. bL
    theta = np.concatenate([p.ravel() for p in params])
    # each step's gradients, Adagrad's or Adam's squared gradients, Adam's first moment
    g, accum, moment = np.zeros((3, theta.size))
    cuts = np.cumsum([p.size for p in params])[:-1]
    theta_views, g_views = ([v.reshape(p.shape) for v, p in zip(np.split(flat, cuts), params)]
                            for flat in (theta, g))
    model.weights, model.biases = theta_views[:L], theta_views[L:]
    grads = list(zip(g_views[:L], g_views[L:]))  # (dW, db) per layer, written in place
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            picked = model._gradient_step(X[batch], labels[batch], grads)
            if not np.isfinite(picked.sum()):  # only a NaN probability makes the loss non-finite
                raise TrainingDivergedError(epoch, step, float(np.mean(_cross_entropy(picked))))
            lr_t = cfg.lr / (1.0 + cfg.lr_decay * step)
            step += 1
            if cfg.optimizer == "adagrad":
                accum += g * g
                theta -= lr_t * g / (np.sqrt(accum) + 1e-10)
            elif cfg.optimizer == "adam":
                b1, b2, eps = 0.9, 0.999, 1e-8
                moment *= b1
                moment += (1 - b1) * g
                accum *= b2
                accum += (1 - b2) * g * g
                theta -= lr_t * (moment / (1 - b1**step)) / (np.sqrt(accum / (1 - b2**step)) + eps)
            else:  # plain full-batch gradient step
                theta -= lr_t * g
    if not np.isfinite(theta).all():  # the last update overflowed
        raise TrainingDivergedError(cfg.epochs - 1, step - 1, float("nan"))
    model.train_config = cfg
    return model


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

    def positive_prob(self, x: np.ndarray) -> float:
        """f(x) at one point: the scalar path of every oracle query."""
        return float(sigmoid(np.dot(x, self.w) - self.b))

    def positive_prob_batch(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(np.asarray(X, dtype=np.float64) @ self.w - self.b)

    def forward_batch(self, X: np.ndarray) -> np.ndarray:
        f = self.positive_prob_batch(X)
        return np.stack([1.0 - f, f], axis=1)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        return (self.positive_prob_batch(X) >= 0.5).astype(np.int64)

    def accuracy(self, X: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.predict_batch(X) == np.asarray(labels)))

    def input_gradient_batch(self, X: np.ndarray,
                             target_classes: np.ndarray | None = None) -> np.ndarray:
        f = self.positive_prob_batch(X)
        if target_classes is None:
            target_classes = (f >= 0.5).astype(np.int64)
        sign = np.where(np.asarray(target_classes) == 1, 1.0, -1.0)
        return (sign * f * (1.0 - f))[:, None] * self.w[None, :]

    def loss_batch(self, X: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Likelihood-form value (1-f)^l * f^(1-l) per row; lies in [0, 1]."""
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


def _loo_block(X: np.ndarray, y: np.ndarray, lr: float, epochs: int, rows: slice) -> np.ndarray:
    """The leave-one-out weights of `rows`, one block of models trained from zero."""
    n = len(y)
    w_blk = np.zeros((rows.stop - rows.start, X.shape[1]))
    resid = np.empty((len(w_blk), n))
    for _ in range(epochs):
        np.matmul(w_blk, X.T, out=resid)
        np.subtract(y, sigmoid(resid, out=resid), out=resid)
        np.fill_diagonal(resid[:, rows.start:], 0.0)  # row r leaves out point rows.start + r
        w_blk += lr * (resid @ X) / (n - 1)
    return w_blk


def train_logistic_loo(dataset, cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """All n leave-one-out `train_logistic` fits, (n, d) weights and (n,) biases, in
    `fork_map` jobs of one block each. Row i trains on all points with point i's
    residual zeroed, so each step is the mean gradient of the other n - 1 (the bias is
    the weight of a constant -1 feature). Rows equal per-subset fits up to summation
    order; they are returned unchecked, so the caller can name a non-finite row."""
    y = _binary_targets(dataset.labels)
    n = len(y)
    X = np.hstack([dataset.features, -np.ones((n, 1))])
    jobs = [(rows,) for rows in _row_blocks(n, n)]
    W = np.concatenate(fork_map(_loo_block, (X, y, cfg.lr, cfg.epochs), jobs))
    return W[:, :-1], W[:, -1]
