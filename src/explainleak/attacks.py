"""Membership-inference attacks on models and their explanations.

A threshold attack reduces each point to a scalar statistic (its loss, the
variance of its predicted distribution, or the variance of its explanation)
and compares against a calibrated cut. Low loss, low explanation variance,
and high prediction variance all vote "training member". Thresholds come
either from an exhaustive optimal scan (requires ground-truth membership) or
from shadow models that mimic the target. A learned attack alternatively
trains a binary classifier on explanation/prediction/loss features.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import Config
from .data import Dataset
from .explain import EXPLANATION_METHODS, explain_batch
from .explain import explain  # noqa: F401  (public name; the benchmark's tracer wraps it)
from .models import LayerSpec, TrainConfig, init_model, train

STATISTIC_KINDS = ("loss", "pred_var", "expl_var")

# Published attack-network widths; desk scale shrinks them by `width_scale`
# while keeping the wide/wide/narrow/wide/narrow bottleneck shape.
ATTACK_NET_WIDTHS = (1024, 512, 64, 256, 64)


def variance(values) -> float:
    """Unnormalized spread: sum of squared deviations from the mean."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("variance expects a non-empty vector")
    return float(((v - v.mean()) ** 2).sum())


@dataclass
class AttackStatistic(Config):
    """Descriptor of a per-point scalar used by threshold attacks.

    kind "expl_var" carries the explanation method (and its params); setting
    use_l1 swaps the variance for the explanation's 1-norm, which shares the
    "small means member" direction.
    """

    kind: str
    method: str | None = None
    params: dict = field(default_factory=dict)
    use_l1: bool = False

    def __post_init__(self) -> None:
        if self.kind not in STATISTIC_KINDS:
            raise ValueError(f"kind must be one of {STATISTIC_KINDS}")
        if self.kind == "expl_var":
            if self.method not in EXPLANATION_METHODS:
                raise ValueError(
                    f"expl_var needs an explanation method, got {self.method!r}"
                )
        elif self.method is not None:
            raise ValueError(f"{self.kind} does not take an explanation method")
        if self.use_l1 and self.kind != "expl_var":
            raise ValueError("use_l1 applies only to explanation statistics")

    @property
    def member_if(self) -> str:
        """Decision direction: members sit at small loss/expl-var, large pred-var."""
        return "geq" if self.kind == "pred_var" else "leq"

    @property
    def label(self) -> str:
        if self.kind == "expl_var":
            return f"{'expl_l1' if self.use_l1 else 'expl_var'}[{self.method}]"
        return self.kind


def statistic_values(
    stat: AttackStatistic, model, X: np.ndarray, labels: np.ndarray | None = None
) -> np.ndarray:
    """The statistic for every row of X; an explanation statistic reduces each
    row of one `explain_batch` call to its variance or 1-norm. The rows share
    the seeded noise, so the local surrogate solves one ridge system for all
    of them, [beta, c'] = M t, and recovers each intercept as c' - x.beta."""
    X = np.asarray(X, dtype=np.float64)
    if stat.kind == "loss":
        if labels is None:
            raise ValueError("loss statistic requires true labels")
        return np.asarray(model.loss_batch(X, labels), dtype=np.float64)
    if stat.kind == "pred_var":
        values = model.forward_batch(X)
    else:
        values = explain_batch(model, X, stat.method, stat.params)
        if stat.use_l1:
            return np.abs(values).sum(axis=1)
    values -= values.mean(axis=1, keepdims=True)
    return np.square(values, out=values).sum(axis=1)


def compute_statistic(
    stat: AttackStatistic, model, x: np.ndarray, label: int | None = None
) -> float:
    labels = None if label is None else np.array([label])
    return float(statistic_values(stat, model, np.asarray(x)[None, :], labels)[0])


def _balanced_accuracy(member_member: np.ndarray, nonmember_nonmember: np.ndarray) -> float:
    return 0.5 * (float(member_member.mean()) + float(nonmember_nonmember.mean()))


def optimal_threshold(
    member_stats, nonmember_stats, member_if: str
) -> tuple[float, float]:
    """Exhaustive scan for the cut maximizing balanced accuracy.

    Candidates are the midpoints between consecutive distinct pooled values
    plus -inf and +inf; ties resolve to the smallest tau. Returns
    (tau, balanced accuracy); the accuracy can never fall below 0.5 because
    the infinite cuts classify everything one way.
    """
    member_stats = np.asarray(member_stats, dtype=np.float64)
    nonmember_stats = np.asarray(nonmember_stats, dtype=np.float64)
    if member_stats.size == 0 or nonmember_stats.size == 0:
        raise ValueError("both populations must be non-empty")
    if member_if not in ("leq", "geq"):
        raise ValueError("member_if must be 'leq' or 'geq'")
    uniq = np.unique(np.concatenate([member_stats, nonmember_stats]))
    candidates = np.concatenate([[-np.inf], (uniq[:-1] + uniq[1:]) / 2.0, [np.inf]])
    best_tau = None
    best_acc = -1.0
    for tau in candidates:
        if member_if == "leq":
            acc = _balanced_accuracy(member_stats <= tau, nonmember_stats > tau)
        else:
            acc = _balanced_accuracy(member_stats >= tau, nonmember_stats < tau)
        if acc > best_acc:
            best_acc = acc
            best_tau = tau
    return float(best_tau), float(best_acc)


def aggregate_shadow_taus(taus, s: int) -> float:
    """Mean of the first s per-shadow optimal thresholds."""
    if s < 1:
        raise ValueError("s must be at least 1")
    if s > len(taus):
        raise ValueError(f"requested {s} shadows but only {len(taus)} available")
    return float(np.mean(np.asarray(taus, dtype=np.float64)[:s]))


def shadow_threshold(shadow_models, shadow_sets, stat: AttackStatistic, s: int) -> float:
    """Calibrate a threshold from shadow models with known membership.

    Each shadow's optimal tau is computed on that shadow's own member and
    non-member halves; the attack threshold is the mean over the first s
    shadows (shadows are consumed in the order given).
    """
    if len(shadow_models) != len(shadow_sets):
        raise ValueError("need one flagged dataset per shadow model")
    if s > len(shadow_models):
        raise ValueError(f"requested {s} shadows but only {len(shadow_models)} available")
    taus = []
    for model, ds in list(zip(shadow_models, shadow_sets))[:s]:
        if ds.membership is None:
            raise ValueError("shadow datasets must carry membership flags")
        values = statistic_values(stat, model, ds.features, ds.labels)
        tau, _ = optimal_threshold(
            values[ds.membership], values[~ds.membership], stat.member_if
        )
        taus.append(tau)
    return aggregate_shadow_taus(taus, s)


@dataclass
class ThresholdRule:
    statistic: AttackStatistic
    tau: float
    member_if: str | None = None

    def __post_init__(self) -> None:
        if self.member_if is None:
            self.member_if = self.statistic.member_if
        if self.member_if not in ("leq", "geq"):
            raise ValueError("member_if must be 'leq' or 'geq'")

    def decide(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        return values <= self.tau if self.member_if == "leq" else values >= self.tau


@dataclass
class AttackResult:
    accuracy: float
    tau: float
    member_if: str
    statistic_label: str
    decisions: np.ndarray
    stat_values: np.ndarray
    n_members: int
    n_nonmembers: int
    warning: str | None = None


def evaluate_attack(rule: ThresholdRule, model, eval_set: Dataset) -> AttackResult:
    """Apply a threshold rule to a flagged evaluation set."""
    if eval_set.membership is None:
        raise ValueError("evaluation set must carry membership flags")
    values = statistic_values(rule.statistic, model, eval_set.features, eval_set.labels)
    decisions = rule.decide(values)
    truth = eval_set.membership
    n_members = int(truth.sum())
    n_nonmembers = int((~truth).sum())
    warning = None
    if n_members != n_nonmembers:
        warning = (
            f"evaluation set is unbalanced: {n_members} members, "
            f"{n_nonmembers} non-members"
        )
    return AttackResult(
        accuracy=float(np.mean(decisions == truth)),
        tau=rule.tau,
        member_if=rule.member_if,
        statistic_label=rule.statistic.label,
        decisions=decisions,
        stat_values=values,
        n_members=n_members,
        n_nonmembers=n_nonmembers,
        warning=warning,
    )


def combine_sources(parts) -> np.ndarray:
    """Concatenate per-point feature blocks column-wise in the given order.

    The conventional order is (explanation values, prediction vector, loss).
    1-D blocks are treated as single columns. All blocks must agree on the
    number of points.
    """
    if not parts:
        raise ValueError("no feature blocks given")
    arrays = []
    for part in parts:
        a = np.asarray(part, dtype=np.float64)
        if a.ndim == 1:
            a = a[:, None]
        if a.ndim != 2:
            raise ValueError("feature blocks must be 1-D or 2-D")
        arrays.append(a)
    n = arrays[0].shape[0]
    for a in arrays[1:]:
        if a.shape[0] != n:
            raise ValueError(
                f"feature blocks disagree on point count: {a.shape[0]} vs {n}"
            )
    return np.hstack(arrays)


@dataclass
class AttackNetResult:
    model: object
    train_accuracy: float
    test_accuracy: float
    n_train: int
    n_test: int


def train_attack_network(
    features: np.ndarray,
    membership: np.ndarray,
    seed: int,
    width_scale: float = 1.0 / 16.0,
    epochs: int = 15,
    lr: float = 0.01,
    lr_decay: float = 1e-7,
    train_fraction: float = 0.7,
) -> AttackNetResult:
    """Train the learned membership classifier on attack features.

    The network is a scaled copy of the published wide/wide/narrow/wide/
    narrow stack with ReLU activations and a single sigmoid logit, trained
    with step-decayed adagrad on a seeded 70/30 split.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    membership = np.asarray(membership, dtype=bool)
    if membership.shape != (features.shape[0],):
        raise ValueError("membership must flag every feature row")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    n = features.shape[0]
    n_train = int(round(train_fraction * n))
    if n_train < 1 or n - n_train < 1:
        raise ValueError("split leaves an empty train or test side")

    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    train_idx, test_idx = order[:n_train], order[n_train:]
    labels = membership.astype(np.int64)

    widths = [max(1, round(w * width_scale)) for w in ATTACK_NET_WIDTHS]
    layers = [LayerSpec(w, "relu") for w in widths] + [LayerSpec(1, "identity")]
    net = init_model(layers, features.shape[1], seed, final="sigmoid")
    cfg = TrainConfig(
        optimizer="adagrad", lr=lr, lr_decay=lr_decay, epochs=epochs,
        batch_size=min(32, n_train), seed=seed,
    )
    train(net, Dataset(features[train_idx], labels[train_idx]), cfg)
    return AttackNetResult(
        model=net,
        train_accuracy=net.accuracy(features[train_idx], labels[train_idx]),
        test_accuracy=net.accuracy(features[test_idx], labels[test_idx]),
        n_train=len(train_idx),
        n_test=len(test_idx),
    )
