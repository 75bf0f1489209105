"""Membership-inference attacks on models and their explanations.

A threshold attack reduces each point to a scalar statistic (its loss, the
variance of its predicted distribution, or the variance of its explanation)
and compares against a calibrated cut. Low loss, low explanation variance,
and high prediction variance all vote "training member". Thresholds come
either from an exhaustive optimal scan (requires ground-truth membership) or
from shadow models that mimic the target.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import Config
from .explain import check_feature_params, explain_batch
from .explain import explain  # noqa: F401  (public name; the benchmark's tracer wraps it)

STATISTIC_KINDS = ("loss", "pred_var", "expl_var")


def variance(values) -> float:
    """Unnormalized spread: sum of squared deviations from the mean."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("variance expects a non-empty vector")
    return float(((v - v.mean()) ** 2).sum())


@dataclass
class AttackStatistic(Config):
    """Descriptor of a per-point scalar used by threshold attacks.

    kind "expl_var" carries the explanation method and its params, checked
    against the method's params dataclass when the statistic is built; setting
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
            check_feature_params(self.method, self.params)  # raises on an unknown method or param
        elif self.method is not None or self.params:
            raise ValueError(f"{self.kind} takes no explanation method or params")
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
    row of one `explain_batch` call to its variance or 1-norm."""
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


def optimal_threshold(
    member_stats, nonmember_stats, member_if: str
) -> tuple[float, float]:
    """Exhaustive scan for the cut maximizing balanced accuracy.

    Candidates are the midpoints between consecutive distinct pooled values
    plus -inf and +inf; ties resolve to the smallest tau. Returns
    (tau, balanced accuracy); the accuracy can never fall below 0.5 because
    the infinite cuts classify everything one way. Each population is sorted
    once and counted at every candidate by binary search. A NaN or infinite
    statistic raises ValueError naming its population and count.
    """
    member_stats = np.asarray(member_stats, dtype=np.float64)
    nonmember_stats = np.asarray(nonmember_stats, dtype=np.float64)
    if member_stats.size == 0 or nonmember_stats.size == 0:
        raise ValueError("both populations must be non-empty")
    if member_if not in ("leq", "geq"):
        raise ValueError("member_if must be 'leq' or 'geq'")
    for name, values in (("member", member_stats), ("non-member", nonmember_stats)):
        bad = int(np.count_nonzero(~np.isfinite(values)))
        if bad:
            raise ValueError(f"{name} population holds {bad} non-finite statistic value(s)")
    uniq = np.unique(np.concatenate([member_stats, nonmember_stats]))
    candidates = np.concatenate([[-np.inf], (uniq[:-1] + uniq[1:]) / 2.0, [np.inf]])
    side = "right" if member_if == "leq" else "left"
    members = np.sort(member_stats)
    nonmembers = np.sort(nonmember_stats)
    below_m = np.searchsorted(members, candidates, side)  # m <= tau (leq) or m < tau (geq)
    below_nm = np.searchsorted(nonmembers, candidates, side)
    hits_m = below_m if member_if == "leq" else members.size - below_m
    hits_nm = nonmembers.size - below_nm if member_if == "leq" else below_nm
    accuracy = 0.5 * (hits_m / member_stats.size + hits_nm / nonmember_stats.size)
    best = int(np.argmax(accuracy))  # the first maximum: the smallest tau
    return float(candidates[best]), float(accuracy[best])


def aggregate_shadow_taus(taus, s: int) -> float:
    """Mean of the first s per-shadow optimal thresholds."""
    if s < 1:
        raise ValueError("s must be at least 1")
    if s > len(taus):
        raise ValueError(f"requested {s} shadows but only {len(taus)} available")
    return float(np.mean(np.asarray(taus, dtype=np.float64)[:s]))


@dataclass
class ThresholdRule:
    statistic: AttackStatistic
    tau: float

    def decide(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        return values <= self.tau if self.statistic.member_if == "leq" else values >= self.tau
