"""Training-set reconstruction from an influence-revealing oracle.

The oracle (`influence.InfluenceOracle.query`) answers a query point with the
model's prediction, the single most influential training point (by absolute
influence), and that point's influence value. Against a logistic model whose
leave-one-out retrainings are also logistic, each answer pins down an affine
restriction of the revealed point's leave-one-out model; constraining every
further query to the subspace where that point's influence vanishes forces
the oracle to reveal a different point next time. Repeating the slice
recovers one new training point per round until influence, novelty, or
dimensions run out. Each completed round is a `ReconstructionStep` that holds
the slice it made; the result's query counts are read from the steps.

Also provides the random-query baselines (uniform / marginal / true
distribution samplers) used to contextualise the reconstruction attack.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .influence import InfluenceExplainer, InfluenceOracle, OracleAnswer, _check_k
from .influence import topk_explain  # noqa: F401  (leakbench's tracer patches it)
from .models import _row_blocks

_PROB_CLAMP = 1e-12
_EPS_MIN = 1e-8  # smallest probe step before the oracle counts as inconsistent
_ZERO_TOL = 1e-8  # an anchor influence this close to zero ends the attack
_DEPENDENCE_TOL = 1e-8  # relative slope gap below which no slice exists
_LOGIT_CAP = 4.0  # largest |base logit| of a random anchor
_ANCHOR_TRIES = 1000


def _logit(p: np.ndarray | float) -> np.ndarray | float:
    p = np.clip(p, _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    return np.log(p) - np.log1p(-p)


def _loo_probability(answer: OracleAnswer) -> float:
    """Invert the oracle's sign convention to the leave-one-out prediction."""
    if answer.prediction >= 0.5:
        return answer.prediction + answer.influence
    return answer.prediction - answer.influence


@dataclass
class ReconstructionStep:
    """One completed probe cluster: the anchor, the probe steps ``eps`` along
    the round's basis, and the full-space least-squares fit ``w_fit``/``b_fit``
    of the revealed point's leave-one-out model. Once earlier constraints have
    removed directions the cluster can no longer measure, that fit is the
    minimum-norm pseudo-solution and is flagged ``rank_deficient``. A round
    that slices the subspace keeps its ``constraint`` (normal, rhs): every
    later anchor y satisfies normal @ y == rhs.
    """

    index: int
    anchor: np.ndarray
    eps: np.ndarray
    queries: int
    w_fit: np.ndarray
    b_fit: float
    rank_deficient: bool
    constraint: tuple[np.ndarray, float] | None = None


@dataclass
class ReconstructionResult:
    recovered: list[int]
    reason: str
    base_w: np.ndarray | None
    base_b: float | None
    steps: list[ReconstructionStep] = field(default_factory=list)
    termination_queries: int = 0
    retries: int = 0

    @property
    def queries_revealing(self) -> int:
        """Queries of the completed probe clusters, retries included."""
        return sum(step.queries for step in self.steps)

    @property
    def oracle_inconsistent(self) -> bool:
        return self.reason == "oracle_inconsistent"

    @property
    def queries_total(self) -> int:
        return self.queries_revealing + self.termination_queries


def reconstruction_query_budget(n_features: int, rounds: int) -> int:
    """Worst-case retry-free query count for ``rounds`` slicing rounds.

    Round i (zero-based) spends one anchor query plus one probe per remaining
    dimension, i.e. n - i + 1 queries, so ``rounds`` rounds cost
    sum_{i=0..rounds-1} (n - i + 1).
    """
    return sum(n_features - i + 1 for i in range(rounds))


def algorithm1_reconstruct(
    oracle: InfluenceOracle,
    y0: np.ndarray | None = None,
    max_points: int | None = None,
    seed: int = 0,
) -> ReconstructionResult:
    """Iterative subspace-slicing reconstruction against a top-1 oracle.

    Each round anchors a query in the current affine subspace, probes once
    along every basis direction to fit the revealed point's leave-one-out
    model restricted to the subspace, then shrinks the subspace so that
    point's influence is identically zero from here on. The first round's
    cluster doubles as recovery of the base model itself (finite differences
    of the logit), after which anchors are drawn at random within the
    subspace, rejecting those whose |base logit| exceeds ``_LOGIT_CAP`` to keep
    the finite differences well conditioned. Probes step 1e-4 max(1, |y0|_inf)
    along each direction.

    Termination reasons: ``influence_exhausted`` (anchor influence within
    ``_ZERO_TOL`` of zero), ``repeat_reveal`` (anchor reveals a point already
    recovered), ``linear_dependence`` (the revealed point's restriction
    matches the base model's, so no slice exists; the point still counts),
    ``dimension_exhausted`` (subspace is a single point; one final anchor
    query is spent there and recorded if it reveals something new),
    ``max_points``, and ``oracle_inconsistent`` (probes keep revealing a
    different point than their anchor even at step ``_EPS_MIN``).
    """
    n = oracle.n_features
    if y0 is None:
        y0 = np.zeros(n, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64).copy()
    if y0.shape != (n,):
        raise ValueError(f"y0 must have shape ({n},), got {y0.shape}")
    eps0 = 1e-4 * max(1.0, float(np.abs(y0).max()))
    rng = np.random.default_rng(seed)

    basis = np.eye(n)
    anchor_base = y0
    w_hat: np.ndarray | None = None
    b_hat: float | None = None
    recovered: list[int] = []
    steps: list[ReconstructionStep] = []
    queries_before = oracle.query_count
    total_retries = 0

    while True:
        d = basis.shape[1]

        if d == 0:
            # Nothing left to slice; one last look at the pinned-down anchor.
            answer = oracle.query(anchor_base)
            if answer.index not in recovered and abs(answer.influence) > _ZERO_TOL:
                recovered.append(answer.index)
            reason = "dimension_exhausted"
            break

        anchor = _draw_anchor(anchor_base, basis, w_hat, b_hat, rng)
        cluster_start = oracle.query_count
        answer = oracle.query(anchor)

        if abs(answer.influence) <= _ZERO_TOL:
            reason = "influence_exhausted"
            break
        if answer.index in recovered:
            reason = "repeat_reveal"
            break

        probes, eps, retries = _probe_cluster(oracle, anchor, basis, answer.index, eps0)
        total_retries += retries
        if probes is None:
            reason = "oracle_inconsistent"
            break

        a_anchor = float(_logit(answer.prediction))
        c_anchor = float(_logit(_loo_probability(answer)))
        a_probe = _logit(np.array([p.prediction for p in probes]))
        c_probe = _logit(np.array([_loo_probability(p) for p in probes]))

        if w_hat is None:
            # First cluster: the same finite differences expose the base model.
            w_hat = (a_probe - a_anchor) / eps
            b_hat = float(w_hat @ anchor - a_anchor)

        # Full-space least squares for the revealed point's (w_x, b_x); the
        # cluster only spans the remaining subspace, so rank falls short of
        # n + 1 once constraints exist and the min-norm solution is flagged.
        cluster_points = np.vstack([anchor[None, :], anchor + basis.T * eps[:, None]])
        design = np.hstack([cluster_points, -np.ones((cluster_points.shape[0], 1))])
        targets = np.concatenate([[c_anchor], c_probe])
        solution, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)

        recovered.append(answer.index)
        step = ReconstructionStep(
            index=answer.index,
            anchor=anchor,
            eps=eps,
            queries=oracle.query_count - cluster_start,
            w_fit=solution[:-1],
            b_fit=float(solution[-1]),
            rank_deficient=bool(rank < n + 1),
        )
        steps.append(step)

        if max_points is not None and len(recovered) >= max_points:
            reason = "max_points"
            break

        da = basis.T @ w_hat
        dc = (c_probe - c_anchor) / eps
        d_slope = da - dc
        d_value = (w_hat @ anchor - b_hat) - c_anchor
        scale = max(1.0, float(np.linalg.norm(da)), float(np.linalg.norm(dc)))
        if np.linalg.norm(d_slope) <= _DEPENDENCE_TOL * scale:
            # Influence difference is flat on this subspace: no hyperplane to
            # slice along, the revealed point dominates everywhere here.
            reason = "linear_dependence"
            break

        # Move the anchor onto the revealed point's zero-influence hyperplane
        # and drop that direction from the basis.
        normal = basis @ d_slope
        step.constraint = (normal, float(normal @ anchor - d_value))
        g_particular = -d_value * d_slope / float(d_slope @ d_slope)
        anchor_base = anchor + basis @ g_particular
        basis = basis @ _orthogonal_complement(d_slope)

    result = ReconstructionResult(recovered, reason, w_hat, b_hat, steps, retries=total_retries)
    result.termination_queries = oracle.query_count - queries_before - result.queries_revealing
    return result


def _orthogonal_complement(row: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the vectors orthogonal to a non-zero row,
    row-major: a column-major copy sends ``basis @ Q`` down another BLAS path."""
    return np.ascontiguousarray(np.linalg.svd(row[None, :])[2][1:].T)


def _draw_anchor(
    anchor_base: np.ndarray,
    basis: np.ndarray,
    w_hat: np.ndarray | None,
    b_hat: float | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Random point of the current subspace with a non-saturated base logit."""
    if w_hat is None:
        return anchor_base.copy()
    da = basis.T @ w_hat
    for _ in range(_ANCHOR_TRIES):
        g = rng.standard_normal(basis.shape[1])
        y = anchor_base + basis @ g
        if abs(w_hat @ y - b_hat) <= _LOGIT_CAP:
            return y
    # The subspace barely intersects the moderate-logit slab; aim for the
    # base decision boundary directly.
    g = rng.standard_normal(basis.shape[1])
    slope_sq = float(da @ da)
    if slope_sq > 0.0:
        offset = float(w_hat @ (anchor_base + basis @ g) - b_hat)
        g = g - (offset / slope_sq) * da
    return anchor_base + basis @ g


def _probe_cluster(
    oracle: InfluenceOracle,
    anchor: np.ndarray,
    basis: np.ndarray,
    expect_index: int,
    eps0: float,
) -> tuple[list[OracleAnswer] | None, np.ndarray, int]:
    """One probe per basis direction, all revealing the anchor's point.

    A probe that reveals a different point stepped too far outside the
    anchor point's dominance region; its step is halved and retried. Returns
    (answers, eps actually used, retry count); answers is None if some
    direction stays inconsistent all the way down to ``_EPS_MIN``.
    """
    d = basis.shape[1]
    eps = np.full(d, eps0, dtype=np.float64)
    answers: list[OracleAnswer | None] = [None] * d
    pending = list(range(d))
    retries = 0
    while pending:
        failed = []
        for j in pending:
            answer = oracle.query(anchor + eps[j] * basis[:, j])
            if answer.index == expect_index:
                answers[j] = answer
            else:
                failed.append(j)
        if not failed:
            break
        retries += len(failed)
        eps[failed] *= 0.5
        if eps[failed].min() < _EPS_MIN:
            return None, eps, retries
        pending = failed
    return answers, eps, retries  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Random-query baselines
# ---------------------------------------------------------------------------


class SamplerExhaustedError(RuntimeError):
    """A without-replacement sampler ran out of points."""


class UniformSampler:
    """Uniform draws from an axis-aligned box."""

    def __init__(self, bounds: np.ndarray, seed: int = 0):
        bounds = np.asarray(bounds, dtype=np.float64)
        if bounds.ndim != 2 or bounds.shape[1] != 2:
            raise ValueError("bounds must have shape (n_features, 2)")
        if np.any(bounds[:, 1] < bounds[:, 0]):
            raise ValueError("upper bounds must not be below lower bounds")
        self.bounds = bounds
        self._rng = np.random.default_rng(seed)

    def sample_batch(self, q: int) -> np.ndarray:
        """(q, d) draws; any split of q rows into batches draws the same stream."""
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        return self._rng.uniform(lo, hi, size=(q, len(lo)))


class MarginalSampler:
    """Each feature drawn independently from its empirical marginal."""

    def __init__(self, features: np.ndarray, seed: int = 0):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError("features must be a non-empty 2-D array")
        self.features = features
        self._rng = np.random.default_rng(seed)

    def sample_batch(self, q: int) -> np.ndarray:
        """(q, d) draws; any split of q rows into batches draws the same stream."""
        n_rows, n_cols = self.features.shape
        rows = self._rng.integers(0, n_rows, size=(q, n_cols))
        return self.features[rows, np.arange(n_cols)]


class TrueDistributionSampler:
    """Held-out points from the data distribution, without replacement."""

    def __init__(self, pool: np.ndarray, seed: int = 0):
        pool = np.asarray(pool, dtype=np.float64)
        if pool.ndim != 2 or pool.shape[0] == 0:
            raise ValueError("pool must be a non-empty 2-D array")
        self.pool = pool
        self._order = np.random.default_rng(seed).permutation(pool.shape[0])
        self._cursor = 0

    @property
    def remaining(self) -> int:
        return self.pool.shape[0] - self._cursor

    def sample_batch(self, q: int) -> np.ndarray:
        """The next q points of the permutation; raises SamplerExhaustedError,
        drawing nothing, when fewer than q remain."""
        if q < 0:
            raise ValueError("q must be >= 0")
        if q > self.remaining:
            raise SamplerExhaustedError(
                f"sampler pool of {self.pool.shape[0]} points is exhausted"
            )
        rows = self.pool[self._order[self._cursor:self._cursor + q]]
        self._cursor += q
        return rows


def baseline_attack(expl: InfluenceExplainer, sampler, n_queries: int, k: int) -> list[float]:
    """Recovered-fraction curve of blind (non-adaptive) querying.

    Issues ``n_queries`` sampler-drawn queries against the top-k reveal
    interface and returns, per query, the fraction of the training set
    revealed so far (non-decreasing, length ``n_queries``). No query depends
    on an earlier answer, so they are drawn and answered in row blocks.
    """
    if n_queries < 0:
        raise ValueError("n_queries must be >= 0")
    n = expl.n_points
    _check_k(k, n)  # even when no query reads a row
    first = np.full(n, n_queries)  # index of the first query revealing each point
    for rows in _row_blocks(n_queries, n):
        top = expl.top_k_rows(sampler.sample_batch(rows.stop - rows.start), k)
        np.minimum.at(first, top.ravel(), np.arange(rows.start, rows.stop).repeat(k))
    return (np.bincount(first, minlength=n_queries + 1)[:n_queries].cumsum() / n).tolist()
