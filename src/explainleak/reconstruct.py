"""Training-set reconstruction from an influence-revealing oracle.

The oracle answers a query point with the model's prediction, the single
most influential training point (by absolute influence), and that point's
influence value. Against a logistic model whose leave-one-out retrainings
are also logistic, each answer pins down an affine restriction of the
revealed point's leave-one-out model; constraining every further query to
the subspace where that point's influence vanishes forces the oracle to
reveal a different point next time. Repeating the slice recovers one new
training point per round until influence, novelty, or dimensions run out.

Also provides the random-query baselines (uniform / marginal / true
distribution samplers) used to contextualise the reconstruction attack.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .influence import InfluenceExplainer, LooInfluence
from .influence import topk_explain  # noqa: F401  (leakbench's tracer patches it)
from .models import _BLOCK_FLOATS, LogisticModel

_PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class OracleAnswer:
    """One oracle response: prediction at y, top influencer, its influence."""

    prediction: float
    index: int
    influence: float


class InfluenceOracle(LooInfluence):
    """Top-1 influence oracle over a base model and its leave-one-out twins.

    Influence of training point x on query y is the change in the likelihood
    that the model assigns to the wrong class at y when x is dropped from
    training, signed, with the label taken to be the base model's prediction
    at y. Ties in absolute influence go to the lowest training index and a
    NaN influence raises ValueError. Every call increments ``query_count``.
    """

    def __init__(self, base: LogisticModel, loo_models: list[LogisticModel]):
        super().__init__(base, loo_models)
        self.query_count = 0

    @classmethod
    def from_explainer(cls, expl: InfluenceExplainer) -> "InfluenceOracle":
        return cls(expl.base, expl.loo_models)

    @property
    def n_features(self) -> int:
        return self.base.w.shape[0]

    def query(self, y: np.ndarray) -> OracleAnswer:
        y = np.asarray(y, dtype=np.float64)
        self.query_count += 1
        f = self.base.positive_prob(y)
        (idx,), (influence,) = self.top_k(y, 1 if f >= 0.5 else 0, 1)
        return OracleAnswer(prediction=float(f), index=int(idx), influence=float(influence))


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
    """One completed probe cluster: everything needed to audit the slice.

    ``dc``/``c_anchor`` are the revealed point's leave-one-out logit
    restricted to the round's subspace (slope in basis coordinates and value
    at the anchor); ``w_fit``/``b_fit`` are the full-space least-squares
    solve from the same cluster, which is the minimum-norm pseudo-solution
    (and flagged ``rank_deficient``) once earlier constraints have removed
    directions the cluster can no longer measure.
    """

    iteration: int
    index: int
    anchor: np.ndarray
    basis: np.ndarray
    eps: np.ndarray
    dc: np.ndarray
    c_anchor: float
    da: np.ndarray
    a_anchor: float
    queries: int
    w_fit: np.ndarray | None = None
    b_fit: float | None = None
    rank_deficient: bool = False


@dataclass
class ReconstructionResult:
    recovered: list[int]
    reason: str
    oracle_inconsistent: bool
    base_w: np.ndarray | None
    base_b: float | None
    steps: list[ReconstructionStep] = field(default_factory=list)
    constraints: list[tuple[np.ndarray, float]] = field(default_factory=list)
    queries_revealing: int = 0
    termination_queries: int = 0
    retries: int = 0

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
    eps0: float | None = None,
    eps_min: float = 1e-8,
    zero_tol: float = 1e-8,
    dependence_tol: float = 1e-8,
    logit_cap: float = 4.0,
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
    subspace, rejecting those whose base logit exceeds ``logit_cap`` to keep
    the finite differences well conditioned.

    Termination reasons: ``influence_exhausted`` (anchor influence within
    ``zero_tol`` of zero), ``repeat_reveal`` (anchor reveals a point already
    recovered), ``linear_dependence`` (the revealed point's restriction
    matches the base model's, so no slice exists; the point still counts),
    ``dimension_exhausted`` (subspace is a single point; one final anchor
    query is spent there and recorded if it reveals something new),
    ``max_points``, and ``oracle_inconsistent`` (probes keep revealing a
    different point than their anchor even at step ``eps_min``).
    """
    n = oracle.n_features
    if y0 is None:
        y0 = np.zeros(n, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64).copy()
    if y0.shape != (n,):
        raise ValueError(f"y0 must have shape ({n},), got {y0.shape}")
    if eps0 is None:
        eps0 = 1e-4 * max(1.0, float(np.abs(y0).max()))
    rng = np.random.default_rng(seed)

    basis = np.eye(n)
    anchor_base = y0
    w_hat: np.ndarray | None = None
    b_hat: float | None = None
    recovered: list[int] = []
    steps: list[ReconstructionStep] = []
    constraints: list[tuple[np.ndarray, float]] = []
    queries_revealing = 0
    termination_queries = 0
    total_retries = 0
    iteration = -1

    while True:
        iteration += 1
        d = basis.shape[1]

        if d == 0:
            # Nothing left to slice; one last look at the pinned-down anchor.
            answer = oracle.query(anchor_base)
            termination_queries += 1
            if answer.index not in recovered and abs(answer.influence) > zero_tol:
                recovered.append(answer.index)
            reason = "dimension_exhausted"
            break

        anchor = _draw_anchor(anchor_base, basis, w_hat, b_hat, logit_cap, rng)
        answer = oracle.query(anchor)
        cluster_queries = 1

        if abs(answer.influence) <= zero_tol:
            termination_queries += cluster_queries
            reason = "influence_exhausted"
            break
        if answer.index in recovered:
            termination_queries += cluster_queries
            reason = "repeat_reveal"
            break

        probes, eps, retries, probe_queries = _probe_cluster(
            oracle, anchor, basis, answer.index, eps0, eps_min
        )
        cluster_queries += probe_queries
        total_retries += retries
        if probes is None:
            termination_queries += cluster_queries
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

        da = basis.T @ w_hat
        dc = (c_probe - c_anchor) / eps

        # Full-space least squares for the revealed point's (w_x, b_x); the
        # cluster only spans the remaining subspace, so rank falls short of
        # n + 1 once constraints exist and the min-norm solution is flagged.
        cluster_points = np.vstack([anchor[None, :], anchor + basis.T * eps[:, None]])
        design = np.hstack([cluster_points, -np.ones((cluster_points.shape[0], 1))])
        targets = np.concatenate([[c_anchor], c_probe])
        solution, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
        w_fit, b_fit = solution[:-1], float(solution[-1])
        rank_deficient = rank < n + 1

        recovered.append(answer.index)
        queries_revealing += cluster_queries
        steps.append(
            ReconstructionStep(
                iteration=iteration,
                index=answer.index,
                anchor=anchor,
                basis=basis.copy(),
                eps=eps.copy(),
                dc=dc,
                c_anchor=c_anchor,
                da=da,
                a_anchor=float(w_hat @ anchor - b_hat),
                queries=cluster_queries,
                w_fit=w_fit,
                b_fit=b_fit,
                rank_deficient=bool(rank_deficient),
            )
        )

        if max_points is not None and len(recovered) >= max_points:
            reason = "max_points"
            break

        d_slope = da - dc
        d_value = (w_hat @ anchor - b_hat) - c_anchor
        scale = max(1.0, float(np.linalg.norm(da)), float(np.linalg.norm(dc)))
        if np.linalg.norm(d_slope) <= dependence_tol * scale:
            # Influence difference is flat on this subspace: no hyperplane to
            # slice along, the revealed point dominates everywhere here.
            reason = "linear_dependence"
            break

        # Move the anchor onto the revealed point's zero-influence hyperplane
        # and drop that direction from the basis.
        normal = basis @ d_slope
        constraints.append((normal, float(normal @ anchor - d_value)))
        g_particular = -d_value * d_slope / float(d_slope @ d_slope)
        anchor_base = anchor + basis @ g_particular
        basis = basis @ _orthogonal_complement(d_slope)

    return ReconstructionResult(
        recovered=recovered,
        reason=reason,
        oracle_inconsistent=(reason == "oracle_inconsistent"),
        base_w=w_hat,
        base_b=b_hat,
        steps=steps,
        constraints=constraints,
        queries_revealing=queries_revealing,
        termination_queries=termination_queries,
        retries=total_retries,
    )


def _orthogonal_complement(row: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the vectors orthogonal to a non-zero row,
    row-major: a column-major copy sends ``basis @ Q`` down another BLAS path."""
    return np.ascontiguousarray(np.linalg.svd(row[None, :])[2][1:].T)


def _draw_anchor(
    anchor_base: np.ndarray,
    basis: np.ndarray,
    w_hat: np.ndarray | None,
    b_hat: float | None,
    logit_cap: float,
    rng: np.random.Generator,
    max_tries: int = 1000,
) -> np.ndarray:
    """Random point of the current subspace with a non-saturated base logit."""
    if w_hat is None:
        return anchor_base.copy()
    da = basis.T @ w_hat
    for _ in range(max_tries):
        g = rng.standard_normal(basis.shape[1])
        y = anchor_base + basis @ g
        if abs(w_hat @ y - b_hat) <= logit_cap:
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
    eps_min: float,
) -> tuple[list[OracleAnswer] | None, np.ndarray, int, int]:
    """One probe per basis direction, all revealing the anchor's point.

    A probe that reveals a different point stepped too far outside the
    anchor point's dominance region; its step is halved and retried. Returns
    (answers, eps actually used, retry count, queries spent); answers is
    None if some direction stays inconsistent all the way down to eps_min.
    """
    d = basis.shape[1]
    eps = np.full(d, eps0, dtype=np.float64)
    answers: list[OracleAnswer | None] = [None] * d
    pending = list(range(d))
    retries = 0
    queries = 0
    while pending:
        failed = []
        for j in pending:
            answer = oracle.query(anchor + eps[j] * basis[:, j])
            queries += 1
            if answer.index == expect_index:
                answers[j] = answer
            else:
                failed.append(j)
        if not failed:
            break
        retries += len(failed)
        eps[failed] *= 0.5
        if eps[failed].min() < eps_min:
            return None, eps, retries, queries
        pending = failed
    return answers, eps, retries, queries  # type: ignore[return-value]


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

    def sample(self) -> np.ndarray:
        return self.sample_batch(1)[0]

    def sample_batch(self, q: int) -> np.ndarray:
        """(q, d) draws: the same stream as q calls to `sample`."""
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

    def sample(self) -> np.ndarray:
        return self.sample_batch(1)[0]

    def sample_batch(self, q: int) -> np.ndarray:
        """(q, d) draws: the same stream as q calls to `sample`."""
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

    def sample(self) -> np.ndarray:
        return self.sample_batch(1)[0]

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


def baseline_attack(
    expl: InfluenceExplainer,
    sampler,
    n_queries: int,
    k: int | None = None,
) -> list[float]:
    """Recovered-fraction curve of blind (non-adaptive) querying.

    Issues ``n_queries`` sampler-drawn queries against the top-k reveal
    interface and returns, per query, the fraction of the training set
    revealed so far (non-decreasing, length ``n_queries``). No query depends
    on an earlier answer, so they are drawn and answered in row blocks.
    """
    if n_queries < 0:
        raise ValueError("n_queries must be >= 0")
    k = expl.k if k is None else k
    n = expl.n_points
    first = np.full(n, n_queries)  # index of the first query revealing each point
    step = max(1, _BLOCK_FLOATS // n)
    for start in range(0, n_queries, step):
        top = expl.top_k_rows(sampler.sample_batch(min(step, n_queries - start)), k)
        np.minimum.at(first, top.ravel(), np.arange(start, start + len(top)).repeat(k))
    return (np.bincount(first, minlength=n_queries + 1)[:n_queries].cumsum() / n).tolist()
