"""Oracle-driven training-set reconstruction and its baselines."""
from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import null_space

from explainleak import (
    InfluenceOracle,
    LogisticModel,
    MarginalSampler,
    SamplerExhaustedError,
    TrainConfig,
    TrueDistributionSampler,
    UniformSampler,
    algorithm1_reconstruct,
    baseline_attack,
    build_loo_cache,
    reconstruction_query_budget,
    topk_explain,
)
from explainleak import models as models_module
from explainleak.reconstruct import OracleAnswer, _orthogonal_complement
from conftest import (
    clear_gaps,
    loo_caches,
    reference_top_k,
    same_direction_fixture,
    tangent_fixture,
    two_blob_dataset,
)

FULL_BATCH = TrainConfig(optimizer="gd", lr=1.0, epochs=100, batch_size=None)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def theorem_regime(seed: int = 7, n_points: int = 20, n_features: int = 50):
    """Well-separated random logistic family where full recovery is expected."""
    rng = np.random.default_rng(seed)
    base_w = rng.normal(size=n_features)
    base_b = 0.3
    loo_w = base_w + rng.normal(scale=0.05, size=(n_points, n_features))
    loo_b = base_b + rng.normal(scale=0.05, size=n_points)
    return LogisticModel(base_w, base_b), loo_w, loo_b


class TestOracle:
    def test_answer_hand_computed(self):
        base = LogisticModel(w=np.array([1.0, 0.0]), b=0.0)
        oracle = InfluenceOracle(base, np.array([[1.0, 2.0], [1.0, -0.5]]), np.array([0.0, 0.2]))
        y = np.array([0.4, 0.8])
        f = sigmoid(0.4)  # >= 0.5, so influence is f_loo - f
        expected = np.array(
            [sigmoid(0.4 + 1.6) - f, sigmoid(0.4 - 0.4 - 0.2) - f]
        )
        answer = oracle.query(y)
        assert answer.index == int(np.argmax(np.abs(expected)))
        assert answer.influence == pytest.approx(expected[answer.index], abs=1e-12)
        assert answer.prediction == pytest.approx(f, abs=1e-12)

    def test_negative_side_flips_sign(self):
        base = LogisticModel(w=np.array([1.0]), b=0.0)
        oracle = InfluenceOracle(base, np.array([[2.0]]), np.array([0.0]))
        y = np.array([-1.0])
        f, f_loo = sigmoid(-1.0), sigmoid(-2.0)
        assert f < 0.5
        assert oracle.query(y).influence == pytest.approx(f - f_loo, abs=1e-12)

    def test_tie_goes_to_lowest_index(self):
        base = LogisticModel(w=np.array([0.5]), b=0.0)
        oracle = InfluenceOracle(base, np.array([[1.5], [1.5]]), np.array([0.3, 0.3]))
        assert oracle.query(np.array([2.0])).index == 0

    def test_query_count_increments(self):
        oracle = InfluenceOracle(*theorem_regime(n_points=3, n_features=4))
        assert oracle.query_count == 0
        oracle.query(np.zeros(4))
        oracle.query(np.ones(4))
        assert oracle.query_count == 2

    def test_explainer_is_the_oracle(self):
        # The campaign queries its LOO cache directly: no second stack of the models.
        ds = two_blob_dataset(n=10, n_features=2, seed=80)
        expl = build_loo_cache(ds, FULL_BATCH)
        assert isinstance(expl, InfluenceOracle)
        y = np.array([0.3, -0.6])
        answer = expl.query(y)
        reveal = topk_explain(expl, y, None, 1)
        assert answer.index == reveal.indices[0]
        assert answer.influence == pytest.approx(reveal.influences[0], abs=1e-12)
        assert expl.query_count == 1
        result = algorithm1_reconstruct(expl, y0=np.zeros(2), seed=0)
        assert result.queries_total == expl.query_count - 1

    def test_answers_equal_topk_explain(self):
        ds = two_blob_dataset(n=30, n_features=3, seed=81)
        expl = build_loo_cache(ds, FULL_BATCH)
        oracle = InfluenceOracle(expl.base, expl.loo_w, expl.loo_b)
        for y in np.random.default_rng(82).normal(scale=2.0, size=(50, 3)):
            answer = oracle.query(y)
            reveal = topk_explain(expl, y, None, 1)
            assert answer.index == reveal.indices[0]
            assert answer.influence == reveal.influences[0]
            assert answer.prediction == expl.base.positive_prob(y)

    def test_answers_equal_the_two_prediction_formulation(self):
        """`query` predicts at y once; its answers are those of a top-1 `topk_explain`,
        whose label is the one predicted again at y, on the decision boundary (f = 0.5
        exactly) too."""
        rng = np.random.default_rng(84)
        base = LogisticModel(w=np.array([1.0, -1.0, 0.5]), b=0.25)
        oracle = InfluenceOracle(base, rng.normal(size=(40, 3)), rng.normal(size=40))
        on_boundary = np.array([0.7, 0.7, 0.5])
        assert base.positive_prob(on_boundary) == 0.5
        for y in [on_boundary, *rng.normal(scale=2.0, size=(50, 3))]:
            f = base.positive_prob(y)
            reveal = topk_explain(oracle, y, None, 1)
            assert reveal.label == (1 if f >= 0.5 else 0)
            (idx,), (influence,) = reveal.indices, reveal.influences
            assert oracle.query(y) == OracleAnswer(f, int(idx), float(influence))

    def test_nan_query_raises(self):
        oracle = InfluenceOracle(*theorem_regime(n_points=4, n_features=2))
        with pytest.raises(ValueError, match="NaN"):
            oracle.query(np.array([np.nan, 0.8]))

    def test_answers_are_frozen(self):
        answer = OracleAnswer(prediction=0.5, index=0, influence=0.1)
        with pytest.raises(AttributeError):
            answer.influence = 0.2


class TestQueryBudget:
    def test_frozen_values(self):
        assert reconstruction_query_budget(50, 20) == 830
        assert reconstruction_query_budget(3, 1) == 4
        assert reconstruction_query_budget(3, 2) == 7
        assert reconstruction_query_budget(5, 0) == 0

    def test_matches_sum_formula(self):
        for n in (2, 7, 31):
            for rounds in range(0, n):
                assert reconstruction_query_budget(n, rounds) == sum(
                    n - i + 1 for i in range(rounds)
                )


class TestTangentFixture:
    def test_tangent_argmax_is_matching_point(self):
        # Tangent value of point i at query t is 2it - i^2 = t^2 - (t - i)^2,
        # strictly maximized at i = t for every query in 1..m.
        base, loo_w, loo_b, queries = tangent_fixture(6)
        assert np.all(base.w == 0.0) and base.b == 0.0
        for k, y in enumerate(queries, start=1):
            tangents = loo_w @ y - loo_b
            assert int(np.argmax(tangents)) == k - 1
            others = np.delete(tangents, k - 1)
            assert np.all(tangents[k - 1] > others)

    def test_m3_query2_strict_maximum(self):
        _, loo_w, loo_b, queries = tangent_fixture(3)
        tangents = loo_w @ queries[1] - loo_b
        np.testing.assert_allclose(tangents, [3.0, 4.0, 3.0])
        assert tangents[1] > tangents[0] and tangents[1] > tangents[2]

    def test_models_are_parabola_tangents(self):
        _, loo_w, loo_b, _ = tangent_fixture(4)
        k = np.arange(1, 5)
        np.testing.assert_array_equal(loo_w, 2.0 * k[:, None])
        np.testing.assert_array_equal(loo_b, k * k)

    def test_m_validated(self):
        with pytest.raises(ValueError):
            tangent_fixture(0)


class TestSameDirectionFixture:
    def test_grid_search_only_ever_reveals_extreme_point(self):
        oracle = InfluenceOracle(*same_direction_fixture(
            np.array([1.0, -2.0]), 0.5, np.array([0.3, 0.7, 1.1])
        ))
        rng = np.random.default_rng(81)
        for _ in range(100):
            y = rng.normal(scale=2.0, size=2)
            assert oracle.query(y).index == 2

    def test_algorithm_detects_dependence_and_stops(self):
        oracle = InfluenceOracle(*same_direction_fixture(
            np.array([1.0, -2.0]), 0.5, np.array([0.3, 0.7, 1.1])
        ))
        result = algorithm1_reconstruct(oracle, y0=np.zeros(2), seed=1)
        assert result.reason == "linear_dependence"
        assert result.recovered == [2]
        assert not result.oracle_inconsistent
        # The revealed point still counts, and its step was recorded.
        assert len(result.steps) == 1 and result.steps[0].index == 2

    def test_distinct_deltas_required(self):
        with pytest.raises(ValueError):
            same_direction_fixture(np.ones(2), 0.0, np.array([0.5, 0.5]))


class TestAlgorithmSmallCases:
    def test_two_point_one_dimension_recovers_both(self):
        oracle = InfluenceOracle(LogisticModel(np.array([0.5]), 0.0),
                                 np.array([[0.8], [0.1]]), np.array([0.1, -0.2]))
        result = algorithm1_reconstruct(oracle, y0=np.zeros(1), seed=2)
        assert result.reason == "dimension_exhausted"
        assert sorted(result.recovered) == [0, 1]
        assert result.termination_queries >= 1

    def test_max_points_one_stops_after_first_cluster(self):
        result = algorithm1_reconstruct(
            InfluenceOracle(*theorem_regime(n_points=5, n_features=8)), y0=np.zeros(8),
            max_points=1, seed=0,
        )
        assert result.reason == "max_points"
        assert len(result.recovered) == 1
        # One anchor plus one probe per dimension, no retries needed.
        assert result.queries_total == 9
        assert result.retries == 0

    def test_y0_shape_validated(self):
        oracle = InfluenceOracle(*theorem_regime(n_points=2, n_features=4))
        with pytest.raises(ValueError):
            algorithm1_reconstruct(oracle, y0=np.zeros(3))

    def test_first_cluster_uses_default_epsilon(self):
        result = algorithm1_reconstruct(
            InfluenceOracle(*theorem_regime(n_points=3, n_features=4)), y0=np.zeros(4),
            max_points=1, seed=0,
        )
        np.testing.assert_array_equal(result.steps[0].eps, np.full(4, 1e-4))


class TestOrthogonalComplement:
    """The numpy null space of one row against scipy's `null_space`, which it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        row=arrays(np.float64, st.integers(1, 40), elements=st.floats(-1e3, 1e3)).filter(
            lambda r: r.any()
        ),
        extra_rows=st.integers(0, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_products_bit_equal_to_null_space(self, row, extra_rows, seed):
        # Equal columns are not enough: a column-major result sends the product
        # down another BLAS path, which rounds differently. The basis is shaped
        # like algorithm1's, n x r with n >= r.
        basis = np.random.default_rng(seed).normal(size=(row.size + extra_rows, row.size))
        complement = _orthogonal_complement(row)
        assert complement.flags.c_contiguous
        np.testing.assert_array_equal(basis @ complement, basis @ null_space(row[None]))


@pytest.fixture(scope="module")
def run():
    oracle = InfluenceOracle(*theorem_regime())
    result = algorithm1_reconstruct(oracle, y0=np.zeros(50), seed=0)
    return oracle, result


class TestTheoremRegime:
    def test_full_recovery(self, run):
        oracle, result = run
        assert sorted(result.recovered) == list(range(oracle.n_points))
        assert result.reason == "influence_exhausted"

    def test_query_budget_met_without_retries(self, run):
        oracle, result = run
        assert result.retries == 0
        assert result.queries_revealing <= reconstruction_query_budget(50, 20)
        assert result.queries_total == oracle.query_count

    def test_base_model_recovered(self, run):
        oracle, result = run
        assert np.max(np.abs(result.base_w - oracle.base.w)) < 1e-6
        assert abs(result.base_b - oracle.base.b) < 1e-6

    def test_first_cluster_fit_matches_leave_one_out_model(self, run):
        oracle, result = run
        first = result.steps[0]
        assert not first.rank_deficient
        assert np.max(np.abs(first.w_fit - oracle.loo_w[first.index])) < 1e-4
        assert abs(first.b_fit - oracle.loo_b[first.index]) < 1e-4

    def test_later_clusters_flagged_rank_deficient(self, run):
        _, result = run
        flags = [s.rank_deficient for s in result.steps]
        assert flags[0] is False
        assert all(flags[1:])
        assert [s.index for s in result.steps] == result.recovered[: len(result.steps)]

    def test_anchors_respect_all_prior_constraints(self, run):
        _, result = run
        constraints = [step.constraint for step in result.steps]
        assert None not in constraints  # the influence ran out, so every round sliced
        for pos, step in enumerate(result.steps):
            for normal, rhs in constraints[:pos]:
                assert abs(normal @ step.anchor - rhs) < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 20), d=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
    def test_recovers_min_n_d_points_within_budget(self, n, d, seed):
        # Not min(n, d + 1): with n > d the last look, at the pinned-down
        # anchor, can reveal a point that is already recovered.
        result = algorithm1_reconstruct(InfluenceOracle(*theorem_regime(seed, n, d)),
                                        y0=np.zeros(d), seed=seed)
        rounds = min(n, d)
        assert len(result.recovered) >= rounds
        assert result.queries_revealing - result.retries <= reconstruction_query_budget(d, rounds)

    def test_sliced_points_lose_influence_at_later_anchors(self, run):
        oracle, result = run
        for pos, step in enumerate(result.steps[:-1]):
            dw = oracle.loo_w[step.index] - oracle.base.w
            db = oracle.loo_b[step.index] - oracle.base.b
            for later in result.steps[pos + 1 :]:
                assert abs(dw @ later.anchor - db) < 1e-6

    def test_max_points_run_spends_exactly_the_budget(self):
        result = algorithm1_reconstruct(
            InfluenceOracle(*theorem_regime()), y0=np.zeros(50), max_points=20, seed=0
        )
        assert result.reason == "max_points"
        assert result.queries_total == 830
        assert result.termination_queries == 0


class _AlwaysPointZeroOracle(InfluenceOracle):
    """Lies: every query blames point 0 with influence 0.3 f (1 - f)."""

    def query(self, y: np.ndarray) -> OracleAnswer:
        self.query_count += 1
        f = self.base.positive_prob(np.asarray(y, dtype=np.float64))
        return OracleAnswer(prediction=float(f), index=0,
                            influence=float(0.3 * f * (1.0 - f)))


class _FickleOracle(InfluenceOracle):
    """Blames point 0 on the first call, point 1 on every later one, so no
    probe can ever agree with its anchor."""

    def query(self, y: np.ndarray) -> OracleAnswer:
        self.query_count += 1
        f = self.base.positive_prob(np.asarray(y, dtype=np.float64))
        return OracleAnswer(prediction=float(f),
                            index=0 if self.query_count == 1 else 1,
                            influence=0.4)


class TestDegenerateOracles:
    def test_repeat_reveal_stops_cleanly(self):
        base = LogisticModel(w=np.array([0.2, 0.1]), b=0.0)
        oracle = _AlwaysPointZeroOracle(base, np.zeros((2, 2)), np.zeros(2))
        result = algorithm1_reconstruct(oracle, y0=np.zeros(2), seed=3)
        assert result.reason == "repeat_reveal"
        assert result.recovered == [0]
        assert not result.oracle_inconsistent

    def test_inconsistent_probes_abort(self):
        base = LogisticModel(w=np.array([0.3, -0.2]), b=0.1)
        oracle = _FickleOracle(base, np.zeros((2, 2)), np.zeros(2))
        result = algorithm1_reconstruct(oracle, y0=np.zeros(2), seed=4)
        assert result.reason == "oracle_inconsistent"
        assert result.oracle_inconsistent
        assert result.recovered == []
        assert result.retries > 0


class TestSamplers:
    def test_uniform_respects_bounds_and_seed(self):
        bounds = np.array([[0.0, 1.0], [-2.0, -1.0], [5.0, 5.0]])
        a = UniformSampler(bounds, seed=5)
        b = UniformSampler(bounds, seed=5)
        for _ in range(50):
            sample = a.sample_batch(1)[0]
            assert np.all(sample >= bounds[:, 0]) and np.all(sample <= bounds[:, 1])
            np.testing.assert_array_equal(sample, b.sample_batch(1)[0])
        assert a.sample_batch(1)[0][2] == 5.0

    def test_uniform_validates_bounds(self):
        with pytest.raises(ValueError):
            UniformSampler(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            UniformSampler(np.zeros(3))

    def test_marginal_draws_observed_values_per_feature(self):
        features = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        sampler = MarginalSampler(features, seed=6)
        for _ in range(40):
            sample = sampler.sample_batch(1)[0]
            assert sample[0] in {1.0, 2.0, 3.0}
            assert sample[1] in {10.0, 20.0, 30.0}

    def test_marginal_mixes_rows(self):
        features = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        sampler = MarginalSampler(features, seed=7)
        rows = {tuple(sampler.sample_batch(1)[0]) for _ in range(60)}
        originals = {tuple(row) for row in features}
        assert not rows <= originals

    def test_true_distribution_is_permutation_without_replacement(self):
        pool = np.arange(10.0)[:, None]
        sampler = TrueDistributionSampler(pool, seed=8)
        drawn = [float(sampler.sample_batch(1)[0][0]) for _ in range(10)]
        assert sorted(drawn) == list(range(10))
        assert drawn != [float(i) for i in range(10)]
        assert sampler.remaining == 0
        with pytest.raises(SamplerExhaustedError):
            sampler.sample_batch(1)

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["uniform", "marginal", "true_distribution"]),
           d=st.integers(1, 9), n_rows=st.sampled_from([1, 2, 3, 7, 64, 1000]),
           splits=st.lists(st.integers(0, 9), max_size=6), seed=st.integers(0, 2**32 - 1))
    @example(kind="marginal", d=31, n_rows=200, splits=[3, 1, 4], seed=0)
    @example(kind="marginal", d=33, n_rows=7, splits=[1, 2], seed=1)
    def test_any_batch_split_is_the_single_draw_stream(self, kind, d, n_rows, splits, seed):
        rng = np.random.default_rng(seed)
        q = sum(splits)
        data = rng.normal(size=(max(n_rows, q) if kind == "true_distribution" else n_rows, d))
        bounds = np.stack([data.min(axis=0), data.max(axis=0) + 1.0], axis=1)

        def make():
            if kind == "uniform":
                return UniformSampler(bounds, seed=seed)
            if kind == "marginal":
                return MarginalSampler(data, seed=seed)
            return TrueDistributionSampler(data, seed=seed)

        batched, single = make(), make()
        got = np.concatenate([batched.sample_batch(c) for c in splits] + [np.empty((0, d))])
        want = np.array([single.sample_batch(1)[0] for _ in range(q)]).reshape(q, d)
        np.testing.assert_array_equal(got, want)
        # The draws the per-query samplers made before batching.
        legacy = np.random.default_rng(seed)
        if kind == "uniform":
            draws = [legacy.uniform(bounds[:, 0], bounds[:, 1]) for _ in range(q)]
        elif kind == "marginal":
            draws = [data[legacy.integers(0, n_rows, size=d), np.arange(d)] for _ in range(q)]
        else:
            draws = list(data[legacy.permutation(len(data))[:q]])
        np.testing.assert_array_equal(got, np.array(draws).reshape(q, d))

    def test_true_distribution_batch_past_the_pool_draws_nothing(self):
        sampler = TrueDistributionSampler(np.arange(10.0)[:, None], seed=8)
        first = sampler.sample_batch(4)
        with pytest.raises(SamplerExhaustedError):
            sampler.sample_batch(sampler.remaining + 1)
        assert sampler.remaining == 6
        with pytest.raises(ValueError):
            sampler.sample_batch(-1)
        assert sampler.remaining == 6
        rest = sampler.sample_batch(6)
        assert sorted(np.concatenate([first, rest])[:, 0]) == list(range(10))


@pytest.fixture(scope="module")
def explainer():
    ds = two_blob_dataset(n=16, n_features=2, seed=82)
    return build_loo_cache(ds, FULL_BATCH)


class TestBaselineAttack:
    def test_curve_matches_manual_replay(self, explainer):
        bounds = np.stack(
            [
                explainer.dataset.features.min(axis=0),
                explainer.dataset.features.max(axis=0),
            ],
            axis=1,
        )
        curve = baseline_attack(explainer, UniformSampler(bounds, seed=9), 25, 2)
        replay_sampler = UniformSampler(bounds, seed=9)
        seen: set[int] = set()
        expected = []
        for _ in range(25):
            reveal = topk_explain(explainer, replay_sampler.sample_batch(1)[0], None, 2)
            seen.update(int(i) for i in reveal.indices)
            expected.append(len(seen) / explainer.n_points)
        assert curve == expected

    def test_curve_is_nondecreasing_fraction(self, explainer):
        sampler = MarginalSampler(explainer.dataset.features, seed=10)
        curve = baseline_attack(explainer, sampler, 30, 1)
        assert len(curve) == 30
        assert all(0.0 <= v <= 1.0 for v in curve)
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_zero_queries_empty_curve(self, explainer):
        sampler = MarginalSampler(explainer.dataset.features, seed=11)
        assert baseline_attack(explainer, sampler, 0, 2) == []

    @pytest.mark.parametrize("k", [0, -1, 99])
    def test_k_checked_with_zero_queries(self, explainer, k):
        # Zero queries read no row, and k = 99 once returned [] on a 12-point cache.
        sampler = MarginalSampler(explainer.dataset.features, seed=11)
        with pytest.raises(ValueError, match=r"^k must lie in \[1, n_points\]$"):
            baseline_attack(explainer, sampler, 0, k)

    def test_negative_queries_rejected(self, explainer):
        sampler = MarginalSampler(explainer.dataset.features, seed=12)
        with pytest.raises(ValueError):
            baseline_attack(explainer, sampler, -1, 2)

    def test_exhausted_pool_propagates(self, explainer):
        sampler = TrueDistributionSampler(np.zeros((3, 2)), seed=13)
        with pytest.raises(SamplerExhaustedError):
            baseline_attack(explainer, sampler, 4, 2)

    @settings(max_examples=40, deadline=None)
    @given(expl=loo_caches(), kind=st.sampled_from(["uniform", "marginal", "true_distribution"]),
           n_queries=st.integers(0, 60), block_rows=st.integers(1, 7),
           seed=st.integers(0, 2**16), data=st.data())
    def test_curve_matches_per_query_loop(self, expl, kind, n_queries, block_rows, seed, data):
        n, features = expl.n_points, expl.dataset.features
        k = data.draw(st.integers(1, n), label="k")
        far = data.draw(st.sampled_from([1.0, 1e4]), label="far")  # saturated queries

        def make():
            if kind == "uniform":
                lo, hi = features.min(axis=0), features.max(axis=0)
                return UniformSampler(np.stack([lo, hi], axis=1) * far, seed=seed)
            pool = np.random.default_rng(seed).normal(size=(n_queries + 3, features.shape[1]))
            if kind == "marginal":
                return MarginalSampler(features * far, seed=seed)
            return TrueDistributionSampler(pool * far, seed=seed)

        with mock.patch.object(models_module, "_BLOCK_FLOATS", block_rows * n):
            curve = baseline_attack(expl, make(), n_queries, k)
            replay = make()
            Y = np.array([replay.sample_batch(1)[0] for _ in range(n_queries)])
            Y = Y.reshape(n_queries, features.shape[1])
            block = expl.top_k_rows(Y, k)
        # The per-query loop that blocking replaced, except that a query whose
        # k-th and (k+1)-th |I| are within rounding takes the block's answer.
        seen: set[int] = set()
        expected = []
        for y, row in zip(Y, block):
            clear = clear_gaps(expl, y)[k - 1]
            seen.update((reference_top_k(expl, y, k) if clear else row).tolist())
            expected.append(len(seen) / n)
        assert curve == expected
