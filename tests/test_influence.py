"""Leave-one-out influence explanations against hand-derived values."""
from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from explainleak import (
    Dataset,
    InfluenceExplainer,
    LogisticModel,
    TrainConfig,
    TrainingDivergedError,
    build_influence_graph,
    build_loo_cache,
    group_reveal_rates,
    self_reveal_rate,
    self_reveals,
    topk_explain,
    train_logistic,
)
from conftest import assert_same_reveals, loo_caches, reference_top_k, two_blob_dataset
from explainleak import influence as influence_module
from explainleak import models as models_module
from explainleak.models import train_logistic_loo

FULL_BATCH = TrainConfig(optimizer="gd", lr=1.0, epochs=100, batch_size=None)


def fake_explainer(base, loos, features=None, labels=None, groups=None, k=1):
    """An explainer over fabricated models for exact-value tests."""
    n = len(loos)
    dim = base.w.size
    if features is None:
        features = np.zeros((n, dim))
    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
    ds = Dataset(np.asarray(features, dtype=np.float64), labels, groups=groups)
    return InfluenceExplainer(ds, base, list(loos), k, FULL_BATCH)


def sigmoid(z: float) -> float:
    return 1.0 / (1.0 + np.exp(-z))


class TestInfluenceValues:
    def test_duplicate_point_has_exactly_zero_influence(self):
        # Dropping one of two identical points leaves the mean gradient
        # unchanged, so the deterministic retraining follows the exact same
        # path and the influence is zero to the last bit.
        x = np.array([[0.7, -0.3]])
        ds = Dataset(np.vstack([x, x]), np.array([1, 1]))
        expl = build_loo_cache(ds, FULL_BATCH)
        queries = np.random.default_rng(1).normal(size=(5, 2))
        for y in queries:
            np.testing.assert_array_equal(expl.influence(y), np.zeros(2))

    def test_sign_convention_hand_computed(self):
        # Base: w=0, b = log(7/3) so f_base(0) = 0.3 (class 0 predicted).
        # Leave-one-out: w=0, b = log(9) so f_loo(0) = 0.1.
        base = LogisticModel(w=np.zeros(1), b=float(np.log(7.0 / 3.0)))
        loo = LogisticModel(w=np.zeros(1), b=float(np.log(9.0)))
        expl = fake_explainer(base, [loo])
        y = np.zeros(1)
        assert expl.predicted_label(y) == 0
        assert expl.influence(y)[0] == pytest.approx(0.3 - 0.1, abs=1e-12)
        assert expl.influence(y, label=0)[0] == pytest.approx(0.2, abs=1e-12)
        assert expl.influence(y, label=1)[0] == pytest.approx(-0.2, abs=1e-12)

    def test_single_epoch_retraining_hand_derived(self):
        # One full-batch step from zero init is computable by hand:
        # w step = lr * mean((y - 0.5) x); b step = lr * mean(0.5 - y).
        features = np.array([[2.0], [-1.0]])
        labels = np.array([1, 0])
        lr = 0.8
        cfg = TrainConfig(optimizer="gd", lr=lr, epochs=1, batch_size=None)
        expl = build_loo_cache(Dataset(features, labels), cfg)

        w_base = lr * ((0.5 * 2.0) + (-0.5 * -1.0)) / 2.0
        b_base = lr * ((0.5 - 1.0) + (0.5 - 0.0)) / 2.0
        w_loo0 = lr * (-0.5 * -1.0)  # trained on point 1 alone
        b_loo0 = lr * (0.5 - 0.0)
        w_loo1 = lr * (0.5 * 2.0)  # trained on point 0 alone
        b_loo1 = lr * (0.5 - 1.0)

        y = np.array([1.5])
        f_base = sigmoid(w_base * 1.5 - b_base)
        label = 1 if f_base >= 0.5 else 0
        expected = np.array(
            [
                f_base - sigmoid(w_loo0 * 1.5 - b_loo0),
                f_base - sigmoid(w_loo1 * 1.5 - b_loo1),
            ]
        )
        if label == 1:
            expected = -expected
        np.testing.assert_allclose(expl.influence(y), expected, atol=1e-12)

    def test_saturated_region_influence_vanishes(self):
        base = LogisticModel(w=np.array([1.0]), b=0.0)
        loos = [
            LogisticModel(w=np.array([1.2]), b=0.1),
            LogisticModel(w=np.array([0.9]), b=-0.2),
        ]
        expl = fake_explainer(base, loos)
        assert np.max(np.abs(expl.influence(np.array([50.0])))) < 1e-9


class TestTopkExplain:
    def test_full_sort_oracle(self):
        rng = np.random.default_rng(8)
        base = LogisticModel(w=rng.normal(size=3), b=0.2)
        loos = [LogisticModel(w=rng.normal(size=3), b=float(rng.normal()))
                for _ in range(9)]
        expl = fake_explainer(base, loos)
        y = rng.normal(size=3)
        influences = expl.influence(y)
        naive = sorted(range(9), key=lambda i: (-abs(influences[i]), i))
        for k in (1, 3, 9):
            result = topk_explain(expl, y, k=k)
            np.testing.assert_array_equal(result.indices, naive[:k])

    def test_exact_ties_prefer_lower_index(self):
        base = LogisticModel(w=np.array([1.0]), b=0.0)
        twin = LogisticModel(w=np.array([2.0]), b=0.5)
        other = LogisticModel(w=np.array([0.5]), b=0.0)
        # Models 0 and 1 are identical, so their influences tie exactly;
        # model 2 happens to dominate at this query, leaving the tied pair
        # in positions 1 and 2 with the lower index first.
        expl = fake_explainer(base, [twin, LogisticModel(twin.w.copy(), twin.b), other])
        result = topk_explain(expl, np.array([3.0]), k=3)
        assert abs(result.influences[1]) == abs(result.influences[2])
        assert list(result.indices) == [2, 0, 1]

    def test_influences_aligned_with_indices(self):
        rng = np.random.default_rng(9)
        base = LogisticModel(w=rng.normal(size=2), b=0.0)
        loos = [LogisticModel(w=rng.normal(size=2), b=0.1) for _ in range(5)]
        expl = fake_explainer(base, loos)
        y = np.array([0.4, -0.7])
        result = topk_explain(expl, y, k=4)
        np.testing.assert_array_equal(
            result.influences, expl.influence(y, result.label)[result.indices]
        )

    def test_label_defaults_to_predicted(self):
        base = LogisticModel(w=np.array([2.0]), b=0.0)
        expl = fake_explainer(base, [LogisticModel(np.array([1.0]), 0.0)])
        assert topk_explain(expl, np.array([1.0])).label == 1
        assert topk_explain(expl, np.array([-1.0])).label == 0

    def test_k_validated(self):
        base = LogisticModel(w=np.array([1.0]), b=0.0)
        expl = fake_explainer(base, [base, base])
        with pytest.raises(ValueError):
            topk_explain(expl, np.zeros(1), k=0)
        with pytest.raises(ValueError):
            topk_explain(expl, np.zeros(1), k=3)


class TestLooCache:
    def test_rebuild_gives_identical_models(self, blob_dataset):
        first = build_loo_cache(blob_dataset, FULL_BATCH)
        second = build_loo_cache(blob_dataset, FULL_BATCH)
        np.testing.assert_array_equal(first.base.w, second.base.w)
        for a, b in zip(first.loo_models, second.loo_models):
            np.testing.assert_array_equal(a.w, b.w)
            assert a.b == b.b

    def test_one_model_per_point(self, blob_dataset):
        expl = build_loo_cache(blob_dataset, FULL_BATCH, k=3)
        assert len(expl.loo_models) == blob_dataset.n_points
        assert expl.k == 3

    def test_failure_tagged_with_point_index(self, monkeypatch, blob_dataset):
        # The leave-one-out models come from one batched fit, so a failed
        # retraining is a non-finite row of that batch.
        real = influence_module.train_logistic_loo

        def diverged_without_point_3(ds, cfg):
            W, b = real(ds, cfg)
            W[3, 1] = np.inf
            return W, b

        monkeypatch.setattr(influence_module, "train_logistic_loo", diverged_without_point_3)
        with pytest.raises(RuntimeError, match="index 3") as failure:
            build_loo_cache(blob_dataset, FULL_BATCH)
        assert isinstance(failure.value.__cause__, TrainingDivergedError)

    def test_lowest_failed_index_named(self, monkeypatch, blob_dataset):
        real = influence_module.train_logistic_loo

        def nan_biases(ds, cfg):
            W, b = real(ds, cfg)
            b[[7, 12]] = np.nan
            return W, b

        monkeypatch.setattr(influence_module, "train_logistic_loo", nan_biases)
        with pytest.raises(RuntimeError, match="index 7:"):
            build_loo_cache(blob_dataset, FULL_BATCH)

    def test_model_count_validated(self):
        ds = Dataset(np.zeros((3, 1)), np.zeros(3, dtype=np.int64))
        base = LogisticModel(np.zeros(1), 0.0)
        with pytest.raises(ValueError):
            InfluenceExplainer(ds, base, [base], k=1, train_config=FULL_BATCH)


class TestBatchedLoo:
    """train_logistic_loo against the per-subset train_logistic fits it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 30), d=st.integers(1, 5), lr=st.floats(0.05, 2.0),
           epochs=st.integers(1, 80), block_rows=st.integers(1, 7), seed=st.integers(0, 2**16))
    @example(n=2, d=3, lr=1.0, epochs=40, block_rows=1, seed=0)
    @example(n=23, d=2, lr=0.5, epochs=60, block_rows=5, seed=1)  # last block of 3
    def test_rows_equal_per_subset_fits(self, n, d, lr, epochs, block_rows, seed):
        rng = np.random.default_rng(seed)
        ds = Dataset(rng.normal(size=(n, d)), rng.integers(0, 2, n))
        cfg = TrainConfig(optimizer="gd", lr=lr, epochs=epochs, batch_size=None)
        with mock.patch.object(models_module, "_BLOCK_FLOATS", block_rows * n):
            W, b = train_logistic_loo(ds, cfg)
        for i in range(n):
            fit = train_logistic(ds.subset(np.delete(np.arange(n), i)), cfg)
            assert np.max(np.abs(W[i] - fit.w)) <= 1e-12
            assert abs(b[i] - fit.b) <= 1e-12

    def test_cache_holds_the_batched_rows(self, blob_dataset):
        expl = build_loo_cache(blob_dataset, FULL_BATCH)
        W, b = train_logistic_loo(blob_dataset, FULL_BATCH)
        np.testing.assert_array_equal(np.stack([m.w for m in expl.loo_models]), W)
        np.testing.assert_array_equal([m.b for m in expl.loo_models], b)

    def test_rejects_multiclass_labels(self):
        with pytest.raises(ValueError, match="binary"):
            train_logistic_loo(Dataset(np.zeros((3, 1)), np.array([0, 1, 2])), FULL_BATCH)

    def test_saturated_query_raises_no_overflow_warning(self):
        # exp(-z) overflows for z below about -709; the probability is then 0.
        base = LogisticModel(w=np.array([1.0]), b=0.0)
        expl = fake_explainer(base, [LogisticModel(np.array([2.0]), 0.0)] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            influences = expl.influence(np.array([-1000.0]), label=0)
        np.testing.assert_array_equal(influences, [0.0, 0.0])


class TestRevealRates:
    def test_rate_is_one_when_k_covers_everything(self):
        ds = two_blob_dataset(n=12, n_features=2, seed=33)
        expl = build_loo_cache(ds, FULL_BATCH)
        assert self_reveal_rate(self_reveals(expl, ds.n_points)) == 1.0

    def test_outlier_reveals_itself_at_k1(self):
        # A mislabeled far point moves the decision surface near itself more
        # than any other single removal does.
        rng = np.random.default_rng(34)
        features = np.concatenate(
            [rng.normal(-1.0, 0.3, size=(10, 1)), rng.normal(1.0, 0.3, size=(10, 1)),
             [[4.0]]]
        )
        labels = np.concatenate([np.zeros(10, np.int64), np.ones(10, np.int64), [0]])
        expl = build_loo_cache(Dataset(features, labels), FULL_BATCH)
        result = topk_explain(expl, features[-1], label=0, k=1)
        assert result.indices[0] == 20

    def test_group_rates_match_per_point_reveals(self):
        ds = two_blob_dataset(n=16, n_features=2, seed=35)
        groups = ["left" if i < 8 else "right" for i in range(16)]
        grouped = Dataset(ds.features, ds.labels, groups=groups)
        expl = build_loo_cache(grouped, FULL_BATCH, k=2)
        rates = group_reveal_rates(self_reveals(expl), grouped.groups)
        expected = {"left": 0, "right": 0}
        for i in range(16):
            result = topk_explain(expl, grouped.features[i], int(grouped.labels[i]), 2)
            if i in result.indices:
                expected[groups[i]] += 1
        assert rates == {
            "left": expected["left"] / 8,
            "right": expected["right"] / 8,
        }
        assert self_reveal_rate(self_reveals(expl)) == pytest.approx(
            (expected["left"] + expected["right"]) / 16
        )

    def test_group_rates_require_group_tags(self, blob_dataset):
        expl = build_loo_cache(blob_dataset, FULL_BATCH)
        with pytest.raises(ValueError):
            group_reveal_rates(self_reveals(expl), blob_dataset.groups)


class TestNanInfluence:
    def test_topk_rejects_nan_loo_model(self):
        # The sort would rank the NaN influence last and report the rest as if
        # nothing were wrong.
        base = LogisticModel(w=np.array([1.0]), b=0.0)
        loos = [
            LogisticModel(np.array([0.5]), 0.0),
            LogisticModel(np.array([np.nan]), 0.0),
            LogisticModel(np.array([2.0]), 0.1),
        ]
        expl = fake_explainer(base, loos)
        with pytest.raises(ValueError, match="training point 1 is NaN"):
            topk_explain(expl, np.array([0.7]), k=1)

    def test_topk_rejects_nan_query(self):
        base = LogisticModel(w=np.array([1.0, 0.5]), b=0.0)
        expl = fake_explainer(base, [LogisticModel(np.array([0.5, 1.0]), 0.2)] * 3)
        with pytest.raises(ValueError, match="NaN"):
            topk_explain(expl, np.array([np.nan, 0.8]), label=0, k=3)


class TestSelfRevealSweep:
    @pytest.mark.parametrize("k", [1, 3, None])
    def test_matches_per_point_queries(self, k):
        ds = two_blob_dataset(n=14, n_features=3, seed=36)
        n = ds.n_points
        k = n if k is None else k
        groups = ["left" if i % 3 else "right" for i in range(n)]
        expl = build_loo_cache(Dataset(ds.features, ds.labels, groups=groups), FULL_BATCH)
        per_point = [
            topk_explain(expl, ds.features[i], int(ds.labels[i]), k).indices.tolist()
            for i in range(n)
        ]
        assert self_reveals(expl, k).tolist() == per_point
        assert build_influence_graph(self_reveals(expl, k)).edges == per_point
        hits = [i in row for i, row in enumerate(per_point)]
        assert self_reveal_rate(self_reveals(expl, k)) == sum(hits) / n
        expected = {
            tag: sum(h for h, g in zip(hits, groups) if g == tag) / groups.count(tag)
            for tag in ("right", "left")
        }
        rates = group_reveal_rates(self_reveals(expl, k), groups)
        assert rates == expected
        assert list(rates) == ["right", "left"]  # order of first appearance


def tie_heavy_explainer(n: int, distinct: int, seed: int, k: int = 1):
    """A fake explainer whose n leave-one-out models repeat `distinct` models, so
    the influences of points sharing a model tie exactly at every query."""
    rng = np.random.default_rng(seed)
    base = LogisticModel(w=rng.normal(size=2), b=float(rng.normal()))
    pool = [LogisticModel(w=rng.normal(size=2), b=float(rng.normal())) for _ in range(distinct)]
    loos = [pool[j] for j in rng.integers(0, distinct, size=n)]
    labels = rng.integers(0, 2, size=n).astype(np.int64)
    return fake_explainer(base, loos, features=rng.normal(size=(n, 2)), labels=labels, k=k)


class TestOneRevealTable:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 14), distinct=st.integers(1, 4), seed=st.integers(0, 2**16),
           data=st.data())
    def test_prefix_columns_are_the_smaller_tables(self, n, distinct, seed, data):
        expl = tie_heavy_explainer(n, min(distinct, n), seed)
        big_k = data.draw(st.integers(1, n), label="big_k")
        table = self_reveals(expl, big_k)
        for k in range(1, big_k + 1):
            np.testing.assert_array_equal(table[:, :k], self_reveals(expl, k))


def block_queries(expl, rng, q):
    """q queries around the training data, some scaled far out (saturated)."""
    Y = rng.normal(size=(q, expl.base.w.size)) * 2.0
    far = rng.random(q) < 0.3
    Y[far] *= rng.choice([1e2, 1e4, 1e8], size=(int(far.sum()), 1))
    return Y


class TestBlockKernel:
    """`top_k_rows` and `self_reveals` against the per-query stable argsort."""

    @settings(max_examples=40, deadline=None)
    @given(expl=loo_caches(), block_rows=st.integers(1, 7), seed=st.integers(0, 2**16),
           data=st.data())
    def test_top_k_rows_matches_per_query_ranking(self, expl, block_rows, seed, data):
        n = expl.n_points
        k = data.draw(st.integers(1, n), label="k")
        Y = block_queries(expl, np.random.default_rng(seed), data.draw(st.integers(0, 25)))
        with mock.patch.object(influence_module, "_BLOCK_FLOATS", block_rows * n):
            top = expl.top_k_rows(Y, k)
        assert_same_reveals(top, expl, Y, k)

    @settings(max_examples=40, deadline=None)
    @given(expl=loo_caches(), block_rows=st.integers(1, 7), data=st.data())
    def test_self_reveals_matches_per_query_ranking(self, expl, block_rows, data):
        n = expl.n_points
        k = data.draw(st.integers(1, n), label="k")
        with mock.patch.object(influence_module, "_BLOCK_FLOATS", block_rows * n):
            table = self_reveals(expl, k)
        assert_same_reveals(table, expl, expl.dataset.features, k)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 12), d=st.integers(2, 4), q=st.integers(1, 12),
           block_rows=st.integers(1, 7), seed=st.integers(0, 2**16))
    def test_nan_names_the_same_point_on_both_paths(self, n, d, q, block_rows, seed):
        # An infinite weight of point j on feature c makes I_j NaN exactly at
        # queries whose feature c is 0, so rows fail at different points.
        rng = np.random.default_rng(seed)
        base = LogisticModel(w=rng.normal(size=d), b=0.1)
        loos = [LogisticModel(w=rng.normal(size=d), b=float(rng.normal())) for _ in range(n)]
        for j in rng.choice(n, size=rng.integers(1, n + 1), replace=False):
            loos[j].w[rng.integers(0, d)] = np.inf
        Y = rng.normal(size=(q, d))
        Y[rng.random((q, d)) < 0.3] = 0.0
        expl, expected = fake_explainer(base, loos), None
        for y in Y:
            try:
                reference_top_k(expl, y, 1)
            except ValueError as exc:
                expected = str(exc)
                break
        with mock.patch.object(influence_module, "_BLOCK_FLOATS", block_rows * n):
            if expected is None:
                assert_same_reveals(expl.top_k_rows(Y, 1), expl, Y, 1)
            else:
                with pytest.raises(ValueError) as failure:
                    expl.top_k_rows(Y, 1)
                assert str(failure.value) == expected

    def test_self_reveals_names_the_nan_point(self):
        base = LogisticModel(w=np.array([1.0]), b=0.0)
        loos = [LogisticModel(np.array([0.5]), 0.0), LogisticModel(np.array([np.nan]), 0.0),
                LogisticModel(np.array([np.nan]), 0.0), LogisticModel(np.array([2.0]), 0.1)]
        expl = fake_explainer(base, loos, features=np.array([[0.3], [0.1], [0.2], [0.4]]))
        with pytest.raises(ValueError, match="training point 2 is NaN"):
            self_reveals(expl, 2)

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_validated(self, k):
        base = LogisticModel(w=np.array([1.0]), b=0.0)
        expl = fake_explainer(base, [base] * 3)
        with pytest.raises(ValueError, match="k must lie"):
            self_reveals(expl, k)
        with pytest.raises(ValueError, match="k must lie"):
            expl.top_k_rows(np.zeros((2, 1)), k)


class TestRankBlock:
    """The one ranking rule against the full stable argsort it stands in for."""

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 8), n=st.integers(1, 60), kind=st.sampled_from(
        ["random", "rounded", "saturated"]), seed=st.integers(0, 2**16), data=st.data())
    def test_equals_stable_argsort_prefix(self, rows, n, kind, seed, data):
        rng = np.random.default_rng(seed)
        block = rng.normal(size=(rows, n))
        if kind == "rounded":  # a few distinct values: ties everywhere
            block = np.round(block, 0)
        elif kind == "saturated":  # mostly |I| = 0, as far from the data
            block = np.where(rng.random((rows, n)) < 0.8, 0.0, block)
        neg = -np.abs(block)
        k = data.draw(st.integers(1, n), label="k")
        np.testing.assert_array_equal(
            influence_module._rank_block(neg, k),
            np.argsort(neg, axis=1, kind="stable")[:, :k],
        )
