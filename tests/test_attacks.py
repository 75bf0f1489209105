"""Threshold and learned membership attacks against brute-force oracles."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from explainleak import (
    AttackStatistic,
    Dataset,
    LogisticModel,
    ThresholdRule,
    aggregate_shadow_taus,
    combine_sources,
    compute_statistic,
    evaluate_attack,
    optimal_threshold,
    shadow_threshold,
    statistic_values,
    train_attack_network,
)
from explainleak.attacks import variance


class TestVariance:
    def test_frozen_examples(self):
        assert variance([2.0, 2.0, 2.0, 2.0]) == 0.0
        assert variance([1.0, 0.0]) == 0.5
        assert variance([3.0, 1.0, -1.0, -3.0]) == 20.0

    def test_unnormalized_sum_of_squares(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=17)
        assert variance(v) == pytest.approx(np.var(v) * v.size, rel=1e-12)

    def test_rejects_empty_and_matrix(self):
        with pytest.raises(ValueError):
            variance([])
        with pytest.raises(ValueError):
            variance(np.zeros((2, 2)))


class TestAttackStatistic:
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            AttackStatistic("entropy")

    def test_expl_var_requires_method(self):
        with pytest.raises(ValueError):
            AttackStatistic("expl_var")
        with pytest.raises(ValueError):
            AttackStatistic("expl_var", method="saliency")

    def test_scalar_kinds_reject_method(self):
        with pytest.raises(ValueError):
            AttackStatistic("loss", method="gradient")

    def test_l1_only_for_explanations(self):
        with pytest.raises(ValueError):
            AttackStatistic("loss", use_l1=True)
        stat = AttackStatistic("expl_var", method="gradient", use_l1=True)
        assert stat.label == "expl_l1[gradient]"

    def test_member_direction(self):
        assert AttackStatistic("loss").member_if == "leq"
        assert AttackStatistic("pred_var").member_if == "geq"
        assert AttackStatistic("expl_var", method="gradient").member_if == "leq"


class TestStatisticValues:
    def test_loss_requires_labels(self, small_trained_model):
        with pytest.raises(ValueError):
            statistic_values(AttackStatistic("loss"), small_trained_model, np.zeros((2, 4)))

    def test_loss_matches_model_loss(self, small_trained_model, blob_dataset):
        values = statistic_values(
            AttackStatistic("loss"),
            small_trained_model,
            blob_dataset.features,
            blob_dataset.labels,
        )
        np.testing.assert_array_equal(
            values,
            small_trained_model.loss_batch(blob_dataset.features, blob_dataset.labels),
        )

    def test_pred_var_is_row_variance(self, small_trained_model, blob_dataset):
        values = statistic_values(
            AttackStatistic("pred_var"), small_trained_model, blob_dataset.features
        )
        probs = small_trained_model.forward_batch(blob_dataset.features)
        expected = np.array([variance(row) for row in probs])
        np.testing.assert_allclose(values, expected, rtol=1e-12)

    def test_pred_var_two_class_closed_form(self):
        model = LogisticModel(w=np.array([2.0]), b=0.0)
        X = np.array([[1.2]])
        p = model.positive_prob(X[0])
        got = statistic_values(AttackStatistic("pred_var"), model, X)[0]
        assert got == pytest.approx(2.0 * (p - 0.5) ** 2, rel=1e-12)

    def test_gradient_fast_path_matches_per_point_loop(self, small_trained_model):
        X = np.random.default_rng(5).normal(size=(6, 4))
        stat = AttackStatistic("expl_var", method="gradient")
        fast = statistic_values(stat, small_trained_model, X)
        slow = np.array(
            [
                variance(small_trained_model.input_gradient(x))
                for x in X
            ]
        )
        np.testing.assert_allclose(fast, slow, rtol=1e-12)

    def test_expl_l1_is_one_norm(self, small_trained_model):
        X = np.random.default_rng(6).normal(size=(4, 4))
        stat = AttackStatistic("expl_var", method="gradient", use_l1=True)
        values = statistic_values(stat, small_trained_model, X)
        expected = np.abs(small_trained_model.input_gradient_batch(X)).sum(axis=1)
        np.testing.assert_allclose(values, expected, rtol=1e-12)

    def test_compute_statistic_single_point(self, small_trained_model):
        x = np.array([0.3, -0.1, 0.2, 0.5])
        got = compute_statistic(AttackStatistic("pred_var"), small_trained_model, x)
        want = statistic_values(
            AttackStatistic("pred_var"), small_trained_model, x[None, :]
        )[0]
        assert got == want


def _brute_force_best_accuracy(members, nonmembers, member_if) -> float:
    """Scan every pooled value and both infinities; O(N^2) but exhaustive."""
    members = np.asarray(members, dtype=np.float64)
    nonmembers = np.asarray(nonmembers, dtype=np.float64)
    pool = np.concatenate([members, nonmembers, [-np.inf, np.inf]])
    best = -1.0
    for tau in pool:
        if member_if == "leq":
            acc = 0.5 * ((members <= tau).mean() + (nonmembers > tau).mean())
        else:
            acc = 0.5 * ((members >= tau).mean() + (nonmembers < tau).mean())
        best = max(best, acc)
    return best


def _scan_optimal_threshold(member_stats, nonmember_stats, member_if):
    """The candidate-by-candidate scan `optimal_threshold` replaced, O(n^2)."""
    member_stats = np.asarray(member_stats, dtype=np.float64)
    nonmember_stats = np.asarray(nonmember_stats, dtype=np.float64)
    uniq = np.unique(np.concatenate([member_stats, nonmember_stats]))
    candidates = np.concatenate([[-np.inf], (uniq[:-1] + uniq[1:]) / 2.0, [np.inf]])
    best_tau, best_acc = None, -1.0
    for tau in candidates:
        if member_if == "leq":
            hits = (member_stats <= tau, nonmember_stats > tau)
        else:
            hits = (member_stats >= tau, nonmember_stats < tau)
        acc = 0.5 * (float(hits[0].mean()) + float(hits[1].mean()))
        if acc > best_acc:
            best_tau, best_acc = tau, acc
    return float(best_tau), float(best_acc)


TIE_HEAVY = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])
CONTINUOUS = st.floats(-1e6, 1e6, allow_nan=False)
HOSTILE = st.sampled_from([-np.inf, -1.0, 0.0, 1.0, np.inf, np.nan])


class TestOptimalThreshold:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([TIE_HEAVY, CONTINUOUS, HOSTILE]).flatmap(
               lambda values: st.tuples(st.lists(values, min_size=1, max_size=40),
                                        st.lists(values, min_size=1, max_size=40))),
           st.sampled_from(["leq", "geq"]))
    @example(([1.0, 3.0], [2.0, 4.0]), "leq")
    @example(([0.5, 0.5, 0.5], [0.5, 0.5]), "geq")
    @example(([np.nan], [np.nan, 1.0]), "leq")
    @pytest.mark.filterwarnings("ignore:invalid value encountered in add:RuntimeWarning")
    def test_equals_candidate_scan(self, populations, member_if):
        """Bit-identical tau and accuracy, smallest-tau ties included."""
        members, nonmembers = populations
        assert optimal_threshold(members, nonmembers, member_if) == _scan_optimal_threshold(
            members, nonmembers, member_if
        )

    def test_separable_case_perfect(self):
        tau, acc = optimal_threshold([1.0, 2.0], [3.0, 4.0], "leq")
        assert acc == 1.0
        assert tau == 2.5

    def test_tie_resolves_to_smallest_tau(self):
        # taus 1.5 and 3.5 both reach balanced accuracy 0.75.
        tau, acc = optimal_threshold([1.0, 3.0], [2.0, 4.0], "leq")
        assert acc == 0.75
        assert tau == 1.5

    def test_geq_direction(self):
        tau, acc = optimal_threshold([3.0, 4.0], [1.0, 2.0], "geq")
        assert acc == 1.0
        assert tau == 2.5

    def test_identical_populations_fall_back_to_half(self):
        tau, acc = optimal_threshold([1.0, 2.0], [1.0, 2.0], "leq")
        assert acc == 0.5

    def test_reversed_populations_never_below_half(self):
        # All members above all nonmembers with a "leq" rule: the infinite
        # cut classifying everything as member still reaches 0.5.
        _, acc = optimal_threshold([10.0, 11.0], [1.0, 2.0], "leq")
        assert acc == 0.5

    @pytest.mark.parametrize("member_if", ["leq", "geq"])
    def test_brute_force_equivalence(self, member_if):
        rng = np.random.default_rng(123)
        for _ in range(100):
            n_m = int(rng.integers(1, 12))
            n_n = int(rng.integers(1, 12))
            members = np.round(rng.normal(size=n_m), 2)
            nonmembers = np.round(rng.normal(loc=0.5, size=n_n), 2)
            tau, acc = optimal_threshold(members, nonmembers, member_if)
            assert acc == pytest.approx(
                _brute_force_best_accuracy(members, nonmembers, member_if), abs=1e-12
            )
            # The returned tau actually achieves the reported accuracy.
            if member_if == "leq":
                check = 0.5 * ((members <= tau).mean() + (nonmembers > tau).mean())
            else:
                check = 0.5 * ((members >= tau).mean() + (nonmembers < tau).mean())
            assert check == pytest.approx(acc, abs=1e-12)

    def test_monotone_transform_preserves_accuracy(self):
        rng = np.random.default_rng(77)
        members = rng.normal(size=15)
        nonmembers = rng.normal(loc=1.0, size=15)
        _, acc = optimal_threshold(members, nonmembers, "leq")
        _, acc_exp = optimal_threshold(np.exp(members), np.exp(nonmembers), "leq")
        assert acc == pytest.approx(acc_exp, abs=1e-12)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            optimal_threshold([], [1.0], "leq")

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            optimal_threshold([1.0], [2.0], "below")


class TestShadowCalibration:
    def test_aggregate_frozen_examples(self):
        assert aggregate_shadow_taus([1.0, 2.0, 3.0], 2) == 1.5
        assert aggregate_shadow_taus([1.0, 2.0, 3.0], 3) == 2.0
        assert aggregate_shadow_taus([5.0], 1) == 5.0

    def test_aggregate_validates_s(self):
        with pytest.raises(ValueError):
            aggregate_shadow_taus([1.0], 0)
        with pytest.raises(ValueError):
            aggregate_shadow_taus([1.0], 2)

    def test_shadow_threshold_means_per_shadow_taus(self):
        rng = np.random.default_rng(31)
        models, sets, expected_taus = [], [], []
        stat = AttackStatistic("loss")
        for shadow in range(3):
            model = LogisticModel(w=rng.normal(size=3), b=float(rng.normal()))
            features = rng.normal(size=(20, 3))
            labels = rng.integers(0, 2, size=20).astype(np.int64)
            membership = np.zeros(20, dtype=bool)
            membership[:10] = True
            ds = Dataset(features, labels, membership=membership)
            values = statistic_values(stat, model, features, labels)
            tau, _ = optimal_threshold(values[membership], values[~membership], "leq")
            models.append(model)
            sets.append(ds)
            expected_taus.append(tau)
        for s in (1, 3):
            got = shadow_threshold(models, sets, stat, s)
            assert got == pytest.approx(np.mean(expected_taus[:s]), abs=1e-12)

    def test_shadow_threshold_requires_membership(self):
        model = LogisticModel(np.ones(2), 0.0)
        ds = Dataset(np.zeros((4, 2)), np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError):
            shadow_threshold([model], [ds], AttackStatistic("loss"), 1)


class TestThresholdRuleAndEvaluation:
    def test_decide_directions(self):
        stat = AttackStatistic("loss")
        rule = ThresholdRule(stat, tau=1.0)
        np.testing.assert_array_equal(
            rule.decide(np.array([0.5, 1.0, 1.5])), [True, True, False]
        )
        geq_rule = ThresholdRule(AttackStatistic("pred_var"), tau=1.0)
        np.testing.assert_array_equal(
            geq_rule.decide(np.array([0.5, 1.0, 1.5])), [False, True, True]
        )

    def test_default_direction_comes_from_statistic(self):
        assert ThresholdRule(AttackStatistic("pred_var"), 0.0).member_if == "geq"
        assert ThresholdRule(AttackStatistic("loss"), 0.0).member_if == "leq"

    def test_evaluate_attack_hand_case(self):
        # Members sit right on the decision boundary (loss ~ 0.5); tau at
        # 0.4 flags only the two points the model is confident about.
        model = LogisticModel(w=np.array([5.0]), b=0.0)
        features = np.array([[1.0], [-1.0], [0.01], [-0.01]])
        labels = np.array([1, 0, 1, 0])
        membership = np.array([True, True, False, False])
        ds = Dataset(features, labels, membership=membership)
        rule = ThresholdRule(AttackStatistic("loss"), tau=0.4)
        result = evaluate_attack(rule, model, ds)
        # Confident points have tiny wrong-class likelihood; boundary points
        # sit near 0.5, so decisions = (True, True, False, False) = truth.
        assert result.accuracy == 1.0
        assert result.n_members == 2 and result.n_nonmembers == 2
        assert result.warning is None

    def test_evaluate_attack_flags_unbalanced_sets(self):
        model = LogisticModel(w=np.array([1.0]), b=0.0)
        ds = Dataset(
            np.zeros((3, 1)),
            np.zeros(3, dtype=np.int64),
            membership=np.array([True, False, False]),
        )
        result = evaluate_attack(ThresholdRule(AttackStatistic("loss"), 0.5), model, ds)
        assert result.warning is not None
        assert "unbalanced" in result.warning

    def test_evaluate_attack_requires_membership(self, small_trained_model, blob_dataset):
        rule = ThresholdRule(AttackStatistic("pred_var"), 0.1)
        with pytest.raises(ValueError):
            evaluate_attack(rule, small_trained_model, blob_dataset)


class TestCombineSources:
    def test_column_counts_add(self):
        merged = combine_sources([np.zeros((5, 3)), np.ones((5, 2))])
        assert merged.shape == (5, 5)
        np.testing.assert_array_equal(merged[:, :3], 0.0)
        np.testing.assert_array_equal(merged[:, 3:], 1.0)

    def test_vector_becomes_column(self):
        merged = combine_sources([np.zeros((4, 2)), np.arange(4.0)])
        assert merged.shape == (4, 3)
        np.testing.assert_array_equal(merged[:, 2], [0.0, 1.0, 2.0, 3.0])

    def test_order_preserved(self):
        expl = np.full((3, 2), 7.0)
        probs = np.full((3, 2), 8.0)
        loss = np.full(3, 9.0)
        merged = combine_sources([expl, probs, loss])
        np.testing.assert_array_equal(merged[0], [7.0, 7.0, 8.0, 8.0, 9.0])

    def test_ragged_blocks_rejected(self):
        with pytest.raises(ValueError):
            combine_sources([np.zeros((3, 2)), np.zeros((4, 2))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_sources([])

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            combine_sources([np.zeros((2, 2, 2))])


class TestAttackNetwork:
    def test_learns_leaked_membership_feature(self):
        rng = np.random.default_rng(50)
        n = 200
        membership = np.zeros(n, dtype=bool)
        membership[: n // 2] = True
        # One feature literally equals the flag plus noise; the rest is junk.
        features = np.hstack(
            [
                membership[:, None] + 0.05 * rng.normal(size=(n, 1)),
                rng.normal(size=(n, 3)),
            ]
        )
        result = train_attack_network(features, membership, seed=1, epochs=30)
        assert result.n_train == 140 and result.n_test == 60
        assert result.test_accuracy >= 0.95

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(51)
        features = rng.normal(size=(60, 3))
        membership = rng.random(60) < 0.5
        a = train_attack_network(features, membership, seed=9, epochs=3)
        b = train_attack_network(features, membership, seed=9, epochs=3)
        assert a.test_accuracy == b.test_accuracy
        for wa, wb in zip(a.model.weights, b.model.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_membership_shape_validated(self):
        with pytest.raises(ValueError):
            train_attack_network(np.zeros((4, 2)), np.zeros(3, dtype=bool), seed=0)

    def test_split_fraction_validated(self):
        with pytest.raises(ValueError):
            train_attack_network(
                np.zeros((4, 2)), np.zeros(4, dtype=bool), seed=0, train_fraction=1.0
            )
