"""Threshold membership attacks against brute-force oracles."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from explainleak import (
    AttackStatistic,
    LogisticModel,
    ThresholdRule,
    aggregate_shadow_taus,
    optimal_threshold,
    statistic_values,
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

    def test_params_checked_against_the_method(self):
        message = r"unknown SurrogateConfig keys: \['local_surrogate\.num_sample'\]"
        with pytest.raises(ValueError, match=message):
            AttackStatistic("expl_var", "local_surrogate", params={"num_sample": 50})
        with pytest.raises(ValueError, match="samples must be at least 1"):
            AttackStatistic("expl_var", "smoothgrad", params={"samples": 0})
        with pytest.raises(ValueError, match="epsilon must be positive"):
            AttackStatistic("expl_var", "lrp", params={"epsilon": 0.0})
        with pytest.raises(ValueError, match=r"gradient does not take params \['sigma'\]"):
            AttackStatistic("expl_var", "gradient", params={"sigma": 5})

    def test_scalar_kinds_reject_params(self):
        for kind in ("loss", "pred_var"):
            with pytest.raises(ValueError, match="takes no explanation method or params"):
                AttackStatistic(kind, params={"samples": 5})

    def test_valid_params_kept_as_given(self):
        params = {"samples": 5, "sigma": [0.5, 1.0]}
        stat = AttackStatistic("expl_var", "smoothgrad", params=params)
        assert stat.params == params
        assert stat.to_dict()["params"] == params

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
                variance(small_trained_model.input_gradient_batch(x[None])[0])
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


def _populations(values):
    return st.tuples(st.lists(values, min_size=1, max_size=40),
                     st.lists(values, min_size=1, max_size=40))


class TestOptimalThreshold:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([TIE_HEAVY, CONTINUOUS]).flatmap(_populations),
           st.sampled_from(["leq", "geq"]))
    @example(([1.0, 3.0], [2.0, 4.0]), "leq")
    @example(([0.5, 0.5, 0.5], [0.5, 0.5]), "geq")
    def test_equals_candidate_scan(self, populations, member_if):
        """Bit-identical tau and accuracy on finite populations, smallest-tau ties included."""
        members, nonmembers = populations
        assert optimal_threshold(members, nonmembers, member_if) == _scan_optimal_threshold(
            members, nonmembers, member_if
        )

    @settings(max_examples=200, deadline=None)
    @given(_populations(HOSTILE).filter(lambda p: not np.isfinite(p[0] + p[1]).all()),
           st.sampled_from(["leq", "geq"]))
    @example(([np.nan], [np.nan, 1.0]), "leq")
    @example(([1.0], [-np.inf, np.inf]), "geq")
    def test_non_finite_population_raises(self, populations, member_if):
        """NaN or +-inf in either population is an error naming it and its count."""
        members, nonmembers = populations
        bad_members = int((~np.isfinite(members)).sum())
        name, count = ("member", bad_members) if bad_members else (
            "non-member", int((~np.isfinite(nonmembers)).sum()))
        with pytest.raises(ValueError, match=f"^{name} population holds {count} non-finite"):
            optimal_threshold(members, nonmembers, member_if)

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

    def test_evaluate_attack_hand_case(self):
        # The two confident points are the members; tau at 0.4 flags only
        # them, since the boundary points' loss sits near 0.5.
        model = LogisticModel(w=np.array([5.0]), b=0.0)
        features = np.array([[1.0], [-1.0], [0.01], [-0.01]])
        labels = np.array([1, 0, 1, 0])
        rule = ThresholdRule(AttackStatistic("loss"), tau=0.4)
        values = statistic_values(rule.statistic, model, features, labels)
        np.testing.assert_array_equal(rule.decide(values), [True, True, False, False])


def _reverses_order(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether b falls strictly wherever a rises, and ties exactly where a ties,
    so that a map from a to b merges no two distinct values."""
    order = np.argsort(a, kind="stable")
    da, db = np.diff(a[order]), np.diff(b[order])
    return bool(np.all(((da > 0) & (db < 0)) | ((da == 0) & (db == 0))))


class TestLogisticGradientIdentity:
    """For a logistic model the input gradient is ±f(1−f)·w and pred_var is
    2(f − ½)², so at every point expl_var[gradient] = (¼ − pred_var/2)² ·
    variance(w). The map falls in pred_var and the two statistics vote in
    opposite directions, so their optimal attacks agree: the gradient leaks
    membership only through the model's confidence."""

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(2, 11), seed=st.integers(0, 2**32 - 1))
    def test_gradient_variance_is_a_function_of_pred_var(self, d, seed):
        rng = np.random.default_rng(seed)
        model = LogisticModel(w=rng.normal(size=d), b=float(rng.normal()))
        X = rng.normal(size=(80, d))
        gradient = AttackStatistic("expl_var", "gradient")
        pred_var = AttackStatistic("pred_var")
        expl = statistic_values(gradient, model, X)
        pred = statistic_values(pred_var, model, X)
        np.testing.assert_allclose(expl, (0.25 - pred / 2) ** 2 * variance(model.w), rtol=1e-6)
        if _reverses_order(pred, expl):
            assert (
                optimal_threshold(expl[:40], expl[40:], gradient.member_if)[1]
                == optimal_threshold(pred[:40], pred[40:], pred_var.member_if)[1]
            )
