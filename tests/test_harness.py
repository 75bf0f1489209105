"""Tests for the experiment harness: seeding, protocol, records, and runners."""
from __future__ import annotations

import csv
import json
import os
import re
import signal
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import explainleak
import explainleak.harness as harness_module
from conftest import assert_no_child, run_python, two_blob_dataset, use_cpus
from explainleak import influence as influence_module
from explainleak.attacks import AttackStatistic, aggregate_shadow_taus
from explainleak.cli import main
from explainleak.harness import (
    DECISION_CSV_COLUMNS,
    RECORD_CSV_COLUMNS,
    CampaignConfig,
    ConfigError,
    DecisionBlock,
    DecisionTable,
    ExperimentConfig,
    ExperimentResult,
    OverfitConfig,
    RunRecord,
    TargetSplit,
    child_seed,
    config_hash,
    parse_calibration,
    run_overfit_sweep,
    run_perturbation_experiment,
    run_reconstruction_campaign,
    run_threshold_experiment,
    sampling_protocol,
    validate_protocol,
    write_json,
    write_manifest,
)
from explainleak.influence import InfluenceOracle
from explainleak.models import LogisticModel, TrainConfig, TrainingDivergedError, fork_map
from explainleak.reconstruct import reconstruction_query_budget
from explainleak.synth import SynthConfig


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(7, "target", 1, 2) == child_seed(7, "target", 1, 2)

    def test_distinct_roles(self):
        seeds = {
            child_seed(7, "target", 0),
            child_seed(7, "target", 1),
            child_seed(7, "protocol", 0),
            child_seed(8, "target", 0),
            child_seed(7, "target", 0, 0),
        }
        assert len(seeds) == 5

    def test_index_order_matters(self):
        assert child_seed(0, "a", 1, 2) != child_seed(0, "a", 2, 1)

    def test_range(self):
        for master in (0, 1, 2**40):
            seed = child_seed(master, "x")
            assert 0 <= seed < 2**32

    # The master seed is taken mod 2**32 (configs reject any other seed) and
    # every index is one 32-bit entropy word, so both are drawn from [0, 2**32).
    ROLES = st.tuples(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["protocol", "target", "split", "traverse", "baseline"])
        | st.text(max_size=6),
        st.lists(st.integers(0, 2**32 - 1), max_size=4).map(tuple),
    )

    @settings(max_examples=100, deadline=None)
    @given(a=ROLES, b=ROLES, edit=st.sampled_from(
        ["none", "append_zero", "strip_zeros", "swap", "retag", "remaster"]))
    def test_distinct_roles_never_alias(self, a, b, edit):
        master, tag, indices = a
        b = {
            "none": b,
            "append_zero": (master, tag, indices + (0,)),
            "strip_zeros": (master, tag, tuple(np.trim_zeros(indices, "b"))),
            "swap": (master, tag, indices[::-1]),
            "retag": (master, b[1], indices),
            "remaster": (b[0], tag, indices),
        }[edit]
        assume(a != b)
        assert child_seed(master, tag, *indices) != child_seed(b[0], b[1], *b[2])


class TestParseCalibration:
    def test_optimal(self):
        assert parse_calibration("optimal") == ("optimal", None)

    def test_shadow(self):
        assert parse_calibration("shadow(3)") == ("shadow", 3)
        assert parse_calibration("shadow(12)") == ("shadow", 12)

    @pytest.mark.parametrize(
        "text", ["shadow(0)", "shadow(-1)", "shadow()", "shadow", "midpoint", ""]
    )
    def test_rejects(self, text):
        with pytest.raises(ConfigError):
            parse_calibration(text)


def make_experiment_config(cls=ExperimentConfig, **overrides) -> ExperimentConfig:
    base = dict(
        synth=SynthConfig(n_features=3, n_samples=160, class_sep=2.0, seed=0),
        hidden=(8,),
        train=TrainConfig(optimizer="adagrad", lr=0.05, epochs=15),
        statistics=[AttackStatistic("loss"), AttackStatistic("expl_var", "gradient")],
        calibrations=["optimal", "shadow(1)"],
        repetitions=2,
        subsets_per_repetition=4,
        points_per_subset=20,
        seed=7,
    )
    base.update(overrides)
    return cls(**base)


SEED_RANGE_ERROR = r"seed must be in \[0, 2\*\*32\)"


class TestExperimentConfig:
    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_rejects_seed_that_would_alias(self, seed):
        with pytest.raises(ConfigError, match=SEED_RANGE_ERROR):
            make_experiment_config(seed=seed)

    def test_accepts_32_bit_seed_bounds(self):
        assert make_experiment_config(seed=2**32 - 1).seed == 2**32 - 1
        assert make_experiment_config(seed=0).seed == 0

    def test_requires_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig()
        with pytest.raises(ConfigError, match="exactly one"):
            make_experiment_config(dataset_csv="data.csv")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"model_kind": "forest"},
            {"repetitions": 0},
            {"subsets_per_repetition": 0},
            {"points_per_subset": 3},
            {"points_per_subset": 0},
            {"statistics": []},
            {"calibrations": []},
            {"calibrations": ["midpoint"]},
            {"calibrations": ["shadow(4)"]},  # only 3 siblings exist
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ConfigError):
            make_experiment_config(**overrides)

    def test_shadow_within_subsets_accepted(self):
        cfg = make_experiment_config(calibrations=["shadow(3)"])
        assert cfg.calibrations == ["shadow(3)"]

    def test_dict_round_trip(self):
        cfg = make_experiment_config(
            statistics=[
                AttackStatistic("pred_var"),
                AttackStatistic("expl_var", "smoothgrad", params={"sigma": 0.2}),
                AttackStatistic("expl_var", "gradient", use_l1=True),
            ]
        )
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_is_pinned(self):
        cfg = make_experiment_config(
            group_column="group",
            activation="relu",
            statistics=[
                AttackStatistic("expl_var", "smoothgrad", params={"samples": 5, "sigma": 0.2}),
                AttackStatistic("expl_var", "gradient", use_l1=True),
            ],
            resample=True,
        )
        assert cfg.to_dict() == {
            "dataset_csv": None,
            "label_column": "label",
            "group_column": "group",
            "synth": {
                "n_features": 3,
                "n_classes": 2,
                "n_samples": 160,
                "class_sep": 2.0,
                "cluster_std": 1.0,
                "seed": 0,
            },
            "hidden": [8],
            "activation": "relu",
            "model_kind": "mlp",
            "train": {
                "optimizer": "adagrad",
                "lr": 0.05,
                "lr_decay": 0.0,
                "epochs": 15,
                "batch_size": 32,
                "seed": 0,
            },
            "statistics": [
                {
                    "kind": "expl_var",
                    "method": "smoothgrad",
                    "params": {"samples": 5, "sigma": 0.2},
                    "use_l1": False,
                },
                {"kind": "expl_var", "method": "gradient", "params": {}, "use_l1": True},
            ],
            "calibrations": ["optimal", "shadow(1)"],
            "repetitions": 2,
            "subsets_per_repetition": 4,
            "points_per_subset": 20,
            "resample": True,
            "seed": 7,
        }

    @pytest.mark.parametrize("section, key", [("synth", "n_feature"), ("train", "momentum")])
    def test_from_dict_rejects_unknown_nested_keys(self, section, key):
        payload = make_experiment_config().to_dict()
        payload[section][key] = 1
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(payload)

    def test_an_unknown_key_is_named_by_its_dotted_path(self):
        params = {"kind": "expl_var", "method": "smoothgrad", "params": {"sample": 3}}
        cases = [
            ({"typo_key": 1}, "unknown ExperimentConfig keys: ['typo_key']"),
            ({"train": {"momentum": 1}}, "unknown TrainConfig keys: ['train.momentum']"),
            ({"synth": {"n_feature": 1}}, "unknown SynthConfig keys: ['synth.n_feature']"),
            ({"statistics": [{"kind": "loss", "direction": "leq"}]},
             "unknown AttackStatistic keys: ['statistics.direction']"),
            ({"statistics": [params]}, "unknown SmoothGradConfig keys: ['smoothgrad.sample']"),
        ]
        for change, message in cases:
            payload = make_experiment_config().to_dict()
            for key, value in change.items():
                if isinstance(value, dict):
                    payload[key].update(value)
                else:
                    payload[key] = value
            with pytest.raises(ConfigError, match=re.escape(message)):
                ExperimentConfig.from_dict(payload)

    def test_from_dict_refuses_non_integer_hidden_widths(self):
        # Widths were once cast with int(), so [8.5] trained a width of 8.
        payload = dict(make_experiment_config().to_dict(), hidden=[8, 4])
        assert ExperimentConfig.from_dict(payload).hidden == (8, 4)
        for hidden in ([8.0, 4], [8, "4"], [8.5], [True], "8", {"width": 8}):
            with pytest.raises(ConfigError, match="^hidden must be"):
                ExperimentConfig.from_dict(dict(payload, hidden=hidden))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"hidden": ["wide"]},
            {"train": {"epochs": 0}},
            {"synth": [3]},
            {"repetitions": "2"},
            {"train": None},
            {"seed": None},
        ],
    )
    def test_from_dict_wraps_bad_values(self, overrides):
        payload = dict(make_experiment_config().to_dict(), **overrides)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(payload)

    def test_from_dict_rejects_unknown_keys(self):
        payload = make_experiment_config().to_dict()
        payload["typo_key"] = 1
        with pytest.raises(ConfigError, match="typo_key"):
            ExperimentConfig.from_dict(payload)

    def test_from_dict_rejects_unknown_statistic_keys(self):
        payload = make_experiment_config().to_dict()
        payload["statistics"][0]["direction"] = "leq"
        with pytest.raises(ConfigError, match="direction"):
            ExperimentConfig.from_dict(payload)

    def test_from_dict_wraps_value_errors(self):
        payload = make_experiment_config().to_dict()
        payload["statistics"] = [{"kind": "entropy"}]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(payload)


class TestSamplingProtocol:
    def test_default_size_splits_dataset(self):
        dataset = two_blob_dataset(n=80)
        splits = sampling_protocol(dataset, n_subsets=4, seed=0)
        assert len(splits) == 4
        for split in splits:
            assert len(split.train) == 10
            assert len(split.test) == 10
        combined = np.concatenate([s.all_indices for s in splits])
        assert len(np.unique(combined)) == 80  # disjoint and exhaustive

    def test_explicit_size_disjoint(self):
        dataset = two_blob_dataset(n=80)
        splits = sampling_protocol(dataset, n_subsets=3, subset_size=10, seed=1)
        combined = np.concatenate([s.all_indices for s in splits])
        assert len(combined) == 30
        assert len(np.unique(combined)) == 30

    @pytest.mark.parametrize("size", [0, 1, 7])
    def test_rejects_bad_subset_size(self, size):
        dataset = two_blob_dataset(n=40)
        with pytest.raises(ConfigError, match="even"):
            sampling_protocol(dataset, n_subsets=2, subset_size=size)

    def test_rejects_oversubscription_without_resample(self):
        dataset = two_blob_dataset(n=40)
        with pytest.raises(ConfigError, match="resample"):
            sampling_protocol(dataset, n_subsets=4, subset_size=20)

    def test_resample_allows_overlap(self):
        dataset = two_blob_dataset(n=40)
        splits = sampling_protocol(
            dataset, n_subsets=4, subset_size=20, resample=True, seed=3
        )
        assert len(splits) == 4
        for split in splits:
            indices = split.all_indices
            assert len(np.unique(indices)) == 20  # duplicate-free internally
        combined = np.concatenate([s.all_indices for s in splits])
        assert len(np.unique(combined)) < 80  # subsets overlap

    def test_seed_determinism(self):
        dataset = two_blob_dataset(n=60)
        a = sampling_protocol(dataset, n_subsets=2, seed=5)
        b = sampling_protocol(dataset, n_subsets=2, seed=5)
        c = sampling_protocol(dataset, n_subsets=2, seed=6)
        for x, y in zip(a, b):
            assert np.array_equal(x.train, y.train)
            assert np.array_equal(x.test, y.test)
        assert not all(
            np.array_equal(x.train, y.train) for x, y in zip(a, c)
        )


def _split(train, test) -> TargetSplit:
    return TargetSplit(
        train=np.asarray(train, dtype=np.int64), test=np.asarray(test, dtype=np.int64)
    )


class TestValidateProtocol:
    def test_valid_audit(self):
        splits = [_split([0, 1], [2, 3]), _split([4, 5], [6, 7])]
        audit = validate_protocol(splits, n_points=10, resample=False)
        assert audit == {
            "n_subsets": 2,
            "subset_size": 4,
            "disjoint": True,
            "balanced": True,
        }

    def test_detects_unbalanced_split(self):
        with pytest.raises(RuntimeError, match="50/50"):
            validate_protocol([_split([0, 1, 2], [3])], n_points=10, resample=False)

    def test_detects_out_of_range(self):
        with pytest.raises(RuntimeError, match="out-of-range"):
            validate_protocol([_split([0, 99], [1, 2])], n_points=10, resample=False)

    def test_detects_internal_duplicates(self):
        with pytest.raises(RuntimeError, match="duplicate"):
            validate_protocol([_split([0, 1], [1, 2])], n_points=10, resample=False)

    def test_detects_cross_subset_overlap(self):
        splits = [_split([0, 1], [2, 3]), _split([0, 5], [6, 7])]
        with pytest.raises(RuntimeError, match="overlap"):
            validate_protocol(splits, n_points=10, resample=False)
        # The same partition is legitimate when subsets are drawn independently.
        audit = validate_protocol(splits, n_points=10, resample=True)
        assert audit["disjoint"] is False


class TestRunRecord:
    def _record(self, **overrides) -> RunRecord:
        base = dict(
            run_id="r0-t0-s0-c0",
            repetition=0,
            target=0,
            statistic="loss",
            calibration="optimal",
            tau=0.5,
            attack_accuracy=0.75,
            train_accuracy=1.0,
            test_accuracy=0.9,
            epochs=50,
        )
        base.update(overrides)
        return RunRecord(**base)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("attack_accuracy", 1.5),
            ("attack_accuracy", -0.1),
            ("train_accuracy", 2.0),
            ("test_accuracy", -1.0),
        ],
    )
    def test_rejects_out_of_range_accuracies(self, field, value):
        with pytest.raises(ValueError, match=field):
            self._record(**{field: value})

    def test_csv_row_matches_columns(self):
        record = self._record()
        row = record.csv_row()
        assert len(row) == len(RECORD_CSV_COLUMNS)
        assert row[0] == "r0-t0-s0-c0"
        assert row[RECORD_CSV_COLUMNS.index("tau")] == 0.5
        assert row[RECORD_CSV_COLUMNS.index("epochs")] == 50

    def test_wall_time_never_exported(self):
        assert not any("time" in col or "second" in col for col in RECORD_CSV_COLUMNS)
        assert len(self._record().csv_row()) == len(RECORD_CSV_COLUMNS)


def assert_decisions_csv_is_csv_writer_output(result, tmp_path):
    """The decisions file holds the bytes csv.writer writes for the per-row
    (run_id, point, value, decision, member) tuples the harness used to keep."""
    rows = [
        (run_id, int(point), float(value), int(guess), int(member))
        for run_id, points, values, guesses, truth in result.decisions
        for point, value, guess, member in zip(points, values, guesses, truth)
    ]
    assert len(rows) == len(result.decisions)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(DECISION_CSV_COLUMNS)
        writer.writerows(rows)
    result.write(tmp_path / "out")
    decisions = tmp_path / "out" / f"{result.name}_decisions.csv"
    assert decisions.read_bytes() == reference.read_bytes()


def test_decisions_csv_of_blocks_sharing_some_columns(tmp_path):
    # The writer reuses a block's "point,value," text only for the very same points and
    # values arrays as the block before: sharing one of the two must not reuse it.
    points, values = np.array([3, 1, 4, 1]), np.array([0.1, -1e-300, np.inf, -0.0])
    guesses, truth = np.array([True, False, True, False]), np.array([1, 1, 0, 0])
    other_points, other_values = points[::-1], values * 2.0
    blocks = [  # each shares with the block before it:
        DecisionBlock("r0-t0-s0-c0", points, values, guesses, truth),
        DecisionBlock("r0-t1-s0-c0", other_points, values, ~guesses, truth),  # values only
        DecisionBlock("r0-t1-s1-c0", other_points, other_values, guesses, truth),  # points only
        DecisionBlock("r0-t1-s1-c1", other_points, other_values, ~guesses, truth),  # both
        DecisionBlock("r0-t2-s1-c0", points, other_values, guesses.astype(int), truth),  # values
    ]
    result = ExperimentResult("hand", [], DecisionTable(blocks), [], {})
    assert_decisions_csv_is_csv_writer_output(result, tmp_path)


@pytest.fixture(scope="module")
def threshold_run():
    cfg = make_experiment_config()
    return cfg, run_threshold_experiment(cfg)


class TestThresholdExperiment:
    def test_record_grid(self, threshold_run):
        cfg, result = threshold_run
        # repetitions x targets x statistics x calibrations
        assert len(result.records) == 2 * 4 * 2 * 2
        assert result.warnings == []
        ids = [r.run_id for r in result.records]
        assert len(set(ids)) == len(ids)
        assert "r0-t0-s0-c0" in ids
        for record in result.records:
            assert record.statistic in ("loss", "expl_var[gradient]")
            assert record.calibration in ("optimal", "shadow(1)")
            assert np.isfinite(record.tau)
            assert record.epochs == 15

    def test_audits_per_repetition(self, threshold_run):
        _, result = threshold_run
        assert len(result.audits) == 2
        for audit in result.audits:
            assert audit["n_subsets"] == 4
            assert audit["subset_size"] == 20
            assert audit["disjoint"] is True

    def test_decisions_cover_every_run(self, threshold_run):
        _, result = threshold_run
        per_run: dict[str, int] = {}
        for run_id, points, values, decisions, members in result.decisions:
            assert len(points) == len(values) == len(decisions) == len(members)
            per_run[run_id] = per_run.get(run_id, 0) + len(points)
            assert set(decisions.tolist()) <= {0, 1} and set(members.tolist()) <= {0, 1}
        assert set(per_run) == {r.run_id for r in result.records}
        assert all(count == 20 for count in per_run.values())
        assert len(result.decisions) == 20 * len(result.records)

    def test_accuracy_recomputable_from_decisions(self, threshold_run):
        _, result = threshold_run
        recomputed: dict[str, list[bool]] = {}
        for run_id, _, _, decisions, members in result.decisions:
            recomputed.setdefault(run_id, []).extend((decisions == members).tolist())
        for record in result.records:
            assert record.attack_accuracy == pytest.approx(
                np.mean(recomputed[record.run_id]), abs=1e-12
            )

    def test_optimal_beats_shadow_on_same_values(self, threshold_run):
        # The optimal threshold maximizes balanced accuracy on the evaluated
        # values themselves; with 50/50 halves no other tau can beat it.
        _, result = threshold_run
        grouped: dict[tuple, dict[str, float]] = {}
        for record in result.records:
            key = (record.repetition, record.target, record.statistic)
            grouped.setdefault(key, {})[record.calibration] = record.attack_accuracy
        assert len(grouped) == 2 * 4 * 2
        for accs in grouped.values():
            assert accs["optimal"] >= accs["shadow(1)"] - 1e-12

    def test_write_and_rerun_byte_stability(self, threshold_run, tmp_path):
        cfg, result = threshold_run
        paths = {kind: tmp_path / "serial" / f"threshold_{kind}.csv"
                 for kind in ("records", "decisions")}
        assert result.write(tmp_path / "serial").endswith(f"wrote {paths['records']}")
        with open(paths["records"]) as handle:
            header = handle.readline().strip().split(",")
        assert tuple(header) == RECORD_CSV_COLUMNS

        # The rerun goes through the CLI, whose one command tail writes the manifest.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg.to_dict()))
        assert main(["attack", "--config", str(config), "--out", str(tmp_path / "rerun")]) == 0
        for key in ("records", "decisions"):
            rerun = tmp_path / "rerun" / paths[key].name
            assert paths[key].read_bytes() == rerun.read_bytes()

        manifest = json.loads((tmp_path / "rerun" / "threshold_manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(cfg.to_dict())
        assert manifest["seed"] == cfg.seed
        assert {"python", "numpy", "explainleak"} <= set(manifest["versions"])
        assert manifest["audits"] == result.audits
        assert manifest["warnings"] == result.warnings == []
        assert set(manifest["timings"]) == {"total_seconds"}

    def test_decisions_csv_matches_csv_writer(self, threshold_run, tmp_path):
        assert_decisions_csv_is_csv_writer_output(threshold_run[1], tmp_path)

    def test_calibrations_of_a_statistic_share_its_columns(self, threshold_run, tmp_path):
        # optimal and shadow(1) blocks alternate; each pair holds the very points and
        # values arrays of its (target, statistic), whose text the writer makes once
        blocks = list(threshold_run[1].decisions)
        assert len(blocks) == 2 * 4 * 2 * 2  # repetitions x targets x statistics x calibrations
        for optimal, shadow in zip(blocks[::2], blocks[1::2]):
            assert optimal.run_id[:-1] == shadow.run_id[:-1] and shadow.run_id.endswith("-c1")
            assert optimal.points is shadow.points and optimal.values is shadow.values
        assert_decisions_csv_is_csv_writer_output(threshold_run[1], tmp_path)

    def test_decisions_csv_round_trip(self, threshold_run, tmp_path):
        _, result = threshold_run
        result.write(tmp_path)
        with open(tmp_path / "threshold_decisions.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert set(rows[0]) == set(DECISION_CSV_COLUMNS)
        recomputed: dict[str, list[bool]] = {}
        for row in rows:
            recomputed.setdefault(row["run_id"], []).append(
                row["decision"] == row["member"]
            )
        by_id = {r.run_id: r for r in result.records}
        for run_id, hits in recomputed.items():
            assert by_id[run_id].attack_accuracy == pytest.approx(np.mean(hits))


def shadow3_config() -> ExperimentConfig:
    return make_experiment_config(
        statistics=[AttackStatistic("loss")], calibrations=["optimal", "shadow(3)"]
    )


class TestCalibrationCache:
    """Each (target, statistic) is scanned once; shadows reuse siblings' taus."""

    def test_one_scan_per_target_and_statistic(self, monkeypatch):
        calls = []
        real = harness_module.optimal_threshold

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness_module, "optimal_threshold", counting)
        use_cpus(monkeypatch, 1)  # the counter lives in this process, so the targets must too
        result = run_threshold_experiment(shadow3_config())
        assert len(result.records) == 2 * 4 * 2
        assert len(calls) == 2 * 4  # repetitions x targets x statistics

    def test_shadow_tau_is_mean_of_sibling_optimal_taus(self):
        result = run_threshold_experiment(shadow3_config())
        optimal = {
            (r.repetition, r.target): r.tau for r in result.records if r.calibration == "optimal"
        }
        shadows = [r for r in result.records if r.calibration == "shadow(3)"]
        assert len(shadows) == 2 * 4
        for record in shadows:
            siblings = [u for u in range(4) if u != record.target][:3]
            taus = [optimal[(record.repetition, u)] for u in siblings]
            assert record.tau == aggregate_shadow_taus(taus, 3)


class TestWarningChannel:
    def test_training_failure_warns_and_blocks_shadows(self, monkeypatch):
        cfg = shadow3_config()
        failing_seed = child_seed(cfg.seed, "target", 0, 1)
        real = harness_module.train

        def flaky(model, dataset, train_cfg):
            if train_cfg.seed == failing_seed:
                raise TrainingDivergedError(0, 0, float("nan"))
            return real(model, dataset, train_cfg)

        monkeypatch.setattr(harness_module, "train", flaky)
        result = run_threshold_experiment(cfg)
        assert result.warnings[0].startswith("rep 0 target 1: training failed: training diverged")
        assert result.warnings[1:] == [
            f"rep 0 target {t} stat loss shadow(3): shadow model 1 unavailable"
            for t in (0, 2, 3)
        ]
        rep0 = [(r.target, r.calibration) for r in result.records if r.repetition == 0]
        assert rep0 == [(0, "optimal"), (2, "optimal"), (3, "optimal")]
        assert sum(r.repetition == 1 for r in result.records) == 4 * 2

    def test_failed_sibling_entry_is_computed_once(self, monkeypatch, tmp_path):
        # The recorders keep nothing in this process, so the targets may train
        # in worker processes: target 1 is tagged on its model, and each failing
        # call appends a line to a file. The statistic runs once per half, members
        # and non-members; a recompute for each sibling would make more calls.
        cfg = shadow3_config()
        failing_seed = child_seed(cfg.seed, "target", 0, 1)
        real_train, real_values = harness_module.train, harness_module.statistic_values
        calls = tmp_path / "calls"
        calls.write_text("")

        def recording_train(model, dataset, train_cfg):
            trained = real_train(model, dataset, train_cfg)
            trained.is_target1 = train_cfg.seed == failing_seed
            return trained

        def failing_on_target1(stat, model, *args):
            if model.is_target1:
                with open(calls, "a") as handle:
                    handle.write("1\n")
                raise ValueError("bad statistic on target 1")
            return real_values(stat, model, *args)

        monkeypatch.setattr(harness_module, "train", recording_train)
        monkeypatch.setattr(harness_module, "statistic_values", failing_on_target1)
        result = run_threshold_experiment(cfg)
        assert len(calls.read_text().splitlines()) == 2
        assert result.warnings == [
            "rep 0 target 0 stat loss shadow(3): bad statistic on target 1",
            "rep 0 target 1 stat loss: bad statistic on target 1",
            "rep 0 target 2 stat loss shadow(3): bad statistic on target 1",
            "rep 0 target 3 stat loss shadow(3): bad statistic on target 1",
        ]
        rep0 = [(r.target, r.calibration) for r in result.records if r.repetition == 0]
        assert rep0 == [(0, "optimal"), (2, "optimal"), (3, "optimal")]
        assert sum(r.repetition == 1 for r in result.records) == 4 * 2

    def test_statistic_value_error_warns(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("bad statistic")

        monkeypatch.setattr(harness_module, "statistic_values", broken)
        result = run_threshold_experiment(shadow3_config())
        assert result.records == []
        assert result.warnings[0] == "rep 0 target 0 stat loss: bad statistic"
        assert len(result.warnings) == 2 * 4

    def test_nan_statistic_warns_and_records_nothing(self, monkeypatch):
        cfg = make_experiment_config(statistics=[AttackStatistic("loss")], calibrations=["optimal"])
        first_seed = child_seed(cfg.seed, "target", 0, 0)
        real_train, real_values = harness_module.train, harness_module.statistic_values

        def tagging_train(model, dataset, train_cfg):
            trained = real_train(model, dataset, train_cfg)
            trained.nan_next = train_cfg.seed == first_seed  # rep 0, target 0
            return trained

        def first_call_nan(stat, model, *args):
            values = real_values(stat, model, *args)
            if model.nan_next:  # its first call: the member values
                values[0] = np.nan
                model.nan_next = False
            return values

        monkeypatch.setattr(harness_module, "train", tagging_train)
        monkeypatch.setattr(harness_module, "statistic_values", first_call_nan)
        result = run_threshold_experiment(cfg)
        assert result.warnings == [
            "rep 0 target 0 stat loss: member population holds 1 non-finite statistic value(s)"
        ]
        targets = [(r.repetition, r.target) for r in result.records]
        assert (0, 0) not in targets and len(targets) == 2 * 4 - 1
        assert all(np.isfinite(values).all() for _, _, values, _, _ in result.decisions)

    def test_single_valued_statistic_warns_and_keeps_its_records(self):
        # Clusters 1000 apart with no spread saturate the tanh layer: every gradient
        # variance is 0.0, so the scan has no cut to find. The loss takes two values,
        # shared equally by both halves: its chance accuracy is a measurement.
        cfg = make_experiment_config(
            synth=SynthConfig(n_features=4, n_samples=200, class_sep=1000.0, cluster_std=0.0),
            hidden=(5,), train=TrainConfig(epochs=2), repetitions=1, subsets_per_repetition=2,
            points_per_subset=None, seed=0,
            statistics=[AttackStatistic("expl_var", "gradient"), AttackStatistic("loss")])
        result = run_threshold_experiment(cfg)
        assert result.warnings == [
            f"rep 0 target {t} stat expl_var[gradient]: every member and non-member value is 0.0"
            for t in (0, 1)]
        assert len(result.records) == 8
        assert all(r.tau == -np.inf and r.attack_accuracy == 0.5 for r in result.records)

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("statistic_values() got an unexpected argument")

        monkeypatch.setattr(harness_module, "statistic_values", broken)
        with pytest.raises(TypeError):
            run_threshold_experiment(shadow3_config())


def diverging_at(failing_seed: int):
    """`train_target` whose target under failing_seed trains at lr 1e308 and diverges."""
    real = harness_module.train_target

    def train_target(train_set, cfg, seed, n_classes):
        if seed == failing_seed:
            cfg = replace(cfg, train=replace(cfg.train, lr=1e308))
        return real(train_set, cfg, seed, n_classes)

    return train_target


def failing_on(rows: np.ndarray):
    """`statistic_values` whose smoothgrad statistic fails on exactly these feature rows."""
    real = harness_module.statistic_values

    def statistic_values(stat, model, X, labels):
        if stat.method == "smoothgrad" and np.array_equal(X, rows):
            raise ValueError("smoothgrad failed on these rows")
        return real(stat, model, X, labels)

    return statistic_values


@pytest.mark.usefixtures("worker_guard")
class TestWorkerPool:
    """`fork_map` maps a job list over forked workers once it has 2 jobs and 2 usable
    CPUs; a result does not depend on where its jobs ran. The threshold runs' targets
    are its jobs here, as are the leave-one-out blocks and the sweep's dims."""

    @pytest.mark.parametrize("runner", ["threshold", "overfit", "perturbation"])
    def test_same_bytes_on_both_paths(self, monkeypatch, tmp_path, runner):
        cfg = make_experiment_config(calibrations=["optimal", "shadow(1)", "shadow(3)"])
        monkeypatch.setattr(harness_module, "train_target",
                            diverging_at(child_seed(cfg.seed, "target", 1, 2)))
        if runner == "perturbation":  # smoothgrad fails on rep 0 target 1's non-members only
            cfg = replace(cfg, statistics=[
                AttackStatistic("expl_var", "local_surrogate", params={"num_samples": 20}),
                AttackStatistic("expl_var", "smoothgrad", params={"samples": 5, "sigma": 1.0})])
            split = sampling_protocol(cfg.load_dataset(), 4, cfg.points_per_subset,
                                      seed=child_seed(cfg.seed, "protocol", 0))[1]
            monkeypatch.setattr(harness_module, "statistic_values",
                                failing_on(cfg.load_dataset().features[split.test]))
        outputs = {}
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            if runner == "threshold":
                result = run_threshold_experiment(cfg)
            elif runner == "overfit":
                result = run_overfit_sweep(OverfitConfig(**vars(cfg), epoch_grid=[3, 15]))
            else:
                result = run_perturbation_experiment(cfg)
            result.write(tmp_path / str(cpus))
            outputs[cpus] = (result.warnings, result.audits,
                             [(tmp_path / str(cpus) / f"{result.name}_{kind}.csv").read_bytes()
                              for kind in ("records", "decisions")])
        assert outputs[1] == outputs[2]
        failed = [w for w in outputs[1][0] if "training failed" in w]
        assert failed and failed[0].startswith("rep 1 target 2: training failed: training diverged")
        if runner == "perturbation":
            assert outputs[1][0][:2] == [
                "rep 0 target 0 stat expl_var[smoothgrad] shadow(1): smoothgrad failed on these rows",
                "rep 0 target 0 stat expl_var[smoothgrad] shadow(3): smoothgrad failed on these rows",
            ]
            assert "rep 0 target 1 stat expl_var[smoothgrad]: smoothgrad failed on these rows" \
                in outputs[1][0]

    @pytest.mark.parametrize("cpus, jobs, in_workers", [
        (1, 8, False), (2, 8, True), (2, 1, False),
    ])
    def test_where_the_targets_train(self, monkeypatch, cpus, jobs, in_workers):
        # Each target's training fails with the id of the process it ran in.
        def report_pid(*args):
            raise ValueError(f"pid {os.getpid()}")

        monkeypatch.setattr(harness_module, "train_target", report_pid)
        use_cpus(monkeypatch, cpus)
        cfg = make_experiment_config(repetitions=max(jobs // 4, 1),
                                     subsets_per_repetition=min(jobs, 4), calibrations=["optimal"])
        warnings = run_threshold_experiment(cfg).warnings
        assert len(warnings) == jobs
        pids = {int(w.rsplit(" ", 1)[1]) for w in warnings}
        if in_workers:
            assert os.getpid() not in pids and len(pids) <= cpus
        else:
            assert pids == {os.getpid()}

    def test_a_dead_worker_raises(self, monkeypatch, tmp_path, capsys):
        parent = os.getpid()

        def die(*args):
            if os.getpid() == parent:  # never take the test process down with it
                raise AssertionError("the job ran in the test process")
            os._exit(3)

        use_cpus(monkeypatch, 2)
        with pytest.raises(BrokenProcessPool):
            fork_map(die, (), [()] * 4)
        # The CLI ends such a run with exit code 2.
        monkeypatch.setattr(harness_module, "train_target", die)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(shadow3_config().to_dict()))
        assert main(["attack", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "terminated abruptly" in capsys.readouterr().err

    def test_results_come_back_in_job_order(self, monkeypatch):
        def job(scale, i):  # a closure: workers inherit the function, nothing pickles it
            time.sleep(0.2 if i == 0 else 0.0)  # the first job ends last
            return scale * i, os.getpid()

        use_cpus(monkeypatch, 2)
        results = fork_map(job, (10,), [(i,) for i in range(6)])
        assert [value for value, _ in results] == [10 * i for i in range(6)]
        assert os.getpid() not in {pid for _, pid in results}

    def test_each_worker_starts_on_a_cpu_of_its_own_and_may_move(self, monkeypatch):
        real = os.sched_getaffinity
        cpus = real(0)
        if len(cpus) < 2:
            pytest.skip("needs 2 usable CPUs")
        # Pinned to one CPU to move it there, each worker is then widened again.
        assert fork_map(lambda i: real(0), (), [(i,) for i in range(4)]) == [cpus] * 4
        # A CPU the host lacks leaves its worker where it was forked.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {min(cpus), 1 << 20})
        assert fork_map(lambda i: i, (), [(i,) for i in range(4)]) == [0, 1, 2, 3]

    # Raised, a numpy warning fails the run in this process and in a forked worker
    # alike; printed, it would show once per process that met it.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_statistics_print_no_numpy_warning(self, monkeypatch, tmp_path, capfd):
        cfg = make_experiment_config(
            synth=SynthConfig(n_features=3, n_samples=600, class_sep=2.0, seed=1), hidden=(6,),
            train=TrainConfig(optimizer="adagrad", lr=5e307, epochs=3), calibrations=["optimal"],
            statistics=[AttackStatistic("loss"), AttackStatistic("pred_var"),
                        AttackStatistic("expl_var", "gradient"),
                        AttackStatistic("expl_var", "smoothgrad")],
            repetitions=3, points_per_subset=40, seed=1,
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg.to_dict()))
        outputs = {}
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            out = tmp_path / str(cpus)
            assert main(["attack", "--config", str(config), "--out", str(out)]) == 0
            err = capfd.readouterr().err
            assert "RuntimeWarning" not in err
            warnings = json.loads((out / "threshold_manifest.json").read_text())["warnings"]
            outputs[cpus] = (err, warnings, [(out / f"threshold_{kind}.csv").read_bytes()
                                             for kind in ("records", "decisions")])
        assert outputs[1] == outputs[2]
        warnings = outputs[1][1]
        assert any("training failed" in w for w in warnings)
        assert any("non-finite statistic" in w for w in warnings)
        assert outputs[1][2][0].count(b"\n") > 1  # and some targets were scored

    def test_a_worker_error_propagates_and_leaves_no_worker(self, monkeypatch):
        def broken(i):
            if i == 3:
                raise TypeError("a programming error in job 3")
            return i

        use_cpus(monkeypatch, 2)
        with pytest.raises(TypeError, match="job 3"):
            fork_map(broken, (), [(i,) for i in range(6)])
        assert_no_child()
        assert fork_map(broken, (), [(i,) for i in range(3)]) == [0, 1, 2]

    def test_a_map_interrupted_in_the_parent_leaves_no_worker(self, monkeypatch):
        def expire(signum, frame):
            raise TimeoutError("interrupted")

        use_cpus(monkeypatch, 2)
        previous = signal.signal(signal.SIGALRM, expire)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)  # while the workers sleep
            start = time.perf_counter()
            with pytest.raises(TimeoutError, match="interrupted"):
                fork_map(time.sleep, (), [(30,), (30,)])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            signal.alarm(60)  # the guard's deadline again
        assert time.perf_counter() - start < 10
        assert_no_child()

    def test_text_printed_before_a_map_appears_once(self, monkeypatch, capfd):
        use_cpus(monkeypatch, 2)
        # A buffered stdout (capfd's own writes through), so the text is still in this
        # process's buffer at the fork; each worker flushes its stdout before it exits.
        with open(1, "w", closefd=False) as stdout, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            print("before the map", end="")
            assert fork_map(lambda i: print(f" job {i}", end="") or i, (), [(0,), (1,)]) == [0, 1]
        out = capfd.readouterr().out
        assert out.count("before the map") == 1
        assert sorted(out.split(" job ")) == ["0", "1", "before the map"]

    def test_a_forked_map_imports_no_process_pool(self):
        code = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from explainleak.models import fork_map\n"
            "assert fork_map(lambda i: i * i, (), [(i,) for i in range(4)]) == [0, 1, 4, 9]\n"
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
        )
        run = run_python(code)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "[]\n"


class TestOverfitSweep:
    def _cfg(self, epoch_grid) -> OverfitConfig:
        return make_experiment_config(
            OverfitConfig,
            epoch_grid=epoch_grid,
            synth=SynthConfig(n_features=2, n_samples=80, class_sep=2.0, seed=1),
            statistics=[AttackStatistic("expl_var", "gradient")],
            calibrations=["shadow(1)"],  # sweep must override this with optimal
            repetitions=1,
            subsets_per_repetition=2,
            points_per_subset=16,
            train=TrainConfig(optimizer="adagrad", lr=0.05, epochs=999),
        )

    def test_epoch_grid_rows(self):
        result = run_overfit_sweep(self._cfg([1, 8]))
        assert len(result.records) == 2 * 2  # grid x targets, one stat, optimal only
        assert {r.epochs for r in result.records} == {1, 8}
        assert all(r.calibration == "optimal" for r in result.records)
        assert result.config["epoch_grid"] == [1, 8]

    def test_dropped_calibrations_are_warned(self, tmp_path):
        # The sweep once replaced the config's calibrations with optimal silently.
        result = run_overfit_sweep(self._cfg([1, 8]))
        assert result.warnings[0] == ("sweep-epochs scores the optimal calibration only: "
                                      "dropped ['shadow(1)']")
        assert result.config["calibrations"] == ["shadow(1)"]
        cfg = replace(self._cfg([1, 8]), calibrations=["optimal"])
        assert run_overfit_sweep(cfg).warnings == []

    def test_single_entry_grid(self):
        result = run_overfit_sweep(self._cfg([3]))
        assert len(result.records) == 2
        assert all(r.epochs == 3 for r in result.records)

    def test_same_subsets_across_epochs(self):
        # Only the training length may vary along the grid, so decisions for
        # matching run roles must score the exact same points.
        result = run_overfit_sweep(self._cfg([1, 8]))
        points: dict[str, list[int]] = {}
        for run_id, run_points, *_ in result.decisions:
            points.setdefault(run_id, []).extend(run_points.tolist())
        assert points["e1-r0-t0-s0-c0"] == points["e8-r0-t0-s0-c0"]
        assert points["e1-r0-t1-s0-c0"] == points["e8-r0-t1-s0-c0"]

    def test_decisions_csv_matches_csv_writer(self, tmp_path):
        assert_decisions_csv_is_csv_writer_output(run_overfit_sweep(self._cfg([1, 8])), tmp_path)

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigError, match="grid"):
            self._cfg([])


class TestPerturbationExperiment:
    def _cfg(self, **overrides) -> ExperimentConfig:
        return make_experiment_config(
            synth=SynthConfig(n_features=2, n_samples=60, class_sep=2.0, seed=2),
            calibrations=["optimal"],
            repetitions=1,
            subsets_per_repetition=2,
            points_per_subset=8,
            train=TrainConfig(optimizer="adagrad", lr=0.05, epochs=10),
            **overrides,
        )

    def test_default_statistic_bundle(self):
        result = run_perturbation_experiment(self._cfg())
        labels = {r.statistic for r in result.records}
        assert labels == {
            "expl_var[gradient]",
            "pred_var",
            "expl_var[local_surrogate]",
            "expl_var[smoothgrad]",
        }
        assert len(result.records) == 2 * 4  # targets x statistics
        assert result.name == "perturbation"

    def test_existing_perturbation_statistics_kept(self):
        cfg = self._cfg(
            statistics=[
                AttackStatistic(
                    "expl_var", "smoothgrad", params={"samples": 5, "sigma": 0.1}
                )
            ]
        )
        result = run_perturbation_experiment(cfg)
        assert {r.statistic for r in result.records} == {"expl_var[smoothgrad]"}
        assert result.warnings == []

    def test_dropped_statistics_are_warned(self):
        # A config naming neither perturbation method once ran the defaults silently.
        cfg = self._cfg(statistics=[AttackStatistic("loss"),
                                    AttackStatistic("expl_var", "integrated_gradients")])
        result = run_perturbation_experiment(cfg)
        assert result.warnings == ["no perturbation statistic: ran the four defaults, not "
                                   "['loss', 'expl_var[integrated_gradients]']"]
        assert [s["method"] for s in result.config["statistics"]] == [
            "gradient", None, "local_surrogate", "smoothgrad"]
        assert len(result.records) == 2 * 4


def make_campaign_config(**overrides) -> CampaignConfig:
    base = dict(
        synth=SynthConfig(
            n_features=3, n_samples=24, class_sep=2.0, cluster_std=0.8, seed=4
        ),
        train=TrainConfig(optimizer="gd", lr=1.0, epochs=150, batch_size=None),
        train_fraction=0.5,
        reveal_ks=(1, 12),
        graph_k=3,
        traverse_starts=3,
        baseline_queries=10,
        seed=5,
    )
    base.update(overrides)
    return CampaignConfig(**base)


class TestCampaignConfig:
    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_rejects_seed_that_would_alias(self, seed):
        with pytest.raises(ConfigError, match=SEED_RANGE_ERROR):
            make_campaign_config(seed=seed)

    def test_accepts_32_bit_seed_bounds(self):
        assert make_campaign_config(seed=2**32 - 1).seed == 2**32 - 1
        assert make_campaign_config(seed=0).seed == 0

    def test_requires_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            CampaignConfig()
        with pytest.raises(ConfigError, match="exactly one"):
            make_campaign_config(dataset_csv="data.csv")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"train_fraction": 0.0},
            {"train_fraction": 1.2},
            {"reveal_ks": ()},
            {"reveal_ks": (0,)},
            {"graph_k": 0},
            {"traverse_starts": 0},
            {"baseline_queries": -1},
            {"reveal_ks": (5, -1)},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ConfigError):
            make_campaign_config(**overrides)

    def test_dict_round_trip(self):
        cfg = make_campaign_config()
        assert CampaignConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_is_pinned(self):
        assert make_campaign_config(group_column="g", max_points=4).to_dict() == {
            "dataset_csv": None,
            "label_column": "label",
            "group_column": "g",
            "synth": {
                "n_features": 3,
                "n_classes": 2,
                "n_samples": 24,
                "class_sep": 2.0,
                "cluster_std": 0.8,
                "seed": 4,
            },
            "train": {
                "optimizer": "gd",
                "lr": 1.0,
                "lr_decay": 0.0,
                "epochs": 150,
                "batch_size": None,
                "seed": 0,
            },
            "train_fraction": 0.5,
            "reveal_ks": [1, 12],
            "graph_k": 3,
            "traverse_starts": 3,
            "baseline_queries": 10,
            "max_points": 4,
            "seed": 5,
        }

    def test_from_dict_rejects_unknown_keys(self):
        payload = make_campaign_config().to_dict()
        payload["bogus"] = True
        with pytest.raises(ConfigError, match="bogus"):
            CampaignConfig.from_dict(payload)


@pytest.fixture(scope="module")
def campaign():
    cfg = make_campaign_config()
    return cfg, run_reconstruction_campaign(cfg).report


class TestReconstructionCampaign:
    def test_report_shape(self, campaign):
        cfg, report = campaign
        assert set(report) == {
            "config",
            "n_train",
            "n_features",
            "reconstruction",
            "graph",
            "traversal",
            "baselines",
            "reveal_rates",
        }
        assert report["n_train"] == 12
        assert report["n_features"] == 3
        assert report["config"] == cfg.to_dict()
        json.dumps(report)  # must be JSON-ready as emitted

    def test_reconstruction_section(self, campaign):
        _, report = campaign
        recon = report["reconstruction"]
        assert recon["recovered_count"] == len(recon["recovered_indices"])
        assert 0 <= recon["recovered_count"] <= 12
        assert recon["recovered_fraction"] == recon["recovered_count"] / 12
        assert recon["reason"] in (
            "influence_exhausted",
            "repeat_reveal",
            "linear_dependence",
            "dimension_exhausted",
            "max_points",
            "oracle_inconsistent",
        )
        assert recon["queries_total"] >= (
            recon["queries_revealing"] + recon["termination_queries"]
        )
        assert recon["query_budget"] == reconstruction_query_budget(3, 4)

    def test_step_log(self, campaign):
        _, report = campaign
        recon = report["reconstruction"]
        steps = recon["steps"]
        assert len(steps) <= recon["recovered_count"] <= len(steps) + 1
        for entry in steps:
            assert entry["revealed_index"] in recon["recovered_indices"]
            assert len(entry["anchor"]) == 3
            assert entry["queries"] >= 1
            assert isinstance(entry["rank_deficient"], bool)
            if "constraint_normal" in entry:
                assert len(entry["constraint_normal"]) == 3
                assert isinstance(entry["constraint_rhs"], float)

    def test_graph_section(self, campaign):
        _, report = campaign
        assert set(report["graph"]) == {
            "scc_count",
            "singleton_count",
            "largest_scc_size",
            "max_in_degree",
            "zero_in_degree_count",
            "greedy_seed_count",
            "greedy_covered",
        }
        assert 1 <= report["graph"]["largest_scc_size"] <= 12

    def test_traversal_section(self, campaign):
        cfg, report = campaign
        traversal = report["traversal"]
        assert len(traversal["recovered_counts"]) == cfg.traverse_starts
        assert len(traversal["query_counts"]) == cfg.traverse_starts
        assert traversal["mean_recovered"] == pytest.approx(
            np.mean(traversal["recovered_counts"])
        )
        assert traversal["largest_scc_size"] == report["graph"]["largest_scc_size"]
        for count, queries in zip(
            traversal["recovered_counts"], traversal["query_counts"]
        ):
            assert queries == count + 1  # start query plus one per revealed point

    def test_baseline_curves(self, campaign):
        cfg, report = campaign
        curves = report["baselines"]
        assert set(curves) == {"uniform", "marginal", "true_distribution"}
        assert len(curves["uniform"]) == cfg.baseline_queries
        assert len(curves["marginal"]) == cfg.baseline_queries
        assert len(curves["true_distribution"]) == min(cfg.baseline_queries, 12)
        for curve in curves.values():
            assert all(0.0 <= v <= 1.0 for v in curve)
            assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_reveal_rates(self, campaign):
        _, report = campaign
        reveal = report["reveal_rates"]
        assert set(reveal) == {"1", "12"}
        assert 0.0 <= reveal["1"]["self_reveal_rate"] <= 1.0
        # Every point is trivially in its own top-N when k equals the
        # training-set size.
        assert reveal["12"]["self_reveal_rate"] == 1.0

    def test_loo_models_are_stacked_once(self, monkeypatch):
        # The campaign fits one model, the base; the oracle, which is the explainer
        # itself, holds the batched build's two arrays as they came.
        models, oracles, built = [], [], []
        real_post_init, real_init = LogisticModel.__post_init__, InfluenceOracle.__init__
        real_loo = influence_module.train_logistic_loo

        def counting_model(self):
            models.append(self)
            real_post_init(self)

        def counting_oracle(self, *args):
            oracles.append(self)
            real_init(self, *args)

        monkeypatch.setattr(LogisticModel, "__post_init__", counting_model)
        monkeypatch.setattr(InfluenceOracle, "__init__", counting_oracle)
        monkeypatch.setattr(influence_module, "train_logistic_loo",
                            lambda *args: built.append(real_loo(*args)) or built[-1])
        run_reconstruction_campaign(make_campaign_config())
        assert len(models) == 1 and len(oracles) == 1 and len(built) == 1
        (oracle,), ((W, b),) = oracles, built
        assert oracle.base is models[0]
        assert (oracle.loo_w.tobytes(), oracle.loo_b.tobytes()) == (W.tobytes(), b.tobytes())

    def test_rerun_gives_identical_report(self, campaign):
        cfg, report = campaign
        rerun = run_reconstruction_campaign(cfg).report
        assert json.dumps(report, sort_keys=True) == json.dumps(rerun, sort_keys=True)

    def test_rejects_multiclass_dataset(self):
        cfg = make_campaign_config(
            synth=SynthConfig(n_features=3, n_classes=3, n_samples=24, seed=0)
        )
        with pytest.raises(ConfigError, match="binary"):
            run_reconstruction_campaign(cfg)


_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, float("inf"), float("-inf")])
_STRINGS = st.text() | st.sampled_from(["\u0000", "\x1f\n\t\"\\", "\u2028\ud800"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _STRINGS
    | st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1),
    lambda inner: st.lists(inner) | st.dictionaries(_STRINGS, inner),
    max_leaves=30,
)


class TestWriters:
    @settings(max_examples=150, deadline=None)
    @given(obj=_JSON)
    @example(obj={"curve": [i / 7 for i in range(600)], "tail": [0.5] * 257})  # several slices
    def test_write_json_is_json_indent_2(self, tmp_path_factory, obj):
        path = tmp_path_factory.getbasetemp() / "write_json.json"
        write_json(path, obj)
        assert path.read_text() == json.dumps(obj, sort_keys=True, indent=2) + "\n"

    def test_write_json_refuses_a_key_that_is_not_a_str(self, tmp_path):
        # json.dump would write {1: 2} as "1": 2 and sort such keys before converting them.
        with pytest.raises(TypeError, match="str keys only, got 1"):
            write_json(tmp_path / "bad.json", {"a": {1: 2}})

    def test_config_hash_key_order_invariant(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_write_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(
            path,
            {"seed": 3},
            seed=3,
            timings={"total_seconds": 0.5},
            extra={"note": "ok", "counts": {1: 2}},  # json.dumps takes a key that is not a str
        )
        payload = json.loads(path.read_text())
        assert payload["config"] == {"seed": 3}
        assert payload["config_hash"] == config_hash({"seed": 3})
        assert payload["timings"] == {"total_seconds": 0.5}
        assert payload["note"] == "ok"
        assert payload["counts"] == {"1": 2}

    def test_manifest_names_the_package_version(self, tmp_path):
        # Read from the package itself, so it holds when run from a source tree
        # that was never installed.
        path = tmp_path / "manifest.json"
        write_manifest(path, {}, seed=0, timings={})
        versions = json.loads(path.read_text())["versions"]
        assert versions["explainleak"] == explainleak.__version__

    def test_pyproject_version_is_the_package_version(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        declared = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.MULTILINE)
        assert declared.group(1) == explainleak.__version__

    def test_experiment_result_write_names(self, tmp_path):
        result = ExperimentResult(
            name="demo",
            records=[],
            decisions=[],
            warnings=["w"],
            config={"seed": 0},
        )
        summary = result.write(tmp_path)
        assert summary == f"no attack records produced, wrote {tmp_path / 'demo_records.csv'}"
        # The manifest, with the warnings, is the CLI's to write.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["demo_decisions.csv",
                                                              "demo_records.csv"]
