"""End-to-end tests of the command-line interface and its exit codes."""
from __future__ import annotations

import contextlib
import functools
import io
import json
import operator
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import use_cpus
from explainleak import cli, harness, synth
from explainleak.cli import build_parser, main
from explainleak.harness import ExperimentConfig, config_hash

ATTACK_PAYLOAD = {
    "synth": {"n_features": 2, "n_samples": 80, "class_sep": 2.0, "seed": 1},
    "hidden": [6],
    "train": {"optimizer": "adagrad", "lr": 0.05, "epochs": 8},
    "statistics": [{"kind": "expl_var", "method": "gradient"}],
    "calibrations": ["optimal"],
    "repetitions": 1,
    "subsets_per_repetition": 2,
    "points_per_subset": 12,
    "seed": 4,
}

RECON_PAYLOAD = {
    "synth": {
        "n_features": 2,
        "n_samples": 16,
        "class_sep": 2.0,
        "cluster_std": 0.7,
        "seed": 2,
    },
    "train": {"optimizer": "gd", "lr": 1.0, "epochs": 100, "batch_size": None},
    "train_fraction": 0.5,
    "reveal_ks": [1, 2],
    "graph_k": 2,
    "traverse_starts": 2,
    "baseline_queries": 5,
    "seed": 9,
}


def write_config(tmp_path, payload, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestExitCodes:
    def test_unknown_flag_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, {"n_features": 2})
        code = main(["synth", "--config", config, "--frobnicate"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["explode"]) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["synth", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["synth", "--config", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_json(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["synth", "--config", str(path)]) == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        payload = dict(ATTACK_PAYLOAD, typo_key=1)
        config = write_config(tmp_path, payload)
        assert main(["attack", "--config", config, "--out", str(tmp_path)]) == 1
        assert "typo_key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, payload, key",
        [
            ("attack", dict(ATTACK_PAYLOAD, train={"epochs": 8, "momentum": 0.9}), "momentum"),
            ("attack", dict(ATTACK_PAYLOAD, synth={"n_features": 2, "n_sample": 80}), "n_sample"),
            (
                "attack",
                dict(ATTACK_PAYLOAD, statistics=[{"kind": "loss", "direction": "leq"}]),
                "direction",
            ),
            ("attack", dict(ATTACK_PAYLOAD, threads=2), "threads"),
            ("reconstruct", dict(RECON_PAYLOAD, train={"optimiser": "gd"}), "optimiser"),
            ("reconstruct", dict(RECON_PAYLOAD, synth={"n_features": 2, "sep": 1.0}), "sep"),
            ("synth", {"n_features": 2, "n_samples": 12, "clusters": 3}, "clusters"),
            ("sweep-dim", {"dims": [1], "arhc": "small", "synth": {"n_features": 1}}, "arhc"),
            ("sweep-dim", {"dims": [1], "synth": {"n_features": 1, "seeed": 2}}, "seeed"),
            ("sweep-dim", {"dims": [1], "synth": {"n_features": 1}, "train": {"epoch": 3}}, "epoch"),
        ],
    )
    def test_unknown_key_at_any_level(self, tmp_path, capsys, command, payload, key):
        config = write_config(tmp_path, payload)
        assert main([command, "--config", config, "--out", str(tmp_path)]) == 1
        assert key in capsys.readouterr().err

    def test_threads_flag_parses_on_every_subcommand(self):
        parser = build_parser()
        for command in (
            "train", "attack", "sweep-dim", "sweep-epochs", "reconstruct", "synth", "perturb-attack"
        ):
            args = parser.parse_args([command, "--config", "c.json", "--threads", "2"])
            assert args.threads == 2

    def test_runtime_failure_exits_two(self, tmp_path, capsys):
        # A malformed dataset passes config validation but fails at load time.
        data = tmp_path / "junk.csv"
        data.write_text("x0,x1,label\n1.0,oops,0\n2.0,3.0,1\n")
        payload = dict(ATTACK_PAYLOAD)
        payload.pop("synth")
        payload["dataset_csv"] = str(data)
        config = write_config(tmp_path, payload)
        code = main(["train", "--config", config, "--out", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x0,x1,label,label\n1.0,2.0,0,0\n", "column 'label' appears more than once"),
            (
                "x0,x1,label\n1.0,2.0,0\n3.0,4.0,99999999999999999999\n",
                "row 3, column 'label': label '99999999999999999999' is not a 64-bit integer",
            ),
        ],
    )
    def test_bad_header_or_label_is_named(self, tmp_path, capsys, text, message):
        # Like every other CSV error, these are runtime failures (exit 2).
        data = tmp_path / "bad.csv"
        data.write_text(text)
        payload = {k: v for k, v in ATTACK_PAYLOAD.items() if k != "synth"}
        payload["dataset_csv"] = str(data)
        config = write_config(tmp_path, payload)
        assert main(["attack", "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_non_finite_csv_cell_exits_two(self, tmp_path, capsys):
        rows = [f"{i % 7}.5,{(i * 3) % 5}.25,{i % 2}" for i in range(40)]
        rows[5], rows[20] = "nan,1.0,1", "2.0,inf,0"
        data = tmp_path / "nonfinite.csv"
        data.write_text("x0,x1,label\n" + "\n".join(rows) + "\n")
        payload = {k: v for k, v in ATTACK_PAYLOAD.items() if k != "synth"}
        payload["dataset_csv"] = str(data)
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["attack", "--config", config, "--out", str(out)]) == 2
        assert "row 7, column 'x0': non-finite value nan" in capsys.readouterr().err
        assert not (out / "threshold_decisions.csv").exists()


class TestSynthCommand:
    def test_writes_csv_and_manifest(self, tmp_path, capsys):
        config = write_config(tmp_path, {"n_features": 2, "n_samples": 12, "seed": 3})
        out = tmp_path / "out"
        assert main(["synth", "--config", config, "--out", str(out)]) == 0
        lines = (out / "synthetic.csv").read_text().splitlines()
        assert len(lines) == 13  # header + one row per point
        assert lines[0].split(",")[-1] == "label"
        assert (out / "synth_manifest.json").exists()
        assert "12 points" in capsys.readouterr().out

    def test_seed_override_changes_output(self, tmp_path):
        config = write_config(tmp_path, {"n_features": 2, "n_samples": 12, "seed": 3})
        out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
        main(["synth", "--config", config, "--out", str(out_a)])
        main(["synth", "--config", config, "--out", str(out_b)])
        main(["synth", "--config", config, "--out", str(out_c), "--seed", "99"])
        base = (out_a / "synthetic.csv").read_bytes()
        assert base == (out_b / "synthetic.csv").read_bytes()
        assert base != (out_c / "synthetic.csv").read_bytes()

    def test_output_feeds_attack(self, tmp_path):
        config = write_config(tmp_path, ATTACK_PAYLOAD["synth"], name="synth.json")
        assert main(["synth", "--config", config, "--out", str(tmp_path / "data")]) == 0
        payload = {k: v for k, v in ATTACK_PAYLOAD.items() if k != "synth"}
        payload["dataset_csv"] = str(tmp_path / "data" / "synthetic.csv")
        attack = write_config(tmp_path, payload, name="attack.json")
        assert main(["attack", "--config", attack, "--out", str(tmp_path / "attack")]) == 0
        assert (tmp_path / "attack" / "threshold_records.csv").exists()


class TestTrainCommand:
    def test_trains_mlp(self, tmp_path, capsys):
        config = write_config(tmp_path, ATTACK_PAYLOAD)
        out = tmp_path / "out"
        assert main(["train", "--config", config, "--out", str(out)]) == 0
        model = json.loads((out / "model.json").read_text())
        assert (out / "train_manifest.json").exists()
        assert "accuracy" in capsys.readouterr().out
        assert model  # serialized parameters present

    def test_trains_logistic(self, tmp_path):
        payload = dict(
            ATTACK_PAYLOAD,
            model_kind="logistic",
            train={"optimizer": "gd", "lr": 0.5, "epochs": 50, "batch_size": None},
        )
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["train", "--config", config, "--out", str(out)]) == 0
        assert (out / "model.json").exists()


class TestAttackCommand:
    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        config = write_config(tmp_path, ATTACK_PAYLOAD)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["attack", "--config", config, "--out", str(out_a)]) == 0
        assert main(["attack", "--config", config, "--out", str(out_b)]) == 0
        for name in ("threshold_records.csv", "threshold_decisions.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert "attack records" in capsys.readouterr().out

    def test_thread_override_keeps_results(self, tmp_path):
        payload = dict(ATTACK_PAYLOAD, repetitions=2)
        config = write_config(tmp_path, payload)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["attack", "--config", config, "--out", str(out_a)]) == 0
        assert (
            main(
                ["attack", "--config", config, "--out", str(out_b), "--threads", "3"]
            )
            == 0
        )
        assert (out_a / "threshold_records.csv").read_bytes() == (
            out_b / "threshold_records.csv"
        ).read_bytes()

    def test_seed_override_recorded_in_manifest(self, tmp_path):
        config = write_config(tmp_path, ATTACK_PAYLOAD)
        out = tmp_path / "out"
        assert (
            main(["attack", "--config", config, "--out", str(out), "--seed", "11"])
            == 0
        )
        manifest = json.loads((out / "threshold_manifest.json").read_text())
        assert manifest["config"]["seed"] == 11
        assert manifest["config_hash"] == config_hash(manifest["config"])


class TestSweepCommands:
    def test_sweep_epochs(self, tmp_path):
        payload = dict(ATTACK_PAYLOAD, epoch_grid=[1, 2])
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["sweep-epochs", "--config", config, "--out", str(out)]) == 0
        lines = (out / "overfit_records.csv").read_text().splitlines()
        header = lines[0].split(",")
        epochs_col = header.index("epochs")
        epochs = {line.split(",")[epochs_col] for line in lines[1:]}
        assert epochs == {"1", "2"}

    @pytest.mark.parametrize("grid", [[1, 2], None], ids=["grid", "default-grid"])
    def test_sweep_epochs_manifest_keeps_its_config(self, tmp_path, grid):
        """The epoch grid is an `OverfitConfig` key; the manifest still records the
        experiment's config with the grid appended, as when the CLI decoded it apart."""
        payload = ATTACK_PAYLOAD if grid is None else {**ATTACK_PAYLOAD, "epoch_grid": grid}
        out = tmp_path / "out"
        assert main(["sweep-epochs", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "overfit_manifest.json").read_text())
        expected = {**ExperimentConfig.from_dict(ATTACK_PAYLOAD).to_dict(),
                    "epoch_grid": grid or list(range(5, 51, 5))}
        assert manifest["config"] == expected
        assert manifest["config_hash"] == config_hash(expected)

    def test_sweep_dim_refuses_a_null_train(self, tmp_path, capsys):
        config = write_config(tmp_path, {**SWEEP_PAYLOAD, "train": None})
        assert main(["sweep-dim", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "config error: train must not be null\n"

    def test_sweep_dim_records_its_default_training(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(tmp_path, SWEEP_PAYLOAD)
        assert main(["sweep-dim", "--config", config, "--out", str(out)]) == 0
        manifest = json.loads((out / "sweep_dim_manifest.json").read_text())
        assert manifest["config"]["train"] == {"optimizer": "adagrad", "lr": 0.01, "lr_decay": 0.0,
                                               "epochs": 100, "batch_size": 32, "seed": 0}

    def test_sweep_dim_csv_layout(self, tmp_path):
        payload = {
            "dims": [1, 2],
            "arch": "small",
            "synth": {"n_features": 1, "n_samples": 40, "class_sep": 2.0, "seed": 5},
            "train": {"optimizer": "adagrad", "lr": 0.05, "epochs": 10},
        }
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["sweep-dim", "--config", config, "--out", str(out)]) == 0
        lines = (out / "dimension_sweep.csv").read_text().splitlines()
        assert lines[0] == "dim,arch,correlation,train_acc,test_acc,seed,diverged"
        assert len(lines) == 3
        assert lines[1].startswith("1,small,")
        assert lines[2].startswith("2,small,")
        assert (out / "sweep_dim_manifest.json").exists()

    def test_sweep_dim_threads_stable(self, tmp_path):
        payload = {
            "dims": [1, 2],
            "arch": "small",
            "synth": {"n_features": 1, "n_samples": 40, "class_sep": 2.0, "seed": 5},
            "train": {"optimizer": "adagrad", "lr": 0.05, "epochs": 10},
        }
        config = write_config(tmp_path, payload)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["sweep-dim", "--config", config, "--out", str(out_a)])
        main(["sweep-dim", "--config", config, "--out", str(out_b), "--threads", "2"])
        assert (out_a / "dimension_sweep.csv").read_bytes() == (
            out_b / "dimension_sweep.csv"
        ).read_bytes()

    def test_sweep_dim_manifest_hashes_the_training_config(self, tmp_path):
        hashes = []
        for epochs in (20, 5):
            payload = {
                "dims": [1],
                "arch": "small",
                "synth": {"n_features": 1, "n_samples": 40, "class_sep": 2.0},
                "train": {"epochs": epochs},
            }
            config = write_config(tmp_path, payload)
            out = tmp_path / f"e{epochs}"
            assert main(["sweep-dim", "--config", config, "--out", str(out), "--seed", "9"]) == 0
            manifest = json.loads((out / "sweep_dim_manifest.json").read_text())
            assert manifest["config"]["train"]["epochs"] == epochs
            assert manifest["config"]["synth"]["seed"] == manifest["seed"] == 9
            hashes.append(manifest["config_hash"])
        assert hashes[0] != hashes[1]

    @pytest.mark.parametrize(
        "payload",
        [
            {"synth": {"n_features": 1}},  # dims missing
            {"dims": [1], "synth": {"n_features": 1}, "arch": "huge"},
            {"dims": [2, 1], "synth": {"n_features": 1}},  # not ascending
        ],
    )
    def test_sweep_dim_config_errors(self, tmp_path, payload, capsys):
        config = write_config(tmp_path, payload)
        assert main(["sweep-dim", "--config", config, "--out", str(tmp_path)]) == 1


class TestReconstructCommand:
    def test_writes_report_graph_and_manifest(self, tmp_path, capsys):
        config = write_config(tmp_path, RECON_PAYLOAD)
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", config, "--out", str(out)]) == 0
        report = json.loads((out / "reconstruction_report.json").read_text())
        assert report["n_train"] == 8
        assert "steps" in report["reconstruction"]
        lines = (out / "graph_metrics.csv").read_text().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        values = lines[1].split(",")
        assert set(header) == set(report["graph"])
        assert len(values) == len(header)
        assert (out / "reconstruct_manifest.json").exists()
        assert "reconstruction recovered" in capsys.readouterr().out

    def test_seed_and_thread_overrides(self, tmp_path):
        config = write_config(tmp_path, RECON_PAYLOAD)
        out = tmp_path / "out"
        code = main(
            [
                "reconstruct",
                "--config",
                config,
                "--out",
                str(out),
                "--seed",
                "77",
                "--threads",
                "2",
            ]
        )
        assert code == 0
        report = json.loads((out / "reconstruction_report.json").read_text())
        assert report["config"]["seed"] == 77
        assert "threads" not in report["config"]


class TestPerturbAttackCommand:
    def test_runs_reduced_scale(self, tmp_path, capsys):
        payload = dict(
            ATTACK_PAYLOAD,
            synth={"n_features": 2, "n_samples": 40, "class_sep": 2.0, "seed": 6},
            points_per_subset=6,
        )
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["perturb-attack", "--config", config, "--out", str(out)]) == 0
        lines = (out / "perturbation_records.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 4  # header + targets x default statistics
        # The config's gradient statistic was swapped for the defaults, and it says so.
        warning = "no perturbation statistic: ran the four defaults, not ['expl_var[gradient]']"
        assert capsys.readouterr().err == f"warning: {warning}\n"
        manifest = json.loads((out / "perturbation_manifest.json").read_text())
        assert manifest["warnings"] == [warning]


@pytest.mark.usefixtures("worker_guard")
def test_reconstruct_writes_the_same_bytes_with_a_forked_cache(tmp_path, monkeypatch):
    # 520 points at train_fraction 0.5 leave 260 to train on: 2 leave-one-out blocks.
    synth = {**RECON_PAYLOAD["synth"], "n_samples": 520}
    config = write_config(tmp_path, {**RECON_PAYLOAD, "synth": synth, "train": {
        **RECON_PAYLOAD["train"], "epochs": 30}})
    outputs = {}
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / str(cpus)
        assert main(["reconstruct", "--config", config, "--out", str(out)]) == 0
        outputs[cpus] = [(out / name).read_bytes()
                         for name in ("reconstruction_report.json", "graph_metrics.csv")]
    assert outputs[1] == outputs[2]
    assert json.loads(outputs[1][0])["n_train"] == 260


class TestSeedRange:
    """Seeds m and m + 2**32 would give the same experiment, so a seed outside
    [0, 2**32), from the config or from --seed, is a config error."""

    @pytest.mark.parametrize("seed", [-1, 2**32])
    @pytest.mark.parametrize("command, payload",
                             [("attack", ATTACK_PAYLOAD), ("reconstruct", RECON_PAYLOAD)])
    def test_config_seed_exits_1(self, tmp_path, capsys, command, payload, seed):
        config = write_config(tmp_path, dict(payload, seed=seed))
        assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert f"seed must be in [0, 2**32), got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [-1, 2**32])
    @pytest.mark.parametrize("command, payload",
                             [("perturb-attack", ATTACK_PAYLOAD), ("reconstruct", RECON_PAYLOAD)])
    def test_seed_override_exits_1(self, tmp_path, capsys, command, payload, seed):
        config = write_config(tmp_path, payload)
        argv = [command, "--config", config, "--out", str(tmp_path / "out"), "--seed", str(seed)]
        assert main(argv) == 1
        assert f"seed must be in [0, 2**32), got {seed}" in capsys.readouterr().err


class TestConfigErrorsCaughtEarly:
    """Configs that used to fail late (exit 2) or run on a silently changed
    setting exit 1 with a config error."""

    @pytest.mark.parametrize("command", ["attack", "perturb-attack"])
    def test_resampled_subset_larger_than_dataset(self, tmp_path, capsys, command):
        payload = dict(ATTACK_PAYLOAD, resample=True, points_per_subset=100)
        config = write_config(tmp_path, payload)
        assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "subsets of 100 points" in err and "only 80" in err

    @pytest.mark.parametrize("max_points", [0, -3])
    def test_non_positive_max_points(self, tmp_path, capsys, max_points):
        config = write_config(tmp_path, dict(RECON_PAYLOAD, max_points=max_points))
        assert main(["reconstruct", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert "max_points must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_graph_k_above_the_training_points(self, tmp_path, capsys, monkeypatch):
        # 12 points, 6 of them in the train split: no graph row holds 50 reveals.
        built = []
        monkeypatch.setattr(harness, "build_loo_cache", lambda *args: built.append(args))
        payload = {**RECON_PAYLOAD, "synth": {**RECON_PAYLOAD["synth"], "n_samples": 12},
                   "graph_k": 50}
        config = write_config(tmp_path, payload)
        assert main(["reconstruct", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert "graph_k (50) exceeds the 6 training points" in capsys.readouterr().err
        assert not built
        assert not (tmp_path / "out").exists()

    def test_reveal_ks_above_the_training_points(self, tmp_path, capsys, monkeypatch):
        # 12 points, 6 of them in the train split: a "top-50" rate would be a top-6 rate.
        built = []
        monkeypatch.setattr(harness, "build_loo_cache", lambda *args: built.append(args))
        payload = {**RECON_PAYLOAD, "synth": {**RECON_PAYLOAD["synth"], "n_samples": 12},
                   "reveal_ks": [1, 50]}
        config = write_config(tmp_path, payload)
        assert main(["reconstruct", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert "reveal_ks (50) exceeds the 6 training points" in capsys.readouterr().err
        assert not built
        assert not (tmp_path / "out").exists()

    def test_max_points_one_still_runs(self, tmp_path):
        config = write_config(tmp_path, dict(RECON_PAYLOAD, max_points=1))
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", config, "--out", str(out)]) == 0
        report = json.loads((out / "reconstruction_report.json").read_text())
        assert report["reconstruction"]["recovered_count"] == 1


def _stat(method, params):
    return {"statistics": [{"kind": "expl_var", "method": method, "params": params}]}


_LOGISTIC = {"model_kind": "logistic",
             "train": {"optimizer": "gd", "lr": 0.5, "epochs": 5, "batch_size": None}}


class TestConfigMistakesExitOneBeforeTraining:
    """Each of these configs once trained every target and then exited 2, or
    exited 0 with only warnings and no records, or ran with a setting ignored."""

    @pytest.mark.parametrize("command, change, message", [
        ("attack", _stat("local_surrogate", {"num_sample": 50}),
         "unknown SurrogateConfig keys: ['local_surrogate.num_sample']"),
        ("attack", _stat("smoothgrad", {"samples": 0}), "samples must be at least 1"),
        ("attack", _stat("gradient", {"sigma": 5}), "gradient does not take params ['sigma']"),
        ("attack", {"hidden": [0]}, "layer width must be at least 1"),
        ("attack", {"activation": "swish"}, "activation must be one of"),
        ("sweep-epochs", {"epoch_grid": [0, 5]}, "every entry >= 1, got [0, 5]"),
        ("sweep-epochs", {"epoch_grid": [2, 3, 2]}, "epoch grid repeats budget 2: [2, 3, 2]"),
        ("attack", {**_stat("lrp", {}), **_LOGISTIC},
         "lrp walks MlpModel layers, which a logistic target lacks"),
        ("attack", {**_stat("guided_backprop", {}), **_LOGISTIC},
         "guided_backprop walks MlpModel layers, which a logistic target lacks"),
    ], ids=["params-typo", "zero-samples", "params-on-gradient", "zero-width", "activation",
            "zero-epochs", "repeated-epochs", "logistic-lrp", "logistic-guided-backprop"])
    def test_exits_1_before_training(self, tmp_path, capsys, monkeypatch, command, change,
                                     message):
        trained = []
        for name in ("train", "train_logistic"):
            monkeypatch.setattr(harness, name, lambda *args: trained.append(args))
        config = write_config(tmp_path, {**ATTACK_PAYLOAD, **change})
        assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not trained
        assert not (tmp_path / "out").exists()


def _train(**settings):
    return {"train": {"optimizer": "gd", "lr": 0.5, "epochs": 50, "batch_size": None, **settings}}


SWEEP_PAYLOAD = {"dims": [1], "arch": "small",
                 "synth": {"n_features": 1, "n_samples": 40, "class_sep": 2.0}}


class TestUnreadTrainingSettingsExitOne:
    """A training setting that no fit reads is refused before any fit: every
    config derives each fit's seed, and a logistic fit reads only lr and epochs."""

    @pytest.mark.parametrize("command, payload, message", [
        ("attack", {**ATTACK_PAYLOAD, "model_kind": "logistic",
                    "train": {"optimizer": "adagrad", "lr": 0.5, "epochs": 50}},
         "train.optimizer must be 'gd' for a logistic target, got 'adagrad'"),
        ("attack", {**ATTACK_PAYLOAD, "model_kind": "logistic", **_train(lr_decay=0.5)},
         "train.lr_decay must be 0 for a logistic target, got 0.5"),
        ("reconstruct", {**RECON_PAYLOAD, **_train(optimizer="adam")},
         "train.optimizer must be 'gd' for a logistic target, got 'adam'"),
        ("reconstruct", {**RECON_PAYLOAD, **_train(lr_decay=5.0)},
         "train.lr_decay must be 0 for a logistic target, got 5.0"),
        ("attack", {**ATTACK_PAYLOAD, "train": {**ATTACK_PAYLOAD["train"], "seed": 7}},
         "train.seed must be 0 (each fit's seed is derived), got 7"),
        ("reconstruct", {**RECON_PAYLOAD, **_train(seed=7)},
         "train.seed must be 0 (each fit's seed is derived), got 7"),
        ("sweep-dim", {**SWEEP_PAYLOAD, "train": {"epochs": 2, "seed": 7}},
         "train.seed must be 0 (each fit's seed is derived), got 7"),
    ], ids=["logistic-optimizer", "logistic-lr-decay", "campaign-optimizer", "campaign-lr-decay",
            "experiment-seed", "campaign-seed", "sweep-seed"])
    def test_exits_1_before_any_fit(self, tmp_path, capsys, monkeypatch, command, payload,
                                    message):
        fits = []
        for owner, name in [(harness, "train"), (harness, "train_logistic"),
                            (harness, "build_loo_cache"), (synth, "train")]:
            monkeypatch.setattr(owner, name, lambda *args: fits.append(args))
        config = write_config(tmp_path, payload)
        assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not fits
        assert not (tmp_path / "out").exists()


class TestMistypedValuesExitOne:
    """A config value of the wrong JSON type is a config error naming its field,
    raised before any fit. Each of these once exited 0 on a converted value
    (seed 1.5 ran seed 1's experiment, width 8.5 trained width 8), exited 2
    with an error naming no field, or iterated a string as a list."""

    @pytest.mark.parametrize("command, payload, message", [
        ("attack", {**ATTACK_PAYLOAD, "seed": 1.5}, "seed must be an integer, got 1.5"),
        ("attack", {**ATTACK_PAYLOAD, "hidden": [8.5]}, "hidden must be an integer, got 8.5"),
        ("attack", {**ATTACK_PAYLOAD, "repetitions": 1.5},
         "repetitions must be an integer, got 1.5"),
        ("attack", {**ATTACK_PAYLOAD, "train": {**ATTACK_PAYLOAD["train"], "epochs": 2.5}},
         "train.epochs must be an integer, got 2.5"),
        ("attack", {**ATTACK_PAYLOAD, **_stat("smoothgrad", {"samples": 2.5})},
         "smoothgrad.samples must be an integer, got 2.5"),
        ("attack", {**ATTACK_PAYLOAD, **_stat("local_surrogate", {"kernel_width": "wide"})},
         "local_surrogate.kernel_width must be a number, got 'wide'"),
        ("synth", {"n_features": 2, "n_samples": 40.5}, "n_samples must be an integer, got 40.5"),
        ("reconstruct", {**RECON_PAYLOAD, "graph_k": 2.5}, "graph_k must be an integer, got 2.5"),
        ("reconstruct", {**RECON_PAYLOAD, "traverse_starts": 2.5},
         "traverse_starts must be an integer, got 2.5"),
        ("attack", {**ATTACK_PAYLOAD, "calibrations": "optimal"},
         "calibrations must be a list, got 'optimal'"),
        ("sweep-epochs", {**ATTACK_PAYLOAD, "epoch_grid": [1.5]},
         "epoch_grid must be an integer, got 1.5"),
        ("attack", {**ATTACK_PAYLOAD, "statistics": [{"kind": "loss", "use_l1": 1}]},
         "statistics.use_l1 must be a boolean, got 1"),
        # A nested config that is not an object once named only its class.
        ("reconstruct", {**RECON_PAYLOAD, "synth": [1]}, "synth must be a JSON object, got [1]"),
        ("attack", {**ATTACK_PAYLOAD, "train": 5}, "train must be a JSON object, got 5"),
        ("attack", {**ATTACK_PAYLOAD, "statistics": ["loss"]},
         "statistics must be a JSON object, got 'loss'"),
    ], ids=["seed", "hidden", "repetitions", "epochs", "samples", "kernel_width", "n_samples",
            "graph_k", "traverse_starts", "calibrations", "epoch_grid", "use_l1", "synth-list",
            "train-number", "statistic-string"])
    def test_exits_1_naming_the_field(self, tmp_path, capsys, monkeypatch, command, payload,
                                      message):
        fits = []
        for owner, name in [(harness, "train"), (harness, "build_loo_cache"),
                            (harness, "generate_synthetic")]:
            monkeypatch.setattr(owner, name, lambda *args: fits.append(args))
        config = write_config(tmp_path, payload)
        assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not fits
        assert not (tmp_path / "out").exists()

    def test_a_float_field_takes_an_int_as_it_is(self, tmp_path):
        # The report and the manifest echo the config, so an int stays an int.
        payload = {**RECON_PAYLOAD, "train_fraction": 1,
                   "synth": {**RECON_PAYLOAD["synth"], "class_sep": 2}}
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", config, "--out", str(out)]) == 0
        echoed = json.loads((out / "reconstruction_report.json").read_text())["config"]
        assert type(echoed["train_fraction"]) is type(echoed["synth"]["class_sep"]) is int


_SMALL_ATTACK = {**ATTACK_PAYLOAD, "train": {**ATTACK_PAYLOAD["train"], "epochs": 2}}
# A small valid config for each subcommand, and the name of its manifest.
TAIL_PAYLOADS = {
    "synth": ({"n_features": 2, "n_samples": 12, "seed": 3}, "synth"),
    "train": (_SMALL_ATTACK, "train"),
    "attack": (_SMALL_ATTACK, "threshold"),
    # It names a perturbation method: with none, the run warns that it swapped in the defaults.
    "perturb-attack": ({**_SMALL_ATTACK, "points_per_subset": 6, "statistics": [
        {"kind": "expl_var", "method": "smoothgrad", "params": {"samples": 2}}]}, "perturbation"),
    "sweep-epochs": ({**_SMALL_ATTACK, "epoch_grid": [1, 2]}, "overfit"),
    "sweep-dim": ({**SWEEP_PAYLOAD, "train": {"epochs": 2}}, "sweep_dim"),
    "reconstruct": (RECON_PAYLOAD, "reconstruct"),
}


# Clusters 1000 apart with no spread saturate a tanh layer after 2 epochs: every
# input-gradient statistic is 0.0. A config for each runner command that warns, the
# name of its manifest, and its warnings.
_SATURATED = {"n_features": 4, "n_samples": 200, "class_sep": 1000.0, "cluster_std": 0.0,
              "seed": 0}
WARNING_CASES = {
    "attack": ({"synth": _SATURATED, "hidden": [5], "train": {"epochs": 2},
                "statistics": [{"kind": "expl_var", "method": "gradient"}, {"kind": "loss"}],
                "calibrations": ["optimal", "shadow(1)"], "subsets_per_repetition": 2},
               "threshold",
               [f"rep 0 target {t} stat expl_var[gradient]: every member and non-member value "
                "is 0.0" for t in (0, 1)]),
    "perturb-attack": (_SMALL_ATTACK, "perturbation", [
        "no perturbation statistic: ran the four defaults, not ['expl_var[gradient]']"]),
    "sweep-epochs": ({**_SMALL_ATTACK, "epoch_grid": [1, 2],
                      "calibrations": ["optimal", "shadow(1)"]}, "overfit", [
        "sweep-epochs scores the optimal calibration only: dropped ['shadow(1)']"]),
    "sweep-dim": ({"dims": [4, 8], "arch": "small", "train": {"epochs": 2},
                   "synth": _SATURATED}, "sweep_dim",
                  [f"dim {d}: every gradient norm is the same value, so the correlation is "
                   "undefined" for d in (4, 8)]),
    "reconstruct": (RECON_PAYLOAD, "reconstruct", ["a campaign warning"]),
}


class TestCommandTail:
    """Every subcommand ends in `main`'s one tail: one manifest, timed as a
    whole, then the summary on stdout and each warning on stderr."""

    @pytest.mark.parametrize("command", list(TAIL_PAYLOADS))
    def test_one_timed_manifest_per_run(self, tmp_path, capsys, monkeypatch, command):
        payload, name = TAIL_PAYLOADS[command]
        written = []
        real = cli.write_manifest
        monkeypatch.setattr(cli, "write_manifest", lambda *a: written.append(a) or real(*a))
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out), "--seed", "6"]) == 0
        assert [a[0] for a in written] == [out / f"{name}_manifest.json"]
        manifest = json.loads((out / f"{name}_manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(manifest["config"])
        assert manifest["seed"] == 6
        assert list(manifest["timings"]) == ["total_seconds"]
        assert manifest["timings"]["total_seconds"] > 0
        assert manifest["warnings"] == []
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 1 and captured.err == ""

    @pytest.mark.parametrize("command", list(WARNING_CASES))
    def test_each_runner_warning_reaches_the_manifest_and_stderr(
            self, tmp_path, capsys, monkeypatch, command):
        payload, name, warnings = WARNING_CASES[command]
        if command == "reconstruct":  # no campaign warns yet, so the runner is wrapped
            real = cli.run_reconstruction_campaign

            def warning_campaign(cfg):
                result = real(cfg)
                result.warnings.append("a campaign warning")
                return result

            monkeypatch.setattr(cli, "run_reconstruction_campaign", warning_campaign)
        out = tmp_path / "out"
        config = write_config(tmp_path, payload)
        assert main([command, "--config", config, "--out", str(out)]) == 0
        assert json.loads((out / f"{name}_manifest.json").read_text())["warnings"] == warnings
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 1
        assert captured.err == "".join(f"warning: {w}\n" for w in warnings)

    def test_sweep_epochs_warnings_name_their_budget(self, tmp_path, capsys):
        # The saturated attack at two budgets: each budget's warnings lead with its run id
        # prefix, as its records do, so no two warnings read alike.
        payload = {**WARNING_CASES["attack"][0], "calibrations": ["optimal"], "epoch_grid": [1, 2]}
        out = tmp_path / "out"
        assert main(["sweep-epochs", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 0
        warnings = json.loads((out / "overfit_manifest.json").read_text())["warnings"]
        assert warnings == [f"e{e}-rep 0 target {t} stat expl_var[gradient]: every member and "
                            "non-member value is 0.0" for e in (1, 2) for t in (0, 1)]
        assert capsys.readouterr().err == "".join(f"warning: {w}\n" for w in warnings)

    @pytest.mark.parametrize("command", list(TAIL_PAYLOADS))
    def test_manifest_is_json_indent_2(self, tmp_path, command):
        # `write_manifest` streams through `write_json`, the one JSON writer.
        payload, name = TAIL_PAYLOADS[command]
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 0
        written = (out / f"{name}_manifest.json").read_bytes()
        assert written == (json.dumps(json.loads(written), sort_keys=True, indent=2)
                           + "\n").encode()

    def test_warnings_go_to_the_manifest_and_stderr(self, tmp_path, capsys):
        # Adam at lr 1e102 through relu layers: both targets diverge, and the
        # run goes on with warnings and no records.
        payload = {**ATTACK_PAYLOAD, "hidden": [50, 50], "activation": "relu",
                   "train": {"optimizer": "adam", "lr": 1e102, "epochs": 8, "batch_size": 8}}
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["attack", "--config", config, "--out", str(out)]) == 0
        manifest = json.loads((out / "threshold_manifest.json").read_text())
        captured = capsys.readouterr()
        assert captured.out.startswith("no attack records produced")
        assert len(manifest["warnings"]) == 2
        assert all("training diverged" in w for w in manifest["warnings"])
        assert captured.err == "".join(f"warning: {w}\n" for w in manifest["warnings"])
        assert len(manifest["audits"]) == 1


def _json_kind(value) -> str:
    return "null" if value is None else type(value).__name__  # bool, int, float, str, list, dict


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6),
                          st.floats(-1e6, 1e6), st.text(max_size=4))
_JSON_VALUES = {
    "null": st.none(), "bool": st.booleans(), "int": st.integers(-10**6, 10**6),
    "float": st.floats(-1e6, 1e6), "str": st.text(max_size=4),
    "list": st.lists(_JSON_SCALARS, max_size=2),
    "dict": st.dictionaries(st.text(max_size=3), _JSON_SCALARS, max_size=2),
}


def _fields(payload):
    """(path, name) of every value of a config and of every value one level below it: a
    nested config's fields, a list's items and, for a list of configs, their fields. A
    config error about the value at path names it by name, its key or its list's key."""
    found = []
    for key, value in payload.items():
        found.append(((key,), key))
        children = value.items() if isinstance(value, dict) else enumerate(
            value if isinstance(value, list) else [])
        for sub, child in children:
            found.append(((key, sub), sub if isinstance(sub, str) else key))
            if isinstance(child, dict):
                found += [((key, sub, leaf), leaf) for leaf in child]
    return found


@st.composite
def mistyped_configs(draw):
    """A `TAIL_PAYLOADS` config with one value swapped for a value of another JSON type."""
    command = draw(st.sampled_from(sorted(TAIL_PAYLOADS)), label="command")
    payload = json.loads(json.dumps(TAIL_PAYLOADS[command][0]))  # a deep copy
    path, name = draw(st.sampled_from(_fields(payload)), label="field")
    *parents, last = path
    owner = functools.reduce(operator.getitem, parents, payload)
    kinds = sorted(set(_JSON_VALUES) - {_json_kind(owner[last])})
    owner[last] = draw(st.sampled_from(kinds).flatmap(_JSON_VALUES.get), label="value")
    return command, payload, name


class TestNestedValueErrorsNameTheirPath:
    """A value refused by a nested config's own checks is named by the config's path
    (it once read `bad TrainConfig: lr must be positive`); a top-level config keeps
    its class name."""

    @pytest.mark.parametrize("command, payload, message", [
        ("reconstruct", {**RECON_PAYLOAD, "train": {**RECON_PAYLOAD["train"], "lr": -1}},
         "bad train: lr must be positive"),
        ("reconstruct", {**RECON_PAYLOAD, "synth": {**RECON_PAYLOAD["synth"], "class_sep": 0}},
         "bad synth: class_sep must be positive"),
        ("attack", {**ATTACK_PAYLOAD, **_stat("smoothgrad", {"samples": 0})},
         "bad smoothgrad: samples must be at least 1"),
    ], ids=["train", "synth", "smoothgrad"])
    def test_exits_1_naming_the_path(self, tmp_path, capsys, command, payload, message):
        config = write_config(tmp_path, payload)
        assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestMistypedFieldProperty:
    """Any one value of a valid config swapped for a value of another JSON type is
    either accepted (a float field takes an int, an optional field null) or refused
    with exit 1 and a message naming the field: never a runtime failure (exit 2)."""

    @settings(max_examples=60, deadline=None)
    @given(case=mistyped_configs())
    def test_exits_0_or_1_naming_the_field(self, case):
        command, payload, name = case
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(payload))
            code = main([command, "--config", str(config), "--out", str(Path(tmp) / "out")])
        assert code in (0, 1), err.getvalue()
        if code == 1:
            assert re.search(rf"(?<!\w){re.escape(name)}(?!\w)", err.getvalue()), err.getvalue()


def _synth_seed(command, seed):
    """The command's small valid config with its synthetic template's seed set."""
    payload = TAIL_PAYLOADS[command][0]
    if command == "synth":
        return {**payload, "seed": seed}
    return {**payload, "synth": {**payload["synth"], "seed": seed}}


class TestDataMistakesNeverTrain:
    """Each of these is refused before any fit. Most once failed only when numpy
    met them: a negative synthetic seed exited 2 with numpy's message naming no
    field, a file without a feature column exited 2 from deep inside the first
    fit, and a per-feature param of the wrong length trained every target and
    exited 0 with only warnings. Sweep dims too small for the classes are now
    refused when the `SweepConfig` is built."""

    @pytest.fixture
    def fits(self, monkeypatch):
        fits = []
        for owner, name in [(harness, "train"), (harness, "train_logistic"),
                            (harness, "build_loo_cache"), (synth, "train")]:
            monkeypatch.setattr(owner, name, lambda *args: fits.append(args))
        return fits

    def _run(self, tmp_path, recwarn, command, payload, *flags):
        config = write_config(tmp_path, payload)
        code = main([command, "--config", config, "--out", str(tmp_path / "out"), *flags])
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        return code

    @pytest.mark.parametrize("command", list(TAIL_PAYLOADS))
    def test_negative_synthetic_seed_exits_1(self, tmp_path, capsys, recwarn, fits, command):
        assert self._run(tmp_path, recwarn, command, _synth_seed(command, -1)) == 1
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not fits
        assert not (tmp_path / "out").exists()

    def test_negative_sweep_seed_override_exits_1(self, tmp_path, capsys, recwarn, fits):
        payload = TAIL_PAYLOADS["sweep-dim"][0]
        assert self._run(tmp_path, recwarn, "sweep-dim", payload, "--seed", "-1") == 1
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not fits

    def test_sweep_dim_with_too_few_vertices_exits_1(self, tmp_path, capsys, recwarn, fits):
        payload = {**SWEEP_PAYLOAD, "dims": [1, 4], "synth": {**SWEEP_PAYLOAD["synth"],
                                                             "n_features": 4, "n_classes": 3}}
        assert self._run(tmp_path, recwarn, "sweep-dim", payload) == 1
        assert "3 classes need 3 distinct vertices but a 1-cube has only 2" in (
            capsys.readouterr().err)
        assert not fits

    @pytest.mark.parametrize("command", ["train", "attack", "reconstruct"])
    def test_csv_without_a_feature_column_exits_2_naming_the_file(
            self, tmp_path, capsys, recwarn, fits, command):
        csv_path = tmp_path / "labels_only.csv"
        csv_path.write_text("label\n0\n1\n0\n1\n")
        payload = {**TAIL_PAYLOADS[command][0], "synth": None, "dataset_csv": str(csv_path)}
        assert self._run(tmp_path, recwarn, command, payload) == 2
        assert capsys.readouterr().err == f"error: {csv_path}: no feature column besides " \
                                          "the label and group columns\n"
        assert not fits

    @pytest.mark.parametrize("command, method, params, message", [
        ("attack", "integrated_gradients", {"baseline": [0, 0]},
         "integrated_gradients.baseline needs one entry per feature (6), got shape (2,)"),
        ("attack", "smoothgrad", {"sigma": [1, 2, 3]},
         "smoothgrad.sigma needs one entry per feature (6), got shape (3,)"),
        ("sweep-epochs", "integrated_gradients", {"baseline": 0},
         "integrated_gradients.baseline needs one entry per feature (6), got shape ()"),
        ("perturb-attack", "smoothgrad", {"sigma": [[1] * 6]},
         "smoothgrad.sigma needs one entry per feature (6), got shape (1, 6)"),
    ], ids=["baseline", "sigma", "scalar-baseline", "sigma-matrix"])
    def test_per_feature_param_of_the_wrong_length_exits_1(
            self, tmp_path, capsys, recwarn, fits, command, method, params, message):
        payload = {**TAIL_PAYLOADS[command][0], **_stat(method, params),
                   "synth": {**ATTACK_PAYLOAD["synth"], "n_features": 6}}
        assert self._run(tmp_path, recwarn, command, payload) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not fits
        assert not (tmp_path / "out").exists()


class TestInstalledEntryPoints:
    def test_module_execution(self, tmp_path):
        config = write_config(tmp_path, {"n_features": 2, "n_samples": 6, "seed": 0})
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "explainleak",
                "synth",
                "--config",
                config,
                "--out",
                str(tmp_path / "out"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "synthetic.csv").exists()

    def test_module_execution_propagates_failure_code(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "explainleak",
                "synth",
                "--config",
                str(tmp_path / "missing.json"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
