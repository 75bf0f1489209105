"""End-to-end tests of the command-line interface and its exit codes."""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

from explainleak.cli import main
from explainleak.harness import config_hash

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
        assert report["config"]["threads"] == 2


class TestPerturbAttackCommand:
    def test_runs_reduced_scale(self, tmp_path):
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
