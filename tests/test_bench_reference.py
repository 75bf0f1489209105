"""The CLI still reproduces the benchmark's recorded outputs.

``leakbench/run.py`` checks every output against the fingerprints in
``leakbench/reference/``, but only when the benchmark runs. Replaying two
instances of each reconstruction workload here holds the influence read paths
(blind baselines, the reveal table, the oracle) to those references on every
test run, and one instance of ``perturbation`` holds the sampled explanations
(the surrogate and smoothgrad through an MLP's shared first layer) to them.
One instance of ``membership_csv`` holds CSV parsing and the decision writer
to its fingerprint exactly, and instance 0 of each reconstruction workload holds
the report writer to json's own text.
"""
from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from explainleak.cli import main
from explainleak.harness import CampaignConfig, run_reconstruction_campaign, write_json

BENCH = Path(__file__).resolve().parent.parent / "leakbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"leakbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while building
    spec.loader.exec_module(module)
    return module


outputs = _load("outputs")
workloads = _load("workloads")


def _replay(tmp_path, workload: str, command: str, instance: int) -> str:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.experiment_config(workload, instance, tmp_path)))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    got = outputs.fingerprint(outputs.parse_outputs(command, out))
    reference = json.loads((BENCH / "reference" / f"{workload}.json").read_text())
    verdict, detail = outputs.compare(got, reference["instances"][str(instance)])
    assert verdict in ("exact", "tolerance"), detail
    return verdict


@pytest.mark.parametrize("instance", [0, 1])
@pytest.mark.parametrize("workload", ["reconstruction", "influence_queries"])
def test_report_matches_recorded_fingerprint(tmp_path, capsys, workload, instance):
    _replay(tmp_path, workload, "reconstruct", instance)


@pytest.mark.parametrize("workload", ["reconstruction", "influence_queries"])
def test_report_bytes_are_json_indent_2(tmp_path, workload):
    """Instance 0's report, as `write_json` streams it, is json's `indent=2` text."""
    config = workloads.experiment_config(workload, 0, tmp_path)
    report = run_reconstruction_campaign(CampaignConfig.from_dict(config)).report
    write_json(tmp_path / "report.json", report)
    expected = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "report.json").read_text() == expected


def test_perturbation_records_match_recorded_fingerprint(tmp_path, capsys):
    _replay(tmp_path, "perturbation", "perturb-attack", 0)


def test_membership_csv_matches_recorded_fingerprint_exactly(tmp_path, capsys):
    workloads.write_membership_csv(tmp_path / "data_0.csv", 0)
    assert _replay(tmp_path, "membership_csv", "attack", 0) == "exact"
