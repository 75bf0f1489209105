"""The reconstruction CLI still reproduces the benchmark's recorded outputs.

``leakbench/run.py`` checks every output against the fingerprints in
``leakbench/reference/``, but only when the benchmark runs. Replaying two
instances of each reconstruction workload here holds the influence read paths
(blind baselines, the reveal table, the oracle) to those references on every
test run.
"""
from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from explainleak.cli import main

BENCH = Path(__file__).resolve().parent.parent / "leakbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"leakbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while building
    spec.loader.exec_module(module)
    return module


outputs = _load("outputs")
workloads = _load("workloads")


@pytest.mark.parametrize("instance", [0, 1])
@pytest.mark.parametrize("workload", ["reconstruction", "influence_queries"])
def test_report_matches_recorded_fingerprint(tmp_path, capsys, workload, instance):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.experiment_config(workload, instance, tmp_path)))
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", str(config), "--out", str(out)]) == 0
    got = outputs.fingerprint(outputs.parse_outputs("reconstruct", out))
    reference = json.loads((BENCH / "reference" / f"{workload}.json").read_text())
    verdict, detail = outputs.compare(got, reference["instances"][str(instance)])
    assert verdict in ("exact", "tolerance"), detail
