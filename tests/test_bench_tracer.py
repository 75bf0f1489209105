"""The benchmark tracer patches names in explainleak and restores them all.

A refactor that drops or renames a patched name breaks ``leakbench/run.py
--trace 1`` with an AttributeError at install time; this test catches that
in the ordinary suite.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from explainleak import cli, harness, influence, models, reconstruct

TRACING = Path(__file__).resolve().parent.parent / "leakbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("leakbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_restore_returns_the_originals():
    tracing = _load_tracing()
    originals = (
        harness.optimal_threshold,
        influence.topk_explain,
        models.MlpModel.forward_stack,
        reconstruct.topk_explain,
    )
    restore = tracing.install(tracing.Tracer())
    try:
        patched = (
            harness.optimal_threshold,
            influence.topk_explain,
            models.MlpModel.forward_stack,
            reconstruct.topk_explain,
        )
        assert all(p is not o for p, o in zip(patched, originals))
    finally:
        restore()
    assert harness.optimal_threshold is originals[0]
    assert influence.topk_explain is originals[1]
    assert models.MlpModel.forward_stack is originals[2]
    assert reconstruct.topk_explain is originals[3]


_TINY_ATTACK = {
    "synth": {"n_features": 2, "n_samples": 40, "class_sep": 2.0, "seed": 1},
    "hidden": [4],
    "train": {"epochs": 2},
    "statistics": [{"kind": "expl_var", "method": "smoothgrad", "params": {"samples": 2}}],
    "subsets_per_repetition": 2,
    "points_per_subset": 6,
}


_TINY_CAMPAIGN = {
    "synth": {"n_features": 2, "n_samples": 16, "class_sep": 2.0, "seed": 2},
    "train": {"optimizer": "gd", "lr": 1.0, "epochs": 20, "batch_size": None},
    "reveal_ks": [1, 2],
    "graph_k": 2,
    "traverse_starts": 2,
    "baseline_queries": 5,
}


@pytest.mark.parametrize("command", ["attack", "perturb-attack", "reconstruct"])
def test_a_traced_experiment_command_records_its_run(tmp_path, command):
    """The CLI finds its runner when the command runs, so the patched one is called."""
    tracing = _load_tracing()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_TINY_CAMPAIGN if command == "reconstruct" else _TINY_ATTACK))
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    finally:
        restore()
    assert [span[1] for span in tracer.spans].count("harness.run") == 1
