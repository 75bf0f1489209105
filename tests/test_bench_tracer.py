"""The benchmark tracer patches names in explainleak and restores them all.

A refactor that drops or renames a patched name breaks ``leakbench/run.py
--trace 1`` with an AttributeError at install time; this test catches that
in the ordinary suite.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

from explainleak import harness, influence, models, reconstruct

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
