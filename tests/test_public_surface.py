"""The package's public surface: `explainleak.__all__` and the retired per-point API."""
from __future__ import annotations

import importlib

import pytest

import explainleak

# Retired because nothing in the package called them: per-point copies of batch
# operations (each has a batch path that remains), test fixtures, an unused codec.
RETIRED_FUNCTIONS = {
    "explain": [
        "explain_gradient", "explain_grad_times_input", "explain_integrated_gradients",
        "explain_guided_backprop", "explain_lrp", "explain_smoothgrad",
        "explain_local_surrogate",
    ],
    "attacks": ["compute_statistic", "shadow_threshold", "evaluate_attack", "AttackResult"],
    "synth": ["grad_norm_l1", "grad_norm_l1_batch"],
    "reconstruct": ["tangent_fixture", "same_direction_fixture"],
}
RETIRED_METHODS = {
    "MlpModel": ["forward", "loss", "input_gradient"],
    "LogisticModel": ["forward", "loss", "input_gradient"],
    "Explanation": ["to_json", "from_json"],
    "ReconstructionResult": ["query_count", "recovered_weights"],
}


def test_all_is_sorted_unique_and_importable():
    names = explainleak.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    namespace: dict = {}
    exec("from explainleak import *", namespace)
    assert set(names) <= namespace.keys()


@pytest.mark.parametrize("module", sorted(RETIRED_FUNCTIONS))
def test_retired_functions_are_gone(module):
    submodule = importlib.import_module(f"explainleak.{module}")  # `explain` is also a function
    for name in RETIRED_FUNCTIONS[module]:
        assert name not in explainleak.__all__
        assert not hasattr(explainleak, name)
        assert not hasattr(submodule, name)


@pytest.mark.parametrize("owner", sorted(RETIRED_METHODS))
def test_retired_methods_are_gone(owner):
    cls = getattr(explainleak, owner)
    for name in RETIRED_METHODS[owner]:
        assert not hasattr(cls, name)
