"""The package's public surface: `explainleak.__all__`, the retired per-point API, the
retired second paths and the numpy-only runtime."""
from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

import explainleak

# Retired because nothing in the package called them: per-point copies of batch
# operations (each has a batch path that remains), test fixtures, an unused codec,
# the learned attack network, which no command, experiment or demo ran, and the
# second paths beside one that remains: the one-logit sigmoid output head (softmax
# is the one head), the depth-first traversal schedule (the crawl is breadth-first),
# sweep-dim's own key list (its config is a `Config` like every other), the
# duck-typed dataset loader (`DataSource.load_dataset` is the one) and the wrapper
# around the influence graph (its out-edge rows are the graph). The retired
# parameters and fields below had no reader: a traversal's start label only flips
# signs that the |I| ranking never reads, every reveal read names its own k, no
# caller passed a run prefix and a reveal's echo of its query went unread. A result
# stores no fact twice: a reconstruction step holds its own constraint and its
# position is its iteration, and the query counts and the inconsistency flag are
# read from the steps, the recovered points and the reason. Nothing read the greedy
# cover's seeds, and a graph metrics dict is `dataclasses.asdict`.
RETIRED_FUNCTIONS = {
    "explain": [
        "explain_gradient", "explain_grad_times_input", "explain_integrated_gradients",
        "explain_guided_backprop", "explain_lrp", "explain_smoothgrad",
        "explain_local_surrogate",
    ],
    "attacks": [
        "compute_statistic", "shadow_threshold", "evaluate_attack", "AttackResult",
        "combine_sources", "train_attack_network", "AttackNetResult",
    ],
    "synth": ["grad_norm_l1", "grad_norm_l1_batch"],
    "reconstruct": ["tangent_fixture", "same_direction_fixture"],
    "models": ["FINAL_HEADS"],
    "cli": ["SWEEP_DIM_KEYS"],
    "harness": ["load_experiment_dataset"],
    "graph": ["InfluenceGraph"],
}
RETIRED_METHODS = {
    "MlpModel": ["forward", "loss", "input_gradient"],
    "LogisticModel": ["forward", "loss", "input_gradient"],
    "Explanation": ["to_json", "from_json"],
    "ReconstructionResult": ["query_count", "recovered_weights"],
    "GraphMetrics": ["to_dict"],
}
RETIRED_PARAMETERS = {
    "MlpModel": ["final"],
    "init_model": ["final"],
    "traverse_attack": ["schedule", "start_label"],
    "build_loo_cache": ["k"],
    "InfluenceExplainer": ["k"],
    "run_threshold_experiment": ["run_prefix"],
    "RevealResult": ["query"],
    "ReconstructionResult": ["constraints", "queries_revealing", "oracle_inconsistent"],
    "reconstruct.ReconstructionStep": ["iteration"],
    "graph.GreedyCoverResult": ["seeds"],
    "graph.TraversalResult": ["query_count"],
}


def _public(owner: str):
    """A name of `explainleak`, or a dotted path below it."""
    return reduce(getattr, owner.split("."), explainleak)


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


@pytest.mark.parametrize("owner", sorted(RETIRED_PARAMETERS))
def test_retired_parameters_are_gone(owner):
    parameters = inspect.signature(_public(owner)).parameters
    assert not set(RETIRED_PARAMETERS[owner]) & parameters.keys()


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(explainleak.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )


def test_runtime_needs_numpy_only(tmp_path):
    """The CLI imports no scipy, and a reconstruction runs where scipy cannot load."""
    loaded = _run_python("import sys, explainleak.cli; print('scipy' in sys.modules)")
    assert loaded.returncode == 0, loaded.stderr
    assert loaded.stdout.strip() == "False"

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "synth": {"n_features": 3, "n_samples": 12, "seed": 1},
        "train": {"optimizer": "gd", "lr": 1.0, "epochs": 20, "batch_size": None},
        "reveal_ks": [1, 3], "graph_k": 2, "traverse_starts": 2, "baseline_queries": 5,
    }))
    args = ["reconstruct", "--config", str(config), "--out", str(tmp_path / "out")]
    run = _run_python(
        "import sys; sys.modules['scipy'] = None\n"  # any `import scipy` now fails
        f"from explainleak.cli import main; sys.exit(main({args!r}))"
    )
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "out" / "reconstruction_report.json").exists()
