"""The four benchmark workloads: their inputs, CLI calls and invariants.

Every input is a pure function of an *instance* index in [0, N_INSTANCES).
A run with ``--seed s`` uses instances ``(s * K + i) % N_INSTANCES`` for
i < K, where K is the workload's instance count, so the same seed always
gives the same inputs and every input has a reference fingerprint recorded
in ``reference/<workload>.json``.

This module imports nothing from explainleak at module level: the parent
process never imports the package, and the set-up timer in the worker
starts before the package is imported.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

N_INSTANCES = 32

# Band that criterion 13 holds the mean perturbation attack accuracy to.
PERTURBATION_BAND = (0.48, 0.55)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # explainleak subcommand
    threads: int  # --threads of the timed invocations
    instances: int  # distinct inputs per run (K)
    why: str
    # Scale run_s by the speed probe. Only where it was measured to narrow
    # the run-to-run spread: short single-core invocations and the LOO pool.
    # In membership_csv and perturbation the host's speed steps move the run
    # time much less than they move the probe, and scaling widened the spread.
    speed_scaled: bool = False

    def instance_ids(self, seed: int) -> list[int]:
        return [(seed * self.instances + i) % N_INSTANCES for i in range(self.instances)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "membership_csv",
            "attack",
            threads=2,
            instances=1,
            why="threshold attacks on a user CSV: O(n^2) calibration scan, shadow "
            "re-scans, CSV parsing, mini-batch MLP training and the repetition pool",
        ),
        Workload(
            "perturbation",
            "perturb-attack",
            threads=1,
            instances=1,
            why="criterion-13 perturbation attacks: per-point LIME surrogate and "
            "SmoothGrad sampling are ~90% of the run",
        ),
        Workload(
            "reconstruction",
            "reconstruct",
            threads=2,
            instances=4,
            why="reconstruction campaign at n=600, d=8: building the exact LOO cache "
            "through its thread pool is ~90% of the run",
            speed_scaled=True,
        ),
        Workload(
            "influence_queries",
            "reconstruct",
            threads=1,
            instances=4,
            why="reconstruction at n=200, d=32 with many starts and blind queries: "
            "reads of a cheap LOO cache (top-k, traversal, oracle) dominate",
            speed_scaled=True,
        ),
    )
}


def data_seed(instance: int) -> int:
    return 1000 + instance


def _synth(n_features: int, n_classes: int, n_samples: int, instance: int, **kw) -> dict:
    return {
        "n_features": n_features,
        "n_classes": n_classes,
        "n_samples": n_samples,
        "seed": data_seed(instance),
        **kw,
    }


def experiment_config(workload: str, instance: int, input_dir: Path) -> dict:
    """The JSON config handed to the CLI for one instance."""
    if workload == "membership_csv":
        return {
            "dataset_csv": str(input_dir / f"data_{instance}.csv"),
            "hidden": [50],
            "activation": "tanh",
            "train": {"optimizer": "adagrad", "lr": 0.01, "epochs": 30},
            "statistics": [
                {"kind": "loss"},
                {"kind": "pred_var"},
                {"kind": "expl_var", "method": "gradient"},
            ],
            "calibrations": ["optimal", "shadow(3)"],
            "repetitions": 2,
            "subsets_per_repetition": 4,
            "points_per_subset": 2000,
            "seed": instance,
        }
    if workload == "perturbation":
        return {
            "synth": _synth(200, 20, 2000, instance, class_sep=0.2, cluster_std=0.2),
            "hidden": [50],
            "activation": "tanh",
            "train": {"optimizer": "adagrad", "lr": 0.01, "epochs": 50},
            "statistics": [
                {
                    "kind": "expl_var",
                    "method": "local_surrogate",
                    "params": {"num_samples": 200},
                },
                {
                    "kind": "expl_var",
                    "method": "smoothgrad",
                    "params": {"samples": 25, "sigma": 1.0},
                },
            ],
            "calibrations": ["optimal"],
            "repetitions": 1,
            "subsets_per_repetition": 1,
            "points_per_subset": 2000,
            "seed": instance,
        }
    if workload == "reconstruction":
        return {
            "synth": _synth(8, 2, 1200, instance),
            "train": {"optimizer": "gd", "lr": 1.0, "epochs": 150, "batch_size": None},
            "graph_k": 5,
            "reveal_ks": [1, 5, 10],
            "traverse_starts": 20,
            "baseline_queries": 200,
            "seed": instance,
        }
    if workload == "influence_queries":
        return {
            "synth": _synth(32, 2, 400, instance),
            "train": {"optimizer": "gd", "lr": 1.0, "epochs": 30, "batch_size": None},
            "graph_k": 5,
            "reveal_ks": [1, 5, 10],
            # Few starts: a crawl's cost is the size of what it reaches, which
            # varies 8x between instances, while blind queries cost the same
            # on every input.
            "traverse_starts": 40,
            "baseline_queries": 4000,
            "seed": instance,
        }
    raise KeyError(workload)


def expected_records(workload: str) -> int:
    """Records one threshold invocation must produce (reps x targets x stats x cals)."""
    cfg = experiment_config(workload, 0, Path("."))
    return (
        cfg["repetitions"]
        * cfg["subsets_per_repetition"]
        * len(cfg["statistics"])
        * len(cfg["calibrations"])
    )


def write_membership_csv(path: Path, instance: int) -> None:
    """8000 x 200 hypercube data in 20 classes, cells written as repr(float).

    ``data.write_csv_dataset`` cannot be used: under numpy 2 it writes cells
    as ``np.float64(...)``, which ``load_csv_dataset`` rejects.
    """
    from explainleak.synth import SynthConfig, generate_synthetic

    dataset = generate_synthetic(SynthConfig(**_synth(200, 20, 8000, instance)))
    with open(path, "w") as handle:
        handle.write(",".join([f"f{i}" for i in range(dataset.n_features)] + ["label"]))
        handle.write("\n")
        for row, label in zip(dataset.features.tolist(), dataset.labels.tolist()):
            handle.write(",".join(map(repr, row)))
            handle.write(f",{label}\n")


def write_inputs(workload: str, instances: list[int], input_dir: Path) -> None:
    """Write ``config_<instance>.json`` (and the CSV it names) for each instance."""
    input_dir.mkdir(parents=True, exist_ok=True)
    for instance in instances:
        if workload == "membership_csv":
            write_membership_csv(input_dir / f"data_{instance}.csv", instance)
        config = experiment_config(workload, instance, input_dir)
        (input_dir / f"config_{instance}.json").write_text(json.dumps(config))


# ---------------------------------------------------------------------------
# Invariants on one invocation's parsed outputs
# ---------------------------------------------------------------------------


def check_invariants(workload: str, parsed: dict) -> list[str]:
    """Workload invariants; returns a list of violations (empty when all hold)."""
    problems = []
    if workload in ("membership_csv", "perturbation"):
        records = parsed["records"]
        want = expected_records(workload)
        if len(records) != want:
            problems.append(f"{len(records)} records, expected {want}")
        if parsed["warnings"]:
            problems.append(f"warnings: {parsed['warnings'][:3]}")
        if workload == "membership_csv":
            acc = {
                (r["repetition"], r["target"], r["statistic"], r["calibration"]): float(
                    r["attack_accuracy"]
                )
                for r in records
            }
            for (rep, target, stat, cal), value in acc.items():
                if cal.startswith("shadow"):
                    optimal = acc.get((rep, target, stat, "optimal"))
                    if optimal is None or value > optimal:
                        problems.append(
                            f"rep {rep} target {target} {stat}: shadow accuracy "
                            f"{value} exceeds optimal {optimal}"
                        )
    else:
        recon = parsed["report"].get("reconstruction", {})
        if recon.get("queries_revealing", 1) > recon.get("query_budget", 0):
            problems.append(
                f"queries_revealing {recon.get('queries_revealing')} exceeds "
                f"query_budget {recon.get('query_budget')}"
            )
    return problems


def perturbation_band_problems(records_by_instance: dict[int, list[dict]]) -> list[str]:
    """Mean attack accuracy per statistic, over the run's instances, in the band."""
    by_stat: dict[str, list[float]] = {}
    for records in records_by_instance.values():
        for r in records:
            by_stat.setdefault(r["statistic"], []).append(float(r["attack_accuracy"]))
    lo, hi = PERTURBATION_BAND
    problems = []
    for stat, values in sorted(by_stat.items()):
        mean = sum(values) / len(values)
        if not lo <= mean <= hi:
            problems.append(f"mean {stat} accuracy {mean:.4f} outside [{lo}, {hi}]")
    return problems
