"""Command-line front end.

Subcommands: train, attack, sweep-dim, sweep-epochs, reconstruct, synth,
perturb-attack. Each takes a JSON config (--config), an optional master
seed override (--seed) and an output directory (--out); --threads is still
accepted and has no effect. Exit codes: 0 success, 1 configuration error
(including unknown flags, unknown config keys and unreadable configs),
2 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import write_csv_dataset
from .harness import (
    CampaignConfig,
    ConfigError,
    ExperimentConfig,
    child_seed,
    run_overfit_sweep,
    run_perturbation_experiment,
    run_reconstruction_campaign,
    run_threshold_experiment,
    train_target,
    write_manifest,
)
from .synth import SweepConfig, SynthConfig, dimension_sweep, generate_synthetic

DEFAULT_EPOCH_GRID = list(range(5, 51, 5))


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return payload


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config(args) -> dict:
    """The --config payload with the --seed override applied."""
    payload = _load_json(args.config)
    if args.seed is not None:
        payload["seed"] = args.seed
    return payload


def _cmd_synth(args) -> int:
    cfg = SynthConfig.from_dict(_load_config(args))
    dataset = generate_synthetic(cfg)
    out = _out_dir(args)
    path = out / "synthetic.csv"
    write_csv_dataset(path, dataset)
    write_manifest(out / "synth_manifest.json", cfg.to_dict(), cfg.seed, {})
    print(f"wrote {dataset.n_points} points x {dataset.n_features} features to {path}")
    return 0


def _cmd_train(args) -> int:
    cfg = ExperimentConfig.from_dict(_load_config(args))
    dataset = cfg.load_dataset()
    model = train_target(dataset, cfg, child_seed(cfg.seed, "train"), dataset.n_classes)
    out = _out_dir(args)
    path = out / "model.json"
    path.write_text(model.to_json() + "\n")
    write_manifest(out / "train_manifest.json", cfg.to_dict(), cfg.seed, {})
    accuracy = model.accuracy(dataset.features, dataset.labels)
    print(f"trained {cfg.model_kind} model, accuracy {accuracy:.4f}, saved to {path}")
    return 0


def _write_result(result, args) -> int:
    """Write an experiment result to --out and print its one-line summary."""
    paths = result.write(_out_dir(args))
    if result.records:
        mean_acc = float(np.mean([r.attack_accuracy for r in result.records]))
        print(
            f"{len(result.records)} attack records, mean accuracy {mean_acc:.4f}, "
            f"wrote {paths['records']}"
        )
    else:
        print(f"no attack records produced, wrote {paths['records']}")
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_attack(args) -> int:
    cfg = ExperimentConfig.from_dict(_load_config(args))
    return _write_result(run_threshold_experiment(cfg), args)


def _cmd_perturb_attack(args) -> int:
    cfg = ExperimentConfig.from_dict(_load_config(args))
    return _write_result(run_perturbation_experiment(cfg), args)


def _cmd_sweep_epochs(args) -> int:
    payload = _load_config(args)
    grid = payload.pop("epoch_grid", DEFAULT_EPOCH_GRID)
    cfg = ExperimentConfig.from_dict(payload)
    try:
        grid = [int(e) for e in grid]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad epoch_grid: {exc}") from exc
    return _write_result(run_overfit_sweep(cfg, grid), args)


def _cmd_sweep_dim(args) -> int:
    cfg = SweepConfig.from_dict(_load_json(args.config))
    if args.seed is not None:
        cfg.synth = replace(cfg.synth, seed=args.seed)
    try:
        results = dimension_sweep(cfg.dims, cfg.synth, cfg.arch, cfg.train)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _out_dir(args)
    path = out / "dimension_sweep.csv"
    with open(path, "w", newline="") as handle:
        handle.write("dim,arch,correlation,train_acc,test_acc,seed,diverged\n")
        for row in results:
            handle.write(
                f"{row.dim},{row.arch},{row.correlation},{row.train_accuracy},"
                f"{row.test_accuracy},{row.seed},{int(row.diverged)}\n"
            )
    write_manifest(out / "sweep_dim_manifest.json", cfg.to_dict(), cfg.synth.seed, {})
    print(f"swept {len(results)} dimensions, wrote {path}")
    return 0


def _cmd_reconstruct(args) -> int:
    cfg = CampaignConfig.from_dict(_load_config(args))
    report = run_reconstruction_campaign(cfg)
    out = _out_dir(args)
    path = out / "reconstruction_report.json"
    with open(path, "w") as handle:
        json.dump(report, handle, sort_keys=True, indent=2)
        handle.write("\n")
    graph_path = out / "graph_metrics.csv"
    graph = report["graph"]
    with open(graph_path, "w", newline="") as handle:
        handle.write(",".join(graph) + "\n")
        handle.write(",".join(str(graph[key]) for key in graph) + "\n")
    write_manifest(out / "reconstruct_manifest.json", cfg.to_dict(), cfg.seed, {})
    recon = report["reconstruction"]
    print(
        f"reconstruction recovered {recon['recovered_count']}/{report['n_train']} "
        f"points ({recon['reason']}), report at {path}"
    )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="explainleak", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    commands = {
        "train": (_cmd_train, "train a model on the configured dataset"),
        "attack": (_cmd_attack, "run the threshold membership experiment"),
        "sweep-dim": (_cmd_sweep_dim, "gradient-norm correlation across dimensions"),
        "sweep-epochs": (_cmd_sweep_epochs, "attack accuracy across training epochs"),
        "reconstruct": (_cmd_reconstruct, "run the reconstruction campaign"),
        "synth": (_cmd_synth, "generate a synthetic dataset CSV"),
        "perturb-attack": (_cmd_perturb_attack, "reduced-scale perturbation attacks"),
    }
    for name, (func, help_text) in commands.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="path to a JSON config file")
        sub.add_argument("--seed", type=int, default=None, help="master seed override")
        sub.add_argument("--out", default=".", help="output directory")
        sub.add_argument(
            "--threads", type=int, default=None, help="accepted for compatibility; no effect"
        )
        sub.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
