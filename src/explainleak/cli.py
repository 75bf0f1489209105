"""Command-line front end.

Subcommands: train, attack, sweep-dim, sweep-epochs, reconstruct, synth,
perturb-attack. Each takes a JSON config (--config), an optional master
seed override (--seed) and an output directory (--out); --threads is still
accepted and has no effect. Each writes its result files and returns an
`Output`; `main` times it, writes its manifest and prints its summary. Exit
codes: 0 success, 1 configuration error (including unknown flags, unknown
config keys and unreadable configs), 2 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .data import write_csv_dataset
from .harness import (
    CampaignConfig,
    ConfigError,
    ExperimentConfig,
    OverfitConfig,
    child_seed,
    run_overfit_sweep,
    run_perturbation_experiment,
    run_reconstruction_campaign,
    run_threshold_experiment,
    train_target,
    write_json,
    write_manifest,
)
from .synth import SweepConfig, SynthConfig, dimension_sweep, generate_synthetic


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


class Output(NamedTuple):
    """What a subcommand produced, once its result files are in --out."""

    name: str
    config: dict
    seed: int
    summary: str
    warnings: Sequence[str] = ()
    extra: dict | None = None


def _cmd_synth(args) -> Output:
    cfg = SynthConfig.from_dict(_load_config(args))
    dataset = generate_synthetic(cfg)
    path = _out_dir(args) / "synthetic.csv"
    write_csv_dataset(path, dataset)
    summary = f"wrote {dataset.n_points} points x {dataset.n_features} features to {path}"
    return Output("synth", cfg.to_dict(), cfg.seed, summary)


def _cmd_train(args) -> Output:
    cfg = ExperimentConfig.from_dict(_load_config(args))
    dataset = cfg.load_dataset()
    model = train_target(dataset, cfg, child_seed(cfg.seed, "train"), dataset.n_classes)
    path = _out_dir(args) / "model.json"
    path.write_text(model.to_json() + "\n")
    accuracy = model.accuracy(dataset.features, dataset.labels)
    summary = f"trained {cfg.model_kind} model, accuracy {accuracy:.4f}, saved to {path}"
    return Output("train", cfg.to_dict(), cfg.seed, summary)


def _cmd_experiment(args) -> Output:
    """attack, perturb-attack and sweep-epochs: decode, run, write the CSVs. The table is
    built at each call, so a runner patched in this module is the one that runs."""
    cls, runner = {"attack": (ExperimentConfig, run_threshold_experiment),
                   "perturb-attack": (ExperimentConfig, run_perturbation_experiment),
                   "sweep-epochs": (OverfitConfig, run_overfit_sweep)}[args.command]
    result = runner(cls.from_dict(_load_config(args)))
    records, path = result.records, result.write(_out_dir(args))["records"]
    summary = f"no attack records produced, wrote {path}"
    if records:
        mean_acc = np.mean([r.attack_accuracy for r in records])
        summary = f"{len(records)} attack records, mean accuracy {mean_acc:.4f}, wrote {path}"
    return Output(result.name, result.config, result.config["seed"], summary, result.warnings,
                  {"warnings": result.warnings, "audits": result.audits})


def _cmd_sweep_dim(args) -> Output:
    payload = _load_json(args.config)
    if args.seed is not None and isinstance(payload.get("synth"), dict):
        payload["synth"]["seed"] = args.seed  # decoded, and so checked, with the rest
    cfg = SweepConfig.from_dict(payload)
    results = dimension_sweep(cfg)
    path = _out_dir(args) / "dimension_sweep.csv"
    rows = [f"{r.dim},{r.arch},{r.correlation},{r.train_accuracy},{r.test_accuracy},{r.seed},"
            f"{int(r.diverged)}\n" for r in results]
    path.write_text("dim,arch,correlation,train_acc,test_acc,seed,diverged\n" + "".join(rows))
    summary = f"swept {len(results)} dimensions, wrote {path}"
    return Output("sweep_dim", cfg.to_dict(), cfg.synth.seed, summary)


def _cmd_reconstruct(args) -> Output:
    cfg = CampaignConfig.from_dict(_load_config(args))
    report = run_reconstruction_campaign(cfg)
    out = _out_dir(args)
    path = out / "reconstruction_report.json"
    write_json(path, report)
    graph = report["graph"]
    lines = [",".join(graph), ",".join(map(str, graph.values())), ""]
    (out / "graph_metrics.csv").write_text("\n".join(lines))
    recon = report["reconstruction"]
    summary = (f"reconstruction recovered {recon['recovered_count']}/{report['n_train']} "
               f"points ({recon['reason']}), report at {path}")
    return Output("reconstruct", cfg.to_dict(), cfg.seed, summary)


def build_parser() -> _Parser:
    parser = _Parser(prog="explainleak", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    commands = {
        "train": (_cmd_train, "train a model on the configured dataset"),
        "attack": (_cmd_experiment, "run the threshold membership experiment"),
        "sweep-dim": (_cmd_sweep_dim, "gradient-norm correlation across dimensions"),
        "sweep-epochs": (_cmd_experiment, "attack accuracy across training epochs"),
        "reconstruct": (_cmd_reconstruct, "run the reconstruction campaign"),
        "synth": (_cmd_synth, "generate a synthetic dataset CSV"),
        "perturb-attack": (_cmd_experiment, "reduced-scale perturbation attacks"),
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
    # The one command tail: time the subcommand, write its manifest, print it.
    try:
        start = time.perf_counter()
        output = args.func(args)
        timings = {"total_seconds": time.perf_counter() - start}
        manifest = Path(args.out) / f"{output.name}_manifest.json"
        write_manifest(manifest, output.config, output.seed, timings, output.extra)
        print(output.summary)
        for warning in output.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        return 0
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
