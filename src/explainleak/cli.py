"""Command-line front end.

Subcommands: train, attack, sweep-dim, sweep-epochs, reconstruct, synth,
perturb-attack. Each takes a JSON config (--config), an optional master
seed override (--seed; sweep-dim's master seed is its synth.seed) and an output
directory (--out); --threads is still accepted and has no effect. The five runner
commands share one handler: it decodes the config, calls the library runner and has
the result write its files and its summary line. Each subcommand returns an `Output`;
`main` times it, writes its manifest with its warnings, and prints its summary and each
warning. Exit codes: 0 success, 1 configuration error (including unknown flags, unknown
config keys and unreadable configs), 2 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import NamedTuple, Sequence

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
    write_manifest,
)
from .synth import SweepConfig, SynthConfig, dimension_sweep, generate_synthetic


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _seeded(command: str, config: dict):
    """The part of a command's config that holds its master seed."""
    return config.get("synth") if command == "sweep-dim" else config


def _load_config(args) -> dict:
    """The --config payload, a JSON object, with the --seed override applied."""
    try:
        with open(args.config) as handle:
            payload = json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {args.config}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config file {args.config} must hold a JSON object")
    seeded = _seeded(args.command, payload)
    if args.seed is not None and isinstance(seeded, dict):  # decoded, and checked, with the rest
        seeded["seed"] = args.seed
    return payload


class Output(NamedTuple):
    """What a subcommand produced, once its result files are in --out."""

    name: str
    config: dict
    summary: str
    warnings: Sequence[str] = ()
    extra: dict | None = None  # the manifest's other keys


def _cmd_synth(args) -> Output:
    cfg = SynthConfig.from_dict(_load_config(args))
    dataset = generate_synthetic(cfg)
    path = _out_dir(args) / "synthetic.csv"
    write_csv_dataset(path, dataset)
    summary = f"wrote {dataset.n_points} points x {dataset.n_features} features to {path}"
    return Output("synth", cfg.to_dict(), summary)


def _cmd_train(args) -> Output:
    cfg = ExperimentConfig.from_dict(_load_config(args))
    dataset = cfg.load_dataset()
    model = train_target(dataset, cfg, child_seed(cfg.seed, "train"), dataset.n_classes)
    path = _out_dir(args) / "model.json"
    path.write_text(model.to_json() + "\n")
    accuracy = model.accuracy(dataset.features, dataset.labels)
    summary = f"trained {cfg.model_kind} model, accuracy {accuracy:.4f}, saved to {path}"
    return Output("train", cfg.to_dict(), summary)


def _cmd_run(args) -> Output:
    """The five runner commands: decode, run, and let the result write its files. The
    table is built at each call, so a runner patched in this module is the one that runs."""
    cls, runner = {"attack": (ExperimentConfig, run_threshold_experiment),
                   "perturb-attack": (ExperimentConfig, run_perturbation_experiment),
                   "sweep-epochs": (OverfitConfig, run_overfit_sweep),
                   "sweep-dim": (SweepConfig, dimension_sweep),
                   "reconstruct": (CampaignConfig, run_reconstruction_campaign)}[args.command]
    result = runner(cls.from_dict(_load_config(args)))
    return Output(result.name, result.config, result.write(_out_dir(args)), result.warnings,
                  {"audits": result.audits} if hasattr(result, "audits") else None)


def build_parser() -> _Parser:
    parser = _Parser(prog="explainleak", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    commands = {
        "train": (_cmd_train, "train a model on the configured dataset"),
        "attack": (_cmd_run, "run the threshold membership experiment"),
        "sweep-dim": (_cmd_run, "gradient-norm correlation across dimensions"),
        "sweep-epochs": (_cmd_run, "attack accuracy across training epochs"),
        "reconstruct": (_cmd_run, "run the reconstruction campaign"),
        "synth": (_cmd_synth, "generate a synthetic dataset CSV"),
        "perturb-attack": (_cmd_run, "reduced-scale perturbation attacks"),
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
        write_manifest(manifest, output.config, _seeded(args.command, output.config)["seed"],
                       timings, {"warnings": list(output.warnings), **(output.extra or {})})
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
