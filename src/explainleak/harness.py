"""Experiment orchestration over CSV or synthetic datasets.

Reproduces the evaluation protocols at configurable scale: disjoint
four-subset sampling with 50/50 member splits, threshold attacks under
optimal and shadow calibration, the overfitting sweep, the reduced-scale
perturbation-method comparison, and reconstruction campaigns. A master seed
fans out through named, indexed children, so every result depends only on
the config; emitted CSVs are byte-stable across reruns (wall times go to the
CLI's manifest only). `models.fork_map` maps a threshold or overfit run's targets, then
their statistics' member and non-member halves, and a campaign's leave-one-out blocks. Its
workers, forked with no pool, inherit the BLAS environment; the bytes are the same on either
path at a fixed BLAS thread count, and numpy's overflow warnings are silenced on both.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import platform
import re
import zlib
from concurrent.futures import ThreadPoolExecutor  # noqa: F401  (leakbench's tracer patches it)
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .attacks import (
    AttackStatistic,
    ThresholdRule,
    aggregate_shadow_taus,
    optimal_threshold,
    statistic_values,
)
from .config import Config, ConfigError
from .data import Dataset, load_csv_dataset
from .explain import MLP_METHODS, check_feature_params
from .graph import build_influence_graph, greedy_omniscient_baseline, scc_metrics, traverse_attack
from .influence import build_loo_cache, group_reveal_rates, self_reveal_rate, self_reveals
from .models import LayerSpec, TrainConfig, fork_map, init_model, train, train_logistic
from .reconstruct import (
    MarginalSampler,
    TrueDistributionSampler,
    UniformSampler,
    algorithm1_reconstruct,
    baseline_attack,
    reconstruction_query_budget,
)
from .synth import SynthConfig, generate_synthetic


def child_seed(master: int, tag: str, *indices: int) -> int:
    """Deterministic seed for the (tag, indices) role under a master seed.

    The index count is folded into the entropy because SeedSequence ignores
    trailing zero words, which would otherwise alias (0,) with (0, 0).
    """
    entropy = [int(master) & 0xFFFFFFFF, zlib.crc32(tag.encode("utf-8")), len(indices)]
    entropy.extend(int(i) for i in indices)
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def parse_calibration(text: str) -> tuple[str, int | None]:
    """'optimal' -> ('optimal', None); 'shadow(s)' -> ('shadow', s)."""
    if text == "optimal":
        return "optimal", None
    match = re.fullmatch(r"shadow\((\d+)\)", text)
    if match:
        s = int(match.group(1))
        if s < 1:
            raise ConfigError("shadow calibration needs at least one shadow")
        return "shadow", s
    raise ConfigError(f"unknown calibration {text!r}; use 'optimal' or 'shadow(s)'")


@dataclass
class DataSource(Config):
    """The dataset, either a CSV file or a synthetic task, and the master seed."""

    dataset_csv: str | None = None
    label_column: str = "label"
    group_column: str | None = None
    synth: SynthConfig | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        # child_seed reads the master seed mod 2**32, so any other seed would alias one in range
        if not 0 <= self.seed < 2**32:
            raise ConfigError(f"seed must be in [0, 2**32), got {self.seed}")
        if (self.dataset_csv is None) == (self.synth is None):
            raise ConfigError("exactly one of dataset_csv / synth must be set")

    def load_dataset(self) -> Dataset:
        if self.dataset_csv is not None:
            return load_csv_dataset(self.dataset_csv, self.label_column, self.group_column)
        return generate_synthetic(self.synth)


@dataclass
class ExperimentConfig(DataSource):
    """One threshold-attack experiment: data source, target, attacks, scale."""

    hidden: tuple[int, ...] = (50, 50)
    activation: str = "tanh"
    model_kind: str = "mlp"
    train: TrainConfig = field(default_factory=TrainConfig)
    statistics: list[AttackStatistic] = field(
        default_factory=lambda: [AttackStatistic("expl_var", "gradient")]
    )
    calibrations: list[str] = field(default_factory=lambda: ["optimal"])
    repetitions: int = 1
    subsets_per_repetition: int = 4
    points_per_subset: int | None = None
    resample: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        for width in self.hidden:
            LayerSpec(width, self.activation)  # raises on a bad width or activation
        if self.model_kind not in ("mlp", "logistic"):
            raise ConfigError("model_kind must be 'mlp' or 'logistic'")
        self.train.refuse_unread(logistic=self.model_kind == "logistic")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.subsets_per_repetition < 1:
            raise ConfigError("subsets_per_repetition must be >= 1")
        if self.points_per_subset is not None:
            if self.points_per_subset < 2 or self.points_per_subset % 2:
                raise ConfigError("points_per_subset must be even and >= 2")
        if not self.statistics:
            raise ConfigError("at least one attack statistic is required")
        walks = [s.method for s in self.statistics if s.method in MLP_METHODS]
        if walks and self.model_kind == "logistic":
            raise ConfigError(f"{walks[0]} walks MlpModel layers, which a logistic target lacks")
        if not self.calibrations:
            raise ConfigError("at least one calibration mode is required")
        for cal in self.calibrations:
            kind, s = parse_calibration(cal)
            if kind == "shadow" and s >= self.subsets_per_repetition:
                raise ConfigError(f"shadow({s}) needs more than {s} subsets per repetition")


@dataclass
class TargetSplit:
    """Absolute dataset indices of one target's members and non-members."""

    train: np.ndarray
    test: np.ndarray

    @property
    def all_indices(self) -> np.ndarray:
        return np.concatenate([self.train, self.test])


def sampling_protocol(dataset: Dataset, n_subsets: int = 4, subset_size: int | None = None,
                      resample: bool = False, seed: int = 0) -> list[TargetSplit]:
    """Seeded subsets split 50/50 into member (train) and non-member halves.

    Subsets are pairwise disjoint unless ``resample`` allows them to be
    drawn independently (each subset is still duplicate-free internally).
    """
    if subset_size is None:
        subset_size = (dataset.n_points // n_subsets) // 2 * 2
    if subset_size < 2 or subset_size % 2:
        raise ConfigError("subset size must be even and >= 2")
    rng = np.random.default_rng(seed)
    if resample:
        if subset_size > dataset.n_points:
            raise ConfigError(
                f"subsets of {subset_size} points need at least {subset_size} "
                f"but only {dataset.n_points} are available"
            )
        chunks = [rng.choice(dataset.n_points, size=subset_size, replace=False)
                  for _ in range(n_subsets)]
    else:
        if n_subsets * subset_size > dataset.n_points:
            raise ConfigError(
                f"{n_subsets} disjoint subsets of {subset_size} need "
                f"{n_subsets * subset_size} points but only {dataset.n_points} "
                "are available (set resample=true to allow overlap)"
            )
        order = rng.permutation(dataset.n_points)
        chunks = [order[i * subset_size : (i + 1) * subset_size] for i in range(n_subsets)]
    half = subset_size // 2
    return [TargetSplit(train=c[:half], test=c[half:]) for c in chunks]


def validate_protocol(splits: list[TargetSplit], n_points: int, resample: bool) -> dict:
    """Audit disjointness, balance, and index sanity of emitted partitions."""
    seen: set[int] = set()
    for i, split in enumerate(splits):
        combined = split.all_indices
        if len(split.train) != len(split.test):
            raise RuntimeError(f"subset {i} is not split 50/50")
        if combined.min() < 0 or combined.max() >= n_points:
            raise RuntimeError(f"subset {i} has out-of-range indices")
        if len(np.unique(combined)) != len(combined):
            raise RuntimeError(f"subset {i} contains duplicate indices")
        if not resample:
            overlap = seen.intersection(combined.tolist())
            if overlap:
                raise RuntimeError(f"subset {i} overlaps earlier subsets: {sorted(overlap)[:5]}")
            seen.update(combined.tolist())
    return {
        "n_subsets": len(splits),
        "subset_size": int(len(splits[0].all_indices)) if splits else 0,
        "disjoint": not resample,
        "balanced": True,
    }


@dataclass
class RunRecord:
    run_id: str
    repetition: int
    target: int
    statistic: str
    calibration: str
    tau: float
    attack_accuracy: float
    train_accuracy: float
    test_accuracy: float
    epochs: int

    def __post_init__(self) -> None:
        for name in ("attack_accuracy", "train_accuracy", "test_accuracy"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    def csv_row(self) -> list:
        return [getattr(self, col) for col in RECORD_CSV_COLUMNS]


RECORD_CSV_COLUMNS = tuple(f.name for f in fields(RunRecord))
DECISION_CSV_COLUMNS = ("run_id", "point_index", "value", "decision", "member")


class DecisionBlock(NamedTuple):
    """The decisions of one run, one column entry per scored point."""

    run_id: str
    points: np.ndarray
    values: np.ndarray
    guesses: np.ndarray
    truth: np.ndarray


@dataclass
class DecisionTable:
    """Every run's decision block, in run order; len() counts decision rows."""

    blocks: list[DecisionBlock] = field(default_factory=list)

    def __len__(self) -> int:
        return sum(len(block.points) for block in self.blocks)

    def __iter__(self):
        return iter(self.blocks)


@dataclass
class ExperimentResult:
    name: str
    records: list[RunRecord]
    decisions: DecisionTable
    warnings: list[str]
    config: dict
    audits: list[dict] = field(default_factory=list)

    def write(self, out_dir: str | Path) -> str:
        """Write the records and decisions CSVs and return the summary; the CLI writes the manifest.

        A decision row is the text csv.writer writes, joined here: no field needs quoting,
        as run ids are generated and the other cells are ints and float reprs. A block's
        "point,value," texts are made once for a run of blocks sharing its points and values.
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {kind: out / f"{self.name}_{kind}.csv" for kind in ("records", "decisions")}
        with open(paths["records"], "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(RECORD_CSV_COLUMNS)
            writer.writerows(record.csv_row() for record in self.records)
        with open(paths["decisions"], "w", newline="") as handle:
            csv.writer(handle).writerow(DECISION_CSV_COLUMNS)
            last = None
            for run_id, points, values, guesses, truth in self.decisions:
                if last is None or points is not last[0] or values is not last[1]:
                    last = points, values, [f"{point},{value!r}," for point, value
                                            in zip(points.tolist(), values.tolist())]
                handle.writelines([f"{run_id},{mid}{guess},{member}\r\n" for mid, guess, member
                                   in zip(last[2], guesses.astype(int).tolist(),
                                          truth.astype(int).tolist())])
        if not self.records:
            return f"no attack records produced, wrote {paths['records']}"
        mean_acc = np.mean([r.attack_accuracy for r in self.records])
        return (f"{len(self.records)} attack records, mean accuracy {mean_acc:.4f}, "
                f"wrote {paths['records']}")


def train_target(train_set: Dataset, cfg: ExperimentConfig, seed: int, n_classes: int):
    """The configured target (logistic, or an MLP with an identity output
    layer of n_classes logits) trained on train_set under the given seed."""
    train_cfg = replace(cfg.train, seed=seed)
    if cfg.model_kind == "logistic":
        return train_logistic(train_set, train_cfg)
    layers = [LayerSpec(w, cfg.activation) for w in cfg.hidden]
    layers.append(LayerSpec(n_classes, "identity"))
    model = init_model(layers, train_set.n_features, seed=seed)
    return train(model, train_set, train_cfg)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing forward pass is not warned
def target_row(dataset: Dataset, cfg: ExperimentConfig, split: TargetSplit, seed: int):
    """One target, trained, and its (train, test) accuracy, or why its training failed."""
    X, y = dataset.features, dataset.labels
    try:
        model = train_target(dataset.subset(split.train), cfg, seed, dataset.n_classes)
        return model, (model.accuracy(X[split.train], y[split.train]),
                       model.accuracy(X[split.test], y[split.test]))
    except (ValueError, RuntimeError) as exc:  # keep the experiment alive, log it
        return f"training failed: {exc}"


@np.errstate(over="ignore", invalid="ignore")  # a non-finite statistic raises when scanned
def _half_values(dataset: Dataset, stat: AttackStatistic, model, rows: np.ndarray):
    """The statistic's values on one half, members or non-members, or its error."""
    try:
        return statistic_values(stat, model, dataset.features[rows], dataset.labels[rows])
    except (ValueError, RuntimeError) as exc:
        return str(exc)


@np.errstate(over="ignore", invalid="ignore")  # midpoints of huge statistics may overflow
def _table_entry(stat: AttackStatistic, member, nonmember):
    """(member values, non-member values, optimal tau), or the first error among them."""
    if isinstance(member, str) or isinstance(nonmember, str):
        return member if isinstance(member, str) else nonmember
    try:
        return member, nonmember, optimal_threshold(member, nonmember, stat.member_if)[0]
    except (ValueError, RuntimeError) as exc:
        return str(exc)


def _score_repetition(cfg, rep, prefix, splits, rows, halves, result: ExperimentResult) -> None:
    """Append one repetition's records, decision blocks and warnings to result: rows
    hold each target's accuracies or training error, halves its statistics' values."""
    table: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, float] | str] = {}
    for t, row in enumerate(rows):
        if isinstance(row, str):
            result.warnings.append(f"rep {rep} target {t}: {row}")
        else:
            table.update(((t, si), _table_entry(stat, next(halves), next(halves)))
                         for si, stat in enumerate(cfg.statistics))
    for (t, si), entry in table.items():
        stat = cfg.statistics[si]
        where = f"rep {rep} target {t} stat {stat.label}"
        if isinstance(entry, str):
            result.warnings.append(f"{where}: {entry}")
            continue
        member_vals, nonmember_vals, optimal_tau = entry
        values = np.concatenate([member_vals, nonmember_vals])
        if values.min() == values.max():  # no cut to find: its attacks score chance
            result.warnings.append(f"{where}: every member and non-member value is {values[0]}")
        truth = np.arange(len(values)) < len(member_vals)
        points = splits[t].all_indices  # one array for every calibration's block
        for ci, calibration in enumerate(cfg.calibrations):
            kind, s = parse_calibration(calibration)
            if kind == "optimal":
                tau = optimal_tau
            else:
                siblings = [table.get((u, si), f"shadow model {u} unavailable")
                            for u in range(len(splits)) if u != t][:s]
                error = next((e for e in siblings if isinstance(e, str)), None)
                if error is not None:
                    result.warnings.append(f"{where} {calibration}: {error}")
                    continue
                tau = aggregate_shadow_taus([e[2] for e in siblings], s)
            guesses = ThresholdRule(stat, tau).decide(values)
            run_id = f"{prefix}r{rep}-t{t}-s{si}-c{ci}"
            result.records.append(RunRecord(
                run_id, rep, t, stat.label, calibration, tau,
                float(np.mean(guesses == truth)), *rows[t], cfg.train.epochs,
            ))
            block = DecisionBlock(run_id, points, values, guesses, truth)
            result.decisions.blocks.append(block)


def _run_threshold(name: str, cfg: ExperimentConfig, runs: list) -> ExperimentResult:
    """The result `name` of cfg: every repetition of each (config, run id prefix) in runs.

    The subsets are sampled and audited first. Each target is one `fork_map` job of
    `target_row`, then each (target, statistic, member or non-member half) one of
    `_half_values`; the taus are scanned here, and the models freed before scoring.
    """
    dataset = cfg.load_dataset()
    for stat in cfg.statistics:  # before any job; the runs share cfg's statistics
        if stat.method is not None:
            check_feature_params(stat.method, stat.params, dataset.n_features)
    result = ExperimentResult(name, [], DecisionTable(), [], cfg.to_dict())
    reps = []
    for run, prefix in runs:
        for rep in range(run.repetitions):
            splits = sampling_protocol(dataset, run.subsets_per_repetition, run.points_per_subset,
                                       run.resample, child_seed(run.seed, "protocol", rep))
            result.audits.append(validate_protocol(splits, dataset.n_points, run.resample))
            reps.append((run, rep, prefix, splits))
    jobs = [(run, split, child_seed(run.seed, "target", rep, t))
            for run, rep, _, splits in reps for t, split in enumerate(splits)]
    fitted = fork_map(target_row, (dataset,), jobs)
    halves = [(stat, row[0], half) for (_, split, _), row in zip(jobs, fitted)
              if not isinstance(row, str) for stat in cfg.statistics
              for half in (split.train, split.test)]
    values = iter(fork_map(_half_values, (dataset,), halves))
    rows = iter([row if isinstance(row, str) else row[1] for row in fitted])
    del fitted, halves  # the models, freed before scoring
    for run, rep, prefix, splits in reps:
        _score_repetition(run, rep, prefix, splits, [next(rows) for _ in splits], values, result)
    return result


def run_threshold_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Train targets per repetition and attack each with every statistic.

    Per repetition: sample subsets, train one target per subset, compute
    each statistic once per (target, statistic), then calibrate and score
    every configured attack. Shadow calibration for target t averages the
    optimal thresholds of the first s sibling models in index order, each
    computed on that sibling's own member/non-member halves. Each (target,
    statistic) is scanned at most once per repetition: its tau serves the
    target's own optimal record and every sibling's shadow records.
    """
    return _run_threshold("threshold", cfg, [(cfg, "")])


@dataclass
class OverfitConfig(ExperimentConfig):
    """The overfitting sweep: an experiment and the epoch budgets it is re-run at."""

    epoch_grid: list[int] = field(default_factory=lambda: list(range(5, 51, 5)))

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.epoch_grid or min(self.epoch_grid) < 1:
            raise ConfigError(
                f"epoch grid must be non-empty with every entry >= 1, got {self.epoch_grid}")
        if repeated := [e for e in self.epoch_grid if self.epoch_grid.count(e) > 1]:
            raise ConfigError(f"epoch grid repeats budget {repeated[0]}: {self.epoch_grid}")


def run_overfit_sweep(cfg: OverfitConfig) -> ExperimentResult:
    """Re-run the optimal-calibration attack at each epoch budget; a first warning
    names the config's other calibrations, which are dropped.

    The sampling protocol and model initializations derive from seeds that
    do not involve the epoch count, so every grid entry retrains the same
    targets on the same subsets and only the training length varies.
    """
    runs = [(replace(cfg, train=replace(cfg.train, epochs=epochs), calibrations=["optimal"]),
             f"e{epochs}-") for epochs in cfg.epoch_grid]
    result = _run_threshold("overfit", cfg, runs)
    if dropped := [c for c in cfg.calibrations if c != "optimal"]:
        result.warnings.insert(0, f"sweep-epochs scores the optimal calibration only: "
                                  f"dropped {dropped}")
    return result


def default_perturbation_statistics() -> list[AttackStatistic]:
    """Gradient, prediction-variance, and the two perturbation statistics.

    The default noise scale matches the surrogate's unit-Gaussian sampling:
    perturbation methods draw their samples at data-independent unit scale,
    which is what keeps their attributions off the training manifold.
    """
    return [
        AttackStatistic("expl_var", "gradient"),
        AttackStatistic("pred_var"),
        AttackStatistic("expl_var", "local_surrogate", params={"num_samples": 200}),
        AttackStatistic("expl_var", "smoothgrad", params={"samples": 25, "sigma": 1.0}),
    ]


def run_perturbation_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Reduced-scale comparison of perturbation-based attack statistics. A config
    naming neither perturbation method runs the four defaults, with a warning."""
    if any(s.method in ("local_surrogate", "smoothgrad") for s in cfg.statistics):
        return _run_threshold("perturbation", cfg, [(cfg, "")])
    ran = replace(cfg, statistics=default_perturbation_statistics())
    result = _run_threshold("perturbation", ran, [(ran, "")])
    dropped = [s.label for s in cfg.statistics]
    result.warnings.insert(0, f"no perturbation statistic: ran the four defaults, not {dropped}")
    return result


@dataclass
class CampaignConfig(DataSource):
    """Reconstruction campaign: logistic target plus attack bundle knobs."""

    train: TrainConfig = field(
        default_factory=lambda: TrainConfig(optimizer="gd", lr=1.0, epochs=200, batch_size=None)
    )
    train_fraction: float = 0.5
    reveal_ks: tuple[int, ...] = (1, 5, 10)
    graph_k: int = 5
    traverse_starts: int = 10
    baseline_queries: int = 100
    max_points: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self.train.refuse_unread(logistic=True)
        if not 0.0 < self.train_fraction <= 1.0:
            raise ConfigError("train_fraction must be in (0, 1]")
        if not self.reveal_ks or any(k < 1 for k in self.reveal_ks):
            raise ConfigError("reveal_ks must be positive")
        if self.graph_k < 1:
            raise ConfigError("graph_k must be >= 1")
        if self.traverse_starts < 1:
            raise ConfigError("traverse_starts must be >= 1")
        if self.baseline_queries < 0:
            raise ConfigError("baseline_queries must be >= 0")
        if self.max_points is not None and self.max_points < 1:
            raise ConfigError("max_points must be >= 1 (or null for no cap)")


@dataclass
class CampaignResult:
    """A campaign's config, its JSON-ready report and its warnings."""

    config: dict
    report: dict
    warnings: list[str]
    name = "reconstruct"

    def write(self, out_dir: str | Path) -> str:
        path, graph = Path(out_dir) / "reconstruction_report.json", self.report["graph"]
        write_json(path, self.report)
        lines = [",".join(graph), ",".join(map(str, graph.values())), ""]
        (path.parent / "graph_metrics.csv").write_text("\n".join(lines))
        recon = self.report["reconstruction"]
        return (f"reconstruction recovered {recon['recovered_count']}/{self.report['n_train']} "
                f"points ({recon['reason']}), report at {path}")


def run_reconstruction_campaign(cfg: CampaignConfig) -> CampaignResult:
    """Reconstruction, traversal, baselines, reveal rates, and graph metrics.

    Trains one logistic target on a seeded train split, builds the
    leave-one-out cache once, and runs the full attack bundle against it.
    The report is JSON-ready and fully determined by the config.
    """
    dataset = cfg.load_dataset()
    if dataset.n_classes != 2:
        raise ConfigError("reconstruction campaign requires a binary dataset")

    rng_split = np.random.default_rng(child_seed(cfg.seed, "split"))
    order = rng_split.permutation(dataset.n_points)
    n_train = max(2, int(round(cfg.train_fraction * dataset.n_points)))
    train_set = dataset.subset(order[:n_train])
    holdout = dataset.features[order[n_train:]]
    for key, k in (("graph_k", cfg.graph_k), ("reveal_ks", max(cfg.reveal_ks))):
        if k > n_train:
            raise ConfigError(f"{key} ({k}) exceeds the {n_train} training points")

    expl = build_loo_cache(train_set, cfg.train)

    recon = algorithm1_reconstruct(
        expl, max_points=cfg.max_points, seed=child_seed(cfg.seed, "reconstruct")
    )
    budget_rounds = min(train_set.n_points, dataset.n_features + 1)
    step_log = []
    for pos, step in enumerate(recon.steps):
        entry = {
            "iteration": pos,
            "revealed_index": step.index,
            "anchor": step.anchor.tolist(),
            "queries": step.queries,
            "rank_deficient": step.rank_deficient,
        }
        if step.constraint is not None:
            normal, rhs = step.constraint
            entry.update(constraint_normal=normal.tolist(), constraint_rhs=rhs)
        step_log.append(entry)
    report_recon = {
        "recovered_count": len(recon.recovered),
        "recovered_fraction": len(recon.recovered) / train_set.n_points,
        "recovered_indices": [int(i) for i in recon.recovered],
        "reason": recon.reason,
        "oracle_inconsistent": recon.oracle_inconsistent,
        "queries_revealing": recon.queries_revealing,
        "termination_queries": recon.termination_queries,
        "queries_total": recon.queries_total,
        "retries": recon.retries,
        "query_budget": reconstruction_query_budget(dataset.n_features, budget_rounds),
        "steps": step_log,
    }

    # One own-label reveal table serves the graph, the crawls and every rate:
    # its first k columns are the top-k reveals.
    reveals = self_reveals(expl, max(cfg.graph_k, *cfg.reveal_ks))
    graph = build_influence_graph(reveals[:, : cfg.graph_k])
    metrics = scc_metrics(graph)
    greedy = greedy_omniscient_baseline(graph)

    bounds = np.stack([dataset.features.min(axis=0), dataset.features.max(axis=0)], axis=1)
    traverse_seed = child_seed(cfg.seed, "traverse")
    if holdout.shape[0] > 0:
        picks = np.random.default_rng(traverse_seed).choice(
            holdout.shape[0],
            size=cfg.traverse_starts,
            replace=holdout.shape[0] < cfg.traverse_starts,
        )
        starts = holdout[picks]
    else:
        starts = UniformSampler(bounds, traverse_seed).sample_batch(cfg.traverse_starts)
    outcomes = [traverse_attack(expl, graph, start) for start in starts]
    traverse_counts = [len(outcome.recovered) for outcome in outcomes]

    seeds = [child_seed(cfg.seed, "baseline", i) for i in range(3)]
    baselines = [("uniform", UniformSampler(bounds, seeds[0]), cfg.baseline_queries),
                 ("marginal", MarginalSampler(dataset.features, seeds[1]), cfg.baseline_queries)]
    if holdout.shape[0] > 0:
        baselines.append(("true_distribution", TrueDistributionSampler(holdout, seeds[2]),
                          min(cfg.baseline_queries, holdout.shape[0])))
    curves = {name: baseline_attack(expl, sampler, n_queries, cfg.graph_k)
              for name, sampler, n_queries in baselines}

    reveal = {}
    for k in cfg.reveal_ks:
        top = reveals[:, :k]
        entry = {"self_reveal_rate": self_reveal_rate(top)}
        if train_set.groups is not None:
            entry["group_reveal_rates"] = group_reveal_rates(top, train_set.groups)
        reveal[str(k)] = entry

    return CampaignResult(cfg.to_dict(), {
        "config": cfg.to_dict(),
        "n_train": train_set.n_points,
        "n_features": dataset.n_features,
        "reconstruction": report_recon,
        "graph": {
            **asdict(metrics),
            "greedy_seed_count": greedy.seed_count,
            "greedy_covered": len(greedy.covered),
        },
        "traversal": {
            "recovered_counts": traverse_counts,
            "query_counts": [outcome.query_count for outcome in outcomes],
            "mean_recovered": float(np.mean(traverse_counts)),
            "largest_scc_size": metrics.largest_scc_size,
        },
        "baselines": curves,
        "reveal_rates": reveal,
    }, [])


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")
    ).hexdigest()


def write_manifest(path: str | Path, config: dict, seed: int, timings: dict,
                   extra: dict | None = None) -> None:
    from . import __version__

    versions = {"python": platform.python_version(), "numpy": np.__version__,
                "explainleak": __version__}
    payload = {"config": config, "config_hash": config_hash(config), "seed": seed,
               "versions": versions, "timings": timings}
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_json(path: str | Path, obj) -> None:
    """The bytes of ``json.dump(obj, sort_keys=True, indent=2)`` and a newline, streamed;
    a key that is not a str raises TypeError. json's indent path is its pure-Python encoder,
    so a list of finite floats is written here as joins of ``float.__repr__``, json's float text."""

    def parts(obj, indent: str):
        inner = indent + "  "
        if isinstance(obj, dict) and obj:
            for i, key in enumerate(sorted(obj)):
                if not isinstance(key, str):  # json.dump would write str(key), sorted apart
                    raise TypeError(f"write_json takes str keys only, got {key!r}")
                yield f"{',' if i else '{'}\n{inner}{json.dumps(key)}: "
                yield from parts(obj[key], inner)
            yield f"\n{indent}}}"
        elif isinstance(obj, (list, tuple)) and obj:
            if set(map(type, obj)) == {float} and all(map(math.isfinite, obj)):
                sep = f",\n{inner}"
                for start in range(0, len(obj), 256):  # one join of a whole curve raised peak RSS
                    yield (sep if start else f"[\n{inner}") + sep.join(
                        map(float.__repr__, obj[start : start + 256]))
            else:
                for i, value in enumerate(obj):
                    yield f"{',' if i else '['}\n{inner}"
                    yield from parts(value, inner)
            yield f"\n{indent}]"
        else:  # a leaf, or an empty container: json's own text
            yield json.dumps(obj)

    with open(path, "w") as handle:
        handle.writelines(parts(obj, ""))
        handle.write("\n")
