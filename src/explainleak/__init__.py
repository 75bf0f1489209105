"""Privacy auditing for feature-based model explanations.

Tools to measure what model explanations leak about training data:
membership inference from explanation variance, influence-based training
point reveals, training-set reconstruction against influence oracles, and
the experiment harness tying them together.
"""
from types import ModuleType as _ModuleType

from .attacks import (
    AttackStatistic,
    ThresholdRule,
    aggregate_shadow_taus,
    optimal_threshold,
    statistic_values,
)
from .data import Dataset, load_csv_dataset, write_csv_dataset
from .explain import (
    EXPLANATION_METHODS,
    Explanation,
    IgConfig,
    SmoothGradConfig,
    SurrogateConfig,
    explain,
    explain_batch,
    ig_completeness_gap,
)
from .graph import (
    GraphMetrics,
    build_influence_graph,
    greedy_omniscient_baseline,
    scc_metrics,
    strongly_connected_components,
    traverse_attack,
)
from .harness import (
    CampaignConfig,
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    OverfitConfig,
    RunRecord,
    child_seed,
    run_overfit_sweep,
    run_perturbation_experiment,
    run_reconstruction_campaign,
    run_threshold_experiment,
    sampling_protocol,
    validate_protocol,
)
from .influence import (
    InfluenceExplainer,
    InfluenceOracle,
    OracleAnswer,
    RevealResult,
    build_loo_cache,
    group_reveal_rates,
    self_reveal_rate,
    self_reveals,
    topk_explain,
)
from .models import (
    LayerSpec,
    LogisticModel,
    MlpModel,
    TrainConfig,
    TrainingDivergedError,
    init_model,
    train,
    train_logistic,
)
from .reconstruct import (
    MarginalSampler,
    ReconstructionResult,
    SamplerExhaustedError,
    TrueDistributionSampler,
    UniformSampler,
    algorithm1_reconstruct,
    baseline_attack,
    reconstruction_query_budget,
)
from .synth import (
    ARCHS,
    CorrelationResult,
    SynthConfig,
    dimension_sweep,
    generate_synthetic,
    membership_correlation,
)

__version__ = "0.1.0"

# Every public name imported above but the submodules (`from __future__` would add one).
__all__ = sorted(n for n, v in globals().items()
                 if not n.startswith("_") and not isinstance(v, _ModuleType))
