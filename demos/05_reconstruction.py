"""Reconstructing training data from an influence oracle.

Part one runs the subspace-slicing reconstruction directly against a
random logistic family and shows it recovering every training point
within its worst-case query budget. Part two runs the full campaign
against a trained model: reconstruction, influence-graph structure,
adaptive traversal from fresh starting points, and random-query
baselines, all from the same JSON-ready report.

Run with:  python3 demos/05_reconstruction.py
"""
from __future__ import annotations

import numpy as np

from explainleak.harness import CampaignConfig, run_reconstruction_campaign
from explainleak.models import LogisticModel, TrainConfig
from explainleak.reconstruct import (
    InfluenceOracle,
    algorithm1_reconstruct,
    reconstruction_query_budget,
)
from explainleak.synth import SynthConfig


def main() -> None:
    n_points, n_features = 12, 25
    rng = np.random.default_rng(0)
    base_w = rng.normal(size=n_features)
    loo_b = 0.3 + rng.normal(scale=0.05, size=n_points)
    loo_w = base_w + rng.normal(scale=0.05, size=(n_points, n_features))
    oracle = InfluenceOracle(LogisticModel(base_w, 0.3), loo_w, loo_b)
    result = algorithm1_reconstruct(oracle, y0=np.zeros(n_features), seed=0)
    budget = reconstruction_query_budget(n_features, n_points)
    print("direct attack on a random logistic family")
    print(f"  training points recovered : {len(result.recovered)}/{n_points}")
    print(f"  revealing queries used    : {result.queries_revealing} "
          f"(worst-case budget {budget})")
    print(f"  termination probes        : {result.termination_queries}")
    print(f"  stopped because           : {result.reason}")

    cfg = CampaignConfig(
        synth=SynthConfig(
            n_features=6, n_classes=2, n_samples=60, class_sep=1.0, seed=2
        ),
        train=TrainConfig(optimizer="gd", lr=1.0, epochs=150, batch_size=None),
        train_fraction=0.5,
        reveal_ks=(1, 5),
        graph_k=5,
        traverse_starts=5,
        baseline_queries=40,
        seed=3,
    )
    report = run_reconstruction_campaign(cfg).report
    recon = report["reconstruction"]
    graph = report["graph"]
    traversal = report["traversal"]

    print(f"\nfull campaign against a trained model "
          f"({report['n_train']} training points, {report['n_features']} features)")
    print(f"  reconstruction : {recon['recovered_count']}/{report['n_train']} points, "
          f"{recon['queries_total']} queries, reason {recon['reason']!r}")
    print(f"  influence graph: {graph['scc_count']} SCCs, largest "
          f"{graph['largest_scc_size']}, {graph['singleton_count']} singletons, "
          f"greedy cover needs {graph['greedy_seed_count']} seeds")
    print(f"  traversal      : mean {traversal['mean_recovered']:.1f} points from "
          f"{len(traversal['recovered_counts'])} fresh starts "
          f"(largest SCC {traversal['largest_scc_size']})")

    print("\n  random-query baselines (fraction recovered after n queries)")
    header = f"  {'queries':>9}"
    columns = sorted(report["baselines"])
    print(header + "".join(f"{name:>18}" for name in columns))
    for n in (10, 20, 40):
        row = f"  {n:>9}"
        for name in columns:
            curve = report["baselines"][name]
            row += f"{curve[min(n, len(curve)) - 1]:>18.3f}"
        print(row)

    print("\n  self-reveal rates")
    for k, entry in report["reveal_rates"].items():
        print(f"    k={k:<3} overall {entry['self_reveal_rate']:.3f}")


if __name__ == "__main__":
    main()
