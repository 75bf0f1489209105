"""Influence-graph construction, SCC metrics, and crawling attacks."""
from __future__ import annotations

from collections import deque
from dataclasses import asdict

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explainleak import (
    LogisticModel,
    TrainConfig,
    build_influence_graph,
    build_loo_cache,
    greedy_omniscient_baseline,
    scc_metrics,
    self_reveals,
    strongly_connected_components,
    topk_explain,
    traverse_attack,
)
from conftest import two_blob_dataset
from test_influence import fake_explainer, tie_heavy_explainer

FULL_BATCH = TrainConfig(optimizer="gd", lr=1.0, epochs=100, batch_size=None)


def _as_canonical(components) -> set[frozenset]:
    return {frozenset(c) for c in components}


@st.composite
def _digraphs(draw, max_out_degree: int) -> list[list[int]]:
    """Random digraphs on 0-40 nodes, self-loops allowed. Either every node has
    min(k, n) distinct out-edges, as an influence graph's top-k rows do, or
    each has at most k, repeats allowed."""
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        k = min(max_out_degree, n)
        targets = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    else:
        targets = st.lists(st.integers(0, n - 1), max_size=max_out_degree)
    return [draw(targets) for _ in range(n)]


def reference_traverse(expl, start_query, k):
    """The crawl `traverse_attack` replaced: one `topk_explain` per revealed point."""
    start = topk_explain(expl, np.asarray(start_query, dtype=np.float64), None, k)
    queries = 1
    recovered: list[int] = []
    seen: set[int] = set()
    frontier: deque[int] = deque()
    for idx in start.indices:
        idx = int(idx)
        if idx not in seen:
            seen.add(idx)
            recovered.append(idx)
            frontier.append(idx)
    while frontier:
        node = frontier.popleft()
        result = topk_explain(
            expl, expl.dataset.features[node], int(expl.dataset.labels[node]), k
        )
        queries += 1
        for idx in result.indices:
            idx = int(idx)
            if idx not in seen:
                seen.add(idx)
                recovered.append(idx)
                frontier.append(idx)
    return recovered, queries


def _random_edges(rng, n: int, out_degree: int) -> list[list[int]]:
    return [
        list(rng.choice(n, size=min(out_degree, n), replace=False))
        for _ in range(n)
    ]


def _assert_matches_networkx(edges: list[list[int]]) -> None:
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(edges)))
    graph.add_edges_from((u, v) for u, targets in enumerate(edges) for v in targets)
    assert _as_canonical(strongly_connected_components(edges)) == _as_canonical(
        nx.strongly_connected_components(graph)
    )


class TestStronglyConnectedComponents:
    def test_three_cycle_plus_isolated_node(self):
        edges = [[1], [2], [0], []]
        components = strongly_connected_components(edges)
        assert _as_canonical(components) == {frozenset({0, 1, 2}), frozenset({3})}

    def test_empty_graph(self):
        assert strongly_connected_components([]) == []

    def test_every_node_in_exactly_one_component(self):
        edges = [[1, 2], [0], [3], [2], []]
        components = strongly_connected_components(edges)
        flat = sorted(v for c in components for v in c)
        assert flat == list(range(5))

    # Each out-degree bound draws its own examples, so sparse graphs of
    # singletons and dense ones with one giant component are both covered.
    @pytest.mark.parametrize("max_out_degree", range(10))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_networkx(self, max_out_degree, data):
        _assert_matches_networkx(data.draw(_digraphs(max_out_degree)))

    # Out-degree up to 4, the range of the seeded digraphs the property above
    # replaced, drawn 200 times on its own.
    @settings(max_examples=200, deadline=None)
    @given(edges=_digraphs(4))
    def test_matches_networkx_on_random_digraphs(self, edges):
        _assert_matches_networkx(edges)

    def test_deep_path_no_recursion_limit(self):
        n = 5000
        edges = [[i + 1] for i in range(n - 1)] + [[]]
        components = strongly_connected_components(edges)
        assert len(components) == n


class TestMetrics:
    def test_three_cycle_plus_isolated_metrics(self):
        metrics = scc_metrics([[1], [2], [0], []])
        assert metrics.scc_count == 2
        assert metrics.singleton_count == 1
        assert metrics.largest_scc_size == 3
        assert metrics.max_in_degree == 1
        assert metrics.zero_in_degree_count == 1

    def test_hub_in_degree(self):
        metrics = scc_metrics([[3], [3], [3], []])
        assert metrics.max_in_degree == 3
        assert metrics.zero_in_degree_count == 3
        assert metrics.largest_scc_size == 1
        assert metrics.singleton_count == 4

    def test_empty_graph_metrics(self):
        metrics = scc_metrics([])
        assert metrics.scc_count == 0
        assert metrics.largest_scc_size == 0
        assert metrics.max_in_degree == 0

    def test_to_dict_round_trip(self):
        metrics = scc_metrics([[1], [0]])
        d = asdict(metrics)
        assert d["scc_count"] == 1
        assert d["largest_scc_size"] == 2
        assert set(d) == {
            "scc_count",
            "singleton_count",
            "largest_scc_size",
            "max_in_degree",
            "zero_in_degree_count",
        }


class TestBuildGraph:
    def test_edges_are_per_point_topk(self):
        rng = np.random.default_rng(60)
        base = LogisticModel(w=rng.normal(size=2), b=0.1)
        loos = [LogisticModel(w=rng.normal(size=2), b=float(rng.normal()))
                for _ in range(6)]
        features = rng.normal(size=(6, 2))
        labels = rng.integers(0, 2, size=6).astype(np.int64)
        expl = fake_explainer(base, loos, features=features, labels=labels)
        graph = build_influence_graph(self_reveals(expl, 2))
        assert len(graph) == 6 and all(len(row) == 2 for row in graph)
        for i in range(6):
            reveal = topk_explain(expl, features[i], int(labels[i]), 2)
            assert graph[i] == [int(j) for j in reveal.indices]

    def test_k_override(self):
        rng = np.random.default_rng(61)
        base = LogisticModel(w=rng.normal(size=2), b=0.0)
        loos = [LogisticModel(w=rng.normal(size=2), b=0.0) for _ in range(5)]
        expl = fake_explainer(base, loos, features=rng.normal(size=(5, 2)))
        graph = build_influence_graph(self_reveals(expl, 3))
        assert all(len(row) == 3 for row in graph)


class TestTraversal:
    @pytest.fixture
    def trained_explainer(self):
        ds = two_blob_dataset(n=20, n_features=2, seed=70)
        return build_loo_cache(ds, FULL_BATCH)

    @pytest.fixture
    def graph(self, trained_explainer):
        return build_influence_graph(self_reveals(trained_explainer, 2))

    def test_recovers_closure_of_initial_reveal(self, trained_explainer, graph):
        expl = trained_explainer
        start = np.array([0.25, -0.4])
        outcome = traverse_attack(expl, graph, start)
        digraph = nx.DiGraph()
        digraph.add_nodes_from(range(len(graph)))
        for u, targets in enumerate(graph):
            digraph.add_edges_from((u, v) for v in targets)
        initial = [int(i) for i in topk_explain(expl, start, None, 2).indices]
        expected = set(initial)
        for node in initial:
            expected |= nx.descendants(digraph, node)
        assert set(outcome.recovered) == expected

    def test_query_count_is_recovered_plus_start(self, trained_explainer, graph):
        outcome = traverse_attack(trained_explainer, graph, np.array([1.0, 1.0]))
        assert outcome.query_count == len(outcome.recovered) + 1

    def test_no_duplicate_recoveries(self, trained_explainer, graph):
        outcome = traverse_attack(trained_explainer, graph, np.array([0.0, 0.0]))
        assert len(outcome.recovered) == len(set(outcome.recovered))

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 14), distinct=st.integers(1, 5), seed=st.integers(0, 2**16),
           data=st.data())
    def test_matches_per_node_query_crawl(self, n, distinct, seed, data):
        expl = tie_heavy_explainer(n, min(distinct, n), seed)
        k = data.draw(st.integers(1, n), label="k")
        start = np.random.default_rng(seed + 1).normal(size=2)
        graph = build_influence_graph(self_reveals(expl, k))
        outcome = traverse_attack(expl, graph, start)
        expected = reference_traverse(expl, start, k)
        assert (outcome.recovered, outcome.query_count) == expected


class TestGreedyBaseline:
    def test_single_cycle_needs_one_seed(self):
        result = greedy_omniscient_baseline([[1], [2], [0]])
        assert result.seed_count == 1
        assert result.covered == {0, 1, 2}
        assert result.query_count == 4

    def test_two_chains_need_two_seeds(self):
        result = greedy_omniscient_baseline([[1], [], [3], []])
        assert result.seed_count == 2
        assert result.covered == {1, 3}
        assert result.query_count == 4

    def test_star_covers_hub_with_one_seed(self):
        result = greedy_omniscient_baseline([[], [0], [0], [0]])
        assert result.seed_count == 1
        assert result.covered == {0}
        assert result.query_count == 2

    def test_unreachable_nodes_excluded_from_target(self):
        # Node 0 has no in-edges: no crawl can recover it, so coverage of
        # node 1 alone finishes the job.
        result = greedy_omniscient_baseline([[1], []])
        assert 0 not in result.covered
        assert result.covered == {1}

    def test_accepts_graph_object(self):
        graph = build_influence_graph(np.array([[1], [0]]))
        result = greedy_omniscient_baseline(graph)
        assert result.covered == {0, 1}
        assert result.seed_count == 1

    def test_covers_every_node_with_in_edges(self):
        rng = np.random.default_rng(62)
        edges = _random_edges(rng, 30, out_degree=2)
        result = greedy_omniscient_baseline(edges)
        has_in = {v for targets in edges for v in targets}
        assert has_in <= result.covered
