"""Influence graphs and graph-guided recovery attacks.

Querying a training point reveals its k most influential peers, which makes
the training set a directed graph: node i points at the k points revealed by
querying x_i. Strongly connected components of that graph bound what a
crawling attacker can recover, and the greedy omniscient baseline gives a
tractable stand-in for the (NP-hard) optimal choice of seed queries. A result
stores what its attack found; its query count is derived from that.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .influence import InfluenceExplainer, topk_explain


def build_influence_graph(reveals: np.ndarray) -> list[list[int]]:
    """The graph's out-edge rows: row i of an (n, k) `self_reveals` table, the
    top-k reveals of querying x_i with its own label."""
    return reveals.tolist()


def strongly_connected_components(edges: list[list[int]]) -> list[list[int]]:
    """Tarjan's algorithm with an explicit stack (no recursion limit)."""
    n = len(edges)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    components: list[list[int]] = []

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, edge_pos = work[-1]
            if edge_pos == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for pos in range(edge_pos, len(edges[v])):
                w = edges[v][pos]
                if index[w] == -1:
                    work[-1] = (v, pos + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
    return components


@dataclass
class GraphMetrics:
    scc_count: int
    singleton_count: int
    largest_scc_size: int
    max_in_degree: int
    zero_in_degree_count: int


def scc_metrics(edges: list[list[int]]) -> GraphMetrics:
    components = strongly_connected_components(edges)
    in_degree = np.bincount([t for row in edges for t in row], minlength=len(edges))
    sizes = [len(c) for c in components]
    return GraphMetrics(
        scc_count=len(components),
        singleton_count=sum(1 for s in sizes if s == 1),
        largest_scc_size=max(sizes) if sizes else 0,
        max_in_degree=int(in_degree.max()) if len(edges) else 0,
        zero_in_degree_count=int((in_degree == 0).sum()),
    )


@dataclass
class TraversalResult:
    recovered: list[int]

    @property
    def query_count(self) -> int:
        """The start query plus one follow-up per recovered point."""
        return len(self.recovered) + 1


def _crawl(edges: list[list[int]], seeds) -> list[int]:
    """The seeds, then every node reached from them along ``edges``, in the
    order a breadth-first crawl discovers them."""
    found = list(dict.fromkeys(int(v) for v in seeds))
    seen = set(found)
    frontier = deque(found)
    while frontier:
        for w in edges[frontier.popleft()]:
            if w not in seen:
                seen.add(w)
                found.append(w)
                frontier.append(w)
    return found


def traverse_attack(
    expl: InfluenceExplainer, edges: list[list[int]], start_query: np.ndarray
) -> TraversalResult:
    """Crawl the training set by re-querying every revealed point once.

    The start query is an arbitrary point; each revealed training point is
    queried at most once with its true label, breadth-first, and the recovered
    set is everything revealed along the way. Only the start query asks
    ``expl``, for as many points as a row of ``edges`` holds: a follow-up's
    answer is its row of ``edges``, built from ``expl``'s `self_reveals`.
    """
    start = topk_explain(expl, start_query, None, len(edges[0]))
    return TraversalResult(_crawl(edges, start.indices))


@dataclass
class GreedyCoverResult:
    seed_count: int
    covered: set[int]

    @property
    def query_count(self) -> int:
        """Seeds plus one follow-up query per covered point."""
        return self.seed_count + len(self.covered)


def greedy_omniscient_baseline(edges: list[list[int]]) -> GreedyCoverResult:
    """Greedy seed selection with full knowledge of the influence graph.

    Repeatedly seeds at the node whose crawl would cover the most still
    unrecovered nodes, until every node that has an incoming path is covered
    (zero-in-degree nodes are unreachable by any crawl and are excluded).
    """
    n = len(edges)
    reach = [set(_crawl(edges, row)) for row in edges]  # every node a query at v reveals
    has_in_edge = set().union(*edges)
    covered: set[int] = set()
    seed_count = 0
    while not has_in_edge <= covered:
        best, best_gain = -1, -1
        for v in range(n):
            gain = len(reach[v] - covered)
            if gain > best_gain:
                best, best_gain = v, gain
        if best_gain <= 0:
            break
        seed_count += 1
        covered |= reach[best]
    return GreedyCoverResult(seed_count, covered)
