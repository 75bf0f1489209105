"""Spans and counters around explainleak's module boundaries.

``install`` wraps the public functions each module calls in another, patching
the name in the *calling* module (``harness`` does ``from .attacks import
optimal_threshold``, so the wrapper goes on ``harness.optimal_threshold``),
and returns a function that restores every original. Nothing in ``src/`` is
changed.

Each span records (id, name, start, end, parent id, thread id). Spans live
in memory until the run ends. Thread pools in ``harness`` and ``influence``
are swapped for an executor that hands the submitting span to its workers,
so spans in pool threads get the right parent. Per-call work that is too
fine-grained for a span (MLP forward passes, single logistic fits) is
recorded as counters and duration samples at the same boundary.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import os
import statistics
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.scan_keys: set[bytes] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int, str] | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def call(self, name: str, func, args, kwargs):
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        span_id = next(self._ids)
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, threading.get_ident()))

    def adopt(self, parent: tuple[int, str] | None, func, *args, **kwargs):
        """Run func in a pool thread as if called under the submitting span."""
        stack = self._stack()
        if parent is not None:
            stack.append(parent)
        try:
            return func(*args, **kwargs)
        finally:
            if parent is not None:
                stack.pop()

    def wrap(self, name, func, on_result=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, func, args, kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# Counters recorded at the wrapped boundaries
# ---------------------------------------------------------------------------


def _on_load_csv(tr, args, dataset):
    tr.count("data.rows", dataset.n_points)
    tr.count("data.bytes_read", os.path.getsize(args[0]))


def _on_generate(tr, args, dataset):
    tr.count("synth.rows", dataset.n_points)


def _on_train(tr, args, model):
    dataset, cfg = args[1], args[2]
    batch = cfg.batch_size if cfg.batch_size is not None else dataset.n_points
    tr.count("models.train_steps", cfg.epochs * math.ceil(dataset.n_points / batch))


def _on_statistic(tr, args, values):
    tr.count("attacks.statistic_points", len(values))


def _on_calibrate(tr, args, result):
    member, nonmember = args[0], args[1]
    key = hashlib.blake2b(member.tobytes() + b"|" + nonmember.tobytes(), digest_size=16)
    with tr._lock:
        tr.counters["attacks.threshold_scans"] += 1
        tr.counters["attacks.threshold_points"] += len(member) + len(nonmember)
        tr.scan_keys.add(key.digest())


def _on_loo_build(tr, args, expl):
    tr.count("influence.loo_fits", len(expl.loo_models))


def _on_topk(tr, args, result):
    tr.count("influence.topk_queries")


def _on_traverse(tr, args, outcome):
    tr.count("graph.traverse_queries", outcome.query_count)


def _on_algorithm1(tr, args, result):
    tr.count("reconstruct.oracle_queries", result.queries_total)
    tr.count("reconstruct.probe_retries", result.retries)


def _on_baseline(tr, args, curve):
    tr.count("reconstruct.baseline_queries", len(curve))


def _on_run(tr, args, result):
    tr.count("harness.warnings", len(getattr(result, "warnings", [])))


def _on_write(tr, args, paths):
    tr.count("harness.decision_rows", len(args[0].decisions))


def install(tracer: Tracer):
    """Patch every boundary; returns a function that undoes all patches."""
    from explainleak import attacks, cli, graph, harness, influence, models, reconstruct

    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr, replacement):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def span(owner, attr, name, on_result=None):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr), on_result))

    for attr in ("run_threshold_experiment", "run_perturbation_experiment",
                 "run_reconstruction_campaign"):
        span(cli, attr, "harness.run", _on_run)
    span(cli, "write_manifest", "harness.write")
    span(harness.ExperimentResult, "write", "harness.write", _on_write)
    span(harness, "sampling_protocol", "harness.protocol")
    span(harness, "validate_protocol", "harness.protocol")
    span(harness, "load_csv_dataset", "data.load_csv", _on_load_csv)
    span(harness, "generate_synthetic", "synth.generate", _on_generate)
    span(harness, "train", "models.train", _on_train)
    span(harness, "statistic_values", "attacks.statistic", _on_statistic)
    span(harness, "optimal_threshold", "attacks.calibrate", _on_calibrate)
    span(harness, "build_loo_cache", "influence.loo_build", _on_loo_build)
    span(harness, "self_reveal_rate", "influence.reveal")
    span(harness, "group_reveal_rates", "influence.reveal")
    span(harness, "build_influence_graph", "graph.build")
    span(harness, "scc_metrics", "graph.scc")
    span(harness, "greedy_omniscient_baseline", "graph.greedy")
    span(harness, "traverse_attack", "graph.traverse", _on_traverse)
    span(harness, "algorithm1_reconstruct", "reconstruct.algorithm1", _on_algorithm1)
    span(harness, "baseline_attack", "reconstruct.baseline", _on_baseline)
    for owner in (influence, graph, reconstruct):
        span(owner, "topk_explain", "influence.topk", _on_topk)

    original_explain = attacks.explain

    def explain(model, x, method, params=None):
        result = tracer.call(f"explain.{method}", original_explain, (model, x, method, params), {})
        tracer.count("explain.calls")
        return result

    patch(attacks, "explain", explain)

    original_forward = models.MlpModel.forward_stack

    def forward_stack(model, X):
        rows = len(X)
        current = tracer.current()
        with tracer._lock:
            tracer.counters["models.forward_rows"] += rows
            if current is not None and current[1].startswith("explain."):
                tracer.counters["explain.forward_rows"] += rows
        return original_forward(model, X)

    patch(models.MlpModel, "forward_stack", forward_stack)

    original_fit = influence.train_logistic

    def train_logistic(dataset, cfg):
        start = time.perf_counter()
        model = original_fit(dataset, cfg)
        tracer.sample("models.logistic_fit", time.perf_counter() - start)
        return model

    patch(influence, "train_logistic", train_logistic)

    class TracedExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.adopt, tracer.current(), fn, *args, **kwargs)

    patch(harness, "ThreadPoolExecutor", TracedExecutor)
    patch(influence, "ThreadPoolExecutor", TracedExecutor)

    def restore() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return restore


# ---------------------------------------------------------------------------
# From spans to layer metrics
# ---------------------------------------------------------------------------


def _union(intervals) -> float:
    total = 0.0
    end_max = -math.inf
    for start, end in sorted(intervals):
        if start > end_max:
            total += end - start
            end_max = end
        elif end > end_max:
            total += end - end_max
            end_max = end
    return total


def self_times(spans) -> dict[str, float]:
    """Per span name: span time minus the union of its children's time."""
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    out: dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _, _ in spans:
        covered = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ())]
        out[name] += (end - start) - _union([c for c in covered if c[1] > c[0]])
    return dict(out)


def union_time(spans, predicate) -> float:
    return _union([(s[2], s[3]) for s in spans if predicate(s[1])])


# Layer time metrics: inclusive wall time of the spans with that name (union
# over threads, so concurrent spans are not counted twice).
TIME_METRICS = {
    "data.load_csv_s": "data.load_csv",
    "synth.generate_s": "synth.generate",
    "models.train_s": "models.train",
    "explain.local_surrogate_s": "explain.local_surrogate",
    "explain.smoothgrad_s": "explain.smoothgrad",
    "attacks.statistic_s": "attacks.statistic",
    "attacks.calibrate_s": "attacks.calibrate",
    "influence.loo_build_s": "influence.loo_build",
    "influence.topk_s": "influence.topk",
    "influence.reveal_s": "influence.reveal",
    "graph.build_s": "graph.build",
    "graph.traverse_s": "graph.traverse",
    "graph.scc_s": "graph.scc",
    "graph.greedy_s": "graph.greedy",
    "reconstruct.algorithm1_s": "reconstruct.algorithm1",
    "reconstruct.baseline_s": "reconstruct.baseline",
    "harness.protocol_s": "harness.protocol",
    "harness.write_s": "harness.write",
}

COUNT_METRICS = (
    "data.rows",
    "data.bytes_read",
    "synth.rows",
    "models.train_steps",
    "models.forward_rows",
    "models.logistic_fits",
    "explain.calls",
    "attacks.statistic_points",
    "attacks.threshold_scans",
    "attacks.threshold_points",
    "influence.loo_fits",
    "influence.topk_queries",
    "graph.traverse_queries",
    "reconstruct.oracle_queries",
    "reconstruct.probe_retries",
    "reconstruct.baseline_queries",
    "harness.decision_rows",
    "harness.warnings",
)


def layer_metrics(tracer: Tracer, root: str = "cli") -> dict[str, float]:
    """Layer times and counters of one traced invocation."""
    spans = tracer.spans
    metrics = {key: union_time(spans, lambda n, name=name: n == name)
               for key, name in TIME_METRICS.items()}
    metrics["explain.s"] = union_time(spans, lambda n: n.startswith("explain."))
    fits = tracer.samples.get("models.logistic_fit", [])
    metrics["models.logistic_fit_s"] = math.fsum(fits)
    metrics["influence.loo_fit_ms_p50"] = 1000.0 * statistics.median(fits) if fits else 0.0
    own = self_times(spans)
    metrics["harness.self_s"] = own.get("harness.run", 0.0)
    metrics["cli.self_s"] = own.get(root, 0.0)
    counters = dict(tracer.counters)
    counters["models.logistic_fits"] = len(fits)
    for key in COUNT_METRICS:
        metrics[key] = float(counters.get(key, 0))
    calls = counters.get("explain.calls", 0)
    metrics["explain.rows_per_call"] = counters.get("explain.forward_rows", 0) / calls if calls else 0.0
    scans = counters.get("attacks.threshold_scans", 0)
    metrics["attacks.scan_distinct_ratio"] = len(tracer.scan_keys) / scans if scans else 0.0
    return metrics


def determinism_counters(tracer: Tracer) -> dict:
    """Everything a traced run counts; two runs of one input must agree exactly."""
    counters = {k: v for k, v in sorted(tracer.counters.items())}
    counters["models.logistic_fits"] = len(tracer.samples.get("models.logistic_fit", []))
    counters["distinct_scans"] = len(tracer.scan_keys)
    span_counts: dict[str, int] = defaultdict(int)
    for span in tracer.spans:
        span_counts[span[1]] += 1
    counters["spans"] = dict(sorted(span_counts.items()))
    return counters


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Self time per span name as a share of all spans' self time.

    Self time is summed over threads, so with a thread pool the shares are
    of busy thread time, not of wall time.
    """
    own = self_times(tracer.spans)
    total = sum(own.values()) or 1.0
    return {name: t / total for name, t in sorted(own.items())}
