"""explainleak benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 leakbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it sets the workload up several times (``setup_s`` is the
median) and then invokes the workload's subcommand again and again, one
fresh process at a time (closed loop, one client), for about S seconds.
Set-up times, and the run times of some workloads, are scaled to a fixed
host speed measured by a speed probe (see PROBE_REF_S).
With ``--trace 1`` it alternates two untraced and two traced invocations, plus
a ``--threads 1`` reference where the workload runs at 2 threads, and reports
per-layer metrics. Every invocation's outputs are checked against the
reference recorded in ``reference/`` and against the workload's invariants.
The last line of standard output is the JSON result; a failed check makes
the exit code 1. Scratch files go to ``.leakbench_work/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import outputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".leakbench_work"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150

# setup_s, and run_s of speed_scaled workloads, are wall times scaled to a
# host speed at which the speed probe (worker.speed_probe) takes this long:
# about the fastest state of the 2-core reference host. The shared host's
# speed steps by up to 1.6x over tens of seconds; scaling by the probe timed
# next to each set-up or invocation takes those steps out of the figures.
PROBE_REF_S = 0.050

# BLAS is pinned to one thread so that Python threads x BLAS threads <= 2 cores.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))


def _layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    times = [*tracing.TIME_METRICS, "explain.s", "models.logistic_fit_s",
             "harness.self_s", "cli.self_s"]
    specs = [(name, "s", "lower") for name in times]
    specs.append(("influence.loo_fit_ms_p50", "ms", "lower"))
    specs += [(name, "bytes" if name.endswith("bytes_read") else "count", "lower")
              for name in tracing.COUNT_METRICS]
    specs += [
        ("harness.bytes_written", "bytes", "lower"),
        ("explain.rows_per_call", "rows/call", "lower"),
        ("attacks.scan_distinct_ratio", "ratio", "higher"),
        ("trace.run_s", "s", "lower"),
        ("trace.untraced_run_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.probe_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.counters_identical", "bool", "higher"),
        ("info.src_lines", "lines", "lower"),
        ("info.nproc", "count", "higher"),
        ("t1.run_s", "s", "lower"),
    ]
    specs += [(f"t1.{name}", "s", "lower") for name in times]
    specs.append(("t1.influence.loo_fit_ms_p50", "ms", "lower"))
    return specs


LAYER_SPECS = _layer_specs()
UNITS = {**dict(END_TO_END), **{name: unit for name, unit, _ in LAYER_SPECS}}


class Run:
    """Invocations of one workload and the outcome of their checks."""

    def __init__(self, workload: workloads.Workload, reference: dict | None, work: Path):
        """With reference None, fingerprints are collected into ``recorded``."""
        self.workload = workload
        self.reference = reference
        self.recorded: dict[str, dict] = {}
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.exact = 0
        self.tolerance = 0
        self.problems: list[str] = []
        self.records: dict[int, list[dict]] = {}
        self.configs: dict[int, Path] = {}
        self._n = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def worker(self, args: list[str], result: Path) -> dict:
        if result.exists():
            result.unlink()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args, "--src", str(SRC),
             "--result", str(result)],
            cwd=ROOT,
            env={**os.environ, **CHILD_ENV},
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0 or not result.exists():
            tail = proc.stderr.strip().splitlines()[-3:]
            raise RuntimeError(f"worker exited {proc.returncode}: {' | '.join(tail)}")
        return json.loads(result.read_text())

    def setup(self, instances: list[int]) -> dict:
        inputs = self.work / "inputs"
        out = self.worker(
            ["setup", "--workload", self.workload.name,
             "--instances", ",".join(map(str, instances)), "--dir", str(inputs)],
            self.work / "setup.json",
        )
        self.configs = {i: inputs / f"config_{i}.json" for i in instances}
        return out

    def invoke(self, instance: int, threads: int, trace: bool = False) -> dict | None:
        """One checked invocation; returns the worker's result, or None on failure."""
        self.attempted += 1
        self._n += 1
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        args = ["invoke", "--command", self.workload.command,
                "--config", str(self.configs[instance]), "--out", str(out_dir),
                "--threads", str(threads)]
        if trace:
            args += ["--trace", str(self.work / f"spans_{self._n}.jsonl")]
        label = f"instance {instance} threads {threads}{' traced' if trace else ''}"
        try:
            result = self.worker(args, self.work / "invoke.json")
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            self.fail(f"{label}: {exc}")
            return None
        if result["exit_code"] != 0:
            self.fail(f"{label}: CLI exit code {result['exit_code']}")
            return None
        try:
            parsed = outputs.parse_outputs(self.workload.command, out_dir)
            got = outputs.fingerprint(parsed)
        except (OSError, ValueError, KeyError) as exc:
            self.fail(f"{label}: unreadable outputs: {exc}")
            return None
        problems = workloads.check_invariants(self.workload.name, parsed)
        if self.reference is None:
            self.recorded[str(instance)] = got
            verdict = "exact"
        elif str(instance) not in self.reference:
            verdict = "mismatch"
            problems.append(f"no reference recorded for instance {instance}")
        else:
            verdict, detail = outputs.compare(got, self.reference[str(instance)])
            if verdict == "mismatch":
                problems.append(f"reference mismatch: {detail}")
        if problems:
            self.fail(f"{label}: {'; '.join(problems)}")
            return None
        if verdict == "exact":
            self.exact += 1
        else:
            self.tolerance += 1
        if "records" in parsed:
            self.records[instance] = parsed["records"]
        return result

    def run_level_checks(self) -> None:
        if self.workload.name == "perturbation" and self.records:
            self.attempted += 1
            problems = workloads.perturbation_band_problems(self.records)
            if problems:
                self.fail("; ".join(problems))


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _measure(run: Run, seed: int, seconds: float) -> dict[str, float]:
    """Closed loop over whole cycles of the run's instances for about ``seconds``.

    A cycle starts only if a cycle of median length would end within
    ``seconds``; the first cycle always runs. Each set-up's wall time, and
    each invocation's where the workload is ``speed_scaled``, is multiplied
    by PROBE_REF_S over the probe timed next to it.
    """
    instances = run.workload.instance_ids(seed)
    setups = [run.setup(instances) for _ in range(SETUP_REPEATS)]
    setup_raw = [s["setup_s"] for s in setups]
    run_s, raw_s, probe_s, rss, cycles = [], [], [], [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        for instance in instances:
            result = run.invoke(instance, run.workload.threads)
            if result is not None:
                scale = PROBE_REF_S / result["probe_s"] if run.workload.speed_scaled else 1.0
                run_s.append(result["run_s"] * scale)
                raw_s.append(result["run_s"])
                probe_s.append(result["probe_s"])
                rss.append(result["peak_rss_mb"])
        cycles.append(time.monotonic() - began)
        if time.monotonic() - start + _median(cycles) > seconds:
            break
    run.run_level_checks()
    if not run_s:
        raise RuntimeError("no invocation succeeded")
    print(f"setup_s samples (wall) {[round(s, 4) for s in setup_raw]}")
    print(f"run_s samples (wall) {[round(s, 4) for s in raw_s]}")
    print(f"speed probe samples {[round(s, 4) for s in probe_s]}")
    print(f"wall medians: setup {_median(setup_raw):.4f} s, run {_median(raw_s):.4f} s")
    return {
        "setup_s": _median([s["setup_s"] * PROBE_REF_S / s["probe_s"] for s in setups]),
        "run_s": _median(run_s),
        "peak_rss_mb": _median(rss),
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
    }


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "explainleak").glob("*.py"))


def _traced(run: Run, seed: int) -> dict[str, float]:
    instance = run.workload.instance_ids(seed)[0]
    threads = run.workload.threads
    run.setup([instance])
    # Alternate untraced and traced invocations so that drift in machine
    # speed does not show up as tracing overhead.
    plain, traced = [], []
    for _ in range(2):
        plain.append(run.invoke(instance, threads))
        traced.append(run.invoke(instance, threads, trace=True))
    if None in plain or None in traced:
        raise RuntimeError("a traced or untraced invocation failed")
    run.attempted += 1
    identical = traced[0]["counters"] == traced[1]["counters"]
    if not identical:
        run.fail("counters differ between two traced runs of the same input")
    metrics = {
        key: value if not key.endswith(("_s", "_p50")) else
        statistics.fmean(t["layers"][key] for t in traced)
        for key, value in traced[0]["layers"].items()
    }
    traced_s = statistics.fmean(t["run_s"] for t in traced)
    plain_s = statistics.fmean(p["run_s"] for p in plain)
    metrics.update({
        "trace.run_s": traced_s,
        "trace.untraced_run_s": plain_s,
        "trace.overhead_ratio": traced_s / plain_s,
        "trace.probe_s": statistics.fmean(p["probe_s"] for p in plain),
        "trace.spans": float(traced[0]["spans"]),
        "trace.counters_identical": float(identical),
        "info.src_lines": float(_src_lines()),
        "info.nproc": float(len(os.sched_getaffinity(0))),
    })
    # Single-threaded reference: a plain run at --threads 1 where the workload
    # uses 2 threads; otherwise the traced runs above already are that run.
    single = run.invoke(instance, 1, trace=True) if threads > 1 else traced[0]
    if single is None:
        raise RuntimeError("the --threads 1 reference invocation failed")
    metrics["t1.run_s"] = single["run_s"]
    for name, _, _ in LAYER_SPECS:
        if name.startswith("t1.") and name != "t1.run_s":
            metrics[name] = single["layers"][name[3:]]
    _print_shares(traced[0], traced_s)
    if threads > 1:
        print("--threads 1 reference:")
        _print_shares(single, single["run_s"])
    return metrics


def _print_shares(result: dict, run_s: float) -> None:
    shares = sorted(result["shares"].items(), key=lambda kv: -kv[1])
    print(f"  self time by span (share of busy thread time; traced run_s {run_s:.3f} s):")
    for name, share in shares:
        print(f"    {name:26s} {share:7.1%}")
    print(f"  largest layer: {shares[0][0]}")


def _check_declared(metrics: dict, trace: bool) -> None:
    """The metrics printed must be exactly the ones BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text())
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if declared != set(metrics):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(declared - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - declared)}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "explainleak" / "__init__.py").is_file():
        print(f"error: no explainleak package under {SRC}", file=sys.stderr)
        return 2
    ref_path = BENCH / "reference" / f"{args.workload}.json"
    reference = json.loads(ref_path.read_text())["instances"]
    workload = workloads.WORKLOADS[args.workload]

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    versions = {pkg: metadata.version(pkg) for pkg in ("numpy", "scipy")}
    print(
        f"workload {workload.name} seed {args.seed} instances "
        f"{workload.instance_ids(args.seed)} threads {workload.threads} "
        f"trace {args.trace} | nproc {len(os.sched_getaffinity(0))} python "
        f"{platform.python_version()} numpy {versions['numpy']} scipy {versions['scipy']} "
        f"BLAS threads {CHILD_ENV['OPENBLAS_NUM_THREADS']}"
    )
    run = Run(workload, reference, WORK)
    try:
        metrics = _traced(run, args.seed) if args.trace else _measure(run, args.seed, args.seconds)
        _check_declared(metrics, bool(args.trace))
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        for problem in run.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"checks: {run.exact} exact, {run.tolerance} within tolerance "
        f"(rtol {outputs.FLOAT_RTOL}), {run.failed} failed of {run.attempted} operations; "
        f"fail_ratio {run.failed / run.attempted:.4f}"
    )
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {UNITS[name]}")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
