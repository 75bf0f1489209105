"""Write ``BENCH_<pr>.json``: the benchmark's metrics and the Tier-1 time of one checkout.

    python3 tools/bench_snapshot.py --pr 26 [--root CHECKOUT]

For each workload of the checkout's ``leakbench/workloads.py`` it runs
``leakbench/run.py`` with seed SEED, REPEATS times with ``--trace 0`` and once with
``--trace 1``, each for the ``run_seconds`` of the checkout's BENCHMARK.json,
then times the Tier-1 suite (ROADMAP.md's command) in the checkout. It writes
the file into the current directory. The file holds every end-to-end sample with its median and
interquartile range (IQR), each invocation's wall ``run_s``, the per-layer
metrics of the traced run with the known-stale ones flagged (not dropped),
the source line count and the BLAS thread settings. A gain is read from two
such files made on one machine, the parent's and the change's; SEED and REPEATS
are fixed so that any two files compare.
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

END_TO_END = ("setup_s", "run_s", "peak_rss_mb", "ok_ratio")
SEED = 0
REPEATS = 3
WORKERS_LOST = "recorded in forked workers, whose spans and counters the tracer loses"
REPORT_UNSPANNED = "misses the report write, which no span covers: it lands in cli.self_s"
EXPLAIN_ZERO = "reads 0: the batched explanation path passes no traced boundary"
PARENT_WAIT = "books the parent's wait for its forked jobs as its own time"
# Per-layer metrics that do not measure what their names say (ROADMAP item 8(a)),
# on every workload ("*") or on one.
STALE = {
    "*": {
        **dict.fromkeys(["explain.s", "explain.local_surrogate_s", "explain.smoothgrad_s",
                         "explain.calls", "explain.rows_per_call"], EXPLAIN_ZERO),
        "models.logistic_fits": "reads 1: the leave-one-out models train as one batch",
        "models.forward_rows": "misses the perturbed copies of the sampled explanations",
        "influence.topk_queries": "counts only traversal starts, not top_k_rows reads",
        "influence.reveal_s": "reads about 0: the reveal table is built outside the span",
        "graph.build_s": "reads about 0: the graph is the reveal table's rows",
    },
    "membership_csv": {
        **dict.fromkeys(
            ["models.train_s", "models.train_steps", "models.forward_rows", "attacks.statistic_s",
             "attacks.statistic_points", "attacks.calibrate_s", "attacks.threshold_scans",
             "attacks.threshold_points", "attacks.scan_distinct_ratio"], WORKERS_LOST),
        "harness.self_s": PARENT_WAIT,
    },
    # a lone target trains in process, but its statistics' halves are fork_map jobs
    "perturbation": {
        **dict.fromkeys(["attacks.statistic_s", "attacks.statistic_points"], WORKERS_LOST),
        "harness.self_s": PARENT_WAIT,
    },
    "reconstruction": {"harness.write_s": REPORT_UNSPANNED},
    "influence_queries": {"harness.write_s": REPORT_UNSPANNED},
}
T1_STALE = "repeats the traced run: --threads has no effect"


def spread(samples: list[float]) -> dict:
    """The samples, their median and their IQR (inclusive quartiles)."""
    q1, median, q3 = (statistics.quantiles(samples, n=4, method="inclusive")
                      if len(samples) > 1 else samples * 3)
    return {"samples": samples, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``leakbench/run.py`` run: its JSON result line plus the wall samples it printed."""
    proc = subprocess.run(
        [sys.executable, "leakbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} trace {trace} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("run_s samples (wall) "):
            result["run_s_wall"] = ast.literal_eval(line.removeprefix("run_s samples (wall) "))
        if " BLAS threads " in line:
            result["blas_threads"] = line.rsplit(" BLAS threads ", 1)[1].strip()
    return result


def tier1(root: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                           "-p", "no:cacheprovider"], cwd=root, env=env, capture_output=True,
                          text=True, check=False)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": summary,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def snapshot(root: Path, pr: int) -> dict:
    sys.path.insert(0, str(root / "leakbench"))
    import workloads  # the checkout's own workload list

    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                            capture_output=True, text=True, check=False).stdout.strip() or None
    out: dict = {"pr": pr, "commit": commit, "seed": SEED, "seconds": seconds,
                 "repeats": REPEATS, "nproc": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(), "workloads": {}}
    for name in workloads.WORKLOADS:
        runs = [bench(root, name, SEED, seconds, 0) for _ in range(REPEATS)]
        traced = bench(root, name, SEED, seconds, 1)
        stale = {**STALE["*"], **STALE.get(name, {})}
        layers = {}
        for metric, entry in traced["metrics"].items():
            reason = T1_STALE if metric.startswith("t1.") else stale.get(metric)
            layers[metric] = {**entry, **({"stale": reason} if reason else {})}
        out["workloads"][name] = {
            "end_to_end": {m: spread([r["metrics"][m]["value"] for r in runs])
                           for m in END_TO_END},
            "run_s_wall": spread([s for r in runs for s in r["run_s_wall"]]),
            "failed": [r["failed"] for r in runs] + [traced["failed"]],
            "attempted": [r["attempted"] for r in runs] + [traced["attempted"]],
            "per_layer": layers,
        }
    out["blas_threads_benchmark"] = traced.get("blas_threads", "unknown")
    out["src_lines"] = int(traced["metrics"]["info.src_lines"]["value"])
    out["tier1"] = tier1(root)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    result = snapshot(args.root.resolve(), args.pr)
    path = Path(f"BENCH_{args.pr}.json")
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
