"""Child process of the benchmark: one set-up or one CLI invocation.

    worker.py setup  --src DIR --workload W --instances 3,4,5 --dir D --result R
    worker.py invoke --src DIR --command C --config F --out D --threads T
                     --result R [--trace SPANS]

``setup`` times importing explainleak and writing the workload's inputs.
``invoke`` runs one subcommand in-process through ``explainleak.cli.main``
and times it from config parse through writers; the import is not part of
that time. An untraced invocation also times ``speed_probe`` just before
and just after the call, and a set-up times it right after. Each invocation is a fresh process so that its
peak resident memory belongs to it alone. Results go to the JSON file named
by --result.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _setup(args) -> dict:
    start = time.perf_counter()
    sys.path.insert(0, args.src)
    import explainleak  # noqa: F401  (timed: part of set-up)

    import workloads

    instances = [int(i) for i in args.instances.split(",")]
    workloads.write_inputs(args.workload, instances, Path(args.dir))
    setup_s = time.perf_counter() - start
    return {"setup_s": setup_s, "probe_s": speed_probe()}


def speed_probe() -> float:
    """Seconds for a fixed mix of small numpy calls, dense solves and pure Python.

    The host's speed drifts by up to 1.6x over tens of seconds. Timing this
    probe next to an invocation measures the speed the invocation ran at.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    A = rng.standard_normal((200, 32))
    M = rng.standard_normal((201, 201)) + 201.0 * np.eye(201)
    cells = [repr(x) for x in rng.standard_normal(2000).tolist()]
    start = time.perf_counter()
    for i in range(2000):
        np.argsort(1.0 / (1.0 + np.exp(-(A @ A[i % 200]))))
    for _ in range(40):
        np.linalg.solve(M, M[0])
    for _ in range(25):
        sum(float(c) for c in cells)
    return time.perf_counter() - start


def _invoke(args) -> dict:
    sys.path.insert(0, args.src)
    from explainleak import cli

    argv = [args.command, "--config", args.config, "--out", args.out,
            "--threads", str(args.threads)]
    if not args.trace:
        before = speed_probe()
        start = time.perf_counter()
        code = cli.main(argv)
        run_s = time.perf_counter() - start
        probe_s = (before + speed_probe()) / 2.0
        return {"exit_code": code, "run_s": run_s, "probe_s": probe_s,
                "peak_rss_mb": _peak_rss_mb()}

    import tracing

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        start = time.perf_counter()
        code = tracer.call("cli", cli.main, (argv,), {})
        run_s = time.perf_counter() - start
    finally:
        restore()
    out = Path(args.out)
    metrics = tracing.layer_metrics(tracer)
    metrics["harness.bytes_written"] = float(
        sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    )
    with open(args.trace, "w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span))
            handle.write("\n")
    return {
        "exit_code": code,
        "run_s": run_s,
        "peak_rss_mb": _peak_rss_mb(),
        "layers": metrics,
        "counters": tracing.determinism_counters(tracer),
        "shares": tracing.layer_shares(tracer),
        "spans": len(tracer.spans),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "invoke"))
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--instances")
    parser.add_argument("--dir")
    parser.add_argument("--command")
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--trace")
    args = parser.parse_args()
    result = _setup(args) if args.mode == "setup" else _invoke(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
