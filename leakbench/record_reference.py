"""Record the reference fingerprints the benchmark checks outputs against.

    python3 leakbench/record_reference.py WORKLOAD [WORKLOAD ...]

Runs every instance of each named workload once at ``--threads 1`` and
writes ``leakbench/reference/<workload>.json``. Record only from a commit
whose results are known good: the benchmark then fails any later commit
whose outputs drift from these beyond the tolerance in ``outputs.py``.
Each workload uses its own scratch directory, so several can be recorded
in parallel.
"""
from __future__ import annotations

import json
import platform
import shutil
import sys
from importlib import metadata

sys.dont_write_bytecode = True

import run  # noqa: E402
import workloads  # noqa: E402


def record(name: str) -> int:
    workload = workloads.WORKLOADS[name]
    work = run.ROOT / ".leakbench_work" / f"record_{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    recorder = run.Run(workload, None, work)
    for instance in range(workloads.N_INSTANCES):
        recorder.setup([instance])
        recorder.invoke(instance, threads=1)
        records = recorder.records.get(instance, [])
        summary = {r["statistic"]: r["attack_accuracy"] for r in records if r["calibration"] == "optimal"}
        print(f"{name} instance {instance}: {summary or 'ok'}", flush=True)
    for problem in recorder.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if recorder.failed:
        return 1
    payload = {
        "workload": name,
        "recorded_with": {
            "threads": 1,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
        },
        "instances": recorder.recorded,
    }
    path = run.BENCH / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(max(record(name) for name in sys.argv[1:]))
