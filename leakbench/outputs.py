"""Parse one invocation's output files and compare them with a reference.

A fingerprint keeps two kinds of evidence per output:

* an exact part: byte digests of whole files, plus digests of everything
  that is not a float (ids, indices, decisions, counts, reasons, structure);
* a float part: the float fields themselves for the small records table,
  and (count, sum, sum of |x|) per group for the large decisions table and
  the reconstruction report.

``compare`` passes "exact" when every byte digest matches. Otherwise it
passes "tolerance" when the non-float digests match and every float agrees
within FLOAT_RTOL of its scale (plus FLOAT_ATOL); anything else fails.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-9

RECORD_FLOAT_FIELDS = ("tau", "attack_accuracy", "train_accuracy", "test_accuracy")

_OUTPUT_PREFIX = {"attack": "threshold", "perturb-attack": "perturbation"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def parse_outputs(command: str, out_dir: Path) -> dict:
    """Read an invocation's outputs; raises OSError/ValueError if they are missing."""
    if command in _OUTPUT_PREFIX:
        prefix = _OUTPUT_PREFIX[command]
        records_path = out_dir / f"{prefix}_records.csv"
        decisions_path = out_dir / f"{prefix}_decisions.csv"
        manifest = json.loads((out_dir / f"{prefix}_manifest.json").read_text())
        with open(records_path, newline="") as handle:
            records = list(csv.DictReader(handle))
        return {
            "records": records,
            "records_bytes": records_path.read_bytes(),
            "decisions_path": decisions_path,
            "warnings": manifest.get("warnings", []),
        }
    report = json.loads((out_dir / "reconstruction_report.json").read_text())
    return {"report": report, "warnings": []}


def _decision_groups(path: Path) -> tuple[str, dict]:
    """File digest and per-run_id [rows, exact digest, sum, sum |x|] of decisions."""
    raw = path.read_bytes()
    hashers: dict[str, object] = {}
    values: dict[str, list[float]] = {}
    reader = csv.reader(raw.decode().splitlines())
    next(reader)
    for run_id, point, value, decision, member in reader:
        if run_id not in hashers:
            hashers[run_id] = hashlib.sha256()
            values[run_id] = []
        hashers[run_id].update(f"{point},{decision},{member}\n".encode())
        values[run_id].append(float(value))
    groups = {}
    for run_id, hasher in hashers.items():
        n, total, abs_total = _summary(values[run_id])
        groups[run_id] = [n, hasher.hexdigest()[:32], total, abs_total]
    return _sha(raw), groups


def _walk(node, group: str, skeleton: list, floats: dict, depth: int = 0) -> None:
    if isinstance(node, float):
        skeleton.append("f")
        floats.setdefault(group, []).append(node)
    elif isinstance(node, dict):
        skeleton.append("{")
        for key in sorted(node):
            skeleton.append(repr(key))
            sub = f"{group}.{key}" if depth < 2 else group
            _walk(node[key], sub.lstrip("."), skeleton, floats, depth + 1)
        skeleton.append("}")
    elif isinstance(node, list):
        skeleton.append(f"[{len(node)}")
        for item in node:
            _walk(item, group, skeleton, floats, depth + 1)
        skeleton.append("]")
    else:
        skeleton.append(repr(node))


def _summary(values: list[float]) -> list:
    return [len(values), math.fsum(values), math.fsum(abs(v) for v in values)]


def fingerprint(parsed: dict) -> dict:
    if "records" in parsed:
        records = parsed["records"]
        decisions_sha, decisions = _decision_groups(parsed["decisions_path"])
        return {
            "records_sha": _sha(parsed["records_bytes"]),
            "decisions_sha": decisions_sha,
            "records": [
                [r[k] for k in r if k not in RECORD_FLOAT_FIELDS]
                + [float(r[k]) for k in RECORD_FLOAT_FIELDS]
                for r in records
            ],
            "decisions": decisions,
        }
    # The echoed config holds --threads, which must not change any result.
    report = {k: v for k, v in parsed["report"].items() if k != "config"}
    skeleton: list = []
    floats: dict = {}
    _walk(report, "", skeleton, floats)
    return {
        "report_sha": _sha(json.dumps(report, sort_keys=True).encode()),
        "skeleton_sha": _sha("\x1f".join(skeleton).encode()),
        "floats": {group: _summary(vals) for group, vals in sorted(floats.items())},
    }


def _close(a: float, b: float, scale: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= FLOAT_ATOL + FLOAT_RTOL * max(abs(scale), abs(b))


def compare(got: dict, ref: dict) -> tuple[str, str]:
    """('exact' | 'tolerance' | 'mismatch', detail)."""
    if "report_sha" in ref:
        if got["report_sha"] == ref["report_sha"]:
            return "exact", ""
        if got["skeleton_sha"] != ref["skeleton_sha"]:
            return "mismatch", "report differs outside its float values"
        if set(got["floats"]) != set(ref["floats"]):
            return "mismatch", "report float groups differ"
        for group, (n, total, abs_total) in ref["floats"].items():
            gn, gtotal, gabs = got["floats"][group]
            if gn != n or not _close(gtotal, total, abs_total) or not _close(gabs, abs_total, abs_total):
                return "mismatch", f"report floats in {group} differ beyond tolerance"
        return "tolerance", ""
    if got["records_sha"] == ref["records_sha"] and got["decisions_sha"] == ref["decisions_sha"]:
        return "exact", ""
    if len(got["records"]) != len(ref["records"]):
        return "mismatch", f"{len(got['records'])} records, reference has {len(ref['records'])}"
    n_float = len(RECORD_FLOAT_FIELDS)
    for row, want in zip(got["records"], ref["records"]):
        if row[:-n_float] != want[:-n_float]:
            return "mismatch", f"record {row[0]} differs: {row[:-n_float]} vs {want[:-n_float]}"
        for a, b in zip(row[-n_float:], want[-n_float:]):
            if not _close(a, b, b):
                return "mismatch", f"record {row[0]} float {a!r} vs reference {b!r}"
    if set(got["decisions"]) != set(ref["decisions"]):
        return "mismatch", "decision run ids differ"
    for run_id, (n, digest, total, abs_total) in ref["decisions"].items():
        gn, gdigest, gtotal, gabs = got["decisions"][run_id]
        if gn != n or gdigest != digest:
            return "mismatch", f"decisions of {run_id} differ"
        if not _close(gtotal, total, abs_total) or not _close(gabs, abs_total, abs_total):
            return "mismatch", f"decision values of {run_id} differ beyond tolerance"
    return "tolerance", ""
