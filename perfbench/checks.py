"""Output checks on trial records, and the statistics the benchmark reports."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import jsonschema

OUTCOMES = ("success", "timeout", "no_strategy")


def load_validator(repo_root: Path) -> jsonschema.Draft7Validator:
    path = repo_root / "src" / "namoplan" / "schemas" / "trial_record.schema.json"
    schema = json.loads(path.read_text())
    jsonschema.Draft7Validator.check_schema(schema)
    return jsonschema.Draft7Validator(schema)


def record_problems(line: str, timeouts: dict[str, float],
                    validator: jsonschema.Draft7Validator) -> list[str]:
    """Everything wrong with one emitted JSON line; empty when it is valid.

    `timeouts` maps each scenario id the run used to its configured timeout.
    """
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        return [f"not JSON: {exc}"]
    problems = [f"schema: {e.message}" for e in validator.iter_errors(rec)]
    if not isinstance(rec, dict):
        return problems or ["not an object"]
    if rec.get("outcome") not in OUTCOMES:
        problems.append(f"outcome {rec.get('outcome')!r}")
    sid = rec.get("scenario_id")
    timeout = timeouts.get(sid) if isinstance(sid, str) else None
    elapsed = rec.get("elapsed")
    if timeout is None:
        problems.append(f"unknown scenario_id {sid!r}")
    elif not isinstance(elapsed, (int, float)) or not elapsed <= timeout:
        problems.append(f"elapsed {elapsed!r} exceeds timeout {timeout}")
    decisions = rec.get("decisions")
    times = [e.get("t") for e in decisions if isinstance(e, dict)] \
        if isinstance(decisions, list) else []
    if any(not isinstance(t, (int, float)) for t in times):
        problems.append("trace entry without a numeric t")
    elif any(b < a for a, b in zip(times, times[1:])):
        problems.append("trace t decreases")
    return problems


def digest(lines: list[str]) -> str:
    """sha256 of the records, one JSON line each, in sorted order, so that
    the run order does not change it."""
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def tail_percentile(values: list[float], beyond: int = 10) -> tuple[int, float]:
    """The highest whole percentile with at least `beyond` samples above it.

    Nearest-rank percentile p takes the sample of rank ceil(p * n / 100), so
    n - rank samples lie beyond it. Returns (p, value).
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    p = (100 * (n - beyond)) // n
    rank = max(1, -(-p * n // 100))
    return p, sorted(values)[rank - 1]
