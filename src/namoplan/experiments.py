"""Batch experiment harness: seeded trial grids, CSV summaries, and the
bypass-predictor benchmark."""

from __future__ import annotations

import csv
import multiprocessing as mp
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bypass as byp
from .simulator import (POLICIES, ScenarioConfig, TrialRecord,
                        generate_timing_dataset, get_policy, run_episode)


@dataclass
class ExperimentSpec:
    scenario_paths: list[str]
    policies: list[str]
    repetitions: int = 5
    seed_base: int = 0
    output_dir: str = "results"

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


RAW_COLUMNS = ["scenario_id", "policy", "rep", "seed", "outcome", "elapsed"]
SUMMARY_COLUMNS = ["scenario_id", "policy", "n", "mean", "std", "median",
                   "q1", "q3", "iqr", "success_rate"]


# The grid's configs, in the process that runs its episodes: set by
# `run_benchmark` for the length of a grid, and in each pool worker once, by
# the pool's initializer. A job names its config by index, so the configs
# (each with its map) are sent to a worker once, not with every job, and a
# worker's episodes of one config share its decision nodes.
_CONFIGS: list[ScenarioConfig] = []


def _set_configs(configs: list[ScenarioConfig]) -> None:
    global _CONFIGS
    _CONFIGS = configs


def _one_trial(args) -> TrialRecord:
    index, policy_name, seed = args
    return run_episode(_CONFIGS[index], policy_name, seed=seed)


def run_benchmark(spec: ExperimentSpec,
                  workers: int = 1) -> tuple[list[dict], list[dict]]:
    """Run the scenario x policy x repetition grid.

    Trial seeds are seed_base + repetition index, shared across cells so
    policies face paired worlds. Results arrive in deterministic
    scenario/policy/repetition order regardless of worker completion order
    or run order, and each is written as soon as every record before it is
    in, so a failing episode leaves every record before the first missing
    one on disk. Each scenario file is parsed once, before any
    episode runs, so a bad config fails the grid up front; episodes never
    modify their config, so its trials share it. Each job is one
    `run_episode(config, policy, seed=...)` call, and the episodes of one
    config in one process share their work up to the first choice in which
    their policies differ (see `run_episode`); the configs, and with them
    those shared nodes, live for this one grid. Worker processes receive
    the configs once, through the pool's initializer.

    Within each scenario's block of jobs the episodes run with their
    policies in `POLICIES` order, whatever order the spec lists them in, so
    which episode first computes the nodes the others reuse, and with it
    each episode's host time, does not depend on that order.
    """
    for policy in spec.policies:
        get_policy(policy)  # fail fast on unknown names
    index = {path: i for i, path in enumerate(dict.fromkeys(spec.scenario_paths))}
    configs = [ScenarioConfig.from_yaml(path) for path in index]
    jobs = [(index[path], policy, spec.seed_base + rep)
            for path in spec.scenario_paths
            for policy in spec.policies
            for rep in range(spec.repetitions)]
    block = len(spec.policies) * spec.repetitions
    rank = {name: i for i, name in enumerate(POLICIES)}
    order = sorted(range(len(jobs)),
                   key=lambda i: (i // block, rank[jobs[i][1]]))

    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    raw_path = out_dir / "trials.csv"
    jsonl_path = out_dir / "trials.jsonl"

    rows: list[dict] = []
    _set_configs(configs)
    try:
        with (open(raw_path, "w", newline="") as raw_fh,
              open(jsonl_path, "w") as jsonl_fh,
              mp.Pool(workers, _set_configs, (configs,)) if workers > 1
              else nullcontext() as pool):
            writer = csv.DictWriter(raw_fh, fieldnames=RAW_COLUMNS,
                                    extrasaction="ignore")
            writer.writeheader()
            run = [jobs[i] for i in order]
            records = (pool.imap(_one_trial, run) if pool is not None
                       else map(_one_trial, run))
            done: dict[int, TrialRecord] = {}
            for i, record in zip(order, records):
                done[i] = record
                while len(rows) in done:
                    _, policy, seed = jobs[len(rows)]
                    record = done.pop(len(rows))
                    row = {
                        "scenario_id": record.scenario_id,
                        "policy": policy,
                        "rep": seed - spec.seed_base,
                        "seed": seed,
                        "outcome": record.outcome,
                        "elapsed": record.elapsed,
                        "record": record,
                    }
                    rows.append(row)
                    writer.writerow(row)
                    jsonl_fh.write(record.to_json_line() + "\n")
    finally:
        _set_configs([])

    summary = summarize(rows)
    _write_summary(out_dir / "summary.csv", summary)
    return rows, summary


def summarize(rows: list[dict]) -> list[dict]:
    """Per (scenario, policy) statistics: mean/std and median/IQR."""
    cells: dict[tuple[str, str], list[dict]] = {}
    order: list[tuple[str, str]] = []
    for row in rows:
        key = (row["scenario_id"], row["policy"])
        if key not in cells:
            cells[key] = []
            order.append(key)
        cells[key].append(row)
    summary = []
    for key in order:
        elapsed = np.array([r["elapsed"] for r in cells[key]])
        q1, med, q3 = np.percentile(elapsed, [25, 50, 75])
        summary.append({
            "scenario_id": key[0],
            "policy": key[1],
            "n": len(elapsed),
            "mean": float(elapsed.mean()),
            "std": float(elapsed.std(ddof=1)) if len(elapsed) > 1 else 0.0,
            "median": float(med),
            "q1": float(q1),
            "q3": float(q3),
            "iqr": float(q3 - q1),
            "success_rate": float(np.mean(
                [r["outcome"] == "success" for r in cells[key]])),
        })
    return summary


def _write_summary(path: Path, summary: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        writer.writerows(summary)


# ----------------------------------------------------------------------
# bypass predictor benchmark


@dataclass
class BypassReport:
    median_ae: dict[str, float] = field(default_factory=dict)
    iqr_ae: dict[str, float] = field(default_factory=dict)
    n_train: int = 0
    n_test: int = 0

    def format(self) -> str:
        lines = [f"bypass predictor benchmark ({self.n_train} train / "
                 f"{self.n_test} test)"]
        for name in self.median_ae:
            lines.append(f"  {name:14s} median AE {self.median_ae[name]:6.2f} s"
                         f"   IQR {self.iqr_ae[name]:6.2f} s")
        return "\n".join(lines)


def evaluate_bypass_predictors(train: byp.TimingDataset, test: byp.TimingDataset,
                               v_max: float = 0.5,
                               accel: float = 0.5) -> tuple[byp.GlrModel, BypassReport]:
    """Fit the regressor and both baselines on train, score absolute error
    on test."""
    model = byp.fit(train)
    avg = byp.baseline_average_speed(train)
    trap = byp.baseline_trapezoid(v_max, accel)

    report = BypassReport(n_train=len(train), n_test=len(test))
    preds = {
        "glr": np.array([model.predict(_feat(row))[0] for row in test.features]),
        "average-speed": np.array([avg.predict(_feat(row)) for row in test.features]),
        "trapezoid": np.array([trap.predict(_feat(row)) for row in test.features]),
    }
    for name, pred in preds.items():
        ae = np.abs(pred - test.durations)
        q1, med, q3 = np.percentile(ae, [25, 50, 75])
        report.median_ae[name] = float(med)
        report.iqr_ae[name] = float(q3 - q1)
    return model, report


def _feat(row: np.ndarray) -> byp.TrajectoryFeatures:
    return byp.TrajectoryFeatures(float(row[0]), float(row[1]), float(row[2]))


def generate_bypass_benchmark(config: ScenarioConfig, seed: int = 0,
                              n_train: int = 1500,
                              n_test: int = 600) -> tuple[byp.TimingDataset,
                                                          byp.TimingDataset]:
    """Train/test timing datasets from the scenario map (default 1500/600)."""
    grid = config.load_grid()
    robot = config.robot
    train = generate_timing_dataset(grid, robot.radius, robot.v_lin, robot.v_rot,
                                    n_train, seed,
                                    config.bypass_model.noise_sigma)
    test = generate_timing_dataset(grid, robot.radius, robot.v_lin, robot.v_rot,
                                   n_test, seed + 1,
                                   config.bypass_model.noise_sigma)
    return train, test
