"""Batch experiment harness: seeded trial grids, CSV summaries, and the
bypass-predictor benchmark."""

from __future__ import annotations

import csv
import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor
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
        if self.seed_base < 0:
            raise ValueError("seed must be >= 0")


RAW_COLUMNS = ["scenario_id", "policy", "rep", "seed", "outcome", "elapsed"]
SUMMARY_COLUMNS = ["scenario_id", "policy", "n", "mean", "std", "median",
                   "q1", "q3", "iqr", "success_rate"]


# The grid's configs, in the process that runs its episodes: set by
# `run_benchmark` for the length of a grid, and in each pool worker once, by
# the pool's initializer. A job names its config by index, so the configs
# (each with its map) are sent to a worker once, not with every job.
_CONFIGS: list[ScenarioConfig] = []


def _set_configs(configs: list[ScenarioConfig]) -> None:
    global _CONFIGS
    _CONFIGS = configs


def _one_world(args) -> list[TrialRecord]:
    """A world's episodes at one seed: config by config, one per policy,
    each in the given order."""
    indices, policies, seed = args
    return [run_episode(_CONFIGS[index], policy, seed=seed)
            for index in indices for policy in policies]


def run_benchmark(spec: ExperimentSpec,
                  workers: int = 1) -> tuple[list[dict], list[dict]]:
    """Run the scenario x policy x repetition grid.

    Trial seeds are seed_base + repetition index, shared across cells so
    policies face paired worlds. Results arrive in deterministic
    scenario/policy/repetition order regardless of worker completion order
    or run order, and each is written as soon as every record before it is
    in, so a failing episode leaves every record before the first missing
    one on disk. Each scenario file is parsed once, before any
    episode runs, so a bad config, or a `scenario_id` that two files share,
    fails the grid up front; a config is frozen, so its trials share it.

    A job is one world at one seed, `(config indices, policies, seed)`:
    the scenarios whose configs differ only in decision-only fields, such as
    `estimated_sr`, simulate one world (see `run_episode`). It makes one
    `run_episode(config, policy, seed=...)` call per config and policy, so
    the seed's episodes share their decision nodes up to the first choice
    in which their rules differ, in one process, and a pool repeats no
    walk. Jobs run world by world, in the order of each world's first
    scenario, and seed by seed. A job runs its configs by scenario id and
    its policies in `POLICIES` order, whatever order the spec lists them
    in, so which episode first computes the nodes the others reuse, and
    with it each episode's host time, does not depend on that order.
    Worker processes receive the configs once, through the pool's
    initializer. A worker that dies breaks the pool, and the grid raises
    `BrokenProcessPool` with the jobs not yet started cancelled.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    for policy in spec.policies:
        get_policy(policy)  # fail fast on unknown names
    index = {path: i for i, path in enumerate(dict.fromkeys(spec.scenario_paths))}
    configs = [ScenarioConfig.from_yaml(path) for path in index]
    files: dict[str, Path] = {}
    for path, config in zip(index, configs):
        first = files.setdefault(config.scenario_id, Path(path).resolve())
        if first != Path(path).resolve():
            raise ValueError(f"scenario_id {config.scenario_id!r} is in both "
                             f"{first} and {path}")
    reps = spec.repetitions
    # A job runs the spec's policies in `POLICIES` order; its k-th record
    # is in the grid's policy column `columns[k]`.
    rank = {name: i for i, name in enumerate(POLICIES)}
    columns = sorted(range(len(spec.policies)),
                     key=lambda j: rank[spec.policies[j]])
    policies = tuple(spec.policies[j] for j in columns)
    # The grid's scenario rows by world; a job's rows, by scenario id.
    ids = [index[path] for path in spec.scenario_paths]
    worlds: dict[tuple, list[int]] = {}
    for row, i in enumerate(ids):
        worlds.setdefault(configs[i]._world, []).append(row)
    cells = [(sorted(members, key=lambda row: configs[ids[row]].scenario_id),
              rep) for members in worlds.values() for rep in range(reps)]
    jobs = [(tuple(ids[row] for row in members), policies,
             spec.seed_base + rep) for members, rep in cells]

    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    raw_path = out_dir / "trials.csv"
    jsonl_path = out_dir / "trials.jsonl"

    rows: list[dict] = []
    pool = (ProcessPoolExecutor(workers, mp_context=mp.get_context(),
                                initializer=_set_configs, initargs=(configs,))
            if workers > 1 else None)
    _set_configs(configs)
    try:
        with (open(raw_path, "w", newline="") as raw_fh,
              open(jsonl_path, "w") as jsonl_fh):
            writer = csv.DictWriter(raw_fh, fieldnames=RAW_COLUMNS,
                                    extrasaction="ignore")
            writer.writeheader()
            results = (pool.map(_one_world, jobs) if pool is not None
                       else map(_one_world, jobs))
            done: dict[int, TrialRecord] = {}
            for (members, rep), records in zip(cells, results):
                done.update(zip(((row * len(columns) + column) * reps + rep
                                 for row in members for column in columns),
                                records))
                while len(rows) in done:
                    record = done.pop(len(rows))
                    row = {
                        "scenario_id": record.scenario_id,
                        "policy": record.policy,
                        "rep": record.seed - spec.seed_base,
                        "seed": record.seed,
                        "outcome": record.outcome,
                        "elapsed": record.elapsed,
                        "record": record,
                    }
                    rows.append(row)
                    writer.writerow(row)
                    jsonl_fh.write(record.to_json_line() + "\n")
    finally:
        _set_configs([])
        if pool is not None:
            pool.shutdown(cancel_futures=True)

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


# The trapezoid baseline's acceleration, m/s^2.
_TRAPEZOID_ACCEL = 0.5


def evaluate_bypass_predictors(train: byp.TimingDataset, test: byp.TimingDataset,
                               v_max: float) -> tuple[byp.GlrModel, BypassReport]:
    """Fit the regressor and both baselines on train, score absolute error
    on test."""
    model = byp.fit(train)
    avg = byp.baseline_average_speed(train)
    trap = byp.TrapezoidPredictor(v_max, _TRAPEZOID_ACCEL)

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


def generate_bypass_benchmark(config: ScenarioConfig, seed: int,
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
