"""Batch harness: trial grids, CSV outputs, and the predictor benchmark."""

import csv
import hashlib
import json
import multiprocessing as mp
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import empty_grid
import namoplan
from namoplan import blockage, gridmap, planner, scenario_path, simulator
from namoplan.bypass import TimingDataset
from namoplan.experiments import (RAW_COLUMNS, SUMMARY_COLUMNS, ExperimentSpec,
                                  evaluate_bypass_predictors,
                                  generate_bypass_benchmark, run_benchmark,
                                  summarize)
from namoplan.gridmap import OccupancyGrid, clear_memos
from namoplan.simulator import (POLICIES, RobotConfig, ScenarioConfig, TrialRecord,
                                run_episode)

ROBOT = RobotConfig()


@pytest.fixture(scope="module")
def tiny_scenario(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    empty_grid(60, 40, 0.1).save(root / "tiny.map")
    (root / "tiny.yaml").write_text("""
scenario_id: tiny
map: tiny.map
goal: [5.3, 2.0]
robot:
  start: [0.7, 2.0]
  sensor_range: 3.0
obstacles:
  - {label: X, position: [3.0, 2.0], radius: 0.3, true_sr: 0.9}
bypass_model:
  n_rows: 200
""")
    return str(root / "tiny.yaml")


@pytest.fixture(scope="module")
def bench(tiny_scenario, tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    spec = ExperimentSpec([tiny_scenario], ["uncertainty", "priority-bypass"],
                          repetitions=5, seed_base=3, output_dir=str(out))
    rows, summary = run_benchmark(spec)
    return spec, rows, summary, out


def test_grid_shape(bench):
    _, rows, summary, _ = bench
    assert len(rows) == 10
    assert len(summary) == 2
    assert all(cell["n"] == 5 for cell in summary)


def test_rows_are_in_policy_then_rep_order(bench):
    _, rows, _, _ = bench
    assert [(r["policy"], r["rep"]) for r in rows] == \
        [(p, rep) for p in ("uncertainty", "priority-bypass")
         for rep in range(5)]


def test_seeds_paired_across_policies(bench):
    spec, rows, _, _ = bench
    for r in rows:
        assert r["seed"] == spec.seed_base + r["rep"]
    by_policy = {}
    for r in rows:
        by_policy.setdefault(r["policy"], []).append(r["seed"])
    assert by_policy["uncertainty"] == by_policy["priority-bypass"]


def test_summary_statistics_match_rows(bench):
    _, rows, summary, _ = bench
    for cell in summary:
        sub = [r["elapsed"] for r in rows if r["policy"] == cell["policy"]]
        assert cell["mean"] == pytest.approx(np.mean(sub))
        assert cell["median"] == pytest.approx(np.median(sub))
        assert cell["iqr"] == pytest.approx(cell["q3"] - cell["q1"])
        assert cell["success_rate"] == 1.0


def test_csv_and_jsonl_outputs(bench):
    _, rows, summary, out = bench
    with open(out / "trials.csv") as fh:
        raw = list(csv.reader(fh))
    assert raw[0] == RAW_COLUMNS
    assert len(raw) == 1 + len(rows)
    with open(out / "summary.csv") as fh:
        summ = list(csv.reader(fh))
    assert summ[0] == SUMMARY_COLUMNS
    assert len(summ) == 1 + len(summary)
    with open(out / "trials.jsonl") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        record = TrialRecord(**json.loads(line))
        assert record.seed == row["seed"]
        assert json.loads(line)["outcome"] == row["outcome"]


def test_rerun_is_deterministic(bench, tmp_path):
    spec, rows, _, _ = bench
    again = ExperimentSpec(spec.scenario_paths, spec.policies,
                           repetitions=spec.repetitions,
                           seed_base=spec.seed_base,
                           output_dir=str(tmp_path))
    rows2, _ = run_benchmark(again)
    assert [r["record"].to_json_line() for r in rows] == \
        [r["record"].to_json_line() for r in rows2]


def test_repetitions_validated():
    with pytest.raises(ValueError):
        ExperimentSpec(["x"], ["uncertainty"], repetitions=0)


def test_unknown_policy_fails_fast(tiny_scenario, tmp_path):
    spec = ExperimentSpec([tiny_scenario], ["no-such-policy"],
                          output_dir=str(tmp_path))
    with pytest.raises(ValueError):
        run_benchmark(spec)


def test_scenario_parsed_once_and_left_unmutated(tiny_scenario, tmp_path,
                                                 monkeypatch):
    parsed = []
    real = ScenarioConfig.from_yaml
    monkeypatch.setattr(ScenarioConfig, "from_yaml", staticmethod(
        lambda path: parsed.append(real(path)) or parsed[-1]))
    spec = ExperimentSpec([tiny_scenario, tiny_scenario],
                          ["uncertainty", "priority-removal", "random-choice"],
                          repetitions=2, output_dir=str(tmp_path))
    rows, _ = run_benchmark(spec)
    assert len(rows) == 12 and len(parsed) == 1
    # Episodes carried obstacles away, yet the shared config is as parsed.
    assert any(e["event"] == "placed" for r in rows for e in r["record"].decisions)
    assert parsed[0] == real(tiny_scenario)


def test_each_map_is_parsed_once_per_config(tmp_path, monkeypatch):
    loads = []
    real = OccupancyGrid.load
    monkeypatch.setattr(OccupancyGrid, "load", staticmethod(
        lambda path: loads.append(path) or real(path)))
    paths = sorted(str(p) for p in scenario_path("room.yaml").parent.glob("*.yaml"))
    spec = ExperimentSpec(paths, ["priority-bypass", "priority-removal"],
                          repetitions=2, output_dir=str(tmp_path))
    rows, _ = run_benchmark(spec)
    assert len(paths) == 7 and len(rows) == 28
    assert len(loads) == 7


def test_failing_episode_leaves_earlier_records(bench, tmp_path, monkeypatch):
    from namoplan import experiments

    spec, rows, _, _ = bench
    real, calls = experiments._one_world, []

    def fifth_fails(job):
        calls.append(job)
        if len(calls) == 5:
            raise RuntimeError("episode failed")
        return real(job)

    # The fifth job is the grid's last seed, so only its last row of the
    # first policy, and every row after it, is missing.
    monkeypatch.setattr(experiments, "_one_world", fifth_fails)
    again = ExperimentSpec(spec.scenario_paths, spec.policies,
                           repetitions=spec.repetitions,
                           seed_base=spec.seed_base, output_dir=str(tmp_path))
    with pytest.raises(RuntimeError, match="episode failed"):
        run_benchmark(again)
    with open(tmp_path / "trials.csv") as fh:
        raw = list(csv.reader(fh))
    assert raw[0] == RAW_COLUMNS and len(raw) == 1 + 4
    lines = (tmp_path / "trials.jsonl").read_text().splitlines()
    assert lines == [r["record"].to_json_line() for r in rows[:4]]


def test_episodes_run_in_registry_order_and_write_in_grid_order(
        bench, tmp_path, monkeypatch):
    from namoplan import experiments

    spec, rows, _, _ = bench
    real, calls = experiments.run_episode, []

    def fourth_fails(config, policy, seed):
        calls.append((policy, seed))
        if len(calls) == 4:
            raise RuntimeError("episode failed")
        return real(config, policy, seed=seed)

    monkeypatch.setattr(experiments, "run_episode", fourth_fails)
    flipped = ExperimentSpec(spec.scenario_paths, spec.policies[::-1],
                             repetitions=2, seed_base=spec.seed_base,
                             output_dir=str(tmp_path))
    assert flipped.policies == ["priority-bypass", "uncertainty"]
    with pytest.raises(RuntimeError, match="episode failed"):
        run_benchmark(flipped)
    # Each seed's episodes ran together, uncertainty first, yet the grid
    # starts with both priority-bypass rows, so the failure at the second
    # seed left only the first row on disk.
    assert calls == [("uncertainty", 3), ("priority-bypass", 3),
                     ("uncertainty", 4), ("priority-bypass", 4)]
    by_cell = {(r["policy"], r["rep"]): r["record"].to_json_line() for r in rows}
    assert (tmp_path / "trials.jsonl").read_text().splitlines() == \
        [by_cell["priority-bypass", 0]]

    monkeypatch.setattr(experiments, "run_episode", real)
    rows2, _ = run_benchmark(flipped)
    assert [(r["policy"], r["rep"]) for r in rows2] == \
        [(p, rep) for p in flipped.policies for rep in range(2)]
    lines = [by_cell[r["policy"], r["rep"]] for r in rows2]
    assert [r["record"].to_json_line() for r in rows2] == lines
    assert (tmp_path / "trials.jsonl").read_text().splitlines() == lines


def test_worker_pool_gives_the_same_records(tiny_scenario, tmp_path):
    policies = list(POLICIES)
    specs = [ExperimentSpec([tiny_scenario], policies, repetitions=2,
                            seed_base=3, output_dir=str(tmp_path / out))
             for out in ("serial", "pooled")]
    rows, _ = run_benchmark(specs[0])
    rows2, _ = run_benchmark(specs[1], workers=2)
    lines = [r["record"].to_json_line() for r in rows]
    assert len(policies) == 6 and len(lines) == 12
    assert lines == [r["record"].to_json_line() for r in rows2]
    assert (tmp_path / "pooled" / "trials.jsonl").read_text().splitlines() == lines
    # Each record is the one a config of its own gives.
    assert lines == [run_episode(ScenarioConfig.from_yaml(tiny_scenario), policy,
                                 seed=3 + rep).to_json_line()
                     for policy in policies for rep in range(2)]


def test_spawned_workers_give_the_same_records(tmp_path, monkeypatch):
    """Under `spawn`, the default on macOS, a worker imports the package
    afresh and gets the configs pickled, maps and all."""
    from namoplan import experiments

    paths = [str(scenario_path(f"{name}.yaml"))
             for name in ("room", "warehouse_abc")]

    def lines(workers):
        spec = ExperimentSpec(paths, ["priority-bypass", "priority-removal"],
                              repetitions=2, seed_base=0,
                              output_dir=str(tmp_path / f"w{workers}"))
        rows, _ = run_benchmark(spec, workers=workers)
        return [r["record"].to_json_line() for r in rows]

    serial = lines(1)
    monkeypatch.setattr(experiments, "mp", mp.get_context("spawn"))
    assert lines(2) == serial and len(serial) == 8


# Pool workers that die at start, run apart so that a pool which waits
# for them forever fails the test by its timeout instead of hanging the
# suite. Under fork each worker inherits `_set_configs` patched to raise
# outside the process that started it.
_DYING_WORKERS = """
import multiprocessing as mp
import sys
import time
from concurrent.futures.process import BrokenProcessPool

from namoplan import cli, experiments, scenario_path
from namoplan.experiments import ExperimentSpec, run_benchmark

set_configs = experiments._set_configs


def die_in_workers(configs):
    if mp.parent_process() is not None:
        raise RuntimeError("worker dies at start")
    set_configs(configs)


mp.set_start_method("fork")
experiments._set_configs = die_in_workers
room, out = str(scenario_path("room.yaml")), sys.argv[1]
start = time.perf_counter()
try:
    run_benchmark(ExperimentSpec([room], ["priority-bypass"], repetitions=4,
                                 output_dir=out + "/api"), workers=2)
except BrokenProcessPool:
    print("raised after", time.perf_counter() - start)
print("exit", cli.main(["benchmark", "--config", room, "--policy",
                        "priority-bypass", "--reps", "4", "--workers", "2",
                        "--out", out + "/cli"]))
"""


def test_workers_dying_at_start_fail_the_grid(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(namoplan.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _DYING_WORKERS, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=60)
    raised, code = done.stdout.splitlines()
    assert raised.startswith("raised after ")
    assert float(raised.split()[-1]) < 10.0
    # The CLI reports the broken pool as an internal error.
    assert code == "exit 3"
    assert "internal error: " in done.stderr
    assert (tmp_path / "cli" / "trials.csv").read_text().count("\n") == 1


def test_jobs_name_their_config_by_index(tiny_scenario, tmp_path, monkeypatch):
    from namoplan import experiments

    sizes, real = [], experiments._one_world
    monkeypatch.setattr(experiments, "_one_world",
                        lambda job: sizes.append(len(pickle.dumps(job))) or real(job))
    warehouse = str(scenario_path("warehouse_abc.yaml"))
    spec = ExperimentSpec([warehouse, tiny_scenario], ["priority-bypass"],
                          repetitions=1, output_dir=str(tmp_path))
    run_benchmark(spec)
    assert len(sizes) == 2 and max(sizes) < 1024
    # The configs stay with the grid, not with the module.
    assert experiments._CONFIGS == []


def test_a_job_is_one_world_at_one_seed(tiny_scenario, tmp_path, monkeypatch):
    from namoplan import experiments

    raw = yaml.safe_load(open(tiny_scenario))
    raw.update(scenario_id="a_tiny", estimated_sr=0.5,
               map=str(Path(tiny_scenario).with_name(raw["map"])))
    (tmp_path / "a_tiny.yaml").write_text(yaml.safe_dump(raw))
    warehouse = str(scenario_path("warehouse_abc.yaml"))
    paths = [tiny_scenario, warehouse, str(tmp_path / "a_tiny.yaml")]
    jobs, real = [], experiments._one_world
    monkeypatch.setattr(experiments, "_one_world",
                        lambda job: jobs.append(job) or real(job))
    policies = ["priority-removal", "priority-bypass"]
    spec = ExperimentSpec(paths, policies, repetitions=2, seed_base=3,
                          output_dir=str(tmp_path / "out"))
    rows, _ = run_benchmark(spec)
    # World by world, seed by seed; a job's configs by scenario id and its
    # policies in registry order. The rows stay in grid order.
    registry = ("priority-bypass", "priority-removal")
    assert jobs == [((2, 0), registry, 3), ((2, 0), registry, 4),
                    ((1,), registry, 3), ((1,), registry, 4)]
    assert [(r["scenario_id"], r["policy"], r["rep"]) for r in rows] == \
        [(name, policy, rep) for name in ("tiny", "warehouse_abc", "a_tiny")
         for policy in policies for rep in range(2)]


@pytest.mark.skipif(mp.get_start_method() != "fork",
                    reason="workers inherit the walk counter only by fork")
def test_worker_pool_repeats_no_walk(tmp_path, monkeypatch):
    # Every process appends a line per walk to one file.
    log, real = tmp_path / "walks", simulator._Episode._walk

    def counted(ep, *args):
        with open(log, "a") as fh:
            fh.write("w\n")
        return real(ep, *args)

    monkeypatch.setattr(simulator._Episode, "_walk", counted)

    def warehouse_abc(name, estimated_sr, true_sr=None):
        raw = yaml.safe_load(scenario_path("warehouse_abc.yaml").read_text())
        # Its own id, which sorts after warehouse_abc's, as two files of a
        # grid may not share one.
        raw["scenario_id"] = f"warehouse_abc-{name}"
        raw["map"] = str(scenario_path(raw["map"]))
        raw["estimated_sr"] = estimated_sr
        for obstacle in raw["obstacles"]:
            obstacle["true_sr"] = true_sr or obstacle["true_sr"]
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(raw))
        return str(path)

    def grid_walks(paths, workers):
        spec = ExperimentSpec(paths, list(POLICIES), repetitions=3,
                              output_dir=str(tmp_path / "out"))
        assert len(spec.policies) == 6
        log.write_text("")
        # Each grid starts from an empty slot, also in forked workers.
        clear_memos()
        run_benchmark(spec, workers=workers)
        return len(log.read_text().splitlines())

    bundled = [str(scenario_path(f"{n}.yaml"))
               for n in ("room", "warehouse_abc", "warehouse_bce")]
    # Two configs that differ from each other and from warehouse_abc only
    # in `estimated_sr` share its world; with another true rate, one does
    # not.
    low = warehouse_abc("low", 0.2)
    one_world = bundled + [low, warehouse_abc("mid", 0.5)]
    walks = [grid_walks(one_world, workers) for workers in (1, 2)]
    assert walks[0] > len(bundled) * 3
    assert walks[1] == walks[0]
    apart = bundled + [low, warehouse_abc("mid_true", 0.5, true_sr=0.5)]
    assert grid_walks(apart, 1) > walks[0]


def _records_sha256(records) -> str:
    digest = hashlib.sha256()
    for line in sorted(r.to_json_line() for r in records):
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def _memo_keys():
    return set(gridmap._VISIBILITY_MEMO), set(gridmap._RAY_MEMO)


def _count_searches(monkeypatch) -> list:
    """The list that gets one entry per A* search from now on."""
    calls = []
    real = planner._astar_on_mask
    monkeypatch.setattr(planner, "_astar_on_mask",
                        lambda *a: calls.append(1) or real(*a))
    return calls


# sha256 of the sorted record lines of the episode benchmark's suite
# battery: the 7 bundled scenarios x 4 policies at seed 0.
SUITE_RECORDS_SHA256 = (
    "6b8bb7e6a49a51c3ecab02c9228fd257b42e8950387640c1ca98e617037efcdd")


def test_suite_battery_records_pinned(tmp_path, monkeypatch):
    clear_memos()
    names = ["room", "warehouse_ab", "warehouse_abc", "warehouse_abd",
             "warehouse_abe", "warehouse_bc", "warehouse_bce"]
    spec = ExperimentSpec([str(scenario_path(f"{n}.yaml")) for n in names],
                          ["uncertainty", "uncertainty-no-blockage",
                           "priority-bypass", "priority-removal"],
                          repetitions=1, seed_base=0, output_dir=str(tmp_path))
    searches = _count_searches(monkeypatch)
    # The first run starts from empty memos and an empty plan memo; the
    # second's ray casts all come from the memos the first filled, and its
    # plans from the requests the first stored.
    for run in range(2):
        rows, _ = run_benchmark(spec)
        assert len(rows) == 28
        assert _records_sha256(r["record"] for r in rows) == SUITE_RECORDS_SHA256
        if run == 0:
            filled, n_searched = _memo_keys(), len(searches)
            planned = set(planner._PLAN_CACHE)
    assert _memo_keys() == filled and all(filled)
    # Cold, requests whose planning masks are alike share one search;
    # warm, none runs.
    assert n_searched == 28 and len(searches) == n_searched
    assert set(planner._PLAN_CACHE) == planned


def test_clear_memos_empties_every_memo_and_keeps_the_records(tmp_path):
    spec = ExperimentSpec([str(scenario_path(f"{n}.yaml"))
                           for n in ("room", "warehouse_abc")],
                          list(POLICIES), repetitions=2, seed_base=0,
                          output_dir=str(tmp_path))
    memos = [gridmap._VISIBILITY_MEMO, gridmap._RAY_MEMO,
             gridmap._INFLATION_CACHE, blockage._BLOCKAGE_MEMO,
             planner._PLAN_CACHE, simulator._MODEL_CACHE, simulator._TREE]
    assert len(memos) == len(gridmap._MEMOS)
    run_benchmark(spec)
    warm, _ = run_benchmark(spec)
    assert all(memos)
    clear_memos()
    assert not any(memos)
    cold, _ = run_benchmark(spec)
    assert all(memos)
    assert _records_sha256(r["record"] for r in cold) == \
        _records_sha256(r["record"] for r in warm)


# sha256 of the sorted record lines of the episode benchmark's
# unreliable-removal battery: warehouse_abc at three (estimated_sr,
# true_sr) pairs x 2 policies x seeds 0-2.
UNRELIABLE_RECORDS_SHA256 = (
    "080081b22af7cb36e8acbbe3d90eda449a179b2c9bb970df3274cd1a73e55fb6")


def test_unreliable_removal_battery_records_pinned(monkeypatch):
    def battery():
        for estimated, true in [(0.2, 0.2), (0.9, 0.2), (0.9, 0.5)]:
            for policy in ["uncertainty", "uncertainty-no-action"]:
                for seed in range(3):
                    cfg = ScenarioConfig.from_yaml(
                        scenario_path("warehouse_abc.yaml"))
                    cfg = replace(cfg, estimated_sr=estimated, obstacles=tuple(
                        replace(obstacle, true_sr=true)
                        for obstacle in cfg.obstacles))
                    yield run_episode(cfg, policy, seed=seed)

    clear_memos()
    searches = _count_searches(monkeypatch)
    # A cold first run, then a second answered from what the first filled.
    for run in range(2):
        assert _records_sha256(battery()) == UNRELIABLE_RECORDS_SHA256
        if run == 0:
            filled, n_searched = _memo_keys(), len(searches)
            planned = set(planner._PLAN_CACHE)
    assert _memo_keys() == filled and all(filled)
    # Cold, requests whose planning masks are alike share one search;
    # warm, none runs.
    assert n_searched == 45 and len(searches) == n_searched
    assert set(planner._PLAN_CACHE) == planned


def test_summarize_groups_by_scenario_and_policy():
    rows = [{"scenario_id": "a", "policy": "p", "elapsed": v,
             "outcome": "success"} for v in (10.0, 20.0)]
    rows += [{"scenario_id": "b", "policy": "p", "elapsed": 5.0,
              "outcome": "timeout"}]
    summary = summarize(rows)
    assert len(summary) == 2
    assert summary[0]["mean"] == 15.0
    assert summary[1]["success_rate"] == 0.0
    assert summary[1]["std"] == 0.0


# -- bypass predictor benchmark -----------------------------------------


def _heading_heavy_dataset(n, seed, noise=0.3):
    rng = np.random.default_rng(seed)
    f_l = rng.uniform(2.0, 25.0, n)
    f_s = rng.uniform(0.0, 1.2, n)
    f_v = rng.uniform(0.0, 0.4, n)
    dur = 2.0 * f_l + 6.0 * f_s + rng.normal(0.0, noise, n)
    return TimingDataset(np.column_stack([f_l, f_s, f_v]),
                         np.maximum(dur, 0.1))


def test_predictor_report_structure():
    train = _heading_heavy_dataset(800, 0)
    test = _heading_heavy_dataset(400, 1)
    model, report = evaluate_bypass_predictors(train, test, ROBOT.v_lin)
    assert set(report.median_ae) == {"glr", "average-speed", "trapezoid"}
    assert set(report.iqr_ae) == {"glr", "average-speed", "trapezoid"}
    assert report.n_train == 800 and report.n_test == 400
    assert all(v >= 0 for v in report.median_ae.values())
    assert "median AE" in report.format()


def test_regressor_beats_speed_baseline_when_turns_matter():
    train = _heading_heavy_dataset(800, 2)
    test = _heading_heavy_dataset(400, 3)
    _, report = evaluate_bypass_predictors(train, test, ROBOT.v_lin)
    assert report.median_ae["glr"] < report.median_ae["average-speed"]
    assert report.iqr_ae["glr"] < report.iqr_ae["average-speed"]


def test_generated_benchmark_sizes_and_determinism(tiny_scenario):
    cfg = ScenarioConfig.from_yaml(tiny_scenario)
    train, test = generate_bypass_benchmark(cfg, seed=4, n_train=120, n_test=60)
    assert len(train) == 120 and len(test) == 60
    train2, _ = generate_bypass_benchmark(cfg, seed=4, n_train=120, n_test=60)
    assert np.array_equal(train.features, train2.features)
    assert np.array_equal(train.durations, train2.durations)
    assert not np.array_equal(train.features[:60], test.features)
