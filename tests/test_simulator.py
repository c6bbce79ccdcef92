"""Episode simulation: configs, motion time, sensing, policies, determinism."""

import hashlib
import json
import math
import pickle
import re
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

import oracles
from conftest import empty_grid
from namoplan import scenario_path
from namoplan.gridmap import STATIC, OccupancyGrid, clear_memos
from namoplan.planner import Trajectory
from namoplan.simulator import (POLICIES, BypassModelConfig, NoiseConfig,
                                ObstacleSpec, RobotConfig, ScenarioConfig,
                                ScenarioError, TrialRecord, _Episode,
                                bypass_model_for, generate_timing_dataset,
                                get_policy, run_episode)
from oracles import motion_time

# -- helpers ------------------------------------------------------------


def _write_map(tmp_path, cells=None, width=60, height=40, resolution=0.1):
    grid = (OccupancyGrid(resolution, cells) if cells is not None
            else empty_grid(width, height, resolution))
    path = tmp_path / "test.map"
    grid.save(path)
    return str(path)


def _config(tmp_path, obstacles=(), true_sr=0.9, cells=None, **overrides):
    return ScenarioConfig(
        scenario_id="unit",
        map_path=_write_map(tmp_path, cells),
        robot=RobotConfig(start=(0.7, 2.0), sensor_range=3.0),
        goal=(5.3, 2.0),
        obstacles=tuple(ObstacleSpec(label, pos, 0.3, true_sr)
                        for label, pos in obstacles),
        bypass_model=BypassModelConfig(n_rows=200),  # cheap test-model training
        **overrides,
    )


# -- configuration ------------------------------------------------------


def test_yaml_round_trip_fields():
    cfg = ScenarioConfig.from_yaml(scenario_path("warehouse_abc.yaml"))
    assert cfg.scenario_id == "warehouse_abc"
    assert cfg.robot.start == (1.0, 9.0)
    assert cfg.goal == (18.0, 9.0)
    assert [o.label for o in cfg.obstacles] == ["A", "B", "C"]
    assert cfg.timeout == 300.0


def test_malformed_yaml_rejected(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("goal: [1, 1\n  map: x")
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_yaml(bad)


def test_missing_required_field_rejected(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("map: nowhere.map\n")
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_yaml(bad)


def _yaml_variant(tmp_path, edit):
    raw = yaml.safe_load(scenario_path("warehouse_abc.yaml").read_text())
    raw["map"] = str(scenario_path(raw["map"]))
    edit(raw)
    path = tmp_path / "variant.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


@pytest.mark.parametrize("section", [
    None, "robot", "population", "removal", "noise", "bypass_model", "obstacle",
])
def test_unknown_key_rejected(tmp_path, section):
    def edit(raw):
        if section is None:
            raw["timout"] = 5
        elif section == "obstacle":
            raw["obstacles"][1]["true_rs"] = 0.5
        else:
            raw.setdefault(section, {})["bogus"] = 1
    where = {None: "config", "obstacle": "obstacles[1]"}.get(section, section)
    with pytest.raises(ScenarioError, match=re.escape(f"unknown key(s) in {where}:")):
        ScenarioConfig.from_yaml(_yaml_variant(tmp_path, edit))


@pytest.mark.parametrize("value", [None, 3, [1, 2]])
def test_section_must_be_a_mapping(tmp_path, value):
    path = _yaml_variant(tmp_path, lambda raw: raw.update(removal=value))
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_yaml(path)


def test_defaults_come_from_the_dataclasses(tmp_path):
    path = tmp_path / "minimal.yaml"
    path.write_text(f"map: {scenario_path('room.map')}\ngoal: [8.0, 3.0]\n")
    cfg = ScenarioConfig.from_yaml(path)
    want = ScenarioConfig("minimal", cfg.map_path, RobotConfig(), (8.0, 3.0), ())
    assert cfg == want


def test_every_bundled_config_loads():
    for path in sorted(scenario_path("room.yaml").parent.glob("*.yaml")):
        assert ScenarioConfig.from_yaml(path).scenario_id == path.stem


@pytest.mark.parametrize("edit, key", [
    (lambda raw: raw.update(goal="ab"), "goal"),
    (lambda raw: raw.update(goal=[18.0]), "goal"),
    (lambda raw: raw["obstacles"][1].update(position=5.0), "obstacles[1].position"),
    (lambda raw: raw.update(noise={"robot_cov_diag": [0.01, 0.01]}),
     "noise.robot_cov_diag"),
])
def test_tuple_fields_type_checked(tmp_path, edit, key):
    with pytest.raises(ScenarioError, match=f"^{re.escape(key)} must be a list of"):
        ScenarioConfig.from_yaml(_yaml_variant(tmp_path, edit))


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw.update(goal=[18.0, True]), "goal[1] must be a number"),
    (lambda raw: raw["robot"].update(start=[1.0, "9"]),
     "robot.start[1] must be a number"),
    (lambda raw: raw["robot"].update(start=[1.0, float("nan")]),
     "robot.start[1] must be finite"),
    (lambda raw: raw.update(noise={"meas_cov_diag": [0.01, -0.001]}),
     "noise.meas_cov_diag[1] must be >= 0"),
])
def test_tuple_items_type_checked(tmp_path, edit, message):
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        ScenarioConfig.from_yaml(_yaml_variant(tmp_path, edit))


def test_tuple_fields_load_as_tuples():
    cfg = ScenarioConfig.from_yaml(scenario_path("warehouse_abc.yaml"))
    for value in (cfg.goal, cfg.robot.start, cfg.noise.robot_cov_diag,
                  cfg.noise.meas_cov_diag, *(o.position for o in cfg.obstacles)):
        assert isinstance(value, tuple)


@pytest.mark.parametrize("derive, message", [
    (lambda cfg: replace(cfg, obstacles=list(cfg.obstacles)),
     "obstacles must be a tuple"),
    (lambda cfg: replace(cfg, goal=list(cfg.goal)), "goal must be a tuple of 2 items"),
    (lambda cfg: replace(cfg, robot=replace(cfg.robot, start=list(cfg.robot.start))),
     "robot.start must be a tuple of 2 items"),
], ids=["obstacles", "goal", "robot.start"])
def test_lists_rejected_in_tuple_fields(derive, message):
    # A list would leave the config open to unchecked changes and unhashable.
    cfg = ScenarioConfig.from_yaml(scenario_path("warehouse_abc.yaml"))
    hash(cfg)
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        derive(cfg)


def _with_first_obstacle(cfg, **changes):
    first, *rest = cfg.obstacles
    return replace(cfg, obstacles=(replace(first, **changes), *rest))


@pytest.mark.parametrize("edit, derive, message", [
    (lambda raw: raw.update(timeout=0.0),
     lambda cfg: replace(cfg, timeout=0.0), "timeout must be > 0"),
    (lambda raw: raw.update(estimated_sr=1.5),
     lambda cfg: replace(cfg, estimated_sr=1.5), "estimated_sr must be <= 1"),
    (lambda raw: raw["obstacles"][0].update(true_sr=2.0),
     lambda cfg: _with_first_obstacle(cfg, true_sr=2.0),
     "obstacles[0].true_sr must be <= 1"),
    (lambda raw: raw["obstacles"][0].update(position=[0.0, 0.0]),
     lambda cfg: _with_first_obstacle(cfg, position=(0.0, 0.0)),
     "obstacle A not in a free cell"),
    (lambda raw: raw["robot"].update(start=[0.05, 9.0]),
     lambda cfg: replace(cfg, robot=replace(cfg.robot, start=(0.05, 9.0))),
     "robot start not in a free cell"),
    (lambda raw: raw.update(goal=[0.05, 9.0]),
     lambda cfg: replace(cfg, goal=(0.05, 9.0)), "goal not in a free cell"),
    # 1 cm from the start (1.0, 9.0), in the same 0.1 m cell.
    (lambda raw: raw.update(goal=[1.01, 9.0]),
     lambda cfg: replace(cfg, goal=(1.01, 9.0)),
     "goal in the robot's start cell"),
    (lambda raw: raw["obstacles"][2].update(label="B"),
     lambda cfg: replace(cfg, obstacles=(*cfg.obstacles[:2],
                                         replace(cfg.obstacles[2], label="B"))),
     "obstacle label 'B' is repeated"),
], ids=["timeout", "estimated_sr", "true_sr", "obstacle", "start", "goal",
        "goal-in-start-cell", "label"])
def test_invariants_validated(tmp_path, edit, derive, message):
    # A config derived in code fails as the same value in a file does.
    with pytest.raises(ScenarioError) as loaded:
        ScenarioConfig.from_yaml(_yaml_variant(tmp_path, edit))
    cfg = ScenarioConfig.from_yaml(scenario_path("warehouse_abc.yaml"))
    with pytest.raises(ScenarioError) as derived:
        derive(cfg)
    assert str(derived.value) == str(loaded.value) == message


def test_obstacle_moved_onto_a_static_cell_raises():
    cfg = ScenarioConfig.from_yaml(scenario_path("warehouse_abe.yaml"))
    with pytest.raises(ScenarioError, match="^obstacle A not in a free cell$"):
        _with_first_obstacle(cfg, position=(0.0, 0.0))


def test_derived_map_path_reads_its_own_map():
    room = ScenarioConfig.from_yaml(scenario_path("room.yaml"))
    warehouse = ScenarioConfig.from_yaml(scenario_path("warehouse_abc.yaml"))
    # Room's doorway obstacle and goal sit on walls of the warehouse map.
    with pytest.raises(ScenarioError, match="^obstacle DOOR not in a free cell$"):
        replace(room, map_path=warehouse.map_path)
    moved = replace(room, map_path=warehouse.map_path, obstacles=(),
                    goal=warehouse.goal)
    assert room.load_grid().cells.shape == (60, 100)
    assert moved.load_grid().cells.shape == warehouse.load_grid().cells.shape
    assert moved.load_grid().cells.shape != (60, 100)


def test_config_classes_are_frozen():
    cfg = ScenarioConfig.from_yaml(scenario_path("warehouse_abc.yaml"))
    assert isinstance(cfg.obstacles, tuple)
    for section, name in [(cfg, "timeout"), (cfg.robot, "start"),
                          (cfg.obstacles[0], "true_sr"), (cfg.population, "mu"),
                          (cfg.removal, "max_attempts"), (cfg.noise, "meas_cov_diag"),
                          (cfg.bypass_model, "n_rows")]:
        with pytest.raises(FrozenInstanceError):
            setattr(section, name, getattr(section, name))


def test_obstacle_must_sit_in_free_cell(tmp_path):
    cells = np.zeros((40, 60), np.uint8)
    cells[20, 30] = STATIC
    with pytest.raises(ScenarioError, match="^obstacle X not in a free cell$"):
        _config(tmp_path, obstacles=[("X", (3.05, 2.05))], cells=cells)


def test_bypass_model_cache_keys_on_cells(tmp_path):
    cells = np.zeros((40, 60), np.uint8)
    cells[:30, 30] = STATIC
    open_grid = OccupancyGrid.load(_write_map(tmp_path))
    (tmp_path / "walled").mkdir()
    walled = OccupancyGrid.load(_write_map(tmp_path / "walled", cells))
    robot, fit = RobotConfig(), BypassModelConfig(n_rows=200)
    model = bypass_model_for(open_grid, robot, fit)
    assert bypass_model_for(OccupancyGrid.load(_write_map(tmp_path)), robot,
                            fit) is model
    assert bypass_model_for(walled, robot, fit) is not model


def test_bypass_models_keyed_on_the_map_within_a_bound(tmp_path, monkeypatch):
    from namoplan import simulator

    clear_memos()
    monkeypatch.setattr(simulator._MODEL_CACHE, "size", 2)
    first, second = _config(tmp_path), _config(tmp_path)
    assert first.load_grid() is not second.load_grid()
    model = bypass_model_for(first.load_grid(), first.robot, first.bypass_model)
    assert bypass_model_for(second.load_grid(), second.robot,
                            second.bypass_model) is model
    for n_rows in (150, 250):
        fit = BypassModelConfig(n_rows=n_rows)
        bypass_model_for(first.load_grid(), first.robot, fit)
    assert len(simulator._MODEL_CACHE) == 2
    for key in simulator._MODEL_CACHE:
        assert key[0] == first.load_grid().key
        assert not any(isinstance(part, bytes) for part in key)


def test_config_keeps_one_read_only_grid_across_episodes(tmp_path, monkeypatch):
    loads = []
    real = OccupancyGrid.load
    monkeypatch.setattr(OccupancyGrid, "load", staticmethod(
        lambda path: loads.append(path) or real(path)))
    cfg = _config(tmp_path, obstacles=[("X", (3.0, 2.0))])
    grid = cfg.load_grid()
    for policy in POLICIES:
        run_episode(cfg, policy, seed=1)
    assert cfg.load_grid() is grid and len(loads) == 1
    assert _Episode(cfg, seed=1).grid is grid
    assert not grid.cells.flags.writeable


def test_pickled_config_keeps_its_read_only_grid():
    cfg = ScenarioConfig.from_yaml(scenario_path("room.yaml"))
    back = pickle.loads(pickle.dumps(cfg))
    grid = back.load_grid()
    assert back == cfg and grid.key == cfg.load_grid().key
    assert not grid.cells.flags.writeable


def test_baseline_episodes_never_fit_the_bypass_model(tmp_path, monkeypatch):
    from namoplan import simulator

    def no_fit(*args, **kwargs):
        raise AssertionError("the bypass model was fitted")

    clear_memos()
    monkeypatch.setattr(simulator, "generate_timing_dataset", no_fit)
    cfg = _config(tmp_path, obstacles=[("X", (3.0, 2.0))])
    for policy in ("priority-bypass", "priority-removal", "random-choice"):
        record = run_episode(cfg, policy, seed=0)
        assert any(e["event"] == "decision" for e in record.decisions)
    # The interval rules fit it at their first decision.
    with pytest.raises(AssertionError, match="fitted"):
        run_episode(cfg, "uncertainty", seed=0)


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        get_policy("does-not-exist")
    assert set(POLICIES) == {
        "uncertainty", "uncertainty-no-action", "uncertainty-no-blockage",
        "priority-bypass", "priority-removal", "random-choice"}


# -- motion time --------------------------------------------------------


def test_motion_time_straight():
    t = Trajectory(np.array([[0.0, 0.0], [10.0, 0.0]]))
    assert motion_time(t, 0.5, 1.0) == pytest.approx(20.0)


def test_motion_time_turn():
    t = Trajectory(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
    expected = 2.0 / 0.5 + (math.pi / 2) / 1.0
    assert motion_time(t, 0.5, 1.0) == pytest.approx(expected)


def test_motion_time_l_path_additive():
    t = Trajectory(np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 5.0]]))
    assert motion_time(t, 0.5, 1.0) == pytest.approx(20.0 + math.pi / 2)


def test_motion_time_adds_turns_left_to_right():
    # Planned paths of many turns, whose turn total a compensated sum (the
    # builtin sum from Python 3.12 on) would round differently.
    rng = np.random.default_rng(3)
    compensated_differs = 0
    for _ in range(50):
        steps = rng.integers(-1, 2, (200, 2)).astype(float) * 0.1
        steps = steps[np.any(steps != 0.0, axis=1)]
        t = Trajectory(np.cumsum(np.vstack([[[1.0, 1.0]], steps]), axis=0))
        turns = oracles.turn_angles(t.headings).tolist()
        total = 0.0
        for turn in turns:
            total += turn
        assert motion_time(t, 0.5, 1.0) == t.total_length / 0.5 + total / 1.0
        compensated_differs += total != math.fsum(turns)
    assert compensated_differs > 10


# -- bypass-model timing dataset ----------------------------------------

# sha256 of the features' and then the durations' bytes at the default
# `BypassModelConfig`, from the per-segment loop `oracles` keeps.
_DATASET_SHA256 = {
    "room": "671cf63f8aab3329dfb830d466fd4ad5a29c3276fadc255603e8fa9737dcac1d",
    "warehouse_abc":
        "c756794a8f824c3fed7f58af741c100b59b318bf911ceed1b22b16ee68dc1315",
}


def _assert_same_dataset(got, want):
    assert got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    assert got.durations.tobytes() == want.durations.tobytes()


@pytest.mark.parametrize("name", sorted(_DATASET_SHA256))
def test_timing_dataset_pinned_on_bundled_maps(name):
    cfg = ScenarioConfig.from_yaml(scenario_path(f"{name}.yaml"))
    fit, robot = cfg.bypass_model, cfg.robot
    args = (cfg.load_grid(), robot.radius, robot.v_lin, robot.v_rot,
            fit.n_rows, fit.dataset_seed, fit.noise_sigma)
    got = generate_timing_dataset(*args)
    _assert_same_dataset(got, oracles.generate_timing_dataset(*args))
    digest = hashlib.sha256(got.features.tobytes() + got.durations.tobytes())
    assert digest.hexdigest() == _DATASET_SHA256[name]


@pytest.mark.parametrize("noise_sigma", [0.0, 0.05, 0.5])
@pytest.mark.parametrize("n_rows", [5, 50, 1500])
def test_timing_dataset_matches_per_segment_rows(n_rows, noise_sigma):
    rng = np.random.default_rng(n_rows + int(100 * noise_sigma))
    for seed in range(3):
        g = OccupancyGrid(0.1, rng.random((40, 60)) < 0.05)
        args = (g, 0.15, rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0), n_rows,
                seed, noise_sigma)
        _assert_same_dataset(generate_timing_dataset(*args),
                             oracles.generate_timing_dataset(*args))


# -- sensing ------------------------------------------------------------


def test_sense_occluded_obstacle_not_seen(tmp_path):
    cells = np.zeros((40, 60), np.uint8)
    cells[:, 20] = STATIC  # wall at x in [2.0, 2.1)
    cfg = _config(tmp_path, obstacles=[("X", (2.6, 2.0))], cells=cells)
    ep = _Episode(cfg, seed=0)
    ep.sense()
    assert ep.obstacles["X"].belief is None and ep.obstacles["X"].ellipse is None


def test_sense_noiseless_is_exact(tmp_path):
    cfg = _config(tmp_path, obstacles=[("X", (2.0, 2.0))],
                  noise=NoiseConfig(robot_cov_diag=(0.0, 0.0, 0.0),
                                    meas_cov_diag=(0.0, 0.0)))
    ep = _Episode(cfg, seed=0)
    ep.sense()
    assert ep.obstacles["X"].belief.mean == pytest.approx([2.0, 2.0], abs=1e-9)


def test_sense_out_of_fov_not_seen(tmp_path):
    cfg = _config(tmp_path, obstacles=[("X", (0.7, 3.5))])  # behind/above
    ep = _Episode(cfg, seed=0)
    ep.sense()  # robot faces +x with a 90 degree fov
    assert ep.obstacles["X"].belief is None and ep.obstacles["X"].ellipse is None


def test_sense_noise_matches_configured_covariance(tmp_path):
    cfg = _config(tmp_path, obstacles=[("X", (2.5, 2.4))])
    var_d, var_phi = cfg.noise.meas_cov_diag
    ep = _Episode(cfg, seed=0)
    rx, ry = cfg.robot.start
    samples = []
    unseen = ep.obstacles["X"]
    for _ in range(10_000):
        ep.obstacles["X"] = unseen
        ep.sense()
        mx, my = ep.obstacles["X"].belief.mean
        d = math.hypot(mx - rx, my - ry)
        phi = math.atan2(my - ry, mx - rx) - ep.heading
        samples.append((d, phi))
    cov = np.cov(np.array(samples).T)
    assert cov[0, 0] == pytest.approx(var_d, rel=0.05)
    assert cov[1, 1] == pytest.approx(var_phi, rel=0.05)


# -- episodes -----------------------------------------------------------


def test_empty_map_direct_path(tmp_path):
    cfg = _config(tmp_path)
    record = run_episode(cfg, "uncertainty", seed=0)
    assert record.outcome == "success"
    # no obstacles: elapsed equals the motion time of the planned path
    from namoplan.planner import plan_path
    traj = plan_path(cfg.load_grid(), cfg.robot.start, cfg.goal,
                     cfg.robot.radius)
    expected = motion_time(traj, cfg.robot.v_lin, cfg.robot.v_rot)
    # the first heading alignment from start_heading is also charged
    assert record.elapsed == pytest.approx(expected, abs=1.0)
    assert record.diagnostics["n_attempts"] == 0


def test_certain_load_succeeds_first_try(tmp_path):
    cfg = _config(tmp_path, obstacles=[("X", (3.0, 2.0))], true_sr=1.0)
    record = run_episode(cfg, "priority-removal", seed=3)
    attempts = [e for e in record.decisions if e["event"] == "attempt"]
    assert record.outcome == "success"
    assert len(attempts) == 1 and attempts[0]["success"]
    placed = [e for e in record.decisions if e["event"] == "placed"]
    assert len(placed) == 1


def test_impossible_load_times_out(tmp_path):
    # wall with a single doorway: no bypass exists around the obstacle
    cells = np.zeros((40, 60), np.uint8)
    cells[:, 29:31] = STATIC
    cells[15:26, 29:31] = 0
    cfg = _config(tmp_path, obstacles=[("X", (3.0, 2.0))], true_sr=0.0,
                  cells=cells)
    record = run_episode(cfg, "priority-removal", seed=3)
    attempts = [e for e in record.decisions if e["event"] == "attempt"]
    assert record.outcome == "timeout"
    assert attempts and not any(e["success"] for e in attempts)
    assert record.elapsed == cfg.timeout


def test_attempt_rate_tracks_true_sr(tmp_path):
    cfg = _config(tmp_path, obstacles=[("X", (3.0, 2.0))], true_sr=0.5)
    outcomes = []
    for seed in range(50):
        record = run_episode(cfg, "priority-removal", seed=seed)
        first = next(e for e in record.decisions if e["event"] == "attempt")
        outcomes.append(first["success"])
    rate = np.mean(outcomes)
    assert 0.3 <= rate <= 0.7


def test_successful_removal_clears_the_path(tmp_path):
    cfg = _config(tmp_path, obstacles=[("X", (3.0, 2.0))], true_sr=1.0)
    record = run_episode(cfg, "priority-removal", seed=0)
    assert record.outcome == "success"
    placed = next(e for e in record.decisions if e["event"] == "placed")
    sx, sy = placed["stock"]
    # the obstacle ends away from the straight start-goal corridor
    assert abs(sy - 2.0) >= 0.5 or not (0.7 <= sx <= 5.3)


def test_clock_non_decreasing(tmp_path):
    cfg = _config(tmp_path, obstacles=[("X", (3.0, 2.0))], true_sr=0.5)
    record = run_episode(cfg, "uncertainty", seed=5)
    times = [e["t"] for e in record.decisions]
    assert times == sorted(times)
    if record.outcome == "success":
        assert record.elapsed <= cfg.timeout


def test_random_choice_policy_runs(tmp_path):
    cfg = _config(tmp_path, obstacles=[("X", (3.0, 2.0))], true_sr=0.9)
    choices = set()
    for seed in range(8):
        record = run_episode(cfg, "random-choice", seed=seed)
        assert record.outcome == "success"
        for e in record.decisions:
            if e["event"] == "decision":
                choices.add(e["policy_choice"])
    assert choices >= {"bypass", "remove"}


# -- baseline choice rules ---------------------------------------------

# The choice of each baseline rule for every (detour, stock estimate, route
# after removal) presence: priority-bypass, priority-removal, then
# random-choice on heads and on tails.
BASELINE_CHOICES = {
    (1, 1, 1): ("bypass", "remove", "remove", "bypass"),
    (1, 1, 0): ("bypass", "remove", "remove", "bypass"),
    (1, 0, 1): ("bypass", "bypass", "bypass", "bypass"),
    (1, 0, 0): ("bypass", "bypass", "bypass", "bypass"),
    (0, 1, 1): ("wait", "remove", "remove", "remove"),
    (0, 1, 0): ("wait", "none", "none", "none"),
    (0, 0, 1): ("wait", "none", "none", "none"),
    (0, 0, 0): ("wait", "none", "none", "none"),
}


class _Coin:
    """Stands in for the episode rng: every draw returns `value`."""

    def __init__(self, value: float):
        self.value, self.draws = value, 0

    def random(self) -> float:
        self.draws += 1
        return self.value


@pytest.mark.parametrize("present", list(BASELINE_CHOICES))
def test_baseline_rules_pin_their_choices(present):
    detour, est, route = (object() if p else None for p in present)
    bypass_first, removal_first, heads, tails = BASELINE_CHOICES[present]

    def choose(name, draw=0.0):
        coin = _Coin(draw)
        choice, details = POLICIES[name].choose(SimpleNamespace(rng=coin), "B",
                                                detour, est, route)
        assert details == {}  # baselines trace no interval
        return choice, coin.draws

    assert choose("priority-bypass") == (bypass_first, 0)
    assert choose("priority-removal") == (removal_first, 0)
    # The coin is tossed only when some strategy is feasible.
    draws = int(heads != "none")
    assert choose("random-choice", 0.2) == (heads, draws)
    assert choose("random-choice", 0.8) == (tails, draws)


# -- determinism and records --------------------------------------------


def test_identical_runs_are_byte_identical(room_config):
    a = run_episode(room_config, "uncertainty", seed=4)
    b = run_episode(room_config, "uncertainty", seed=4)
    assert a.to_json_line() == b.to_json_line()


def test_different_seeds_differ(tmp_path):
    cfg = _config(tmp_path, obstacles=[("X", (3.0, 2.0))], true_sr=0.5)
    lines = {run_episode(cfg, "priority-removal", seed=s).to_json_line()
             for s in range(6)}
    assert len(lines) > 1


def test_trial_record_json_round_trip(room_config):
    record = run_episode(room_config, "uncertainty", seed=1)
    clone = TrialRecord(**json.loads(record.to_json_line()))
    assert clone.to_json_line() == record.to_json_line()


# -- memos and the shared plan cache ------------------------------------


def _unreliable_config(tmp_path, estimated_sr, true_sr) -> ScenarioConfig:
    """warehouse_abc with the given success rates, written out as YAML."""
    def edit(raw):
        raw["scenario_id"] = f"warehouse_abc-est{estimated_sr}-true{true_sr}"
        raw["estimated_sr"] = estimated_sr
        for obstacle in raw["obstacles"]:
            obstacle["true_sr"] = true_sr
    return ScenarioConfig.from_yaml(_yaml_variant(tmp_path, edit))


# sha256 of the record of a looping episode: loads keep failing and the
# robot decides again and again from the same pose until the timeout.
LOOPING_RECORD_SHA256 = (
    "33d51a320cc638adff960db4da002fecf8ac8b0e5f83eb972da0819eff260037")


def test_looping_episode_record_pinned(tmp_path, monkeypatch):
    import hashlib

    from namoplan import planner

    clear_memos()
    searches = []
    real = planner._astar_on_mask
    monkeypatch.setattr(planner, "_astar_on_mask",
                        lambda *a: searches.append(1) or real(*a))
    cfg = _unreliable_config(tmp_path, 0.9, 0.2)
    record = run_episode(cfg, "uncertainty-no-action", seed=1)
    assert record.outcome == "timeout"
    digest = hashlib.sha256(record.to_json_line().encode()).hexdigest()
    assert digest == LOOPING_RECORD_SHA256
    # n_replans counts plan_to calls; repeated queries are answered from
    # the planner's cache without searching again.
    assert 0 < len(searches) < record.diagnostics["n_replans"]


# sha256 of the record lines, in run order, of the episodes that end on a
# missing route: room with every load failing and with most failing, under
# every policy at seeds 0-3, where a sensed DOOR seals the only doorway and
# the known-blocker fallback runs; then room walled off across column 60,
# where no route exists and no obstacle is known from the start.
NO_PATH_RECORDS_SHA256 = (
    "02f72158a041e6c68ed15206e264d8d761b9548bcad5a4779e577f99961ce6e9")


def test_no_path_branches_records_pinned(tmp_path):
    room = ScenarioConfig.from_yaml(scenario_path("room.yaml"))
    records = []
    for true_sr in (0.0, 0.3):
        cfg = replace(room, obstacles=tuple(replace(o, true_sr=true_sr)
                                            for o in room.obstacles))
        records += [run_episode(cfg, policy, seed=seed)
                    for policy in POLICIES for seed in range(4)]
    cells = np.array(room.load_grid().cells)
    cells[:, 60] = STATIC
    walled = replace(room, map_path=_write_map(tmp_path, cells))
    for policy in POLICIES:
        record = run_episode(walled, policy, seed=0)
        assert (record.outcome, record.elapsed) == ("no_strategy", 0.0)
        assert record.diagnostics["n_replans"] == 1
        records.append(record)
    digest = hashlib.sha256()
    for record in records:
        digest.update(record.to_json_line().encode() + b"\n")
    assert digest.hexdigest() == NO_PATH_RECORDS_SHA256


def _memo_episode(tmp_path):
    cfg = _unreliable_config(tmp_path, 0.9, 0.9)
    return _Episode(cfg, seed=0)


def test_blockage_memo_follows_explored_growth(tmp_path, monkeypatch):
    import oracles
    from namoplan import blockage as blk
    from namoplan.intervals import CostInterval

    clear_memos()
    ep = _memo_episode(tmp_path)
    traj = ep.plan_to(*ep.cfg.goal)
    proxy = CostInterval(10.0, 20.0)

    def fresh():
        return proxy.scale(oracles.trajectory_blockage(
            ep.pop, traj, ep.grid, ep.explored, ep.cfg.robot.radius))

    first = ep.blockage_interval(traj, proxy)
    assert first == fresh() and first.hi > 0.0
    calls = []
    real = blk._blockage
    monkeypatch.setattr(blk, "_blockage", lambda *a: calls.append(1) or real(*a))
    assert ep.blockage_interval(traj, proxy) == first
    assert calls == []
    # Explore the first half of the route: fewer waypoints carry risk.
    for x, y in traj.positions[: len(traj) // 2]:
        iy, ix = ep.grid.cell_index(x, y)
        ep.explored[iy, ix] = True
    second = ep.blockage_interval(traj, proxy)
    assert len(calls) == 1
    assert second == fresh() and second != first


def test_plan_memo_keeps_masks_apart(tmp_path):
    import oracles
    from namoplan import planner
    from namoplan.observation import PoseBelief

    clear_memos()
    ep = _memo_episode(tmp_path)
    goal = ep.cfg.goal
    r = ep.cfg.robot.radius

    def fresh(ellipses):
        return oracles.plan_path(ep.grid, (ep.x, ep.y), goal, r, ellipses)

    plans = []
    for b in ((6.0, 9.0), (10.5, 16.9)):
        # Believed on the straight route, obstacle B forces a detour; moved
        # off it, its ellipse rasterizes elsewhere for the same start and goal.
        ep.set_belief("B", PoseBelief(np.array(b), np.eye(2) * 0.01))
        plans.append((ep.plan_to(*goal), fresh(ep.ellipses())))
    plans.append((planner.plan_path(ep.grid, (ep.x, ep.y), goal, r), fresh(())))
    plans.append((ep.plan_to(*goal, exclude="B"), fresh(())))
    # The plan memo's searches: the entries whose keys start with the mask
    # digest's bytes, not with `grid.key`.
    cached = [plan for key, plan in planner._PLAN_CACHE.items()
              if isinstance(key[0], bytes)]
    assert len(cached) == 3 and all(c is p for c, (p, _) in zip(cached, plans))
    for got, want in plans:
        assert np.array_equal(got.positions, want.positions)
    assert not np.array_equal(plans[0][0].positions, plans[1][0].positions)
    # Without ellipses the mask equals the one with B excluded: one entry.
    assert plans[3][0] is plans[2][0]


# -- incremental sensing ------------------------------------------------


def test_follow_retests_only_changed_beliefs(tmp_path, monkeypatch):
    # Scripted senses along a straight run at y = 2: A and B are first seen
    # off the path, then nothing changes, then A's belief moves onto the
    # path ahead. Only new or changed beliefs are tested, and the change
    # blocks.
    from namoplan import simulator
    from namoplan.observation import PoseBelief

    cfg = _config(tmp_path, obstacles=[("A", (3.0, 3.5)), ("B", (2.0, 0.5))])
    ep = _Episode(cfg, seed=0)
    traj = Trajectory(np.column_stack([np.linspace(0.7, 5.3, 47),
                                       np.full(47, 2.0)]))
    off_path = {"A": PoseBelief(np.array([3.0, 3.5]), np.eye(2) * 1e-4),
                "B": PoseBelief(np.array([2.0, 0.5]), np.eye(2) * 1e-4)}
    script = [off_path, {}, {"A": PoseBelief(np.array([4.5, 2.1]),
                                             np.eye(2) * 1e-4)}]

    def sense():
        for label, belief in (script.pop(0) if script else {}).items():
            ep.set_belief(label, belief)

    monkeypatch.setattr(ep, "sense", sense)
    tested = []
    real = simulator.path_blocked
    monkeypatch.setattr(simulator, "path_blocked", lambda positions, obstacles, r:
                        tested.append([label for label, _ in obstacles])
                        or real(positions, obstacles, r))
    assert ep.follow(traj) == ("blocked", "A")
    assert tested == [["A", "B"], [], ["A"]]


_INTERVAL_POLICIES = ("uncertainty", "uncertainty-no-action",
                      "uncertainty-no-blockage")


@pytest.fixture(scope="module")
def sensing_battery():
    """Every bundled scenario under the interval policies at seeds 0-2,
    with `follow`'s path checks, the records after every sense and
    placement, and the closed-form covariance check all observed."""
    import oracles
    from namoplan import observation, simulator
    from namoplan.observation import confidence_ellipse

    seen = {"checks": [], "records": [], "fast_psd": []}
    current = {}
    follow, sense = _Episode.follow, _Episode.sense
    execute_removal = _Episode.execute_removal
    path_blocked, surely_psd = simulator.path_blocked, observation._surely_psd

    def spy_follow(self, traj, ignore=None):
        current["episode"], current["ignore"] = self, ignore
        return follow(self, traj, ignore)

    def spy_path_blocked(positions, obstacles, robot_radius):
        got = path_blocked(positions, obstacles, robot_radius)
        ep = current["episode"]
        known = [(label, o.belief, o.spec.radius)
                 for label, o in sorted(ep.obstacles.items())
                 if o.belief is not None and label != current["ignore"]]
        want = oracles.path_blocked(positions, known, robot_radius,
                                    ep.cfg.confidence)
        seen["checks"].append((got, want, len(obstacles), len(known)))
        return got

    def check_records(ep, event):
        # Each record's ellipse as `confidence_ellipse` gives it afresh, or
        # None with no belief; and the known ellipses in label order.
        fresh = [None if o.belief is None else
                 confidence_ellipse(o.belief, o.spec.radius, ep.cfg.confidence)
                 for _, o in sorted(ep.obstacles.items())]
        held = [o.ellipse for _, o in sorted(ep.obstacles.items())]
        seen["records"].append((event, held, fresh, ep.ellipses()))

    def spy_sense(self):
        sense(self)
        check_records(self, "sense")

    def spy_execute_removal(self, label, blocked_traj):
        status = execute_removal(self, label, blocked_traj)
        check_records(self, "placed" if self.obstacles[label].placed else status)
        return status

    def spy_surely_psd(cov):
        seen["fast_psd"].append(surely_psd(cov))
        return seen["fast_psd"][-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Episode, "follow", spy_follow)
        mp.setattr(_Episode, "sense", spy_sense)
        mp.setattr(_Episode, "execute_removal", spy_execute_removal)
        mp.setattr(simulator, "path_blocked", spy_path_blocked)
        mp.setattr(observation, "_surely_psd", spy_surely_psd)
        names = sorted(p.name for p in scenario_path("room.yaml").parent.glob("*.yaml"))
        for name in names:
            cfg = ScenarioConfig.from_yaml(scenario_path(name))
            for seed in range(3):
                for policy in _INTERVAL_POLICIES:
                    run_episode(cfg, policy, seed=seed)
    assert len(names) == 7
    return seen


def test_incremental_path_check_equals_full_check(sensing_battery):
    checks = sensing_battery["checks"]
    assert all(got == want for got, want, _, _ in checks)
    # Some senses skipped cleared obstacles, and some found a blocker.
    assert sum(tested < known for _, _, tested, known in checks) > 100
    assert sum(got is not None for got, _, _, _ in checks) > 10


def test_each_record_holds_the_ellipse_of_its_belief(sensing_battery):
    snapshots = sensing_battery["records"]
    assert all(held == fresh for _, held, fresh, _ in snapshots)
    assert all(known == tuple(e for e in fresh if e is not None)
               for _, _, fresh, known in snapshots)
    events = [event for event, _, _, known in snapshots if known]
    assert events.count("sense") > 100 and events.count("placed") > 5
    # Some records were still unsensed, so their missing ellipse was checked.
    assert sum(None in fresh for _, _, fresh, _ in snapshots) > 100


def test_episode_covariances_pass_the_closed_form_check(sensing_battery):
    fast = sensing_battery["fast_psd"]
    assert len(fast) > 500 and all(fast)


# The paired battery run in a fresh process: cold caches.
_PAIRED_BATTERY = """
from namoplan import scenario_path
from namoplan.simulator import ScenarioConfig, run_episode
cfg = ScenarioConfig.from_yaml(scenario_path("warehouse_abc.yaml"))
for policy, seed in {cells!r}:
    print(run_episode(cfg, policy, seed=seed).to_json_line())
"""


def test_paired_battery_same_in_fresh_and_warm_process():
    import os
    import random
    import subprocess
    import sys
    from pathlib import Path

    import namoplan

    cells = [(policy, seed)
             for policy in ("uncertainty", "uncertainty-no-action", "priority-removal")
             for seed in (0, 1)]
    env = dict(os.environ, PYTHONPATH=str(Path(namoplan.__file__).parents[1]))
    fresh = subprocess.run(
        [sys.executable, "-c", _PAIRED_BATTERY.format(cells=cells)], env=env,
        capture_output=True, text=True, check=True).stdout.splitlines()
    cfg = ScenarioConfig.from_yaml(scenario_path("warehouse_abc.yaml"))
    rng = random.Random(5)
    for _ in range(2):
        order = rng.sample(cells, len(cells))
        warm = {cell: run_episode(cfg, cell[0], seed=cell[1]).to_json_line()
                for cell in order}
        assert [warm[cell] for cell in cells] == fresh
