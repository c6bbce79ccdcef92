"""Command-line interface: subcommands, outputs, and exit codes."""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import oracles
from conftest import empty_grid
from namoplan import scenario_path, simulator
from namoplan.cli import main
from namoplan.simulator import ScenarioConfig, ScenarioError


@pytest.fixture(scope="module")
def tiny_yaml(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
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


# -- run ----------------------------------------------------------------


def test_run_success_exit_zero(tiny_yaml, capsys):
    assert main(["run", "--config", tiny_yaml, "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "outcome=success" in out
    assert "seed=1" in out


def test_run_appends_json_record(tiny_yaml, tmp_path):
    out = tmp_path / "records.jsonl"
    for seed in ("1", "2"):
        assert main(["run", "--config", tiny_yaml, "--seed", seed,
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert [json.loads(line)["seed"] for line in lines] == [1, 2]


def test_run_timeout_still_exit_zero(capsys):
    code = main(["run", "--config", str(scenario_path("room.yaml")),
                 "--policy", "priority-bypass", "--seed", "0"])
    assert code == 0
    assert "outcome=timeout" in capsys.readouterr().out


def test_run_missing_config_exit_two(capsys):
    assert main(["run", "--config", "/nonexistent/file.yaml"]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_malformed_config_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("goal: [1, 1\n  map: x")
    assert main(["run", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("loader", [
    yaml.SafeLoader, *([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])],
    ids=lambda loader: loader.__name__)
def test_malformed_yaml_exit_two_with_either_loader(tmp_path, capsys,
                                                    monkeypatch, loader):
    monkeypatch.setattr(simulator, "_YAML_LOADER", loader)
    texts = ["goal: [1, 1\n  map: x", "robot:\n\tradius: 0.3\n",
             'scenario_id: "open', "goal: *nowhere\n", "a: b: c\n",
             "obstacles: !!python/object:os.system {}\n"]
    for k, text in enumerate(texts):
        bad = tmp_path / f"bad{k}.yaml"
        bad.write_text(text)
        with pytest.raises(ScenarioError, match="malformed config"):
            ScenarioConfig.from_yaml(bad)
        assert main(["run", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err


def _variant(tiny_yaml, tmp_path, edit) -> str:
    """Write a copy of the tiny config, changed by `edit(raw)`."""
    raw = yaml.safe_load(Path(tiny_yaml).read_text())
    raw["map"] = str(Path(tiny_yaml).parent / raw["map"])
    edit(raw)
    path = tmp_path / "variant.yaml"
    path.write_text(yaml.safe_dump(raw))
    return str(path)


@pytest.mark.parametrize("key, value", [
    ("v_lin", 0.0), ("v_rot", 0.0), ("radius", -0.3), ("sensor_range", 0.0),
    ("sensor_fov", 0.0), ("sensor_fov", 6.3),
])
def test_run_bad_robot_value_exit_two(tiny_yaml, tmp_path, capsys, key, value):
    bad = _variant(tiny_yaml, tmp_path, lambda raw: raw["robot"].update({key: value}))
    assert main(["run", "--config", bad]) == 2
    assert f"robot.{key}" in capsys.readouterr().err


def test_run_zero_sense_interval_exit_two(tiny_yaml, tmp_path, capsys):
    bad = _variant(tiny_yaml, tmp_path, lambda raw: raw.update(sense_interval=0))
    assert main(["run", "--config", bad]) == 2
    assert "sense_interval" in capsys.readouterr().err


def _no_episode(*args, **kwargs):
    raise AssertionError("an episode started")


def test_run_misspelt_key_exit_two(tiny_yaml, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("namoplan.cli.run_episode", _no_episode)
    bad = _variant(tiny_yaml, tmp_path, lambda raw: raw.update(timout=5))
    assert main(["run", "--config", bad]) == 2
    assert "unknown key(s) in config: timout" in capsys.readouterr().err


@pytest.mark.parametrize("edit, key", [
    (lambda raw: raw.update(goal="ab"), "goal"),
    (lambda raw: raw["robot"].update(start=[0.7]), "robot.start"),
    (lambda raw: raw.update(noise={"robot_cov_diag": "0.01"}),
     "noise.robot_cov_diag"),
    (lambda raw: raw.update(noise={"meas_cov_diag": [0.01, 0.001, 0.0]}),
     "noise.meas_cov_diag"),
])
def test_run_bad_tuple_field_exit_two(tiny_yaml, tmp_path, capsys, monkeypatch,
                                      edit, key):
    monkeypatch.setattr("namoplan.cli.run_episode", _no_episode)
    bad = _variant(tiny_yaml, tmp_path, edit)
    assert main(["run", "--config", bad]) == 2
    assert f"{key} must be a list of" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    (None, "timeout", float("nan")),
    ("removal", "max_attempts", 0),
    ("removal", "max_attempts", 2.5),
    ("removal", "max_attempts", True),
    ("removal", "search_radius", 0.0),
    ("removal", "default_t_mo", float("nan")),
    ("removal", "load_overhead", -5.0),
    ("removal", "unload_overhead", -0.5),
])
def test_run_bad_removal_or_timeout_exit_two(tiny_yaml, tmp_path, capsys,
                                             monkeypatch, section, key, value):
    monkeypatch.setattr("namoplan.cli.run_episode", _no_episode)
    bad = _variant(tiny_yaml, tmp_path, lambda raw: (
        raw if section is None else raw.setdefault(section, {})).update({key: value}))
    assert main(["run", "--config", bad]) == 2
    name = key if section is None else f"{section}.{key}"
    assert f"{name} must be" in capsys.readouterr().err


def _set(raw: dict, key: str, value) -> None:
    """Set the dotted `key`, which may index lists as `[i]`, in `raw`."""
    parts = [int(p) if p.isdigit() else p for p in re.findall(r"[^.\[\]]+", key)]
    node = raw
    for part in parts[:-1]:
        node = node[part] if isinstance(part, int) else node.setdefault(part, {})
    node[parts[-1]] = value


@pytest.mark.parametrize("key, value, rule", [
    ("population.mu", -1, "> 0"),
    ("population.sigma", -0.1, ">= 0"),
    ("population.k", -1, ">= 0"),
    ("bypass_model.n_rows", 2, ">= 5"),
    ("bypass_model.dataset_seed", 1.5, "an integer"),
    ("bypass_model.noise_sigma", -1, ">= 0"),
    ("obstacles[0].radius", 0, "> 0"),
    ("obstacles[0].label", 3, "a string"),
    ("obstacles[0].position[0]", "3.0", "a number"),
    ("robot.start_heading", "abc", "a number"),
    ("robot.start_heading", float("nan"), "finite"),
    ("robot.radius", float("inf"), "finite"),
    ("seed", 1.5, "an integer"),
    ("sr_shared", "maybe", "a boolean"),
    ("calibration_trials", 0, ">= 1"),
    ("scenario_id", 5, "a string"),
    ("sense_interval", float("inf"), "finite"),
    ("timeout", float("inf"), "finite"),
])
def test_run_value_outside_schema_exit_two(tiny_yaml, tmp_path, capsys,
                                           monkeypatch, key, value, rule):
    # Every type and range the schema sets is checked before an episode.
    monkeypatch.setattr("namoplan.cli.run_episode", _no_episode)
    bad = _variant(tiny_yaml, tmp_path, lambda raw: _set(raw, key, value))
    assert main(["run", "--config", bad]) == 2
    assert f"{key} must be {rule}\n" in capsys.readouterr().err


def test_run_map_with_unknown_cell_exit_two(tiny_yaml, tmp_path, capsys):
    text = empty_grid(60, 40, 0.1).to_text().splitlines()
    text[5] = "o" + text[5][1:]
    (tmp_path / "marked.map").write_text("\n".join(text) + "\n")
    bad = _variant(tiny_yaml, tmp_path,
                   lambda raw: raw.update(map=str(tmp_path / "marked.map")))
    assert main(["run", "--config", bad]) == 2
    assert "unknown cell character 'o'" in capsys.readouterr().err


def _room_variant(tmp_path, edit) -> str:
    return _variant(str(scenario_path("room.yaml")), tmp_path, edit)


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw.update(goal=[0.05, 3.0]), "goal not in a free cell"),
    (lambda raw: raw["robot"].update(start=[5.0, 0.05]),
     "robot start not in a free cell"),
    (lambda raw: raw["obstacles"][0].update(position=[9.95, 3.0]),
     "obstacle DOOR not in a free cell"),
    (lambda raw: raw.update(map="missing.map"), "No such file"),
])
def test_run_position_or_map_error_exit_two(tmp_path, capsys, monkeypatch,
                                            edit, message):
    # The map is read while the config loads, before an episode.
    monkeypatch.setattr("namoplan.cli.run_episode", _no_episode)
    assert main(["run", "--config", _room_variant(tmp_path, edit)]) == 2
    assert message in capsys.readouterr().err


def test_goal_on_the_high_edge_of_a_borderless_map_exit_two(tmp_path, capsys,
                                                          monkeypatch):
    # 17 cells of 0.1 m make a map 1.7000000000000002 m wide, but
    # 1.7 / 0.1 is 17.0: the goal's column lies one past the last.
    monkeypatch.setattr("namoplan.cli.run_episode", _no_episode)
    empty_grid(17, 17, 0.1).save(tmp_path / "open.map")
    (tmp_path / "edge.yaml").write_text("""
map: open.map
goal: [1.7, 0.55]
robot:
  start: [0.55, 0.55]
""")
    assert main(["run", "--config", str(tmp_path / "edge.yaml")]) == 2
    assert "goal not in a free cell" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "benchmark"])
@pytest.mark.parametrize("resolution", ["nan", "inf", "1e154", "1e200"])
def test_unusable_map_resolution_exit_two(tmp_path, capsys, monkeypatch,
                                          command, resolution):
    # On a 3 x 2 map the positions would all land in cell (0, 0), or the
    # map's area would overflow.
    monkeypatch.setattr("namoplan.cli.run_episode", _no_episode)
    monkeypatch.setattr("namoplan.experiments.run_episode", _no_episode)
    (tmp_path / "huge.map").write_text(f"3 2 {resolution}\n...\n...\n")
    bad = _room_variant(tmp_path,
                        lambda raw: raw.update(map=str(tmp_path / "huge.map")))
    extra = (["--policy", "uncertainty", "--out", str(tmp_path / "res")]
             if command == "benchmark" else [])
    assert main([command, "--config", bad, *extra]) == 2
    assert f"map resolution {float(resolution)} " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "benchmark"])
def test_goal_in_start_cell_exit_two(tmp_path, capsys, monkeypatch, command):
    # Room's start is (2.0, 3.0); a goal 1 cm away shares its 0.1 m cell,
    # where no route is planned and every policy would give up at once.
    monkeypatch.setattr("namoplan.cli.run_episode", _no_episode)
    monkeypatch.setattr("namoplan.experiments.run_episode", _no_episode)
    bad = _room_variant(tmp_path, lambda raw: raw.update(goal=[2.01, 3.0]))
    extra = (["--policy", "uncertainty", "--out", str(tmp_path / "res")]
             if command == "benchmark" else [])
    assert main([command, "--config", bad, *extra]) == 2
    assert "goal in the robot's start cell" in capsys.readouterr().err


def test_run_map_that_is_a_directory_exit_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("namoplan.cli.run_episode", _no_episode)
    bad = _room_variant(tmp_path, lambda raw: raw.update(map="."))
    assert main(["run", "--config", bad]) == 2
    err = capsys.readouterr().err
    assert "config error: cannot read map" in err and str(tmp_path) in err


@pytest.mark.parametrize("command", ["run", "benchmark"])
def test_repeated_obstacle_label_exit_two(tmp_path, capsys, monkeypatch,
                                          command):
    # An episode keys its obstacles by label, so a second B would replace
    # the first, and the robot would drive through the one dropped.
    monkeypatch.setattr("namoplan.cli.run_episode", _no_episode)
    monkeypatch.setattr("namoplan.experiments.run_episode", _no_episode)
    bad = _variant(str(scenario_path("warehouse_abc.yaml")), tmp_path,
                   lambda raw: raw["obstacles"][2].update(label="B"))
    extra = (["--policy", "uncertainty", "--out", str(tmp_path / "res")]
             if command == "benchmark" else [])
    assert main([command, "--config", bad, *extra]) == 2
    assert "obstacle label 'B' is repeated" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "benchmark"])
def test_config_that_is_a_directory_exit_two(tmp_path, capsys, command):
    extra = ["--policy", "uncertainty"] if command == "benchmark" else []
    assert main([command, "--config", str(tmp_path), *extra]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot read config {tmp_path}" in err


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["run"]) == 1  # --config is required
    assert main(["run", "--config", "x.yaml", "--policy", "bogus"]) == 1
    capsys.readouterr()


def test_run_writes_risk_diagnostics(tiny_yaml, tmp_path, capsys):
    out = tmp_path / "risk.csv"
    assert main(["run", "--config", tiny_yaml, "--seed", "0",
                 "--diagnostics", str(out)]) == 0
    capsys.readouterr()
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "x", "y", "width", "p_block_given_here",
                       "p_here", "p_block"]
    assert len(rows) > 1
    for row in rows[1:]:
        assert 0.0 <= float(row[6]) <= 1.0


def test_diagnostics_from_a_blocked_start_exit_two(tiny_yaml, tmp_path,
                                                   capsys):
    # A free start cell inside the border's inflation: no route leaves it.
    raw = yaml.safe_load(Path(tiny_yaml).read_text())
    raw["map"] = str(Path(tiny_yaml).with_name(raw["map"]))
    raw["robot"]["start"] = [0.15, 2.0]
    config = tmp_path / "blocked.yaml"
    config.write_text(yaml.safe_dump(raw))
    out = tmp_path / "risk.csv"
    assert main(["run", "--config", str(config), "--seed", "0",
                 "--diagnostics", str(out)]) == 2
    captured = capsys.readouterr()
    assert "outcome=no_strategy" in captured.out
    assert captured.err == "config error: no initial route for diagnostics\n"
    assert not out.exists()


# -- benchmark ----------------------------------------------------------


def test_benchmark_writes_grid(tiny_yaml, tmp_path, capsys):
    out = tmp_path / "res"
    code = main(["benchmark", "--config", tiny_yaml,
                 "--policy", "uncertainty", "priority-bypass",
                 "--reps", "2", "--seed", "0", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "success=1.00" in printed
    with open(out / "trials.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 4  # header + 2 policies x 2 reps
    assert (out / "summary.csv").exists()
    assert (out / "trials.jsonl").exists()


def test_benchmark_bad_second_config_exit_two(tiny_yaml, tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.setattr("namoplan.experiments.run_episode", _no_episode)
    bad = _variant(tiny_yaml, tmp_path, lambda raw: raw.update(timeout=-1))
    code = main(["benchmark", "--config", tiny_yaml, bad,
                 "--policy", "priority-bypass", "--reps", "1",
                 "--out", str(tmp_path / "res")])
    assert code == 2
    assert "timeout must be > 0" in capsys.readouterr().err


def test_benchmark_goal_in_wall_exit_two_before_any_episode(tmp_path, capsys,
                                                            monkeypatch):
    monkeypatch.setattr("namoplan.experiments.run_episode", _no_episode)
    bad = _room_variant(tmp_path, lambda raw: raw.update(goal=[0.05, 3.0]))
    out = tmp_path / "res"
    code = main(["benchmark", "--config", str(scenario_path("room.yaml")), bad,
                 "--policy", "priority-bypass", "--reps", "2", "--out", str(out)])
    assert code == 2
    assert "goal not in a free cell" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("reps,workers,message", [
    ("0", "1", "repetitions must be >= 1"),
    ("1", "0", "workers must be >= 1"),
    ("1", "-2", "workers must be >= 1"),
], ids=["reps-0", "workers-0", "workers-minus-2"])
def test_benchmark_count_below_one_exit_two_before_any_file(
        tiny_yaml, tmp_path, capsys, monkeypatch, reps, workers, message):
    monkeypatch.setattr("namoplan.experiments.run_episode", _no_episode)
    out = tmp_path / "res"
    code = main(["benchmark", "--config", tiny_yaml, "--policy",
                 "priority-bypass", "--reps", reps, "--workers", workers,
                 "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "benchmark"])
@pytest.mark.parametrize("key", ["seed", "bypass_model.dataset_seed"])
def test_negative_config_seed_exit_two_before_any_file(
        tiny_yaml, tmp_path, capsys, monkeypatch, command, key):
    # numpy's generators take no negative seed: the load rejects it and
    # names the field, before an episode or a fit starts.
    monkeypatch.setattr("namoplan.cli.run_episode", _no_episode)
    monkeypatch.setattr("namoplan.experiments.run_episode", _no_episode)
    bad = _variant(tiny_yaml, tmp_path, lambda raw: _set(raw, key, -1))
    out = tmp_path / "res"
    extra = (["--policy", "uncertainty", "--out", str(out)]
             if command == "benchmark" else ["--out", str(out)])
    assert main([command, "--config", bad, *extra]) == 2
    assert f"config error: {key} must be >= 0\n" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_negative_seed_exit_two_before_any_file(
        tiny_yaml, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("namoplan.experiments.run_episode", _no_episode)
    out = tmp_path / "res"
    code = main(["benchmark", "--config", tiny_yaml, "--policy",
                 "priority-bypass", "--seed", "-1", "--out", str(out)])
    assert code == 2
    assert "config error: seed must be >= 0\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, output", [
    ("run", "--out"), ("run", "--diagnostics"), ("train-bypass", "--out")])
def test_negative_cli_seed_exit_two_before_any_file(
        tiny_yaml, tmp_path, capsys, monkeypatch, command, output):
    monkeypatch.setattr("namoplan.cli.run_episode", _no_episode)
    monkeypatch.setattr("namoplan.cli.generate_bypass_benchmark", _no_episode)
    out = tmp_path / "out"
    extra = ["--generate"] if command == "train-bypass" else []
    code = main([command, *extra, "--config", tiny_yaml, "--seed", "-1",
                 output, str(out)])
    assert code == 2
    assert "config error: --seed must be >= 0, got -1\n" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_out_that_is_a_file_exit_two(tiny_yaml, tmp_path, capsys):
    out = tmp_path / "res"
    out.write_text("kept\n")
    code = main(["benchmark", "--config", tiny_yaml, "--policy",
                 "priority-bypass", "--reps", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(out) in err
    assert out.read_text() == "kept\n"


def test_run_out_that_is_a_directory_exit_two(tiny_yaml, tmp_path, capsys):
    code = main(["run", "--config", tiny_yaml, "--seed", "1",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(tmp_path) in err


def test_benchmark_two_files_with_one_scenario_id_exit_two_before_any_file(
        tmp_path, capsys, monkeypatch):
    # Their rows would be merged into one summary cell and could not be
    # told apart in trials.csv.
    monkeypatch.setattr("namoplan.experiments.run_episode", _no_episode)
    abc = str(scenario_path("warehouse_abc.yaml"))
    copy = _variant(abc, tmp_path, lambda raw: [
        obstacle.update(true_sr=0.2) for obstacle in raw["obstacles"]])
    out = tmp_path / "res"
    code = main(["benchmark", "--config", abc, copy, "--policy",
                 "priority-bypass", "--reps", "2", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "scenario_id 'warehouse_abc' is in both" in err and copy in err
    assert not out.exists()


def test_benchmark_one_file_listed_twice_runs_it_twice(tiny_yaml, tmp_path,
                                                       capsys):
    # The same file, also named through its directory's parent: one
    # scenario, whose summary cell holds both listings' trials.
    again = str(Path(tiny_yaml).parent / ".." / Path(tiny_yaml).parent.name
                / "tiny.yaml")
    out = tmp_path / "res"
    code = main(["benchmark", "--config", tiny_yaml, again, tiny_yaml,
                 "--policy", "priority-bypass", "--reps", "1",
                 "--out", str(out)])
    assert code == 0
    assert "n=3 " in capsys.readouterr().out
    with open(out / "trials.csv") as fh:
        assert [row["scenario_id"] for row in csv.DictReader(fh)] == ["tiny"] * 3


# -- train-bypass -------------------------------------------------------


def test_train_bypass_generate_deterministic(tiny_yaml, tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        code = main(["train-bypass", "--generate", "--config", tiny_yaml,
                     "--seed", "2", "--out", str(out)])
        assert code == 0
    assert a.read_text() == b.read_text()
    printed = capsys.readouterr().out
    assert "glr" in printed and "average-speed" in printed
    oracles.load_glr_model(a)  # artifact is loadable


def test_train_bypass_beats_speed_baseline(tiny_yaml, tmp_path, capsys):
    out = tmp_path / "model.txt"
    assert main(["train-bypass", "--generate", "--config", tiny_yaml,
                 "--seed", "0", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    ae = {}
    for line in printed.splitlines():
        parts = line.split()
        if "median" in line and parts[0] in ("glr", "average-speed",
                                             "trapezoid"):
            ae[parts[0]] = float(parts[parts.index("AE") + 1])
    assert ae["glr"] < ae["average-speed"]


def test_train_bypass_from_csv(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "timing.csv"
    with open(path, "w") as fh:
        fh.write("F_l,F_s,F_v,duration\n")
        for _ in range(200):
            f_l = rng.uniform(2, 20)
            f_s = rng.uniform(0, 1)
            fh.write(f"{f_l},{f_s},{rng.uniform(0, 0.3)},"
                     f"{2 * f_l + 3 * f_s + rng.normal(0, 0.2)}\n")
    out = tmp_path / "model.txt"
    assert main(["train-bypass", "--dataset", str(path),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.exists()


def test_train_bypass_tiny_dataset_exit_two(tmp_path, capsys):
    path = tmp_path / "timing.csv"
    path.write_text("F_l,F_s,F_v,duration\n1.0,0.0,0.0,2.0\n")
    assert main(["train-bypass", "--dataset", str(path)]) == 2
    capsys.readouterr()


def _timing_csv(path, header="F_l,F_s,F_v,duration", bad_row=None):
    """20 good rows under `header`, the sixth replaced by `bad_row`."""
    rows = [f"{2.0 + i},0.1,0.01,{4.5 + 2 * i}" for i in range(20)]
    if bad_row is not None:
        rows[5] = bad_row
    path.write_text("\n".join([header, *rows]) + "\n")
    return str(path)


@pytest.mark.parametrize("header, bad_row, names", [
    ("F_l,F_s,duration", None, "missing column(s) F_v"),
    ("F_l,F_s,F_v,duration", "3.0,0.1,0.01", "data row 6"),
    ("F_l,F_s,F_v,duration", "3.0,0.1,0.01,nan", "data row 6"),
    ("F_l,F_s,F_v,duration", "3.0,inf,0.01,6.0", "data row 6"),
    ("F_l,F_s,F_v,duration", "-3.0,0.1,0.01,6.0", "data row 6"),
], ids=["missing-column", "short-row", "nan-duration", "infinite-feature",
        "negative-length"])
def test_train_bypass_bad_dataset_exit_two(tmp_path, capsys, header, bad_row,
                                           names):
    out = tmp_path / "model.txt"
    path = _timing_csv(tmp_path / "timing.csv", header, bad_row)
    assert main(["train-bypass", "--dataset", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and names in err
    assert not out.exists()


def test_train_bypass_needs_a_source(tiny_yaml, capsys):
    assert main(["train-bypass"]) == 1
    assert main(["train-bypass", "--generate"]) == 1
    capsys.readouterr()
