"""The bundled JSON schemas agree with the config loader and the records."""

import copy
import json
from dataclasses import fields
from pathlib import Path

import jsonschema
import yaml

import namoplan
from namoplan import scenario_path
from namoplan.simulator import (POLICIES, BypassModelConfig, NoiseConfig,
                                ObstacleSpec, PopulationConfig, RemovalConfig,
                                RobotConfig, ScenarioConfig, ScenarioError,
                                run_episode)

SECTIONS = {"robot": RobotConfig, "population": PopulationConfig,
            "removal": RemovalConfig, "noise": NoiseConfig,
            "bypass_model": BypassModelConfig}


def _validator(name: str) -> jsonschema.Draft7Validator:
    path = Path(namoplan.__file__).parent / "schemas" / name
    schema = json.loads(path.read_text())
    jsonschema.Draft7Validator.check_schema(schema)
    return jsonschema.Draft7Validator(schema)


def _names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def test_every_bundled_config_matches_the_schema():
    validator = _validator("scenario_config.schema.json")
    paths = sorted(scenario_path("room.yaml").parent.glob("*.yaml"))
    assert paths
    for path in paths:
        raw = yaml.safe_load(path.read_text())
        assert [e.message for e in validator.iter_errors(raw)] == [], path.name


def test_schema_properties_match_the_dataclasses():
    schema = _validator("scenario_config.schema.json").schema
    props = schema["properties"]
    # The YAML names the map file `map`; the config holds its resolved path.
    assert set(props) == _names(ScenarioConfig) - {"map_path"} | {"map"}
    assert schema["additionalProperties"] is False
    for key, cls in SECTIONS.items():
        assert set(props[key]["properties"]) == _names(cls), key
        assert props[key]["additionalProperties"] is False, key
    items = props["obstacles"]["items"]
    assert set(items["properties"]) == _names(ObstacleSpec)
    assert items["additionalProperties"] is False


def test_schema_bounds_match_the_loader(tmp_path):
    # The schema's minimums and the loader's checks accept the same values.
    validator = _validator("scenario_config.schema.json")
    raw = yaml.safe_load(scenario_path("room.yaml").read_text())
    raw["map"] = str(scenario_path(raw["map"]))
    keys = [(None, "timeout"), ("removal", "max_attempts"),
            ("removal", "load_overhead"), ("removal", "unload_overhead"),
            ("removal", "search_radius"), ("removal", "default_t_mo")]
    for section, key in keys:
        for value in (-1.0, 0, 0.5, 1, 2, 2.5):
            edited = copy.deepcopy(raw)
            (edited if section is None
             else edited.setdefault(section, {}))[key] = value
            path = tmp_path / "edited.yaml"
            path.write_text(yaml.safe_dump(edited))
            try:
                loads = ScenarioConfig.from_yaml(path) is not None
            except ScenarioError:
                loads = False
            assert loads == validator.is_valid(edited), (key, value)


def test_records_match_the_schema(room_config):
    validator = _validator("trial_record.schema.json")
    for policy in POLICIES:
        record = json.loads(run_episode(room_config, policy, seed=0).to_json_line())
        assert [e.message for e in validator.iter_errors(record)] == []
