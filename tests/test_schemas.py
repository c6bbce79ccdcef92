"""The bundled JSON schemas agree with the config loader and the records."""

import copy
import json
import math
from dataclasses import MISSING, fields
from pathlib import Path
from unittest import mock

import jsonschema
import yaml

import namoplan
from namoplan import scenario_path, simulator
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


YAML_LOADERS = [yaml.SafeLoader, *([yaml.CSafeLoader]
                                  if hasattr(yaml, "CSafeLoader") else [])]


def test_bundled_configs_load_equal_with_either_yaml_loader(monkeypatch):
    assert simulator._YAML_LOADER is YAML_LOADERS[-1]
    paths = sorted(scenario_path("room.yaml").parent.glob("*.yaml"))
    assert paths
    for path in paths:
        # repr tells 1 from 1.0 and keeps the key order.
        raws = {repr(yaml.load(path.read_text(), Loader=loader))
                for loader in YAML_LOADERS}
        assert len(raws) == 1
        configs = []
        for loader in YAML_LOADERS:
            monkeypatch.setattr(simulator, "_YAML_LOADER", loader)
            configs.append(ScenarioConfig.from_yaml(path))
        assert all(c == configs[0] for c in configs)


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


def _scalar_leaves(schema: dict, path: tuple = ()):
    """(path, schema) of every scalar leaf; an array stands for its first item."""
    if schema["type"] == "object":
        for key, sub in schema["properties"].items():
            yield from _scalar_leaves(sub, path + (key,))
    elif schema["type"] == "array":
        yield from _scalar_leaves(schema["items"], path + (0,))
    else:
        yield path, schema


def _with_defaults(raw: dict, schema: dict) -> dict:
    """`raw` with every section and every key that has a default filled in,
    so that each leaf's container exists."""
    for key, sub in schema.get("properties", {}).items():
        if sub["type"] == "object":
            _with_defaults(raw.setdefault(key, {}), sub)
        elif "default" in sub:
            raw.setdefault(key, copy.deepcopy(sub["default"]))
    return raw


def _leaf_edits():
    """The loader's schema, a full room.yaml and a setter for any leaf."""
    schema = _validator("scenario_config.schema.json").schema
    raw = yaml.safe_load(scenario_path("room.yaml").read_text())
    raw["map"] = str(scenario_path(raw["map"]))
    raw = _with_defaults(raw, schema)

    def edited(path, value):
        out = copy.deepcopy(raw)
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return out
    return schema, edited


def _loads(raw: dict, tmp_path) -> bool:
    """Whether `from_yaml` accepts `raw`, leaving out its checks against the
    map (file, obstacle, start and goal cells), which no schema can express."""
    path = tmp_path / "edited.yaml"
    path.write_text(yaml.safe_dump(raw))
    try:
        with mock.patch.object(ScenarioConfig, "load_grid"):
            ScenarioConfig.from_yaml(path)
    except ScenarioError:
        return False
    return True


# The loader is deliberately stricter than Draft 7 in two places, and only
# there: a `number` must be finite (Draft 7 accepts NaN and infinities), and
# an `integer` must be a Python int (Draft 7 accepts 2.0 and -1.0).


def test_schema_bounds_match_the_loader(tmp_path):
    # At every scalar leaf the loader accepts exactly what Draft 7 accepts,
    # integral floats at integer leaves aside.
    validator = _validator("scenario_config.schema.json")
    schema, edited = _leaf_edits()
    leaves = list(_scalar_leaves(schema))
    assert len(leaves) == 34
    for path, leaf in leaves:
        for value in (-1.0, 0, 0.5, 1, 2, 2.5, True, "x", None):
            raw = edited(path, value)
            want = validator.is_valid(raw) and not (
                leaf["type"] == "integer" and isinstance(value, float))
            assert _loads(raw, tmp_path) == want, (path, value)


def test_loader_rejects_non_finite_numbers_and_integral_floats(tmp_path):
    schema, edited = _leaf_edits()
    strict = {"number": (math.nan, math.inf, -math.inf), "integer": (2.0,)}
    for path, leaf in _scalar_leaves(schema):
        for value in strict.get(leaf["type"], ()):
            assert not _loads(edited(path, value), tmp_path), (path, value)


def test_schema_defaults_match_the_dataclasses():
    props = _validator("scenario_config.schema.json").schema["properties"]
    tables = [(props, ScenarioConfig),
              (props["obstacles"]["items"]["properties"], ObstacleSpec)]
    tables += [(props[key]["properties"], cls) for key, cls in SECTIONS.items()]
    for table, cls in tables:
        in_schema = {k: v["default"] for k, v in table.items() if "default" in v}
        in_code = {f.name: list(f.default) if isinstance(f.default, tuple)
                   else f.default for f in fields(cls) if f.default is not MISSING}
        assert in_schema == in_code, cls.__name__


def test_records_match_the_schema(room_config):
    validator = _validator("trial_record.schema.json")
    for policy in POLICIES:
        record = json.loads(run_episode(room_config, policy, seed=0).to_json_line())
        assert [e.message for e in validator.iter_errors(record)] == []
