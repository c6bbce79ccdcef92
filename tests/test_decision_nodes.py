"""Shared decision nodes: episodes of one world and seed resume from the
states earlier episodes reached with the same choices, whatever their
configs' decision-only fields, and give the records a fresh config gives."""

import gc
import json
import pickle
import shutil
import weakref
from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from namoplan import scenario_path, simulator
from namoplan.gridmap import FREE, STATIC, OccupancyGrid, clear_memos
from namoplan.removal import BetaBelief
from namoplan.simulator import (POLICIES, BypassModelConfig, ScenarioConfig,
                                run_episode)

SCENARIOS = sorted(p.name for p in scenario_path("room.yaml").parent.glob("*.yaml"))
SEEDS = (0, 1, 2)

# The config fields that only the rules read (and the record, for
# `scenario_id`): configs that differ only in them simulate one world.
DECISION_ONLY = {"scenario_id", "estimated_sr", "calibration_trials",
                 "sr_shared", "bypass_model"}
# World fields the key holds in another form: the map as `grid.key`, and
# the default episode seed as the tree's seed.
KEYED_APART = {"map_path", "seed"}


def _fresh(name: str) -> ScenarioConfig:
    return ScenarioConfig.from_yaml(scenario_path(name))


def _line(config, policy, seed) -> str:
    return run_episode(config, policy, seed=seed).to_json_line()


def _alone(config, policy, seed) -> str:
    """The record of an episode that shares no node with any before it.
    Only the tree is emptied: `clear_memos` would refit the bypass models
    on every call."""
    simulator._TREE.clear()
    return _line(config, policy, seed)


@pytest.fixture(scope="module")
def fresh_records():
    """Every bundled scenario x policy x seed, each on a config of its own."""
    return {(name, policy, seed): _alone(_fresh(name), policy, seed)
            for name in SCENARIOS for policy in POLICIES for seed in SEEDS}


def _count_restores(monkeypatch) -> list:
    restores, real = [], simulator._Node.restore
    monkeypatch.setattr(simulator._Node, "restore",
                        lambda node, ep: restores.append(1) or real(node, ep))
    return restores


def _tree(config):
    """The (seed, root step) of decision nodes kept for the config's world,
    or None."""
    for (world, seed), root in simulator._TREE.items():
        if world == config._world:
            return seed, root
    return None


def test_every_config_field_is_of_the_world_or_decision_only(tmp_path):
    # A new field must join the world key or be read by the rules alone.
    world = set(simulator.WORLD_FIELDS)
    assert len(world) == len(simulator.WORLD_FIELDS)
    assert world.isdisjoint(DECISION_ONLY) and world.isdisjoint(KEYED_APART)
    assert DECISION_ONLY.isdisjoint(KEYED_APART)
    assert world | DECISION_ONLY | KEYED_APART == \
        {f.name for f in fields(ScenarioConfig)}
    config = _fresh("warehouse_abc.yaml")
    robot, (a, *rest) = config.robot, config.obstacles
    decision_only = {"scenario_id": "other", "estimated_sr": 0.2,
                     "calibration_trials": 3, "sr_shared": False,
                     "bypass_model": BypassModelConfig(n_rows=200)}
    of_the_world = {
        "robot": replace(robot, start_heading=-0.0),  # `repr` tells the zeros apart
        "goal": (config.goal[0] + 0.01, config.goal[1]),
        "obstacles": (replace(a, true_sr=0.5), *rest),
        "population": replace(config.population, mu=0.5),
        "removal": replace(config.removal, max_attempts=2),
        "noise": replace(config.noise, meas_cov_diag=(0.02, 0.001)),
        "confidence": 0.9, "timeout": 299.0, "sense_interval": 0.5}
    assert set(decision_only) == DECISION_ONLY
    assert set(of_the_world) == world
    for name, value in decision_only.items():
        assert replace(config, **{name: value})._world == config._world, name
    for name, value in of_the_world.items():
        assert replace(config, **{name: value})._world != config._world, name
    # The map enters by its contents, not its path.
    copy = shutil.copy(config.map_path, tmp_path / "copy.map")
    assert replace(config, map_path=str(copy))._world == config._world
    cells = config.load_grid().cells.copy()
    cells[0, 0] = FREE if cells[0, 0] == STATIC else STATIC
    OccupancyGrid(config.load_grid().resolution, cells).save(tmp_path / "other.map")
    assert replace(config, map_path=str(tmp_path / "other.map"))._world != \
        config._world
    assert replace(config, seed=5)._world == config._world


def _variants(config):
    """Configs of `config`'s world, each changing decision-only fields."""
    return [config,
            replace(config, scenario_id="pessimist", estimated_sr=0.2),
            replace(config, scenario_id="apart", sr_shared=False,
                    estimated_sr=0.5),
            replace(config, scenario_id="short", calibration_trials=2),
            replace(config, scenario_id="coarse", estimated_sr=0.6,
                    bypass_model=BypassModelConfig(n_rows=300))]


def test_configs_of_one_world_give_fresh_records(monkeypatch):
    shared = _variants(_fresh("warehouse_abc.yaml"))
    assert len({c._world for c in shared}) == 1
    clear_memos()
    restores = _count_restores(monkeypatch)
    lines = {(i, policy, seed): _line(config, policy, seed)
             for seed in SEEDS for i, config in enumerate(shared)
             for policy in POLICIES}
    assert len(restores) > 100
    for i, config in enumerate(_variants(_fresh("warehouse_abc.yaml"))):
        for policy in POLICIES:
            for seed in SEEDS:
                assert lines[i, policy, seed] == _alone(config, policy, seed), \
                    (config.scenario_id, policy, seed)
    # The decision-only fields change more of a record than its id.
    def past_the_id(line):
        record = json.loads(line)
        del record["scenario_id"]
        return json.dumps(record, sort_keys=True)

    assert len({past_the_id(lines[i, "uncertainty", seed])
                for i in range(len(shared)) for seed in SEEDS}) > len(SEEDS)


@given(shared=st.booleans(), estimated_sr=st.floats(0.0, 1.0),
       trials=st.integers(1, 50),
       loads=st.lists(st.tuples(st.sampled_from("ABC"), st.booleans()),
                      max_size=40))
def test_load_counts_give_the_beliefs_of_updates_made_load_by_load(
        warehouse_config, shared, estimated_sr, trials, loads):
    config = replace(warehouse_config, sr_shared=shared,
                     estimated_sr=estimated_sr, calibration_trials=trials)
    ep = simulator._Episode(config, 0)
    s = round(estimated_sr * trials)
    prior = BetaBelief.from_trials(s, trials - s)
    folds = {}
    for label, success in loads:
        key = "" if shared else label
        folds[key] = oracles.update_belief(folds.get(key, prior), success)
        ep.update_beta(label, success)
        for other in "ABC":
            want = folds.get("" if shared else other, prior)
            got = ep.beta_for(other)
            assert (got.alpha, got.beta) == (want.alpha, want.beta)


@pytest.mark.parametrize("order", ["forward", "reverse", "policy-major"])
def test_shared_config_gives_fresh_records(fresh_records, order, monkeypatch):
    # In reverse, random-choice runs first, so the rules that never draw
    # walk nodes it reached after drawing. Policy-major interleaves the
    # seeds, so each episode replaces the tree the one before it left.
    policies = list(POLICIES)[::-1 if order == "reverse" else 1]
    assert len(SCENARIOS) == 7 and len(policies) == 6
    cells = [(policy, seed) for seed in SEEDS for policy in policies]
    if order == "policy-major":
        cells = [(policy, seed) for policy in policies for seed in SEEDS]
    clear_memos()
    restores = _count_restores(monkeypatch)
    for name in SCENARIOS:
        config = _fresh(name)
        for policy, seed in cells:
            assert _line(config, policy, seed) == \
                fresh_records[name, policy, seed], (name, policy, seed)
    if order == "policy-major":
        assert restores == []
    else:
        assert len(restores) > 100


def test_one_tree_is_kept_for_the_last_world_and_seed():
    clear_memos()
    config = _fresh("warehouse_abc.yaml")
    _line(config, "uncertainty", 0)
    seed, root = _tree(config)
    assert seed == 0 and len(root.children) == 1
    # The two interval rules split at the first decision.
    _line(config, "uncertainty-no-action", 0)
    assert _tree(config)[1] is root and len(root.children) == 2
    # A config of the same world walks the same tree.
    _line(replace(config, scenario_id="pessimist", estimated_sr=0.2),
          "uncertainty", 0)
    assert _tree(config)[1] is root
    # Another world, or another seed, replaces it.
    other = _with_success_rates(config, 0.9, 0.2)
    _line(other, "uncertainty", 0)
    assert _tree(config) is None and _tree(other)[0] == 0
    _line(config, "uncertainty", 1)
    assert _tree(config)[0] == 1 and _tree(config)[1] is not root
    assert _tree(other) is None


def _warehouse_case(config):
    return _line(config, "uncertainty", 1), _line(config, "uncertainty-no-action", 1)


def _with_success_rates(config, estimated_sr, first_true_sr):
    first, *rest = config.obstacles
    return replace(config, estimated_sr=estimated_sr,
                   obstacles=(replace(first, true_sr=first_true_sr), *rest))


def test_changed_success_rates_give_fresh_records():
    config = _fresh("warehouse_abc.yaml")
    before = _warehouse_case(config)
    assert _tree(config) is not None
    # Only a changed true rate makes another world, with a tree of its own.
    for rates, same_world in (((0.2, 0.9), True), ((0.2, 0.2), False)):
        derived = _with_success_rates(config, *rates)
        assert (_tree(derived) is not None) == same_world
        records = _warehouse_case(derived)
        want = _with_success_rates(_fresh("warehouse_abc.yaml"), *rates)
        assert records == (_alone(want, "uncertainty", 1),
                           _alone(want, "uncertainty-no-action", 1)) != before


def test_choice_that_raises_stores_no_node(monkeypatch):
    def flaky():
        calls = []

        def choose(ep, *args):
            calls.append(1)
            if len(calls) == 1:
                ep.rng.random()  # a draw, then a failure
                raise RuntimeError("choice failed")
            return POLICIES["priority-removal"](ep, *args)

        return choose

    config = _fresh("warehouse_abc.yaml")
    want = run_episode(_fresh("warehouse_abc.yaml"), "priority-removal", seed=0)
    clear_memos()
    # The first failure is at a node the failing episode made, the second
    # at a node the episode before it stored.
    for stored in (False, True):
        assert (_tree(config) is not None) == stored
        monkeypatch.setitem(POLICIES, "flaky", flaky())
        with pytest.raises(RuntimeError, match="choice failed"):
            run_episode(config, "flaky", seed=0)
        assert _tree(config) is None
        record = run_episode(config, "flaky", seed=0)
        assert _tree(config) is not None
        assert (record.outcome, record.elapsed, record.decisions,
                record.diagnostics) == (want.outcome, want.elapsed,
                                        want.decisions, want.diagnostics)


def test_used_config_dies_without_the_cyclic_collector():
    config = _fresh("warehouse_abc.yaml")
    for policy in POLICIES:
        run_episode(config, policy, seed=0)
    tree = _tree(config)
    assert tree is not None
    ref = weakref.ref(config)
    gc.disable()
    try:
        del config
        assert ref() is None
    finally:
        gc.enable()
    # The tree outlives the config, for the next config of its world.
    assert _tree(_fresh("warehouse_abc.yaml")) == tree


def test_memo_is_no_part_of_the_config(monkeypatch):
    restores = _count_restores(monkeypatch)
    config = _fresh("warehouse_abc.yaml")
    pickled, text = pickle.dumps(config), repr(config)
    for policy in POLICIES:
        _line(config, policy, 0)
    assert restores and _tree(config) is not None
    assert pickle.dumps(config) == pickled and repr(config) == text
    assert config == _fresh("warehouse_abc.yaml")
    # A pickled or derived config of the same world finds the same tree.
    tree = _tree(config)
    assert _tree(pickle.loads(pickled)) == tree
    assert _tree(replace(config, estimated_sr=0.5)) == tree


def _record(o) -> tuple:
    """An obstacle record as plain values, its arrays as bytes."""
    belief = None if o.belief is None else (o.belief.mean.tobytes(),
                                             o.belief.cov.tobytes())
    return o.spec, o.x, o.y, o.placed, belief, o.ellipse, o.loads


def _state(ep) -> dict:
    """Everything an episode holds, as plain values; obstacle records by
    identity and by value, since records are replaced and never changed."""
    state = {}
    for name, value in vars(ep).items():
        if name in ("at", "model"):
            continue
        if name == "rng":
            value = value.bit_generator.state
        elif name == "grid":
            value = value is ep.cfg.load_grid()
        elif name == "explored":
            value = value.tobytes()
        elif name == "obstacles":
            value = [(label, id(o), _record(o)) for label, o in value.items()]
        elif isinstance(value, (dict, list)):
            value = repr(value)
        state[name] = value
    return state


def test_node_restores_the_state_it_was_reached_in(monkeypatch):
    # Each node is checked when made and again after all episodes ran, so a
    # state the episode went on to change after the node shared it shows.
    made = []
    real = simulator._Node.__init__

    def restored(node, cfg, seed):
        twin = simulator._Episode(cfg, seed)
        node.restore(twin)
        return twin

    def spy(node, ep, events, decision):
        real(node, ep, events, decision)
        made.append((node, ep.cfg, ep.seed, _state(ep)))
        assert _state(restored(*made[-1][:3])) == made[-1][3]

    monkeypatch.setattr(simulator._Node, "__init__", spy)
    for name in SCENARIOS:
        config = _fresh(name)
        for seed in SEEDS:
            for policy in POLICIES:
                run_episode(config, policy, seed=seed)
    placed = loaded = 0
    for node, cfg, seed, state in made:
        twin = restored(node, cfg, seed)
        assert _state(twin) == state
        # The node's saved records are the very objects it was made with,
        # and the episode holds a copy of the node's dict, not the dict.
        assert twin.obstacles is not node.obstacles
        placed += any(o.placed for o in twin.obstacles.values())
        loaded += any(o.loads != (0, 0) for o in twin.obstacles.values())
    assert len(made) > 50 and placed > 5 and loaded > 5
