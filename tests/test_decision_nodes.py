"""Shared decision nodes: episodes of one config and seed resume from the
states earlier episodes reached with the same choices, and give the
records a fresh config gives."""

import gc
import pickle
import weakref
from dataclasses import replace

import pytest

from namoplan import scenario_path, simulator
from namoplan.simulator import POLICIES, Policy, ScenarioConfig, run_episode

SCENARIOS = sorted(p.name for p in scenario_path("room.yaml").parent.glob("*.yaml"))
SEEDS = (0, 1, 2)


def _fresh(name: str) -> ScenarioConfig:
    return ScenarioConfig.from_yaml(scenario_path(name))


def _line(config, policy, seed) -> str:
    return run_episode(config, policy, seed=seed).to_json_line()


@pytest.fixture(scope="module")
def fresh_records():
    """Every bundled scenario x policy x seed, each on a config of its own."""
    return {(name, policy, seed): _line(_fresh(name), policy, seed)
            for name in SCENARIOS for policy in POLICIES for seed in SEEDS}


def _count_restores(monkeypatch) -> list:
    restores, real = [], simulator._Node.restore
    monkeypatch.setattr(simulator._Node, "restore",
                        lambda node, ep: restores.append(1) or real(node, ep))
    return restores


def _tree(config):
    """The config's (seed, root step) of decision nodes, or None."""
    return config.__dict__.get("_tree")


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


def test_config_keeps_the_tree_of_its_last_seed():
    config = _fresh("warehouse_abc.yaml")
    _line(config, "uncertainty", 0)
    seed, root = _tree(config)
    assert seed == 0 and len(root.children) == 1
    # The two interval rules split at the first decision.
    _line(config, "uncertainty-no-action", 0)
    assert _tree(config)[1] is root and len(root.children) == 2
    _line(config, "uncertainty", 1)
    assert _tree(config)[0] == 1 and _tree(config)[1] is not root


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
    for rates in ((0.2, 0.9), (0.2, 0.2)):
        derived = _with_success_rates(config, *rates)
        assert _tree(derived) is None
        want = _with_success_rates(_fresh("warehouse_abc.yaml"), *rates)
        assert _warehouse_case(derived) == _warehouse_case(want) != before


def test_choice_that_raises_stores_no_node():
    def flaky():
        calls = []

        def choose(ep, *args):
            calls.append(1)
            if len(calls) == 1:
                ep.rng.random()  # a draw, then a failure
                raise RuntimeError("choice failed")
            return POLICIES["priority-removal"].choose(ep, *args)

        return Policy("flaky", choose)

    config = _fresh("warehouse_abc.yaml")
    want = run_episode(_fresh("warehouse_abc.yaml"), "priority-removal", seed=0)
    # The first failure is at a node the failing episode made, the second
    # at a node the episode before it stored.
    for stored in (False, True):
        assert (_tree(config) is not None) == stored
        policy = flaky()
        with pytest.raises(RuntimeError, match="choice failed"):
            run_episode(config, policy, seed=0)
        assert _tree(config) is None
        record = run_episode(config, policy, seed=0)
        assert _tree(config) is not None
        assert (record.outcome, record.elapsed, record.decisions,
                record.diagnostics) == (want.outcome, want.elapsed,
                                        want.decisions, want.diagnostics)


def test_used_config_dies_without_the_cyclic_collector():
    config = _fresh("warehouse_abc.yaml")
    for policy in POLICIES:
        run_episode(config, policy, seed=0)
    assert _tree(config) is not None
    ref = weakref.ref(config)
    gc.disable()
    try:
        del config
        assert ref() is None
    finally:
        gc.enable()


def test_memo_is_no_part_of_the_config(monkeypatch):
    restores = _count_restores(monkeypatch)
    config = _fresh("warehouse_abc.yaml")
    pickled, text = pickle.dumps(config), repr(config)
    for policy in POLICIES:
        _line(config, policy, 0)
    assert restores and _tree(config) is not None
    assert pickle.dumps(config) == pickled and repr(config) == text
    assert config == _fresh("warehouse_abc.yaml")
    assert _tree(pickle.loads(pickled)) is None
    assert _tree(replace(config)) is None


def _state(ep) -> dict:
    """Everything an episode holds, as plain values; beliefs by identity,
    since beliefs are replaced and never changed."""
    state = {}
    for name, value in vars(ep).items():
        if name in ("at", "model", "_blockage"):
            continue
        if name == "rng":
            value = value.bit_generator.state
        elif name == "grid":
            value = (value.explored.tobytes(), value.cells is ep.cfg.load_grid().cells)
        elif name == "mos":
            value = [(label, mo.spec, mo.x, mo.y, mo.placed)
                     for label, mo in value.items()]
        elif name == "beliefs":
            value = [(label, id(b)) for label, b in value.items()]
        elif name == "_ellipses":
            value = [(label, id(b), e) for label, (b, e) in value.items()]
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
        made.append((node, ep.cfg, ep.seed, _state(ep),
                     dict(ep._blockage), int(ep.grid.explored.sum())))
        assert _state(restored(*made[-1][:3])) == made[-1][3]

    monkeypatch.setattr(simulator._Node, "__init__", spy)
    for name in SCENARIOS:
        config = _fresh(name)
        for seed in SEEDS:
            for policy in POLICIES:
                run_episode(config, policy, seed=seed)
    placed = 0
    for node, cfg, seed, state, blockage, explored in made:
        twin = restored(node, cfg, seed)
        assert _state(twin) == state
        placed += any(mo.placed for mo in twin.mos.values())
        # The node's blockage memo keeps what it had, and gains only what
        # choices at this state computed: no entry of a later state.
        assert twin._blockage.items() >= blockage.items()
        assert all(count <= explored for _, count in twin._blockage)
    assert len(made) > 50 and placed > 5
