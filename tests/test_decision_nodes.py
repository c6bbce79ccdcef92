"""Shared decision nodes: episodes of one config resume from the states
earlier episodes reached with the same choices, and give the records a
fresh config gives."""

import gc
import pickle
import weakref

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


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_shared_config_gives_fresh_records(fresh_records, order, monkeypatch):
    # In reverse, random-choice runs first, so the rules that never draw
    # walk nodes it reached after drawing.
    policies = list(POLICIES)[::1 if order == "forward" else -1]
    assert len(SCENARIOS) == 7 and len(policies) == 6
    restores = _count_restores(monkeypatch)
    for name in SCENARIOS:
        config = _fresh(name)
        for policy in policies:
            for seed in SEEDS:
                assert _line(config, policy, seed) == \
                    fresh_records[name, policy, seed], (name, policy, seed)
    assert len(restores) > 100


def _warehouse_case(config):
    return _line(config, "uncertainty", 1), _line(config, "uncertainty-no-action", 1)


def test_changed_success_rates_give_fresh_records():
    config = _fresh("warehouse_abc.yaml")
    before = _warehouse_case(config)
    config.estimated_sr = 0.2
    want = _fresh("warehouse_abc.yaml")
    want.estimated_sr = 0.2
    assert _warehouse_case(config) == _warehouse_case(want) != before
    config.obstacles[0].true_sr = want.obstacles[0].true_sr = 0.2
    assert _warehouse_case(config) == _warehouse_case(want) != before


def test_choice_that_raises_stores_no_node():
    calls = []

    def flaky(ep, *args):
        calls.append(1)
        if len(calls) == 1:
            ep.rng.random()  # a draw, then a failure
            raise RuntimeError("choice failed")
        return POLICIES["priority-removal"].choose(ep, *args)

    config = _fresh("warehouse_abc.yaml")
    with pytest.raises(RuntimeError, match="choice failed"):
        run_episode(config, Policy("flaky", flaky), seed=0)
    assert len(config._decision_nodes()) == 0
    record = run_episode(config, Policy("flaky", flaky), seed=0)
    assert len(config._decision_nodes()) > 0
    want = run_episode(_fresh("warehouse_abc.yaml"), "priority-removal", seed=0)
    assert (record.outcome, record.elapsed, record.decisions,
            record.diagnostics) == (want.outcome, want.elapsed, want.decisions,
                                    want.diagnostics)


def test_used_config_dies_without_the_cyclic_collector():
    config = _fresh("warehouse_abc.yaml")
    for policy in POLICIES:
        run_episode(config, policy, seed=0)
    assert len(config._decision_nodes()) > 0
    ref = weakref.ref(config)
    gc.disable()
    try:
        del config
        assert ref() is None
    finally:
        gc.enable()


def test_memo_is_no_part_of_the_config(monkeypatch):
    monkeypatch.setattr(simulator, "_NODES_PER_CONFIG", 3)
    restores = _count_restores(monkeypatch)
    config = _fresh("warehouse_abc.yaml")
    pickled, text = pickle.dumps(config), repr(config)
    first_id = next(simulator._NODE_IDS)
    lines = {(p, s): _line(config, p, s) for s in (0, 1) for p in POLICIES}
    assert next(simulator._NODE_IDS) - first_id > 10 and restores
    assert 0 < len(config._decision_nodes()) <= 3
    assert pickle.dumps(config) == pickled and repr(config) == text
    assert config == _fresh("warehouse_abc.yaml")
    assert "_nodes" not in pickle.loads(pickled).__dict__
    # Evicted parents leave orphans behind; the records stay exact.
    fresh = {(p, s): _line(_fresh("warehouse_abc.yaml"), p, s)
             for p in POLICIES for s in (0, 1)}
    assert lines == fresh


def test_large_maps_keep_fewer_nodes(fresh_records, monkeypatch):
    config = _fresh("warehouse_abc.yaml")
    packed = -(-config.load_grid().cells.size // 8)
    monkeypatch.setattr(simulator, "_NODE_MASK_BYTES", 2 * packed + 1)
    for policy in POLICIES:
        assert _line(config, policy, 0) == \
            fresh_records["warehouse_abc.yaml", policy, 0]
        assert len(config._decision_nodes()) <= 2


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

    def restored(node, cfg, policy, seed):
        twin = simulator._Episode(cfg, policy, seed)
        node.restore(twin)
        return twin

    def spy(node, ep, events, decision):
        real(node, ep, events, decision)
        made.append((node, ep.cfg, ep.policy, ep.seed, _state(ep),
                     dict(ep._blockage), int(ep.grid.explored.sum())))
        assert _state(restored(*made[-1][:4])) == made[-1][4]

    monkeypatch.setattr(simulator._Node, "__init__", spy)
    for name in SCENARIOS:
        config = _fresh(name)
        for policy in POLICIES:
            for seed in SEEDS:
                run_episode(config, policy, seed=seed)
    placed = 0
    for node, cfg, policy, seed, state, blockage, explored in made:
        twin = restored(node, cfg, policy, seed)
        assert _state(twin) == state
        placed += any(mo.placed for mo in twin.mos.values())
        # The node's blockage memo keeps what it had, and gains only what
        # choices at this state computed: no entry of a later state.
        assert twin._blockage.items() >= blockage.items()
        assert all(count <= explored for _, count in twin._blockage)
    assert len(made) > 50 and placed > 5
