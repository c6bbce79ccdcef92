"""In-memory span recorder that wraps namoplan functions from outside.

Each wrapped call records a span: id, parent id, name, start, end, an
optional outcome flag and, for episodes, a key naming the episode. Spans stay in memory; `aggregate` turns them into
per-name call counts, self times and flag counts when the run ends.

The package binds many functions by name (`from .planner import plan_path`),
so patching only the defining module would miss those calls. `install`
therefore replaces the function on every loaded `namoplan` module that holds
it, and on the class for static methods and methods.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: str
    parent: str | None
    name: str
    start: float
    end: float
    flag: bool | None = None
    key: str | None = None


def _none_result(result) -> bool:
    return result is None


def _episode_key(config, policy, seed=None, model=None) -> str:
    name = policy if isinstance(policy, str) else policy.name
    return f"{config.scenario_id}|{name}|{config.seed if seed is None else seed}"


# Span name -> function of the call's arguments naming what the call worked
# on, so that the same episode can be matched across runs.
KEYS = {"simulator.run_episode": _episode_key}


# (span name, module, attribute, class attribute or None, outcome flag).
# The flag function maps a call's result to True/False; a call that raises
# counts as True. `plan_path` flags an unreachable goal and
# `estimate_removal_time` a missing stock cell.
TARGETS = [
    ("planner.plan_path", "namoplan.planner", "plan_path", None, _none_result),
    ("planner.blocked_mask", "namoplan.planner", "blocked_mask", None, None),
    ("gridmap.mark_explored", "namoplan.gridmap", "mark_explored", None, None),
    ("gridmap.inflated_blocked_mask", "namoplan.gridmap",
     "inflated_blocked_mask", None, None),
    ("gridmap.raycast_width", "namoplan.gridmap", "raycast_width", None, None),
    ("gridmap.raycast_distance", "namoplan.gridmap", "raycast_distance", None,
     None),
    ("gridmap.load", "namoplan.gridmap", "OccupancyGrid", "load", None),
    ("gridmap.to_text", "namoplan.gridmap", "OccupancyGrid", "to_text", None),
    ("observation.path_blocked", "namoplan.observation", "path_blocked", None,
     None),
    ("observation.fuse", "namoplan.observation", "fuse", None, None),
    ("observation.confidence_ellipse", "namoplan.observation",
     "confidence_ellipse", None, None),
    ("blockage.trajectory_blockage", "namoplan.blockage", "trajectory_blockage",
     None, None),
    ("blockage.blockage_at_width", "namoplan.blockage", "blockage_at_width",
     None, None),
    ("removal.estimate_removal_time", "namoplan.removal",
     "estimate_removal_time", None, _none_result),
    ("removal.removal_cost_interval", "namoplan.removal",
     "removal_cost_interval", None, None),
    ("bypass.fit", "namoplan.bypass", "fit", None, None),
    ("bypass.predict_interval", "namoplan.bypass", "predict_interval", None,
     None),
    ("simulator.generate_timing_dataset", "namoplan.simulator",
     "generate_timing_dataset", None, None),
    ("simulator.bypass_model_for", "namoplan.simulator", "bypass_model_for",
     None, None),
    ("simulator.run_episode", "namoplan.simulator", "run_episode", None, None),
    ("simulator.ScenarioConfig.from_yaml", "namoplan.simulator",
     "ScenarioConfig", "from_yaml", None),
    ("experiments.run_benchmark", "namoplan.experiments", "run_benchmark", None,
     None),
]

EPISODE_ONLY = [t for t in TARGETS if t[0] == "simulator.run_episode"]

# Calls made many times in every episode and model fit, ahead of which the
# untraced run samples the host's speed (calibrate.Calibrator.tick).
TICKS = [t for t in TARGETS if t[0] in (
    "planner.plan_path", "gridmap.mark_explored",
    "blockage.trajectory_blockage", "removal.estimate_removal_time")]
EPISODE_AND_TICKS = EPISODE_ONLY + TICKS


class Recorder:
    """Collects spans of the wrapped calls in this process.

    `clock` times the spans; `before`, if given, is called ahead of every
    wrapped call, outside its span."""

    def __init__(self, clock=time.perf_counter, before=None):
        self.clock = clock
        self.before = before
        self.spans: list[Span] = []
        self._stack: list[str] = []
        self._count = 0
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, flag_of=None):
        key_of = KEYS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = key_of(*args, **kwargs) if key_of is not None else None
            if self.before is not None:
                self.before()
            self._count += 1
            sid = str(self._count)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            flag = True
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                if flag_of is not None:
                    flag = flag_of(result)
                return result
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append(Span(sid, parent, name, start, end,
                                       flag if flag_of is not None else None,
                                       key))
        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap each target wherever a loaded namoplan module binds it."""
        for name, module, attr, member, flag_of in targets:
            owner = getattr(importlib.import_module(module), attr)
            if member is not None:
                raw = owner.__dict__[member]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self.wrap(name, fn, flag_of)
                self._set(owner, member,
                          staticmethod(wrapped) if isinstance(raw, staticmethod)
                          else wrapped)
                continue
            wrapped = self.wrap(name, owner, flag_of)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "namoplan" or mod_name.startswith("namoplan.")) \
                        and getattr(mod, attr, None) is owner:
                    self._set(mod, attr, wrapped)

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id -> duration minus the durations of its child spans.

    Spans come from one thread, so children never overlap one another."""
    own = {s.sid: s.end - s.start for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, summed self seconds, count of flagged calls and
    count of calls with a child span of each name."""
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    out: dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "flagged": 0,
                                      "with_child": {}})
        agg["calls"] += 1
        agg["self_s"] += own[s.sid]
        agg["flagged"] += bool(s.flag)
    seen: set[tuple[str, str]] = set()
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is not None and (parent.sid, s.name) not in seen:
            seen.add((parent.sid, s.name))
            wc = out[parent.name]["with_child"]
            wc[s.name] = wc.get(s.name, 0) + 1
    return out


def self_within(spans: list[Span], root_name: str) -> float:
    """Summed self time of the spans named `root_name` and their descendants."""
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    inside: dict[str, bool] = {}

    def is_inside(s: Span) -> bool:
        if s.sid not in inside:
            parent = by_id.get(s.parent) if s.parent is not None else None
            inside[s.sid] = s.name == root_name or (
                parent is not None and is_inside(parent))
        return inside[s.sid]

    return sum(own[s.sid] for s in spans if is_inside(s))
