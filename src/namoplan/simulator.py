"""Seeded 2D grid-world episodes: perceive, decide, act.

The world advances in simulated seconds through an event-driven loop: follow
the planned path, sense and fuse movable-obstacle observations, and on
blockage pick a strategy (remove or bypass) from the configured policy.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import cache, cached_property, partial
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from . import blockage as blk
from . import bypass as byp
from . import removal as rem
from .decision import decide
from .gridmap import (Memo, OccupancyGrid, _memoized, free_area, mark_explored,
                      raycast_distance)
from .intervals import CostInterval
from .observation import (PoseBelief, RangeBearingMeasurement, RobotPoseBelief,
                          confidence_ellipse, fuse, path_blocked,
                          project_measurement, turn_angles, wrap_angle)
from .planner import (Ellipse, Trajectory, _astar_on_mask, blocked_mask,
                      plan_path)


class ScenarioError(ValueError):
    """Invalid scenario configuration."""


# ----------------------------------------------------------------------
# configuration
#
# The dataclasses hold the defaults; `scenario_config.schema.json` decides
# which keys, types and ranges load.


@dataclass(frozen=True)
class RobotConfig:
    radius: float = 0.3
    start: tuple[float, float] = (1.0, 1.0)
    start_heading: float = 0.0
    v_lin: float = 0.5
    v_rot: float = 1.0
    sensor_range: float = 5.0
    sensor_fov: float = math.pi / 2.0


@dataclass(frozen=True)
class ObstacleSpec:
    label: str
    position: tuple[float, float]
    radius: float
    true_sr: float


@dataclass(frozen=True)
class PopulationConfig:
    mu: float = 0.6
    sigma: float = 0.1
    k: float = 0.5


@dataclass(frozen=True)
class RemovalConfig:
    max_attempts: int = 3
    load_overhead: float = 5.0
    unload_overhead: float = 5.0
    search_radius: float = 3.0
    default_t_mo: float = 30.0  # proxy when no estimate is available


@dataclass(frozen=True)
class NoiseConfig:
    robot_cov_diag: tuple[float, float, float] = (0.01, 0.01, 0.004)
    meas_cov_diag: tuple[float, float] = (0.01, 0.001)


@dataclass(frozen=True)
class BypassModelConfig:
    dataset_seed: int = 7
    n_rows: int = 1500
    noise_sigma: float = 0.05


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: str
    map_path: str
    robot: RobotConfig
    goal: tuple[float, float]
    obstacles: tuple[ObstacleSpec, ...]
    population: PopulationConfig = field(default_factory=PopulationConfig)
    removal: RemovalConfig = field(default_factory=RemovalConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    bypass_model: BypassModelConfig = field(default_factory=BypassModelConfig)
    estimated_sr: float = 0.9
    sr_shared: bool = True
    calibration_trials: int = 10
    confidence: float = 0.95
    timeout: float = 300.0
    seed: int = 0
    sense_interval: float = 1.0

    def __post_init__(self):
        """Every construction, from YAML, in code or by `replace`, is checked."""
        plain = asdict(self)
        plain["map"] = plain.pop("map_path")
        _check(plain, _config_schema(), "", tuple)
        # An episode keys its obstacles by label.
        labels = [spec.label for spec in self.obstacles]
        for label in labels:
            if labels.count(label) > 1:
                raise ScenarioError(f"obstacle label {label!r} is repeated")
        grid = self.load_grid()  # a bad map or a misplaced position fails here
        # The world an episode simulates: the map's contents and every field
        # the walk between choices reads (`repr` tells -0.0 from 0.0).
        # `run_episode` shares decision trees between configs with equal
        # keys. Kept in the instance dict, not in a field, so `==`, `hash`
        # and `repr` ignore it; set here, so a pickle never changes.
        object.__setattr__(self, "_world", (grid.key, repr(tuple(
            getattr(self, name) for name in WORLD_FIELDS))))

    def load_grid(self) -> OccupancyGrid:
        """The map, read and checked against the obstacle, start and goal
        positions when the config is constructed."""
        return self._grid

    @cached_property
    def _grid(self) -> OccupancyGrid:
        try:
            grid = OccupancyGrid.load(self.map_path)
        except OSError as exc:
            raise ScenarioError(f"cannot read map {self.map_path}: "
                                f"{exc.strerror or exc}") from exc
        for spec in self.obstacles:
            x, y = spec.position
            if not grid.is_free(x, y):
                raise ScenarioError(f"obstacle {spec.label} not in a free cell")
        if not grid.is_free(*self.robot.start):
            raise ScenarioError("robot start not in a free cell")
        if not grid.is_free(*self.goal):
            raise ScenarioError("goal not in a free cell")
        # `plan_to` finds no route within one cell, so such an episode
        # could only end in no_strategy.
        if grid.cell_index(*self.robot.start) == grid.cell_index(*self.goal):
            raise ScenarioError("goal in the robot's start cell")
        return grid

    @staticmethod
    def from_yaml(path: str | Path) -> "ScenarioConfig":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ScenarioError(f"cannot read config {path}: "
                                f"{exc.strerror or exc}") from exc
        try:
            raw = yaml.load(text, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"malformed config: {exc}") from exc
        _check(raw, _config_schema(), "")
        sections = {key: cls(**_tuples(raw.pop(key, {})))
                    for key, cls in _SECTIONS.items()}
        obstacles = tuple(ObstacleSpec(**_tuples(o))
                          for o in raw.pop("obstacles", []))
        # The YAML names the map file `map`; the config holds its resolved path.
        map_path = str((path.parent / raw.pop("map")).resolve())
        return ScenarioConfig(**{"scenario_id": path.stem, **_tuples(raw)},
                              **sections, obstacles=obstacles, map_path=map_path)


# The fields the simulated world reads: motion, sensing, the obstacles and
# their true success rates, stock search, load draws and the clock. The
# others are read only by the rules (`scenario_id` only by the record); the
# map enters the world key as `grid.key`, and the episode seed separately.
WORLD_FIELDS = ("robot", "goal", "obstacles", "population", "removal", "noise",
                "confidence", "timeout", "sense_interval")

# libyaml's parser under the pure-Python safe constructor and resolver:
# the same documents and `YAMLError`s, about 6x faster per bundled file.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_SECTIONS = {"robot": RobotConfig, "population": PopulationConfig,
             "removal": RemovalConfig, "noise": NoiseConfig,
             "bypass_model": BypassModelConfig}


def _tuples(raw: dict) -> dict:
    """`raw` with its lists as tuples, the form the dataclasses hold."""
    return {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}


@cache
def _config_schema() -> dict:
    return json.loads((Path(__file__).parent / "schemas"
                       / "scenario_config.schema.json").read_text())


_TYPES = {"object": (dict, "a mapping"), "string": (str, "a string"),
          "boolean": (bool, "a boolean"), "integer": (int, "an integer"),
          "number": ((int, float), "a number")}
_BOUNDS = (("minimum", operator.ge, ">="), ("exclusiveMinimum", operator.gt, ">"),
           ("maximum", operator.le, "<="), ("exclusiveMaximum", operator.lt, "<"))


def _check(value, schema: dict, where: str, arrays: type = list) -> None:
    """ScenarioError naming the dotted path `where` unless `value` meets
    `schema`. Only the keywords the bundled schema uses are read. An array
    must be of type `arrays`: a list in YAML, a tuple in a config. Two
    rules are stricter than JSON Schema: a number must be finite, and an
    integer must be a Python int (2.0 is not one); a bool is neither."""
    name = where or "config"
    kind = schema["type"]
    if kind == "array":
        lo, hi = schema.get("minItems", 0), schema.get("maxItems", math.inf)
        if not isinstance(value, arrays) or not lo <= len(value) <= hi:
            size = f" of {lo} items" if lo == hi else ""
            raise ScenarioError(f"{name} must be a {arrays.__name__}{size}")
        for i, item in enumerate(value):
            _check(item, schema["items"], f"{where}[{i}]", arrays)
        return
    types, noun = _TYPES[kind]
    if not isinstance(value, types) or (isinstance(value, bool)
                                        and kind != "boolean"):
        raise ScenarioError(f"{name} must be {noun}")
    if kind == "object":
        props = schema.get("properties", {})
        unknown = sorted(str(k) for k in value if k not in props)
        if unknown and schema.get("additionalProperties") is False:
            raise ScenarioError(f"unknown key(s) in {name}: {', '.join(unknown)}")
        missing = [k for k in schema.get("required", ()) if k not in value]
        if missing:
            raise ScenarioError(f"missing key(s) in {name}: {', '.join(missing)}")
        for key, sub in props.items():
            if key in value:
                _check(value[key], sub, f"{where}.{key}" if where else key,
                       arrays)
        return
    if isinstance(value, float) and not math.isfinite(value):
        raise ScenarioError(f"{name} must be finite")
    for key, holds, op in _BOUNDS:
        if key in schema and not holds(value, schema[key]):
            raise ScenarioError(f"{name} must be {op} {schema[key]}")


# ----------------------------------------------------------------------
# policies


def _feasible(detour, est, route) -> bool:
    """Some strategy has a route: the detour, or a stock cell together with
    the route past the removed obstacle."""
    return detour is not None or (est is not None and route is not None)


def _compare_intervals(ep: _Episode, blocker: str, detour, est, route, *,
                       action_uncertainty: bool = True,
                       blockage_uncertainty: bool = True) -> tuple[str, dict]:
    """NAMOUnc: the strategy whose cost interval has the smaller midpoint.

    The switches ablate the Beta success-rate interval (a point T_MO
    instead) and the blockage risk of the routes (zero instead).
    """
    nav_by = ep.nav_interval(detour)
    c_by = ep.cfg.timeout if nav_by.is_infinite else nav_by.midpoint()
    # One removal cycle's cost, from the latest t_mo (the stock estimate's
    # when there is one): the removal term and the blockage proxy alike.
    if action_uncertainty:
        c_mo = rem.removal_cost_interval(ep.beta_for(blocker),
                                         ep.cfg.removal.max_attempts, ep.t_mo,
                                         c_by, ep.cfg.confidence)
    else:
        c_mo = CostInterval.point(ep.t_mo)

    def blocked(traj: Trajectory | None) -> CostInterval:
        if traj is None or not blockage_uncertainty:
            return CostInterval(0.0, 0.0)
        return ep.blockage_interval(traj, c_mo)

    c_removal = (CostInterval.infinite() if est is None
                 else c_mo + ep.nav_interval(route) + blocked(route))
    details = decide(nav_by + blocked(detour), c_removal)
    if details is None:
        return "none", {}
    return details["choice"], details


def _priority_bypass(ep, blocker, detour, est, route) -> tuple[str, dict]:
    """Always bypass; with no detour, wait for the way to clear until the
    timeout."""
    return ("bypass" if detour is not None else "wait"), {}


def _priority_removal(ep, blocker, detour, est, route) -> tuple[str, dict]:
    """Remove whenever a stock cell exists, else bypass."""
    if not _feasible(detour, est, route):
        return "none", {}
    return ("remove" if est is not None else "bypass"), {}


def _random_choice(ep, blocker, detour, est, route) -> tuple[str, dict]:
    """A fair coin, tossed only when some strategy is feasible. Removal
    needs a stock cell and bypass a detour; a strategy that lacks its own
    gives way to the other."""
    if not _feasible(detour, est, route):
        return "none", {}
    heads = ep.rng.random() < 0.5
    if detour is None or (heads and est is not None):
        return "remove", {}
    return "bypass", {}


@dataclass(frozen=True)
class Policy:
    """A named choice rule. At a blockage, `choose(episode, blocker, detour,
    est, route)` sees the detour to the goal, the stock-search estimate and
    the route after removal (planned only when the estimate exists; None
    when absent) and returns the action ("bypass", "remove", "wait" or
    "none") with the details its decision trace entry records.

    A rule reads the episode (its obstacle records among the rest) and may
    draw from `episode.rng`, and changes nothing else: it may fill pure
    memos (the episode's `model` and the process-wide memos behind
    `blockage_interval` and `model`), which change no answer. Only a rule
    may read the config's decision-only fields (those not in
    `WORLD_FIELDS`: `estimated_sr`, `calibration_trials` and `sr_shared`
    through `beta_for`, `bypass_model` through `model`); the world the
    episode walks between choices must not. `run_episode` relies on this to
    resume one policy, of any config of the same world, from the state
    another reached with the same choices."""

    name: str
    choose: Callable[..., tuple[str, dict]]


POLICIES: dict[str, Policy] = {p.name: p for p in (
    Policy("uncertainty", _compare_intervals),
    Policy("uncertainty-no-action",
           partial(_compare_intervals, action_uncertainty=False)),
    Policy("uncertainty-no-blockage",
           partial(_compare_intervals, blockage_uncertainty=False)),
    Policy("priority-bypass", _priority_bypass),
    Policy("priority-removal", _priority_removal),
    Policy("random-choice", _random_choice),
)}


def get_policy(name: str) -> Policy:
    try:
        return POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; known: {sorted(POLICIES)}")


# ----------------------------------------------------------------------
# bypass-model training data


# Planned paths whose sub-segments make up a timing dataset.
_N_BASE_PATHS = 40


def generate_timing_dataset(grid: OccupancyGrid, robot_radius: float,
                            v_lin: float, v_rot: float, n_rows: int,
                            seed: int, noise_sigma: float) -> byp.TimingDataset:
    """Random sub-segments of `_N_BASE_PATHS` planned paths, timed by the
    motion model with multiplicative noise."""
    rng = np.random.default_rng(seed)
    mask = blocked_mask(grid, robot_radius)
    free_iy, free_ix = np.nonzero(~mask)
    if len(free_iy) < 2:
        raise ScenarioError("map has no plannable free space")

    # Searched on `mask` directly: the two cells drawn are distinct free
    # cells of it, and these paths only feed the dataset, so they stay out
    # of the plan cache.
    paths: list[Trajectory] = []
    guard = 0
    while len(paths) < _N_BASE_PATHS and guard < _N_BASE_PATHS * 10:
        guard += 1
        i, j = rng.integers(0, len(free_iy), size=2)
        if i == j:
            continue
        traj = _astar_on_mask(grid, mask, (int(free_iy[i]), int(free_ix[i])),
                              (int(free_iy[j]), int(free_ix[j])))
        if traj is not None and traj.total_length >= 2.0:
            paths.append(traj)
    if not paths:
        raise ScenarioError("could not generate any training paths")

    # Each path's step lengths and turns, once. A row reads views of them
    # and gets bit for bit what a trajectory of waypoints a..b would: the
    # norms are those of `planner._total_length`, and its headings are the
    # path's over [a, b) with the last one repeated, so its turns are the
    # path's over [a, b - 1) and a 0.0. The 0.0 stays: `np.mean` and
    # `np.var` divide by the count, and pairwise summation splits by the
    # length.
    steps = [np.linalg.norm(np.diff(p.positions, axis=0), axis=1) for p in paths]
    turns = [turn_angles(p.headings) for p in paths]
    feats, durs = [], []
    while len(durs) < n_rows:
        k = int(rng.integers(0, len(paths)))
        a, b = sorted(rng.integers(0, len(paths[k]), size=2))
        if b - a < 2:
            continue
        length = float(np.sum(steps[k][a:b]))
        if length < 1.0:
            continue
        deltas = np.append(turns[k][a:b - 1], 0.0)
        # The motion model: length at v_lin plus the turns, added left to
        # right, at v_rot.
        t_true = (length / v_lin
                  + float(np.add.accumulate(deltas)[-1]) / v_rot)
        t_obs = t_true * max(1.0 + noise_sigma * rng.standard_normal(), 0.1)
        feats.append([length, float(np.mean(deltas)), float(np.var(deltas))])
        durs.append(t_obs)
    return byp.TimingDataset(np.array(feats), np.array(durs))


# Fitted models, keyed on `grid.key` and the fit's other inputs.
_MODEL_CACHE = Memo(8)


def bypass_model_for(grid: OccupancyGrid, robot: RobotConfig,
                     cfg: BypassModelConfig) -> byp.GlrModel:
    """The bypass-time model of the map."""
    return _memoized(_MODEL_CACHE, _fit_model, grid, robot.radius, robot.v_lin,
                     robot.v_rot, cfg.n_rows, cfg.dataset_seed,
                     cfg.noise_sigma)


def _fit_model(grid: OccupancyGrid, *args) -> byp.GlrModel:
    """A model fitted on `generate_timing_dataset(grid, *args)`."""
    return byp.fit(generate_timing_dataset(grid, *args))


# ----------------------------------------------------------------------
# trial record


@dataclass
class TrialRecord:
    scenario_id: str
    seed: int
    policy: str
    outcome: str  # "success" | "timeout" | "no_strategy"
    elapsed: float
    decisions: list[dict] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def to_json_line(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


# ----------------------------------------------------------------------
# episode


class _Obstacle(NamedTuple):
    """One obstacle of an episode: where it truly is, the belief about where
    it is with that belief's confidence ellipse (None until first sensed),
    and its loads so far, (successes, failures). Replaced, never mutated."""

    spec: ObstacleSpec
    x: float
    y: float
    placed: bool = False
    belief: PoseBelief | None = None
    ellipse: Ellipse | None = None
    loads: tuple[int, int] = (0, 0)


class _Episode:
    def __init__(self, config: ScenarioConfig, seed: int):
        self.cfg = config
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.grid = config.load_grid()
        # The cells this episode has sensed so far.
        self.explored = np.zeros_like(self.grid.cells, dtype=bool)
        # Each obstacle's record, in label order.
        self.obstacles = {o.label: _Obstacle(o, *o.position) for o in
                          sorted(config.obstacles, key=lambda o: o.label)}
        self.x, self.y = config.robot.start
        self.heading = config.robot.start_heading
        self.t = 0.0
        # Trace entries made since the last choice.
        self.trace: list[dict] = []
        # Walks to a decision so far, bounded by the guard.
        self.steps = 0
        # The decision node whose state the episode is in, if any.
        self.at: _Node | None = None
        self.diag = {"n_senses": 0, "n_replans": 0, "n_attempts": 0,
                     "n_decisions": 0, "distance": 0.0}
        self.pop = blk.ObstaclePopulation(config.population.mu,
                                          config.population.sigma,
                                          config.population.k,
                                          free_area(self.grid))
        # Removal cycle time estimated at the latest decision; a failed
        # load costs one cycle.
        self.t_mo = 0.0

    # -- success-rate beliefs ------------------------------------------

    def beta_for(self, label: str) -> rem.BetaBelief:
        """The config's prior plus the loads counted so far: of `label`, or
        of every obstacle when the rate is shared. Priors and counts are
        whole numbers, so this is the belief that updating the prior load
        by load would give, bit for bit."""
        n = self.cfg.calibration_trials
        s = int(round(self.cfg.estimated_sr * n))
        prior = rem.BetaBelief.from_trials(s, n - s)
        records = (self.obstacles.values() if self.cfg.sr_shared
                   else [self.obstacles[label]])
        return rem.BetaBelief(prior.alpha + sum(o.loads[0] for o in records),
                              prior.beta + sum(o.loads[1] for o in records))

    def update_beta(self, label: str, success: bool) -> None:
        """Count a load; the belief it moves is the rules' to derive."""
        o = self.obstacles[label]
        s, f = o.loads
        self.obstacles[label] = o._replace(loads=(s + success, f + (not success)))

    # -- perception ----------------------------------------------------

    def set_belief(self, label: str, belief: PoseBelief, **truth) -> None:
        """Replace the obstacle's belief, and its ground-truth fields named
        in `truth`, together with the belief's confidence ellipse."""
        o = self.obstacles[label]
        self.obstacles[label] = o._replace(
            belief=belief, ellipse=confidence_ellipse(belief, o.spec.radius,
                                                      self.cfg.confidence),
            **truth)

    def ellipses(self, exclude: str | None = None) -> tuple[Ellipse, ...]:
        """The confidence ellipses of the known obstacles but `exclude`."""
        return tuple(o.ellipse for label, o in self.obstacles.items()
                     if o.belief is not None and label != exclude)

    def sense(self) -> None:
        self.diag["n_senses"] += 1
        mark_explored(self.grid, self.explored, self.x, self.y, self.heading,
                      self.cfg.robot.sensor_range, self.cfg.robot.sensor_fov)
        var_d, var_phi = self.cfg.noise.meas_cov_diag
        for label, mo in self.obstacles.items():
            dx, dy = mo.x - self.x, mo.y - self.y
            dist = math.hypot(dx, dy)
            if dist > self.cfg.robot.sensor_range or dist < 1e-6:
                continue
            bearing = wrap_angle(math.atan2(dy, dx) - self.heading)
            if abs(bearing) > self.cfg.robot.sensor_fov / 2.0:
                continue
            hit = raycast_distance(self.grid, self.x, self.y,
                                   math.atan2(dy, dx), max_range=dist)
            if hit < dist - self.grid.resolution:
                continue  # occluded by a static obstacle
            d_noisy = max(dist + math.sqrt(var_d) * self.rng.standard_normal(), 0.01)
            phi_noisy = bearing + math.sqrt(var_phi) * self.rng.standard_normal()
            meas = RangeBearingMeasurement(d_noisy, phi_noisy,
                                           np.diag([var_d, var_phi]))
            robot = RobotPoseBelief(np.array([self.x, self.y, self.heading]),
                                    np.diag(self.cfg.noise.robot_cov_diag))
            obs = project_measurement(robot, meas)
            self.set_belief(label, obs if mo.belief is None
                            else fuse(mo.belief, obs))

    # -- planning helpers ----------------------------------------------

    def plan_to(self, x: float, y: float,
                exclude: str | None = None) -> Trajectory | None:
        """Plan from the robot to (x, y); None when there is no path."""
        self.diag["n_replans"] += 1
        return plan_path(self.grid, (self.x, self.y), (x, y),
                         self.cfg.robot.radius, self.ellipses(exclude))

    @cached_property
    def model(self) -> byp.GlrModel:
        """The bypass-time model. Only the interval rules read it, so an
        episode of a baseline policy never fits one."""
        return bypass_model_for(self.grid, self.cfg.robot, self.cfg.bypass_model)

    def nav_interval(self, traj: Trajectory | None) -> CostInterval:
        if traj is None:
            return CostInterval.infinite()
        return byp.predict_interval(self.model, byp.extract_features(traj),
                                    self.cfg.confidence)

    def blockage_interval(self, traj: Trajectory,
                          proxy: CostInterval) -> CostInterval:
        """`proxy` scaled by the chance that an unseen obstacle blocks `traj`."""
        return proxy.scale(blk.trajectory_blockage(self.pop, traj, self.grid,
                                                   self.explored,
                                                   self.cfg.robot.radius))

    # -- movement ------------------------------------------------------

    def follow(self, traj: Trajectory,
               ignore: str | None = None) -> tuple[str, str | None]:
        """Walk the trajectory waypoint by waypoint.

        `ignore` names an obstacle that never counts as blocking (the target
        of a removal approach). Returns ("goal", None), ("blocked",
        obstacle_id) or ("timeout", None).

        A sense tests only the obstacles whose belief changed since they
        were last cleared on this trajectory: the waypoints left are a
        suffix of those cleared then, so an unchanged belief cannot block.
        """
        v_lin, v_rot = self.cfg.robot.v_lin, self.cfg.robot.v_rot
        cleared: dict[str, PoseBelief] = {}  # label -> belief found clear
        since_sense = math.inf  # force a sense right away
        steps = traj.step_lengths
        i = 0
        n = len(traj)
        while i < n - 1:
            if since_sense >= self.cfg.sense_interval:
                self.sense()
                since_sense = 0.0
                changed = [(label, o) for label, o in self.obstacles.items()
                           if o.belief is not None and label != ignore
                           and cleared.get(label) is not o.belief]
                blocker = path_blocked(
                    traj.positions[i:],
                    [(label, o.ellipse) for label, o in changed],
                    self.cfg.robot.radius)
                if blocker is not None:
                    return "blocked", blocker
                cleared.update((label, o.belief) for label, o in changed)
            p1 = traj.positions[i + 1]
            step = steps[i]
            new_heading = float(traj.headings[i])
            turn = abs(wrap_angle(new_heading - self.heading))
            self.t += step / v_lin + turn / v_rot
            self.diag["distance"] += step
            self.x, self.y = float(p1[0]), float(p1[1])
            self.heading = new_heading
            since_sense += step
            i += 1
            if self.t >= self.cfg.timeout:
                return "timeout", None
        return "goal", None

    # -- removal execution ---------------------------------------------

    def staging_point(self, label: str) -> tuple[float, float] | None:
        mo = self.obstacles[label]
        rsum = mo.spec.radius + self.cfg.robot.radius
        dx, dy = self.x - mo.x, self.y - mo.y
        dist = math.hypot(dx, dy)
        if dist < 1e-6:
            return None
        scale = (rsum + 0.05) / dist
        px, py = mo.x + dx * scale, mo.y + dy * scale
        if not self.grid.is_free(px, py):
            return None
        return px, py

    def evaluate_removal(self, label: str, blocked_traj: Trajectory):
        """Stock search + manipulation-time estimate for the blocking MO."""
        mo = self.obstacles[label]
        return rem.estimate_removal_time(
            self.grid,
            mo.belief.mean,
            mo.spec.radius,
            np.array([self.x, self.y]),
            blocked_traj,
            self.cfg.robot.radius,
            self.cfg.robot.v_lin,
            self.cfg.robot.v_rot,
            self.cfg.removal.load_overhead,
            self.cfg.removal.unload_overhead,
            self.cfg.removal.search_radius,
        )

    def execute_removal(self, label: str, blocked_traj: Trajectory) -> str:
        """Approach, attempt loads, and on success carry the obstacle to a
        stock cell clear of `blocked_traj`.

        Returns "removed", "gave_up" or "timeout".
        """
        true_sr = self.obstacles[label].spec.true_sr
        stage = self.staging_point(label)
        if stage is not None:
            approach = self.plan_to(stage[0], stage[1], exclude=label)
            if approach is not None:
                status, _ = self.follow(approach, ignore=label)
                if status == "timeout":
                    return "timeout"
        for _ in range(self.cfg.removal.max_attempts):
            self.t += self.cfg.removal.load_overhead
            self.diag["n_attempts"] += 1
            success = bool(self.rng.random() < true_sr)
            self.update_beta(label, success)
            self.trace.append({"event": "attempt", "t": self.t, "obstacle": label,
                               "success": success})
            if not success:
                # A failed load means backing off, repositioning and setting
                # up again, so the whole attempt costs one removal cycle.
                self.t += max(self.t_mo - self.cfg.removal.load_overhead, 0.0)
            if self.t >= self.cfg.timeout:
                return "timeout"
            if not success:
                continue
            est = self.evaluate_removal(label, blocked_traj)
            if est is None:
                # Load succeeded but nowhere to put the obstacle down: give up.
                self.trace.append({"event": "no_stock", "t": self.t,
                                   "obstacle": label})
                return "gave_up"
            carry_time = (2.0 * est.carry_length / self.cfg.robot.v_lin
                          + math.pi / self.cfg.robot.v_rot
                          + self.cfg.removal.unload_overhead)
            self.t += carry_time
            self.diag["distance"] += 2.0 * est.carry_length
            x, y = est.stock
            self.set_belief(label, PoseBelief(np.array([x, y]), np.eye(2) * 1e-6),
                            x=x, y=y, placed=True)
            self.trace.append({"event": "placed", "t": self.t, "obstacle": label,
                               "stock": [x, y]})
            if self.t >= self.cfg.timeout:
                return "timeout"
            return "removed"
        return "gave_up"

    # -- decision epoch ------------------------------------------------

    def _next_decision(self, traj: Trajectory | None):
        """Follow `traj` (None when no path is known) to the next blockage
        and gather what every policy reads there: the blocker, the blocked
        trajectory, the detour to the goal, the stock-search estimate and
        the route after removal. Nothing here reads the policy. Returns
        (outcome, None) when the episode ends first, else (None, decision).
        """
        self.steps += 1
        if self.steps > 500:
            raise RuntimeError("episode failed to terminate")
        if self.t >= self.cfg.timeout:
            return "timeout", None
        if traj is None:
            # No path under current beliefs: treat like a blockage by the
            # nearest known obstacle, or give up if none is known.
            blocker = self._nearest_known_blocker()
            if blocker is None:
                return "no_strategy", None
            blocked_traj = self._fallback_traj()
        else:
            status, blocker = self.follow(traj)
            if status != "blocked":
                return ("success" if status == "goal" else "timeout"), None
            blocked_traj = traj
        self.diag["n_decisions"] += 1
        detour = self.plan_to(*self.cfg.goal)
        est = self.evaluate_removal(blocker, blocked_traj)
        self.t_mo = est.t_mo if est is not None else self.cfg.removal.default_t_mo
        route = None if est is None else self.plan_to(*self.cfg.goal, exclude=blocker)
        return None, (blocker, blocked_traj, detour, est, route)

    def _act(self, decision: tuple, choice: str):
        """Carry out a choice. Returns (outcome, None) when the episode
        ends, else (None, the trajectory to follow next)."""
        blocker, blocked_traj, detour = decision[:3]
        if choice == "bypass":
            return None, detour
        if choice == "remove":
            if self.execute_removal(blocker, blocked_traj) == "timeout":
                return "timeout", None
            return None, self.plan_to(*self.cfg.goal)
        # "wait": the way never clears, so wait out the clock.
        return ("timeout" if choice == "wait" else "no_strategy"), None

    # -- the tree of decisions -----------------------------------------

    def _start(self) -> _End | _Node:
        """The first step: plan, then walk to the end or the first decision."""
        return self._walk(None, self.plan_to(*self.cfg.goal))

    def _after(self, node: _Node, choice: str) -> _End | _Node:
        """The step after `choice` at `node`, whose state the episode is in."""
        return self._walk(*self._act(node.decision, choice))

    def _walk(self, outcome: str | None,
              traj: Trajectory | None) -> _End | _Node:
        """The step that follows `_act`'s answer: the end, or the next
        decision, holding the trace entries made on the way."""
        if outcome is None:
            outcome, decision = self._next_decision(traj)
        events, self.trace = self.trace, []
        if outcome is not None:
            elapsed = self.cfg.timeout if outcome == "timeout" else self.t
            return _End(events, outcome, elapsed, dict(self.diag))
        self.at = _Node(self, events, decision)
        return self.at

    def _fallback_traj(self) -> Trajectory:
        gx, gy = self.cfg.goal
        positions = np.array([[self.x, self.y], [gx, gy]])
        return Trajectory(positions)

    def _nearest_known_blocker(self) -> str | None:
        best, best_d = None, math.inf
        for label, o in self.obstacles.items():
            if o.belief is None or o.placed:
                continue
            bx, by = o.belief.mean
            d = math.hypot(bx - self.x, by - self.y)
            if d < best_d:
                best, best_d = label, d
        return best


@dataclass
class _End:
    """The end of an episode: the trace entries made since the last choice,
    the outcome, the elapsed time and the diagnostics."""

    events: list[dict]
    outcome: str
    elapsed: float
    diag: dict


class _Node:
    """An episode at a decision, before its policy chooses: the trace
    entries made since the last choice, what every policy reads there
    (`_next_decision`'s tuple), the state to resume from and the steps
    after the choices made here. The state keeps the obstacle records in
    one dict; records are replaced, never mutated, so a copy of the dict
    keeps them. A node holds nothing of the config, so the configs of one
    world share it and a config dies with its last reference, wherever the
    tree is kept."""

    def __init__(self, ep: _Episode, events: list[dict], decision: tuple):
        self.events, self.decision = events, decision
        # The step after each choice, keyed on the choice and the rng state
        # after it, since a rule may draw.
        self.children: dict[tuple, _End | _Node] = {}
        self.rng = ep.rng.bit_generator.state
        self.explored = np.packbits(ep.explored)
        self.obstacles = dict(ep.obstacles)
        self.diag = dict(ep.diag)
        self.scalars = (ep.x, ep.y, ep.heading, ep.t, ep.t_mo, ep.steps)

    def restore(self, ep: _Episode) -> None:
        """Put `ep` in this node's state."""
        ep.rng.bit_generator.state = self.rng
        cells = ep.grid.cells
        ep.explored = np.unpackbits(self.explored, count=cells.size).view(
            bool).reshape(cells.shape)
        ep.obstacles = dict(self.obstacles)
        ep.diag = dict(self.diag)
        ep.x, ep.y, ep.heading, ep.t, ep.t_mo, ep.steps = self.scalars
        ep.at = self


def _rng_key(rng: np.random.Generator) -> tuple:
    """The generator's whole state, hashable."""
    state = rng.bit_generator.state
    return (state["state"]["state"], state["state"]["inc"],
            state["has_uint32"], state["uinteger"])


# The root step of the tree of decision nodes `run_episode` ran last, keyed
# on its world key and seed.
_TREE = Memo(1)


def run_episode(config: ScenarioConfig, policy: Policy | str,
                seed: int | None = None) -> TrialRecord:
    """Execute one seeded episode under the given policy. The map's
    bypass-time model is fitted (or taken from the cache) when the policy
    first needs it.

    Episodes of one world and seed share their work, whatever their
    config's decision-only fields (`scenario_id`, `estimated_sr`,
    `calibration_trials`, `sr_shared`, `bypass_model`). The module keeps the
    tree of decision nodes of the world and seed it ran last: the root is
    the first step, and each node holds the step after each choice made
    there (with the rng state after it, since a rule may draw). An episode
    walks the tree: at each stored node it asks its own rule, traces its own
    decision and moves to the child for its choice, and it simulates only
    from the first step no earlier episode took. Nothing before a choice
    reads the policy or a decision-only field, and a rule changes nothing
    but the rng and pure memos, so the record is the one a fresh config
    would give. A call with another world or seed replaces the tree, and a
    rule that raises drops it, so the tree holds one seed's episodes of one
    world and needs no bound: run a world's configs and policies seed by
    seed to share it.
    """
    if isinstance(policy, str):
        policy = get_policy(policy)
    seed = config.seed if seed is None else seed
    ep = _Episode(config, seed)
    step = _TREE.lookup((config._world, seed), ep._start)
    trace: list[dict] = []
    while True:
        trace += map(dict, step.events)
        if isinstance(step, _End):
            break
        if ep.at is not step:
            step.restore(ep)
        blocker, _, detour, est, route = step.decision
        try:
            choice, details = policy.choose(ep, blocker, detour, est, route)
        except BaseException:
            _TREE.clear()
            raise
        trace.append({"event": "decision", "t": ep.t,
                      "blocking_obstacle": blocker, **details,
                      "policy_choice": choice})
        key = (choice, _rng_key(ep.rng))
        if key not in step.children:
            step.children[key] = ep._after(step, choice)
        step = step.children[key]
    return TrialRecord(config.scenario_id, seed, policy.name, step.outcome,
                       step.elapsed, trace, dict(step.diag))
