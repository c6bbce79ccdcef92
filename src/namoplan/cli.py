"""Command-line harness: single episodes, trial batches, predictor training.

Exit codes: 0 success or valid result, 1 usage error, 2 config error
(a bad option value or an unreadable or unwritable path among them),
3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import blockage as blk
from . import bypass as byp
from .experiments import (ExperimentSpec, evaluate_bypass_predictors,
                          generate_bypass_benchmark, run_benchmark)
from .gridmap import free_area, mark_explored
from .planner import plan_path
from .simulator import (POLICIES, RobotConfig, ScenarioConfig, ScenarioError,
                        run_episode)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="namoplan",
                     description="Grid-world NAMO episodes with interval-based "
                                 "strategy selection.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a single episode")
    run.add_argument("--config", required=True, help="scenario YAML file")
    run.add_argument("--policy", default="uncertainty", choices=sorted(POLICIES))
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default=None, help="append the trial record "
                                                 "(JSON line) to this file")
    run.add_argument("--diagnostics", default=None,
                     help="write per-waypoint blockage risk CSV of the "
                          "initial route here")

    bench = sub.add_parser("benchmark", help="run a scenario/policy trial grid")
    bench.add_argument("--config", required=True, nargs="+",
                       help="one or more scenario YAML files")
    bench.add_argument("--policy", required=True, nargs="+",
                       choices=sorted(POLICIES))
    bench.add_argument("--reps", type=int, default=5)
    bench.add_argument("--seed", type=int, default=0, help="seed base; trial i "
                                                           "uses seed + i")
    bench.add_argument("--out", default="results")
    bench.add_argument("--workers", type=int, default=1)

    train = sub.add_parser("train-bypass", help="fit the bypass-time predictor")
    train.add_argument("--dataset", default=None, help="timing CSV "
                                                       "(F_l,F_s,F_v,duration)")
    train.add_argument("--generate", action="store_true",
                       help="generate the 1500/600 benchmark from --config's map")
    train.add_argument("--config", default=None,
                       help="scenario YAML supplying the map for --generate")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", default="bypass_model.txt")
    return parser


def _check_seed(seed: int | None) -> None:
    # numpy's generators take no negative seed; fail before any work.
    if seed is not None and seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")


def _cmd_run(args) -> int:
    _check_seed(args.seed)
    config = ScenarioConfig.from_yaml(args.config)
    record = run_episode(config, args.policy, seed=args.seed)
    print(f"{record.scenario_id} policy={record.policy} seed={record.seed} "
          f"outcome={record.outcome} elapsed={record.elapsed:.2f}s")
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(record.to_json_line() + "\n")
    if args.diagnostics:
        _write_diagnostics(config, args.diagnostics)
    return 0


def _write_diagnostics(config: ScenarioConfig, path: str) -> None:
    grid = config.load_grid()
    explored = np.zeros_like(grid.cells, dtype=bool)
    sx, sy = config.robot.start
    mark_explored(grid, explored, sx, sy, config.robot.start_heading,
                  config.robot.sensor_range, config.robot.sensor_fov)
    traj = plan_path(grid, (sx, sy), config.goal, config.robot.radius)
    if traj is None:
        raise ScenarioError("no initial route for diagnostics")
    pop = blk.ObstaclePopulation(config.population.mu, config.population.sigma,
                                 config.population.k, free_area(grid))
    risks = blk.trajectory_blockage_detail(pop, traj, grid, explored,
                                           config.robot.radius)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "x", "y", "width", "p_block_given_here",
                         "p_here", "p_block"])
        for r in risks:
            writer.writerow([r.index, r.x, r.y, r.width, r.p_block_given_here,
                             r.p_here, r.p_block])


def _cmd_benchmark(args) -> int:
    spec = ExperimentSpec(scenario_paths=args.config, policies=args.policy,
                          repetitions=args.reps, seed_base=args.seed,
                          output_dir=args.out)
    _, summary = run_benchmark(spec, workers=args.workers)
    for cell in summary:
        print(f"{cell['scenario_id']:>16s} {cell['policy']:>24s} "
              f"n={cell['n']:<3d} mean={cell['mean']:7.2f}s "
              f"std={cell['std']:6.2f} median={cell['median']:7.2f} "
              f"iqr={cell['iqr']:6.2f} success={cell['success_rate']:.2f}")
    print(f"results written to {args.out}/")
    return 0


def _cmd_train_bypass(args) -> int:
    _check_seed(args.seed)
    if args.generate:
        if not args.config:
            print("error: --generate requires --config", file=sys.stderr)
            return 1
        config = ScenarioConfig.from_yaml(args.config)
        train, test = generate_bypass_benchmark(config, seed=args.seed)
        v_max = config.robot.v_lin
    elif args.dataset:
        full = byp.TimingDataset.load_csv(args.dataset)
        n = len(full)
        if n < 10:
            print("error: dataset too small", file=sys.stderr)
            return 2
        split = int(n * 0.7)
        train = byp.TimingDataset(full.features[:split], full.durations[:split])
        test = byp.TimingDataset(full.features[split:], full.durations[split:])
        v_max = RobotConfig.v_lin  # no config: the default robot's speed
    else:
        print("error: provide --dataset or --generate", file=sys.stderr)
        return 1
    model, report = evaluate_bypass_predictors(train, test, v_max=v_max)
    model.save(args.out)
    print(report.format())
    print(f"model written to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "benchmark":
            return _cmd_benchmark(args)
        if args.command == "train-bypass":
            return _cmd_train_bypass(args)
        return 1
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
