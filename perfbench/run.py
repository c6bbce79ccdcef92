"""Episode benchmark for namoplan.

    python3 perfbench/run.py --workload suite-sweep --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
Workloads, metrics and tracing are described in perfbench/README.md. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: end-to-end metrics with `--trace 0`,
per-layer metrics from spans with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = SRC / "namoplan" / "scenarios"
# Scratch files of one run, removed when it ends.
OUT = ROOT / ".perfbench_out" / str(os.getpid())

sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402

SUITE_SCENARIOS = ["room", "warehouse_ab", "warehouse_abc", "warehouse_abd",
                   "warehouse_abe", "warehouse_bc", "warehouse_bce"]
SUITE_POLICIES = ["uncertainty", "uncertainty-no-blockage", "priority-bypass",
                  "priority-removal"]
# (estimated_sr, true_sr) pairs of the Tier-1 unreliable-removal batteries.
UNRELIABLE_SR = [(0.2, 0.2), (0.9, 0.2), (0.9, 0.5)]
UNRELIABLE_POLICIES = ["uncertainty", "uncertainty-no-action"]
# Number of episode seeds (0, 1, ...) in each workload's fixed battery,
# shared across its cells.
# Outcomes, and with them host time, hinge on the episode seed: with seed 11
# loads fail in many suite cells, which doubles suite-sweep's host time and
# lifts its mean simulated time from 76 s to 106 s, and seed 1's
# no-action episodes in unreliable-removal run into the timeout and cost more
# than the rest of that battery. A battery drawn from --seed would swing by
# more than the bounds between runs, so --seed only sets the order in which
# the cells of the fixed battery run.
SUITE_SEEDS = 1
UNRELIABLE_SEEDS = 3
SETUP_REPEATS = 3

WORKLOADS = ["suite-sweep", "unreliable-removal"]

END_TO_END_UNITS = {
    "episodes_per_s": "1/s",
    "episode_ms_p50": "ms",
    "episode_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "success_rate": "frac",
    "sim_s_mean": "sim_s",
}


def log(msg: str) -> None:
    print(msg, flush=True)


class Workload:
    """One `run_benchmark` grid, run in this process at one worker.

    `configs` are the scenario files the program sees; `timeouts` maps their
    scenario ids to the timeout each record is checked against.
    """

    def __init__(self, name: str, seed: int):
        from namoplan.experiments import ExperimentSpec
        from namoplan.simulator import ScenarioConfig

        if name == "suite-sweep":
            configs = [SCENARIOS / f"{s}.yaml" for s in SUITE_SCENARIOS]
            policies, reps = list(SUITE_POLICIES), SUITE_SEEDS
        else:
            configs = [self._unreliable_config(est, true)
                       for est, true in UNRELIABLE_SR]
            policies, reps = list(UNRELIABLE_POLICIES), UNRELIABLE_SEEDS
        rng = random.Random(seed)
        rng.shuffle(configs)
        rng.shuffle(policies)
        self.configs = configs
        self.timeouts = {}
        for path in configs:
            cfg = ScenarioConfig.from_yaml(path)
            self.timeouts[cfg.scenario_id] = cfg.timeout
        self.spec = ExperimentSpec(scenario_paths=[str(p) for p in configs],
                                   policies=policies, repetitions=reps,
                                   seed_base=0,
                                   output_dir=str(OUT / "grid"))
        self.n = len(configs) * len(policies) * reps

    @staticmethod
    def _unreliable_config(estimated_sr: float, true_sr: float) -> Path:
        raw = yaml.safe_load((SCENARIOS / "warehouse_abc.yaml").read_text())
        raw["scenario_id"] = f"warehouse_abc-est{estimated_sr}-true{true_sr}"
        raw["map"] = str(SCENARIOS / raw["map"])
        raw["estimated_sr"] = estimated_sr
        for obstacle in raw["obstacles"]:
            obstacle["true_sr"] = true_sr
        path = OUT / f"{raw['scenario_id']}.yaml"
        path.write_text(yaml.safe_dump(raw))
        return path

    def fit(self) -> None:
        """Fit each map's bypass model, so timed passes find it cached."""
        from namoplan.simulator import ScenarioConfig, bypass_model_for

        for path in self.configs:
            cfg = ScenarioConfig.from_yaml(path)
            bypass_model_for(cfg.load_grid(), cfg.robot, cfg.bypass_model)

    def run_pass(self, recorder: spans.Recorder, cal=None):
        """One grid. Returns (wall s, record lines, episode key -> host s,
        pass host s).

        `recorder` must wrap `run_episode`; its spans give the episode
        times. With a calibrator `cal`, the recorder must time spans in CPU
        seconds and run `cal.tick` ahead of calls; host times are then CPU
        seconds, less the slices, scaled to the reference speed (see
        calibrate.py). Without one, they are the recorder's own seconds and
        the pass's wall time. Raises what the grid raised."""
        from namoplan.experiments import run_benchmark

        recorder.spans.clear()
        if cal is not None:
            cal.slices.clear()
            cal.slice()
        start, cpu_start = time.perf_counter(), time.process_time()
        rows, _ = run_benchmark(self.spec, workers=1)
        if cal is not None:
            cal.slice()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        episodes = [s for s in recorder.spans
                    if s.name == "simulator.run_episode"]
        if cal is None:
            scaled, host = [s.end - s.start for s in episodes], wall
        else:
            scaled = [cal.reference_s(s.start, s.end) for s in episodes]
            # Host time outside episodes and outside the slices between them.
            rest = cpu - sum(s.end - s.start for s in episodes) - sum(
                b - a for a, b in cal.slices[1:]
                if not any(s.start <= a < s.end for s in episodes))
            host = sum(scaled) + rest * cal.scale()
        times = {s.key: dt for s, dt in zip(episodes, scaled)}
        return wall, [row["record"].to_json_line() for row in rows], times, host


def measure_setup(config_paths: list[Path]) -> list[float]:
    """Reference seconds of fresh interpreters that import, parse and fit.

    Each probe is a new `python` process, never a fork of this one, so the
    module-level model cache starts empty as it does for a CLI run or a pool
    worker. The probe samples the host's speed itself and reports its CPU
    time scaled to the reference speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times, notes = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             *map(str, config_paths)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        fields = dict(f.split("=", 1) for f in proc.stdout.split())
        if proc.returncode != 0 or "reference_s" not in fields:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(fields["reference_s"]))
        notes.append(f"{wall:.2f}/{fields['cpu_s']}/{times[-1]:.2f}")
    log("setup probes, wall/CPU/reference s: " + " ".join(notes))
    return times


def run_passes(work: Workload, recorder: spans.Recorder, seconds: float,
               validator, cal=None):
    """Closed loop of whole passes: at least one, and another only while it
    is expected to end within `seconds` of wall time.

    Every record is checked; a later pass must reproduce the first pass's
    records byte for byte. Returns (first-pass lines, episode key -> host
    times, total wall s, total host s, attempted, failed); host times are as
    `Workload.run_pass` gives them."""
    first: list[str] | None = None
    per_key: dict[str, list[float]] = {}
    walls: list[float] = []
    host = 0.0
    attempted = failed = 0
    while not walls or sum(walls) * (1 + 1 / len(walls)) <= seconds:
        attempted += work.n
        try:
            wall, lines, times, pass_host = work.run_pass(recorder, cal)
        except Exception as exc:  # the grid aborted: all of its episodes fail
            failed += work.n
            log(f"FAILED grid: {type(exc).__name__}: {exc}")
            if first is None:
                raise
            break
        walls.append(wall)
        host += pass_host
        bad = max(work.n - len(lines), 0)
        for i, line in enumerate(lines):
            problems = checks.record_problems(line, work.timeouts, validator)
            if first is not None and line != first[i]:
                problems.append("record differs from the first pass")
            if problems:
                bad += 1
                log(f"FAILED record {i}: {'; '.join(problems)}")
        failed += bad
        if first is None:
            first = lines
        for key, dt in times.items():
            per_key.setdefault(key, []).append(dt)
    return first, per_key, sum(walls), host, attempted, failed


def end_to_end(name: str, seed: int, seconds: float):
    work = Workload(name, seed)
    cal = calibrate.Calibrator()
    cal.warm()
    setup = measure_setup(work.configs)
    validator = checks.load_validator(ROOT)
    work.fit()
    recorder = spans.Recorder(clock=time.process_time, before=cal.tick)
    recorder.install(spans.EPISODE_AND_TICKS)
    try:
        lines, per_key, wall, host, attempted, failed = run_passes(
            work, recorder, seconds, validator, cal)
    finally:
        recorder.uninstall()
    log(f"{attempted} episode runs of {len(lines)} distinct episodes; "
        f"{wall:.2f} s wall, {host:.2f} reference s; host times are CPU "
        f"time scaled to a {1e3 * calibrate.REFERENCE_S:g} ms calibration "
        f"slice")
    log(f"record digest sha256:{checks.digest(lines)}")
    per_episode = [statistics.median(t) for t in per_key.values()]
    p, tail = checks.tail_percentile(per_episode)
    log(f"episode host time: median of each episode's runs, "
        f"n={len(per_episode)}; episode_ms_tail is p{p}")
    records = [json.loads(line) for line in lines]
    metrics = {
        "episodes_per_s": (attempted - failed) / host,
        "episode_ms_p50": 1e3 * statistics.median(per_episode),
        "episode_ms_tail": 1e3 * tail,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - failed / attempted,
        "success_rate": sum(r.get("outcome") == "success" for r in records)
        / len(records),
        "sim_s_mean": sum(r.get("elapsed", 0.0) for r in records)
        / len(records),
    }
    log(f"failed_frac = {failed}/{attempted} = {failed / attempted:.4f} frac")
    return metrics, attempted, failed


def traced(name: str, seed: int):
    """An untraced pass, then set-up and the same pass with every span."""
    from namoplan import simulator

    work = Workload(name, seed)
    validator = checks.load_validator(ROOT)
    work.fit()
    plain = spans.Recorder()
    plain.install(spans.EPISODE_ONLY)
    try:
        plain_lines, plain_times, plain_wall, _, a0, f0 = run_passes(
            work, plain, 0.0, validator)
    finally:
        plain.uninstall()
    getattr(simulator, "_MODEL_CACHE", {}).clear()
    full = spans.Recorder()
    full.install()
    try:
        work.fit()
        fit_spans = list(full.spans)
        lines, _, wall, _, a1, f1 = run_passes(work, full, 0.0, validator)
    finally:
        full.uninstall()
    failed = f0 + f1 + sum(a != b for a, b in zip(plain_lines, lines))
    untraced_s = sum(t[0] for t in plain_times.values())
    return layer_metrics(fit_spans + full.spans, wall / plain_wall,
                         untraced_s), a0 + a1, failed


def layer_metrics(span_list: list[spans.Span], overhead: float,
                  untraced_s: float) -> dict[str, float]:
    """Calls and self seconds per wrapped function, the ratios with their
    bases, the tracing overhead, and the share of the untraced episode time
    (`untraced_s`) that the summed self times account for."""
    agg = spans.aggregate(span_list)
    empty = {"calls": 0, "self_s": 0.0, "flagged": 0, "with_child": {}}
    metrics: dict[str, float] = {}
    for name, *_ in spans.TARGETS:
        metrics[f"{name}.calls"] = agg.get(name, empty)["calls"]
        metrics[f"{name}.self_s"] = agg.get(name, empty)["self_s"]

    def ratio(name: str, what: str, count: int) -> None:
        calls = agg.get(name, empty)["calls"]
        metrics[f"{name}.{what}"] = count / calls if calls else 0.0
        log(f"{name}.{what} = {count}/{calls}")

    plan = agg.get("planner.plan_path", empty)
    ratio("planner.plan_path", "unreachable_frac", plan["flagged"])
    est = agg.get("removal.estimate_removal_time", empty)
    ratio("removal.estimate_removal_time", "found_frac",
          est["calls"] - est["flagged"])
    fit = agg.get("simulator.bypass_model_for", empty)
    ratio("simulator.bypass_model_for", "miss_frac",
          fit["with_child"].get("simulator.generate_timing_dataset", 0))
    cover = spans.self_within(span_list, "simulator.run_episode") / untraced_s
    metrics["trace.overhead_ratio"] = overhead
    metrics["trace.self_cover_ratio"] = cover
    log(f"tracing overhead: traced / untraced grid wall = {overhead:.3f}; "
        f"summed self time of episode spans / untraced episode time = "
        f"{cover:.3f} (base {untraced_s:.2f} s)")
    return metrics


def layer_unit(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith(".self_s"):
        return "s"
    return "ratio" if metric.startswith("trace.") else "frac"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "namoplan" / "__init__.py").is_file():
        print(f"error: no namoplan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import namoplan

    if Path(namoplan.__file__).resolve().parent != SRC / "namoplan":
        print(f"error: imported namoplan from {namoplan.__file__}",
              file=sys.stderr)
        return 2

    log(f"workload {args.workload} seed {args.seed} trace {args.trace} "
        f"on {os.cpu_count()} cores")
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, attempted, failed = traced(args.workload, args.seed)
            units = {m: layer_unit(m) for m in metrics}
        else:
            metrics, attempted, failed = end_to_end(args.workload, args.seed,
                                                    args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
        try:
            OUT.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for name, value in metrics.items():
        log(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
