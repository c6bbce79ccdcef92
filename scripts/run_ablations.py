"""Reproduce the policy-ablation batteries on the bundled scenarios.

Four batteries, each comparing the full interval policy against an ablated
or heuristic variant on paired seeds:

  1. unreliable removal  - warehouse ABC with true load success rate 0.2:
     interval policy vs point-estimate (no action uncertainty) variant
  2. biased estimates    - warehouse ABC, six (estimated, real) success-rate
     pairs, same two policies
  3. blockage term       - warehouse AB and ABE: interval policy vs the
     variant that ignores blockage risk on the detour
  4. room doorway        - removal is the only way through: bypass-only,
     removal-only, and the full policy

Run from the repo root:
    python3 scripts/run_ablations.py --seeds 10 --out ablations

Writes one trials CSV per battery to --out and prints mean/std tables.
"""

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from namoplan import scenario_path
from namoplan.simulator import ScenarioConfig, run_episode

BIASED_PAIRS = [(0.9, 0.2), (0.9, 0.5), (0.5, 0.2),
                (0.5, 0.9), (0.2, 0.5), (0.2, 0.9)]


def battery(name, policies, seeds, cells=((None, None),)):
    """Each policy at each seed on one config of the scenario per
    (estimated_sr, true_sr) cell; None keeps the file's rate. The cells
    that share a true_sr simulate one world, so they run together, seed by
    seed, and one seed's episodes share decision nodes. The rows are cell
    by cell, policy by policy."""
    base = ScenarioConfig.from_yaml(scenario_path(f"{name}.yaml"))
    configs = {}
    for estimated_sr, true_sr in cells:
        cfg = base
        if estimated_sr is not None:
            cfg = replace(cfg, estimated_sr=estimated_sr)
        if true_sr is not None:
            cfg = replace(cfg, obstacles=tuple(replace(spec, true_sr=true_sr)
                                               for spec in cfg.obstacles))
        configs[estimated_sr, true_sr] = cfg
    worlds = {}
    for cell in cells:
        worlds.setdefault(cell[1], []).append(cell)
    records = {(cell, policy, seed): run_episode(configs[cell], policy, seed=seed)
               for members in worlds.values() for seed in seeds
               for cell in members for policy in policies}
    return [{"scenario": name, "policy": policy, "seed": seed,
             "estimated_sr": cell[0], "true_sr": cell[1],
             "outcome": records[cell, policy, seed].outcome,
             "elapsed": records[cell, policy, seed].elapsed}
            for cell in cells for policy in policies for seed in seeds]


def report(label, cells):
    print(f"\n{label}")
    for tag, rows in cells:
        elapsed = np.array([r["elapsed"] for r in rows])
        success = np.mean([r["outcome"] == "success" for r in rows])
        print(f"  {tag:42s} mean {elapsed.mean():7.2f} s  "
              f"std {elapsed.std(ddof=1) if len(elapsed) > 1 else 0.0:6.2f}  "
              f"success {success:.2f}")


def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10,
                        help="episodes per cell (paired across policies)")
    parser.add_argument("--out", default="ablations")
    args = parser.parse_args(argv)
    seeds = range(args.seeds)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = battery("warehouse_abc", ("uncertainty", "uncertainty-no-action"),
                   seeds, [(0.2, 0.2)])
    write_csv(out / "unreliable_removal.csv", rows)
    report("unreliable removal (warehouse ABC, true SR 0.2)",
           [(p, [r for r in rows if r["policy"] == p])
            for p in ("uncertainty", "uncertainty-no-action")])

    rows = battery("warehouse_abc", ("uncertainty", "uncertainty-no-action"),
                   seeds, BIASED_PAIRS)
    write_csv(out / "biased_estimates.csv", rows)
    cells = [(f"est {e:.1f} real {r:.1f} {p}",
              [x for x in rows if x["policy"] == p
               and x["estimated_sr"] == e and x["true_sr"] == r])
             for e, r in BIASED_PAIRS
             for p in ("uncertainty", "uncertainty-no-action")]
    report("biased success-rate estimates (warehouse ABC)", cells)
    report("biased estimates, overall",
           [(p, [x for x in rows if x["policy"] == p])
            for p in ("uncertainty", "uncertainty-no-action")])

    rows = []
    for name in ("warehouse_ab", "warehouse_abe"):
        rows += battery(name, ("uncertainty", "uncertainty-no-blockage"), seeds)
    write_csv(out / "blockage_term.csv", rows)
    cells = [(f"{name} {p}",
              [x for x in rows if x["scenario"] == name and x["policy"] == p])
             for name in ("warehouse_ab", "warehouse_abe")
             for p in ("uncertainty", "uncertainty-no-blockage")]
    report("blockage term on the detour (warehouse AB / ABE)", cells)
    report("blockage term, overall",
           [(p, [x for x in rows if x["policy"] == p])
            for p in ("uncertainty", "uncertainty-no-blockage")])

    rows = battery("room", ("priority-bypass", "priority-removal", "uncertainty"),
                   seeds)
    write_csv(out / "room.csv", rows)
    report("room doorway (removal required)",
           [(p, [x for x in rows if x["policy"] == p])
            for p in ("priority-bypass", "priority-removal", "uncertainty")])

    print(f"\ntrial CSVs written to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
