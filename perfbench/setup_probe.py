"""Set-up a fresh process pays before its first episode.

Imports namoplan, parses each scenario config and its map, and fits the
bypass model of each distinct map. Run it in a new interpreter so the model
cache starts empty:

    PYTHONPATH=src python3 perfbench/setup_probe.py src/namoplan/scenarios/room.yaml

Calibration slices run throughout the fits (see calibrate.py). Prints the
number of configs parsed and models fitted, the CPU seconds this process
used since it started, less the slices, and those seconds scaled to the
reference speed.
"""

import sys
import time

import calibrate
import spans
from namoplan.simulator import ScenarioConfig, bypass_model_for


def main(paths: list[str]) -> int:
    cal = calibrate.Calibrator()
    recorder = spans.Recorder(clock=time.process_time, before=cal.tick)
    recorder.install(spans.TICKS)
    models = set()
    for path in paths:
        config = ScenarioConfig.from_yaml(path)
        models.add(id(bypass_model_for(config.load_grid(), config.robot,
                                       config.bypass_model)))
    recorder.uninstall()
    cal.slice()
    end = time.process_time()
    print(f"configs={len(paths)} models={len(models)} "
          f"cpu_s={end - sum(cal.times):.6f} "
          f"reference_s={cal.reference_s(0.0, end):.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
