"""Fast self-test of the benchmark harness; runs no real episode.

    python3 perfbench/selftest.py
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


def _record(**changes) -> dict:
    rec = {"scenario_id": "room", "seed": 0, "policy": "uncertainty",
           "outcome": "success", "elapsed": 30.5,
           "decisions": [
               {"event": "attempt", "t": 10.0, "obstacle": "DOOR",
                "success": True},
               {"event": "placed", "t": 20.0, "obstacle": "DOOR",
                "stock": [5.0, 1.0]}],
           "diagnostics": {"n_senses": 3, "n_replans": 2, "n_attempts": 1,
                           "n_decisions": 1, "distance": 6.0}}
    rec.update(changes)
    return rec


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        fake = [Span("1.1", None, "root", 0.0, 10.0),
                Span("1.2", "1.1", "a", 1.0, 4.0),
                Span("1.3", "1.2", "leaf", 2.0, 3.0),
                Span("1.4", "1.1", "b", 5.0, 7.0)]
        own = spans.self_times(fake)
        self.assertEqual(own, {"1.1": 5.0, "1.2": 2.0, "1.3": 1.0, "1.4": 2.0})
        self.assertEqual(sum(own.values()), 10.0)
        self.assertEqual(spans.self_within(fake, "a"), 3.0)
        agg = spans.aggregate(fake)
        self.assertEqual(agg["root"]["calls"], 1)
        self.assertEqual(agg["root"]["with_child"], {"a": 1, "b": 1})

    def test_recorder_nests_and_flags(self):
        rec = spans.Recorder()

        def inner(x):
            return None if x < 0 else x

        wrapped_inner = rec.wrap("inner", inner, spans._none_result)

        def outer(x):
            return wrapped_inner(x) or wrapped_inner(-1)

        rec.wrap("outer", outer)(0)
        by_name = {}
        for s in rec.spans:
            by_name.setdefault(s.name, []).append(s)
        (top,) = by_name["outer"]
        self.assertIsNone(top.parent)
        self.assertEqual([s.parent for s in by_name["inner"]], [top.sid] * 2)
        self.assertEqual([s.flag for s in by_name["inner"]], [False, True])

    def test_install_patches_import_sites(self):
        from namoplan import gridmap, planner, simulator

        originals = (simulator.plan_path, planner.inflated_blocked_mask,
                     gridmap.OccupancyGrid.__dict__["load"])
        rec = spans.Recorder()
        rec.install()
        try:
            self.assertIsNot(simulator.plan_path, originals[0])
            self.assertIs(simulator.plan_path, planner.plan_path)
            self.assertIsNot(planner.inflated_blocked_mask, originals[1])
            self.assertIsInstance(gridmap.OccupancyGrid.__dict__["load"],
                                  staticmethod)
        finally:
            rec.uninstall()
        self.assertEqual((simulator.plan_path, planner.inflated_blocked_mask,
                          gridmap.OccupancyGrid.__dict__["load"]), originals)


class TailPercentile(unittest.TestCase):
    def test_ten_samples_beyond(self):
        for n in range(11, 400):
            values = list(range(n))
            p, value = checks.tail_percentile(values)
            self.assertGreaterEqual(n - 1 - value, 10, n)
            # one percentile higher would leave fewer than ten beyond
            rank = -(-(p + 1) * n // 100)
            self.assertLess(n - rank, 10, n)

    def test_examples(self):
        self.assertEqual(checks.tail_percentile(list(range(100))), (90, 89))
        self.assertEqual(checks.tail_percentile(list(range(11))), (9, 0))
        with self.assertRaises(ValueError):
            checks.tail_percentile(list(range(10)))


class Calibration(unittest.TestCase):
    def test_reference_seconds(self):
        ref = calibrate.REFERENCE_S
        cal = calibrate.Calibrator()
        # slices of ref, 2 ref, 3 ref and 4 ref CPU seconds
        cal.slices = [(0.0, ref), (1.0, 1.0 + 2 * ref),
                      (2.0, 2.0 + 3 * ref), (5.0, 5.0 + 4 * ref)]
        # [0.5, 3.0) holds the second and third slice; the first and the
        # fourth are its neighbours; the mean slice is 2.5 ref.
        own = 2.5 - 5 * ref
        self.assertAlmostEqual(cal.reference_s(0.5, 3.0), own / 2.5)
        # no slice inside: the neighbours alone, 2 ref and 3 ref
        self.assertAlmostEqual(cal.reference_s(1.5, 1.9), 0.4 / 2.5)
        self.assertAlmostEqual(cal.scale(), 1 / 2.5)


class RecordChecks(unittest.TestCase):
    validator = checks.load_validator(HERE.parent)

    def problems(self, rec):
        line = rec if isinstance(rec, str) else json.dumps(rec, sort_keys=True)
        return checks.record_problems(line, {"room": 300.0}, self.validator)

    def test_valid_record_passes(self):
        self.assertEqual(self.problems(_record()), [])

    def test_corruptions_are_caught(self):
        bad_trace = _record()
        bad_trace["decisions"][1]["t"] = 5.0
        for rec in (_record(outcome="crashed"), _record(elapsed=301.0),
                    _record(scenario_id="unknown"), bad_trace,
                    _record(extra=1), "{not json", "[]"):
            self.assertNotEqual(self.problems(rec), [], rec)

    def test_corrupted_record_counts_as_failed(self):
        good = json.dumps(_record(), sort_keys=True)
        bad = json.dumps(_record(elapsed=-1.0), sort_keys=True)
        changed = json.dumps(_record(elapsed=31.0), sort_keys=True)

        class FakeWork:
            n = 2
            timeouts = {"room": 300.0}
            passes = [[good, bad], [changed, "{not json"]]

            def run_pass(self, recorder, cal):
                return 1.0, self.passes.pop(0), {"a": 0.5, "b": 0.5}, 0.75

        lines, per_key, wall, host, attempted, failed = run.run_passes(
            FakeWork(), spans.Recorder(), 2.0, self.validator)
        # pass 1: the bad record; pass 2: a record that differs from its
        # first run and a line that is not JSON
        self.assertEqual((attempted, failed, wall, host), (4, 3, 2.0, 1.5))
        self.assertEqual(lines, [good, bad])
        self.assertEqual(per_key, {"a": [0.5, 0.5], "b": [0.5, 0.5]})


if __name__ == "__main__":
    unittest.main()
