"""Self-tests for tfcbench/run.py. They need no build and run in well under a
second:

    python3 -m unittest discover -s tfcbench/tests
"""

import contextlib
import io
import json
import os
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402

BENCHMARK_JSON = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def span(sid, parent, name, start, end):
    return {"id": sid, "parent": parent, "name": name, "start_ns": start, "end_ns": end}


def fake_plain(recorder=True):
    return {
        "sim_s": 2.0, "events": 1000.0, "ops_attempted": 10.0, "ops_failed": 0.0,
        "output_bytes": 5e5, "spill_bytes": 20.0, "series": 0.0, "ticks": 0.0,
        "peak_rss_kb": 2048.0, "setup_s": 0.02, "setup_samples_s": [0.02, 0.01, 0.03],
        "run_s": 1.0 if recorder else 0.75, "total_s": 1.1,
        "outcomes": {"flows_completed": "10", "timeouts": "0"},
    }


def fake_traced():
    report = fake_plain()
    report["layers"] = {k: 1.0 for k in run.SCENARIO_LAYERS}
    report["layers"]["profile"] = {"port.serialize": [50, 0.25], "new.site": [3, 0.05]}
    report["spans"] = {"run_id": "x", "spans": [
        span(0, -1, "run", 0, 2_000_000_000),
        span(1, 0, "topo.build", 0, 100),
        span(2, 0, "sim.run", 200, 1_200_000_200),
        span(3, 2, "sim.run.slice", 200, 600_000_200),
        span(4, 2, "sim.run.slice", 600_000_200, 1_200_000_200),
        span(5, 0, "sim.telemetry.export", 1_200_000_300, 1_300_000_300),
        span(6, 0, "teardown", 1_300_000_300, 1_400_000_300),
    ]}
    return report


def fake_scenario(binary, work, workload, seed, mode, setups=0, recorder=True):
    return fake_traced() if mode == "traced" else fake_plain(recorder)


class MetricNames(unittest.TestCase):
    def test_names_use_allowed_characters(self):
        names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_matches_the_runner(self):
        with open(BENCHMARK_JSON) as f:
            spec = json.load(f)
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         [n for n, _ in run.END_TO_END])
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         [n for n, _ in run.PER_LAYER])
        # run.py also runs workloads too noisy on a shared host to gate on.
        gated = [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(gated), len(set(gated)))
        self.assertLessEqual(set(gated), set(run.WORKLOADS))
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertEqual(m["unit"], dict(run.END_TO_END + run.PER_LAYER)[m["name"]])


class Spans(unittest.TestCase):
    TREE = [
        span(0, -1, "run", 0, 100),
        span(1, 0, "topo.build", 10, 30),
        span(2, 0, "sim.run", 40, 90),
        span(3, 2, "sim.run.slice", 40, 60),
        span(4, 2, "sim.run.slice", 70, 85),
    ]

    def test_well_nested_tree_is_accepted(self):
        run.validate_spans(self.TREE)

    def test_child_escaping_parent_is_rejected(self):
        bad = self.TREE[:4] + [span(4, 2, "sim.run.slice", 70, 95)]
        with self.assertRaisesRegex(run.BenchError, "escapes"):
            run.validate_spans(bad)

    def test_overlapping_siblings_are_rejected(self):
        bad = self.TREE[:4] + [span(4, 2, "sim.run.slice", 55, 85)]
        with self.assertRaisesRegex(run.BenchError, "overlap"):
            run.validate_spans(bad)

    def test_unclosed_span_and_second_root_are_rejected(self):
        with self.assertRaisesRegex(run.BenchError, "never closed"):
            run.validate_spans(self.TREE[:4] + [span(4, 2, "sim.run.slice", 70, -1)])
        with self.assertRaisesRegex(run.BenchError, "one root"):
            run.validate_spans(self.TREE + [span(5, -1, "run", 100, 120)])

    def test_self_time_subtracts_child_coverage(self):
        selfs = run.self_times(self.TREE)
        self.assertEqual(selfs, {0: 100 - 20 - 50, 1: 20, 2: 50 - 20 - 15, 3: 20, 4: 15})
        by_name = run.self_seconds_by_name(self.TREE)
        self.assertAlmostEqual(by_name["sim.run.slice"], 35e-9)

    def test_self_time_counts_overlapping_children_once(self):
        tree = [span(0, -1, "run", 0, 100), span(1, 0, "a", 10, 50), span(2, 0, "b", 40, 60)]
        self.assertEqual(run.self_times(tree)[0], 50)


class OutputCheck(unittest.TestCase):
    def test_mismatch_fails_every_operation_of_the_run(self):
        checker = run.Checker("incast")
        checker.goldens = {}
        self.assertTrue(checker.check(fake_plain(), 7, "a"))
        other = fake_plain()
        other["outcomes"] = {"flows_completed": "9", "timeouts": "0"}
        self.assertTrue(checker.check(other, 8, "b"))  # another draw: own reference
        self.assertFalse(checker.check(other, 7, "c"))
        self.assertEqual((checker.attempted, checker.failed), (30, 10))
        self.assertFalse(checker.correct)

    def test_golden_is_compared_when_recorded(self):
        checker = run.Checker("incast")
        checker.goldens = {"151": {"flows_completed": "10", "timeouts": "1"}}
        self.assertFalse(checker.check(fake_plain(), 151, "a"))
        self.assertEqual(checker.golden_checked, 1)

    def test_recorded_goldens_cover_default_and_heldout_draws(self):
        goldens = run.load_goldens()
        for workload, (default, heldout, _) in run.WORKLOADS.items():
            for seed in (default, heldout):
                for draw in run.draw_seeds(workload, seed):
                    self.assertIn(str(draw), goldens[workload], (workload, draw))


class Printing(unittest.TestCase):
    def run_quietly(self, workload, trace):
        buf = io.StringIO()
        with mock.patch.object(run, "run_scenario", fake_scenario), \
                mock.patch.object(run, "load_goldens", lambda: {}), \
                contextlib.redirect_stdout(buf):
            result = run.run_workload("bin", "work", workload, 1, 0.0, trace)
        return result, buf.getvalue()

    def test_every_end_to_end_metric_is_printed(self):
        result, text = self.run_quietly("incast", 0)
        self.assertEqual(list(result["metrics"]), [n for n, _ in run.END_TO_END])
        for name, unit in run.END_TO_END:
            self.assertIn(f"\n{name} ", text)
            self.assertEqual(result["metrics"][name]["unit"], unit)
        self.assertAlmostEqual(result["metrics"]["wall_per_sim_s"]["value"], 0.5)
        self.assertAlmostEqual(result["metrics"]["setup_s"]["value"], 0.02)

    def test_every_draw_runs_and_metrics_average_over_draws(self):
        seen = []

        def scenario(binary, work, workload, seed, mode, setups=0, recorder=True):
            seen.append(seed)
            r = fake_plain()
            r["run_s"] = 1.0 + (seed - 1) / run.DRAW_STRIDE  # draw k runs 1 + k s
            return r

        buf = io.StringIO()
        with mock.patch.object(run, "run_scenario", scenario), \
                mock.patch.object(run, "load_goldens", lambda: {}), \
                contextlib.redirect_stdout(buf):
            result = run.run_workload("bin", "work", "telemetry_leafspine", 1, 0.0, 0)
        self.assertEqual(seen, run.draw_seeds("telemetry_leafspine", 1))
        draws = len(seen)
        mean_run_s = sum(1.0 + k for k in range(draws)) / draws
        self.assertAlmostEqual(result["metrics"]["wall_per_sim_s"]["value"], mean_run_s / 2.0)

    def test_every_per_layer_metric_is_printed(self):
        result, text = self.run_quietly("telemetry_leafspine", 1)
        self.assertEqual(list(result["metrics"]), [n for n, _ in run.PER_LAYER])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertAlmostEqual(m["sim.run_s"], 1.2)
        self.assertAlmostEqual(m["trace.overhead"], 1.2)
        self.assertAlmostEqual(m["sim.unattributed_s"], 1.2 - 0.25 - 0.05)
        self.assertAlmostEqual(m["sim.telemetry.record_s"], 0.25)
        self.assertEqual(m["sim.profile.net.audit_tick.calls"], 0)
        self.assertIn("extra (not in BENCHMARK.json): sim.profile.new.site.calls", text)
        self.assertTrue(result["correct"])


if __name__ == "__main__":
    unittest.main()
