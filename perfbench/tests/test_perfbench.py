"""Tests of the benchmark's own code: oracles, statistics, metric names and
the result line.  Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.dont_write_bytecode = True

import oracles  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402

D = oracles.SEP


class DigraphOracle(unittest.TestCase):
    # a → b → c → a is a cycle; c → d leaves it; e → e is a self-loop.
    TEXT = "\n".join([
        "@relation R/1.",
        f"R(a{D}b).", f"R(b{D}c).", f"R(c{D}a).", f"R(c{D}d).", f"R(e{D}e).",
        "",
    ])

    def setUp(self):
        self.edges = oracles.parse_edges(self.TEXT)

    def test_parse_edges_reads_every_fact(self):
        self.assertEqual(self.edges, [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("e", "e")])
        self.assertEqual(oracles.nodes_of(self.edges), ["a", "b", "c", "d", "e"])

    def test_reachability_by_hand(self):
        reach = oracles.reachable(self.edges)
        self.assertEqual(reach["a"], {"a", "b", "c", "d"})
        self.assertEqual(reach["c"], {"a", "b", "c", "d"})
        self.assertEqual(reach["d"], set())
        self.assertEqual(reach["e"], {"e"})

    def test_closure_and_query_rows(self):
        reach = oracles.reachable(self.edges)
        rows = oracles.closure_rows(reach)
        self.assertEqual(len(rows), 4 + 4 + 4 + 0 + 1)
        self.assertIn(f"T(d{D}d)", oracles.closure_rows({"d": {"d"}}))
        self.assertNotIn(f"T(d{D}a)", rows)
        self.assertEqual(oracles.query_rows(reach, "e"), {f"T(e{D}e)"})
        self.assertEqual(oracles.query_rows(reach, "zz"), set())


class CheckOutput(unittest.TestCase):
    ROWS = {f"T(a{D}b)", f"T(a{D}c)"}
    HEADER = "T: 2 fact(s)"

    def test_accepts_exact_answer_after_warnings(self):
        out = f"warning[SD-W201]: x\nT: 2 fact(s)\n  T(a{D}c)\n  T(a{D}b)\n\n"
        self.assertTrue(oracles.check_output(out, self.HEADER, self.ROWS))

    def test_rejects_wrong_answers(self):
        bad = [
            f"T: 2 fact(s)\n  T(a{D}b)\n",                        # missing row
            f"T: 2 fact(s)\n  T(a{D}b)\n  T(a{D}b)\n",            # duplicate
            f"T: 3 fact(s)\n  T(a{D}b)\n  T(a{D}c)\n",            # header count
            f"T: 2 fact(s)\n  T(a{D}b)\n  T(a{D}c)\n  T(b{D}c)\n",  # extra row
            f"T: 2 fact(s)\n  T(a{D}b)\n  T(a{D}c)\ntrailer\n",   # stray line
        ]
        for out in bad:
            self.assertFalse(oracles.check_output(out, self.HEADER, self.ROWS), out)


class Report(unittest.TestCase):
    def test_metric_names_are_well_formed(self):
        for name in [*report.END_TO_END, *report.PRINTED, *report.PER_LAYER]:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

    def test_metrics_match_benchmark_json(self):
        spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, report.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, report.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         ["closure", "point_queries"])

    def test_attribution_accounts_for_the_wall_time(self):
        self_ms = {"io.load_program": 0.5, "io.load_instance": 4.0, "analysis.check": 0.25,
                   "rewrite.strip_dead": 0.25, "engine.lower": 7.0, "exec.run": 300.0,
                   "invocation": 9.0}
        attributed, unattributed, outside = report.attribution(420.0, 400.0, self_ms)
        self.assertEqual(attributed, 305.0)  # engine.lower and the glue are left out
        self.assertEqual(unattributed, 95.0)
        self.assertEqual(outside, 20.0)
        self.assertEqual(attributed + unattributed + outside, 420.0)

    def test_summary_statistics(self):
        values = [float(v) for v in range(20, 0, -1)]
        self.assertAlmostEqual(report.percentile(values, 95), 19.05)
        self.assertAlmostEqual(report.percentile(values, 10), 2.9)
        self.assertEqual(report.percentile([3.0], 10), 3.0)

    def test_rescale_uses_the_median_of_the_nearest_samples(self):
        ref = run.CALIB_REF_MS
        cal = run.Calibration(layers=None)
        # Taken at t = 0, 1, 2, 3, 4 s; the host is twice as slow from t = 2.
        cal.samples = [(0.0, ref), (1.0, ref), (2.0, ref * 2), (3.0, ref * 2), (4.0, ref * 9)]
        self.assertEqual(run.CALIB_NEAREST, 3)
        self.assertEqual(cal.rescale(10.0, 0.2), 10.0)   # nearest: t = 0, 1, 2
        self.assertEqual(cal.rescale(10.0, 3.1), 5.0)    # nearest: t = 2, 3, 4
        self.assertEqual(run.CALIB_PAIRS, 400 * 400)

    def test_result_line_is_one_json_object(self):
        units = {"wall_p50_ms": "ms", "setup_s": "s"}
        line = report.result_line(True, 7, 0, {"wall_p50_ms": 1.25, "setup_s": 0.5}, units)
        self.assertNotIn("\n", line)
        doc = json.loads(line)
        self.assertEqual(set(doc), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(doc["metrics"]["wall_p50_ms"], {"value": 1.25, "unit": "ms"})


if __name__ == "__main__":
    unittest.main()
