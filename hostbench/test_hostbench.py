"""Tests of the host-cost benchmark itself.

    python3 -m unittest discover -s hostbench -p 'test_*.py'

Run from the root of a checkout. ExactCountTest builds the driver on
first use (as run.py does) and runs every workload for a few
iterations at two seeds.
"""

import json
import pathlib
import subprocess
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import ab  # noqa: E402
import analysis  # noqa: E402
import run  # noqa: E402


def span(sid, parent, start, end, name="x", it=1):
    return {"id": sid, "parent": parent, "start": start, "end": end,
            "name": name, "iter": it}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_owns_its_duration(self):
        self.assertEqual(analysis.self_times([span(0, -1, 2.0, 5.0)]),
                         {0: 3.0})

    def test_children_are_subtracted_once(self):
        spans = [span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 3.0),
                 span(2, 0, 2.0, 4.0),  # overlaps its sibling
                 span(3, 0, 6.0, 7.0), span(4, 3, 6.2, 6.4)]
        selfs = analysis.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - 3.0 - 1.0)
        self.assertAlmostEqual(selfs[1], 2.0)
        self.assertAlmostEqual(selfs[3], 1.0 - 0.2)
        self.assertAlmostEqual(selfs[4], 0.2)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, -1, 1.0, 2.0), span(1, 0, 0.5, 1.5)]
        self.assertAlmostEqual(analysis.self_times(spans)[0], 0.5)

    def test_layer_self_time_sums_per_iteration(self):
        spans = [span(0, -1, 0.0, 4.0, "body", 1),
                 span(1, 0, 0.0, 1.0, "sim.replay", 1),
                 span(2, 0, 2.0, 3.0, "sim.replay", 1),
                 span(3, -1, 10.0, 12.0, "body", 3),
                 span(4, 3, 10.0, 11.5, "os.mmap", 3)]
        layers = analysis.layer_self_time(spans)
        self.assertEqual(layers[1], {"body": 2.0, "sim.replay": 2.0})
        self.assertEqual(layers[3], {"body": 0.5, "os.mmap": 1.5})

    def test_chrome_trace_round_trip(self):
        trace = {"traceEvents": [
            {"name": "body", "ph": "X", "ts": 1000.0, "dur": 500.0,
             "args": {"span": 0, "parent": -1, "iter": 2}}]}
        (s,) = analysis.spans_from_chrome(trace)
        self.assertEqual((s["name"], s["iter"], s["parent"]), ("body", 2, -1))
        self.assertAlmostEqual(s["end"] - s["start"], 500e-6)


class StatisticsTest(unittest.TestCase):
    def test_percentile_interpolates(self):
        self.assertEqual(analysis.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(analysis.percentile([5], 99), 5)
        self.assertAlmostEqual(analysis.percentile(range(101), 99), 99.0)

    def test_count_mismatches(self):
        self.assertEqual(analysis.count_mismatches({"a": 1, "b": 2},
                                                   {"a": 1, "c": 2}),
                         ["b", "c"])


class AbRuleTest(unittest.TestCase):
    A = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]

    def test_gain_needs_nine_tenths_of_pairs_and_a_clear_gap(self):
        b = [x * 0.8 for x in self.A]
        self.assertEqual(ab.verdict(self.A, b, "lower", 0.1), "gain")
        b[0] = b[1] = 20.0  # B loses two pairs of ten
        self.assertNotEqual(ab.verdict(self.A, b, "lower", 0.1), "gain")

    def test_ties_count_for_neither_side(self):
        self.assertEqual(ab.wins(self.A, self.A, "lower"), (0, 0))
        self.assertEqual(ab.verdict(self.A, self.A, "lower", 0.1),
                         "within bound")

    def test_higher_is_better_metrics(self):
        b = [x * 1.5 for x in self.A]
        self.assertEqual(ab.verdict(self.A, b, "higher", 0.1), "gain")
        self.assertEqual(ab.verdict(b, self.A, "higher", 0.1), "loss")

    def test_noisy_parent_leaves_a_change_unresolved(self):
        a = [1.0, 2.0] * 5
        b = [1.5, 2.5] * 5
        self.assertEqual(ab.verdict(a, b, "lower", 0.1), "unresolved")

    def test_noisy_parent_is_unresolved_even_inside_the_bound(self):
        a = [1.0, 2.0] * 5
        b = [1.05, 2.05] * 5  # median 3 % worse, bound 10 %
        self.assertEqual(ab.verdict(a, b, "lower", 0.1), "unresolved")

    def test_noisy_parent_with_every_b_run_better_is_within_bound(self):
        a = [3.0, 6.0] * 5
        b = [2.0, 2.9] * 5  # better than every A run, but A is too noisy
        self.assertEqual(ab.verdict(a, b, "lower", 0.1), "within bound")


class TallyTest(unittest.TestCase):
    def it(self, ops, failures=(), aborted=False):
        return {"ops": ops, "failures": list(failures), "aborted": aborted,
                "warmup": False, "traced": False}

    def test_failed_iterations_fail_all_their_calls(self):
        its = [self.it(10), self.it(10, ["replica coherence violated"]),
               self.it(4, ["aborted: boom"], aborted=True)]
        attempted, failed, failures = run.tally(its)
        self.assertEqual((attempted, failed), (24, 14))
        self.assertEqual(len(failures), 2)

    def test_an_abort_before_any_call_still_fails_one(self):
        self.assertEqual(run.tally([self.it(0, ["aborted: x"], True)])[:2],
                         (1, 1))

    def test_aborted_iterations_are_not_measured(self):
        its = [dict(self.it(5), warmup=True),
               self.it(4, ["aborted: boom"], aborted=True)]
        self.assertFalse(analysis.measurable(its, trace=0))
        its.append(self.it(5))
        self.assertTrue(analysis.measurable(its, trace=0))
        self.assertFalse(analysis.measurable(its, trace=1))


class ExactCountTest(unittest.TestCase):
    """Every exact count repeats across runs at one seed, a different
    seed changes the counts, and the default seed matches the stored
    fingerprint."""

    @classmethod
    def setUpClass(cls):
        cls.root = pathlib.Path(__file__).resolve().parent.parent
        _, cls.binary = run.build(cls.root)

    def counts(self, workload, seed):
        proc = subprocess.run(
            [str(self.binary), "--workload", workload, "--seed", str(seed),
             "--seconds", "0.01", "--trace", "0", "--min-iters", "1"],
            capture_output=True, text=True, check=True)
        doc = json.loads(proc.stdout)
        for it in doc["iterations"]:
            self.assertEqual(it["failures"], [])
        self.assertEqual(run.check_counts(doc, seed, workload), [])
        return doc["iterations"][0]["counts"]

    def test_counts_repeat_and_follow_the_seed(self):
        exact = ("os.faults", "pt.pt_pages", "core.replica_pages",
                 "sim.walks", "tlb.misses", "sim.fused_ops",
                 "thp.collapses")
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.counts(workload, 7)
                for name in exact:
                    self.assertIn(name, first)
                self.assertEqual(self.counts(workload, 7), first)
                self.assertNotEqual(self.counts(workload, 8), first)

    def test_default_seed_matches_the_fingerprint(self):
        stored = json.loads(run.FINGERPRINTS.read_text())
        self.assertEqual(stored["seed"], run.DEFAULT_SEED)
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.counts(workload, run.DEFAULT_SEED),
                                 stored["workloads"][workload])

    def test_a_perturbed_count_fails_loudly(self):
        doc = {"iterations": [{"counts": {"sim.walks": 5.0},
                               "failures": []},
                              {"counts": {"sim.walks": 6.0},
                               "failures": []}]}
        (problem,) = run.check_counts(doc, 1, "replay-ms")
        self.assertIn("sim.walks", problem)


if __name__ == "__main__":
    unittest.main()
