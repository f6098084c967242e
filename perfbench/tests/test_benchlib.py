"""Unit tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))
import benchlib  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_returns_an_observed_sample(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(benchlib.percentile(values, 0.5), 3.0)
        self.assertEqual(benchlib.percentile(values, 0.2), 1.0)
        self.assertEqual(benchlib.percentile(values, 0.21), 2.0)
        self.assertEqual(benchlib.percentile(values, 1.0), 5.0)

    def test_p99_of_a_thousand_samples(self):
        values = list(range(1, 1001))
        self.assertEqual(benchlib.percentile(values, 0.99), 990)
        self.assertEqual(benchlib.percentile(values, 0.95), 950)

    def test_rejects_empty_input_and_bad_share(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 0.5)
        with self.assertRaises(ValueError):
            benchlib.percentile([1.0], 0.0)


class TailSampleRuleTest(unittest.TestCase):
    def test_ten_samples_must_lie_beyond_a_tail(self):
        self.assertEqual(benchlib.samples_beyond(1000, 0.99), 10)
        self.assertTrue(benchlib.tail_supported(1000, 0.99))
        self.assertFalse(benchlib.tail_supported(999, 0.99))
        self.assertTrue(benchlib.tail_supported(200, 0.95))
        self.assertFalse(benchlib.tail_supported(199, 0.95))
        self.assertFalse(benchlib.tail_supported(0, 0.5))


LISTING = ("table1             Table I inventory\n"
           "fig1               fig1/ipc\n"
           "pb                 sec3e/plackett_burman\n")


def printed(*figures):
    """What experiments --no-summary prints for (title, text) pairs."""
    return "".join("===== %s =====\n\n%s\n" % f for f in figures)


class SplitFiguresTest(unittest.TestCase):
    def test_round_trips_each_figure(self):
        figs = [("fig1/ipc", "Figure 1\n--\nBP 1.0\n"),
                ("sec3e/plackett_burman", "PB\n\nwith a blank line\n")]
        self.assertEqual(benchlib.split_figures(printed(*figs)), figs)

    def test_figure_ending_in_a_blank_line(self):
        figs = [("fig1/ipc", "a\n\n"), ("sec3e/plackett_burman", "b\n\n")]
        self.assertEqual(benchlib.split_figures(printed(*figs)), figs)

    def test_maps_titles_to_ids(self):
        listing = benchlib.parse_listing(LISTING)
        self.assertEqual(listing["sec3e/plackett_burman"], "pb")
        self.assertEqual(listing["Table I inventory"], "table1")
        got = benchlib.figures_by_id(
            benchlib.split_figures(printed(("fig1/ipc", "x\n"),
                                           ("sec3e/plackett_burman", "y\n"))),
            listing)
        self.assertEqual(got, {"fig1": "x\n", "pb": "y\n"})

    def test_truncated_or_foreign_output_is_rejected(self):
        with self.assertRaises(ValueError):
            benchlib.split_figures("===== fig1/ipc =====\n\nx")
        # Cut before the separator: the text loses its final newline,
        # so it can no longer equal its golden file.
        self.assertEqual(
            benchlib.split_figures("===== fig1/ipc =====\n\nx\n"),
            [("fig1/ipc", "x")])
        with self.assertRaises(ValueError):
            benchlib.split_figures("MISSING(io)\n")
        with self.assertRaises(ValueError):
            benchlib.split_figures("===== fig1/ipc =====\nx\n\n")
        with self.assertRaises(ValueError):
            benchlib.split_figures("")

    def test_golden_mismatches(self):
        golden = {"fig1": "x\n", "pb": "y\n"}
        self.assertEqual(benchlib.golden_mismatches(golden, golden), [])
        self.assertEqual(
            benchlib.golden_mismatches({"fig1": "x\n", "pb": "z\n"}, golden),
            ["pb"])
        self.assertEqual(benchlib.golden_mismatches({"fig1": "x\n"}, golden),
                         ["pb"])
        extra = dict(golden, **{"?fig1/ipc": "x\n"})
        self.assertEqual(benchlib.golden_mismatches(extra, golden),
                         ["?fig1/ipc"])

    def test_duplicate_and_unknown_titles_never_match_golden(self):
        listing = benchlib.parse_listing(LISTING)
        got = benchlib.figures_by_id(
            [("fig1/ipc", "x\n"), ("fig1/ipc", "x\n"), ("new/fig", "z\n")],
            listing)
        self.assertEqual(benchlib.golden_mismatches(got, {"fig1": "x\n"}),
                         ["?dup:fig1", "?new/fig"])

    def test_golden_corpus_round_trips(self):
        golden_dir = os.path.join(os.path.dirname(__file__), "..", "..",
                                  "tests", "golden")
        if not os.path.isdir(golden_dir):
            self.skipTest("no golden corpus next to perfbench/")
        golden = benchlib.load_golden(golden_dir)
        figs = [(fig + "/x", text) for fig, text in sorted(golden.items())]
        listing = {title: title.split("/")[0] for title, _ in figs}
        got = benchlib.figures_by_id(
            benchlib.split_figures(printed(*figs)), listing)
        self.assertEqual(benchlib.golden_mismatches(got, golden), [])


class CounterDriftTest(unittest.TestCase):
    def test_equal_counters_do_not_drift(self):
        c = {"sims_run": 245, "cycles": 47959443}
        self.assertEqual(benchlib.counter_drift(c, dict(c)), [])

    def test_changed_missing_and_new_counters_drift(self):
        ref = {"sims_run": 245, "cycles": 47959443, "hits": 0}
        obs = {"sims_run": 244, "cycles": 47959443, "misses": 269}
        self.assertEqual(benchlib.counter_drift(ref, obs),
                         [("hits", 0, None), ("misses", None, 269),
                          ("sims_run", 245, 244)])

    def test_ledger_compares_runs_across_processes(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "ledger.json")
            first = benchlib.Ledger(path)
            self.assertEqual(first.check("code:w", {"n": 1}), [])
            again = benchlib.Ledger(path)
            self.assertEqual(again.check("code:w", {"n": 1}), [])
            self.assertEqual(again.check("code:w", {"n": 2}),
                             [("n", 1, 2)])
            # Other code or another workload starts its own entry.
            self.assertEqual(again.check("other:w", {"n": 2}), [])

    def test_failed_first_run_does_not_become_the_reference(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "ledger.json")
            # A crashed child leaves no counters; the run is not recorded.
            self.assertEqual(
                benchlib.Ledger(path).check("code:w", {}, record=False), [])
            self.assertFalse(os.path.exists(path))
            # The next, correct run is the reference instead.
            self.assertEqual(benchlib.Ledger(path).check("code:w", {"n": 1}),
                             [])
            later = benchlib.Ledger(path)
            self.assertEqual(later.check("code:w", {"n": 1}), [])
            # A failed run is still compared with the reference.
            self.assertEqual(later.check("code:w", {}, record=False),
                             [("n", 1, None)])

    def test_source_digest_follows_file_content(self):
        with tempfile.TemporaryDirectory() as d:
            os.makedirs(os.path.join(d, "src"))
            path = os.path.join(d, "src", "a.cc")
            with open(path, "w") as f:
                f.write("int a;\n")
            before = benchlib.source_digest(d, ["src"])
            self.assertEqual(before, benchlib.source_digest(d, ["src"]))
            with open(path, "w") as f:
                f.write("int b;\n")
            self.assertNotEqual(before, benchlib.source_digest(d, ["src"]))


if __name__ == "__main__":
    unittest.main()
