#!/usr/bin/env python3
"""The benchmark's own tests: output checks, seeded inputs, percentiles.

    python3 servebench/test_servebench.py      (from the repository root)

Builds the generator into .bench_build/ first if needed.
"""

import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402

BUILD = Path.cwd() / ".bench_build"
_GEN = []


def gen(*args):
    if not _GEN:
        _GEN.append(str(run.build(BUILD)[1]))
    return subprocess.run([_GEN[0], *args], check=True, capture_output=True,
                          text=True, timeout=300).stdout


# A clean stream: a population node, a rigid job that ends, a filler that
# shrinks through a NEXT hand-over, and an evolving app that grows then
# shrinks.
CLEAN = [
    "pop 0 pop0 7 1,2",
    "grant 100 rigid0 10 NP 2 -1 none 3,4",
    "done 200 rigid0 10 0 -",
    "grant 300 rigid1 11 NP 2 -1 none 3,4",
    "pview 50 filler 0 6",
    "grant 60 filler 20 P 6 -1 none 5,6,7,8,9,10",
    "pview 60 filler 6 6",
    "pview 250 filler 6 4",
    "done 260 filler 20 1 9,10",
    "pview 260 filler 0 4",
    "grant 320 filler 21 P 4 20 none 5,6,7,8",
    "grant 100 evolving 30 NP 2 -1 none 11,12",
    "done 400 evolving 30 1 -",
    "grant 420 evolving 31 NP 4 30 grow 11,12,13,14",
    "done 500 evolving 31 1 13,14",
    "grant 520 evolving 32 NP 2 31 shrink 11,12",
]


class CheckerTest(unittest.TestCase):
    def test_clean_stream_passes(self):
        self.assertEqual(check.check_lines(CLEAN), [])

    def test_planted_double_grant_fails(self):
        errors = check.check_lines(
            CLEAN + ["grant 350 rigid0 12 NP 1 -1 none 4"])
        self.assertTrue(any("double-granted" in e for e in errors), errors)

    def test_double_grant_of_restored_node_fails(self):
        errors = check.check_lines(
            CLEAN + ["grant 350 rigid0 12 NP 1 -1 none 2"])
        self.assertTrue(any("double-granted" in e for e in errors), errors)

    def test_planted_early_kill_fails(self):
        errors = check.check_lines(CLEAN + ["killed 9000000000 filler"])
        self.assertTrue(any("killed without" in e for e in errors), errors)

    def test_kill_after_grace_period_passes(self):
        stream = ["pview 10 filler 0 5",
                  "grant 20 filler 1 P 5 -1 none 1,2,3,4,5",
                  "pview 30 filler 5 2",
                  f"killed {30 + check.VIOLATION_GRACE_NS + 1} filler"]
        self.assertEqual(check.check_lines(stream), [])

    def test_wrong_grant_size_fails(self):
        errors = check.check_lines(["grant 1 rigid0 1 NP 3 -1 none 1,2"])
        self.assertTrue(any("requested 3" in e for e in errors), errors)

    def test_shrink_must_return_exactly_the_released_ids(self):
        stream = ["grant 1 evolving 1 NP 3 -1 none 1,2,3",
                  "done 2 evolving 1 1 3",
                  "grant 3 evolving 2 NP 2 1 shrink 1,3"]
        errors = check.check_lines(stream)
        self.assertTrue(any("shrink" in e for e in errors), errors)

    def test_grow_must_keep_predecessor_ids(self):
        stream = ["grant 1 evolving 1 NP 2 -1 none 1,2",
                  "done 2 evolving 1 1 -",
                  "grant 3 evolving 2 NP 3 1 grow 1,3,4"]
        errors = check.check_lines(stream)
        self.assertTrue(any("grow" in e for e in errors), errors)

    def test_trimmed_handover_is_not_a_double_grant(self):
        # The filler keeps 1..4 for its successor; the RMS trims node 4 and
        # grants it to a rigid job in the same commit.
        stream = ["grant 1 filler 1 P 4 -1 none 1,2,3,4",
                  "done 2 filler 1 1 -",
                  "grant 3 rigid0 5 NP 1 -1 none 4",
                  "grant 4 filler 2 P 3 1 none 1,2,3"]
        self.assertEqual(check.check_lines(stream), [])
        stream[-1] = "grant 4 filler 2 P 4 1 none 1,2,3,4"
        self.assertTrue(check.check_lines(stream))

    def test_disconnect_frees_held_and_handed_over_ids(self):
        # At the end of a run the filler disconnects holding 1..3, and the
        # evolving app with 4, 5 kept for a successor that never started.
        # The RMS frees all five; a grant after the disconnects is clean,
        # the same grant before them is a double grant.
        stream = ["grant 10 filler 1 P 3 -1 none 1,2,3",
                  "grant 10 evolving 2 NP 2 -1 none 4,5",
                  "done 20 evolving 2 1 -",
                  "closed 30 filler",
                  "closed 30 evolving",
                  "grant 40 rigid0 3 NP 5 -1 none 1,2,3,4,5"]
        self.assertEqual(check.check_lines(stream), [])
        stream[-1] = "grant 25 rigid0 3 NP 3 -1 none 1,2,3"
        errors = check.check_lines(stream)
        self.assertTrue(any("double-granted" in e for e in errors), errors)


class PercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        self.assertIsNone(measure.pct(list(range(999)), 0.99))
        value = measure.pct(list(range(1000)), 0.99)
        self.assertIsNotNone(value)
        self.assertGreaterEqual(sum(1 for v in range(1000) if v > value), 10)

    def test_p50_needs_twenty_samples(self):
        self.assertIsNone(measure.pct(list(range(19)), 0.50))
        self.assertEqual(measure.pct(list(range(20)), 0.50), 9)

    def test_histogram_rule_matches(self):
        self.assertIsNone(measure.hist_pct([(1, 500), (2, 499)], 0.99))
        self.assertEqual(measure.hist_pct([(1, 990), (2, 10)], 0.99), 1)
        self.assertEqual(measure.hist_pct([(1, 989), (2, 11)], 0.99), 2)


class SeedTest(unittest.TestCase):
    def schedule(self, seed, workload="churn"):
        return gen("schedule", "--workload", workload, "--seed", str(seed),
                   "--seconds", "3")

    def test_same_seed_same_schedule(self):
        for workload in ("churn", "population"):
            a = self.schedule(7, workload)
            self.assertGreater(a.count("job "), 100)
            self.assertEqual(a, self.schedule(7, workload))
            self.assertNotEqual(a, self.schedule(8, workload))

    def population_digest(self, seed, name):
        work = BUILD / "test" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        journal = work / "pop.journal"
        gen("population", "--seed", str(seed), "--journal", str(journal),
            "--out", str(work))
        return gen("replay", "--journal", str(journal), "--digest")

    def test_same_seed_same_restored_population(self):
        a = self.population_digest(11, "a")
        self.assertGreaterEqual(a.count(" app "), 500)
        self.assertEqual(a, self.population_digest(11, "b"))
        self.assertNotEqual(a, self.population_digest(12, "c"))


if __name__ == "__main__":
    unittest.main()
