#!/usr/bin/env python3
"""Fast self-tests of the benchmark itself (about half a minute).

    python3 perfbench/selftest.py

They check the seeded generator, the answer checker and the span
arithmetic, and that every workload runs end to end, untraced and traced,
on its reduced call list and reports every metric BENCHMARK.json lists.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import unittest

import run
import tracer
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")


def _inputs(name: str, seed: int, tag: str):
    """Build a seeded workload; return its argv lists (paths made relative)
    and the contents of the files it wrote."""
    workdir = os.path.join(SCRATCH, tag)
    os.makedirs(workdir)
    wl = workloads.build(name, seed, workdir, main=None)
    argvs = [[a.replace(workdir, "<dir>") for a in c.argv] for c in wl.calls]
    files = {}
    for fn in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, fn)) as fh:
            files[fn] = fh.read()
    return argvs, files


class Generator(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_same_seed_same_inputs(self):
        for name in ("certify-general", "search-check"):
            self.assertEqual(_inputs(name, 7, "a"), _inputs(name, 7, "b"))
            shutil.rmtree(SCRATCH)

    def test_other_seed_other_inputs(self):
        for name in ("certify-general", "search-check"):
            self.assertNotEqual(_inputs(name, 7, "a"), _inputs(name, 8, "b"))
            shutil.rmtree(SCRATCH)

    def test_jobs_twins_point_at_jobs_one_runs(self):
        os.makedirs(SCRATCH)
        wl = workloads.build("certify-general", 1, SCRATCH, main=None)
        twins = [c for c in wl.calls if c.same_as is not None]
        self.assertEqual(len(twins), 2)
        for c in twins:
            self.assertEqual(c.argv, wl.calls[c.same_as].argv + ["--jobs", "2"])
        for c in wl.reduced().calls:
            if c.same_as is not None:
                self.assertEqual(c.argv[:-2], wl.reduced().calls[c.same_as].argv)


class Oracles(unittest.TestCase):
    def test_lex_rank_matches_enumeration(self):
        for n, k in ((7, 3), (6, 1), (5, 5)):
            for rank, subset in enumerate(itertools.combinations(range(n), k)):
                self.assertEqual(workloads.lex_rank(subset, n), rank)

    def test_esym_violation_is_lex_first(self):
        # 1+2+98 = 101 = 0 mod 101 is the first zero 3-sum of these points.
        self.assertEqual(workloads.esym_violation([1, 2, 5, 98, 96], 3, 1, (101, 1)), [0, 1, 3])
        # XOR over GF(2^6): 1 ^ 2 ^ 3 = 0.
        self.assertEqual(workloads.esym_violation([1, 2, 4, 3], 3, 1, (2, 6)), [0, 1, 3])
        self.assertIsNone(workloads.esym_violation([1, 2, 4, 8], 3, 1, (2, 6)))


class Checker(unittest.TestCase):
    def setUp(self):
        self.call = workloads.Call(
            "verify failing", ["verify", "x.json"], 1,
            {"mds": False, "witness": [0, 1, 4], "schur_dim": 7, "verdict": "indeterminate"})
        self.answer = {"k": 3, "mds": False, "min_distance": None, "n": 8,
                       "schur_dim": 7, "verdict": "indeterminate", "witness": [0, 1, 4]}
        self.good = json.dumps(self.answer) + "\n"

    def test_right_answer_passes(self):
        self.assertEqual(workloads.check_answer(self.call, 1, self.good), [])

    def test_corrupted_exit_code_is_flagged(self):
        self.assertTrue(workloads.check_answer(self.call, 0, self.good))
        self.assertTrue(workloads.check_answer(self.call, "raised ValueError: x", self.good))

    def test_corrupted_witness_is_flagged(self):
        bad = json.dumps({**self.answer, "witness": [0, 1, 5]}) + "\n"
        self.assertTrue(workloads.check_answer(self.call, 1, bad))

    def test_non_json_is_flagged(self):
        self.assertTrue(workloads.check_answer(self.call, 1, "Traceback ..."))


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_child_cover(self):
        S = tracer.Span
        spans = [
            S("cli.main", 0.0, 10.0, None, 1),
            S("a", 1.0, 4.0, 0, 1),
            S("b", 3.0, 6.0, 0, 1),   # overlaps a: the cover of the root is 1..6
            S("c", 2.0, 3.0, 1, 1),
            S("a", 8.0, 9.0, 0, 1),
        ]
        self.assertEqual(tracer.self_times(spans), [4.0, 2.0, 3.0, 1.0, 1.0])

    def test_nested_same_name_counts_once_inclusive(self):
        S = tracer.Span
        spans = [S("families.construct", 0.0, 5.0, None, 1),
                 S("families.construct", 1.0, 4.0, 0, 1)]
        row = tracer.summarize(spans)["families.construct"]
        self.assertEqual(row["incl"], 5.0)
        self.assertEqual(row["self"], 5.0)
        self.assertEqual(row["count"], 2)

    def test_search_yield_counts_only_checking_searches(self):
        S = tracer.Span
        spans = [S("conditions.search_eval_set", 0.0, 4.0, None, 1, work=1),
                 S("conditions.check_esym", 1.0, 2.0, 0, 1, work=3),
                 S("conditions.check_esym", 2.0, 3.0, 0, 1, work=3),
                 S("conditions.search_eval_set", 5.0, 6.0, None, 2, work=1)]  # greedy
        self.assertEqual(tracer.layer_metrics(spans)["conditions.search_yield"], 0.5)


class Probe(unittest.TestCase):
    def test_ticks_during_a_pass_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with worker.SpeedProbe() as probe:
            end = time.perf_counter() + 0.5
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(probe.samples), 4)  # before, >= 2 ticks, after
        self.assertGreater(probe.spent_cpu, 0.0)
        self.assertLess(probe.spent_cpu, sum(probe.samples))  # boundary samples not charged
        self.assertGreater(probe.reference_s(), 0.0)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class BenchmarkFile(unittest.TestCase):
    def test_workloads_and_limits(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        for w in bench["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        for m in bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


class EndToEnd(unittest.TestCase):
    """Each workload through run.py on its reduced call list."""

    def _run(self, name: str, trace: int) -> dict:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "3",
             "--trace", str(trace), "--quick"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload(self):
        for name in workloads.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    out = self._run(name, trace)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(set(out["metrics"]), set(run.metric_units(section)))


if __name__ == "__main__":
    unittest.main()
