#!/usr/bin/env python3
"""Self-tests of the appbench benchmark. Run from the repository root:

    python3 appbench/test_appbench.py

- every workload, at a small scale, prints exactly the metrics BENCHMARK.json
  names (end-to-end with --trace 0, per-layer with --trace 1), each with its
  unit, and passes its output checks;
- the span coverage check rejects a traced run whose tracer drops a span
  kind (--drop-span);
- negative control: the ledger's audit check must flag Mode::Lazy, under
  which the eager/optimistic map is not opaque (Theorem 5.2), so audits see
  torn totals.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (appbench/run.py: the build step)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, seconds=1, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd + list(extra), cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=300)
    if proc.returncode != 0:
        raise AssertionError("run failed (%d): %s" % (
            proc.returncode, proc.stderr.decode(errors="replace")[-2000:]))
    lines = proc.stdout.decode().strip().splitlines()
    return json.loads(lines[-1])


class MetricNames(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.spec = load_spec()

    def check(self, workload, trace, section):
        result = run_bench(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in self.spec[section]}
        got = result["metrics"]
        self.assertEqual(set(got), set(want))
        for name, unit in want.items():
            self.assertEqual(got[name]["unit"], unit, name)
            self.assertIsInstance(got[name]["value"], (int, float), name)
        return got

    def test_end_to_end_metrics(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                got = self.check(w, 0, "end_to_end")
                for name, m in got.items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                got = self.check(w, 1, "per_layer")
                wal = [n for n in got
                       if n.startswith("wal.") or n == "setup.wal_open_ms"]
                if w == "jobs_wal":
                    for n in wal:
                        self.assertGreater(got[n]["value"], 0, n)
                else:
                    for n in wal:
                        self.assertEqual(got[n]["value"], 0, n)
                self.assertGreaterEqual(got["trace.coverage"]["value"], 0.99)

    def test_trace_out_writes_every_span(self):
        path = os.path.join(ROOT, ".bench_build", "test_spans.csv")
        result = run_bench("jobs_wal", 1, extra=["--trace-out", path])
        self.assertTrue(result["correct"], result)
        with open(path) as f:
            header = f.readline().strip()
            kinds = {int(line.split(",")[3]) for line in f}
        os.remove(path)
        self.assertEqual(header, "client,txn,attempt,kind,start_ns,dur_ns")
        # Call, Body, Commit, LapAcquire, LapPostOp and at least one Op kind.
        self.assertLessEqual({0, 1, 2, 4, 5}, kinds)
        self.assertTrue(any(k >= 6 for k in kinds))

    def test_workloads_listed(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for w in names:
            self.assertIn(w, run.WORKLOADS)


class CoverageCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_dropped_span_kinds_are_flagged(self):
        for kind in ("body", "commit", "op", "lap"):
            with self.subTest(kind=kind):
                result = run_bench("jobs_wal", 1, extra=["--drop-span", kind])
                self.assertFalse(result["correct"], kind)
                self.assertLess(result["metrics"]["trace.coverage"]["value"], 0.99)


class NegativeControl(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_lazy_ledger_audits_are_flagged(self):
        result = run_bench("ledger", 0, seconds=2, extra=["--stm-mode", "lazy"])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_eager_all_ledger_is_clean(self):
        result = run_bench("ledger", 0, seconds=2)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
