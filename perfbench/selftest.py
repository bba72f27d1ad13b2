"""Self-tests of the benchmark: span and host-speed arithmetic, a reduced pass of each workload.

    python3 perfbench/selftest.py

Kept out of the package's pytest suite on purpose (the file name does not
match ``test_*.py``): the benchmark checks itself, not the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run
from hostspeed import MIN_SAMPLES, NOMINAL_KERNEL_S, HostSpeed
from spans import Recorder, instrument
from workloads import WORKLOADS

MANIFEST = json.loads((run.ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(run.SRC))
from twoscale import cli, verify  # noqa: E402


class SpanArithmetic(unittest.TestCase):
    def recorder(self, ticks):
        return Recorder(clock=iter(ticks).__next__)

    def test_self_time_is_duration_minus_children(self):
        # main [0, 10] calls f [1, 4] (which calls g [2, 3]) and f [5, 6]
        rec = self.recorder([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
        g = rec.wrap("grids", "g", lambda: None)
        f = rec.wrap("io", "f", lambda: g())
        f_leaf = rec.wrap("io", "f", lambda: None)
        main = rec.wrap("cli", "main", lambda: (f(), f_leaf()))
        main()
        m = rec.metrics()
        self.assertEqual(m["cli.self_s"], 6.0)
        self.assertEqual(m["io.self_s"], 3.0)
        self.assertEqual(m["grids.self_s"], 1.0)
        self.assertEqual((m["cli.calls"], m["io.calls"], m["grids.calls"]), (1, 2, 1))
        top, inner = rec.spans[0], rec.spans[2]
        self.assertIsNone(top.parent)
        self.assertIs(inner.parent, rec.spans[1])
        self.assertIs(rec.spans[1].parent, top)
        self.assertEqual(sum(s.self_time for s in rec.spans), top.duration)

    def test_recursive_call_counts_once_in_function_time(self):
        # criterion_1 [0, 8] calls itself [2, 5]
        rec = self.recorder([0.0, 2.0, 5.0, 8.0])
        inner = rec.wrap("verify", "criterion_1", lambda: None)
        outer = rec.wrap("verify", "criterion_1", inner)
        outer()
        m = rec.metrics()
        self.assertEqual(m["verify.criterion_1_s"], 8.0)
        self.assertEqual(m["verify.self_s"], 8.0)

    def test_span_closes_when_the_call_raises(self):
        rec = self.recorder([0.0, 1.0, 3.0, 4.0])

        def boom():
            raise ValueError("bad input")

        failing = rec.wrap("io", "f", boom)

        def caller():
            with self.assertRaises(ValueError):
                failing()

        rec.wrap("cli", "main", caller)()
        self.assertEqual(rec.metrics()["cli.self_s"], 2.0)
        self.assertEqual(rec.spans[1].duration, 2.0)
        self.assertEqual(rec._open, [])


class HostSpeedScale(unittest.TestCase):
    def test_median_over_the_window(self):
        host = HostSpeed([(float(t), 0.001 * (1 + t % 3)) for t in range(20)])
        self.assertEqual(host.kernel_s(3.0, 11.0), 0.002)  # 9 samples: 3 x 1, 3 x 2, 3 x 3 ms
        self.assertAlmostEqual(host.scale(3.0, 11.0), NOMINAL_KERNEL_S / 0.002)

    def test_short_window_borrows_the_nearest_samples(self):
        host = HostSpeed([(0.0, 9.0)] + [(10.0 + t, 0.002) for t in range(MIN_SAMPLES)] + [(50.0, 9.0)])
        self.assertEqual(host.kernel_s(9.5, 9.6), 0.002)

    def test_sampler_samples_and_ends(self):
        with HostSpeed() as host:
            proc = host._proc
            time.sleep(0.5)
        self.assertIsNotNone(proc.poll())
        self.assertGreater(len(host.samples), 3)
        self.assertTrue(all(d > 0 for _, d in host.samples))


class ReducedPasses(unittest.TestCase):
    """One reduced-size pass of each workload, untraced and then traced."""

    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(dir=run.OUT))

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def check_workload(self, name):
        pipeline = WORKLOADS[name](3, self.work, reduced=True)
        plain = run.run_pipeline(cli, pipeline)
        self.assertEqual(plain.problems, [])
        rec = Recorder()
        originals = (cli.main, dict(verify.CRITERIA))
        restore = instrument(rec)
        try:
            traced = run.run_pipeline(cli, pipeline)
        finally:
            restore()
        self.assertEqual((cli.main, verify.CRITERIA), originals)
        self.assertEqual(traced.problems, [])
        self.assertEqual(traced.digest, plain.digest)
        metrics = rec.metrics()
        self.assertGreater(metrics["cli.calls"], 0)
        declared = {m["name"] for m in MANIFEST["per_layer"]}
        self.assertEqual(set(metrics) | {"trace.overhead_s"}, declared)
        return metrics

    def test_synth_estimate(self):
        m = self.check_workload("synth-estimate-d2")
        self.assertGreater(m["covering.cells"], 0)
        self.assertGreater(m["io.bytes_written"], 0)
        self.assertGreater(m["synthesis.cubes"], 0)

    def test_attractor(self):
        m = self.check_workload("attractor-third")
        self.assertEqual(m["ifs.words"], (3**6 - 1) // 2)  # weights log2(3) <= 8
        self.assertEqual(m["covering.calls"], 0)

    def test_verify(self):
        m = self.check_workload("verify-all")
        self.assertEqual(m["verify.criteria_failed"], 1)


class Contract(unittest.TestCase):
    def test_manifest_workloads_are_the_built_ones(self):
        self.assertEqual({w["name"] for w in MANIFEST["workloads"]}, set(WORKLOADS))

    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            res = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "verify-all",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(res.returncode, 0)
        self.assertNotIn('"correct"', res.stdout)


if __name__ == "__main__":
    unittest.main()
