#!/usr/bin/env python3
"""Self-test of the benchmark: the count-valued metrics repeat exactly.

    python3 perfbench/test_bench.py      (from the root of a checkout)

router.*_per_read, router.prune_rate, ingest.epochs, live.epochs, f1 and
model_energy_nj_per_read must be identical across repeated runs and across
worker counts, on small versions of every workload.
"""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TRACE_COUNTS = ("router.passes_per_read", "router.hd_passes_per_read",
                "router.rotation_passes_per_read", "router.prune_rate",
                "ingest.epochs", "live.epochs")
END_TO_END_COUNTS = ("f1", "model_energy_nj_per_read")
SEED = 5
SECONDS = 2.0


def small(name, **sizes):
    wl = dict(run.WORKLOADS[name])
    wl.update(sizes)
    return wl


SMALL = {
    "ingest_large": small("ingest_large", records=2, tiles=300, reads=200),
    "search_bulk": small("search_bulk", records=2, tiles=200, reads=400),
    "live_churn": small("live_churn", records=2, tiles=300, reads=256,
                        live=dict(share=1.0, ticket_rate=20.0,
                                  mutation_rate=4.0, phased=False)),
    "circuit_noisy": small("circuit_noisy", records=1, tiles=300, reads=24),
}


class ExactCounts(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bins = run.build()
        cls.tmp = tempfile.TemporaryDirectory(dir=run.BUILD)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def measure(self, name, workers, rep, trace):
        wl = dict(SMALL[name], workers=workers)
        work = Path(self.tmp.name) / f"{name}-w{workers}-r{rep}-t{trace}"
        work.mkdir()
        checks = run.Checks()
        if trace:
            fn = run.measure_trace
        else:
            fn = run.measure_cli if wl["cli"] else run.measure_live
        metrics, _, failed, _, _ = fn(self.bins, name, wl, SEED, SECONDS,
                                      work, checks)
        self.assertEqual(failed, 0)
        return metrics, checks

    def check_workload(self, name):
        for trace, keys in ((1, TRACE_COUNTS), (0, END_TO_END_COUNTS)):
            runs = [self.measure(name, w, rep, trace)
                    for w, rep in ((4, 0), (4, 1), (1, 0))]
            first = {k: runs[0][0][k] for k in keys}
            for metrics, checks in runs[1:]:
                self.assertEqual({k: metrics[k] for k in keys}, first,
                                 f"{name} trace={trace}")
            for _, checks in runs:
                self.assertFalse(
                    [f for f in checks.failures if "needs >=" not in f])

    def test_ingest_large(self):
        self.check_workload("ingest_large")

    def test_search_bulk(self):
        self.check_workload("search_bulk")

    def test_live_churn(self):
        self.check_workload("live_churn")

    def test_circuit_noisy(self):
        self.check_workload("circuit_noisy")


if __name__ == "__main__":
    unittest.main()
