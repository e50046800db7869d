#!/usr/bin/env python3
"""Tests of the benchmark itself: metric names and units, per-layer
coverage, fault handling and seeding. Run from anywhere:

    python3 perfbench/test_perfbench.py

Each case runs lakebench through run.py (which builds it on first use) at
the benchmark's own dataset sizes with short phases. A traced run gets
8 seconds, so that each half of it sees a whole epoch of
epoch-jpeg-local.
"""

import functools
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("epoch-jpeg-local", "view-raw-s3", "ingest-relabel")
SECONDS = {0: 2, 1: 8}  # by --trace

# The workload each per-layer metric must be non-zero on: the one
# README.md says it should move an end-to-end metric on.
NONZERO_ON = {
    "first_batch_ms": "epoch-jpeg-local",
    "query_ms": "view-raw-s3",
    "ingest_samples_per_s": "ingest-relabel",
    "append_commit_ms_p50": "ingest-relabel",
    "append_commit_ms_p90": "ingest-relabel",
    "relabel_commit_ms_p50": "ingest-relabel",
    "point_read_ms_p50": "ingest-relabel",
    "point_read_ms_p99": "ingest-relabel",
    "compress.lz77_decode_us_per_sample": "epoch-jpeg-local",
    "compress.unfilter_us_per_sample": "epoch-jpeg-local",
    "compress.image_encode_us_per_sample": "ingest-relabel",
    "tsf.append_us_per_sample": "ingest-relabel",
    "tsf.read_row_ms": "ingest-relabel",
    "stream.stall_share": "epoch-jpeg-local",
    "stream.fetch_ms": "epoch-jpeg-local",
    "stream.decode_ms": "epoch-jpeg-local",
    # The shuffled epoch loader leaves DataloaderStats::units at 0 (see
    # README.md), so the unit figures are checked on the sequential view.
    "stream.units": "view-raw-s3",
    "stream.rows_per_unit": "view-raw-s3",
    "storage.get.count": "view-raw-s3",
    "storage.bytes_read_per_sample": "view-raw-s3",
    "storage.rows_per_chunk_fetch": "view-raw-s3",
    "storage.read_busy_ms": "view-raw-s3",
    "storage.put.count": "ingest-relabel",
    "storage.bytes_written_per_user_byte": "ingest-relabel",
    "sim.net_wait_ms": "view-raw-s3",
    "tql.parse_us": "view-raw-s3",
    "tql.execute_ms": "view-raw-s3",
    "tql.rows_examined_per_result": "view-raw-s3",
    "version.publish_ms": "ingest-relabel",
    "version.rebased_share": "ingest-relabel",
    "bench.schedule_lag_ms_p99": "ingest-relabel",
}
# Per-layer metrics that may read 0 on every workload of a correct build:
# failures and errors, conflicts and retries (the relabels and appends are
# disjoint), ranged reads (the loaders fetch whole chunks) and the tracing
# overhead, which is within noise of 0.
MAY_BE_ZERO = {"failed_op_share", "storage.errors", "version.conflicts",
               "version.retries", "storage.get_range.count",
               "obs.trace_overhead_share"}


@functools.lru_cache(maxsize=None)
def run(workload, seed=1, trace=0, inject=None):
    """Runs one workload; returns (exit code, input line, result dict)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS[trace]), "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 else None
    inputs = next((l for l in lines if l.startswith("lakebench ")), "")
    return done.returncode, inputs, result


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class MetricsTest(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = declared(section)
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, _, result = run(workload, trace=trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)


class PerLayerTest(unittest.TestCase):
    def test_each_metric_nonzero_where_it_applies(self):
        self.assertEqual(set(NONZERO_ON) | MAY_BE_ZERO,
                         set(declared("per_layer")))
        for name, workload in sorted(NONZERO_ON.items()):
            with self.subTest(metric=name, workload=workload):
                code, _, result = run(workload, trace=1)
                self.assertEqual(code, 0)
                self.assertGreater(result["metrics"][name]["value"], 0)


class FaultTest(unittest.TestCase):
    def check_fault(self, workload, inject):
        code, _, result = run(workload, trace=1, inject=inject)
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["metrics"]["failed_op_share"]["value"], 0)

    def test_wrong_byte_counts_as_failure(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_fault(workload, "wrong-byte")

    def test_storage_fault_counts_as_failure(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_fault(workload, "storage-fault")


class SeedTest(unittest.TestCase):
    def test_seed_changes_inputs_not_metric_set(self):
        _, inputs_a, result_a = run("view-raw-s3", seed=1)
        _, inputs_b, result_b = run("view-raw-s3", seed=2)
        _, inputs_a2, _ = run("view-raw-s3", seed=1)
        self.assertEqual(inputs_a, inputs_a2)
        self.assertNotEqual(inputs_a, inputs_b)
        self.assertEqual(set(result_a["metrics"]), set(result_b["metrics"]))


if __name__ == "__main__":
    unittest.main()
