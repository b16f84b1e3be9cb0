#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 assetbench/test_assetbench.py

Runs every workload in short mode, traced and untraced, with its
checks; plants one wrong outcome per check and expects the run to be
refused; and runs the benchmark from a directory that holds only the
benchmark, where it must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace=0, plant="", seconds=1, cwd=ROOT, script=RUN):
    cmd = [sys.executable, str(script), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace),
           "--short"]
    if plant:
        cmd += ["--plant", plant]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


class ShortRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        proc, res = run(workload, trace=trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreater(res["attempted"], 0)
        self.assertEqual(res["failed"], 0)
        group = "per_layer" if trace else "end_to_end"
        expect = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(got, expect)
        if not trace:
            for name, m in res["metrics"].items():
                self.assertGreater(m["value"], 0, name)

    def test_every_workload(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)

    def test_traced_run_writes_trace_and_table(self):
        run("session_rtt", trace=1)
        out = ROOT / ".bench_out"
        doc = json.loads((out / "session_rtt.trace.json").read_text())
        pids = {e.get("pid") for e in doc["traceEvents"]}
        # Program (kernel + server), client recorder, benchmark spans.
        self.assertTrue({1, 2, 3} <= pids, pids)
        table = (out / "session_rtt.layers.txt").read_text()
        self.assertIn("residual", table)


class PlantedFaults(unittest.TestCase):
    """Each planted wrong outcome must be caught by its check."""

    CASES = [
        ("ledger_durable", "ledger_total"),   # total off by one
        ("ledger_durable", "lost_write"),     # acknowledged write lost
        ("ledger_durable", "ack_count"),      # commit count disagrees
        ("session_rtt", "rtt_read"),          # read misses last write
        ("extended_models", "nested"),        # aborted sub's write kept
        ("extended_models", "saga"),          # compensation not applied
        ("extended_models", "coop"),          # aborted member's write kept
    ]

    def test_checks_reject_planted_outcomes(self):
        for workload, plant in self.CASES:
            with self.subTest(plant=plant):
                proc, res = run(workload, plant=plant)
                self.assertEqual(proc.returncode, 1, proc.stderr[-2000:])
                self.assertFalse(res["correct"])
                self.assertIn("CHECK FAILED", proc.stderr)


class BareDirectory(unittest.TestCase):
    def test_fails_without_program_sources(self):
        bare = ROOT / ".bench_run" / f"bare-{os.getpid()}"
        try:
            bare.mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for p in SPEC["paths"]:
                shutil.copytree(ROOT / p, bare / p,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload",
                 SPEC["workloads"][0]["name"], "--seed", "1", "--seconds",
                 "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
