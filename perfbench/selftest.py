"""The benchmark's own checks, at a tiny size.

    python3 perfbench/selftest.py

* every metric BENCHMARK.json names is emitted, with its unit, for every
  workload, traced and untraced;
* the seed argument alone determines the generated inputs;
* a deliberately corrupted transcript is counted as a failed operation.
"""

import contextlib
import io
import json
import math
import os
import sys
import unittest
from unittest import mock

import run

run.pin_blas_threads()
sys.path.insert(0, os.path.join(run.ROOT, "src"))

import workloads  # noqa: E402  (needs the source path and the BLAS pin first)
from parcot import engine  # noqa: E402

FULL = workloads.WORKLOADS
TINY = {
    "lockstep": workloads.EngineWorkload(
        "lockstep", FULL["lockstep"].why, cells=[(1, 4), (4, 4), (16, 4)],
        prompt_len=8, max_answer=2, unit_seconds=1.0, slowdown_share=1.0,
    ),
    "long_context": workloads.EngineWorkload(
        "long_context", FULL["long_context"].why, cells=[(8, 4)], prompt_len=16, max_answer=4,
        unit_seconds=1.0, slowdown_share=1.0,
    ),
    "sweep": workloads.Sweep(budgets=(4, 8), paths=(1, 2), prompt_len=8, max_answer=2),
    "datagen": workloads.Datagen(shapes=((2, 20), (4, 30)), query_len=8, answer_len=4),
}


def run_tiny(workload: str, trace: int, seed: int = 3) -> dict:
    """One run of a tiny workload through the real entry point; its result line."""
    out = io.StringIO()
    with mock.patch.dict(workloads.WORKLOADS, TINY), contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0.01", "--trace", str(trace)])
    assert code == 0, out.getvalue()
    return json.loads(out.getvalue().strip().splitlines()[-1])


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_has_its_unit_on_every_workload(self):
        spec = run.load_spec()
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            units = {m["name"]: m["unit"] for m in listed}
            for name in TINY:
                with self.subTest(workload=name, trace=trace):
                    result = run_tiny(name, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(emitted, units)
                    for metric in result["metrics"].values():
                        self.assertTrue(math.isfinite(metric["value"]))
                    if trace == 0:
                        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_spec_and_code_agree(self):
        spec = run.load_spec()
        self.assertEqual({m["name"] for m in spec["per_layer"]}, set(run.MOVES))
        whys = {w["name"]: w["why"] for w in spec["workloads"]}
        self.assertEqual(whys, {name: w.why for name, w in FULL.items()})

    def test_traced_counts(self):
        metrics = run_tiny("lockstep", 1)["metrics"]
        self.assertEqual(metrics["model.weight_passes_per_step"]["value"], 16)
        self.assertEqual(metrics["kvcache.reprefill_slots"]["value"], 0)


class SeedDeterminesInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, workload in {**TINY, **FULL}.items():
            with self.subTest(workload=name):
                first = [workload.inputs(7, unit) for unit in range(3)]
                again = [workload.inputs(7, unit) for unit in reversed(range(3))][::-1]
                other = [workload.inputs(8, unit) for unit in range(3)]
                self.assertEqual(repr(first), repr(again))
                self.assertNotEqual(repr(first), repr(other))


class CorruptionCounted(unittest.TestCase):
    def test_corrupted_transcript_fails(self):
        honest = engine.run_summarization

        def corrupting(session, *args, **kwargs):
            sampled = honest(session, *args, **kwargs)
            for path in session.paths:  # one body token altered in every path
                path.tokens[1] = (path.tokens[1] + 1) % 256
            return sampled

        for name in ("lockstep", "long_context"):
            with self.subTest(workload=name), mock.patch.object(
                engine, "run_summarization", corrupting
            ):
                result = run_tiny(name, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLessEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
