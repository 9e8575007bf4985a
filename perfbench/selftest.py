"""Self-test of the benchmark itself (not of the program it measures).

    python3 perfbench/selftest.py           # inputs, names, percentile helper
    python3 perfbench/selftest.py --printed # also run every workload briefly

Checks that one seed always yields byte-identical inputs, that the metric
and workload names match ``BENCHMARK.json``, and that the percentile helper
reports its sample count and refuses a percentile with fewer than ten
samples beyond it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import inputs as I  # noqa: E402
from perfbench import run  # noqa: E402
from perfbench.common import (  # noqa: E402
    InsufficientSamples,
    grouped_percentile,
    percentile,
    replay_percentile,
)

MAKERS = {
    "site_ingest": I.ensemble_inputs,
    "query_serving": I.serving_inputs,
    "asr_tree": I.replication_inputs,
    "fig10_baselines": lambda seed: I.replication_inputs(seed, I.BASELINE_HORIZON),
}


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class Inputs(unittest.TestCase):
    def test_same_seed_same_bytes(self) -> None:
        for name, make in MAKERS.items():
            with self.subTest(workload=name):
                self.assertEqual(I.digest(make(7)), I.digest(make(7)))
                self.assertNotEqual(I.digest(make(7)), I.digest(make(8)))

    def test_baselines_replay_a_prefix_of_the_asr_schedule(self) -> None:
        asr, base = MAKERS["asr_tree"](3), MAKERS["fig10_baselines"](3)
        h = I.BASELINE_HORIZON
        self.assertEqual(base.indices, asr.indices[:h])
        self.assertEqual(base.value_range, asr.value_range)
        for field in ("precision", "truth"):
            self.assertTrue((getattr(base, field) == getattr(asr, field)[:h]).all())
        self.assertTrue((base.stream == asr.stream[: base.stream.size]).all())


class Names(unittest.TestCase):
    def test_declared_names_match(self) -> None:
        bench = declared()
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["per_layer"]], list(run.PER_LAYER)
        )


class Percentile(unittest.TestCase):
    def test_reports_count_and_ten_beyond(self) -> None:
        samples = [float(i) for i in range(1, 1001)]
        value, count = percentile(samples, 99)
        self.assertEqual((value, count), (990.0, 1000))
        self.assertEqual(sum(x > value for x in samples), 10)
        self.assertEqual(percentile(samples, 50), (500.0, 1000))

    def test_refuses_too_few_beyond(self) -> None:
        with self.assertRaises(InsufficientSamples):
            percentile([float(i) for i in range(999)], 99)
        with self.assertRaises(InsufficientSamples):
            percentile([1.0] * 15, 50)

    def test_grouped_votes_per_group(self) -> None:
        calm = [float(i) for i in range(1, 1001)]
        noisy = [x * 10.0 for x in calm]
        value, count = grouped_percentile([calm, noisy, calm], 99, 1000)
        self.assertEqual((value, count), (990.0, 3000))
        # A short remainder joins the last group instead of forming its own.
        self.assertEqual(grouped_percentile([calm, calm[:10]], 99, 1000)[1], 1010)
        with self.assertRaises(InsufficientSamples):
            grouped_percentile([calm[:500]], 99, 1000)

    def test_replays_vote_per_request(self) -> None:
        calm = [float(i) for i in range(1, 1001)]
        noisy = [x * 10.0 for x in calm]
        self.assertEqual(replay_percentile([calm, noisy, calm], 99, 1000), (990.0, 3000))
        # Too few requests per replay for p99: falls back to groups of units.
        short = calm[:500]
        self.assertEqual(
            replay_percentile([short] * 3, 99, 1000), grouped_percentile([short] * 3, 99, 1000)
        )

    def test_order_does_not_matter(self) -> None:
        samples = [float((i * 7919) % 1000) for i in range(1000)]
        self.assertEqual(percentile(samples, 99), percentile(sorted(samples), 99))


class Printed(unittest.TestCase):
    """Runs the command itself; enabled with ``--printed``."""

    def test_printed_names_match(self) -> None:
        bench = declared()
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = subprocess.run(
                        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                         "--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace)],
                        capture_output=True, text=True, cwd=ROOT, check=True,
                    )
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(
                        [(k, v["unit"]) for k, v in result["metrics"].items()],
                        [(m["name"], m["unit"]) for m in bench[key]],
                    )


if __name__ == "__main__":
    printed = "--printed" in sys.argv
    argv = [a for a in sys.argv if a != "--printed"]
    if not printed:
        argv += ["Inputs", "Names", "Percentile"]
    unittest.main(argv=argv)
