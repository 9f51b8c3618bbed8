"""Self-tests of the benchmark; a plain script, not part of the pytest suite.

    python3 bench/selftest.py            # all workloads, a few minutes
    python3 bench/selftest.py -k specs   # unittest's pattern filter

Checks that the extra group specs build to their stated orders, that two
seeds give identical invariants on every shared job, that the traced run
answers exactly like the untraced one, that two count runs with one seed
give identical counters, and that each per-layer metric is nonzero on the
workload that should exercise it (and zero where the layer does not run).
"""

from __future__ import annotations

import json
import sys
import unittest
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from commprob import groupspec  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

STATED_ORDERS = {
    "s5": 120,
    "s6": 720,
    "s7": 5040,
    "gl2_f4": 180,
    "gl2_f5": 480,
    "sl2_f7": 336,
    "sl2_f8": 504,
    "gl2_f7": 2016,
    "sl2_f13": 2184,
    "s5xs4": 2880,
}

# per-layer metric -> workload where it must be nonzero
NONZERO_ON = {
    "groupspec.parse_s": "warm_queries",
    "groups.generate_s": "finite_carrier",
    "groups.table_s": "finite_table",
    "groups.table_entries": "finite_table",
    "groups.carrier_products": "finite_carrier",
    "groups.mul_calls": "warm_queries",
    "fields.ops": "finite_table",
    "fields.ext_ops": "finite_table",
    "conjugacy.classes_s": "finite_carrier",
    "conjugacy.centralizer_s": "finite_carrier",
    "conjugacy.zclasses_s": "finite_carrier",
    "conjugacy.classes_calls": "finite_carrier",
    "conjugacy.classes_per_subgroup": "finite_carrier",
    "conjugacy.transporter_s": "finite_carrier",
    "conjugacy.transporter_calls": "finite_carrier",
    "conjugacy.transporter_candidates": "finite_carrier",
    "conjugacy.transporter_hit_ratio": "finite_carrier",
    "branching.matrix_s": "finite_carrier",
    "branching.verify_s": "finite_carrier",
    "branching.registry_s": "finite_carrier",
    "branching.registry_lookups": "finite_carrier",
    "branching.registry_hit_ratio": "finite_carrier",
    "branching.beta_total": "finite_carrier",
    "counting.oracle_s": "warm_queries",
    "counting.sequence_s": "warm_queries",
    "symbolic.tropical_s": "symbolic",
    "symbolic.exact_s": "symbolic",
    "symbolic.diagonal_s": "symbolic",
    "symbolic.psi_muls": "symbolic",
    "cli.run_s": "warm_queries",
}
# per-layer metric -> workloads where the layer does not run at all
ZERO_ON = {
    "symbolic.diagonal_s": ("finite_table", "finite_carrier", "warm_queries"),
    "symbolic.psi_muls": ("finite_table", "finite_carrier"),
    "fields.ops": ("symbolic",),
    "groups.table_entries": ("finite_carrier", "symbolic"),
    "cli.run_s": ("finite_table", "finite_carrier", "symbolic"),
}


class SpecTest(unittest.TestCase):
    def test_specs_build_to_stated_order(self):
        for name, order in STATED_ORDERS.items():
            with self.subTest(spec=name):
                text = (BENCH_DIR / "specs" / f"{name}.json").read_text(encoding="utf-8")
                group = groupspec.build_group(groupspec.parse_group_spec(text))
                self.assertEqual(group.order, order)

    def test_benchmark_lists_every_metric(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"] for m in spec["per_layer"]}, set(NONZERO_ON))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


class WorkloadTest(unittest.TestCase):
    """Runs every workload in worker processes, two at a time."""

    results: dict = {}

    @classmethod
    def setUpClass(cls):
        plan = []
        for workload in workloads.WORKLOADS:
            plan += [
                (workload, 1, "measure"),
                (workload, 2, "measure"),
                (workload, 1, "spans"),
                (workload, 1, "counts"),
                (workload, 1, "counts-again"),
            ]

        def work(item):
            workload, seed, mode = item
            return item, run.spawn(workload, seed, mode.replace("-again", ""), 0)

        with ThreadPoolExecutor(max_workers=2) as pool:
            cls.results = dict(pool.map(work, plan))

    def passes(self, workload, seed, mode):
        return self.results[(workload, seed, mode)]["passes"]

    def test_every_answer_matches_the_reference(self):
        for key, result in self.results.items():
            for p in result["passes"]:
                with self.subTest(run=key):
                    self.assertEqual(p["failed"], 0, p["failures"])

    def test_two_seeds_give_identical_invariants(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                one = self.passes(workload, 1, "measure")[0]["answers"]
                two = self.passes(workload, 2, "measure")[0]["answers"]
                shared = set(one) & set(two)
                if workload.startswith("finite"):
                    self.assertEqual(set(one), set(two))
                self.assertTrue(shared)
                self.assertEqual({k: one[k] for k in shared}, {k: two[k] for k in shared})

    def test_traced_answers_equal_untraced(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                plain = self.passes(workload, 1, "measure")[0]["answers"]
                traced = self.passes(workload, 1, "spans")[0]["answers"]
                counted = self.passes(workload, 1, "counts")[0]["answers"]
                self.assertEqual(traced, plain)
                self.assertEqual(counted, plain)

    def test_count_runs_repeat_exactly(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(
                    self.results[(workload, 1, "counts")]["metrics"],
                    self.results[(workload, 1, "counts-again")]["metrics"],
                )

    def per_layer(self, workload) -> dict:
        metrics = {
            k: v for k, v in self.results[(workload, 1, "spans")]["metrics"].items() if k.endswith("_s")
        }
        metrics.update(self.results[(workload, 1, "counts")]["metrics"])
        return metrics

    def test_per_layer_metrics_land_where_named(self):
        for name, workload in NONZERO_ON.items():
            with self.subTest(metric=name, workload=workload):
                self.assertGreater(self.per_layer(workload)[name], 0)
        for name, zero_on in ZERO_ON.items():
            for workload in zero_on:
                with self.subTest(metric=name, workload=workload):
                    self.assertEqual(self.per_layer(workload)[name], 0)


if __name__ == "__main__":
    unittest.main()
