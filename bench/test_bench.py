"""Self-tests of the benchmark harness (stdlib unittest).

Run from the repository root:

    python3 -m unittest discover -s bench -p "test_*.py"
"""

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_ready = {}


def ready(name):
    """One set-up workload per name, shared by the tests."""
    if name not in _ready:
        workload = WORKLOADS[name](ROOT)
        workload.setup()
        _ready[name] = workload
    return _ready[name]


def tearDownModule():
    for workload in _ready.values():
        workload.close()


def first_ops(workload, seed, n=60):
    return list(itertools.islice(workload.ops(seed), n))


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


class SeedTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                workload = ready(name)
                self.assertEqual(first_ops(workload, 7), first_ops(workload, 7))
                self.assertNotEqual(first_ops(workload, 7), first_ops(workload, 8))

    def test_mix_is_balanced(self):
        cli = ready("cli_cold")
        kinds = [op["kind"] for op in first_ops(cli, 3, 6000)]
        for kind in cli.kinds:
            self.assertAlmostEqual(kinds.count(kind) / 6000, 1 / 6, delta=0.01)
        cost = {tuple(e["argv"]): e["cost_ms"] for e in cli.universe}
        per_kind = {k: sum(e["kind"] == k for e in cli.universe) for k in cli.kinds}
        mean = sum(e["cost_ms"] / (6 * per_kind[e["kind"]]) for e in cli.universe)
        for seed in range(10):
            ops = first_ops(cli, seed, 120)
            self.assertAlmostEqual(
                sum(cost[tuple(op["argv"])] for op in ops) / 120 / mean, 1, delta=0.05)
        pencils = [op["kind"] for op in first_ops(ready("pencil_heights"), 3, 80)]
        self.assertEqual((pencils.count("d8"), pencils.count("klein")), (60, 20))


class CheckTests(unittest.TestCase):
    def test_cli_corrupted_expectation_fails(self):
        cli = ready("cli_cold")
        op = next(op for op in cli.ops(1) if op["kind"] == "marks")
        _, outcome = cli.execute(op)
        self.assertTrue(cli.check(op, outcome))
        entry = cli.expected[tuple(op["argv"])]
        saved = entry["sha256"]
        entry["sha256"] = "0" * 64
        try:
            self.assertFalse(cli.check(op, outcome))
        finally:
            entry["sha256"] = saved

    def test_cli_nonzero_expected_exit_passes(self):
        cli = ready("cli_cold")
        argv = ["--format", "text", "verify-all", "--group", "S4"]
        self.assertEqual(cli.expected[tuple(argv)]["exit"], 1)
        op = {"kind": "verify-all", "argv": argv, "preset": "S4", "height_bits": None}
        _, outcome = cli.execute(op)
        self.assertTrue(cli.check(op, outcome))

    def test_sweep_corrupted_canonical_fails(self):
        sweep = ready("sweep_warm")
        op = next(sweep.ops(2))
        _, outcome = sweep.execute(op)
        self.assertTrue(sweep.check(op, outcome))
        rows = sweep.canonical[op["preset"]]
        action, equal, table = rows[op["config"]]
        rows[op["config"]] = (action, not equal, table)
        try:
            self.assertFalse(sweep.check(op, outcome))
        finally:
            rows[op["config"]] = (action, equal, table)

    def test_pencil_wrong_outcome_fails(self):
        pencils = ready("pencil_heights")
        op = {"kind": "d8", "a": -1, "b": 1, "case": 9, "c": (3, 7), "d": (-5, 1)}
        _, outcome = pencils.execute(op)
        self.assertTrue(pencils.check(op, outcome))
        self.assertFalse(pencils.check(dict(op, case=8), outcome))
        case, analysis, report = outcome
        moved = pencils.geo.ProjPoint((1, 1, 1))
        broken = type(analysis)(analysis.members, analysis.lines,
                                (moved,) + analysis.base[1:], analysis.sigma)
        self.assertFalse(pencils.check(op, (case, broken, report)))

    def test_klein_not_general_needs_degenerate_orbit(self):
        pencils = ready("pencil_heights")
        op = {"kind": "klein", "point": (1, 1, 1)}
        _, outcome = pencils.execute(op)
        self.assertIsInstance(outcome, pencils.geo.NotGeneral)
        self.assertTrue(pencils.check(op, outcome))
        general = {"kind": "klein", "point": (1, 2, 3)}
        self.assertFalse(pencils.check(general, outcome))

    def test_timeout_counts_as_failed(self):
        pencils = ready("pencil_heights")
        op = {"kind": "d8", "a": 1, "b": 1, "case": 8, "c": (10007, 1), "d": (1, 1)}
        saved = workloads.OP_TIMEOUT_S
        workloads.OP_TIMEOUT_S = 0.2
        try:
            seconds, outcome = pencils.execute(op)
        finally:
            workloads.OP_TIMEOUT_S = saved
        self.assertIsInstance(outcome, workloads.OpTimeout)
        self.assertLess(seconds, 5)
        self.assertFalse(pencils.check(op, outcome))


class OutputTests(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        expect = {
            "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        for name in WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=name, trace=trace):
                    run = run_bench("--workload", name, "--seed", "5",
                                    "--seconds", "2", "--trace", trace)
                    self.assertEqual(run.returncode, 0, run.stderr)
                    result = json.loads(run.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expect[trace])

    def test_refuses_checkout_without_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            run = run_bench("--workload", "cli_cold", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(run.returncode, 0)
        self.assertNotIn('"metrics"', run.stdout)


if __name__ == "__main__":
    unittest.main()
