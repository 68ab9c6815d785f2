"""Self-test of the benchmark at tiny sizes (L_max 4, Hermite degree 4).

    python3 perfbench/selftest.py

Checks that every metric ``BENCHMARK.json`` names is emitted with its unit,
that a NaN deviation and an exception each count as a failed check, and
that changing the seed changes only the random matrix draws.
"""

import contextlib
import io
import json
import math
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402  (needs the path above)
import spans  # noqa: E402
import workloads  # noqa: E402
from pblab import deformed, hermite  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 7


def run_tiny(workload, trace):
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0.01",
            "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        code = run.main(argv, sizes=workloads.TINY)
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


class MetricsEmitted(unittest.TestCase):
    def test_spec_matches_layer_table(self):
        declared = {(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]}
        table = {(name, unit, better) for name, unit, better, _, _ in run.LAYER_METRICS}
        table.add(("trace.overhead_s", "s", "lower"))
        self.assertEqual(declared, table)
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))

    def test_every_metric_has_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, lines, result = run_tiny(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), set(units))
                    for name, unit in units.items():
                        metric = result["metrics"][name]
                        self.assertEqual(metric["unit"], unit)
                        self.assertTrue(math.isfinite(metric["value"]))
                        self.assertTrue(any(line.startswith(f"metric {name} = ")
                                            and line.endswith(f" {unit}") for line in lines))


class FailedChecks(unittest.TestCase):
    def test_nan_deviation_fails(self):
        check = workloads._checked("x", 1.0, lambda: (math.nan, {}))
        self.assertTrue(check.failed)
        self.assertFalse(math.nan > 1.0)  # why the gate tests finiteness first
        self.assertTrue(workloads.Check("x", math.inf, 1.0).failed)
        self.assertFalse(workloads.Check("x", 0.5, 1.0).failed)

    def test_exception_fails(self):
        def boom():
            raise ArithmeticError("injected")

        check = workloads._checked("x", 1.0, boom)
        self.assertTrue(check.failed)
        self.assertIn("injected", check.error)

    def test_injected_into_a_pass(self):
        inputs = workloads.make_inputs("polynomial", SEED, workloads.TINY)

        def gram_raises(g, L):
            raise ValueError("injected")

        with mock.patch.object(hermite, "inner", lambda p, q: complex(math.nan)), \
                mock.patch.object(deformed, "biorth_gram", gram_raises):
            checks = {c.name: c for c in
                      workloads.run_pass("polynomial", inputs, spans.NullTracer(), 0)}
        self.assertTrue(checks["hermite.inner"].failed)
        self.assertFalse(checks["hermite.inner"].error)
        for label in ("shear", "random"):
            self.assertTrue(checks[f"deformed.biorth_gram.{label}"].failed)
            self.assertIn("injected", checks[f"deformed.biorth_gram.{label}"].error)
        self.assertFalse(checks["hermite.inner_exact"].failed)


class SeedChangesOnlyDraws(unittest.TestCase):
    def test_inputs(self):
        for workload in run.WORKLOADS:
            a = workloads.make_inputs(workload, 0, workloads.TINY)
            b = workloads.make_inputs(workload, 1, workloads.TINY)
            self.assertEqual(set(a), set(b))
            for key in set(a) - {"seed", "draws"}:
                self.assertEqual(a[key], b[key], key)
            if "draws" in a:
                self.assertNotEqual(a["draws"], b["draws"])
            self.assertEqual(a, workloads.make_inputs(workload, 0, workloads.TINY))

    def test_only_random_checks_move(self):
        for workload in ("operators", "polynomial"):
            runs = [workloads.run_pass(workload, workloads.make_inputs(workload, s, workloads.TINY),
                                       spans.NullTracer(), 0) for s in (0, 1)]
            self.assertEqual([c.name for c in runs[0]], [c.name for c in runs[1]])
            for a, b in zip(*runs):
                if not a.name.endswith(".random"):
                    self.assertEqual(a.deviation, b.deviation, a.name)


if __name__ == "__main__":
    unittest.main()
