"""The benchmark's own tests.

    python3 bench/selftest.py

They run small ops in this process.  They check that tracing changes no
output byte and that the main thread's top-level spans cover the traced
``solve_s`` to within SPAN_TOLERANCE.  They check that the wrappers sit at
every binding and are removed afterwards, that pool threads keep their own
span stacks, and that BENCHMARK.json declares the metrics run.py reports.  And they check that each failure the benchmark must catch
fails the op: a changed output byte, a ``verify`` FAIL and an all-zero
lift.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import passes
import worker
import workloads
from spans import Patches, Tracer

# |1 - (top-level span time / traced solve_s)| must stay below this
SPAN_TOLERANCE = 0.05

SMALL_SLOPES = {"p": 11, "tame": 1, "prec": 3, "moments": 1}
SMALL_OPS = [
    workloads._cli("qf", "classes", "--level", 143, "--disc", 429, "--json"),
    workloads._cli("verify", "involution", "--level", 11, "--weight", 1,
                   "--nmax", 12),
    workloads._cli("shintani", "oc", "--p", 5, "--tame-n", 1, "--moments", 4,
                   "--padic-prec", 4, "--nmax", 12, seed=5),
    workloads._lib("space", SMALL_SLOPES),
    workloads._lib("slope-report", SMALL_SLOPES),
    dict(workloads._lib("lift", SMALL_SLOPES), seed=5),
    workloads._lib("eigenvalue", dict(SMALL_SLOPES, ell=2)),
]
EQUIVARIANCE = workloads._cli("verify", "equivariance", "--level", 11,
                              "--weight", 1, "--nmax", 6, "--ells", 3)
INVOLUTION = SMALL_OPS[1]
QF_JSON = SMALL_OPS[0]


def setUpModule():
    worker.import_package()


def run(ops, digests=None, tracer=None):
    return passes.run_ops(ops, digests or {}, tracer)


def problems(results):
    return [p for r in results for p in r["problems"]]


class Tracing(unittest.TestCase):

    def test_tracing_changes_no_output_byte(self):
        plain, _ = run(SMALL_OPS)
        self.assertEqual(problems(plain), [])
        tracer = Tracer()
        traced, solve_s = run(SMALL_OPS, tracer=tracer)
        self.assertEqual(problems(traced), [])
        for a, b in zip(plain, traced):
            self.assertEqual(a["output"], b["output"], a["key"])
        self.assertLess(abs(1 - tracer.top_s / solve_s), SPAN_TOLERANCE)
        self_s, spans = tracer.totals()
        self.assertGreater(spans, 0)
        for layer in ("cosets", "qf", "dist", "manin", "ocsymb", "linalg",
                      "lifting", "cli"):
            self.assertGreater(self_s[layer], 0, layer)

    def test_wrappers_sit_at_every_binding_and_are_removed(self):
        from shintani import cli, dist, lifting, ocsymb, qf

        originals = (qf.enumerate_classes, dist._act_blocks, lifting.theta_oc)
        with Patches() as patches:
            Tracer().install(patches)
            self.assertIs(lifting.enumerate_classes, qf.enumerate_classes)
            self.assertIsNot(qf.enumerate_classes, originals[0])
            self.assertIs(ocsymb._act_blocks, dist._act_blocks)
            self.assertIsNot(dist._act_blocks, originals[1])
            self.assertIs(cli.theta_oc, lifting.theta_oc)
            self.assertIsNot(lifting.theta_oc, originals[2])
        self.assertIs(lifting.enumerate_classes, originals[0])
        self.assertIs(ocsymb._act_blocks, originals[1])
        self.assertIs(cli.theta_oc, originals[2])

    def test_pool_threads_keep_their_own_stacks(self):
        tracer = Tracer()
        results, _ = run([INVOLUTION], tracer=tracer)
        self.assertEqual(problems(results), [])
        self.assertGreaterEqual(len(tracer._accs), 2)  # main + pool threads
        self.assertGreater(tracer.counts["lifting.coeffs"], 0)


class FailedOps(unittest.TestCase):

    def test_changed_output_byte_fails(self):
        from shintani import cli

        [good], _ = run([QF_JSON])
        digests = {QF_JSON["key"]: good["sha256"]}
        [same], _ = run([QF_JSON], digests)
        self.assertTrue(same["ok"], same["problems"])
        with Patches() as patches:
            patches.set(cli, "SCHEMA_VERSION", 2)
            [changed], _ = run([QF_JSON], digests)
        self.assertFalse(changed["ok"])
        self.assertIn("output differs from the recorded sha256",
                      changed["problems"])

    def test_verify_fail_fails(self):
        from shintani import lifting

        [good], _ = run([EQUIVARIANCE])
        self.assertTrue(good["ok"], good["problems"])
        halfint_Tl2 = lifting.halfint_Tl2
        with Patches() as patches:
            patches.rebind(lifting, "halfint_Tl2",
                           lambda e, l: halfint_Tl2(e, l).scale(2))
            [bad], _ = run([EQUIVARIANCE])
        self.assertIn("RESULT: FAIL", bad["output"])
        self.assertFalse(bad["ok"])
        self.assertIn("exit status 1", bad["problems"])

    def test_all_zero_lift_fails(self):
        from shintani import lifting

        [good], _ = run([INVOLUTION])
        self.assertTrue(good["ok"], good["problems"])
        theta = lifting.theta_classical
        with Patches() as patches:
            patches.rebind(lifting, "theta_classical",
                           lambda *a, **k: theta(*a, **k).scale(0))
            [vacuous], _ = run([INVOLUTION])
        # the identity compares zero with zero, so the report still passes
        self.assertTrue(vacuous["output"].rstrip().endswith("RESULT: PASS"))
        self.assertFalse(vacuous["ok"])
        self.assertTrue(any(p.startswith("vacuous")
                            for p in vacuous["problems"]))


class Harness(unittest.TestCase):

    def test_recorded_digests_cover_every_default_op(self):
        digests = passes.load_digests()
        for name in workloads.WORKLOADS:
            for op in workloads.ops(name, workloads.DEFAULT_SEED):
                self.assertIn(op["key"], digests)

    def test_declared_metrics_are_the_reported_ones(self):
        import run

        declared = json.loads(
            (Path(worker.BENCH).parent / "BENCHMARK.json").read_text())
        for key, reported in (("end_to_end", run.END_TO_END),
                              ("per_layer", run.PER_LAYER)):
            self.assertEqual({m["name"]: m["unit"] for m in declared[key]},
                             reported)
        self.assertEqual({w["name"] for w in declared["workloads"]},
                         set(workloads.WORKLOADS))

    def test_fails_without_the_package_source(self):
        bench = Path(worker.BENCH)
        bare = bench.parent / ".bench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(bench, bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(bench.parent / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "slopes",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            self.assertNotIn("correct", json.loads(line))


if __name__ == "__main__":
    unittest.main()
