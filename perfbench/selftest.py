"""The benchmark's own tests, on the quick (tiny p, m) sizes.

    python3 perfbench/selftest.py

Checks the result line against BENCHMARK.json for every workload in both
modes, that the correctness gate rejects wrong outputs, that inputs are
a function of the seed, and that the benchmark refuses to run without
the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from gate import Gate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


class ResultLine(unittest.TestCase):
    def check(self, workload: str, trace: int, spec_key: str) -> None:
        r = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                      "--trace", str(trace), "--quick")
        self.assertEqual(r.returncode, 0, r.stderr)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], r.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_end_to_end(self):
        for workload in workloads.FULL:
            with self.subTest(workload=workload):
                self.check(workload, 0, "end_to_end")

    def test_per_layer(self):
        for workload in workloads.FULL:
            with self.subTest(workload=workload):
                self.check(workload, 1, "per_layer")

    def test_spec_lists_every_workload(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.FULL))


class GateRejects(unittest.TestCase):
    def setUp(self):
        import tracecodes.closedform
        from tracecodes import cli
        self.gate = Gate(tracecodes.closedform)
        self.cli = cli

    def output(self, inv) -> str:
        import contextlib
        import io
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(self.cli.main(list(inv.argv)), 0)
        return buf.getvalue()

    def test_build(self):
        inv = workloads.make_job("enumerate", 3, quick=True)[0]
        out = self.output(inv)
        self.assertEqual(self.gate.check(inv, 0, out), [])
        doc = json.loads(out)
        doc["cwe"][0]["frequency"] += 1
        self.assertTrue(self.gate.check(inv, 0, json.dumps(doc)))
        self.assertTrue(self.gate.check(inv, 1, out))

    def test_verify(self):
        inv = workloads.make_job("verify", 3, quick=True)[0]
        out = self.output(inv)
        self.assertEqual(self.gate.check(inv, 0, out), [])
        doc = json.loads(out)
        doc["verification"] = [v for v in doc["verification"]
                               if not v["name"].startswith("scaled-set-equivalence")]
        self.assertTrue(self.gate.check(inv, 0, json.dumps(doc)))
        doc["verification"] = []
        self.assertTrue(self.gate.check(inv, 0, json.dumps(doc)))

    def test_sweep(self):
        inv = workloads.make_job("sweep", 3, quick=True)[0]
        out = self.output(inv)
        self.assertEqual(self.gate.check(inv, 0, out), [])
        self.assertTrue(self.gate.check(inv, 0, "\n".join(out.splitlines()[:-1])))
        self.assertTrue(self.gate.check(inv, 0, "not json\n" * len(inv.pairs)))


class Inputs(unittest.TestCase):
    def test_seed_zero_is_cli_defaults(self):
        for workload in workloads.FULL:
            for inv in workloads.make_job(workload, 0):
                self.assertNotIn("--b", inv.argv)
                self.assertNotIn("--modulus", inv.argv)

    def test_seed_determines_inputs(self):
        for workload in workloads.FULL:
            self.assertEqual(workloads.make_job(workload, 5), workloads.make_job(workload, 5))

    def test_flags_only_where_honoured(self):
        from tracecodes.fields import irreducible_polynomials, is_irreducible
        for seed in range(1, 6):
            for inv in workloads.make_job("verify", seed):
                self.assertNotIn("--b", inv.argv)
            for sweep in workloads.make_job("sweep", seed):
                self.assertNotIn("--modulus", sweep.argv)
                b = int(sweep.argv[sweep.argv.index("--b") + 1])
                self.assertTrue(all(b % p for p, _ in sweep.pairs))
            for inv in workloads.make_job("enumerate", seed):
                (p, m), = inv.pairs
                modulus = [int(c) for c in inv.argv[inv.argv.index("--modulus") + 1].split(",")]
                self.assertTrue(is_irreducible(modulus, p))
                self.assertNotEqual(tuple(modulus), next(irreducible_polynomials(p, m)))
                self.assertIn(int(inv.argv[inv.argv.index("--b") + 1]) % p, range(1, p))


class NoSources(unittest.TestCase):
    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
            tmp = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, tmp / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = run_bench("--workload", "enumerate", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=tmp)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
