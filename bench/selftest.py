"""Tests of the benchmark itself.  Run: python3 bench/selftest.py

- Traced and untraced workers give byte-identical machine reports.
- Two traced workers give exactly the same counters: kernel pairs, monomial
  products, cache entries, residual terms.  These counts are the noise-free
  evidence a 2-CPU machine can give about a kernel change.
- A seed names the same inputs every time, under any PYTHONHASHSEED.

The workloads run here are cut down (lower order, fewer mutants) so the
whole file takes about 20 s; they exercise the same code paths.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from inputs import make_inputs  # noqa: E402
from tracer import CHECK_NAMES  # noqa: E402


def counters(layers):
    """The per-layer metrics that are counts, not times."""
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


class WorkerTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workdir = ROOT / ".bench_build" / f"selftest-{os.getpid()}"
        cls.workdir.mkdir(parents=True, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def worker(self, inputs, trace):
        path = self.workdir / "inputs.json"
        path.write_text(json.dumps(inputs), encoding="utf-8")
        cmd = [sys.executable, str(BENCH / "worker.py"), str(path), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=150)
        self.assertEqual(proc.returncode, 0)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def assert_traced_matches(self, inputs):
        plain = self.worker(inputs, 0)
        first = self.worker(inputs, 1)
        second = self.worker(inputs, 1)
        self.assertEqual(plain["failed"], 0)
        self.assertEqual(first["digest"], plain["digest"])
        self.assertEqual(second["digest"], plain["digest"])
        self.assertEqual(first["absent"], [])
        self.assertEqual(counters(first["layers"]), counters(second["layers"]))
        return first["layers"]

    def test_genuine_spec(self):
        inputs = {"kind": "genuine", "spec": {"preset": "poincare-null-plane", "order": 3}}
        layers = self.assert_traced_matches(inputs)
        self.assertGreater(layers["algebra.mul_tensors.pairs_over_order"], 0)
        self.assertGreater(layers["algebra.mono_mul.calls"], layers["algebra.mono_mul.distinct"])
        for check in CHECK_NAMES:
            self.assertGreater(layers[f"verify.{check}.self_s"], 0)
            self.assertEqual(layers[f"verify.{check}.residual_terms"], 0)

    def test_rotated_spec_file(self):
        inputs, _ = make_inputs("rotated-n3", 1, self.workdir, ROOT)
        inputs["spec"]["order"] = 2
        del inputs["reference"]
        layers = self.assert_traced_matches(inputs)
        self.assertGreater(layers["specfile.parse_spec_file.self_s"], 0)
        self.assertGreater(layers["model.choose_xi.self_s"], 0)
        self.assertGreater(layers["model.derive_alpha.calls"], 1)

    def test_mutants(self):
        inputs, _ = make_inputs("mutation-sweep", 1, self.workdir, ROOT)
        inputs["mutants"] = inputs["mutants"][::4]
        layers = self.assert_traced_matches(inputs)
        self.assertGreater(sum(layers[f"verify.{c}.residual_terms"] for c in CHECK_NAMES), 0)

    def test_seed_names_the_same_inputs(self):
        script = (
            "import sys, json; from pathlib import Path; "
            f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]; "
            "from inputs import make_inputs; "
            f"print(json.dumps(make_inputs('mutation-sweep', 7, Path('.'), Path('.'))[0]))"
        )
        outs = set()
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = subprocess.run([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env, timeout=60)
            self.assertEqual(proc.returncode, 0)
            outs.add(proc.stdout)
        self.assertEqual(len(outs), 1)
        other, _ = make_inputs("mutation-sweep", 8, self.workdir, ROOT)
        self.assertNotEqual(json.loads(outs.pop()), other)


if __name__ == "__main__":
    unittest.main()
