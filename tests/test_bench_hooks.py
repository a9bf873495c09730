"""The benchmark's tracer still finds every engine hook it reads.

``bench/tracer.py`` wraps engine functions from outside and lists each hook
it cannot find in `Tracer.absent`.  A traced suite must run unchanged, miss
no hook beyond ``Algebra.mul_elements`` (which the engine no longer has),
count for every check the residual terms its report gives, and report every
per-layer metric that ``BENCHMARK.json`` declares: the tracer leaves out a
cache's count, not listing it in `absent`, when the attribute it reads is gone.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import qtwist.verify
from helpers import cached_context, mutate_tensor, rotated_null_plane_specs
from qtwist import build_context
from qtwist.verify import run_suite

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def _tracer_class():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _null_plane():
    ctx = cached_context("poincare-null-plane", 3)
    return ctx, run_suite(ctx, "all", jobs=1)


def _rotated_rmat_mutant():
    ctx = build_context(next(rotated_null_plane_specs(order=3)))
    r = ctx.universal_r
    return ctx, run_suite(ctx, "all", jobs=1, rmat=mutate_tensor(ctx.algebra, r, max(r.terms)))


@pytest.mark.parametrize("run", (_null_plane, _rotated_rmat_mutant))
def test_traced_suite_counts_what_the_report_says(run):
    before = dict(vars(qtwist.verify))
    tracer = _tracer_class()()
    tracer.install()
    try:
        ctx, report = run()
    finally:
        tracer.uninstall()
    assert vars(qtwist.verify) == before
    assert set(tracer.absent) <= {"algebra.Algebra.mul_elements"}
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    emitted = set(tracer.metrics([ctx], [], lambda start, end: end - start)) | {"trace.overhead_s"}
    assert sorted(declared - emitted) == []
    assert len(report.results) >= 9
    for result in report.results:
        key = f"verify.{result.name}.residual_terms"
        assert key in tracer.counts and tracer.counts[key] == result.residual_terms, key
    if run is _rotated_rmat_mutant:
        assert not report.passed
