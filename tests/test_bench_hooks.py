"""The benchmark's tracer still finds every engine hook it reads.

``bench/tracer.py`` wraps engine functions from outside and lists each hook
it cannot find in `Tracer.absent`.  A traced suite must run unchanged, miss
no hook beyond ``Algebra.mul_elements`` (which the engine no longer has),
and count for every check the residual terms its report gives.
"""

import importlib.util
from pathlib import Path

import pytest

import qtwist.verify
from helpers import cached_context, mutate_tensor, rotated_null_plane_specs
from qtwist import build_context
from qtwist.verify import run_suite

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_class():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _null_plane():
    return run_suite(cached_context("poincare-null-plane", 3), "all", jobs=1)


def _rotated_rmat_mutant():
    ctx = build_context(next(rotated_null_plane_specs(order=3)))
    r = ctx.universal_r
    return run_suite(ctx, "all", jobs=1, rmat=mutate_tensor(ctx.algebra, r, max(r.terms)))


@pytest.mark.parametrize("run", (_null_plane, _rotated_rmat_mutant))
def test_traced_suite_counts_what_the_report_says(run):
    before = dict(vars(qtwist.verify))
    tracer = _tracer_class()()
    tracer.install()
    try:
        report = run()
    finally:
        tracer.uninstall()
    assert vars(qtwist.verify) == before
    assert set(tracer.absent) <= {"algebra.Algebra.mul_elements"}
    assert len(report.results) >= 9
    for result in report.results:
        key = f"verify.{result.name}.residual_terms"
        assert key in tracer.counts and tracer.counts[key] == result.residual_terms, key
    if run is _rotated_rmat_mutant:
        assert not report.passed
