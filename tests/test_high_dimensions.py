"""The suite on dimensions above 3: the shift-ring presets of size 4 and 5.

`shift-ring(k)` has k H and k X generators.  The `all` suite passes on
size 4 at N=4 and on size 5 at N=3, and a seeded single-value mutant of
the R-matrix and of the twist of each is caught, with a witness.
"""

import random

import pytest

from helpers import mutate_tensor
from qtwist import build_context, preset
from qtwist.verify import run_suite

CASES = (("shift-ring(4)", 4), ("shift-ring(5)", 3))


def _context(name, order):
    ctx = build_context(preset(name).with_order(order))
    assert ctx.spec.m == ctx.spec.n > 3
    return ctx


def _caught(report):
    failed = [r for r in report.results if not r.passed]
    return bool(failed) and all(r.witness for r in failed)


@pytest.mark.parametrize("name, order", CASES)
def test_all_passes(name, order):
    report = run_suite(_context(name, order), "all")
    assert report.passed and report.order == order
    assert all(r.witness is None for r in report.results)


@pytest.mark.parametrize("name, order", CASES)
def test_a_seeded_rmat_and_phi_mutant_are_caught_with_a_witness(name, order):
    ctx = _context(name, order)
    rng = random.Random(f"high-dimensions/{name}")
    r, phi = ctx.universal_r, ctx.phi
    bad_r = mutate_tensor(ctx.algebra, r, rng.choice(sorted(r.terms)))
    bad_phi = mutate_tensor(ctx.algebra, phi, rng.choice(sorted(phi.terms)))
    assert _caught(run_suite(ctx, "all", rmat=bad_r))
    assert _caught(run_suite(ctx, "all", phi=bad_phi))
