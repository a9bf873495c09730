"""Targeted mutation coverage; the 20-per-preset sweep lives in acceptance."""

import random

import pytest

from helpers import cached_context, random_valid_spec_3d, run_single_mutation
from qtwist import build_context


@pytest.mark.parametrize("target", ["B", "r", "phi", "rmat"])
def test_each_target_kind_is_detected(target):
    ctx = cached_context("jordanian-borel", 4)

    class Forced(random.Random):
        def choice(self, seq):
            if tuple(seq) == ("B", "r", "phi", "rmat"):
                return target
            return super().choice(seq)

    forced = Forced(11)
    got_target, report = run_single_mutation(ctx, forced)
    assert got_target == target
    failed = [r for r in report.results if not r.passed]
    assert failed, f"mutation of {target} went unnoticed"
    assert all(r.witness for r in failed)


@pytest.mark.parametrize("target", ["B", "r", "phi", "rmat"])
def test_random_3d_spec_mutation_is_detected(target):
    """A seeded single mutation of a random valid spec with r != I, at order 2."""
    rng = random.Random(f"random-3d/{target}")
    ctx = build_context(random_valid_spec_3d(rng))
    assert ctx.lifted is not ctx

    class Forced(random.Random):
        def choice(self, seq):
            if tuple(seq) == ("B", "r", "phi", "rmat"):
                return target
            return super().choice(seq)

    got_target, report = run_single_mutation(ctx, Forced(rng.random()))
    assert got_target == target
    failed = [r for r in report.results if not r.passed]
    assert failed, f"mutation of {target} went unnoticed"
    assert all(r.witness for r in failed)


def test_b_mutation_names_classical_limit():
    ctx = cached_context("shift-ring(3)", 2)

    class ForceB(random.Random):
        def choice(self, seq):
            return "B" if "B" in seq else super().choice(seq)

    _, report = run_single_mutation(ctx, ForceB(5))
    names = {r.name for r in report.results if not r.passed}
    assert "classical-limit" in names


def test_phi_top_coefficient_mutation_hits_twist_equation(poincare4):
    from helpers import mutate_tensor
    from qtwist.verify import check_twist_equation

    key = max(poincare4.phi.terms)
    bad = mutate_tensor(poincare4.algebra, poincare4.phi, key)
    result = check_twist_equation(poincare4, phi=bad)
    assert not result.passed and result.witness
