import dataclasses
import time
from fractions import Fraction as Q

import pytest

from helpers import abelian_spec, cached_context
from qtwist import UnsupportedPresetError, build_context, preset
from qtwist.hopf import HopfContext
from qtwist.model import PRESET_NAMES
from qtwist.verify import (
    SUITES,
    _finish,
    check_alpha_exchange,
    check_classical_basis,
    check_classical_limit,
    check_cybe,
    check_hopf_axioms,
    check_intertwine,
    check_qybe,
    check_triangularity,
    check_twist_equation,
    run_suite,
)


def _mutate_tensor(alg, tensor, key=None, delta=Q(1)):
    terms = dict(tensor.terms)
    if key is None:
        key = sorted(terms)[0]
    terms[key] = terms.get(key, Q(0)) + delta
    return alg.tensor_element(tensor.legs, terms)


def test_trivial_pass_at_order_zero():
    ctx = build_context(preset("poincare-null-plane").with_order(0))
    assert check_twist_equation(ctx).passed
    assert check_qybe(ctx).passed
    assert check_triangularity(ctx).passed


def test_abelian_spec_suite_passes():
    ctx = build_context(abelian_spec())
    report = run_suite(ctx, "all")
    assert report.passed


def test_swap_identity_on_presets(poincare4, shift3):
    assert check_alpha_exchange(poincare4).passed
    assert check_alpha_exchange(shift3).passed


def test_exchanging_legs_two_and_three_turns_r12_r13_into_r13_r12():
    """The identity check_qybe relies on: exchanging tensor legs 2 and 3 is
    an algebra automorphism of A(x)A(x)A, so it holds for any 2-tensor R,
    genuine or not."""
    for name in PRESET_NAMES:
        ctx = cached_context(name, 3)
        genuine = ctx.universal_r
        mutated = _mutate_tensor(ctx.algebra, genuine, sorted(genuine.terms)[1])
        for r in (genuine, mutated):
            r12, r13 = r.embed(3, (0, 1)), r.embed(3, (0, 2))
            assert r13 * r12 == (r12 * r13).permute((0, 2, 1))
            assert r13 * r12 != r12 * r13


def test_classical_limit_and_basis(poincare4):
    assert check_classical_limit(poincare4).passed
    assert check_classical_basis(poincare4).passed
    assert check_cybe(poincare4).passed


def test_classical_basis_random_valid_specs():
    import random

    from helpers import random_valid_spec_2d

    rng = random.Random(53)
    for _ in range(5):
        ctx = build_context(random_valid_spec_2d(rng, order=3))
        assert check_classical_basis(ctx).passed
        assert check_twist_equation(ctx).passed


def test_corrupted_phi_detected(jordanian3):
    ctx = jordanian3
    alg = ctx.algebra
    # perturb the top-power coefficient: only the twist equation sees it
    key = max(ctx.phi.terms)
    bad = _mutate_tensor(alg, ctx.phi, key=key)
    result = check_twist_equation(ctx, phi=bad)
    assert not result.passed
    assert result.witness and result.residual_terms > 0


def test_corrupted_phi_unit_term_detected(jordanian3):
    ctx = jordanian3
    bad = _mutate_tensor(ctx.algebra, ctx.phi)  # the smallest key is the unit
    axioms = check_hopf_axioms(ctx, phi=bad)
    assert not axioms.passed
    assert "counital" in (axioms.witness or "") or "inverse" in (axioms.witness or "")


def test_corrupted_r_detected(jordanian3):
    ctx = jordanian3
    key = max(ctx.universal_r.terms)
    bad = _mutate_tensor(ctx.algebra, ctx.universal_r, key=key)
    failures = [
        check_triangularity(ctx, rmat=bad),
        check_qybe(ctx, rmat=bad),
        check_intertwine(ctx, rmat=bad),
    ]
    assert any(not f.passed for f in failures)


def test_witness_is_smallest_key(jordanian3):
    ctx = jordanian3
    bad = _mutate_tensor(ctx.algebra, ctx.universal_r, key=max(ctx.universal_r.terms))
    result = check_triangularity(ctx, rmat=bad)
    assert not result.passed
    # the reported witness must correspond to the smallest surviving key
    residual = bad.swap() * bad - ctx.algebra.tensor_unit(2)
    smallest = min(residual.terms)
    assert f"h^{smallest[0]}" in result.witness or smallest[0] <= 1


def test_suite_selectors(jordanian3):
    ctx = jordanian3
    names = {
        "twist": ["twist-equation"],
        "ybe": ["qybe"],
        "triangular": ["triangularity"],
        "hopf": ["hopf-axioms", "intertwining"],
        "classical": ["classical-limit", "cybe", "alpha-exchange", "classical-basis"],
    }
    for suite, expected in names.items():
        report = run_suite(ctx, suite)
        assert [r.name for r in report.results] == expected
        assert report.passed
    assert set(names) | {"all", "section3"} == set(SUITES)


def test_section3_only_for_null_plane(jordanian3, poincare4):
    with pytest.raises(UnsupportedPresetError):
        run_suite(jordanian3, "section3")
    report = run_suite(poincare4, "section3")
    assert [r.name for r in report.results] == [
        "null-plane-commutators",
        "null-plane-coproducts",
        "null-plane-classical-basis",
    ]
    assert report.passed


def test_all_suite_appends_null_plane_checks(poincare4, jordanian3):
    names_p = [r.name for r in run_suite(poincare4, "all").results]
    names_j = [r.name for r in run_suite(jordanian3, "all").results]
    assert names_p[: len(names_j)] == names_j
    assert names_p[len(names_j) :] == [
        "null-plane-commutators",
        "null-plane-coproducts",
        "null-plane-classical-basis",
    ]


def test_unknown_suite_rejected(jordanian3):
    from qtwist import ShapeError

    with pytest.raises(ShapeError):
        run_suite(jordanian3, "everything")


def test_order_monotonicity():
    """A suite passing at the preset order passes at every smaller order."""
    for order in (0, 1, 2):
        ctx = build_context(preset("jordanian-borel").with_order(order))
        assert run_suite(ctx, "all").passed


def test_evaluator_empties_each_part_and_counts_over_all_parts(jordanian3):
    """Each part's list is consumed as it is summed; parts count together, and
    the witness is the smallest term over all parts."""
    ctx = jordanian3
    r = ctx.universal_r
    genuine = [(1, r.swap(), r), (-1, ctx.algebra.tensor_unit(2))]
    left, right = [(Q(1, 2), r)], [(1, r.scale(2)), (-1, r), (-1, r.swap(), r)]
    parts = [("genuine", genuine), ("left", left), ("right", right), ("none", [])]
    result = _finish("demo", ctx, parts, time.perf_counter())
    assert genuine == left == right == []
    twice = len((r - ctx.algebra.tensor_unit(2)).nums)
    assert result.residual_terms == len(r.nums) + twice and not result.passed
    # The unit term 1 (x) 1 of R survives only on the left.
    assert result.witness == "left: 1/2 * 1 ⊗ 1"


def test_parallel_report_identical(jordanian3):
    from qtwist.cli import render_report_machine

    seq = run_suite(jordanian3, "all", jobs=1)
    par = run_suite(jordanian3, "all", jobs=4)
    assert render_report_machine(seq) == render_report_machine(par)


def test_stale_b_mutation_fails_classical_limit(jordanian3):
    spec = jordanian3.spec
    mutated = dataclasses.replace(
        spec, B=[[[spec.B[0][0][0] + 1]]]
    )
    stale = dataclasses.replace(jordanian3.derived, spec=mutated)
    report = run_suite(HopfContext(stale), "classical")
    failed = [r for r in report.results if not r.passed]
    assert any(r.name == "classical-limit" and r.witness for r in failed)


def test_stale_r_mutation_fails_twist(jordanian3):
    spec = jordanian3.spec
    mutated = dataclasses.replace(spec, r=[[spec.r[0][0] + 1]])
    stale = dataclasses.replace(jordanian3.derived, spec=mutated)
    report = run_suite(HopfContext(stale), "twist")
    assert not report.passed
