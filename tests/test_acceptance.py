"""Acceptance suite: every criterion is an exact zero test at its stated order.

One test per criterion; each prints a PASS line on success so a verbose run
reads as a checklist.  No tolerances appear anywhere: `passed` means the
residual term map is empty.
"""

import random
import zlib
from fractions import Fraction as Q

from helpers import (
    cached_context,
    naive_normal_order,
    one_leg,
    random_algebra,
    random_word,
    run_single_mutation,
)
from qtwist import h_prime_rank, preset, validate_spec
from qtwist.cli import render_report_machine
from qtwist.verify import (
    check_classical_basis,
    check_intertwine,
    check_null_plane_classical_basis,
    check_null_plane_commutators,
    check_null_plane_coproducts,
    check_qybe,
    check_triangularity,
    check_twist_equation,
    run_suite,
)

ACCEPT = "ACCEPTANCE {}: PASS"


def test_twist_equation_exact(poincare4, jordanian6):
    for ctx in (poincare4, jordanian6):
        result = check_twist_equation(ctx)
        assert result.passed and result.residual_terms == 0, result
    print(ACCEPT.format("twist-equation (null-plane N=4, borel N=6)"))


def test_universal_r_matrix_exact(poincare4, jordanian6):
    for ctx in (poincare4, jordanian6):
        for check in (check_qybe, check_triangularity, check_intertwine):
            result = check(ctx)
            assert result.passed and result.residual_terms == 0, result
    print(ACCEPT.format("universal R-matrix: qybe, triangularity, intertwining"))


def test_classical_basis_exact(poincare4, jordanian6):
    for ctx in (poincare4, jordanian6):
        result = check_classical_basis(ctx)
        assert result.passed, result
    closed = check_null_plane_classical_basis(poincare4)
    assert closed.passed, closed
    print(ACCEPT.format("classical basis: brackets, primitivity, closed forms"))


def test_null_plane_closed_forms_at_order_five(poincare5):
    commutators = check_null_plane_commutators(poincare5)
    coproducts = check_null_plane_coproducts(poincare5)
    assert commutators.passed and commutators.residual_terms == 0, commutators
    assert coproducts.passed and coproducts.residual_terms == 0, coproducts
    print(ACCEPT.format("null-plane closed forms at N=5"))


def test_classical_preconditions():
    report = validate_spec(preset("poincare-null-plane"))
    assert report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["cybe"].passed
    assert by_name["consistency"].passed
    assert by_name["alpha-symmetry"].passed
    assert h_prime_rank(preset("poincare-null-plane")) == (3, None)
    for k in (2, 3, 4):
        assert h_prime_rank(preset(f"shift-ring({k})")) == (k, None)
    print(ACCEPT.format("classical preconditions and ranks"))


def test_oracle_equivalence_200_words():
    from helpers import genuine_algebras

    rng = random.Random(2024)
    pool = genuine_algebras()
    checked = 0
    while checked < 200:
        alg = pool[rng.randrange(len(pool))]
        word = random_word(rng, alg, max_len=6)
        assert alg.from_word(word).terms == one_leg(naive_normal_order(alg, word))
        checked += 1
    print(ACCEPT.format("oracle equivalence on 200 random words"))


def test_mutation_sensitivity_twenty_per_preset():
    picks = {
        "poincare-null-plane": 3,
        "jordanian-borel": 4,
        "shift-ring(3)": 3,
    }
    for name, order in picks.items():
        ctx = cached_context(name, order)
        rng = random.Random(zlib.crc32(name.encode()))
        for trial in range(20):
            target, report = run_single_mutation(ctx, rng)
            failed = [r for r in report.results if not r.passed]
            assert failed, f"{name} trial {trial}: mutation of {target} unnoticed"
            assert all(r.witness for r in failed)
    print(ACCEPT.format("mutation sensitivity, 20 single mutations per preset"))


def test_machine_reports_deterministic():
    first = cached_context("jordanian-borel", 3)
    text1 = render_report_machine(run_suite(first, "all", jobs=1))
    text2 = render_report_machine(run_suite(first, "all"))
    assert text1 == text2
    from qtwist import build_context

    fresh = build_context(preset("jordanian-borel").with_order(3))
    text3 = render_report_machine(run_suite(fresh, "all"))
    assert text1 == text3
    print(ACCEPT.format("machine reports byte-identical across runs"))
