import dataclasses
import random
from fractions import Fraction as Q

import pytest

from helpers import (
    abelian_spec,
    naive_mul_tensors,
    random_valid_spec_2d,
    rotated_null_plane_specs,
)
from qtwist import (
    AlgebraSpec,
    DegenerateRMatrixError,
    NoValidXiError,
    SpecError,
    build_context,
    choose_xi,
    cybe_residual,
    derive_alpha,
    h_prime_rank,
    preset,
    run_suite,
    validate_spec,
)
from qtwist.algebra import Monomial
from qtwist.model import classical_algebra

POINCARE_ALPHA = (
    ((0, 0, 1), (0, 0, 0), (0, 0, 0)),
    ((0, 0, 0), (0, 0, 1), (0, 0, 0)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
)


def _as_q(mats):
    return tuple(tuple(tuple(Q(v) for v in row) for row in m) for m in mats)


def test_poincare_alpha_matrices():
    derived = derive_alpha(preset("poincare-null-plane"))
    assert derived.alpha_up == _as_q(POINCARE_ALPHA)
    # r is the identity, so lowered equals raised
    assert derived.alpha_low == _as_q(POINCARE_ALPHA)
    assert derived.alpha_up[2] == _as_q(POINCARE_ALPHA)[2]


def test_poincare_alpha_roundtrip_from_b_and_r():
    spec = preset("poincare-null-plane")
    # alpha is recomputed from (B, r) at derivation time; the preset's B was
    # declared from the displayed matrices, so the round trip must be exact
    derived = derive_alpha(spec)
    for i in range(3):
        for mu in range(3):
            for nu in range(3):
                half = sum(
                    (Q(spec.r[j][mu]) * spec.B[i][j][nu] for j in range(3)), Q(0)
                )
                assert derived.alpha_up[i][mu][nu] == half / 2


def test_shift_ring_alpha_is_index_shift():
    derived = derive_alpha(preset("shift-ring(3)"))
    for mu in range(3):
        for sigma in range(3):
            for nu in range(3):
                want = Q(1) if sigma == mu + nu else Q(0)
                assert derived.alpha_low[mu][sigma][nu] == want


def test_jordanian_classical_limit_pins_convention():
    derived = derive_alpha(preset("jordanian-borel"))
    slice0 = {
        key: c for key, c in derived.bracket(0, 0).items() if key[0] == 0
    }
    assert slice0 == {(0, Monomial((1,), (0,))): Q(2)}


def test_lifted_bracket_matches_exponential_closed_form():
    """[H^mu, X_nu] equals (e^{2 alpha.H} - I)^mu_nu, with the right side
    assembled from scratch exponentials of the lifted generators."""
    from qtwist import build_context, exp_truncated
    from qtwist.algebra import SeriesMatrix

    ctx = build_context(preset("poincare-null-plane"))
    alg = ctx.algebra
    e = exp_truncated(ctx.lifted_h(2).scale(2))  # e^{2 H^3}
    one = alg.one()
    closed = {
        (0, 0): e - one,
        (1, 1): e - one,
        (2, 2): e - one,
        (0, 2): ctx.lifted_h(0).scale(2) * e,
        (1, 2): ctx.lifted_h(1).scale(2) * e,
    }
    for mu in range(3):
        hm = ctx.lifted_h(mu)
        for nu in range(3):
            x = alg.x(nu)
            got = hm * x - x * hm
            assert got == closed.get((mu, nu), alg.zero()), (mu, nu)


def test_validate_poincare_all_pass():
    report = validate_spec(preset("poincare-null-plane"))
    assert report.passed
    assert [c.name for c in report.checks] == [
        "jacobi",
        "invertible-r",
        "consistency",
        "alpha-commute",
        "alpha-symmetry",
        "cybe",
    ]


def test_validate_abelian_trivial():
    spec = abelian_spec()
    report = validate_spec(spec)
    assert report.passed
    derived = derive_alpha(spec)
    assert all(
        derived.alpha_up[i][mu][nu] == 0
        for i in range(2)
        for mu in range(2)
        for nu in range(2)
    )
    # classical table: everything commutes
    assert all(not derived.bracket(j, mu) for j in range(2) for mu in range(2))


def _brute_force_jacobi_violation():
    """Search tiny integer tensors for a 2+2 declaration violating Jacobi."""
    vals = (-1, 0, 1)
    for b1200 in vals:
        for b0110 in vals:
            B = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
            # beta_mu[i][j] = B[i][j][mu]; make beta_0 strictly upper, beta_1
            # strictly lower so they cannot commute when both are nonzero
            B[0][1][0] = b1200  # beta_0 upper entry
            B[1][0][1] = b0110  # beta_1 lower entry
            spec = AlgebraSpec(
                name="probe", m=2, n=2, B=B, r=[[1, 0], [0, 1]], order=2
            )
            report = validate_spec(spec)
            if not report.checks[0].passed:
                return spec, report
    raise AssertionError("no violation found in the search space")


def test_jacobi_violation_found_and_reported():
    spec, report = _brute_force_jacobi_violation()
    jacobi = report.checks[0]
    assert not jacobi.passed and jacobi.witness
    with pytest.raises(SpecError):
        derive_alpha(spec)


def test_degenerate_r_rejected():
    spec = AlgebraSpec(
        name="degenerate",
        m=2,
        n=2,
        B=[[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        r=[[1, 1], [1, 1]],
        order=2,
    )
    report = validate_spec(spec)
    assert not report.checks[1].passed
    with pytest.raises(DegenerateRMatrixError):
        derive_alpha(spec)


def test_cybe_zero_for_presets_and_abelian():
    assert cybe_residual(preset("poincare-null-plane")).is_zero()
    assert cybe_residual(preset("jordanian-borel")).is_zero()
    assert cybe_residual(preset("shift-ring(3)")).is_zero()
    assert cybe_residual(abelian_spec()).is_zero()


def test_cybe_jordanian_matches_bracket_oracle():
    """Expand the brackets of the three embeddings with the naive multiplier
    and confirm the same (vanishing) residual as the engine."""
    spec = preset("jordanian-borel")
    alg = classical_algebra(spec)
    two = alg.outer(alg.x(0), alg.h(0)) - alg.outer(alg.h(0), alg.x(0))
    r12 = two.embed(3, (0, 1))
    r13 = two.embed(3, (0, 2))
    r23 = two.embed(3, (1, 2))

    def comm(a, b):
        return naive_mul_tensors(alg, a, b) - naive_mul_tensors(alg, b, a)

    oracle = comm(r12, r13) + comm(r12, r23) + comm(r13, r23)
    assert oracle.is_zero()
    assert cybe_residual(spec) == oracle


def test_cybe_witness_names_generators():
    spec = preset("poincare-null-plane")
    r = [list(row) for row in spec.r]
    r[0][1] = 1
    cybe = validate_spec(dataclasses.replace(spec, r=r)).checks[-1]
    assert cybe.name == "cybe" and not cybe.passed
    assert any(name in cybe.witness for name in spec.h_names + spec.x_names)
    assert "Monomial(" not in cybe.witness


def test_h_prime_rank_presets():
    assert h_prime_rank(preset("poincare-null-plane")) == (3, None)
    for k in (1, 2, 3, 5):
        assert h_prime_rank(preset(f"shift-ring({k})")) == (k, None)


def test_h_prime_rank_with_central_extension():
    """Append a generator pair with an all-zero B slice: the new X is central,
    the reachable rank stays 3 of 4, and the kernel names the new direction."""
    base = preset("poincare-null-plane")
    B = [
        [
            [base.B[i][j][mu] if i < 3 and j < 3 and mu < 3 else 0 for mu in range(4)]
            for j in range(4)
        ]
        for i in range(4)
    ]
    spec = AlgebraSpec(
        name="extended",
        m=4,
        n=4,
        B=B,
        r=[[1 if i == j else 0 for j in range(4)] for i in range(4)],
        order=2,
    )
    assert validate_spec(spec).passed
    rank, witness = h_prime_rank(spec)
    assert rank == 3
    assert witness == (Q(0), Q(0), Q(0), Q(1))


def test_h_prime_rank_invariant_under_h_basis_change():
    base = preset("poincare-null-plane")
    for spec in rotated_null_plane_specs():
        assert validate_spec(spec).passed
        rank, witness = h_prime_rank(spec)
        assert (rank, witness) == (3, None)
        assert choose_xi(spec) == (Q(0), Q(0), Q(1))
        # the lowered coupling is a basis invariant
        assert derive_alpha(spec).alpha_low == derive_alpha(base).alpha_low


def test_rotated_null_plane_specs_pass_every_check():
    for spec in rotated_null_plane_specs():
        report = run_suite(build_context(spec), "all")
        assert [r.name for r in report.results if not r.passed] == []


_SINGULAR = (
    "r is singular; restrict the declaration to the subalgebra on "
    "which r is invertible before quantizing"
)
_JACOBI = "Jacobi identity fails: beta[0] and beta[1] do not commute at entry (0, 0)"


def _bad_specs():
    """Declarations breaking Jacobi, invertible r, or both, each with the
    error derive_alpha raises and the witness of the invertible-r check."""
    jacobi, _ = _brute_force_jacobi_violation()
    zeros = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    singular = [[1, 1], [1, 1]]
    return [
        (jacobi, SpecError, _JACOBI, None),
        (
            AlgebraSpec(name="singular", m=2, n=2, B=zeros, r=singular, order=2),
            DegenerateRMatrixError,
            _SINGULAR,
            "r is singular",
        ),
        (dataclasses.replace(jacobi, r=singular), SpecError, _JACOBI, "r is singular"),
        (
            AlgebraSpec(name="wide", m=1, n=2, B=[[[0, 0]]], r=[[1, 0]], order=2),
            DegenerateRMatrixError,
            "r must be square and invertible; only non-degenerate pairings are supported",
            "r is 1x2, not square",
        ),
    ]


def test_validation_verdicts_match_derivation():
    """derive_alpha raises exactly when jacobi or invertible-r fails, and
    choose_xi and h_prime_rank raise the same error."""
    rng = random.Random(53)
    good = [abelian_spec(), abelian_spec(3)]
    good += [random_valid_spec_2d(rng) for _ in range(5)]
    good += [preset(name) for name in ("poincare-null-plane", "jordanian-borel", "shift-ring(3)")]
    for spec in good:
        jacobi, invertible = validate_spec(spec).checks[:2]
        assert jacobi.passed and invertible.passed
        derive_alpha(spec)
    for spec, error, message, r_witness in _bad_specs():
        jacobi, invertible = validate_spec(spec).checks[:2]
        assert jacobi.passed == (error is not SpecError)
        assert (invertible.passed, invertible.witness) == (r_witness is None, r_witness)
        for derive in (derive_alpha, h_prime_rank, choose_xi):
            with pytest.raises(error) as err:
                derive(dataclasses.replace(spec, xi=None))
            assert str(err.value) == message


def test_choose_xi_returns_declared_values():
    assert choose_xi(preset("poincare-null-plane")) == (Q(0), Q(0), Q(1, 2))
    assert choose_xi(preset("shift-ring(3)")) == (Q(1), Q(0), Q(0))


def test_choose_xi_searches_when_absent():
    import dataclasses

    spec = dataclasses.replace(preset("poincare-null-plane"), xi=None)
    assert choose_xi(spec) == (Q(0), Q(0), Q(1))
    spec = dataclasses.replace(preset("shift-ring(3)"), xi=None)
    assert choose_xi(spec) == (Q(1), Q(0), Q(0))


def test_choose_xi_rejects_central_x():
    import dataclasses

    spec = dataclasses.replace(abelian_spec(), xi=None)
    with pytest.raises(NoValidXiError) as err:
        choose_xi(spec)
    assert err.value.center_witness is not None


def test_random_valid_specs_validate():
    rng = random.Random(71)
    for _ in range(15):
        spec = random_valid_spec_2d(rng)
        report = validate_spec(spec)
        assert report.passed, [c for c in report.checks if not c.passed]


def test_preset_unknown_name():
    with pytest.raises(SpecError):
        preset("nope")
    with pytest.raises(SpecError):
        preset("shift-ring(x)")


def test_spec_shape_validation():
    with pytest.raises(SpecError):
        AlgebraSpec(name="bad", m=2, n=2, B=[[[0]]], r=[[1, 0], [0, 1]])
    with pytest.raises(SpecError):
        AlgebraSpec(
            name="bad",
            m=1,
            n=1,
            B=[[[0]]],
            r=[[1]],
            h_names=("A",),
            x_names=("A",),
        )
