from fractions import Fraction as Q
from math import factorial

import pytest

from helpers import one_minus_exp_neg_coefficients, zero_series_matrix
from qtwist import TruncationError, series_apply
from qtwist.algebra import (
    Algebra,
    Monomial,
    SeriesMatrix,
    exp_coefficients,
    expm1_over_t_coefficients,
)


def _plain(m, n, order):
    return Algebra(m, n, order, {})


def test_exp_of_zero_matrix_is_identity():
    alg = _plain(1, 2, 3)
    z = zero_series_matrix(alg, 2)
    assert series_apply(exp_coefficients(3), z) == SeriesMatrix.identity(alg, 2)


def test_expm1_over_t_constant_term():
    alg = _plain(1, 2, 3)
    z = zero_series_matrix(alg, 2)
    got = series_apply(expm1_over_t_coefficients(3), z)
    assert got == SeriesMatrix.identity(alg, 2)


def test_one_minus_exp_neg_has_no_constant_term():
    coeffs = one_minus_exp_neg_coefficients(4)
    assert coeffs[0] == 0 and coeffs[1] == 1 and coeffs[2] == Q(-1, 2)


def test_valuation_zero_entry_rejected():
    alg = _plain(1, 1, 3)
    m = SeriesMatrix([[alg.h(0)]])  # power-zero entry
    with pytest.raises(TruncationError):
        series_apply(exp_coefficients(3), m)


def test_too_few_coefficients_rejected():
    alg = _plain(1, 1, 3)
    m = SeriesMatrix([[alg.h(0, power=1)]])
    with pytest.raises(TruncationError):
        series_apply([Q(1)], m)


def _poincare_alpha_h(order):
    """The coupling matrix of the null-plane preset, built by hand:
    rows [[H3, 0, H1], [0, H3, H2], [0, 0, H3]], one deformation power each."""
    alg = _plain(3, 3, order)

    def gen(i):
        return alg.element({(1, Monomial.h_gen(3, 3, i)): 1})

    z = alg.zero()
    return alg, SeriesMatrix(
        [
            [gen(2), z, gen(0)],
            [z, gen(2), gen(1)],
            [z, z, gen(2)],
        ]
    )


def test_poincare_exponential_closed_form():
    """exp(2 alpha.H) equals e^{2 h H3} * [[1,0,2h H1],[0,1,2h H2],[0,0,1]],
    with the expected entries expanded by an independent raw-dict oracle."""
    order = 4
    alg, alpha_h = _poincare_alpha_h(order)
    got = series_apply(exp_coefficients(order), alpha_h.scale(2))

    def exp_2h3_times(extra_h=None, shift=0):
        # terms of e^{2 h H3} * (optional 2 h H_i) as a raw dict
        out = {}
        for k in range(order + 1 - shift):
            coeff = Q(2**k, factorial(k))
            h = [0, 0, k]
            power = k + shift
            if extra_h is not None:
                coeff *= 2
                h[extra_h] += 1
            if power <= order:
                out[(power, Monomial(tuple(h), (0, 0, 0)))] = coeff
        return alg.element(out)

    diag = exp_2h3_times()
    assert got.entry(0, 0) == diag
    assert got.entry(1, 1) == diag
    assert got.entry(2, 2) == diag
    assert got.entry(0, 2) == exp_2h3_times(extra_h=0, shift=1)
    assert got.entry(1, 2) == exp_2h3_times(extra_h=1, shift=1)
    for i, j in ((0, 1), (1, 0), (2, 0), (2, 1)):
        assert got.entry(i, j).is_zero()


def test_series_matrix_product_stays_pure_h():
    alg, alpha_h = _poincare_alpha_h(3)
    square = alpha_h @ alpha_h
    for row in square.entries:
        for e in row:
            assert e.is_pure_h()


def test_exp_times_exp_neg_is_identity_matrix():
    alg, alpha_h = _poincare_alpha_h(4)
    plus = series_apply(exp_coefficients(4), alpha_h.scale(2))
    minus = series_apply(exp_coefficients(4), alpha_h.scale(-2))
    assert plus @ minus == SeriesMatrix.identity(alg, 3)
