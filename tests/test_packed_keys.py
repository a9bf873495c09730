"""Tensor terms keyed by packed exponent integers.

A key holds the power in its top field and then, leg by leg from leg 0,
each leg's H exponents and then its X exponents in fixed-width fields.  The
witness of a check is the smallest key, so integer order must be the order
of the decoded ``(power, (Monomial, ...))`` keys.  An exponent that does not
fit its field must raise, never carry into the next field.
"""

import random
from fractions import Fraction as Q

import pytest

from helpers import cached_context, random_table, random_tensor, rotated_null_plane_specs
from qtwist import ShapeError, build_context
from qtwist.algebra import _W, Algebra, Monomial

LIMIT = 1 << _W


def _algebras():
    rng = random.Random("packed/4x4")
    yield from (
        cached_context(name, 3).algebra
        for name in ("poincare-null-plane", "jordanian-borel", "shift-ring(3)")
    )
    yield build_context(next(rotated_null_plane_specs(order=3))).algebra
    yield Algebra(4, 4, 3, random_table(rng, 4, 4, 3))


@pytest.mark.parametrize("legs", (1, 2, 3))
def test_integer_order_is_the_order_of_decoded_keys(legs):
    rng = random.Random(f"packed/order/{legs}")
    for alg in _algebras():
        for _ in range(4):
            t = random_tensor(rng, alg, legs, max_terms=12, max_deg=3)
            decoded = [alg.decode(key, legs) for key in sorted(t.nums)]
            assert decoded == sorted(t.terms)
            assert alg.tensor_element(legs, t.terms) == t


def test_a_unit_leg_is_the_zero_field():
    alg = cached_context("poincare-null-plane", 3).algebra
    r = cached_context("poincare-null-plane", 3).universal_r
    r13 = r.embed(3, (0, 2))
    shifts = alg._layout(3)[1]
    assert all((key >> shifts[1]) & alg._leg_mask == 0 for key in r13.nums)
    assert r13.strip_unit_leg(1) == r
    assert r13.permute((0, 2, 1)) == r.embed(3, (0, 1))
    assert alg.tensor_unit(3).nums == {0: 1}


def test_an_exponent_at_the_field_limit_raises():
    alg = Algebra(2, 1, 3, {})
    top = Monomial((LIMIT - 1, 0), (0,))
    assert alg.element({(0, top): 1}).terms == {(0, (top,)): Q(1)}
    for mono in (Monomial((LIMIT, 0), (0,)), Monomial((0, 0), (LIMIT,))):
        with pytest.raises(ShapeError, match="field"):
            alg.element({(0, mono): 1})


def test_a_product_that_could_leave_a_field_raises_instead_of_wrapping():
    """Two exponents below half the limit add up inside their field; an
    operand at half the limit or above is refused before any pair is formed,
    also when it is prepared, on either side, and carries its keys' bits."""
    alg = Algebra(2, 1, 3, {})
    half = LIMIT // 2
    a = alg.element({(0, Monomial((half - 1, 0), (0,))): 1})
    assert (a * a).terms == {(0, (Monomial((2 * half - 2, 0), (0,)),)): Q(1)}
    b = alg.element({(0, Monomial((half, 0), (0,))): 1})
    for left, right in ((b, alg.h(0)), (alg.h(1), b), (b, b)):
        with pytest.raises(ShapeError, match="exponent"):
            left * right
    for left, right in ((b, alg.h(0)), (alg.h(1), b), (a, b), (b, a)):
        for pair in ((alg.prepare(left), right), (left, alg.prepare(right))):
            with pytest.raises(ShapeError, match="exponent"):
                alg.mul_into({}, *pair)
    assert alg.mul_tensors(alg.prepare(a), alg.prepare(a)) == a * a


def test_a_bracket_that_raises_an_exponent_past_the_field_raises():
    """Reordering ``X H`` inserts the bracket, whose H exponent is not bounded
    by the operands'; a leg product with one at half the limit raises."""
    big = Monomial((LIMIT // 2,), (0,))
    alg = Algebra(1, 1, 2, {(0, 0): {(1, big): 1}})
    with pytest.raises(ShapeError, match="exponent"):
        alg.x(0) * alg.h(0)
    assert alg.h(0) * alg.x(0) == alg.element({(0, Monomial((1,), (1,))): 1})
