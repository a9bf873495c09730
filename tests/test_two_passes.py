"""The product loop's two passes over a right operand's power buckets.

`Algebra.mul_into` adds a left term's leading terms, ``c1 * c2`` at
``key1 + key2``, with every term of each power bucket of the right operand
that the order leaves room for (the leading pass), and its reorder
corrections from the groups of those buckets that hold an H (the correction
pass).  So leading terms reach left terms up to the order less the right
operand's lowest power, and corrections only up to the order less its lowest
power that holds an H.  The right operands here hold only unit and pure-X
terms at their lowest power, so the two bounds differ, and the left operands
hold terms at both.
"""

import random
from fractions import Fraction as Q

import pytest

from helpers import cached_context, graded_mul_tensors, naive_mul_tensors, random_table
from qtwist.algebra import Algebra, Monomial, _from_parts

ORDER = 3
SCALE = Q(-5, 3)


def _algebras():
    yield from (
        cached_context(name, ORDER).algebra
        for name in ("poincare-null-plane", "jordanian-borel", "shift-ring(3)")
    )
    yield Algebra(2, 2, ORDER, random_table(random.Random("passes/2x2"), 2, 2, ORDER, max_terms=3, rational=True))


def _mono(rng, alg, h, x):
    """A random monomial; `h` and `x` say of its H and X exponents: 0 none, 1 any, 2 at least one."""
    hs, xs = ([rng.randint(0, 1) if kind else 0 for _ in range(dim)] for kind, dim in ((h, alg.m), (x, alg.n)))
    if h == 2:
        hs[rng.randrange(alg.m)] = 1
    if x == 2:
        xs[rng.randrange(alg.n)] = 1
    return Monomial(tuple(hs), tuple(xs))


def _coeff(rng):
    return Q(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 5))


def _left(rng, alg, legs, powers=(0, 1, ORDER - 1, ORDER)):
    """Terms with an X on every leg, two per power in `powers`."""
    return alg.tensor_element(
        legs,
        {(k, tuple(_mono(rng, alg, 1, 2) for _ in range(legs))): _coeff(rng) for k in powers for _ in (0, 1)},
    )


def _right(rng, alg, legs, h=True):
    """The unit and pure-X terms at power 0, and at powers 1 and 2 terms with an H on every leg,
    or with none if not `h`."""
    unit = Monomial.unit(alg.m, alg.n)
    terms = {(0, (unit,) * legs): _coeff(rng)}
    terms.update({(0, tuple(_mono(rng, alg, 0, 1) for _ in range(legs))): _coeff(rng) for _ in range(2)})
    for k in (1, 2):
        for _ in range(3):
            terms[(k, tuple(_mono(rng, alg, 2 if h else 0, 1) for _ in range(legs)))] = _coeff(rng)
    return alg.tensor_element(legs, terms)


def _part(alg, a, b, part):
    acc = {}
    alg.mul_into(acc, a, b, SCALE, part)
    return _from_parts(alg, a.legs, acc)


@pytest.mark.parametrize("legs", (1, 2, 3))
def test_both_passes_make_up_the_product_at_both_tops(legs):
    """``None`` is the oracle's product, "lead" the graded product, and "corr"
    the rest.  Left terms at the corrections' top, the order less 1, have
    corrections; those one above it, at the order, have leading terms only."""
    rng = random.Random(f"passes/{legs}")
    corrected = 0
    for alg in _algebras():
        a, b = _left(rng, alg, legs), _right(rng, alg, legs)
        whole, lead, corr = (_part(alg, a, b, part) for part in (None, "lead", "corr"))
        assert whole == naive_mul_tensors(alg, a, b).scale(SCALE)
        assert lead == graded_mul_tensors(alg, a, b).scale(SCALE) == _part(alg, b, a, "lead")
        assert corr == whole - lead
        at_top, above = (
            alg.tensor_element(legs, {key: c for key, c in a.terms.items() if key[0] == k})
            for k in (ORDER - 1, ORDER)
        )
        assert not _part(alg, above, b, "lead").is_zero()
        assert _part(alg, above, b, "corr").is_zero()
        assert _part(alg, above, b, None) == graded_mul_tensors(alg, above, b).scale(SCALE)
        assert _part(alg, at_top, b, None) == naive_mul_tensors(alg, at_top, b).scale(SCALE)
        corrected += not _part(alg, at_top, b, "corr").is_zero()
        # Both parts into one accumulator that already holds terms.
        acc, start = {}, _left(rng, alg, legs)
        start.add_into(acc)
        alg.mul_into(acc, a, b, SCALE, "corr")
        alg.mul_into(acc, a, b, SCALE, "lead")
        assert _from_parts(alg, legs, acc) == start + whole
    assert corrected


@pytest.mark.parametrize("legs", (1, 2, 3))
def test_a_right_operand_with_no_h_has_no_corrections(legs):
    rng = random.Random(f"passes/no-h/{legs}")
    for alg in _algebras():
        a, b = _left(rng, alg, legs), _right(rng, alg, legs, h=False)
        assert b.is_pure_h() is False and not _part(alg, a, b, "lead").is_zero()
        assert _part(alg, a, b, "corr").is_zero()
        assert _part(alg, a, b, None) == _part(alg, a, b, "lead") == naive_mul_tensors(alg, a, b).scale(SCALE)
