"""A product split into its leading part and its reorder corrections.

Every pair of terms within the order has a leading term, ``c1 * c2`` at the
sum of the two keys: the product in the commutative associated graded ring.
`Algebra.mul_into` with ``part="lead"`` adds only those, and with
``part="corr"`` everything else, so the two make up the product term
for term, the leading part is symmetric, and the corrections of a product
whose pairs never move an X past an H are empty.
"""

import random
from fractions import Fraction as Q

import pytest

from helpers import cached_context, naive_mul_tensors, random_table, rotated_null_plane_specs
from qtwist import build_context
from qtwist.algebra import Algebra, Monomial, _from_parts
from test_accumulate import _clash_splits, _grouped_tensor, _twinned

ORDER = 3
POWERS = (0, 1, ORDER - 1, ORDER)


def _algebras():
    rng = random.Random("split/4x4")
    yield from (
        cached_context(name, ORDER).algebra
        for name in ("poincare-null-plane", "jordanian-borel", "shift-ring(3)")
    )
    yield build_context(next(rotated_null_plane_specs(order=ORDER))).algebra
    yield Algebra(4, 4, ORDER, random_table(rng, 4, 4, ORDER, max_terms=3, rational=True))


def _tensor(rng, alg, legs, h=True, x=True, terms=6):
    """Terms at powers 0, 1, ORDER - 1 and ORDER over denominators 1..5,
    with H parts only if `h` and X parts only if `x`."""
    out = {}
    for _ in range(terms):
        monos = tuple(
            Monomial(
                tuple(rng.randint(0, 1) if h else 0 for _ in range(alg.m)),
                tuple(rng.randint(0, 1) if x else 0 for _ in range(alg.n)),
            )
            for _ in range(legs)
        )
        out[(rng.choice(POWERS), monos)] = Q(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 5))
    return alg.tensor_element(legs, out)


def _part(alg, part, a, b):
    acc = {}
    alg.mul_into(acc, a, b, 1, part)
    return _from_parts(alg, a.legs, acc)


def _lead(alg, a, b):
    return _part(alg, "lead", a, b)


def _corr(alg, a, b):
    return _part(alg, "corr", a, b)


@pytest.mark.parametrize("legs", (1, 2, 3))
def test_lead_and_corrections_make_up_the_product(legs):
    """Random operands, and grouped ones whose right operand shares H parts
    on every set of clash legs (`test_accumulate._twinned`); the latter also
    against the oracle, but on the dense rotated table, where its rewriting
    takes seconds.  The sums share the tables of their algebra."""
    rng, grouped = random.Random(f"split/{legs}"), random.Random(f"split/grouped/{legs}")
    at_order, splits = 0, []
    for n, alg in enumerate(_algebras()):
        for i in range(4):
            if i < 3:
                a, b = _tensor(rng, alg, legs), _tensor(rng, alg, legs)
                assert len({c.denominator for c in a.terms.values()}) > 1
                start = _tensor(rng, alg, legs)
            else:
                a = _grouped_tensor(grouped, alg, legs, POWERS, terms=4)
                b = _twinned(alg, _grouped_tensor(grouped, alg, legs, POWERS, terms=4))
                splits += _clash_splits(alg, a, b)
                start = _tensor(grouped, alg, legs)
            at_order += any(k1 + k2 == ORDER for k1, _ in a.terms for k2, _ in b.terms)
            product = a * b
            if i == 3 and n != 3:  # the fourth algebra is the dense rotated one
                assert product == naive_mul_tensors(alg, a, b)
            assert _lead(alg, a, b) + _corr(alg, a, b) == product
            assert _lead(alg, a, b) == _lead(alg, b, a)
            # A Fraction scale, added to a non-empty accumulator.
            scale, acc = Q(-7, 4), {}
            start.add_into(acc)
            alg.mul_into(acc, a, b, scale, "lead")
            alg.mul_into(acc, a, b, scale, "corr")
            assert _from_parts(alg, legs, acc) == start + product.scale(scale)
    assert at_order
    assert {clash for clash, size, _ in splits if size > 1} == set(range(1, legs + 1))


@pytest.mark.parametrize("legs", (1, 2, 3))
def test_no_reordering_pair_leaves_no_corrections(legs):
    """A pure-H left operand or a pure-X right one moves no X past an H."""
    rng = random.Random(f"split/free/{legs}")
    for alg in _algebras():
        pure_h, pure_x = _tensor(rng, alg, legs, x=False), _tensor(rng, alg, legs, h=False)
        for a, b in ((pure_h, _tensor(rng, alg, legs)), (_tensor(rng, alg, legs), pure_x)):
            assert not a.is_zero() and not b.is_zero()
            assert _corr(alg, a, b).is_zero()
            assert _lead(alg, a, b) == a * b


def test_one_leg_leading_with_another_legs_correction_is_a_correction():
    """``X (x) X`` times ``H (x) H`` reorders on both legs.  Of its four leg
    combinations only the all-leading one is leading; the two that take one
    leg's leading row and the other's bracket are corrections."""
    alg = cached_context("jordanian-borel", ORDER).algebra
    h, x = Monomial((1,) * alg.m, (0,) * alg.n), Monomial((0,) * alg.m, (1,) * alg.n)
    a = alg.tensor_element(2, {(0, (x, x)): Q(1, 2)})
    b = alg.tensor_element(2, {(0, (h, h)): Q(-3)})
    hx = Monomial(h.h, x.x)
    corr = _corr(alg, a, b)
    assert corr.terms and not any(monos == (hx, hx) for _, monos in corr.terms)
    assert any(monos[0] == hx for _, monos in corr.terms)
    assert any(monos[1] == hx for _, monos in corr.terms)
    assert _lead(alg, a, b).terms == {(0, (hx, hx)): Q(-3, 2)}
    assert _lead(alg, a, b) + corr == naive_mul_tensors(alg, a, b)
