"""The correction pass of `Algebra.mul_into` runs once per class of left terms that share an X part.

The left terms that take corrections are gathered by their whole X part and
sorted by power.  A class fetches each subgroup's rows once, to the room of
its lowest power, and walks its members per row until a member's power
leaves that row no room.  The left operands here hold classes of several
terms at every power from 0 to the order, under different H parts, so that
a row reaches the low members of a class and not the high ones.  Each
product is compared with the naive rewriting oracle, whole and by part,
with a Fraction scale and at orders below the algebra's, and with the sum
of the products of the left operand's terms taken one at a time, each a
class of its own.
"""

import random
from fractions import Fraction as Q

import pytest

from helpers import cached_context, graded_mul_tensors, naive_mul_tensors, random_table
from qtwist.algebra import Algebra, Monomial, _from_parts

ORDER = 3
SCALE = Q(-7, 5)


def _algebras():
    yield from (
        cached_context(name, ORDER).algebra
        for name in ("poincare-null-plane", "jordanian-borel", "shift-ring(3)")
    )
    yield Algebra(2, 2, ORDER, random_table(random.Random("classes/2x2"), 2, 2, ORDER, max_terms=3, rational=True))


def _coeff(rng):
    return Q(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 5))


def _bits(rng, dim, at_least_one=False):
    bits = [rng.randint(0, 1) for _ in range(dim)]
    if at_least_one:
        bits[rng.randrange(dim)] = 1
    return tuple(bits)


def _classes(rng, alg, legs, count=3):
    """Terms in `count` classes, each an X part with an X on one leg or more and two H parts per power."""
    terms = {}
    for _ in range(count):
        xs = [_bits(rng, alg.n) for _ in range(legs)]
        xs[rng.randrange(legs)] = _bits(rng, alg.n, at_least_one=True)
        for k in range(ORDER + 1):
            for _ in range(2):
                terms[(k, tuple(Monomial(_bits(rng, alg.m), x) for x in xs))] = _coeff(rng)
    return alg.tensor_element(legs, terms)


def _right(rng, alg, legs):
    """The unit, and at powers 0 to 2 terms with an H on some legs and X parts at random."""
    terms = {(0, (Monomial.unit(alg.m, alg.n),) * legs): _coeff(rng)}
    for k in range(3):
        for _ in range(3):
            monos = [Monomial(_bits(rng, alg.m), _bits(rng, alg.n)) for _ in range(legs)]
            leg = rng.randrange(legs)
            monos[leg] = Monomial(_bits(rng, alg.m, at_least_one=True), monos[leg].x)
            terms[(k, tuple(monos))] = _coeff(rng)
    return alg.tensor_element(legs, terms)


def _part(alg, a, b, part, order=None):
    acc = {}
    alg.mul_into(acc, a, b, SCALE, part, order)
    return _from_parts(alg, a.legs, acc)


def _truncated(alg, el, order):
    return alg.tensor_element(el.legs, {key: c for key, c in el.terms.items() if key[0] <= order})


@pytest.mark.parametrize("legs", (1, 2, 3))
def test_classes_of_left_terms_match_the_oracle_by_part_and_at_lower_orders(legs):
    rng = random.Random(f"classes/{legs}")
    for alg in _algebras():
        a, b = _classes(rng, alg, legs), _right(rng, alg, legs)
        whole, lead = naive_mul_tensors(alg, a, b).scale(SCALE), graded_mul_tensors(alg, a, b).scale(SCALE)
        for order in (ORDER, ORDER - 1, 1):
            want, want_lead = _truncated(alg, whole, order), _truncated(alg, lead, order)
            assert _part(alg, a, b, None, order) == want
            assert _part(alg, a, b, "lead", order) == want_lead
            assert _part(alg, a, b, "corr", order) == want - want_lead
        # With no order given, the algebra's.
        assert _part(alg, a, b, None) == whole


@pytest.mark.parametrize("legs", (1, 2, 3))
def test_a_class_adds_what_its_members_add_one_at_a_time(legs):
    """A term alone is a class of one, with its own room; within a class, some members have
    corrections and others, higher up, have none."""
    rng = random.Random(f"classes/members/{legs}")
    straddled = 0
    for alg in _algebras():
        a, b = _classes(rng, alg, legs), _right(rng, alg, legs)
        for order in (ORDER, ORDER - 1):
            alone = [_part(alg, alg.tensor_element(legs, {key: c}), b, "corr", order) for key, c in a.terms.items()]
            assert _part(alg, a, b, "corr", order) == sum(alone[1:], alone[0])
            by_class = {}
            for (key, _), corr in zip(a.terms.items(), alone):
                by_class.setdefault(tuple(mono.x for mono in key[1]), set()).add(corr.is_zero())
            straddled += sum(found == {True, False} for found in by_class.values())
    assert straddled
