import random
from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    cached_leg_products,
    naive_mul_elements,
    naive_mul_tensors,
    permute,
    random_algebra,
    random_element,
    random_table,
    random_tensor,
)
from qtwist import ShapeError, TruncationError, exp_truncated
from qtwist.algebra import Algebra, Monomial


def test_unit_laws():
    rng = random.Random(3)
    for _ in range(10):
        alg = random_algebra(rng)
        a = random_element(rng, alg)
        assert a * alg.one() == a
        assert alg.one() * a == a
        assert (a * alg.zero()).is_zero()


def test_h_square():
    alg = Algebra(1, 1, 3, {})
    h = alg.h(0)
    assert (h * h).terms == {(0, (Monomial((2,), (0,)),)): Q(1)}


def test_product_matches_oracle():
    rng = random.Random(5)
    for _ in range(40):
        alg = random_algebra(rng)
        a = random_element(rng, alg)
        b = random_element(rng, alg)
        assert a * b == naive_mul_elements(alg, a, b)


def test_tensor_product_matches_oracle():
    rng = random.Random(6)
    for _ in range(25):
        alg = random_algebra(rng, max_dim=2, max_order=3)
        a = random_tensor(rng, alg)
        b = random_tensor(rng, alg)
        assert a * b == naive_mul_tensors(alg, a, b)


def _tensor_at_every_power(rng, alg, legs, per_power=2):
    terms = {}
    for k in range(alg.order + 1):
        for _ in range(per_power):
            monos = tuple(
                Monomial(
                    tuple(rng.randint(0, 1) for _ in range(alg.m)),
                    tuple(rng.randint(0, 1) for _ in range(alg.n)),
                )
                for _ in range(legs)
            )
            terms[(k, monos)] = Q(rng.choice([1, 1, -1, 2]), rng.randint(1, 3))
    return alg.tensor_element(legs, terms)


def test_power_buckets_and_cached_products_match_oracle():
    """Operands span every power 0..N, so the walk over the powers of the
    right operand stops part-way for every left term of positive power;
    the second round reuses every cached monomial product."""
    rng = random.Random(17)
    for _ in range(3):
        m, n, order = rng.randint(1, 2), rng.randint(1, 2), rng.randint(2, 3)
        alg = Algebra(m, n, order, random_table(rng, m, n, order))
        a = _tensor_at_every_power(rng, alg, 3)
        b = _tensor_at_every_power(rng, alg, 3)
        pairs = [(a, b), (b, a), (a, a)]
        want = [naive_mul_tensors(alg, x, y) for x, y in pairs]
        assert [x * y for x, y in pairs] == want
        filled = len(cached_leg_products(alg))
        assert filled
        assert [x * y for x, y in pairs] == want
        assert len(cached_leg_products(alg)) == filled


def test_products_do_not_alias_cached_terms():
    rng = random.Random(19)
    alg = Algebra(2, 2, 3, {(0, 0): {(1, ((1, 0), (0, 0))): 1}, (1, 1): {(0, ((0, 1), (0, 0))): 2}})
    a = _tensor_at_every_power(rng, alg, 3)
    b = _tensor_at_every_power(rng, alg, 3)
    want = naive_mul_tensors(alg, a, b)
    first = a * b
    assert first == want
    for key in first.terms:
        first.terms[key] = Q(7)
    first.terms[(0, (Monomial.unit(2, 2),) * 3)] = Q(5)
    assert a * b == want


def _assert_canonical(t):
    assert t.den > 0
    assert gcd(t.den, *t.nums.values()) == 1
    assert all(t.nums.values())
    if t.is_zero():
        assert t.den == 1


def test_rational_tables_match_oracle_in_canonical_form():
    """Bracket coefficients with denominators put (num, den) coefficients in
    the monomial-product cache, so products merge partial sums over several
    denominators."""
    rng = random.Random(23)
    fractional_legs = 0
    for _ in range(8):
        m, n, order = rng.randint(1, 2), rng.randint(1, 2), rng.randint(2, 3)
        table = random_table(rng, m, n, order, rational=True)
        alg = Algebra(m, n, order, table)
        for legs in (1, 2, 3):
            a = _tensor_at_every_power(rng, alg, legs)
            b = _tensor_at_every_power(rng, alg, legs)
            got = a * b
            assert got == naive_mul_tensors(alg, a, b)
            for t in (a, b, got, got - a, got.scale(Q(-3, 2)), got - got):
                _assert_canonical(t)
            assert (got - got).is_zero()
            # A second algebra of the same shape, with cold caches, compares equal.
            twin = Algebra(m, n, order, table)
            b2, a2 = twin.tensor_element(legs, b.terms), twin.tensor_element(legs, a.terms)
            assert a2 * b2 == got and got == a2 * b2
            assert b2 * a2 == b * a
        fractional_legs += sum(cd > 1 for legmap in cached_leg_products(alg) for _, _, _, cd in legmap)
    assert fractional_legs


def test_tensor_element_validates_every_term():
    alg = Algebra(1, 1, 3, {})
    unit = Monomial.unit(1, 1)
    with pytest.raises(ShapeError):
        alg.tensor_element(1, {(-1, (unit,)): Q(1)})
    with pytest.raises(ShapeError):
        alg.tensor_element(2, {(0, (unit, Monomial((-1,), (0,)))): Q(1)})
    with pytest.raises(ShapeError):
        alg.tensor_element(1, {(0, (Monomial((0,), (-2,)),)): Q(1)})
    assert alg.tensor_element(1, {(4, (unit,)): Q(1)}).is_zero()


def test_bracket_table_validates_every_entry():
    """A table key out of range, a value with an X and a negative power are refused;
    entries above the order are dropped, and `bracket` reads back the rest."""
    h = Monomial((1,), (0,))
    for table in (
        {(1, 0): {(0, h): 1}},
        {(0, 0): {(0, Monomial((0,), (1,))): 1}},
        {(0, 0): {(-1, ((0,), (0,))): 1}},
    ):
        with pytest.raises(ShapeError):
            Algebra(1, 1, 2, table)
    alg = Algebra(1, 1, 2, {(0, 0): {(0, h): Q(1, 2), (1, ((2,), (0,))): 0, (3, h): 1}})
    assert alg.bracket(0, 0) == {(0, h): Q(1, 2)}


def test_bracket_table_takes_packed_entries_and_validates_them():
    """A 1-leg pure-H element of an algebra of the same shape is taken as it is packed; one with
    an X, of two legs or of another shape is refused, and a key out of range as before."""
    scratch = Algebra(1, 1, 2, {})
    entry = scratch.element({(0, ((1,), (0,))): Q(1, 2), (2, ((3,), (0,))): 3})
    alg = Algebra(1, 1, 2, {(0, 0): entry})
    assert alg._int_table[(0, 0)] == (entry.nums, entry.den)
    assert alg.bracket(0, 0) == {(0, Monomial((1,), (0,))): Q(1, 2), (2, Monomial((3,), (0,))): 3}
    for table in (
        {(0, 1): entry},
        {(0, 0): scratch.x(0)},
        {(0, 0): scratch.outer(entry, entry)},
        {(0, 0): Algebra(1, 1, 3, {}).h(0)},
    ):
        with pytest.raises(ShapeError):
            Algebra(1, 1, 2, table)


def test_tensor_example_second_leg_reorders(jordanian3):
    alg = jordanian3.algebra
    h, x = alg.h(0), alg.x(0)
    left = alg.outer(h, x)
    right = alg.outer(x, h)
    got = left * right
    want = naive_mul_tensors(alg, left, right)
    assert got == want
    # the second leg was rewritten: a pure-H correction term must appear
    assert any(monos[1].is_pure_h for (_, monos) in got.terms)


def _genuine_algebras():
    """Associativity statements are about real algebras; see helpers."""
    from helpers import genuine_algebras

    return genuine_algebras()


def test_associativity_100_triples():
    rng = random.Random(9)
    pool = _genuine_algebras()
    checked = 0
    while checked < 100:
        alg = pool[rng.randrange(len(pool))]
        a = random_element(rng, alg)
        b = random_element(rng, alg)
        c = random_element(rng, alg)
        assert (a * b) * c == a * (b * c)
        checked += 1


def test_truncation_coherence():
    rng = random.Random(13)
    for _ in range(20):
        m, n, order = rng.randint(1, 2), rng.randint(1, 2), rng.randint(0, 3)
        from helpers import random_table

        table = random_table(rng, m, n, order + 1)
        low = Algebra(m, n, order, table)
        high = Algebra(m, n, order + 1, table)
        a_low = random_element(rng, low)
        b_low = random_element(rng, low)
        a_high = high.tensor_element(1, a_low.terms)
        b_high = high.tensor_element(1, b_low.terms)
        dropped = low.tensor_element(1, (a_high * b_high).terms)
        assert dropped == a_low * b_low


def test_exp_zero_is_unit():
    alg = Algebra(1, 1, 4, {})
    assert exp_truncated(alg.zero()) == alg.one()


def test_exp_single_commuting_generator():
    alg = Algebra(1, 1, 2, {})
    e = exp_truncated(alg.h(0, power=1))
    assert e.terms == {
        (0, (Monomial((0,), (0,)),)): Q(1),
        (1, (Monomial((1,), (0,)),)): Q(1),
        (2, (Monomial((2,), (0,)),)): Q(1, 2),
    }


def test_exp_requires_positive_valuation():
    alg = Algebra(1, 1, 3, {})
    with pytest.raises(TruncationError):
        exp_truncated(alg.h(0))


def test_exp_times_exp_of_negation_is_unit():
    rng = random.Random(17)
    pool = _genuine_algebras()
    for _ in range(20):
        alg = pool[rng.randrange(len(pool))]
        a = random_element(rng, alg, max_terms=2, max_deg=1)
        a = alg.element({(max(k, 1), mono): c for (k, (mono,)), c in a.terms.items()})
        assert exp_truncated(a) * exp_truncated(a.scale(-1)) == alg.one()
        t = random_tensor(rng, alg)
        t = alg.tensor_element(
            2, {(max(k, 1), monos): c for (k, monos), c in t.terms.items()}
        )
        assert exp_truncated(t) * exp_truncated(t.scale(-1)) == alg.tensor_unit(2)


def test_tau_involution_and_distribution():
    rng = random.Random(19)
    for _ in range(25):
        alg = random_algebra(rng, max_dim=2, max_order=3)
        a = random_tensor(rng, alg)
        b = random_tensor(rng, alg)
        assert a.swap().swap() == a
        assert (a * b).swap() == a.swap() * b.swap()


def test_shape_errors():
    a = Algebra(1, 1, 3, {})
    b = Algebra(1, 1, 2, {})
    with pytest.raises(ShapeError):
        a.one() + b.one()
    with pytest.raises(ShapeError):
        a.one() * b.one()
    with pytest.raises(ShapeError):
        a.one() + a.tensor_unit(2)
    with pytest.raises(ShapeError):
        a.tensor_unit(2) * a.tensor_unit(3)
    with pytest.raises(ShapeError):
        permute(a.tensor_unit(2), (0, 0))


def test_repr_lists_the_sorted_terms():
    alg = Algebra(1, 1, 3, {(0, 0): {(0, Monomial((1,), (0,))): Q(2)}})
    assert repr(alg.zero()) == "TensorElement(0)"
    assert repr(alg.x(0) * alg.h(0)) == "TensorElement(-2 * H1 + H1*X1)"
    t = alg.outer(alg.h(0), alg.x(0, power=1)).scale(Q(1, 2)) + alg.tensor_unit(2)
    assert repr(t) == "TensorElement(1 ⊗ 1 + 1/2 * h * H1 ⊗ X1)"


def test_embed_and_strip():
    alg = Algebra(1, 1, 3, {})
    t = alg.outer(alg.h(0), alg.x(0))
    wide = t.embed(3, (0, 2))
    ((k, monos),) = wide.terms
    assert monos[1].is_unit and monos[0].h == (1,) and monos[2].x == (1,)
    assert t.strip_unit_leg(0).is_zero()
    u = alg.outer(alg.one(), alg.x(0))
    assert u.strip_unit_leg(0) == alg.x(0)
    # Maps that keep the values keep the canonical form; dropping terms may
    # leave numerators that share a factor with the denominator.
    v = alg.outer(alg.h(0), alg.one()).scale(Q(1, 2)) + alg.outer(alg.h(0), alg.x(0)).scale(Q(1, 3))
    assert v.den == 6
    kept = v.strip_unit_leg(1)
    assert kept == alg.h(0).scale(Q(1, 2))
    for w in (v.embed(3, (2, 0)), permute(v, (1, 0)), v.swap(), -v, kept, v.strip_unit_leg(0)):
        assert gcd(w.den, *w.nums.values()) == 1
    assert -(-v) == v and v.swap().swap() == v


def test_embed_places_each_leg_at_its_position():
    """Every placement of 1 to 3 legs among up to 4, in order (each unit leg's
    field inserted) or not (each field moved), against the terms placed one
    monomial at a time."""
    from itertools import permutations

    rng = random.Random("embed")
    alg = Algebra(2, 3, 3, {})
    unit = Monomial.unit(alg.m, alg.n)
    for legs in (1, 2, 3):
        t = alg.tensor_zero(legs)
        while len(t.nums) < 2:
            t = random_tensor(rng, alg, legs, max_terms=6, max_deg=2)
        for wide in range(legs, 5):
            for positions in permutations(range(wide), legs):
                want = {}
                for (k, monos), c in t.terms.items():
                    placed = [unit] * wide
                    for p, mono in zip(positions, monos):
                        placed[p] = mono
                    want[(k, tuple(placed))] = c
                got = t.embed(wide, positions)
                assert got.terms == want and got.den == t.den


def test_outer_sums_the_power_splits_that_meet_on_one_key():
    """``(H + h H)`` times ``(h X + X)`` puts ``H (x) X`` at power 1 twice;
    at order 1 the power-2 term drops."""
    for order in (1, 3):
        alg = Algebra(1, 1, order, {(0, 0): {(0, Monomial((1,), (0,))): Q(1)}})
        a = alg.h(0) + alg.h(0, 1).scale(Q(1, 2))
        b = alg.x(0, 1).scale(Q(2, 3)) + alg.x(0).scale(3)
        hx = (Monomial((1,), (0,)), Monomial((0,), (1,)))
        want = {(0, hx): Q(3), (1, hx): Q(2, 3) + Q(3, 2), (2, hx): Q(1, 3)}
        got = alg.outer(a, b)
        assert got.terms == {key: c for key, c in want.items() if key[0] <= order}
        assert got == alg.mul_tensors(a.embed(2, (0,)), b.embed(2, (1,)))
        assert gcd(got.den, *got.nums.values()) == 1


_HYP_ALG = Algebra(2, 1, 3, {(0, 0): {(0, Monomial((1, 0), (0,))): Q(2)}})


@st.composite
def small_elements(draw):
    alg = _HYP_ALG
    n_terms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n_terms):
        k = draw(st.integers(0, 3))
        h = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        x = (draw(st.integers(0, 2)),)
        c = Q(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        terms[(k, Monomial(h, x))] = c
    return alg.element(terms)


@settings(max_examples=40, deadline=None)
@given(small_elements(), small_elements(), small_elements())
def test_distributivity_and_associativity_hypothesis(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
