import random
from fractions import Fraction as Q

import pytest

from helpers import (
    mono_word,
    naive_normal_order,
    one_leg,
    random_algebra,
    random_element,
    random_word,
)
from qtwist import MalformedWordError
from qtwist.algebra import Algebra, Monomial, normal_order


def jordanian_algebra(order=4):
    """m = n = 1 with the genuine deformed bracket [H, X] truncated by hand.

    Coefficient of h^k H^{k+1} is 2^{k+1} / (k+1)!.
    """
    from math import factorial

    entry = {}
    for k in range(order + 1):
        entry[(k, Monomial((k + 1,), (0,)))] = Q(2 ** (k + 1), factorial(k + 1))
    return Algebra(1, 1, order, {(0, 0): entry})


def test_h_factors_commute():
    alg = random_algebra(random.Random(0), max_dim=3, max_order=2)
    if alg.m < 2:
        alg = Algebra(2, 1, 2, {})
    word = [(1, 0), (0, 0)]  # H2 then H1
    got = alg.from_word(word)
    assert got == alg.h(1) * alg.h(0) == alg.h(0) * alg.h(1)
    ((k, (mono,)),) = got.terms
    assert k == 0 and mono.h == (1, 1) + (0,) * (alg.m - 2)


def test_already_ordered_word_is_fixed_point():
    alg = jordanian_algebra()
    word = [(0, 0), (1, 0)]  # H then X: already normal
    got = alg.from_word(word)
    assert got.terms == {(0, (Monomial((1,), (1,)),)): Q(1)}


def test_single_swap_matches_oracle_jordanian():
    alg = jordanian_algebra()
    word = [(1, 0), (0, 0)]  # X then H
    got = alg.from_word(word)
    want = one_leg(naive_normal_order(alg, word))
    assert got.terms == want
    # H X minus the bracket series
    assert got.terms[(0, (Monomial((1,), (1,)),))] == 1
    assert got.terms[(0, (Monomial((1,), (0,)),))] == -2
    assert got.terms[(1, (Monomial((2,), (0,)),))] == -2
    assert got.terms[(2, (Monomial((3,), (0,)),))] == Q(-4, 3)


def test_letters_carry_deformation_powers():
    alg = jordanian_algebra(order=3)
    got = alg.from_word([(1, 2), (0, 1)])  # h^2 X times h^1 H
    want = one_leg(naive_normal_order(alg, [(1, 2), (0, 1)]))
    assert got.terms == want
    assert all(k >= 3 for k, _ in got.terms)


def test_out_of_range_generator_rejected():
    alg = jordanian_algebra()
    with pytest.raises(MalformedWordError):
        alg.from_word([(2, 0)])
    with pytest.raises(MalformedWordError):
        alg.from_word([(0, -1)])


def test_normal_order_idempotent_on_expansions():
    rng = random.Random(11)
    for _ in range(30):
        alg = random_algebra(rng)
        element = alg.from_word(random_word(rng, alg, max_len=5))
        rebuilt = alg.zero()
        for (k, (mono,)), coeff in element.terms.items():
            word = mono_word(alg, mono)
            if word:
                word[0] = (word[0][0], k)
                part = alg.from_word(word)
            else:
                part = alg.element({(k, mono): 1})
            assert part.terms == {(k, (mono,)): Q(1)}
            rebuilt = rebuilt + part.scale(coeff)
        assert rebuilt == element


def test_oracle_equivalence_quick():
    from helpers import genuine_algebras

    rng = random.Random(23)
    pool = genuine_algebras()
    for _ in range(60):
        alg = pool[rng.randrange(len(pool))]
        word = random_word(rng, alg)
        assert normal_order(word, alg).terms == one_leg(naive_normal_order(alg, word))


def test_canonical_word_rewriting_matches_oracle_any_table():
    """For canonically ordered blocks the engine and the oracle rewrite the
    same literal word, so they agree for arbitrary tables."""
    rng = random.Random(29)
    for _ in range(40):
        alg = random_algebra(rng)
        a = random_element(rng, alg, max_terms=1)
        b = random_element(rng, alg, max_terms=1)
        from helpers import naive_mul_elements

        assert a * b == naive_mul_elements(alg, a, b)
