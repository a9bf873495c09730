import random
from fractions import Fraction as Q
from math import gcd

import pytest

from helpers import (
    cached_leg_products,
    mono_word,
    naive_mul_tensors,
    naive_normal_order,
    one_leg,
    random_algebra,
    random_element,
    random_table,
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


def _in_lowest_terms(nums, den):
    return den > 0 and all(nums.values()) and gcd(den, *nums.values()) == 1


def _mixed_leg_tensor(rng, alg, legs):
    """Leg monomials drawn from unit, pure-H, pure-X and mixed shapes, so a
    product pairs reorder-free legs with legs that need reordering."""

    def exps(size):
        return tuple(rng.randint(0, 1) for _ in range(size))

    zh, zx = (0,) * alg.m, (0,) * alg.n
    shapes = (lambda: (zh, zx), lambda: (exps(alg.m), zx), lambda: (zh, exps(alg.n)))
    shapes += (lambda: (exps(alg.m), exps(alg.n)),)
    terms = {}
    for k in range(alg.order + 1):
        for _ in range(2):
            monos = tuple(Monomial(*rng.choice(shapes)()) for _ in range(legs))
            terms[(k, monos)] = Q(rng.choice([1, -1, 2]), rng.randint(1, 3))
    return alg.tensor_element(legs, terms)


def test_integer_normal_ordering_matches_oracle_rational_tables():
    """Dense rational brackets give single and block maps whose sub-blocks
    have different denominators.  Words X^b H^a, with the X letters in
    canonical order so that any table gives one rewriting, and 2- and
    3-leg products against the oracle; results and kernel caches are in
    lowest terms, and every block is stored in increasing power."""
    rng = random.Random(37)
    mixed_pairs = 0
    for _ in range(6):
        m, n, order = rng.randint(1, 3), rng.randint(1, 3), rng.randint(2, 3)
        table = random_table(rng, m, n, order, max_terms=3, rational=True)
        alg = Algebra(m, n, order, table)
        for _ in range(8):
            xs = sorted(rng.randrange(n) for _ in range(rng.randint(0, 3)))
            hs = [rng.randrange(m) for _ in range(rng.randint(0, 3))]
            word = [(m + mu, 0) for mu in xs] + [(j, 0) for j in hs]
            got = alg.from_word(word)
            assert got.terms == one_leg(naive_normal_order(alg, word))
            assert _in_lowest_terms(got.nums, got.den)
        for legs in (2, 3):
            a = _mixed_leg_tensor(rng, alg, legs)
            b = _mixed_leg_tensor(rng, alg, legs)
            got = a * b
            assert got == naive_mul_tensors(alg, a, b)
            assert _in_lowest_terms(got.nums, got.den)
            for (_, monos1), (_, monos2) in zip(a.terms, b.terms):
                free = {not any(m1.x) or not any(m2.h) for m1, m2 in zip(monos1, monos2)}
                mixed_pairs += free == {True, False}
        for terms, den, _ in list(alg._single_cache.values()) + list(alg._block_cache.values()):
            assert _in_lowest_terms(terms, den)
        # Cached normal forms are keyed by packed 1-leg keys, the power on top.
        for terms, _, _ in alg._block_cache.values():
            powers = [key >> alg._leg_bits for key in terms]
            assert powers == sorted(powers)
        for legmap in cached_leg_products(alg):
            for _, _, cn, cd in legmap:
                assert cd > 0 and gcd(cn, cd) == 1
    assert mixed_pairs


def test_a_block_applies_the_first_xs_derivative_outermost():
    """``X_0 X_1 H^b`` rewrites its last X past the H first, so with
    ``D_mu(g) = X_mu g - g X_mu`` on pure-H ``g`` it is ``H^b X_0 X_1 +
    D_0(H^b) X_1 + D_1(H^b) X_0 + D_0 D_1(H^b)``.  This table breaks Jacobi,
    the ``D_mu`` do not commute on ``H^b``, and the other order gives
    another block."""
    alg = Algebra(2, 2, 3, random_table(random.Random(1), 2, 2, 3, max_terms=3))
    x0, x1, hb = alg.x(0), alg.x(1), alg.h(0) * alg.h(1)

    def d(mu, g):
        return alg.x(mu) * g - g * alg.x(mu)

    assert d(0, d(1, hb)) != d(1, d(0, hb))
    a, b = alg._field((0, 0), (1, 1)), alg._field((1, 1), (0, 0))
    # The rows leave out the leading term H^b X^a, added here.
    rows = ((0, 0, 1, 1), *alg._mono_mul(a, b))
    block = alg.tensor_element(
        1, {alg.decode(a + b + d, 1): Q(cn, cd) for d, k, cn, cd in rows}
    )
    assert block.terms == one_leg(naive_normal_order(alg, [(2, 0), (3, 0), (0, 0), (1, 0)]))
    first_outermost = hb * x0 * x1 + d(0, hb) * x1 + d(1, hb) * x0 + d(0, d(1, hb))
    assert block == first_outermost
    assert block != first_outermost - d(0, d(1, hb)) + d(1, d(0, hb))


def test_normal_ordering_caches_stay_small_at_order_5():
    """After ``all`` on null-plane at order 5 the caches hold the monomial
    derivatives and the chains ``D^c(H^b)``: at most a third of the 14,308
    terms that the blocks ``X^x H^h`` of the earlier recursion held."""
    from qtwist import build_context, preset
    from qtwist.verify import run_suite

    ctx = build_context(preset("poincare-null-plane").with_order(5))
    assert run_suite(ctx, "all").passed
    alg = ctx.algebra
    held = sum(len(terms) for terms, _, _ in list(alg._single_cache.values()) + list(alg._block_cache.values()))
    assert held <= 4769
