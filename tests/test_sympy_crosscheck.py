"""Normal ordering and tensor products against a rewriting on sympy symbols.

The oracle knows only the defining relations, written as sympy expressions:
the H generators commute among themselves, so do the X generators, and
``X_mu H_j = H_j X_mu - [H_j, X_mu]``.  It rewrites the first adjacent pair
of each term that is out of PBW order until no such pair is left, and drops
the terms above the truncation order in the deformation parameter ``h``.
A product of tensors is the product of its legs, each normal-ordered by
the oracle, with the powers of ``h`` added across legs.  sympy is a test
dependency only; the engine stays stdlib-only.
"""

import itertools
import random
from fractions import Fraction

import pytest
import sympy

from helpers import mono_word
from qtwist import build_context, preset
from qtwist.algebra import Monomial

H = sympy.Symbol("h")


def _generators(alg):
    hs = [sympy.Symbol(f"H{i}", commutative=False) for i in range(alg.m)]
    xs = [sympy.Symbol(f"X{mu}", commutative=False) for mu in range(alg.n)]
    return hs, xs


def _monomial(hs, xs, mono):
    return sympy.Mul(*(g**e for g, e in zip(hs + xs, mono.h + mono.x)))


def _from_engine(alg, element):
    hs, xs = _generators(alg)
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator) * H**k * _monomial(hs, xs, mono)
            for (k, (mono,)), c in element.terms.items()
        )
    )


def _sympy_normal_order(alg, word):
    """The PBW normal form of a word of ``(generator id, power)`` letters."""
    hs, xs = _generators(alg)
    gens = hs + xs
    rank = {g: i for i, g in enumerate(gens)}
    brackets = {
        (hs[j], xs[mu]): sympy.Add(
            *(
                sympy.Rational(c.numerator, c.denominator) * H**k * _monomial(hs, xs, mono)
                for (k, mono), c in alg.bracket(j, mu).items()
            )
        )
        for j in range(alg.m)
        for mu in range(alg.n)
    }
    todo = sympy.Mul(*(H**power * gens[gid] for gid, power in word))
    done = sympy.S.Zero
    while todo != 0:
        rewritten = sympy.S.Zero
        for term in sympy.Add.make_args(sympy.expand(todo)):
            commutative, nc = term.args_cnc()
            scalar = sympy.Mul(*commutative)
            if sympy.degree(scalar, H) > alg.order:
                continue
            letters = [b for f in nc for b, e in [f.as_base_exp()] for _ in range(int(e))]
            p = next(
                (p for p in range(len(letters) - 1) if rank[letters[p]] > rank[letters[p + 1]]),
                None,
            )
            if p is None:
                done += term
                continue
            x, y = letters[p], letters[p + 1]
            swapped = y * x - brackets.get((y, x), 0)
            left, right = sympy.Mul(*letters[:p]), sympy.Mul(*letters[p + 2 :])
            rewritten += scalar * left * swapped * right
        todo = rewritten
    return sympy.expand(done)


@pytest.mark.parametrize("order", (2, 3))
@pytest.mark.parametrize("name", ("jordanian-borel", "poincare-null-plane"))
def test_normal_order_matches_sympy_rewriting(name, order):
    alg = build_context(preset(name).with_order(order)).algebra
    rng = random.Random(f"sympy/{name}/{order}")
    # A word yields more than one term only through a bracket correction.
    corrected = 0
    for _ in range(20):
        word = [
            (rng.randrange(alg.m + alg.n), rng.randint(0, 1)) for _ in range(rng.randint(1, 4))
        ]
        got = alg.from_word(word)
        want = _sympy_normal_order(alg, word)
        assert sympy.expand(_from_engine(alg, got) - want) == 0, word
        corrected += len(got.nums) > 1
    assert corrected


def _to_terms(alg, expr):
    """A normal-ordered sympy expression as ``{(power, Monomial): Fraction}``."""
    hs, xs = _generators(alg)
    index = {g: i for i, g in enumerate(hs + xs)}
    out = {}
    for term in sympy.Add.make_args(sympy.expand(expr)):
        commutative, nc = term.args_cnc()
        scalar = sympy.Mul(*commutative)
        k = int(sympy.degree(scalar, H))
        c = sympy.Rational(scalar / H**k)
        exps = [0] * (alg.m + alg.n)
        for factor in nc:
            base, e = factor.as_base_exp()
            exps[index[base]] += int(e)
        key = (k, Monomial(tuple(exps[: alg.m]), tuple(exps[alg.m :])))
        out[key] = out.get(key, 0) + Fraction(c.p, c.q)
    return out


def _sympy_product(alg, a, b):
    """``a * b`` as a term map, each leg's product normal-ordered by sympy."""
    out = {}
    for (k1, monos1), c1 in a.terms.items():
        for (k2, monos2), c2 in b.terms.items():
            legs = [
                _to_terms(alg, _sympy_normal_order(alg, mono_word(alg, m1) + mono_word(alg, m2)))
                for m1, m2 in zip(monos1, monos2)
            ]
            for combo in itertools.product(*(leg.items() for leg in legs)):
                k = k1 + k2 + sum(km for (km, _), _ in combo)
                if k <= alg.order:
                    key = (k, tuple(mono for (_, mono), _ in combo))
                    c = c1 * c2
                    for _, cm in combo:
                        c *= cm
                    out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _leg_pair(rng, alg, clash):
    """Monomials of one leg of a left and a right term, which reorder
    (an X on the left, an H on the right) exactly when `clash`."""

    def mono(h_min, x_min):
        h = [rng.randint(0, 1) for _ in range(alg.m)]
        x = [rng.randint(0, 1) for _ in range(alg.n)]
        if h_min:
            h[rng.randrange(alg.m)] = 1
        if x_min:
            x[rng.randrange(alg.n)] = 1
        return h, x

    if clash:
        (h1, x1), (h2, x2) = mono(0, 1), mono(1, 0)
    elif rng.random() < 0.5:
        (h1, x1), (h2, x2) = mono(0, 0), mono(0, 0)
        x1 = [0] * alg.n
    else:
        (h1, x1), (h2, x2) = mono(0, 0), mono(0, 0)
        h2 = [0] * alg.m
    return Monomial(tuple(h1), tuple(x1)), Monomial(tuple(h2), tuple(x2))


@pytest.mark.parametrize("legs", (2, 3))
@pytest.mark.parametrize("name,order", (("jordanian-borel", 3), ("poincare-null-plane", 2)))
def test_tensor_products_match_sympy_on_every_number_of_reordering_legs(name, order, legs):
    """Term pairs that reorder on no leg, on one leg at each position and on
    two legs, as single terms and as sums of two such terms."""
    alg = build_context(preset(name).with_order(order)).algebra
    rng = random.Random(f"sympy/products/{name}/{legs}")
    patterns = [()] + [(leg,) for leg in range(legs)] + list(itertools.combinations(range(legs), 2))
    corrected = 0
    for clashing in patterns:
        left, right = {}, {}
        for _ in range(2):
            monos = [_leg_pair(rng, alg, leg in clashing) for leg in range(legs)]
            for side, terms in ((0, left), (1, right)):
                key = (rng.randint(0, 1), tuple(pair[side] for pair in monos))
                terms[key] = Fraction(rng.choice([1, -2, 3]), rng.randint(1, 2))
        for count in (1, 2):
            a = alg.tensor_element(legs, dict(list(left.items())[:count]))
            b = alg.tensor_element(legs, dict(list(right.items())[:count]))
            got = a * b
            assert got.terms == _sympy_product(alg, a, b), clashing
            corrected += count == 1 and len(got.nums) > 1
    # Some reordering leg picked up a bracket correction.
    assert corrected


@pytest.mark.parametrize("name", ("jordanian-borel", "poincare-null-plane", "shift-ring(3)"))
def test_coproducts_of_words_match_sympy_products_of_generator_coproducts(name):
    """Δ is an algebra map, so the coproduct of a normal-ordered word is the
    product of its letters' coproducts in word order, each leg's product
    normal-ordered by the oracle.  The engine builds a monomial's coproduct
    in an association of its own, which the oracle knows nothing of."""
    ctx = build_context(preset(name).with_order(2))
    alg = ctx.algebra
    gens = [ctx.coproduct(alg.h(i)) for i in range(alg.m)]
    gens += [ctx.coproduct(alg.x(mu)) for mu in range(alg.n)]
    rng = random.Random(f"sympy/coproduct/{name}")
    for _ in range(4):
        word = [(rng.randrange(alg.m + alg.n), rng.randint(0, 1)) for _ in range(3)]
        want = alg.tensor_unit(2)
        for gid, power in word:
            letter = {(k + power, monos): c for (k, monos), c in gens[gid].terms.items()}
            want = alg.tensor_element(2, _sympy_product(alg, want, alg.tensor_element(2, letter)))
        assert ctx.coproduct(alg.from_word(word)) == want, word
