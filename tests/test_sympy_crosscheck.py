"""Normal ordering against a rewriting on sympy non-commutative symbols.

The oracle knows only the defining relations, written as sympy expressions:
the H generators commute among themselves, so do the X generators, and
``X_mu H_j = H_j X_mu - [H_j, X_mu]``.  It rewrites the first adjacent pair
of each term that is out of PBW order until no such pair is left, and drops
the terms above the truncation order in the deformation parameter ``h``.
sympy is a test dependency only; the engine stays stdlib-only.
"""

import random

import pytest
import sympy

from qtwist import build_context, preset

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
