"""The accumulating product `Algebra.mul_into` against products built one by one.

Each algebra has rational bracket coefficients, so products pick up leg
coefficients over several denominators.  A mix of signed products and plain
terms summed in one accumulator must equal the same sum formed with the
element operators, and the naive rewriting oracle must agree on the products.
"""

import random
from collections import Counter
from fractions import Fraction as Q
from functools import lru_cache
from operator import add
from pathlib import Path

import pytest

from helpers import fresh_algebra, naive_mul_tensors, random_table
from qtwist import build_context, parse_spec_file, preset
from qtwist.algebra import Algebra, Monomial, _from_parts

ROTATED = Path(__file__).parent / "data" / "rotated-null-plane.json"


@lru_cache(maxsize=None)
def _algebra(name):
    if name == "rotated-null-plane twin":
        ctx = build_context(parse_spec_file(ROTATED).with_order(3))
        assert ctx.lifted is not ctx
        return ctx.lifted.algebra
    return build_context(preset(name).with_order(3)).algebra


ALGEBRAS = ("jordanian-borel", "shift-ring(3)", "rotated-null-plane twin")


def _tensor(rng, alg, legs):
    """Four terms at powers 0 and 1 with fractional coefficients, so that
    products keep terms below the order and reorder X past H."""
    terms = {}
    for _ in range(4):
        monos = tuple(
            Monomial(
                tuple(rng.randint(0, 1) for _ in range(alg.m)),
                tuple(rng.randint(0, 1) for _ in range(alg.n)),
            )
            for _ in range(legs)
        )
        terms[(rng.randint(0, 1), monos)] = Q(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
    return alg.tensor_element(legs, terms)


def _operands(name, legs, count):
    alg = _algebra(name)
    rng = random.Random(f"{name}/{legs}")
    return alg, [_tensor(rng, alg, legs) for _ in range(count)]


def _summed(alg, legs, items):
    acc = {}
    for scale, a, *b in items:
        if b:
            alg.mul_into(acc, a, b[0], scale)
        else:
            a.add_into(acc, scale)
    return _from_parts(alg, legs, acc)


@pytest.mark.parametrize("legs", (1, 2, 3))
@pytest.mark.parametrize("name", ALGEBRAS)
def test_signed_products_and_terms_match_the_operators(name, legs):
    alg, (a, b, c, d, e, f) = _operands(name, legs, 6)
    items = [(1, a, b), (-1, c, d), (Q(2, 3), e), (-1, f), (Q(-5, 7), b, a)]
    got = _summed(alg, legs, items)
    want = a * b - c * d + e.scale(Q(2, 3)) - f + (b * a).scale(Q(-5, 7))
    assert got == want
    oracle = naive_mul_tensors(alg, a, b) - naive_mul_tensors(alg, c, d)
    assert _summed(alg, legs, [(1, a, b), (-1, c, d)]) == oracle


@pytest.mark.parametrize("legs", (1, 2, 3))
@pytest.mark.parametrize("name", ALGEBRAS)
def test_an_empty_accumulator_gives_the_product(name, legs):
    alg, (a, b) = _operands(name, legs, 2)
    product = alg.mul_tensors(a, b)
    assert product == naive_mul_tensors(alg, a, b)
    assert _summed(alg, legs, [(1, a, b)]) == product
    assert _summed(alg, legs, [(Q(-3, 2), a, b)]) == product.scale(Q(-3, 2))


@pytest.mark.parametrize("legs", (1, 2, 3))
@pytest.mark.parametrize("name", ALGEBRAS)
def test_a_cancelling_pair_leaves_the_canonical_zero(name, legs):
    alg, (a, b) = _operands(name, legs, 2)
    product = a * b
    assert not product.is_zero() and product.den > 1
    zero = _summed(alg, legs, [(1, a, b), (-1, a, b)])
    assert zero.is_zero() and zero.nums == {} and zero.den == 1
    assert zero == alg.tensor_zero(legs)


def _reordering_legs(alg, a, b):
    """The sets of legs that reorder X past H, over the pairs a product visits."""
    return {
        tuple(leg for leg, (m1, m2) in enumerate(zip(monos1, monos2)) if any(m1.x) and any(m2.h))
        for k1, monos1 in a.terms
        for k2, monos2 in b.terms
        if k1 + k2 <= alg.order
    }


@pytest.mark.parametrize("name", ALGEBRAS)
def test_products_shaped_like_the_checks_match_the_oracle(name):
    """3-leg operands embedded with unit legs, as in ``R12·R13``,
    ``(R12R13)·R23`` and ``(Δ⊗id)(φ)·φ12``, whose pairs reorder on one leg
    at each position, or on two.  The second round runs on a warm algebra."""
    alg = fresh_algebra(_algebra(name))
    rng = random.Random(f"shapes/{name}")
    r, s, phi = _tensor(rng, alg, 2), _tensor(rng, alg, 2), _tensor(rng, alg, 2)
    r12, r13, r23 = r.embed(3, (0, 1)), r.embed(3, (0, 2)), s.embed(3, (1, 2))
    pairs = [(r12, r13), (naive_mul_tensors(alg, r12, r13), r23)]
    pairs.append((_tensor(rng, alg, 3), phi.embed(3, (0, 1))))
    pairs += [(b, a) for a, b in pairs]
    legs = set().union(*(_reordering_legs(alg, a, b) for a, b in pairs))
    assert {(0,), (1,), (2,)} <= legs and any(len(ls) == 2 for ls in legs)
    want = [naive_mul_tensors(alg, a, b) for a, b in pairs]
    for _ in range(2):
        assert [alg.mul_tensors(a, b) for a, b in pairs] == want
        for (a, b), product in zip(pairs, want):
            assert _summed(alg, 3, [(Q(-5, 7), a, b)]) == product.scale(Q(-5, 7))


def _grouped_tensor(rng, alg, legs, powers, terms=10):
    """`terms` draws of a term whose leg H parts come from a short list, so
    that terms of one power and one set of H legs often share H parts."""
    h_parts = [(0,) * alg.m, (1,) + (0,) * (alg.m - 1), (0,) * (alg.m - 1) + (1,)]
    out = {}
    for _ in range(terms):
        monos = tuple(
            Monomial(rng.choice(h_parts), tuple(rng.randint(0, 1) for _ in range(alg.n)))
            for _ in range(legs)
        )
        out[(rng.choice(powers), monos)] = Q(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 6))
    return alg.tensor_element(legs, out)


def _twinned(alg, b):
    """`b` with a twin of each term, of the same power and H parts, so that
    the split of every clash, on any number of legs, has subgroups."""
    twins = {
        (k, tuple(Monomial(mo.h, tuple(1 - e for e in mo.x)) for mo in monos)): c * Q(-2, 5)
        for (k, monos), c in b.terms.items()
    }
    return b + alg.tensor_element(b.legs, twins)


def _clash_splits(alg, a, b):
    """The subgroups the product loop forms for pairs within the order that
    reorder: the terms of b of one power and one set of H legs, split by
    their H parts on the legs where the left term's X meets them.  Yields
    ``(number of clash legs, size, at the boundary)``."""
    groups = {}
    for k2, monos2 in b.terms:
        h_legs = frozenset(leg for leg, mo in enumerate(monos2) if any(mo.h))
        groups.setdefault((k2, h_legs), []).append(monos2)
    for k1, monos1 in a.terms:
        x_legs = {leg for leg, mo in enumerate(monos1) if any(mo.x)}
        for (k2, h_legs), members in groups.items():
            clash = sorted(x_legs & h_legs)
            if k1 + k2 <= alg.order and clash:
                for size in Counter(tuple(monos2[leg].h for leg in clash) for monos2 in members).values():
                    yield len(clash), size, k1 + k2 == alg.order


def _reaches(alg):
    """The reach of each leg table that `alg` keeps, by its legs and key."""
    return {(legs, key): reach for legs, by_key in alg._tables.items() for key, (reach, _) in by_key.items()}


def _row_reaches(alg):
    """The reach of each block's rows that `alg` keeps, by its leg field."""
    return {field: reach for field, (reach, _) in alg._rows.items()}


def _leading(alg, a, b):
    """The leading terms of ``a * b``: each pair's ``c1 * c2`` at the sum of
    its exponents, the product of the commutative associated graded ring."""
    out = {}
    for (k1, monos1), c1 in a.terms.items():
        for (k2, monos2), c2 in b.terms.items():
            monos = tuple(
                Monomial(tuple(map(add, m1.h, m2.h)), tuple(map(add, m1.x, m2.x)))
                for m1, m2 in zip(monos1, monos2)
            )
            if k1 + k2 <= alg.order:
                out[(k1 + k2, monos)] = out.get((k1 + k2, monos), 0) + c1 * c2
    return alg.tensor_element(a.legs, out)


@pytest.mark.parametrize("legs", (2, 3))
def test_grouped_right_operand_matches_the_oracle(legs):
    """The product loop groups the right operand by power and H legs and
    splits a group by its H parts on the legs a left term clashes with, one
    or several.  Over rational tables, with subgroups of two or more terms on
    every number of clash legs, mixed denominators and pairs exactly at the
    truncation order, a Fraction-scaled product, its leading part and its
    corrections, each added to a non-empty accumulator, equal the oracle's.
    A clash on one leg reads that leg's block rows, a clash on more legs a
    table of them.  The products share the algebra's rows and tables: the
    first, whose left terms are at high power only, builds rows and tables
    that the later ones extend in reach, as does a later left term, since
    they come in falling power."""
    rng = random.Random(f"grouped/{legs}")
    splits, extended = [], set()
    for _ in range(3):
        alg = Algebra(2, 2, 3, random_table(rng, 2, 2, 3, max_terms=3, rational=True))
        a = _grouped_tensor(rng, alg, legs, (0, 1, 2, 3), terms=16)
        a = alg.tensor_element(legs, dict(sorted(a.terms.items(), reverse=True)))
        b = _twinned(alg, _grouped_tensor(rng, alg, legs, (0, 1, 3)))
        splits += _clash_splits(alg, a, b)
        assert len({c.denominator for c in b.terms.values()}) > 1
        high = alg.tensor_element(legs, {key: c for key, c in a.terms.items() if key[0] >= 2})
        start, reaches, rows = naive_mul_tensors(alg, b, a), None, None
        assert not alg._tables and not alg._rows
        for left, part in ((high, "corr"), (a, None), (a, "lead"), (a, "corr")):
            product, lead = naive_mul_tensors(alg, left, b), _leading(alg, left, b)
            want = {None: product, "lead": lead, "corr": product - lead}[part]
            acc = {}
            start.add_into(acc)
            alg.mul_into(acc, left, b, Q(-7, 4), part)
            assert _from_parts(alg, legs, acc) == start + want.scale(Q(-7, 4))
            if reaches is None:
                reaches, rows = _reaches(alg), _row_reaches(alg)
        if any(reach > rows.get(field, reach) for field, reach in _row_reaches(alg).items()):
            extended.add(1)
        for path, reach in _reaches(alg).items():
            if reach > reaches.get(path, reach):
                extended.add(sum(any(mo.x) for mo in alg.decode(path[1], legs)[1]))
    for n in range(1, legs + 1):
        assert max(size for clash, size, _ in splits if clash == n) >= 2
    assert any(edge for clash, _, edge in splits if clash > 1)
    assert set(range(1, legs + 1)) <= extended
