"""Caches built only to the power their first use needs, then used for more.

A term at power ``k`` of a product or a substitution meets only the part of a
cached block or monomial image up to power ``N - k``.  So `Algebra` builds a
block's rows, the chains ``D^c(H^b)`` behind them and a leg table only to the
power the product that first asks for them needs, and a monomial's image
under the coproduct or a change of basis only to the power
`Algebra.substitute_leg` needs.  A later use that needs more must rebuild
them: after products, coproducts and changes of basis of tensors at a high
power have filled the caches, the same ones at power 0 equal the naive
rewriting oracle and those of a fresh algebra or context.
"""

import random
from fractions import Fraction as Q
from itertools import product
from pathlib import Path

import pytest

from helpers import fresh_algebra, naive_mul_tensors, random_table
from qtwist import build_context, parse_spec_file, preset
from qtwist.algebra import Algebra, Monomial
from qtwist.verify import run_suite

ROTATED = Path(__file__).parent / "data" / "rotated-null-plane.json"
ORDER = 4
HIGH = ORDER - 1
NAMES = ("poincare-null-plane", "jordanian-borel", "shift-ring(3)", "rotated-null-plane twin", "4x4 rational")


def _context(name):
    """A new context of `name` at `ORDER`, so that no earlier test has filled its caches;
    None for the 4x4 rational algebra, which has no spec."""
    if name == "4x4 rational":
        return None
    if name == "rotated-null-plane twin":
        ctx = build_context(parse_spec_file(ROTATED).with_order(ORDER)).lifted
        assert ctx.from_user is not None
        return ctx
    return build_context(preset(name).with_order(ORDER))


def _algebra(name, ctx):
    if ctx is None:
        rng = random.Random("reach/4x4")
        return Algebra(4, 4, ORDER, random_table(rng, 4, 4, ORDER, max_terms=3, rational=True))
    return ctx.algebra


def _monos(rng, alg, legs, h, x, count=4):
    """`count` tuples of `legs` monomials, H exponents to `h` and X exponents to `x`."""
    return [
        tuple(
            Monomial(tuple(rng.randint(0, h) for _ in range(alg.m)), tuple(rng.randint(0, x) for _ in range(alg.n)))
            for _ in range(legs)
        )
        for _ in range(count)
    ]


def _at(alg, monos, power):
    """The tensor with a term at `power` for each of `monos`, over denominators 1..4."""
    return alg.tensor_element(len(monos[0]), {(power, m): Q(i % 3 - 1 or 2, i % 4 + 1) for i, m in enumerate(monos)})


def _changes(ctx):
    """The changes of basis to and from the user's context of a lifted twin; none on any other."""
    return [change for change in (ctx.from_user, ctx.to_user) if change is not None]


def _maps(ctx, fresh):
    """``(cache, algebra, generator images, width)`` of each algebra map of `ctx` that caches
    monomial images: the coproduct, rebuilt on `fresh`'s algebra, and the changes of basis."""
    maps = [(ctx._delta_cache, fresh.algebra, fresh._delta_gens, 2)]
    for change in _changes(ctx):
        target, gens, cache = change.args
        maps.append((cache, target, gens, 1))
    return maps


def _assert_whole_to_reach(alg, maps=()):
    """Every cached block, chain and monomial image holds what the one built
    whole holds up to its reach, and nothing above it."""
    whole = fresh_algebra(alg)
    for field, (reach, rows) in alg._rows.items():
        a, b = field & alg._x_mask, field & alg._h_mask
        assert rows == tuple(row for row in whole._mono_mul(a, b) if row[1] <= reach)
    for key, (terms, den, reach) in alg._block_cache.items():
        w_terms, w_den, w_reach = whole._block_cache[key]
        assert w_reach == ORDER
        cut = {k: Q(v, w_den) for k, v in w_terms.items() if k >> alg._leg_bits <= reach}
        assert {k: Q(v, den) for k, v in terms.items()} == cut
    for cache, target, gens, width in maps:
        for field, (reach, image) in cache.items():
            w = target._image(field, gens, {}, width, ORDER).terms
            assert image.terms == {key: c for key, c in w.items() if key[0] <= reach}


@pytest.mark.parametrize("name", NAMES)
def test_products_after_products_at_a_high_power(name):
    """The left operands' X parts meet the right operands' H parts on every
    leg.  A product whose left operand sits at power ``ORDER - 1`` asks for
    rows, chains and tables to power 1 at most; the same product from power
    0 needs them whole.  A pair that clashes on two or more legs builds a
    table; one that clashes on one leg reads that leg's rows."""
    ctx = _context(name)
    alg = _algebra(name, ctx)
    rng = random.Random(f"reach/products/{name}")
    cases, clash_legs = [], 0
    for legs in (1, 2, 3):
        left, right = _monos(rng, alg, legs, 0, 1), _monos(rng, alg, legs, 1, 0)
        b = _at(alg, right, 0) + _at(alg, right[:2], 1)
        cases.append((left, b))
        for pair in product(left, right):
            clash_legs = max(clash_legs, sum(any(p.x) and any(q.h) for p, q in zip(*pair)))
        high = _at(alg, left, HIGH)
        assert high * b == naive_mul_tensors(alg, high, b)
    assert bool(alg._tables) == (clash_legs > 1)
    assert alg._rows and all(reach < ORDER for reach, _ in alg._rows.values())
    _assert_whole_to_reach(alg)
    fresh = fresh_algebra(alg)
    for left, b in cases:
        low = _at(alg, left, 0)
        got = low * b
        assert got == naive_mul_tensors(alg, low, b)
        assert got == fresh.mul_tensors(low._on(fresh), b._on(fresh))
        assert any(k > 1 for k, _ in got.terms)
    assert any(reach == ORDER for reach, _ in alg._rows.values())
    _assert_whole_to_reach(alg)


def _naive_coproduct(ctx, t):
    """The coproduct of a 1-leg `t`: that of each monomial the oracle's
    product of its generators' coproducts, in the order of the chain."""
    alg, gens, acc = ctx.algebra, ctx._delta_gens, {}
    for (k, (mono,)), c in t.terms.items():
        image = alg.tensor_unit(2)
        for gen, e in enumerate(mono.h + mono.x):
            for _ in range(e):
                image = naive_mul_tensors(alg, image, gens[gen])
        for (k2, monos), c2 in image.terms.items():
            if k + k2 <= alg.order:
                acc[(k + k2, monos)] = acc.get((k + k2, monos), 0) + c * c2
    return alg.tensor_element(2, acc)


@pytest.mark.parametrize("name", NAMES[:4])
def test_coproducts_after_coproducts_at_a_high_power(name):
    """The coproduct of a tensor at power ``ORDER - 1`` builds its monomials'
    coproducts to power 1, and so do the changes of basis of a lifted twin
    their images.  A tensor with the same monomials at powers 0 and
    ``ORDER - 1`` then needs them whole, for its terms at power 0."""
    ctx = _context(name)
    alg = ctx.algebra
    rng = random.Random(f"reach/coproducts/{name}")
    cases = [(_monos(rng, alg, legs, 1, 1), leg) for legs in (1, 2) for leg in range(legs)]
    for monos, leg in cases:
        ctx.coproduct_on_leg(_at(alg, monos, HIGH), leg)
        for change in _changes(ctx):
            change(_at(alg, monos, HIGH))
    caches = [ctx._delta_cache] + [change.args[2] for change in _changes(ctx)]
    assert len(caches) == (3 if name.endswith("twin") else 1)
    assert all(reach < ORDER for cache in caches for reach, _ in cache.values())
    _assert_whole_to_reach(alg, _maps(ctx, _context(name)))
    fresh = _context(name)
    for monos, leg in cases:
        low, high = _at(alg, monos, 0), _at(alg, monos, HIGH)
        got = ctx.coproduct_on_leg(low + high, leg)
        on_fresh = fresh.coproduct_on_leg(low._on(fresh.algebra), leg)
        assert got == on_fresh + fresh.coproduct_on_leg(high._on(fresh.algebra), leg)
        if low.legs == 1:
            assert got == _naive_coproduct(ctx, low + high)
        for change, fresh_change in zip(_changes(ctx), _changes(fresh)):
            assert change(low + high) == fresh_change(low) + fresh_change(high)
    assert all(any(reach == ORDER for reach, _ in cache.values()) for cache in caches)
    _assert_whole_to_reach(alg, _maps(ctx, _context(name)))


def _cache_terms(ctx):
    """Terms held in the block rows and in the monomial coproducts."""
    rows = sum(len(rows) for _, rows in ctx.algebra._rows.values())
    return rows, sum(len(delta.nums) for _, delta in ctx._delta_cache.values())


@pytest.mark.parametrize("order, rows_bound, delta_bound", ((5, 3000, 5000), (6, None, 12000)))
def test_null_plane_caches_hold_what_the_suite_reads(order, rows_bound, delta_bound):
    """After ``all`` on null-plane the block rows hold 1,884 terms at order 5
    and the monomial coproducts 2,124 at order 5 and 4,736 at order 6.  Built
    whole, they held 4,536, 10,551 and 29,544."""
    ctx = build_context(preset("poincare-null-plane").with_order(order))
    assert run_suite(ctx, "all").passed
    rows, delta = _cache_terms(ctx)
    assert delta <= delta_bound
    assert rows_bound is None or rows <= rows_bound
