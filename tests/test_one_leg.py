"""Products whose clashes all fall on one leg read that leg's block rows.

A pair of terms clashes on each leg where the left term has an X and the
right one an H.  `Algebra.mul_into` multiplies a subgroup that clashes on one
leg straight from the rows of that leg's block (`Algebra._rows`), each row
moved into place by the leg's shift and its power, and builds a table
(`Algebra._tables`) only for a clash on two or more legs.  The paper's
``R = exp(swap ρ)·Φ⁻¹`` and qybe's ``T = R12·R13`` clash on leg 0 alone.
Random products that clash on one leg, any of them, over dense rational
tables with mixed denominators, a Fraction scale, each part, pairs exactly
at the order, and left terms in falling power, so that rows built short for
the first are regrown for a later one, equal the naive rewriting oracle.
"""

import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from helpers import naive_mul_tensors, random_table
from qtwist import build_context, parse_spec_file, preset
from qtwist.algebra import Algebra, Monomial, _from_parts, exp_truncated
from qtwist.verify import run_suite
from test_accumulate import _leading

ROTATED = Path(__file__).parent / "data" / "rotated-null-plane.json"
ORDER = 3
POWERS = (0, 1, ORDER - 1, ORDER)
NAMES = ("poincare-null-plane", "jordanian-borel", "shift-ring(3)", "rotated-null-plane twin")


def _context(name):
    """A new context of `name` at `ORDER`, so that no earlier test has filled its caches."""
    if name == "rotated-null-plane twin":
        ctx = build_context(parse_spec_file(ROTATED).with_order(ORDER)).lifted
        assert ctx.from_user is not None
        return ctx
    return build_context(preset(name).with_order(ORDER))


def _algebra(name):
    if name == "4x4 rational":
        rng = random.Random("one-leg/4x4")
        return Algebra(4, 4, ORDER, random_table(rng, 4, 4, ORDER, max_terms=3, rational=True))
    return _context(name).algebra


def _one_leg_tensor(rng, alg, legs, leg, terms=8):
    """A left operand with an X on leg `leg` and on no other, H parts on every
    leg, terms at `POWERS` over denominators 1..5, in falling power."""
    out = {}
    for _ in range(terms):
        x = [rng.randint(0, 1) for _ in range(alg.n)]
        x[rng.randrange(alg.n)] = 1
        monos = tuple(
            Monomial(tuple(rng.randint(0, 1) for _ in range(alg.m)), tuple(x) if i == leg else (0,) * alg.n)
            for i in range(legs)
        )
        out[(rng.choice(POWERS), monos)] = Q(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 5))
    return alg.tensor_element(legs, dict(sorted(out.items(), reverse=True)))


def _right_tensor(rng, alg, legs, terms=8):
    """A right operand with H and X parts on every leg, at powers 0 and 1,
    over denominators 1..6."""
    out = {}
    for _ in range(terms):
        monos = tuple(
            Monomial(
                tuple(rng.randint(0, 1) for _ in range(alg.m)),
                tuple(rng.randint(0, 1) for _ in range(alg.n)),
            )
            for _ in range(legs)
        )
        out[(rng.randint(0, 1), monos)] = Q(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 6))
    return alg.tensor_element(legs, out)


@pytest.mark.parametrize("name", NAMES)
def test_r_and_r12_r13_read_rows_and_build_no_table(name):
    ctx = _context(name)
    alg = ctx.algebra
    head = exp_truncated(ctx.twist_exponent.swap())
    r = ctx.universal_r
    assert not alg._tables and alg._rows
    assert r == naive_mul_tensors(alg, head, ctx.phi_inverse)
    r12, r13 = r.embed(3, (0, 1)), r.embed(3, (0, 2))
    t = r12 * r13
    assert not alg._tables
    assert t == naive_mul_tensors(alg, r12, r13)


@pytest.mark.parametrize("name", NAMES + ("4x4 rational",))
def test_one_leg_clashes_match_the_oracle(monkeypatch, name):
    """For every leg count and clash leg, the first product's left operand
    holds the terms at power ``ORDER - 1`` and up only, so it builds rows to
    power 1 at most; its lower terms and the whole operand then need them
    regrown."""
    regrown, leg_rows = [], Algebra._leg_rows

    def logged(self, field, room):
        old = self._rows.get(field)
        entry = leg_rows(self, field, room)
        if old is not None and entry is not old:
            regrown.append(field)
        return entry

    monkeypatch.setattr(Algebra, "_leg_rows", logged)
    alg = _algebra(name)
    rng = random.Random(f"one-leg/{name}")
    scale, edge = Q(-7, 4), False
    for legs in (2, 3):
        b = _right_tensor(rng, alg, legs)
        for leg in range(legs):
            a = _one_leg_tensor(rng, alg, legs, leg)
            high = alg.tensor_element(legs, {key: c for key, c in a.terms.items() if key[0] >= ORDER - 1})
            start = _right_tensor(rng, alg, legs)
            edge |= any(k1 + k2 == ORDER for k1, _ in a.terms for k2, _ in b.terms)
            for left, part in ((high, None), (a, "corr"), (a, None), (a, "lead")):
                product, lead = naive_mul_tensors(alg, left, b), _leading(alg, left, b)
                want = {None: product, "lead": lead, "corr": product - lead}[part]
                acc = {}
                start.add_into(acc)
                alg.mul_into(acc, left, b, scale, part)
                assert _from_parts(alg, legs, acc) == start + want.scale(scale)
    assert edge and regrown
    assert not alg._tables


def test_null_plane_at_order_5_builds_no_one_leg_table(monkeypatch):
    """Building R builds no table, and the suite after it builds tables only
    for clashes on two or more legs.  When a clash on one leg built a table
    too, these built 2,455 one-leg tables, 3,842 tables in all."""
    builds, leg_table = [], Algebra._leg_table

    def logged(self, legs, clash, key, room):
        builds.append(clash)
        return leg_table(self, legs, clash, key, room)

    monkeypatch.setattr(Algebra, "_leg_table", logged)
    ctx = build_context(preset("poincare-null-plane").with_order(5))
    assert ctx.universal_r and builds == []
    assert run_suite(ctx, "all").passed
    assert builds and all(clash & (clash - 1) for clash in builds)
    assert len(builds) <= 1400
