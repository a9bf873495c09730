"""`Algebra.exchange` builds ``P23(T)`` grouped and ``T - P23(T)`` in one pass.

`check_qybe` takes both from it for each part.  The references are the
plain routes: ``T.permute((0, 2, 1))``, its grouping by `Algebra.prepare`,
and the difference ``T - T.permute((0, 2, 1))``.  The inputs are random
3-leg tensors with fractional coefficients, on the null-plane preset and
on the lifted twin of the rotated spec, with terms that ``P23`` fixes and
pairs of terms that it swaps with equal coefficients, so that some keys of
the difference cancel.
"""

import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from helpers import cached_context, random_tensor
from qtwist import build_context, parse_spec_file
from qtwist.algebra import Monomial, _canonical, _from_parts

ROTATED = Path(__file__).parent / "data" / "rotated-null-plane.json"
P23 = (0, 2, 1)


def _context(name):
    if name == "rotated-twin":
        return build_context(parse_spec_file(ROTATED).with_order(3)).lifted
    return cached_context(name, 3)


def _mono(rng, alg):
    return Monomial(
        tuple(rng.randint(0, 1) for _ in range(alg.m)), tuple(rng.randint(0, 1) for _ in range(alg.n))
    )


def _samples(alg, seed, count=15):
    """Random 3-leg tensors, each with terms that P23 fixes and a part that it maps onto itself."""
    rng = random.Random(seed)
    for _ in range(count):
        base = random_tensor(rng, alg, 3, max_terms=8)
        fixed = {}
        for _ in range(rng.randint(1, 3)):
            a, b = _mono(rng, alg), _mono(rng, alg)
            fixed[(rng.randint(0, alg.order), (a, b, b))] = Q(rng.randint(-5, 5), rng.randint(1, 4))
        mirrored = random_tensor(rng, alg, 3, max_terms=4)
        yield base + alg.tensor_element(3, fixed) + mirrored + mirrored.permute(P23)


@pytest.mark.parametrize("name", ["poincare-null-plane", "rotated-twin"])
def test_exchange_matches_the_permuted_tensor_its_grouping_and_the_difference(name):
    alg = _context(name).algebra
    cancelled = 0
    for t in _samples(alg, f"exchange/{name}"):
        plain = t.permute(P23)
        image, diff = alg.exchange(t)
        assert (image.nums, image.den) == (plain.nums, plain.den)
        assert image._groups == alg.prepare(plain)._groups
        # The difference keeps the denominator of `t`, unreduced, with no zero numerator.
        assert diff.den == t.den and all(diff.nums.values())
        assert _canonical(alg, 3, diff.nums, diff.den) == t - plain
        cancelled += sum(key not in diff.nums for key in t.nums)
    # Keys that P23 fixes, and pairs of equal terms that it swaps, cancel.
    assert cancelled


@pytest.mark.parametrize("name", ["poincare-null-plane", "rotated-twin"])
def test_products_of_the_exchanged_operands_match_the_plain_ones(name):
    """As `check_qybe` uses them, with a fractional scale and each `part`:
    ``P23(T)`` on the right of ``R23`` and on the left, and ``T - P23(T)`` on the left."""
    ctx = _context(name)
    alg, r = ctx.algebra, ctx.universal_r
    r23 = alg.prepare(r.embed(3, (1, 2)))
    scale = Q(-3, 7)
    for t in _samples(alg, f"exchange-products/{name}", count=6):
        plain = t.permute(P23)
        image, diff = alg.exchange(t)
        pairs = ((r23, image, r23, plain), (image, r23, plain, r23), (diff, r23, t - plain, r23))
        for part in (None, "lead", "corr"):
            for a, b, a_plain, b_plain in pairs:
                got, want = {}, {}
                alg.mul_into(got, a, b, scale, part)
                alg.mul_into(want, a_plain, b_plain, scale, part)
                assert _from_parts(alg, 3, got) == _from_parts(alg, 3, want)
