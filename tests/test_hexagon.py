"""The hexagon identities of the universal R-matrix, as a test invariant.

A quasitriangular R satisfies ``(Δ⊗id)(R) == R13·R23`` and
``(id⊗Δ)(R) == R13·R12``; with Yang-Baxter they are the identities the paper's
R-matrix is built to meet.  They hold exactly at N=4 on the three presets and
on the lifted twin of the rotated spec, and the swapped orderings ``R23·R13``
and ``R12·R13`` do not: the products do not commute, so the order matters.
"""

from pathlib import Path

import pytest

from qtwist import build_context, parse_spec_file, preset

ROTATED = Path(__file__).parent / "data" / "rotated-null-plane.json"
CASES = ("poincare-null-plane", "jordanian-borel", "shift-ring(3)", "rotated-null-plane twin")


def _context(name):
    if name == "rotated-null-plane twin":
        ctx = build_context(parse_spec_file(ROTATED).with_order(4))
        assert ctx.lifted is not ctx
        return ctx.lifted
    return build_context(preset(name).with_order(4))


@pytest.mark.parametrize("name", CASES)
def test_coproduct_of_r_on_each_leg_is_a_product_of_two_copies(name):
    ctx = _context(name)
    r = ctx.universal_r
    r12, r13, r23 = (r.embed(3, legs) for legs in ((0, 1), (0, 2), (1, 2)))
    left, right = ctx.coproduct_on_leg(r, 0), ctx.coproduct_on_leg(r, 1)
    assert left == r13 * r23
    assert right == r13 * r12
    assert left != r23 * r13
    assert right != r12 * r13
