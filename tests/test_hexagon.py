"""The hexagon identities of the universal R-matrix, as a test invariant.

A quasitriangular R satisfies ``(Δ⊗id)(R) == R13·R23`` and
``(id⊗Δ)(R) == R13·R12``; with Yang-Baxter they are the identities the paper's
R-matrix is built to meet.  They hold exactly at N=4 on the three presets and
on the lifted twins of the rotated spec and of two random specs with
``r != I`` (`random_valid_spec_3d`), whose dense bracket tables give blocks
of many rows, and the swapped orderings ``R23·R13`` and ``R12·R13`` do not:
the products do not commute, so the order matters.
"""

import random
from pathlib import Path

import pytest

from helpers import random_valid_spec_3d
from qtwist import build_context, parse_spec_file, preset

ROTATED = Path(__file__).parent / "data" / "rotated-null-plane.json"
CASES = (
    "poincare-null-plane",
    "jordanian-borel",
    "shift-ring(3)",
    "rotated-null-plane twin",
    "random-3d/0 twin",
    "random-3d/1 twin",
)


def _context(name):
    if name.endswith(" twin"):
        source = name.removesuffix(" twin")
        if source == "rotated-null-plane":
            spec = parse_spec_file(ROTATED)
        else:
            spec = random_valid_spec_3d(random.Random(source))
        ctx = build_context(spec.with_order(4))
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
