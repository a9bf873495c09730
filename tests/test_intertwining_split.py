"""check_intertwine adds the leading part of its two products once.

Per generator g the residual is ``R Δ(g) - Δ^op(g) R``; the check sums it as
``lead(Δ(g) - Δ^op(g), R)`` plus the reorder corrections of both products.
The reference forms both products in full (`helpers.unsplit_intertwining`):
the count and the witness of the check must match it for seeded mutants of
R on three presets, and on a rotated spec through `run_suite`, where each
residual is mapped back to the user's basis.
"""

import pytest

from helpers import cached_context, r_mutants, rotated_null_plane_specs, unsplit_intertwining
from qtwist import build_context
from qtwist.verify import check_intertwine, run_suite

CASES = (("poincare-null-plane", 3), ("jordanian-borel", 4), ("shift-ring(3)", 3))


@pytest.mark.parametrize("name,order", CASES)
def test_split_intertwining_matches_full_products_on_rmat_mutants(name, order):
    ctx = cached_context(name, order)
    assert check_intertwine(ctx).passed
    assert unsplit_intertwining(ctx) == (0, None)
    failed = 0
    for rmat in r_mutants(ctx, f"intertwining/{name}/{order}"):
        result = check_intertwine(ctx, rmat=rmat)
        assert (result.residual_terms, result.witness) == unsplit_intertwining(ctx, rmat)
        failed += not result.passed
    assert failed


def test_split_intertwining_matches_full_products_in_the_users_basis():
    ctx = build_context(next(rotated_null_plane_specs(order=3)))
    twin = ctx.lifted
    assert twin is not ctx
    failed = 0
    for rmat in r_mutants(ctx, "intertwining/rotated-null-plane/3"):
        (result,) = run_suite(ctx, "hopf", rmat=rmat).results[1:]
        assert result.name == "intertwining"
        assert (result.residual_terms, result.witness) == unsplit_intertwining(
            twin, twin.from_user(rmat)
        )
        failed += not result.passed
    assert failed
