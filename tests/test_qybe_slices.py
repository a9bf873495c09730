"""check_qybe sums the Yang-Baxter residual in parts made of slices of R12 R13.

A slice holds the terms of ``T = R12 R13`` whose leg-0 monomials share their
X exponents; a part holds whole slices, and adds the leading part of its two
products once, ``lead(R23, T - P23(T))``, and their reorder corrections.
The reference is the unsliced residual, ``R12 R13 R23 - R23 R13 R12``, of
two full products summed whole in one accumulator (`helpers.unsliced_qybe`): the
count and the witness of the check must match it for seeded mutants of R on
three presets, and on a rotated spec through `run_suite`, where the residual
is mapped back to the user's basis.  The direct path of
`tests/test_transport.py` runs the same slicing, so it is no oracle for it.
"""

import pytest

from helpers import cached_context, r_mutants, rotated_null_plane_specs, unsliced_qybe
from qtwist import algebra, build_context, verify
from qtwist.algebra import Algebra
from qtwist.verify import check_qybe, run_suite

CASES = (("poincare-null-plane", 3), ("jordanian-borel", 4), ("shift-ring(3)", 3))


def _parts_hit(monkeypatch):
    """A list that gets, for each part the evaluator counts, whether the
    part's residual has terms."""
    hit, tally = [], verify._tally

    def counted_tally(label, residual):
        out = tally(label, residual)
        hit.append(out[0] > 0)
        return out

    monkeypatch.setattr(verify, "_tally", counted_tally)
    return hit


@pytest.mark.parametrize("name,order", CASES)
def test_sliced_qybe_matches_the_unsliced_residual_on_rmat_mutants(name, order, monkeypatch):
    ctx = cached_context(name, order)
    assert check_qybe(ctx).passed
    assert unsliced_qybe(ctx)[1] is None
    spread = 0
    for rmat in r_mutants(ctx, f"qybe/{name}/{order}"):
        hit = _parts_hit(monkeypatch)
        result = check_qybe(ctx, rmat=rmat)
        residual, witness, _ = unsliced_qybe(ctx, rmat)
        assert (result.residual_terms, result.witness) == (len(residual.nums), witness)
        spread = max(spread, sum(hit))
    # The witness is chosen across parts, not within one.
    assert spread > 1


def test_sliced_qybe_matches_the_unsliced_residual_in_the_users_basis(monkeypatch):
    """On a dense H basis the map back mixes the H monomials of a leg, but
    fixes every X, so slices by leg-0 X exponents stay disjoint."""
    ctx = build_context(next(rotated_null_plane_specs(order=3)))
    twin = ctx.lifted
    assert twin is not ctx
    spread = 0
    for rmat in r_mutants(ctx, "qybe/rotated-null-plane/3"):
        hit = _parts_hit(monkeypatch)
        (result,) = run_suite(ctx, "ybe", rmat=rmat).results
        residual, witness, _ = unsliced_qybe(twin, twin.from_user(rmat))
        assert (result.residual_terms, result.witness) == (len(residual.nums), witness)
        spread = max(spread, sum(hit))
    assert spread > 1


def _split_keys(ctx):
    """The accumulator keys of the residual as `check_qybe` splits it, but
    summed whole: ``lead(R23, T - P23(T)) + corr(T, R23) - corr(R23, P23(T))``
    for all of ``T = R12 R13``."""
    r = ctx.universal_r
    alg, r23 = r.algebra, r.embed(3, (1, 2))
    t = r.embed(3, (0, 1)) * r.embed(3, (0, 2))
    tp = t.permute((0, 2, 1))
    acc = {}
    alg.mul_into(acc, r23, t - tp, 1, "lead")
    alg.mul_into(acc, t, r23, 1, "corr")
    alg.mul_into(acc, r23, tp, -1, "corr")
    return sum(map(len, acc.values()))


def test_no_qybe_part_holds_more_than_half_the_unsliced_residual(monkeypatch):
    """Peak memory of qybe follows the largest accumulator it holds; count
    its keys before cancellation, part by part, instead of reading RSS."""
    ctx = cached_context("poincare-null-plane", 4)
    sizes = []
    residual, mul_into = verify._residual, Algebra.mul_into

    def counted_residual(ctx, terms):
        sizes.append(0)
        return residual(ctx, terms)

    def counted_mul_into(self, acc, a, b, scale=1, part=None):
        mul_into(self, acc, a, b, scale, part)
        # R12 R13 is formed before the first part; it is no residual.
        if sizes:
            sizes[-1] = max(sizes[-1], sum(map(len, acc.values())))

    monkeypatch.setattr(verify, "_residual", counted_residual)
    monkeypatch.setattr(Algebra, "mul_into", counted_mul_into)
    assert check_qybe(ctx).passed
    monkeypatch.undo()
    keys = _split_keys(ctx)
    # The parts split the accumulator's keys between them, none shared.
    assert sum(sizes) == keys
    assert len(sizes) > 1
    assert 2 * max(sizes) < keys


def test_qybe_never_forms_or_canonicalises_all_of_r12_r13(monkeypatch):
    """T = R12 R13 is accumulated and split into slices as it stands: no
    product runs through `mul_tensors`, and no canonical form is taken of a
    term map that holds every term of T."""
    ctx = cached_context("poincare-null-plane", 4)
    r = ctx.universal_r
    t = r.embed(3, (0, 1)) * r.embed(3, (0, 2))
    whole, seen = set(t.nums), []
    reduced = algebra._reduced

    def refused_mul_tensors(self, a, b):
        raise AssertionError("check_qybe formed a product through mul_tensors")

    def watched_reduced(nums, den):
        seen.append(whole <= nums.keys())
        return reduced(nums, den)

    monkeypatch.setattr(Algebra, "mul_tensors", refused_mul_tensors)
    monkeypatch.setattr(algebra, "_reduced", watched_reduced)
    assert check_qybe(ctx).passed
    assert seen and not any(seen)
