"""check_qybe sums the Yang-Baxter residual in parts made of slices of R12 R13.

A slice holds the terms of ``T = R12 R13`` whose leg-0 monomials share their
X exponents; a part holds whole slices, and adds the leading part of its two
products once, ``lead(T - P23(T), R23)``, and their reorder corrections.
The reference is the unsliced residual, ``R12 R13 R23 - R23 R13 R12``, of
two full products summed whole in one accumulator (`helpers.unsliced_qybe`): the
count and the witness of the check must match it for seeded mutants of R on
three presets, and on a rotated spec through `run_suite`, where the residual
is mapped back to the user's basis.  The direct path of
`tests/test_transport.py` runs the same slicing, so it is no oracle for it.
A part's operands are handed to the products unreduced; the parts as they
were assembled in canonical form (`helpers.canonical_qybe_parts`) must give
the same residual part by part, and the same report.
"""

import dataclasses
import random
import time
from math import gcd
from pathlib import Path

import pytest

from helpers import (
    cached_context,
    canonical_qybe_parts,
    count_parts,
    image_parts,
    orbit_r_mutants,
    permute,
    r_mutants,
    random_valid_spec_3d,
    rotated_null_plane_specs,
    three_jordanian_spec,
    unsliced_qybe,
)
from qtwist import algebra, build_context, parse_spec_file, verify
from qtwist.algebra import Algebra, Monomial, _wrap
from qtwist.verify import check_qybe, orbit_symmetry, run_suite

CASES = (("poincare-null-plane", 3), ("jordanian-borel", 4), ("shift-ring(3)", 3))
ROTATED = Path(__file__).parent / "data" / "rotated-null-plane.json"


def _parts_hit(parts):
    """The number of parts `count_parts` recorded whose residual has terms."""
    return sum(res is not None and not res.is_zero() for _, res, _ in parts["tallied"])


@pytest.mark.parametrize("name,order", CASES)
def test_sliced_qybe_matches_the_unsliced_residual_on_rmat_mutants(name, order, monkeypatch):
    ctx = cached_context(name, order)
    assert check_qybe(ctx).passed
    assert unsliced_qybe(ctx)[1] is None
    spread = 0
    for rmat in r_mutants(ctx, f"qybe/{name}/{order}"):
        parts = count_parts(monkeypatch)
        result = check_qybe(ctx, rmat=rmat)
        residual, witness, _ = unsliced_qybe(ctx, rmat)
        assert (result.residual_terms, result.witness) == (len(residual.nums), witness)
        spread = max(spread, _parts_hit(parts))
        monkeypatch.undo()
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
        parts = count_parts(monkeypatch)
        (result,) = run_suite(ctx, "ybe", rmat=rmat).results
        residual, witness, _ = unsliced_qybe(twin, twin.from_user(rmat))
        assert (result.residual_terms, result.witness) == (len(residual.nums), witness)
        spread = max(spread, _parts_hit(parts))
        monkeypatch.undo()
    assert spread > 1


def _split_keys(ctx, perm, monomials=True):
    """The accumulator keys of the residual as `check_qybe` splits it, but
    summed whole: ``lead(R23, T - P23(T)) + corr(T, R23) - corr(R23, P23(T))``,
    the three products over one base denominator as in a part,
    for the terms of ``T = R12 R13`` whose leg-0 X exponents are the smallest
    of their orbit under the relabelling `perm` and, where `perm` fixes
    those and `monomials` is set, whose whole leg-0 monomial is the smallest
    of its orbit; or for all of T when `perm` is None."""
    r = ctx.universal_r
    alg, r23 = r.algebra, r.embed(3, (1, 2))

    def orbit(mono):
        images = [mono]
        while perm:
            mono = Monomial(*(tuple(e[perm.index(i)] for i in range(len(e))) for e in mono))
            if mono == images[0]:
                break
            images.append(mono)
        return images

    def kept(mono):
        xs = [image.x for image in orbit(mono)]
        return mono.x == min(xs) and (len(set(xs)) > 1 or not monomials or mono == min(orbit(mono)))

    whole = r.embed(3, (0, 1)) * r.embed(3, (0, 2))
    t = alg.tensor_element(3, {key: c for key, c in whole.terms.items() if kept(key[1][0])})
    tp = permute(t, (0, 2, 1))
    # As in a part, T, P23(T) and their difference share one denominator, unreduced.
    diff = {key: t.nums.get(key, 0) - tp.nums.get(key, 0) for key in t.nums.keys() | tp.nums.keys()}
    diff = _wrap(alg, 3, {key: v for key, v in diff.items() if v}, t.den)
    acc = {}
    alg.mul_into(acc, r23, diff, 1, "lead")
    alg.mul_into(acc, t, r23, 1, "corr")
    alg.mul_into(acc, r23, tp, -1, "corr")
    return sum(map(len, acc.values()))


def test_no_qybe_part_holds_more_than_half_the_unsliced_residual(monkeypatch):
    """Peak memory of qybe follows the largest accumulator it holds; count
    its keys before cancellation, part by part, instead of reading RSS.  The
    parts of the orbit path's image slices are relabelled, not summed: they
    hold no accumulator and run no product, so the summed parts split the
    keys of the slices that are summed."""
    ctx = cached_context("poincare-null-plane", 4)
    perm = orbit_symmetry(ctx.universal_r)
    assert perm is not None
    sizes, stray, busy = [], [], []
    mul_into = Algebra.mul_into
    parts = count_parts(monkeypatch)
    summed = verify._residual

    def sized_residual(terms):
        sizes.append(0)
        busy.append(True)
        out = summed(terms)
        busy.pop()
        return out

    def counted_mul_into(self, acc, a, b, scale=1, part=None):
        mul_into(self, acc, a, b, scale, part)
        if busy:
            sizes[-1] = max(sizes[-1], sum(map(len, acc.values())))
        elif sizes:
            # R12 R13 is formed before the first part; any later product
            # outside the summing of a part would belong to no part.
            stray.append(part)

    monkeypatch.setattr(verify, "_residual", sized_residual)
    monkeypatch.setattr(Algebra, "mul_into", counted_mul_into)
    assert check_qybe(ctx).passed
    monkeypatch.undo()
    keys, unsliced = _split_keys(ctx, perm), _split_keys(ctx, None)
    # The parts split the accumulator's keys between them, none shared, and
    # orbits of whole leg-0 monomials sum fewer than orbits of X parts.
    assert sum(sizes) == keys < _split_keys(ctx, perm, monomials=False) < unsliced
    assert len(sizes) > 1
    assert 2 * max(sizes) < unsliced
    # Image parts were tallied, and no product ran for them.
    assert image_parts(parts) and stray == []


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


def _assembly_cases():
    """``(label, context, rmat)``: the presets, lifted twins of dense-basis specs, the three copies of
    `jordanian-borel` with seeded mutants of R, and mutants of R that its symmetry fixes and does not."""
    for name, order in CASES:
        yield name, cached_context(name, order), None
    yield "rotated-twin", build_context(parse_spec_file(ROTATED).with_order(3)).lifted, None
    rng = random.Random("qybe-assembly")
    for i in range(2):
        yield f"random-3d-{i}-twin", build_context(random_valid_spec_3d(rng)).lifted, None
    copies = build_context(three_jordanian_spec())
    yield "jordanian-borel-x3", copies, None
    for i, rmat in enumerate(r_mutants(copies, "qybe-assembly/x3", count=2)):
        yield f"jordanian-borel-x3 mutant {i}", copies, rmat
    null_plane = cached_context("poincare-null-plane", 3)
    for kind, rmat in zip(("symmetric", "asymmetric"), orbit_r_mutants(null_plane, "qybe-assembly/orbit")):
        yield f"{kind} orbit mutant", null_plane, rmat


def test_qybe_parts_assembled_unreduced_match_the_canonical_assembly(monkeypatch):
    """Each part's residual, and the report, equal those of the parts assembled in canonical
    form (`helpers.canonical_qybe_parts`), although the operands of some parts are not reduced."""
    exchange, unreduced = Algebra.exchange, []

    def watched_exchange(self, t):
        unreduced.append(gcd(t.den, *t.nums.values()) > 1)
        return exchange(self, t)

    failed = 0
    for label, ctx, rmat in _assembly_cases():
        parts = count_parts(monkeypatch)
        monkeypatch.setattr(Algebra, "exchange", watched_exchange)
        got = check_qybe(ctx, rmat=rmat)
        got_parts = parts["tallied"]
        monkeypatch.undo()
        parts = count_parts(monkeypatch)
        want = verify._finish("qybe", ctx, canonical_qybe_parts(ctx, rmat), time.perf_counter())
        want_parts = parts["tallied"]
        monkeypatch.undo()
        assert got_parts == want_parts, label
        assert dataclasses.replace(got, elapsed_ms=0) == dataclasses.replace(want, elapsed_ms=0), label
        failed += not got.passed
    assert failed >= 4 and any(unreduced)
