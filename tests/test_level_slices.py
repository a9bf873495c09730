"""check_qybe builds T = R12 R13 a level at a time, and never holds it whole.

`Algebra.r12_r13_slices` multiplies the pairs of terms of R12 and R13 by
falling total leg-0 X degree of their X parts, and yields the slices of T of
each degree once that level is done.  The reference is the split of the whole
of T, formed by one product (`helpers.split_by_x`, `helpers.whole_t_levels`):
each level's slices must equal the reference's slices of that degree, term map
for term map, with and without a relabelling, on the presets, lifted twins of
dense-basis specs, the three copies of `jordanian-borel` with mutants of R, and
mutants of R that the null-plane symmetry fixes and does not.  Memory is
counted in keys of T held at once, the level's accumulator and the slices not
yet complete, not in RSS.
"""

import random
from pathlib import Path

import pytest

from helpers import (
    cached_context,
    orbit_r_mutants,
    r_mutants,
    random_valid_spec_3d,
    three_jordanian_spec,
    whole_t,
    whole_t_levels,
    x_degree,
)
from qtwist import build_context, parse_spec_file
from qtwist.algebra import Algebra
from qtwist.verify import check_qybe

ROTATED = Path(__file__).parent / "data" / "rotated-null-plane.json"


def _slice_cases():
    """``(label, R)``: the presets, lifted twins of dense-basis specs, the three copies of
    `jordanian-borel` with seeded mutants of R, and mutants of R that its symmetry fixes and does not."""
    for name, order in (("poincare-null-plane", 3), ("jordanian-borel", 4), ("shift-ring(3)", 3)):
        yield name, cached_context(name, order).universal_r
    yield "rotated-twin", build_context(parse_spec_file(ROTATED).with_order(3)).lifted.universal_r
    rng = random.Random("level-slices")
    for i in range(2):
        yield f"random-3d-{i}-twin", build_context(random_valid_spec_3d(rng)).lifted.universal_r
    copies = build_context(three_jordanian_spec())
    yield "jordanian-borel-x3", copies.universal_r
    for i, rmat in enumerate(r_mutants(copies, "level-slices/x3", count=2)):
        yield f"jordanian-borel-x3 mutant {i}", rmat
    null_plane = cached_context("poincare-null-plane", 3)
    for kind, rmat in zip(("symmetric", "asymmetric"), orbit_r_mutants(null_plane, "level-slices/orbit")):
        yield f"{kind} orbit mutant", rmat


def _keys(acc):
    return sum(map(len, acc.values()))


def test_each_level_yields_the_slices_of_the_whole_product_of_its_degree():
    relabelled, dropped, orbits = 0, False, set()
    for label, r in _slice_cases():
        alg = r.algebra
        # Without a relabelling, and with each symmetry of the algebra that fixes R.
        perms = [None] + [p for p in alg.symmetries if alg.relabel(r, p) == r]
        relabelled += len(perms) > 1
        for perm in perms:
            levels = list(alg.r12_r13_slices(r, perm))
            got = {s: level for s, level in zip(range(len(levels) - 1, -1, -1), levels) if level}
            want = {s: level for s, level in enumerate(whole_t_levels(r, perm)) if level}
            # Equal term maps, denominator by denominator, cancelled keys too.
            assert got == want, (label, perm)
            assert all(x_degree(alg, x) == s for s, level in got.items() for x in level)
            orbits |= {size for level in got.values() for size, _ in level.values()}
            if perm is not None:
                kept = sum(_keys(dens) for level in got.values() for _, dens in level.values())
                dropped |= kept < _keys(whole_t(r)[0])
    # The orbit path ran, dropped terms, and kept orbits of one, two and three slices.
    assert relabelled >= 4 and dropped and orbits == {1, 2, 3}


def _held(monkeypatch, ctx):
    """Keys of T held at once: at the end of each level's products, the level's accumulator
    and the slices not yet complete; after its move, those slices.  Also the keys of every
    accumulator the check's products fill."""
    held, accs = [], []
    move, mul_into = Algebra._move, Algebra.mul_into

    def pending(slices):
        return sum(_keys(dens) for level in slices.values() for _, dens in level.values())

    def counted_move(self, acc, slices, seen, perm):
        held.append(_keys(acc) + pending(slices))
        move(self, acc, slices, seen, perm)
        held.append(pending(slices))

    def counted_mul_into(self, acc, a, b, scale=1, part=None, order=None):
        mul_into(self, acc, a, b, scale, part, order)
        accs.append(_keys(acc))

    monkeypatch.setattr(Algebra, "_move", counted_move)
    monkeypatch.setattr(Algebra, "mul_into", counted_mul_into)
    assert check_qybe(ctx).passed
    monkeypatch.undo()
    return held, accs


@pytest.mark.parametrize("name,order", [("poincare-null-plane", 5), ("poincare-null-plane", 6), ("shift-ring(4)", 5)])
def test_qybe_holds_at_most_half_of_r12_r13_at_once(name, order, monkeypatch):
    """The whole of T would be every key of its accumulator; the level build holds at most
    half of them at once, and no accumulator of the check holds as many keys as T."""
    ctx = cached_context(name, order)
    held, accs = _held(monkeypatch, ctx)
    whole = whole_t(ctx.universal_r)[1]
    assert len(held) > 2 * order and 0 < 2 * max(held) <= whole
    assert accs and max(accs) < whole
