"""The symmetry the orbit path takes, read from the twist exponent, on specs with several symmetries.

For the context's own R, `check_qybe` and `check_intertwine` take the
first symmetry of the algebra that fixes the twist exponent t: a symmetry
is an automorphism, and the power-1 part of ``R = exp(swap t) exp(-t)`` is
``swap(t) - t``, so it fixes R exactly when it fixes t.  The first test
checks that this is the symmetry that relabelling R itself finds.

The direct sum of three copies of `jordanian-borel` (``B[i][i][i] = 2``,
r = I) has five symmetries, all the permutations of its three indices.
Seeded `rmat` mutants of it fixed by one transposition only, by the
3-cycles only and by no symmetry take the orbit path with orbits of size 2
and 3, or the full path, and must match the references that sum every
slice and every generator.
"""

import random
from pathlib import Path

import pytest

from helpers import (
    cached_context,
    count_parts,
    image_parts,
    random_valid_spec_3d,
    stale_context,
    three_jordanian_spec,
    unsliced_qybe,
    unsplit_intertwining,
)
from qtwist import build_context, parse_spec_file, validate_spec
from qtwist.verify import check_intertwine, check_qybe, orbit_symmetry, run_suite

ROTATED = Path(__file__).parent / "data" / "rotated-null-plane.json"
CYCLE = (1, 2, 0)


def _contexts():
    """``(label, context)`` pairs: every context a product check runs on is a lifted twin."""
    for name, order in (("poincare-null-plane", 3), ("jordanian-borel", 4), ("shift-ring(3)", 3), ("shift-ring(4)", 3)):
        yield name, cached_context(name, order)
    yield "rotated-twin", build_context(parse_spec_file(ROTATED).with_order(3)).lifted
    rng = random.Random("symmetric-specs")
    for i in range(2):
        yield f"random-3d-{i}-twin", build_context(random_valid_spec_3d(rng)).lifted
    null_plane = cached_context("poincare-null-plane", 3)
    for field, at in (("B", (2, 0, 0)), ("B", (0, 1, 1)), ("r", (2, 2)), ("r", (0, 0)), ("r", (0, 1))):
        yield f"stale-{field}{at}", stale_context(null_plane, field, at)
    yield "jordanian-borel-x3", build_context(three_jordanian_spec())


def test_the_symmetry_read_off_the_twist_exponent_is_the_one_that_relabelling_r_finds():
    found = {}
    for label, ctx in _contexts():
        found[label] = orbit_symmetry(ctx.twist_exponent)
        assert found[label] == orbit_symmetry(ctx.universal_r), label
    # Both routes meet a symmetry that fixes R, one that does not, and a choice among several.
    assert found["poincare-null-plane"] == found["stale-r(2, 2)"] == (1, 0, 2)
    assert found["stale-r(0, 0)"] is None and found["stale-r(0, 1)"] is None
    assert found["jordanian-borel-x3"] == (0, 2, 1)


def test_three_jordanian_copies_have_five_symmetries_and_pass_all():
    spec = three_jordanian_spec()
    validate_spec(spec)
    ctx = build_context(spec)
    assert ctx.algebra.symmetries == ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    assert run_suite(ctx, "all").passed


def _mutants(ctx, seed):
    """R raised at one seeded key below the top power that no symmetry fixes, and at its
    images: ``(mutant, the symmetry its orbit path takes)`` for the images under the
    transposition (0, 2, 1), under the 3-cycle `CYCLE` and its square, and under none."""
    alg, r = ctx.algebra, ctx.universal_r
    bumps = [alg.tensor_element(2, {key: 1}) for key in sorted(r.terms) if key[0] < alg.order]
    bump = random.Random(seed).choice([b for b in bumps if all(alg.relabel(b, p) != b for p in alg.symmetries)])
    cycled = alg.relabel(bump, CYCLE)
    return (
        (r + bump + alg.relabel(bump, (0, 2, 1)), (0, 2, 1)),
        (r + bump + cycled + alg.relabel(cycled, CYCLE), CYCLE),
        (r + bump, None),
    )


@pytest.mark.parametrize("seed", range(2))
def test_symmetric_mutants_of_three_jordanian_copies_match_the_references(seed, monkeypatch):
    ctx = build_context(three_jordanian_spec())
    for rmat, perm in _mutants(ctx, f"jordanian-x3/{seed}"):
        assert orbit_symmetry(rmat) == perm
        parts = count_parts(monkeypatch)
        qybe = check_qybe(ctx, rmat=rmat)
        residual, witness, _ = unsliced_qybe(ctx, rmat)
        assert not qybe.passed
        assert (qybe.residual_terms, qybe.witness) == (len(residual.nums), witness)
        images = [label for label, _, image in parts["tallied"] if image]
        assert bool(images) == (perm is not None)
        monkeypatch.undo()
        parts = count_parts(monkeypatch)
        result = check_intertwine(ctx, rmat=rmat)
        assert (result.residual_terms, result.witness) == unsplit_intertwining(ctx, rmat)
        assert any(not res.is_zero() for res in image_parts(parts)) == (perm is not None)
        if perm == CYCLE:
            # Each generator's orbit under the 3-cycle has three members, two of them images.
            assert len(image_parts(parts)) == 4
        monkeypatch.undo()
