"""Generator relabellings that fix the bracket table, and the orbit path they give.

A relabelling ``H_i -> H_perm[i]``, ``X_i -> X_perm[i]`` that maps the
bracket table onto itself is an algebra automorphism (`Algebra.symmetries`).
When it also fixes the R in hand, `check_qybe` sums one slice of
``T = R12 R13`` per orbit and `check_intertwine` one generator per orbit,
and each tallies the relabelled residual for the rest.  Their counts and
witnesses must match the references, which sum every slice and every
generator (`helpers.unsliced_qybe`, `helpers.unsplit_intertwining`), and
each test asserts which path ran.
"""

import dataclasses
import random
from pathlib import Path

from helpers import (
    cached_context,
    count_parts,
    image_parts,
    orbit_r_mutants,
    random_tensor,
    unsliced_qybe,
    unsplit_intertwining,
)
from qtwist import build_context, parse_spec_file, preset
from qtwist.hopf import HopfContext
from qtwist.verify import check_intertwine, check_qybe, orbit_symmetry, run_suite

ROTATED = Path(__file__).parent / "data" / "rotated-null-plane.json"
EXCHANGE = (1, 0, 2)


def test_null_plane_has_the_exchange_of_indices_0_and_1_and_no_other_symmetry():
    assert cached_context("poincare-null-plane", 3).algebra.symmetries == (EXCHANGE,)
    assert cached_context("jordanian-borel", 4).algebra.symmetries == ()
    assert cached_context("shift-ring(3)", 3).algebra.symmetries == ()


def test_a_symmetry_relabels_a_product_factor_by_factor():
    alg = cached_context("poincare-null-plane", 3).algebra
    rng = random.Random(17)
    moved = []
    for legs in (1, 2, 3):
        for _ in range(10):
            a, b = random_tensor(rng, alg, legs), random_tensor(rng, alg, legs)
            assert alg.relabel(a * b, EXCHANGE) == alg.relabel(a, EXCHANGE) * alg.relabel(b, EXCHANGE)
            moved.append(alg.relabel(a * b, (0, 2, 1)) != alg.relabel(a, (0, 2, 1)) * alg.relabel(b, (0, 2, 1)))
    # A permutation that maps the table elsewhere is no automorphism.
    assert any(moved)


def test_a_b_mutant_that_breaks_the_exchange_takes_the_full_path(monkeypatch):
    base = preset("poincare-null-plane").with_order(3)
    B = [[list(row) for row in block] for block in base.B]
    # [H1, X1] gains 2 H3, which [H2, X2] does not.
    B[2][0][0] += 2
    ctx = build_context(dataclasses.replace(base, B=B))
    assert ctx.algebra.symmetries == ()
    parts = count_parts(monkeypatch)
    run_suite(ctx, "all")
    assert parts["tallied"] and not image_parts(parts)


def test_intertwining_pairs_no_generators_whose_coproducts_the_relabelling_does_not_map(monkeypatch):
    """A stale coupling of H1 into the coproduct of X1 leaves the table and R
    symmetric, so the orbit path runs, but pairs only H1 with H2."""
    ctx = cached_context("poincare-null-plane", 3)
    alpha = [[list(row) for row in block] for block in ctx.derived.alpha_up]
    alpha[0][0][0] += 1
    stale = HopfContext(dataclasses.replace(ctx.derived, alpha_up=alpha))
    parts = count_parts(monkeypatch)
    result = check_intertwine(stale)
    assert not result.passed
    assert (result.residual_terms, result.witness) == unsplit_intertwining(stale)
    assert [label for label, _, image in parts["tallied"] if image] == ["H2"]


def test_a_symmetric_rmat_mutant_takes_the_orbit_path_on_the_preset(monkeypatch):
    ctx = cached_context("poincare-null-plane", 3)
    assert orbit_symmetry(ctx.universal_r) == EXCHANGE
    for seed in range(3):
        symmetric, asymmetric = orbit_r_mutants(ctx, f"orbit/{seed}")
        assert orbit_symmetry(symmetric) == EXCHANGE and orbit_symmetry(asymmetric) is None
        for rmat, orbit in ((symmetric, True), (asymmetric, False)):
            parts = count_parts(monkeypatch)
            qybe = check_qybe(ctx, rmat=rmat)
            residual, witness, _ = unsliced_qybe(ctx, rmat)
            assert (qybe.residual_terms, qybe.witness) == (len(residual.nums), witness)
            assert any(not res.is_zero() for res in image_parts(parts)) == orbit
            monkeypatch.undo()
            parts = count_parts(monkeypatch)
            result = check_intertwine(ctx, rmat=rmat)
            assert (result.residual_terms, result.witness) == unsplit_intertwining(ctx, rmat)
            assert any(not res.is_zero() for res in image_parts(parts)) == orbit
            monkeypatch.undo()


def test_a_symmetric_rmat_mutant_takes_the_orbit_path_through_run_suite(monkeypatch):
    """On a spec with r != I the orbit path runs on the lifted twin, and each
    relabelled residual is mapped back to the user's basis."""
    ctx = build_context(parse_spec_file(ROTATED).with_order(3))
    twin = ctx.lifted
    assert twin is not ctx and orbit_symmetry(twin.universal_r) == EXCHANGE
    for orbit, rmat in zip((True, False), orbit_r_mutants(twin, "orbit/rotated")):
        user_rmat = twin.to_user(rmat)
        parts = count_parts(monkeypatch)
        (qybe,) = run_suite(ctx, "ybe", rmat=user_rmat).results
        residual, witness, _ = unsliced_qybe(twin, twin.from_user(user_rmat))
        assert (qybe.residual_terms, qybe.witness) == (len(residual.nums), witness)
        assert not qybe.passed
        assert bool(image_parts(parts)) == orbit
        monkeypatch.undo()
        parts = count_parts(monkeypatch)
        (result,) = run_suite(ctx, "hopf", rmat=user_rmat).results[1:]
        assert result.name == "intertwining"
        expected = unsplit_intertwining(twin, twin.from_user(user_rmat))
        assert (result.residual_terms, result.witness) == expected
        assert bool(image_parts(parts)) == orbit
        monkeypatch.undo()
