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
from fractions import Fraction as Q
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
from qtwist.algebra import Algebra, Monomial, _from_parts
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


CYCLE = (1, 2, 0)


def _cycled(e):
    return tuple(e[CYCLE.index(i)] for i in range(len(e)))


def _cyclic_algebra(rng, order):
    """An `Algebra(3, 3, order, ...)` whose random table `CYCLE` maps onto itself."""
    table = {}
    for mu in range(3):
        entry = {}
        for _ in range(2):
            h = tuple(rng.randint(0, 1) for _ in range(3))
            entry[(rng.randint(0, order), Monomial(h, (0, 0, 0)))] = Q(rng.randint(1, 3), rng.randint(1, 2))
        j, nu = 0, mu
        for _ in range(3):
            table[(j, nu)] = entry
            entry = {(k, Monomial(_cycled(mono.h), mono.x)): c for (k, mono), c in entry.items()}
            j, nu = CYCLE[j], CYCLE[nu]
    return Algebra(3, 3, order, table)


def test_split_and_unfold_restore_the_slices_of_an_invariant_tensor_under_a_3_cycle():
    """On a table that a 3-cycle maps onto itself, the move of a level of T
    into its slices (`Algebra._move`) keeps one X part of each orbit and, in a
    slice whose X part the cycle fixes, one leg-0 monomial of each orbit, of
    length 1 or 3; `unfold` restores the rest."""
    rng = random.Random("cycle")
    alg = _cyclic_algebra(rng, 3)
    assert CYCLE in alg.symmetries
    terms = {}
    for _ in range(60):
        x = rng.choice([(0, 0, 0), (1, 1, 1), (1, 0, 0), (0, 1, 1)])
        hs = [tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(3)]
        monos = (Monomial(hs[0], x), Monomial(hs[1], (0, 1, 1)), Monomial(hs[2], (0, 1, 2)))
        terms[(rng.randint(0, 3), monos)] = Q(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3))
    t = alg.tensor_element(3, terms)
    invariant = t + alg.relabel(t, CYCLE) + alg.relabel(alg.relabel(t, CYCLE), CYCLE)
    assert alg.relabel(invariant, CYCLE) == invariant
    by_x = {}
    for (k, monos), c in invariant.terms.items():
        by_x.setdefault(monos[0].x, {})[(k, monos)] = c
    acc = {}
    invariant.add_into(acc)
    sizes, fixed_seen, moved_seen, slices = {}, False, False, {}
    alg._move(acc, slices, {}, CYCLE)
    assert not acc and all(sum(alg.decode(x, 1)[1][0].x) == d for d, level in slices.items() for x in level)
    for x, (size, parts) in ((x, kept) for level in slices.values() for x, kept in level.items()):
        x = alg.decode(x, 1)[1][0].x
        sizes[x], kept, want = size, _from_parts(alg, 3, parts), alg.tensor_element(3, by_x[x])
        if size == 1:
            assert alg.unfold(kept, 0, CYCLE) == want
            # Terms of fixed leg-0 monomials are all kept; the others, one in three.
            fixed = sum(_cycled(monos[0].h) == monos[0].h for _, monos in want.terms)
            assert 3 * (len(kept.nums) - fixed) == len(want.nums) - fixed
            fixed_seen |= fixed > 0
            moved_seen |= len(want.nums) > fixed
        else:
            assert kept == want
    assert sizes == {(0, 0, 0): 1, (1, 1, 1): 1, (0, 0, 1): 3, (0, 1, 1): 3}
    assert fixed_seen and moved_seen


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


def _count_unfolded(monkeypatch):
    """Record the terms each `Algebra.unfold` call restores, until `monkeypatch` is undone."""
    restored, unfold = [], Algebra.unfold

    def counted(self, tensor, leg, perm):
        out = unfold(self, tensor, leg, perm)
        restored.append(len(out.nums) - len(tensor.nums))
        return out

    monkeypatch.setattr(Algebra, "unfold", counted)
    return restored


def test_a_symmetric_rmat_mutant_takes_the_orbit_path_on_the_preset(monkeypatch):
    """Its residual has terms in slices that the exchange maps to others,
    which are relabelled, and in slices that it maps to themselves, which are
    unfolded."""
    ctx = cached_context("poincare-null-plane", 3)
    assert orbit_symmetry(ctx.universal_r) == EXCHANGE
    for seed in range(3):
        symmetric, asymmetric = orbit_r_mutants(ctx, f"orbit/{seed}")
        assert orbit_symmetry(symmetric) == EXCHANGE and orbit_symmetry(asymmetric) is None
        for rmat, orbit in ((symmetric, True), (asymmetric, False)):
            parts = count_parts(monkeypatch)
            restored = _count_unfolded(monkeypatch)
            qybe = check_qybe(ctx, rmat=rmat)
            residual, witness, _ = unsliced_qybe(ctx, rmat)
            assert (qybe.residual_terms, qybe.witness) == (len(residual.nums), witness)
            assert any(not res.is_zero() for res in image_parts(parts)) == orbit
            assert (sum(restored) > 0) == orbit
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
        restored = _count_unfolded(monkeypatch)
        (qybe,) = run_suite(ctx, "ybe", rmat=user_rmat).results
        residual, witness, _ = unsliced_qybe(twin, twin.from_user(user_rmat))
        assert (qybe.residual_terms, qybe.witness) == (len(residual.nums), witness)
        assert not qybe.passed
        assert bool(image_parts(parts)) == orbit
        assert (sum(restored) > 0) == orbit
        monkeypatch.undo()
        parts = count_parts(monkeypatch)
        (result,) = run_suite(ctx, "hopf", rmat=user_rmat).results[1:]
        assert result.name == "intertwining"
        expected = unsplit_intertwining(twin, twin.from_user(user_rmat))
        assert (result.residual_terms, result.witness) == expected
        assert bool(image_parts(parts)) == orbit
        monkeypatch.undo()
