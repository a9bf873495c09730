"""run_suite runs its product checks on a lifted twin; the direct path is the oracle.

The direct path applies every check function to the user's context itself.
For seeded rotations of each preset into a dense H basis, at orders 2 and
3, the genuine spec and one mutant of each kind (stale B, stale r, phi,
rmat) must give byte-identical machine reports on both paths.  Both paths
sum the Yang-Baxter residual slice by slice, so the slicing has its own
oracle in `tests/test_qybe_slices.py`.
"""

import gc
import random
import weakref
from functools import lru_cache

import pytest

from helpers import cached_context, mutate_tensor, random_valid_spec_3d, rotated_specs, stale_context
from qtwist import build_context, validate_spec
from qtwist.algebra import Monomial
from qtwist.cli import render_report_machine
from qtwist.errors import ShapeError
from qtwist.verify import (
    CheckReport,
    check_alpha_exchange,
    check_classical_basis,
    check_classical_limit,
    check_cybe,
    check_hopf_axioms,
    check_intertwine,
    check_qybe,
    check_triangularity,
    check_twist_equation,
    run_suite,
)

PRESETS = ("poincare-null-plane", "jordanian-borel", "shift-ring(3)")
# Rotations per order: the direct path takes about 1 s a suite at order 3.
ROTATIONS = {2: 3, 3: 1}


def direct_report(ctx, xi=None, phi=None, rmat=None):
    """Suite `all` with every check applied to `ctx` itself."""
    results = (
        check_classical_limit(ctx),
        check_cybe(ctx),
        check_alpha_exchange(ctx),
        check_classical_basis(ctx, xi=xi, phi=phi),
        check_hopf_axioms(ctx, phi=phi),
        check_intertwine(ctx, rmat=rmat),
        check_twist_equation(ctx, phi=phi),
        check_triangularity(ctx, rmat=rmat),
        check_qybe(ctx, rmat=rmat),
    )
    return CheckReport(ctx.spec.name, ctx.algebra.order, "all", results)


@lru_cache(maxsize=None)
def _contexts(name, order):
    return tuple(build_context(spec) for spec in rotated_specs(name, order, ROTATIONS[order]))


def _cases(ctx, rng):
    """(label, context, overrides) for the genuine spec and one mutant of each kind."""
    spec = ctx.spec
    m, n = spec.m, spec.n
    phi = mutate_tensor(ctx.algebra, ctx.phi, rng.choice(sorted(ctx.phi.terms)))
    rmat = mutate_tensor(ctx.algebra, ctx.universal_r, rng.choice(sorted(ctx.universal_r.terms)))
    b_at = (rng.randrange(m), rng.randrange(m), rng.randrange(n))
    r_at = (rng.randrange(m), rng.randrange(n))
    return (
        ("genuine", ctx, {}),
        ("B", stale_context(ctx, "B", b_at), {}),
        ("r", stale_context(ctx, "r", r_at), {}),
        ("phi", ctx, {"phi": phi}),
        ("rmat", ctx, {"rmat": rmat}),
    )


@pytest.mark.parametrize("order", sorted(ROTATIONS))
@pytest.mark.parametrize("name", PRESETS)
def test_transported_reports_match_direct(name, order):
    for index, ctx in enumerate(_contexts(name, order)):
        rng = random.Random(f"{name}/{order}/{index}")
        for label, target, overrides in _cases(ctx, rng):
            want = render_report_machine(direct_report(target, **overrides))
            got = render_report_machine(run_suite(target, "all", **overrides))
            assert got == want, (index, label)


@pytest.mark.parametrize("index", range(3))
def test_random_3d_specs_transported_reports_match_direct(index):
    """Random valid specs with r != I (`random_valid_spec_3d`), at order 2."""
    rng = random.Random(f"random-3d/{index}")
    spec = random_valid_spec_3d(rng)
    assert validate_spec(spec).passed
    ctx = build_context(spec)
    assert ctx.lifted is not ctx
    for label, target, overrides in _cases(ctx, rng):
        report = run_suite(target, "all", **overrides)
        assert render_report_machine(report) == render_report_machine(direct_report(target, **overrides)), label
        assert report.passed == (label == "genuine"), label


def test_twin_is_the_context_itself_exactly_when_r_low_is_identity():
    for name in PRESETS:
        ctx = cached_context(name, 2)
        assert ctx.lifted is ctx
        # A stale r keeps the r_low of the derivation.
        stale = stale_context(ctx, "r", (0, 0))
        assert stale.lifted is stale
    rotated = _contexts("poincare-null-plane", 2)[0]
    assert rotated.lifted is not rotated
    assert rotated.lifted.lifted is rotated.lifted


def test_a_checked_context_is_freed_by_reference_counting():
    """A context that cached itself as its own twin would be a reference cycle,
    kept alive until the cyclic collector ran: mutation sweeps peaked higher."""
    stale = stale_context(cached_context("jordanian-borel", 2), "r", (0, 0))
    rotated = build_context(next(rotated_specs("poincare-null-plane", 2)))
    refs = []
    for ctx in (stale, rotated):
        run_suite(ctx, "all")
        refs.append(weakref.ref(ctx))
    gc.disable()
    try:
        del ctx, stale, rotated
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_twin_has_r_identity_and_the_images_of_phi_and_r():
    ctx = _contexts("poincare-null-plane", 3)[0]
    twin = ctx.lifted
    assert twin.spec.r == tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    assert twin.phi == twin.from_user(ctx.phi)
    assert twin.universal_r == twin.from_user(ctx.universal_r)
    assert twin.to_user(twin.universal_r) == ctx.universal_r
    # r = I: the twist exponent has one term per generator pair H'_lam (x) X_lam.
    assert len(twin.twist_exponent.nums) == 3
    h = [ctx.algebra.h(i) for i in range(3)]
    x = [ctx.algebra.x(mu) for mu in range(3)]
    for a in h:
        for b in x:
            lhs = twin.from_user(a * b - b * a)
            fa, fb = twin.from_user(a), twin.from_user(b)
            assert lhs == fa * fb - fb * fa
    el = ctx.algebra.element({(1, Monomial((2, 0, 1), (0, 1, 0))): 3})
    assert twin.to_user(twin.from_user(el)) == el


@pytest.mark.parametrize("h", ((64, 65, 0), (100, 100, 55), (200, 100, 0)))
def test_a_basis_change_refuses_an_h_degree_its_image_cannot_hold(h):
    """Under this dense rotation the image of each of these H monomials, of
    degree d, holds ``H'_1^d``.  Images are built one H factor at a time by
    products, which refuse an operand with an exponent of 128 or more, so a
    degree of 129 or more raises ShapeError before any key can wrap, even
    where every exponent of the monomial itself fits its field."""
    ctx = _contexts("poincare-null-plane", 2)[0]
    el = ctx.algebra.element({(0, Monomial(h, (1, 0, 0))): 1})
    with pytest.raises(ShapeError, match="exponent of 128 or more"):
        ctx.lifted.from_user(el)
