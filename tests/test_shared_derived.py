"""Hopf data built from a derived structure alone is built once per structure.

`HopfContext` keeps what the derived algebra, alpha and r_low determine (the
series matrices, the generator and monomial coproducts, the physical basis,
the lifted twin's algebra and basis changes) in ``derived.shared``, keyed by
those values.  `dataclasses.replace(derived, spec=...)` carries the dict
over, so a stale `B` or `r` copy, as the mutation sweeps make, reuses all of
it; a copy with another alpha builds its own.  Sharing must change no
report, and must not tie the algebra into a reference cycle.  The classical
Yang-Baxter residual is computed once per spec object (``spec._cybe``):
validation and the suite's cybe read the same one, and a stale copy, a new
spec object, computes its own.
"""

import dataclasses
import gc
import random
import weakref
from pathlib import Path

import pytest

from helpers import mutate_tensor, stale_context
import qtwist.model
from qtwist import build_context, parse_spec_file, preset, validate_spec
from qtwist.cli import render_report_machine
from qtwist.hopf import HopfContext
from qtwist.verify import check_cybe, run_suite

ROTATED = Path(__file__).parent / "data" / "rotated-null-plane.json"
SPECS = {
    "poincare-null-plane": lambda: preset("poincare-null-plane").with_order(3),
    "jordanian-borel": lambda: preset("jordanian-borel").with_order(3),
    "shift-ring(3)": lambda: preset("shift-ring(3)").with_order(3),
    "rotated-null-plane": lambda: parse_spec_file(ROTATED),
}
SHARED = ("alpha_h", "exp_2alpha_h", "exp_neg2alpha_h", "one_minus_exp_neg2", "_delta_gens")
PER_CONTEXT = ("twist_exponent", "phi", "phi_inverse", "universal_r")


def _shared_members(ctx):
    """What every context on one derived structure holds by identity, by name."""
    out = {name: getattr(ctx, name) for name in SHARED}
    out["_delta_cache"] = ctx._delta_cache
    if ctx.spec.metadata.get("family") == "null-plane":
        out["physical_basis"] = ctx.physical_basis()
    twin = ctx.lifted
    if twin is not ctx:
        for name in ("algebra", "from_user", "to_user", "exp_2alpha_h", "_delta_cache"):
            out[f"twin.{name}"] = getattr(twin, name)
    return out


@pytest.mark.parametrize("name", ("poincare-null-plane", "rotated-null-plane"))
def test_stale_b_and_r_copies_hold_the_parents_derived_data(name):
    ctx = build_context(SPECS[name]())
    members = _shared_members(ctx)
    assert ("physical_basis" in members) == (name == "poincare-null-plane")
    assert ("twin.algebra" in members) == (name == "rotated-null-plane")
    for field, at in (("B", (1, 0, 2)), ("r", (0, 1)), ("r", (2, 2))):
        stale = stale_context(ctx, field, at)
        got = _shared_members(stale)
        assert got.keys() == members.keys()
        assert [k for k in got if got[k] is not members[k]] == [], field
        # What reads the stored r or B stays per context.
        assert all(getattr(stale, p) is not getattr(ctx, p) for p in PER_CONTEXT)
        if stale.lifted is not stale:
            assert stale.lifted.spec is not ctx.lifted.spec
            assert stale.lifted.phi is not ctx.lifted.phi
        # So does cybe's residual, which reads the stored B and r.
        assert stale.spec._cybe is not ctx.spec._cybe


@pytest.mark.parametrize("name", ("poincare-null-plane", "rotated-null-plane"))
def test_a_copy_with_another_alpha_shares_nothing(name):
    ctx = build_context(SPECS[name]())
    members = _shared_members(ctx)
    # Nested lists, as a hand-made copy would hold: they key the data once frozen.
    alpha = [[list(row) for row in block] for block in ctx.derived.alpha_up]
    alpha[0][0][0] += 1
    other = HopfContext(dataclasses.replace(ctx.derived, alpha_up=alpha))
    assert other.algebra is ctx.algebra and other.derived.shared is ctx.derived.shared
    got = _shared_members(other)
    assert got.keys() == members.keys()
    assert [k for k in got if got[k] is members[k]] == []
    assert other.exp_2alpha_h != ctx.exp_2alpha_h
    if name == "poincare-null-plane":
        assert other.physical_basis() != ctx.physical_basis()


def _mutants(ctx, rng):
    """Two seeded mutants of each kind: ``(label, context, overrides)``."""
    spec = ctx.spec
    out = []
    for _ in range(2):
        at = (rng.randrange(spec.m), rng.randrange(spec.m), rng.randrange(spec.n))
        out.append((f"B{at}", stale_context(ctx, "B", at), {}))
        at = (rng.randrange(spec.m), rng.randrange(spec.n))
        out.append((f"r{at}", stale_context(ctx, "r", at), {}))
        for kind, tensor in (("phi", ctx.phi), ("rmat", ctx.universal_r)):
            key = rng.choice(sorted(tensor.terms))
            out.append((kind, ctx, {kind: mutate_tensor(ctx.algebra, tensor, key)}))
    return out


@pytest.mark.parametrize("name", SPECS)
def test_mutant_reports_equal_those_of_a_context_with_its_own_data(name):
    ctx = build_context(SPECS[name]())
    genuine = run_suite(ctx, "all")
    assert genuine.passed
    for label, mutant, overrides in _mutants(ctx, random.Random(name)):
        shared = run_suite(mutant, "all", **overrides)
        alone = HopfContext(dataclasses.replace(mutant.derived, shared={}))
        assert alone._delta_cache is not ctx._delta_cache
        fresh = run_suite(alone, "all", **overrides)
        assert render_report_machine(shared) == render_report_machine(fresh), label


def test_two_suites_on_one_context_build_the_physical_basis_once(monkeypatch):
    prop, builds = HopfContext.__dict__["_physical_basis"], []

    def counted(ctx):
        builds.append(ctx)
        return build(ctx)

    build = prop.func
    monkeypatch.setattr(prop, "func", counted)
    ctx = build_context(SPECS["poincare-null-plane"]())
    first, second = run_suite(ctx, "all"), run_suite(ctx, "section3")
    assert first.passed and second.passed
    stale = stale_context(ctx, "r", (0, 0))
    run_suite(stale, "section3")
    assert builds == [ctx]


@pytest.mark.parametrize("name", ("poincare-null-plane", "rotated-null-plane"))
def test_a_discarded_context_frees_its_algebra_without_the_collector(name):
    """The shared data holds elements, and so their algebra: hung on the
    algebra itself, it would make a reference cycle that only the cyclic
    collector frees."""
    ctx = build_context(SPECS[name]())
    run_suite(ctx, "all")
    stale = stale_context(ctx, "r", (0, 1))
    run_suite(stale, "all")
    refs = [weakref.ref(ctx.algebra), weakref.ref(ctx.lifted.algebra), weakref.ref(ctx.derived)]
    gc.disable()
    try:
        del ctx, stale
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def _counted_residuals(monkeypatch):
    """The specs that `cybe_residual` is called on from here on, in call order."""
    calls, residual = [], qtwist.model.cybe_residual

    def counted(spec):
        calls.append(spec)
        return residual(spec)

    monkeypatch.setattr(qtwist.model, "cybe_residual", counted)
    return calls


def _suite_residual(ctx):
    """The residual that the suite's cybe check evaluates on `ctx`."""
    ((_, [(_, residual)]),) = check_cybe.__wrapped__(ctx)
    return residual


@pytest.mark.parametrize("name", SPECS)
def test_validation_and_the_suite_read_one_residual(name, monkeypatch):
    calls = _counted_residuals(monkeypatch)
    spec = SPECS[name]()
    assert validate_spec(spec).passed
    ctx = build_context(spec)
    report = run_suite(ctx, "all")
    assert report.passed and [r.name for r in report.results].count("cybe") == 1
    assert calls == [spec] and calls[0] is spec
    assert _suite_residual(ctx) is spec._cybe and spec._cybe.is_zero()


@pytest.mark.parametrize("name", ("jordanian-borel", "rotated-null-plane"))
def test_phi_and_rmat_overrides_reuse_the_validated_residual(name, monkeypatch):
    calls = _counted_residuals(monkeypatch)
    spec = SPECS[name]()
    validate_spec(spec)
    ctx = build_context(spec)
    for kind, tensor in (("phi", ctx.phi), ("rmat", ctx.universal_r)):
        mutated = mutate_tensor(ctx.algebra, tensor, max(tensor.terms))
        report = run_suite(ctx, "classical", **{kind: mutated})
        assert next(r for r in report.results if r.name == "cybe").passed
        assert _suite_residual(ctx) is spec._cybe
    assert calls == [spec]


@pytest.mark.parametrize("name", ("poincare-null-plane", "rotated-null-plane"))
def test_stale_b_and_r_copies_compute_their_own_residual(name, monkeypatch):
    calls = _counted_residuals(monkeypatch)
    spec = SPECS[name]()
    validate_spec(spec)
    ctx = build_context(spec)
    for field, at in (("B", (1, 0, 2)), ("r", (0, 1))):
        stale = stale_context(ctx, field, at)
        assert stale.spec is not spec
        run_suite(stale, "classical")
        assert calls[-1] is stale.spec
        assert _suite_residual(stale) is stale.spec._cybe is not spec._cybe
        assert stale.spec._cybe.algebra is not spec._cybe.algebra
    assert len(calls) == 3


def test_a_b_mutants_classical_algebra_dies_with_it():
    """A spec holds its residual, and the residual its classical algebra: a
    stale B's own lives on its spec, so a sweep over many B mutants does not
    keep one classical algebra with its leg tables for each."""
    ctx = build_context(SPECS["poincare-null-plane"]())
    run_suite(ctx, "all")
    stale = stale_context(ctx, "B", (1, 0, 2))
    run_suite(stale, "all")
    assert stale.spec._cybe.algebra is not ctx.spec._cybe.algebra
    ref = weakref.ref(stale.spec._cybe.algebra)
    gc.disable()
    try:
        del stale
        assert ref() is None
    finally:
        gc.enable()
