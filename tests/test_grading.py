"""Every element the product checks form is homogeneous for one grading.

With ``deg H = 1``, ``deg X = 0`` and ``deg h = -1``, each bracket-table term
at power ``k`` has H degree ``k + 1``, so normal ordering preserves the
degree.  Then every term at power ``k`` of the twist, of R, of
``T = R12 R13`` and of each residual of R has H degree ``k``, and the
coproduct of a generator has the generator's degree.  The test needs no
oracle: a kernel or relabelling that drops or misplaces an H exponent
breaks it.  Residuals are taken from an R changed at existing keys, which
keeps it graded; on a spec with a symmetry the change is symmetric, so the
relabelled residuals of the orbit path are graded too.  Besides the
presets and the rotated spec, the lifted twins of two random specs with
``r != I`` (`random_valid_spec_3d`) have dense bracket tables.
"""

import random
from pathlib import Path

import pytest

from helpers import cached_context, count_parts, orbit_r_mutants, r_mutants, random_valid_spec_3d
from qtwist import build_context, parse_spec_file
from qtwist.verify import check_intertwine, check_qybe

ROTATED = Path(__file__).parent / "data" / "rotated-null-plane.json"


def _context(source):
    if isinstance(source, tuple):
        return cached_context(*source)
    if source == "rotated twin":
        return build_context(parse_spec_file(ROTATED).with_order(3)).lifted
    ctx = build_context(random_valid_spec_3d(random.Random(source.removesuffix(" twin")), order=3))
    assert ctx.lifted is not ctx
    return ctx.lifted


def _degrees(tensor):
    """The H degree minus the power of each term, as a set."""
    return {sum(sum(mono.h) for mono in monos) - k for k, monos in tensor.terms}


@pytest.mark.parametrize(
    "source",
    [
        ("poincare-null-plane", 3),
        ("jordanian-borel", 4),
        ("shift-ring(3)", 3),
        "rotated twin",
        "random-3d/0 twin",
        "random-3d/1 twin",
    ],
)
def test_every_element_of_the_product_checks_is_graded(source, monkeypatch):
    ctx = _context(source)
    alg, r = ctx.algebra, ctx.universal_r
    for j in range(alg.m):
        for mu in range(alg.n):
            assert all(sum(mono.h) == k + 1 for k, mono in alg.bracket(j, mu))
    t = r.embed(3, (0, 1)) * r.embed(3, (0, 2))
    for tensor in (ctx.phi, r, t):
        assert _degrees(tensor) == {0}
    degree = {}
    for name, g in ctx.generator_elements():
        degree[name] = _degrees(g)
        assert _degrees(ctx.coproduct(g)) == degree[name]
    assert set(map(frozenset, degree.values())) == {frozenset({0}), frozenset({1})}
    rmat = orbit_r_mutants(ctx, "grading")[0] if alg.symmetries else r_mutants(ctx, "grading", 1)[0]
    parts = count_parts(monkeypatch)
    assert not check_qybe(ctx, rmat=rmat).passed
    assert not check_intertwine(ctx, rmat=rmat).passed
    residuals = [(label, res) for label, res, _ in parts["tallied"] if not res.is_zero()]
    assert {label for label, _ in residuals} & set(degree) and "yang-baxter" in dict(residuals)
    for label, res in residuals:
        assert _degrees(res) == degree.get(label, {0})
