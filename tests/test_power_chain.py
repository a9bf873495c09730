"""Every series in alpha.H is summed from one power chain, and one derivation builds every table.

A context keeps the powers ``(alpha.H)^k`` for k up to the order, which
`deformed_algebra` computes for ``f(2 alpha.H)`` and hands over; ``exp(2 alpha.H)``,
``exp(-2 alpha.H)`` and the physical basis's ``exp(-alpha.H)`` are sums of
scaled powers from it.  `series_apply` on the scaled matrix is their
oracle.  The lifted twin's table and chain come from the same derivation,
for the coupling ``alpha_low`` and ``B' = 2 alpha_low``, and its B is two
contractions; carrying each ``[H_j, X_mu]`` into the twin's basis once per
``(a, mu, j)`` and the triple sum in `tests/helpers.py` are their oracles.
"""

import random

import pytest

from helpers import lifted_table_oracle, random_valid_spec_3d, rotated_specs, stale_context, twin_b_oracle
from qtwist import build_context, preset
from qtwist.algebra import (
    _table_entry,
    exp_coefficients,
    expm1_over_t_coefficients,
    series_apply,
    series_powers,
    series_sum,
)

PRESETS = ("poincare-null-plane", "jordanian-borel", "shift-ring(3)", "shift-ring(4)")
ROTATED = ("poincare-null-plane", "shift-ring(3)")


def _contexts():
    """Label to a builder of the context whose series are checked."""
    out = {name: lambda name=name: build_context(preset(name)) for name in PRESETS}
    for name in ROTATED:
        for index in range(2):
            out[f"{name}/twin{index}"] = lambda name=name, index=index: build_context(
                list(rotated_specs(name, 3, 2))[index]
            ).lifted
    return out


CONTEXTS = _contexts()


@pytest.mark.parametrize("label", CONTEXTS)
def test_series_from_the_chain_equal_series_apply(label):
    ctx = CONTEXTS[label]()
    order, alpha_h = ctx.algebra.order, ctx.alpha_h
    assert (ctx.from_user is not None) == ("/" in label)
    exp = exp_coefficients(order)
    assert ctx.exp_2alpha_h == series_apply(exp, alpha_h.scale(2))
    assert ctx.exp_neg2alpha_h == series_apply(exp, alpha_h.scale(-2))
    assert series_sum(exp, ctx.alpha_h_powers, -1) == series_apply(exp, alpha_h.scale(-1))
    f = expm1_over_t_coefficients(order)
    assert series_sum(f, ctx.alpha_h_powers, 2) == series_apply(f, alpha_h.scale(2))
    # The chain handed over from derive_alpha's scratch algebra lives in the
    # context's algebra and equals one computed there.
    assert all(p.algebra is ctx.algebra for p in ctx.alpha_h_powers)
    assert list(ctx.alpha_h_powers) == series_powers(alpha_h)


@pytest.mark.parametrize("name", PRESETS)
def test_bracket_table_is_f_of_2_alpha_h_times_b(name):
    """[H_j, X_mu] = sum_nu f(2 alpha.H)^nu_mu B^i_{j,nu} H_i, f(t) = (e^t - 1)/t."""
    spec = preset(name)
    ctx = build_context(spec)
    alg, dims = ctx.algebra, range(spec.m)
    f = series_apply(expm1_over_t_coefficients(spec.order), ctx.alpha_h.scale(2))
    for j in dims:
        for mu in dims:
            want = alg.zero()
            for nu in dims:
                for i in dims:
                    if spec.B[i][j][nu]:
                        want = want + (f.entry(nu, mu) * alg.h(i)).scale(spec.B[i][j][nu])
            assert alg.bracket(j, mu) == _table_entry(want), (j, mu)


def test_physical_basis_is_x_times_exp_of_minus_alpha_h():
    ctx = build_context(preset("poincare-null-plane"))
    alg = ctx.algebra
    exp_neg = series_apply(exp_coefficients(alg.order), ctx.alpha_h.scale(-1))
    want = tuple(
        sum((alg.x(mu) * exp_neg.entry(mu, nu) for mu in range(3)), alg.zero()) for nu in range(3)
    )
    assert ctx.physical_basis() == want


TWIN_SOURCES = {name: lambda name=name: rotated_specs(name, 3, 2) for name in ROTATED}
TWIN_SOURCES["random-3d"] = lambda: (random_valid_spec_3d(random.Random(f"twin/{i}"), 3) for i in range(2))


@pytest.mark.parametrize("source", TWIN_SOURCES)
def test_twin_table_and_b_equal_the_per_bracket_and_triple_sum_formulas(source):
    for spec in TWIN_SOURCES[source]():
        ctx = build_context(spec)
        # Stale B and r copies share the lift, but each twin carries its own B and r.
        for user in (ctx, stale_context(ctx, "B", (1, 0, 2)), stale_context(ctx, "r", (0, 1))):
            twin = user.lifted
            assert twin is not user
            table = lifted_table_oracle(user)
            assert {at: twin.algebra.bracket(*at) for at in table} == table
            assert [[list(row) for row in block] for block in twin.spec.B] == twin_b_oracle(user)
            assert twin.alpha_h_powers == series_powers(twin.alpha_h)
