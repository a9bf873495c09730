"""Every series in alpha.H is summed from one power chain, and one derivation builds every table.

The derivation sums the bracket table and each series on packed numerators;
the Fraction route it replaced (`fraction_route_algebra` and
`series_sum_oracle` in `tests/helpers.py`) is its oracle, table for table and
series for series, for contexts and lifted twins at orders 0 to 7.  Set-up
decodes no term to Fractions.  As before, an f-series entry with an exponent
of 128 or more is refused as a product operand, while a table entry may reach
128 (`jordanian-borel` at orders 126 to 129).

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

from helpers import (
    _table_entry,
    fraction_route_algebra,
    lifted_table_oracle,
    random_valid_spec_3d,
    rotated_null_plane_specs,
    rotated_specs,
    series_sum_oracle,
    stale_context,
    twin_b_oracle,
)
from qtwist import build_context, preset
from qtwist.algebra import (
    exp_coefficients,
    expm1_over_t_coefficients,
    series_apply,
    series_powers,
    series_sum,
)
from qtwist.errors import ShapeError
from qtwist.model import PRESET_NAMES

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


ORACLE_SPECS = {name: lambda name=name: [preset(name)] for name in PRESET_NAMES}
ORACLE_SPECS["rotated-null-plane"] = lambda: list(rotated_null_plane_specs())
ORACLE_SPECS["random-3d"] = lambda: [random_valid_spec_3d(random.Random(f"oracle/{i}")) for i in range(2)]
# One of tests/test_high_dimensions.py's specs, of dimension 4.
ORACLE_SPECS["shift-ring(4)"] = lambda: [preset("shift-ring(4)")]


def _fraction_route(ctx, user):
    """The Fraction route's algebra and powers for `ctx`, the context `user` or its lifted twin."""
    m, n, order = ctx.spec.m, ctx.spec.n, ctx.algebra.order
    if ctx is user:
        return fraction_route_algebra(m, n, order, ctx.derived.alpha_up, ctx.spec.B)
    alpha_low = user.derived.alpha_low
    return fraction_route_algebra(m, n, order, alpha_low, [[[2 * v for v in row] for row in b] for b in alpha_low])


@pytest.mark.parametrize("label", ORACLE_SPECS)
def test_packed_derivation_equals_the_fraction_route(label):
    twins = 0
    for spec in ORACLE_SPECS[label]():
        for order in range(8):
            user = build_context(spec.with_order(order))
            for ctx in dict.fromkeys((user, user.lifted)):
                twins += ctx is not user
                alg, (oracle_alg, powers) = ctx.algebra, _fraction_route(ctx, user)
                assert alg._int_table == oracle_alg._int_table, (spec.name, order)
                assert ctx.alpha_h_powers == powers and all(p.algebra is alg for p in ctx.alpha_h_powers)
                exp = exp_coefficients(order)
                assert ctx.exp_2alpha_h == series_sum_oracle(exp, powers, 2)
                assert ctx.exp_neg2alpha_h == series_sum_oracle(exp, powers, -2)
                exp_neg = series_sum_oracle(exp, powers, -1)
                assert series_sum(exp, ctx.alpha_h_powers, -1) == exp_neg
                if ctx.spec.metadata.get("family") == "null-plane":
                    n = range(ctx.spec.n)
                    want = tuple(sum((alg.x(mu) * exp_neg.entry(mu, nu)._on(alg) for mu in n), alg.zero()) for nu in n)
                    assert ctx.physical_basis() == want
    assert (twins > 0) == (label in ("rotated-null-plane", "random-3d"))


def test_set_up_decodes_no_term_to_fractions(monkeypatch):
    """Building a context, its lifted twin, their series, phi and R reads no term as a Fraction
    (`.terms`, `Algebra.bracket`), and every bracket table reaches `Algebra` packed, as 1-leg elements."""
    from qtwist import model
    from qtwist.algebra import Algebra, TensorElement

    tables = []

    class Recording(Algebra):
        def __init__(self, m, n, order, table):
            tables.append(table)
            super().__init__(m, n, order, table)

    def refused(*args):
        raise AssertionError("a term was decoded to Fractions during set-up")

    monkeypatch.setattr(model, "Algebra", Recording)
    monkeypatch.setattr(TensorElement, "terms", property(refused))
    monkeypatch.setattr(Algebra, "bracket", refused)
    specs = [preset(name).with_order(4) for name in PRESET_NAMES] + list(rotated_null_plane_specs(3))[:2]
    for spec in specs:
        user = build_context(spec)
        for ctx in dict.fromkeys((user, user.lifted)):
            ctx.exp_2alpha_h, ctx.exp_neg2alpha_h, ctx.phi, ctx.universal_r
            if ctx.spec.metadata.get("family") == "null-plane":
                ctx.physical_basis()
    # A scratch algebra and the deformed one per derivation: each spec's and two twins'.
    assert len(tables) == 2 * (len(specs) + 2)
    assert all(isinstance(e, TensorElement) for table in tables for e in table.values())


@pytest.mark.parametrize("order", (126, 127))
def test_jordanian_borel_builds_to_order_127_and_its_r_refuses_an_exponent_of_128(order):
    """A table entry may reach an exponent of 128, as a product's result may: at order 127 the
    bracket holds H^128. Normal ordering then refuses it, so building R raises."""
    ctx = build_context(preset("jordanian-borel").with_order(order))
    assert max(mono.h[0] for _, mono in ctx.algebra.bracket(0, 0)) == order + 1
    with pytest.raises(ShapeError, match=r"^a product has an exponent of 128 or more$"):
        ctx.universal_r


@pytest.mark.parametrize("order", (128, 129))
def test_jordanian_borel_from_order_128_refuses_an_f_series_operand_of_exponent_128(order):
    """From order 128, f(2 alpha.H) holds H^128, which times H_i is refused as a product operand."""
    with pytest.raises(ShapeError, match=r"^a product operand has an exponent of 128 or more$"):
        build_context(preset("jordanian-borel").with_order(order))
