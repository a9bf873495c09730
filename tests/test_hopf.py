import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from helpers import naive_exp_tensor, naive_mul_tensors, random_element, random_valid_spec_3d
from qtwist import (
    UnsupportedPresetError,
    build_context,
    exp_truncated,
    parse_spec_file,
    preset,
    series_apply,
)
from qtwist.algebra import Monomial, exp_coefficients


def test_coproduct_of_unit(jordanian6):
    ctx = jordanian6
    assert ctx.coproduct(ctx.algebra.one()) == ctx.algebra.tensor_unit(2)


def test_coproduct_h_primitive(poincare4):
    ctx = poincare4
    alg = ctx.algebra
    h = alg.h(0)
    assert ctx.coproduct(h) == alg.outer(h, alg.one()) + alg.outer(alg.one(), h)


def test_coproduct_x_block(poincare4):
    """Generator rule: column mu of e^{2 alpha.H} pairs with the X family."""
    ctx = poincare4
    alg = ctx.algebra
    got = ctx.coproduct(alg.x(0))
    want = alg.outer(alg.x(0), alg.one())
    for nu in range(3):
        entry = ctx.exp_2alpha_h.entry(nu, 0)
        if not entry.is_zero():
            want = want + alg.outer(entry, alg.x(nu))
    assert got == want


def test_coproduct_is_multiplicative_on_x_product():
    ctx = build_context(preset("poincare-null-plane").with_order(2))
    alg = ctx.algebra
    got = ctx.coproduct(alg.x(0) * alg.x(1))
    want = naive_mul_tensors(alg, ctx.coproduct(alg.x(0)), ctx.coproduct(alg.x(1)))
    assert got == want


def test_coproduct_is_algebra_map_random(jordanian3):
    ctx = jordanian3
    rng = random.Random(31)
    for _ in range(15):
        a = random_element(rng, ctx.algebra)
        b = random_element(rng, ctx.algebra)
        assert ctx.coproduct(a * b) == ctx.coproduct(a) * ctx.coproduct(b)


def test_counit_values(poincare4):
    ctx = poincare4
    alg = ctx.algebra
    assert alg.one().unit_series() == {0: Q(1)}
    assert alg.h(0).unit_series() == {}
    assert alg.x(2).unit_series() == {}


def test_counit_kills_phi_left_leg():
    ctx = build_context(preset("poincare-null-plane").with_order(3))
    one = ctx.algebra.one()
    assert ctx.counit_on_leg(ctx.phi, 0) == one
    assert ctx.counit_on_leg(ctx.phi, 1) == one


def test_phi_order_zero():
    ctx = build_context(preset("poincare-null-plane").with_order(0))
    assert ctx.phi == ctx.algebra.tensor_unit(2)
    assert ctx.phi_inverse == ctx.algebra.tensor_unit(2)
    assert ctx.universal_r == ctx.algebra.tensor_unit(2)


def test_phi_first_order_term(poincare4):
    ctx = poincare4
    alg = ctx.algebra
    first = {key: c for key, c in ctx.phi.terms.items() if key[0] == 1}
    want = {}
    for i in range(3):
        for mu in range(3):
            c = ctx.spec.r[i][mu]
            if c:
                want[(1, (Monomial.h_gen(3, 3, i), Monomial.x_gen(3, 3, mu)))] = Q(c)
    assert first == want


def test_phi_second_order_matches_series_oracle():
    ctx = build_context(preset("poincare-null-plane").with_order(2))
    got = ctx.phi
    want = naive_exp_tensor(ctx.algebra, ctx.twist_exponent, 2)
    assert got == want


def test_f_times_phi_is_unit(poincare4):
    ctx = poincare4
    unit = ctx.algebra.tensor_unit(2)
    assert ctx.phi_inverse * ctx.phi == unit
    assert ctx.phi * ctx.phi_inverse == unit


def test_r_equals_swapped_phi_times_inverse():
    """R is built as that product by the engine's kernel; the oracle's product is independent of it."""
    ctx = build_context(preset("poincare-null-plane").with_order(3))
    assert ctx.universal_r == naive_mul_tensors(ctx.algebra, ctx.phi.swap(), ctx.phi_inverse)


def test_r_first_order_is_classical_r_matrix(jordanian6):
    ctx = jordanian6
    first = {key: c for key, c in ctx.universal_r.terms.items() if key[0] == 1}
    h, x = Monomial.h_gen(1, 1, 0), Monomial.x_gen(1, 1, 0)
    assert first == {(1, (x, h)): Q(1), (1, (h, x)): Q(-1)}


def test_twisted_coproduct_unit(jordanian6):
    ctx = jordanian6
    assert ctx.twisted_coproduct(ctx.algebra.one()) == ctx.algebra.tensor_unit(2)


def test_twisted_coproduct_primitive_on_k_and_x(poincare4):
    ctx = poincare4
    alg = ctx.algebra
    one = alg.one()
    for mu in range(3):
        x = alg.x(mu)
        assert ctx.twisted_coproduct(x) == alg.outer(x, one) + alg.outer(one, x)
    for k in ctx.classical_K(ctx.spec.xi):
        assert ctx.twisted_coproduct(k) == alg.outer(k, one) + alg.outer(one, k)


def test_classical_k_zero_xi(poincare4):
    assert all(k.is_zero() for k in poincare4.classical_K((0, 0, 0)))


def test_classical_k_closed_forms(poincare4):
    """K1 = H^1 e^{-2H^3}, K2 = H^2 e^{-2H^3}, K3 = (1 - e^{-2H^3})/2."""
    ctx = poincare4
    alg = ctx.algebra
    ks = ctx.classical_K((0, 0, Q(1, 2)))
    e_neg2 = exp_truncated(ctx.lifted_h(2).scale(-2))
    assert ks[0] == ctx.lifted_h(0) * e_neg2
    assert ks[1] == ctx.lifted_h(1) * e_neg2
    assert ks[2] == (alg.one() - e_neg2).scale(Q(1, 2))


def test_classical_k_first_order_slice(poincare4):
    """At first order K^mu is the classical bracket [H^mu, xi.X]."""
    ctx = poincare4
    xi = ctx.spec.xi
    low = ctx.derived.alpha_low
    for mu in range(3):
        k1 = {
            key: c for key, c in ctx.classical_K(xi)[mu].terms.items() if key[0] == 1
        }
        want = {}
        for sigma in range(3):
            c = sum((2 * Q(xi[nu]) * low[sigma][mu][nu] for nu in range(3)), Q(0))
            if c:
                want[(1, (Monomial.h_gen(3, 3, sigma),))] = c
        assert k1 == want


def test_k_coproduct_closed_form(poincare4):
    ctx = poincare4
    alg = ctx.algebra
    ks = ctx.classical_K(ctx.spec.xi)
    for mu in range(3):
        want = alg.outer(ks[mu], alg.one())
        for nu in range(3):
            entry = ctx.exp_neg2alpha_h.entry(mu, nu)
            if not entry.is_zero() and not ks[nu].is_zero():
                want = want + alg.outer(entry, ks[nu])
        assert ctx.coproduct(ks[mu]) == want


def test_physical_basis_classical_slice_is_x(poincare5):
    ctx = poincare5
    for nu, y in enumerate(ctx.physical_basis()):
        slice0 = {key: c for key, c in y.terms.items() if key[0] == 0}
        assert slice0 == {(0, (Monomial.x_gen(3, 3, nu),)): Q(1)}


def test_physical_basis_change_of_variables(poincare5):
    """X1 = Y1 e^{H^3}, X2 = Y2 e^{H^3}, X3 = (Y1 H^1 + Y2 H^2 + Y3) e^{H^3}."""
    ctx = poincare5
    alg = ctx.algebra
    y1, y2, y3 = ctx.physical_basis()
    e_plus = exp_truncated(ctx.lifted_h(2))
    assert alg.x(0) == y1 * e_plus
    assert alg.x(1) == y2 * e_plus
    assert alg.x(2) == (y1 * ctx.lifted_h(0) + y2 * ctx.lifted_h(1) + y3) * e_plus


def test_physical_commutator_sinh(poincare5):
    ctx = poincare5
    h3 = ctx.lifted_h(2)
    y3 = ctx.physical_basis()[2]
    two_sinh = exp_truncated(h3) - exp_truncated(h3.scale(-1))
    assert h3 * y3 - y3 * h3 == two_sinh


def test_physical_coproduct_y1(poincare5):
    ctx = poincare5
    alg = ctx.algebra
    y1 = ctx.physical_basis()[0]
    e_plus = exp_truncated(ctx.lifted_h(2))
    e_minus = exp_truncated(ctx.lifted_h(2).scale(-1))
    assert ctx.coproduct(y1) == alg.outer(e_plus, y1) + alg.outer(y1, e_minus)


def test_physical_basis_requires_null_plane(jordanian6, shift3):
    with pytest.raises(UnsupportedPresetError):
        jordanian6.physical_basis()
    with pytest.raises(UnsupportedPresetError):
        shift3.physical_basis()


def test_coassociativity_on_generators(poincare4):
    ctx = poincare4
    alg = ctx.algebra
    for g in [alg.h(i) for i in range(3)] + [alg.x(mu) for mu in range(3)]:
        delta = ctx.coproduct(g)
        assert ctx.coproduct_on_leg(delta, 0) == ctx.coproduct_on_leg(delta, 1)


def test_counit_axioms_on_random_products(jordanian3):
    ctx = jordanian3
    rng = random.Random(37)
    for _ in range(15):
        a = random_element(rng, ctx.algebra)
        delta = ctx.coproduct(a)
        assert ctx.counit_on_leg(delta, 0) == a
        assert ctx.counit_on_leg(delta, 1) == a


def test_caches_agree_with_recomputation(poincare4):
    ctx = poincare4
    coeffs = exp_coefficients(ctx.algebra.order)
    assert ctx.exp_2alpha_h == series_apply(coeffs, ctx.alpha_h.scale(2))
    assert ctx.exp_neg2alpha_h == series_apply(coeffs, ctx.alpha_h.scale(-2))
    from qtwist.algebra import SeriesMatrix

    eye = SeriesMatrix.identity(ctx.algebra, 3)
    assert ctx.one_minus_exp_neg2 == eye - ctx.exp_neg2alpha_h
    assert ctx.exp_2alpha_h @ ctx.exp_neg2alpha_h == eye


@pytest.mark.parametrize("name", ("poincare-null-plane", "jordanian-borel", "shift-ring(3)"))
def test_monomial_coproducts_take_one_product_per_new_entry(name, monkeypatch):
    """The coproduct of a monomial is that of its first generator times that
    of the rest, from the cache: one product per new cache entry, equal to
    the chain of the generators' coproducts multiplied from the left, with
    the terms in the order of the chain multiplied from the right."""
    ctx = build_context(preset(name).with_order(3))
    alg, gens = ctx.algebra, ctx._delta_gens
    ctx._delta_monomial(Monomial.unit(alg.m, alg.n), alg.order)
    products, real, into = [], alg.mul_tensors, alg.mul_into
    monkeypatch.setattr(alg, "mul_into", lambda *args, **kwargs: products.append(1) or into(*args, **kwargs))
    rng = random.Random(f"delta/{name}")
    for _ in range(12):
        h = tuple(rng.randint(0, 2) for _ in range(alg.m))
        x = tuple(rng.randint(0, 2) for _ in range(alg.n))
        before = len(ctx._delta_cache)
        products.clear()
        got = ctx._delta_monomial(Monomial(h, x), alg.order)
        assert len(products) == len(ctx._delta_cache) - before
        chain = [gen for gen, e in enumerate(h + x) for _ in range(e)]
        left = right = alg.tensor_unit(2)
        for gen in chain:
            left = real(left, gens[gen])
        for gen in reversed(chain):
            right = real(gens[gen], right)
        assert got == left
        assert got.den == right.den and list(got.nums.items()) == list(right.nums.items())
    assert len(ctx._delta_cache) > alg.m + alg.n


@pytest.mark.parametrize("order", (3, 4, 5))
@pytest.mark.parametrize(
    "name", ("poincare-null-plane", "jordanian-borel", "shift-ring(3)", "rotated-null-plane twin", "random-3d twin")
)
def test_inverse_twist_and_r_head_are_the_exponentials(name, order):
    """phi^-1 is phi with its odd powers negated and R's head is swap(phi):
    both equal the exponentials of -t and of swap(t) summed anew, on the
    presets and on the lifted twins of two specs with r != I."""
    if name.endswith(" twin"):
        if name.startswith("rotated"):
            spec = parse_spec_file(Path(__file__).parent / "data" / "rotated-null-plane.json")
        else:
            spec = random_valid_spec_3d(random.Random("random-3d/0"))
        ctx = build_context(spec.with_order(order))
        assert ctx.lifted is not ctx
        ctx = ctx.lifted
    else:
        ctx = build_context(preset(name).with_order(order))
    t = ctx.twist_exponent
    assert ctx.phi_inverse == exp_truncated(t.scale(-1))
    assert ctx.phi.swap() == exp_truncated(t.swap())
    assert ctx.universal_r == exp_truncated(t.swap()) * exp_truncated(t.scale(-1))
    assert any(key[0] % 2 for key in ctx.phi.terms) and ctx.phi_inverse != ctx.phi
