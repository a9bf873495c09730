"""Residual-based checks: every structural identity becomes an exact zero test.

A check computes one or more residual elements or tensors; it passes exactly
when every residual term map is empty.  There are no tolerances anywhere.
Reports are deterministic: checks run in a fixed order and witnesses always
name the lexicographically smallest surviving term.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import Monomial, SeriesMatrix, exp_truncated, format_term
from .errors import NoValidXiError, ShapeError, UnsupportedPresetError
from .hopf import HopfContext
from .model import choose_xi, cybe_residual

Q = Fraction


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual_terms: int
    max_order_checked: int
    elapsed_ms: int
    witness: Optional[str] = None


@dataclass(frozen=True)
class CheckReport:
    spec_name: str
    order: int
    suite: str
    results: tuple

    @property
    def passed(self):
        return all(r.passed for r in self.results)


def _norm_key(key):
    power, monos = key
    return (power, len(monos), monos)


def _finish(name, ctx, parts, t0):
    """Count the residual terms and pick the witness, in the user's basis.

    On a lifted twin each residual is first mapped back to the user's
    context, so the result is the one the check gives there.
    """
    count = 0
    best = None
    for label, residual in parts:
        if ctx.to_user is not None:
            residual = ctx.to_user(residual)
        count += len(residual.nums)
        for key, coeff in residual.terms.items():
            cand = ((_norm_key(key), label), key, coeff)
            if best is None or cand[0] < best[0]:
                best = cand
    witness = None
    if best is not None:
        (_, label), key, coeff = best
        term = format_term(key, coeff, ctx.spec.h_names, ctx.spec.x_names)
        witness = f"{label}: {term}"
    elapsed = int((time.perf_counter() - t0) * 1000)
    return CheckResult(
        name=name,
        passed=count == 0,
        residual_terms=count,
        max_order_checked=ctx.algebra.order,
        elapsed_ms=elapsed,
        witness=witness,
    )


def _generators(ctx):
    """The spec's generators by name; on a lifted twin, the images of the user's."""
    alg = ctx.algebra
    if ctx.from_user is None:
        hs = [alg.h(i) for i in range(ctx.spec.m)]
    else:
        user = ctx.from_user.source
        hs = [ctx.from_user(user.h(i)) for i in range(ctx.spec.m)]
    gens = list(zip(ctx.spec.h_names, hs))
    gens += [(name, alg.x(mu)) for mu, name in enumerate(ctx.spec.x_names)]
    return gens


def check_twist_equation(ctx, phi=None):
    """(coproduct (x) id)(Phi) * Phi_12  ==  (id (x) coproduct)(Phi) * Phi_23."""
    t0 = time.perf_counter()
    p = ctx.phi if phi is None else phi
    lhs = ctx.coproduct_on_leg(p, 0) * p.embed(3, (0, 1))
    rhs = ctx.coproduct_on_leg(p, 1) * p.embed(3, (1, 2))
    return _finish("twist-equation", ctx, [("cocycle", lhs - rhs)], t0)


def check_qybe(ctx, rmat=None):
    """Quantum Yang-Baxter: R12 R13 R23 == R23 R13 R12."""
    t0 = time.perf_counter()
    r = ctx.universal_r if rmat is None else rmat
    r12 = r.embed(3, (0, 1))
    r13 = r.embed(3, (0, 2))
    r23 = r.embed(3, (1, 2))
    # Exchanging legs 2 and 3 is an automorphism of A(x)A(x)A that swaps
    # R12 and R13, so R13 R12 is R12 R13 with those legs exchanged.
    lhs = r12 * r13
    rhs = lhs.permute((0, 2, 1))
    # Rebinding frees R12 R13 before the second 3-leg product, which keeps
    # peak memory at that of forming R23 R13 R12 directly.
    lhs = lhs * r23
    residual = lhs - r23 * rhs
    return _finish("qybe", ctx, [("yang-baxter", residual)], t0)


def check_triangularity(ctx, rmat=None):
    """swap(R) * R == unit tensor."""
    t0 = time.perf_counter()
    r = ctx.universal_r if rmat is None else rmat
    residual = r.swap() * r - ctx.algebra.tensor_unit(2)
    return _finish("triangularity", ctx, [("swap(R)*R-1", residual)], t0)


def check_intertwine(ctx, rmat=None):
    """R * coproduct(g) == opposite-coproduct(g) * R for every generator."""
    t0 = time.perf_counter()
    r = ctx.universal_r if rmat is None else rmat
    parts = []
    for name, g in _generators(ctx):
        delta = ctx.coproduct(g)
        parts.append((name, r * delta - delta.swap() * r))
    return _finish("intertwining", ctx, parts, t0)


def check_hopf_axioms(ctx, phi=None):
    """Coassociativity, counit axioms, and counitality/invertibility of the twist."""
    t0 = time.perf_counter()
    alg = ctx.algebra
    p = ctx.phi if phi is None else phi
    parts = []
    for name, g in _generators(ctx):
        delta = ctx.coproduct(g)
        parts.append(
            (
                f"coassociativity {name}",
                ctx.coproduct_on_leg(delta, 0) - ctx.coproduct_on_leg(delta, 1),
            )
        )
        parts.append((f"counit-left {name}", ctx.counit_on_leg(delta, 0) - g))
        parts.append((f"counit-right {name}", ctx.counit_on_leg(delta, 1) - g))
    one = alg.one()
    parts.append(("twist-counital-left", ctx.counit_on_leg(p, 0) - one))
    parts.append(("twist-counital-right", ctx.counit_on_leg(p, 1) - one))
    unit2 = alg.tensor_unit(2)
    parts.append(("twist-inverse", ctx.phi_inverse * p - unit2))
    return _finish("hopf-axioms", ctx, parts, t0)


def check_classical_limit(ctx):
    """Power-zero slice of each bracket table entry equals B."""
    t0 = time.perf_counter()
    spec = ctx.spec
    alg = ctx.algebra
    parts = []
    for j in range(spec.m):
        for mu in range(spec.n):
            got = alg.element(
                {key: c for key, c in alg.bracket(j, mu).items() if key[0] == 0}
            )
            want = alg.element(
                {
                    (0, Monomial.h_gen(spec.m, spec.n, i)): spec.B[i][j][mu]
                    for i in range(spec.m)
                    if spec.B[i][j][mu]
                }
            )
            parts.append((f"[{spec.h_names[j]},{spec.x_names[mu]}]", got - want))
    return _finish("classical-limit", ctx, parts, t0)


def check_cybe(ctx):
    """Classical Yang-Baxter residual of the r-matrix."""
    t0 = time.perf_counter()
    residual = cybe_residual(ctx.spec)
    return _finish("cybe", ctx, [("[[r,r]]", residual)], t0)


def check_alpha_exchange(ctx):
    """Exchange identity for the lowered coupling against e^{2 alpha.H} - I.

    For all mu, rho, nu:
    sum_s alpha^mu_{rho,s} W^s_nu == sum_s alpha^mu_{nu,s} W^s_rho,
    with W = e^{2 alpha.H} - I.
    """
    t0 = time.perf_counter()
    spec = ctx.spec
    alg = ctx.algebra
    w = ctx.exp_2alpha_h - SeriesMatrix.identity(alg, spec.n)
    low = ctx.derived.alpha_low

    def contracted(mu, a, b):
        acc = alg.zero()
        for s in range(spec.n):
            c = low[a][mu][s]
            if c:
                acc = acc + w.entry(s, b).scale(c)
        return acc

    parts = []
    for mu in range(spec.n):
        for rho in range(spec.n):
            for nu in range(rho + 1, spec.n):
                parts.append(
                    (
                        f"(mu,rho,nu)=({mu},{rho},{nu})",
                        contracted(mu, rho, nu) - contracted(mu, nu, rho),
                    )
                )
    return _finish("alpha-exchange", ctx, parts, t0)


def _suite_xi(ctx, xi):
    if xi is not None:
        return tuple(Q(v) for v in xi)
    if ctx.spec.xi is not None:
        return ctx.spec.xi
    try:
        return choose_xi(ctx.spec)
    except NoValidXiError:
        return (Q(0),) * ctx.spec.n


def check_classical_basis(ctx, xi=None, phi=None):
    """The classical basis obeys undeformed brackets and twists to primitives.

    Three residual families: the bracket [K^mu, X_nu] - 2 alpha^mu_{s,nu} K^s,
    the closed-form coproduct of K, and exact primitivity of both K and X
    under the twisted coproduct.
    """
    t0 = time.perf_counter()
    spec = ctx.spec
    alg = ctx.algebra
    xi = _suite_xi(ctx, xi)
    ks = ctx.classical_K(xi)
    low = ctx.derived.alpha_low
    parts = []
    for mu in range(spec.n):
        for nu in range(spec.n):
            x = alg.x(nu)
            lhs = ks[mu] * x - x * ks[mu]
            rhs = alg.zero()
            for s in range(spec.n):
                c = low[s][mu][nu]
                if c:
                    rhs = rhs + ks[s].scale(2 * c)
            parts.append((f"bracket K{mu + 1},{spec.x_names[nu]}", lhs - rhs))
    one = alg.one()
    for mu in range(spec.n):
        want = alg.outer(ks[mu], one)
        for nu in range(spec.n):
            entry = ctx.exp_neg2alpha_h.entry(mu, nu)
            if not entry.is_zero() and not ks[nu].is_zero():
                want = want + alg.outer(entry, ks[nu])
        parts.append((f"coproduct K{mu + 1}", ctx.coproduct(ks[mu]) - want))
    for mu in range(spec.n):
        prim = alg.outer(ks[mu], one) + alg.outer(one, ks[mu])
        parts.append(
            (f"twisted-primitive K{mu + 1}", ctx.twisted_coproduct(ks[mu], phi=phi) - prim)
        )
        x = alg.x(mu)
        prim = alg.outer(x, one) + alg.outer(one, x)
        parts.append(
            (
                f"twisted-primitive {spec.x_names[mu]}",
                ctx.twisted_coproduct(x, phi=phi) - prim,
            )
        )
    return _finish("classical-basis", ctx, parts, t0)


# -- null-plane closed forms ------------------------------------------------


def _hyperbolic(ctx, sign_split):
    """2*sinh or 2*cosh of the lifted third generator, as a truncated series."""
    h3 = ctx.lifted_h(2)
    plus = exp_truncated(h3)
    minus = exp_truncated(h3.scale(-1))
    if sign_split == "sinh":
        return plus - minus
    return plus + minus


def check_null_plane_commutators(ctx):
    """All brackets among the lifted H family and the physical basis.

    The three non-vanishing families have hyperbolic closed forms; every
    other pair commutes.
    """
    t0 = time.perf_counter()
    ys = ctx.physical_basis()
    hs = [ctx.lifted_h(mu) for mu in range(3)]
    two_sinh = _hyperbolic(ctx, "sinh")
    two_cosh = _hyperbolic(ctx, "cosh")

    def comm(a, b):
        return a * b - b * a

    parts = []
    expectations = {}
    for i in (0, 1):
        expectations[(i, i)] = two_sinh
        expectations[(i, 2)] = two_cosh * hs[i]
    expectations[(2, 2)] = two_sinh
    for mu in range(3):
        for nu in range(3):
            want = expectations.get((mu, nu), ctx.algebra.zero())
            parts.append((f"[H^{mu + 1},Y{nu + 1}]", comm(hs[mu], ys[nu]) - want))
    for mu in range(3):
        for nu in range(mu + 1, 3):
            parts.append((f"[Y{mu + 1},Y{nu + 1}]", comm(ys[mu], ys[nu])))
            parts.append((f"[H^{mu + 1},H^{nu + 1}]", comm(hs[mu], hs[nu])))
    return _finish("null-plane-commutators", ctx, parts, t0)


def check_null_plane_coproducts(ctx):
    """Closed-form coproducts of the lifted H family and the physical basis."""
    t0 = time.perf_counter()
    alg = ctx.algebra
    ys = ctx.physical_basis()
    hs = [ctx.lifted_h(mu) for mu in range(3)]
    e_plus = exp_truncated(hs[2])
    e_minus = exp_truncated(hs[2].scale(-1))
    one = alg.one()
    parts = []
    for mu in range(3):
        want = alg.outer(hs[mu], one) + alg.outer(one, hs[mu])
        parts.append((f"coproduct H^{mu + 1}", ctx.coproduct(hs[mu]) - want))
    for i in (0, 1):
        want = alg.outer(e_plus, ys[i]) + alg.outer(ys[i], e_minus)
        parts.append((f"coproduct Y{i + 1}", ctx.coproduct(ys[i]) - want))
    want = alg.outer(e_plus, ys[2]) + alg.outer(ys[2], e_minus)
    for i in (0, 1):
        want = want + alg.outer(e_plus * hs[i], ys[i])
        want = want - alg.outer(ys[i], hs[i] * e_minus)
    parts.append(("coproduct Y3", ctx.coproduct(ys[2]) - want))
    return _finish("null-plane-coproducts", ctx, parts, t0)


def check_null_plane_classical_basis(ctx):
    """K expansions match their closed forms for xi = (0, 0, 1/2)."""
    t0 = time.perf_counter()
    if ctx.spec.metadata.get("family") != "null-plane":
        raise UnsupportedPresetError(
            "closed-form classical basis is only defined for the null-plane preset"
        )
    alg = ctx.algebra
    xi = (Q(0), Q(0), Q(1, 2))
    ks = ctx.classical_K(xi)
    hs = [ctx.lifted_h(mu) for mu in range(3)]
    e_neg2 = exp_truncated(hs[2].scale(-2))
    one = alg.one()
    parts = [
        ("K1", ks[0] - hs[0] * e_neg2),
        ("K2", ks[1] - hs[1] * e_neg2),
        ("K3", ks[2] - (one - e_neg2).scale(Q(1, 2))),
    ]
    return _finish("null-plane-classical-basis", ctx, parts, t0)


# -- suites -------------------------------------------------------------------

SUITES = ("all", "twist", "ybe", "triangular", "hopf", "classical", "section3")

_NULL_PLANE_CHECKS = (
    check_null_plane_commutators,
    check_null_plane_coproducts,
    check_null_plane_classical_basis,
)


def _suite_checks(ctx, suite, xi=None, phi=None, rmat=None):
    if suite == "section3":
        if ctx.spec.metadata.get("family") != "null-plane":
            raise UnsupportedPresetError(
                "the section3 suite needs the null-plane preset"
            )
        return [lambda fn=fn: fn(ctx) for fn in _NULL_PLANE_CHECKS]
    if suite not in SUITES:
        raise ShapeError(f"unknown suite {suite!r}")
    # The product checks run on the lifted twin, with the overrides carried
    # over; the spec-level checks and the choice of xi stay on the user's spec.
    twin = ctx.lifted
    if twin is not ctx:
        phi = None if phi is None else twin.from_user(phi)
        rmat = None if rmat is None else twin.from_user(rmat)
    base = {
        "twist": [lambda: check_twist_equation(twin, phi=phi)],
        "ybe": [lambda: check_qybe(twin, rmat=rmat)],
        "triangular": [lambda: check_triangularity(twin, rmat=rmat)],
        "hopf": [
            lambda: check_hopf_axioms(twin, phi=phi),
            lambda: check_intertwine(twin, rmat=rmat),
        ],
        "classical": [
            lambda: check_classical_limit(ctx),
            lambda: check_cybe(ctx),
            lambda: check_alpha_exchange(ctx),
            lambda: check_classical_basis(twin, xi=_suite_xi(ctx, xi), phi=phi),
        ],
    }
    if suite in base:
        return base[suite]
    if suite == "all":
        fns = (
            base["classical"]
            + base["hopf"]
            + base["twist"]
            + base["triangular"]
            + base["ybe"]
        )
        if ctx.spec.metadata.get("family") == "null-plane":
            fns = fns + [lambda fn=fn: fn(ctx) for fn in _NULL_PLANE_CHECKS]
        return fns


def run_suite(ctx, suite="all", jobs=1, xi=None, phi=None, rmat=None):
    """Run a named suite of checks, one after another, in a fixed order.

    `phi` and `rmat` override the context's twist and R-matrix (used by the
    mutation tests); `xi` overrides the classical basis coefficients.  `jobs`
    is accepted and has no effect.  The product checks run on `ctx.lifted`,
    and their residuals are reported in the basis of `ctx`.
    """
    fns = _suite_checks(ctx, suite, xi=xi, phi=phi, rmat=rmat)
    return CheckReport(
        spec_name=ctx.spec.name,
        order=ctx.algebra.order,
        suite=suite,
        results=tuple(fn() for fn in fns),
    )
