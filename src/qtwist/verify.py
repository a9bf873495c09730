"""Residual-based checks: every structural identity becomes an exact zero test.

A check declares one or more labelled residuals, each a sum of signed
products and terms; it passes exactly when every residual term map is empty.
There are no tolerances anywhere.
Reports are deterministic: checks run in a fixed order and witnesses always
name the lexicographically smallest surviving term.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import Monomial, SeriesMatrix, _from_parts, _merged, _wrap, exp_truncated, format_term
from .errors import ShapeError, UnsupportedPresetError
from .model import scan_xi

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


def _check(name):
    """Make a check named `name` from a declaration of its residual.

    The declaration takes the check's arguments and returns its parts, a
    list or a generator of ``(label, terms)``, or of ``(label, terms, perm,
    labels, leg)`` for an orbit (see `_finish`).  `terms` is a fresh list of
    ``(scale, a)`` and ``(scale, a, b)`` items, which stand for ``scale * a``
    and ``scale * a * b``, and ``(scale, a, b, part)`` items for a part of
    that product (see `Algebra.mul_into`); the part's residual is their sum.
    """

    def wrap(declare):
        @functools.wraps(declare)
        def check(ctx, *args, **kwargs):
            t0 = time.perf_counter()
            return _finish(name, ctx, declare(ctx, *args, **kwargs), t0)

        return check

    return wrap


def _finish(name, ctx, parts, t0):
    """Evaluate a check's residual one part at a time.

    Each part is summed into one accumulator and canonicalised once, mapped
    back to the user's context on a lifted twin, counted and searched for the
    witness, and dropped before the next part is built.  The witness is the
    smallest surviving term by power, leg count and monomials, then label.
    A part ``(label, terms, perm, labels, leg)`` also stands for the parts
    whose residuals are its own relabelled by `perm` once, twice, and so on
    (see `Algebra.relabel`), one for each of `labels`, which names them.
    With a `leg`, its terms hold only the smallest `leg` monomial of each
    orbit, which residual terms keep, and its residual is unfolded first
    (`Algebra.unfold`).
    """
    count, best = 0, None
    for label, terms, *images in parts:
        perm, labels, leg = images or (None, (), None)
        residual = _residual(terms)
        if leg is not None and residual is not None:
            residual = residual.algebra.unfold(residual, leg, perm)
        for i, label in enumerate((label, *labels)):
            if i and residual is not None:
                residual = residual.algebra.relabel(residual, perm)
            user = residual if residual is None or ctx.to_user is None else ctx.to_user(residual)
            terms_left, cand = _tally(label, user)
            count += terms_left
            if cand is not None and (best is None or cand[0] < best[0]):
                best = cand
        del residual, user  # not held while the next part is built
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


def _residual(terms):
    """The sum of a part's terms; None for no terms.

    The sum runs in the algebra of the first operand and empties the list,
    so an operand nothing else holds is released after its last product.
    """
    if not terms:
        return None
    alg, legs = terms[0][1].algebra, terms[0][1].legs
    shape, acc = alg.tensor_zero(legs), {}
    while terms:
        _accumulate(alg, shape, acc, *terms.pop(0))
    return _from_parts(alg, legs, acc)


def _accumulate(alg, shape, acc, scale, a, b=None, part=None):
    """Add ``scale * a``, ``scale * a * b`` or its `part` to `acc`; operands must fit `shape`."""
    shape._check_compat(a)
    if b is None:
        return a._on(alg).add_into(acc, scale)
    shape._check_compat(b)
    alg.mul_into(acc, a._on(alg), b._on(alg), scale, part)


def _tally(label, residual):
    """The number of terms of a part's residual and its witness candidate."""
    first = None if residual is None else residual.first_term()
    if first is None:
        return 0, None
    (k, monos), coeff = first
    return len(residual.nums), (((k, len(monos), monos), label), (k, monos), coeff)


@_check("twist-equation")
def check_twist_equation(ctx, phi=None):
    """(coproduct (x) id)(Phi) * Phi_12  ==  (id (x) coproduct)(Phi) * Phi_23."""
    p = ctx.phi if phi is None else phi
    lhs = (1, ctx.coproduct_on_leg(p, 0), p.embed(3, (0, 1)))
    rhs = (-1, ctx.coproduct_on_leg(p, 1), p.embed(3, (1, 2)))
    return [("cocycle", [lhs, rhs])]


def orbit_symmetry(r):
    """The first of the symmetries of `r`'s algebra that fixes `r`, or None: the relabelling whose
    orbits `check_qybe` and `check_intertwine` evaluate once.  For the context's own R they pass the
    twist exponent t: a symmetry is an automorphism and R = exp(swap t) exp(-t) has the power-1
    part swap(t) - t, so it fixes R exactly when it fixes t, whose few terms are cheap to relabel."""
    return next((p for p in r.algebra.symmetries if r.algebra.relabel(r, p) == r), None)


@_check("qybe")
def check_qybe(ctx, rmat=None):
    """Quantum Yang-Baxter: R12 R13 R23 == R23 R13 R12, summed by slices of R12 R13 (`Algebra.exchange`)."""
    r, t = (ctx.universal_r, ctx.twist_exponent) if rmat is None else (rmat, rmat)
    alg, r23, perm = r.algebra, r.algebra.prepare(r.embed(3, (1, 2))), orbit_symmetry(t)
    # R23 is the unit on leg 0, so each term of the residual keeps the leg-0 monomial of its term of
    # T = R12 R13, and parts made of whole slices of T by leg-0 X exponents split the residual into
    # disjoint parts, in the user's basis too, since a change of H basis fixes every X.  A slice is
    # summed once complete (`Algebra.r12_r13_slices`), so T is never held whole.  A relabelling that
    # fixes R fixes T and R23, and so maps the part of a slice to that of its image: only one slice of
    # each orbit is kept, and its residual relabelled.  In a slice it maps to itself, it maps the
    # residual of the terms of one leg-0 monomial to that of the image monomial: only one monomial of
    # each orbit is kept, and the residual unfolded before it is mapped back.
    for slices in alg.r12_r13_slices(r, perm):
        # Popped smallest first, so that the largest slices come last.
        slices = sorted(((sum(map(len, s.values())), x, n, s) for x, (n, s) in slices.items()), reverse=True)
        while slices:
            size, _, orbit, parts = slices.pop()
            # Each part walks all of R23 three times, so it gathers slices of the
            # same orbit size while it holds no more terms of T than R23 has.
            while slices and slices[-1][2] == orbit and size + slices[-1][0] <= len(r23.nums):
                more, _, _, dens = slices.pop()
                size += more
                for den, nums in dens.items():
                    parts.setdefault(den, {}).update(nums)
            # A part of T is merged over the lcm of its denominators and not reduced; P23(T) and
            # T - P23(T) keep that denominator, so the three products share one and cancel in place.
            nums, den = _merged(parts)
            tc = _wrap(alg, 3, {key: v for key, v in nums.items() if v}, den)
            # Exchanging legs 2 and 3 is an automorphism of A(x)A(x)A that swaps
            # R12 and R13, so the part of R13 R12 is that of R12 R13 with those
            # legs exchanged: P23(T).  lead is bilinear and symmetric, so the
            # leading parts of T R23 and R23 P23(T) sum to lead(T - P23(T), R23).
            tp, diff = alg.exchange(tc)
            terms = [(1, diff, r23, "lead"), (1, tc, r23, "corr"), (-1, r23, tp, "corr")]
            # Each operand is released after its last product.
            del parts, nums, tc, tp, diff
            yield "yang-baxter", terms, perm, ("yang-baxter",) * (orbit - 1), 0 if perm and orbit == 1 else None


@_check("triangularity")
def check_triangularity(ctx, rmat=None):
    """swap(R) * R == unit tensor."""
    r = ctx.universal_r if rmat is None else rmat
    return [("swap(R)*R-1", [(1, r.swap(), r), (-1, ctx.algebra.tensor_unit(2))])]


@_check("intertwining")
def check_intertwine(ctx, rmat=None):
    """R * coproduct(g) == opposite-coproduct(g) * R for every generator."""
    r, t = (ctx.universal_r, ctx.twist_exponent) if rmat is None else (rmat, rmat)
    alg, perm, r = r.algebra, orbit_symmetry(t), r.algebra.prepare(r)
    gens = [(name, g, ctx.coproduct(g)) for name, g in ctx.generator_elements()]
    # The residual of a generator that the relabelling maps to another, with
    # the coproduct of one to that of the other, maps to the other's residual.
    moved = [(alg.relabel(g, perm), alg.relabel(d, perm)) for _, g, d in gens] if perm else []
    image = {i: j for i, gd in enumerate(moved) for j, (_, g, d) in enumerate(gens) if j != i and (g, d) == gd}
    done = set()
    for i, (_, _, delta) in enumerate(gens):
        labels, j = [], i
        while j is not None and j not in done:
            done.add(j)
            labels.append(gens[j][0])
            j = image.get(j)
        if labels:
            # As in qybe, the leading parts cancel but for lead(delta - op, R),
            # which is empty for an H, whose coproduct is symmetric.
            op = delta.swap()
            terms = [(1, delta - op, r, "lead"), (1, r, delta, "corr"), (-1, op, r, "corr")]
            yield labels[0], terms, perm, labels[1:], None


@_check("hopf-axioms")
def check_hopf_axioms(ctx, phi=None):
    """Coassociativity, counit axioms, and counitality/invertibility of the twist."""
    alg = ctx.algebra
    p = ctx.phi if phi is None else phi
    for name, g in ctx.generator_elements():
        delta = ctx.coproduct(g)
        coassoc = [(1, ctx.coproduct_on_leg(delta, 0)), (-1, ctx.coproduct_on_leg(delta, 1))]
        yield f"coassociativity {name}", coassoc
        yield f"counit-left {name}", [(1, delta.strip_unit_leg(0)), (-1, g)]
        yield f"counit-right {name}", [(1, delta.strip_unit_leg(1)), (-1, g)]
    one = alg.one()
    yield "twist-counital-left", [(1, p.strip_unit_leg(0)), (-1, one)]
    yield "twist-counital-right", [(1, p.strip_unit_leg(1)), (-1, one)]
    yield "twist-inverse", [(1, ctx.phi_inverse, p), (-1, alg.tensor_unit(2))]


@_check("classical-limit")
def check_classical_limit(ctx):
    """Power-zero slice of each bracket table entry equals B."""
    spec, alg = ctx.spec, ctx.algebra
    hs = [Monomial.h_gen(spec.m, spec.n, i) for i in range(spec.m)]
    for j in range(spec.m):
        for mu in range(spec.n):
            got = alg.element({key: c for key, c in alg.bracket(j, mu).items() if key[0] == 0})
            want = alg.element({(0, h): b[j][mu] for h, b in zip(hs, spec.B) if b[j][mu]})
            yield f"[{spec.h_names[j]},{spec.x_names[mu]}]", [(1, got), (-1, want)]


@_check("cybe")
def check_cybe(ctx):
    """Classical Yang-Baxter residual of the r-matrix."""
    return [("[[r,r]]", [(1, ctx.spec._cybe)])]


@_check("alpha-exchange")
def check_alpha_exchange(ctx):
    """Exchange identity for the lowered coupling against e^{2 alpha.H} - I.

    For all mu, rho, nu:
    sum_s alpha^mu_{rho,s} W^s_nu == sum_s alpha^mu_{nu,s} W^s_rho,
    with W = e^{2 alpha.H} - I.
    """
    spec = ctx.spec
    w = ctx.exp_2alpha_h - SeriesMatrix.identity(ctx.algebra, spec.n)
    low = ctx.derived.alpha_low
    for mu in range(spec.n):
        for rho in range(spec.n):
            for nu in range(rho + 1, spec.n):
                yield f"(mu,rho,nu)=({mu},{rho},{nu})", [
                    (sign * low[a][mu][s], w.entry(s, b))
                    for sign, a, b in ((1, rho, nu), (-1, nu, rho))
                    for s in range(spec.n)
                    if low[a][mu][s]
                ]


def _suite_xi(ctx, xi):
    """The classical basis coefficients: the override, the spec's, or a scan.

    The scan reads the context's own derived couplings, so a context whose
    stored B or r is stale gets the xi it was built for.
    """
    if xi is not None:
        return tuple(Q(v) for v in xi)
    if ctx.spec.xi is not None:
        return ctx.spec.xi
    found = scan_xi(ctx.spec, ctx.derived.alpha_low)
    return (Q(0),) * ctx.spec.n if found is None else found


@_check("classical-basis")
def check_classical_basis(ctx, xi=None, phi=None):
    """The classical basis obeys undeformed brackets and twists to primitives.

    Three residual families: the bracket [K^mu, X_nu] - 2 alpha^mu_{s,nu} K^s,
    the closed-form coproduct of K, and exact primitivity of both K and X
    under the twisted coproduct.
    """
    spec = ctx.spec
    alg = ctx.algebra
    ks = ctx.classical_K(_suite_xi(ctx, xi))
    low = ctx.derived.alpha_low
    for mu in range(spec.n):
        for nu in range(spec.n):
            x = alg.x(nu)
            terms = [(1, ks[mu], x), (-1, x, ks[mu])]
            terms += [(-2 * low[s][mu][nu], ks[s]) for s in range(spec.n) if low[s][mu][nu]]
            yield f"bracket K{mu + 1},{spec.x_names[nu]}", terms
    one = alg.one()
    for mu in range(spec.n):
        terms = [(1, ctx.coproduct(ks[mu])), (-1, alg.outer(ks[mu], one))]
        for nu in range(spec.n):
            entry = ctx.exp_neg2alpha_h.entry(mu, nu)
            if not entry.is_zero() and not ks[nu].is_zero():
                terms.append((-1, alg.outer(entry, ks[nu])))
        yield f"coproduct K{mu + 1}", terms
    for mu in range(spec.n):
        for label, a in ((f"K{mu + 1}", ks[mu]), (spec.x_names[mu], alg.x(mu))):
            prim = [(-1, alg.outer(a, one)), (-1, alg.outer(one, a))]
            yield f"twisted-primitive {label}", [(1, ctx.twisted_coproduct(a, phi=phi))] + prim


# -- null-plane closed forms ------------------------------------------------


@_check("null-plane-commutators")
def check_null_plane_commutators(ctx):
    """All brackets among the lifted H family and the physical basis.

    The three non-vanishing families have hyperbolic closed forms; every
    other pair commutes.
    """
    ys = ctx.physical_basis()
    hs = [ctx.lifted_h(mu) for mu in range(3)]

    def comm(a, b):
        return [(1, a, b), (-1, b, a)]

    plus = exp_truncated(hs[2])
    minus = exp_truncated(hs[2].scale(-1))
    # [H^i, Y_i] and [H^3, Y_3] are 2 sinh(H^3); [H^i, Y_3] is 2 cosh(H^3) H^i.
    two_sinh = [(-1, plus), (1, minus)]
    expected = {(2, 2): two_sinh}
    for i in (0, 1):
        expected[(i, i)] = two_sinh
        expected[(i, 2)] = [(-1, plus, hs[i]), (-1, minus, hs[i])]
    for mu in range(3):
        for nu in range(3):
            yield f"[H^{mu + 1},Y{nu + 1}]", comm(hs[mu], ys[nu]) + expected.get((mu, nu), [])
    for mu in range(3):
        for nu in range(mu + 1, 3):
            yield f"[Y{mu + 1},Y{nu + 1}]", comm(ys[mu], ys[nu])
            yield f"[H^{mu + 1},H^{nu + 1}]", comm(hs[mu], hs[nu])


@_check("null-plane-coproducts")
def check_null_plane_coproducts(ctx):
    """Closed-form coproducts of the lifted H family and the physical basis."""
    alg = ctx.algebra
    ys = ctx.physical_basis()
    hs = [ctx.lifted_h(mu) for mu in range(3)]
    e_plus = exp_truncated(hs[2])
    e_minus = exp_truncated(hs[2].scale(-1))
    one = alg.one()
    for mu in range(3):
        prim = [(-1, alg.outer(hs[mu], one)), (-1, alg.outer(one, hs[mu]))]
        yield f"coproduct H^{mu + 1}", [(1, ctx.coproduct(hs[mu]))] + prim
    for i in range(3):
        terms = [
            (1, ctx.coproduct(ys[i])),
            (-1, alg.outer(e_plus, ys[i])),
            (-1, alg.outer(ys[i], e_minus)),
        ]
        if i == 2:
            for j in (0, 1):
                terms.append((-1, alg.outer(e_plus * hs[j], ys[j])))
                terms.append((1, alg.outer(ys[j], hs[j] * e_minus)))
        yield f"coproduct Y{i + 1}", terms


@_check("null-plane-classical-basis")
def check_null_plane_classical_basis(ctx):
    """K expansions match their closed forms for xi = (0, 0, 1/2)."""
    if ctx.spec.metadata.get("family") != "null-plane":
        raise UnsupportedPresetError(
            "closed-form classical basis is only defined for the null-plane preset"
        )
    half = Q(1, 2)
    ks = ctx.classical_K((Q(0), Q(0), half))
    hs = [ctx.lifted_h(mu) for mu in range(3)]
    e_neg2 = exp_truncated(hs[2].scale(-2))
    return [
        ("K1", [(1, ks[0]), (-1, hs[0], e_neg2)]),
        ("K2", [(1, ks[1]), (-1, hs[1], e_neg2)]),
        ("K3", [(1, ks[2]), (-half, ctx.algebra.one()), (half, e_neg2)]),
    ]


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
            raise UnsupportedPresetError("the section3 suite needs the null-plane preset")
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
        fns = base["classical"] + base["hopf"] + base["twist"] + base["triangular"] + base["ybe"]
        if ctx.spec.metadata.get("family") == "null-plane":
            fns = fns + [lambda fn=fn: fn(ctx) for fn in _NULL_PLANE_CHECKS]
        return fns


def run_suite(ctx, suite="all", jobs=1, xi=None, phi=None, rmat=None):
    """Run a named suite of checks, one after another, in a fixed order.

    `phi` and `rmat` override the context's twist and R-matrix (used by the
    mutation tests); `xi` overrides the classical basis coefficients.  The
    product checks run on `ctx.lifted`, and their residuals are reported in
    the basis of `ctx`.  `jobs` has no effect: it is kept only because the
    benchmark's worker (`bench/worker.py`) passes ``jobs=1``, and goes once
    the worker stops passing it.
    """
    fns = _suite_checks(ctx, suite, xi=xi, phi=phi, rmat=rmat)
    return CheckReport(ctx.spec.name, ctx.algebra.order, suite, tuple(fn() for fn in fns))
