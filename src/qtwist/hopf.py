"""Hopf structure of the deformed algebra: coproduct, counit, twist, R-matrix.

The deformed coproduct leaves the H generators primitive and couples the X
generators through the group-like matrix ``e^{2 alpha.H}``.  Conjugating it
by the twist ``Phi = exp(h r^{i,mu} H_i (x) X_mu)`` recovers a primitive
coproduct on the classical basis, and ``R = swap(Phi) * Phi^{-1}`` is the
universal R-matrix.  All outputs live at the context's truncation order.
The coproduct of a tensor leg is `Algebra.substitute_leg` with the cached
coproduct of each monomial, so no key layout is read here.
"""

from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction
from functools import cached_property

from . import linalg
from .algebra import (
    Algebra,
    Monomial,
    SeriesMatrix,
    _from_parts,
    _table_entry,
    exp_coefficients,
    exp_truncated,
    series_powers,
    series_sum,
)
from .errors import ShapeError, UnsupportedPresetError
from .model import DerivedStructure, _contract, _frozen, derive_alpha
from .transport import BasisChange

Q = Fraction


def build_context(spec):
    """Derive the structure for a spec and wrap it in a HopfContext."""
    return HopfContext(derive_alpha(spec))


class _shared(cached_property):
    """A cached property kept in the context's `_shared` dict (see HopfContext)."""

    def __get__(self, ctx, owner=None):
        if ctx is not None and self.attrname not in ctx._shared:
            ctx._shared[self.attrname] = self.func(ctx)
        return self if ctx is None else ctx._shared[self.attrname]


class HopfContext:
    """Bundles a derived structure with the cached Hopf-side data.

    The heavyweight pieces (coproduct images, matrix exponentials, the twist
    and the R-matrix) are built lazily and cached, so every check run on a
    context reuses them.  Those built from ``derived`` without its spec (the
    twin's algebra and maps too) live in ``derived.shared``, which its stale
    copies share; phi, R and the twin's spec stay per context.  On a lifted
    twin (see `lifted`), `from_user` and `to_user` are the basis changes from
    and to the user's context; on any other context they are None.
    """

    def __init__(self, derived: DerivedStructure):
        self.derived = derived
        self.spec = derived.spec
        self.algebra = derived.algebra
        self.from_user = self.to_user = None
        self._shared = derived.hopf_data()
        self._delta_cache = self._shared.setdefault("_delta_cache", {})

    @property
    def lifted(self):
        """This context in the H basis ``H'_lam = sum_i r[i][lam] H_i``, where r = I.

        The context itself when ``derived.r_low`` is the identity.  The map
        comes from the r the derived structure was built from, whose inverse
        transpose is ``r_low``: ``H_i -> sum_lam r_low[i][lam] H'_lam``
        forward, ``H'_lam -> sum_i r[i][lam] H_i`` back, X fixed both ways.
        It fixes h, commutes with the coproduct and maps the twist exponent to
        itself, so every product formed on the twin is the image of the one
        formed here; on a stale context it is the image of the stale product.
        """
        return self if self._lift is None else self._twin

    @_shared
    def _lift(self):
        """The r of ``r_low`` and the maps to and from the twin's algebra; None when r_low = I."""
        alg, dims, r_low = self.algebra, range(self.algebra.m), self.derived.r_low
        if r_low == _frozen(linalg.identity(alg.m)):
            return None
        r = linalg.inverse([list(col) for col in zip(*r_low)])
        # [H'_a, X_mu] = sum_j r[j][a] [H_j, X_mu], each [H_j, X_mu] carried
        # forward once.  The entries are pure-H, so a table-free algebra holds them.
        carry = BasisChange(alg, Algebra(alg.m, alg.n, alg.order, {}), r_low)
        carried = {at: carry(alg.element(alg.bracket(*at))) for at in itertools.product(dims, dims)}
        table = {}
        for a, mu in itertools.product(dims, dims):
            acc = {}
            for j in dims:
                if r[j][a]:
                    carried[j, mu].add_into(acc, r[j][a])
            table[(a, mu)] = _table_entry(_from_parts(carry.target, 1, acc))
        twin_alg = Algebra(alg.m, alg.n, alg.order, table)
        return r, BasisChange(alg, twin_alg, r_low), BasisChange(twin_alg, alg, list(zip(*r)))

    @cached_property
    def _twin(self):
        """The lifted twin, built on first use; only for an r_low other than the identity.

        A context never caches itself, which would make it a reference cycle
        that outlives its last use until the cyclic collector runs.
        """
        spec, derived, (r, from_user, to_user) = self.spec, self.derived, self._lift
        r_low = derived.r_low
        # The stored spec carried over by the same map; its twist matrix is
        # r_low^T r, the identity unless the stored r is stale.
        B = _contract(r_low, [_contract(r, b) for b in spec.B])
        twin_r = _contract(r_low, spec.r)
        # Carried forward, the coupling of H'_lam is sum_i r_low[i][lam]
        # alpha_up[i], which is alpha_low[lam]; alpha_low itself is unchanged.
        twin = HopfContext(
            dataclasses.replace(
                derived,
                spec=dataclasses.replace(spec, B=B, r=twin_r),
                alpha_up=derived.alpha_low,
                r_low=_frozen(linalg.identity(spec.m)),
                algebra=from_user.target,
            )
        )
        twin.from_user, twin.to_user = from_user, to_user
        return twin

    # -- series matrices ---------------------------------------------------

    @_shared
    def alpha_h(self):
        return self.derived.alpha_h_matrix()

    @_shared
    def alpha_h_powers(self):
        """(alpha.H)^k for k = 0..N, which every series in alpha.H sums; derive_alpha seeds it."""
        return series_powers(self.alpha_h)

    @_shared
    def exp_2alpha_h(self):
        return series_sum(exp_coefficients(self.algebra.order), self.alpha_h_powers, 2)

    @_shared
    def exp_neg2alpha_h(self):
        return series_sum(exp_coefficients(self.algebra.order), self.alpha_h_powers, -2)

    @_shared
    def one_minus_exp_neg2(self):
        return SeriesMatrix.identity(self.algebra, self.spec.n) - self.exp_neg2alpha_h

    # -- coproduct ------------------------------------------------------------

    @_shared
    def _delta_gens(self):
        """Coproducts of H_0..H_{m-1} and then X_0..X_{n-1}, the order of a leg field."""
        alg, one = self.algebra, self.algebra.one()
        out = [alg.outer(alg.h(i), one) + alg.outer(one, alg.h(i)) for i in range(self.spec.m)]
        for mu in range(self.spec.n):
            t = alg.outer(alg.x(mu), one)
            for nu in range(self.spec.n):
                entry = self.exp_2alpha_h.entry(nu, mu)
                if not entry.is_zero():
                    t = t + alg.outer(entry, alg.x(nu))
            out.append(t)
        return tuple(out)

    def _delta_monomial(self, mono, room):
        """Coproduct of the monomial `mono` to power `room` or beyond, cached per monomial.

        It is the coproduct of the monomial's first generator, in the chain
        order H by index and then X by index, times that of the rest: one
        product per entry, which moves one X, not a block, past a series.
        Built to `room` on first use, and once more, to the order, when a later
        use needs more; the cache holds ``(reach, coproduct)``.
        """
        alg, (reach, cached) = self.algebra, self._delta_cache.get(mono, (-1, None))
        if reach < room:
            reach, peeled, acc = room if reach < 0 else alg.order, mono.peel(), {}
            if peeled is None:
                cached = alg.tensor_unit(2)
            else:
                gen, rest = peeled
                alg.mul_into(acc, self._delta_gens[gen], self._delta_monomial(rest, reach), order=reach)
                cached = _from_parts(alg, 2, acc)
            self._delta_cache[mono] = reach, cached
        return cached

    def coproduct(self, a):
        """Deformed coproduct, extended from the generators as an algebra map."""
        return self.coproduct_on_leg(a, 0)

    def coproduct_on_leg(self, tensor, leg):
        """Apply the coproduct to one leg, widening the tensor by a leg."""
        return self.algebra.substitute_leg(tensor, leg, self._delta_monomial, 2)

    # -- twist and R-matrix ----------------------------------------------------

    @cached_property
    def twist_exponent(self):
        """The 2-tensor h * r^{i,mu} H_i (x) X_mu."""
        m, n, r = self.spec.m, self.spec.n, self.spec.r
        terms = {
            (1, (Monomial.h_gen(m, n, i), Monomial.x_gen(m, n, mu))): r[i][mu]
            for i in range(m)
            for mu in range(n)
            if r[i][mu]
        }
        return self.algebra.tensor_element(2, terms)

    @cached_property
    def phi(self):
        """The twist element, exp of the pairing 2-tensor."""
        return exp_truncated(self.twist_exponent)

    @cached_property
    def phi_inverse(self):
        """Inverse twist, exp of the negated pairing 2-tensor t.  The powers of t, H on leg 0 and X
        on leg 1, reorder nothing, so ``t^k`` has power k alone: this is phi, odd powers negated."""
        return self.phi.odd_powers_negated()

    @cached_property
    def universal_r(self):
        """exp(swapped exponent) * exp(-exponent), its head swap(phi): swap is an automorphism."""
        return self.phi.swap() * self.phi_inverse

    def twisted_coproduct(self, a, phi=None):
        """Conjugate the deformed coproduct by the twist."""
        p = self.phi if phi is None else phi
        return self.phi_inverse * self.coproduct(a) * p

    # -- derived generator families ----------------------------------------------

    def lifted_h(self, mu):
        """H with a raised index: h * sum_i r[i][mu] H_i."""
        m, n, r = self.spec.m, self.spec.n, self.spec.r
        return self.algebra.element({(1, Monomial.h_gen(m, n, i)): r[i][mu] for i in range(m)})

    def classical_K(self, xi):
        """Classical basis: K^mu = xi^nu (I - e^{-2 alpha.H})^mu_nu."""
        if len(xi) != self.spec.n:
            raise ShapeError("xi has the wrong length")
        out = []
        for mu in range(self.spec.n):
            acc = self.algebra.zero()
            for nu in range(self.spec.n):
                c = Q(xi[nu])
                if c:
                    acc = acc + self.one_minus_exp_neg2.entry(mu, nu).scale(c)
            out.append(acc)
        return tuple(out)

    def physical_basis(self):
        """Generators of the null-plane presentation: Y_nu = X_mu (e^{-alpha.H})^mu_nu.

        Only available for the null-plane preset family, whose closed-form
        bracket and coproduct tables the checks compare against.
        """
        if self.spec.metadata.get("family") != "null-plane":
            raise UnsupportedPresetError(
                "the physical basis is only defined for the null-plane preset"
            )
        return self._physical_basis

    @_shared
    def _physical_basis(self):
        exp_neg = series_sum(exp_coefficients(self.algebra.order), self.alpha_h_powers, -1)
        out = []
        for nu in range(self.spec.n):
            acc = self.algebra.zero()
            for mu in range(self.spec.n):
                entry = exp_neg.entry(mu, nu)
                if not entry.is_zero():
                    acc = acc + self.algebra.x(mu) * entry
            out.append(acc)
        return tuple(out)

    def generator_elements(self):
        """The spec's generators as ``(name, element)`` pairs, H then X.

        On a lifted twin the H generators are the images of the user's.
        """
        alg, user = self.algebra, self.from_user
        hs = [alg.h(i) if user is None else user(user.source.h(i)) for i in range(self.spec.m)]
        xs = [alg.x(mu) for mu in range(self.spec.n)]
        return list(zip(self.spec.h_names, hs)) + list(zip(self.spec.x_names, xs))
