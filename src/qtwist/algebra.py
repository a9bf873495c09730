"""Exact sparse arithmetic in truncated deformations of PBW-ordered enveloping algebras.

The carrier algebra has two families of generators: a commutative family
``H_0..H_{m-1}``, a commutative family ``X_0..X_{n-1}``, and a bracket table
that assigns to every pair ``(j, mu)`` the value of ``[H_j, X_mu]`` as a
series with pure-H coefficients.  Everything is graded by a formal
deformation parameter ``h``: an element is a finite sum of terms
``c * h^k * H^a X^b`` with exact rational ``c``, and all arithmetic drops
terms above a fixed truncation order ``N``.

Normal ordering rewrites any word of generators into the basis of monomials
with every H factor to the left of every X factor.  Each swap of an adjacent
``X H`` pair costs a pure-H correction read from the bracket table; since the
corrections carry no X factors, the rewriting terminates, and because the
``X H`` pattern cannot overlap itself, the normal form is unique for any
table.  Multiplication is normal ordering of the concatenation, so it is
associative by confluence.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Mapping, NamedTuple, Sequence

from .errors import MalformedWordError, ShapeError, TruncationError

Q = Fraction


def _tadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _tinc(t, i):
    return t[:i] + (t[i] + 1,) + t[i + 1 :]


def _tdec(t, i):
    return t[:i] + (t[i] - 1,) + t[i + 1 :]


class Monomial(NamedTuple):
    """Normal-ordered monomial: H exponents, then X exponents."""

    h: tuple
    x: tuple

    @classmethod
    def unit(cls, m, n):
        return cls((0,) * m, (0,) * n)

    @classmethod
    def h_gen(cls, m, n, i):
        return cls(tuple(1 if j == i else 0 for j in range(m)), (0,) * n)

    @classmethod
    def x_gen(cls, m, n, mu):
        return cls((0,) * m, tuple(1 if j == mu else 0 for j in range(n)))

    @property
    def is_unit(self):
        return not any(self.h) and not any(self.x)

    @property
    def is_pure_h(self):
        return not any(self.x)


def _prune(terms):
    for key in [k for k, v in terms.items() if v == 0]:
        del terms[key]
    return terms


class Algebra:
    """Carrier for truncated deformed arithmetic.

    `table` maps ``(j, mu)`` to the terms of ``[H_j, X_mu]`` as a dict from
    ``(power, Monomial)`` to Fraction; every monomial must be pure-H.
    Elements hold a reference to their algebra, and mixed-algebra products
    are rejected, since the bracket table is part of the ring structure.

    Three caches live as long as the algebra, and no entry is mutated once
    stored: `_single_cache` holds the normal form of ``X_mu H^a``,
    `_block_cache` that of ``X^b H^a``, and `_mono_cache` the product of
    two normal-ordered monomials.
    """

    def __init__(self, m, n, order, table):
        if m < 0 or n < 0 or order < 0:
            raise ShapeError("dimensions and order must be non-negative")
        self.m = m
        self.n = n
        self.order = order
        self._table = {}
        for (j, mu), entry in table.items():
            if not (0 <= j < m and 0 <= mu < n):
                raise ShapeError(f"bracket table key ({j}, {mu}) out of range")
            clean = {}
            for (k, mono), coeff in entry.items():
                mono = Monomial(tuple(mono[0]), tuple(mono[1]))
                if not mono.is_pure_h:
                    raise ShapeError("bracket table values must be pure-H")
                if len(mono.h) != m or len(mono.x) != n:
                    raise ShapeError("bracket table monomial has wrong arity")
                c = Q(coeff)
                if c and k <= order:
                    clean[(k, mono)] = clean.get((k, mono), Q(0)) + c
            self._table[(j, mu)] = _prune(clean)
        for j in range(m):
            for mu in range(n):
                self._table.setdefault((j, mu), {})
        self._single_cache = {}
        self._block_cache = {}
        self._mono_cache = {}

    def bracket(self, j, mu):
        """Terms of [H_j, X_mu]."""
        return self._table[(j, mu)]

    # -- element constructors ------------------------------------------------

    def zero(self):
        return self.tensor_zero(1)

    def one(self):
        return self.tensor_unit(1)

    def h(self, i, power=0):
        if not 0 <= i < self.m:
            raise ShapeError(f"H index {i} out of range")
        return TensorElement(self, 1, {(power, (Monomial.h_gen(self.m, self.n, i),)): Q(1)})

    def x(self, mu, power=0):
        if not 0 <= mu < self.n:
            raise ShapeError(f"X index {mu} out of range")
        return TensorElement(self, 1, {(power, (Monomial.x_gen(self.m, self.n, mu),)): Q(1)})

    def element(self, terms):
        """Build a 1-leg element from a mapping (power, monomial) -> coefficient.

        Monomials may be Monomial instances or (h_exps, x_exps) pairs.
        Terms above the truncation order are dropped; zeros are pruned.
        """
        for k, mono in terms:
            if k < 0:
                raise ShapeError("negative deformation power")
            if any(e < 0 for e in mono[0]) or any(e < 0 for e in mono[1]):
                raise ShapeError("negative exponent")
        return self.tensor_element(1, {(k, (mono,)): c for (k, mono), c in terms.items()})

    def from_word(self, word):
        """Normal-order a word of (generator id, deformation power) letters.

        Generator ids 0..m-1 name H generators, m..m+n-1 name X generators.
        """
        acc = self.one()
        for gid, power in word:
            if not 0 <= gid < self.m + self.n:
                raise MalformedWordError(f"generator id {gid} out of range")
            if power < 0:
                raise MalformedWordError("negative deformation power in word")
            if gid < self.m:
                letter = self.h(gid, power=power)
            else:
                letter = self.x(gid - self.m, power=power)
            acc = acc * letter
        return acc

    # -- tensor constructors ---------------------------------------------------

    def tensor_unit(self, legs):
        unit = Monomial.unit(self.m, self.n)
        return TensorElement(self, legs, {(0, (unit,) * legs): Q(1)})

    def tensor_zero(self, legs):
        return TensorElement(self, legs, {})

    def tensor_element(self, legs, terms):
        out = {}
        for (k, monos), coeff in terms.items():
            if len(monos) != legs:
                raise ShapeError("tensor term with wrong number of legs")
            monos = tuple(Monomial(tuple(mo[0]), tuple(mo[1])) for mo in monos)
            for mo in monos:
                if len(mo.h) != self.m or len(mo.x) != self.n:
                    raise ShapeError("monomial arity does not match the algebra")
            c = Q(coeff)
            if c and 0 <= k <= self.order:
                out[(k, monos)] = out.get((k, monos), Q(0)) + c
        return TensorElement(self, legs, _prune(out))

    def outer(self, *factors):
        """Tensor product of the factors, their legs side by side."""
        if not factors:
            raise ShapeError("outer requires at least one factor")
        out = {}
        for combo in itertools.product(*(f.terms.items() for f in factors)):
            k = sum(key[0] for key, _ in combo)
            if k > self.order:
                continue
            monos = tuple(mono for key, _ in combo for mono in key[1])
            c = Q(1)
            for _, v in combo:
                c *= v
            key = (k, monos)
            out[key] = out.get(key, Q(0)) + c
        return TensorElement(self, sum(f.legs for f in factors), _prune(out))

    # -- normal-ordering kernels ------------------------------------------------

    def _single_x_past_h(self, mu, h_exps):
        """Normal form of the word X_mu * H^h_exps, as extra-power term map."""
        key = (mu, h_exps)
        cached = self._single_cache.get(key)
        if cached is not None:
            return cached
        if not any(h_exps):
            out = {(0, Monomial(h_exps, Monomial.x_gen(self.m, self.n, mu).x)): Q(1)}
            self._single_cache[key] = out
            return out
        j = next(i for i, e in enumerate(h_exps) if e)
        rest = _tdec(h_exps, j)
        out = {}
        # X H_j = H_j X - [H_j, X]
        for (k, mono), v in self._single_x_past_h(mu, rest).items():
            nk = (k, Monomial(_tinc(mono.h, j), mono.x))
            out[nk] = out.get(nk, Q(0)) + v
        for (k, mono), v in self.bracket(j, mu).items():
            if k > self.order:
                continue
            nk = (k, Monomial(_tadd(mono.h, rest), mono.x))
            out[nk] = out.get(nk, Q(0)) - v
        _prune(out)
        self._single_cache[key] = out
        return out

    def _x_block_past_h(self, x_exps, h_exps):
        """Normal form of the word X^x_exps * H^h_exps."""
        if not any(x_exps) or not any(h_exps):
            return {(0, Monomial(h_exps, x_exps)): Q(1)}
        key = (x_exps, h_exps)
        cached = self._block_cache.get(key)
        if cached is not None:
            return cached
        mu = max(i for i, e in enumerate(x_exps) if e)
        head = _tdec(x_exps, mu)
        out = {}
        for (k1, m1), v1 in self._single_x_past_h(mu, h_exps).items():
            if k1 > self.order:
                continue
            for (k2, m2), v2 in self._x_block_past_h(head, m1.h).items():
                k = k1 + k2
                if k > self.order:
                    continue
                nk = (k, Monomial(m2.h, _tadd(m2.x, m1.x)))
                out[nk] = out.get(nk, Q(0)) + v1 * v2
        _prune(out)
        self._block_cache[key] = out
        return out

    def _mono_mul(self, a, b):
        """Product of two normal-ordered monomials, cached per pair.

        Returns a tuple of ``(power, monomial, coeff)`` triples in increasing
        power, with a coefficient of exactly 1 stored as None so that callers
        can skip the multiply.  The tuple is shared by every caller.
        """
        key = (a, b)
        cached = self._mono_cache.get(key)
        if cached is None:
            # (k, mono) -> (k, a.h + mono.h, mono.x + b.x) is injective, so
            # the block's terms map to distinct terms of the product.
            terms = sorted(self._x_block_past_h(a.x, b.h).items(), key=lambda kv: kv[0][0])
            cached = tuple(
                (k, Monomial(_tadd(a.h, mono.h), _tadd(mono.x, b.x)), None if v == 1 else v)
                for (k, mono), v in terms
            )
            self._mono_cache[key] = cached
        return cached

    # -- products ----------------------------------------------------------------

    def mul_tensors(self, a, b):
        order = self.order
        mono_mul = self._mono_mul
        legs = range(a.legs)
        # The terms of b grouped by power, so that each term of a stops at
        # the first power that overshoots the order.
        by_power = {}
        for (k2, monos2), c2 in b.terms.items():
            by_power.setdefault(k2, []).append((monos2, c2))
        buckets = sorted(by_power.items())
        out = {}
        for (k1, monos1), c1 in a.terms.items():
            for k2, bucket in buckets:
                base = k1 + k2
                if base > order:
                    break
                for monos2, c2 in bucket:
                    combos = [(base, (), c1 * c2)]
                    for leg in legs:
                        legmap = mono_mul(monos1[leg], monos2[leg])
                        nxt = []
                        for k, monos, c in combos:
                            for km, mono, cm in legmap:
                                nk = k + km
                                if nk > order:
                                    break
                                nxt.append((nk, monos + (mono,), c if cm is None else c * cm))
                        combos = nxt
                        if not combos:
                            break
                    for k, monos, c in combos:
                        key = (k, monos)
                        prev = out.get(key)
                        out[key] = c if prev is None else prev + c
        return TensorElement(self, a.legs, _prune(out))


class TensorElement:
    """Sparse element of a tensor power of the algebra, one monomial per leg.

    Terms are keyed ``(power, (mono_1, ..., mono_legs))``.  An element of the
    algebra itself is the 1-leg case.
    """

    __slots__ = ("algebra", "legs", "terms")

    def __init__(self, algebra, legs, terms):
        if legs < 1:
            raise ShapeError("tensor elements need at least one leg")
        self.algebra = algebra
        self.legs = legs
        self.terms = terms

    def _with_terms(self, terms):
        return TensorElement(self.algebra, self.legs, terms)

    def _check_compat(self, other):
        if type(other) is not type(self):
            raise ShapeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        a, b = self.algebra, other.algebra
        if (a.m, a.n, a.order) != (b.m, b.n, b.order):
            raise ShapeError("operands live in algebras of different shape")
        if self.legs != other.legs:
            raise ShapeError("operands have different numbers of tensor legs")

    def __add__(self, other):
        self._check_compat(other)
        out = dict(self.terms)
        for key, v in other.terms.items():
            out[key] = out.get(key, Q(0)) + v
        return self._with_terms(_prune(out))

    def __sub__(self, other):
        self._check_compat(other)
        out = dict(self.terms)
        for key, v in other.terms.items():
            out[key] = out.get(key, Q(0)) - v
        return self._with_terms(_prune(out))

    def __neg__(self):
        return self._with_terms({k: -v for k, v in self.terms.items()})

    def scale(self, c):
        c = Q(c)
        if not c:
            return self._with_terms({})
        return self._with_terms({k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compat(other)
        if self.algebra is not other.algebra:
            raise ShapeError("product of elements from distinct algebras")
        return self.algebra.mul_tensors(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ShapeError("powers must be non-negative integers")
        acc = self.algebra.tensor_unit(self.legs)
        for _ in range(k):
            acc = acc * self
        return acc

    def is_zero(self):
        return not self.terms

    def is_pure_h(self):
        return all(mono.is_pure_h for _, monos in self.terms for mono in monos)

    def valuation(self):
        """Smallest deformation power present, or None for zero."""
        return min((k for k, _ in self.terms), default=None)

    def unit_series(self):
        """Coefficients of the unit monomial, keyed by deformation power."""
        return {
            k: c for (k, monos), c in self.terms.items() if all(mono.is_unit for mono in monos)
        }

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        a, b = self.algebra, other.algebra
        return (
            (a.m, a.n, a.order) == (b.m, b.n, b.order)
            and self.legs == other.legs
            and self.terms == other.terms
        )

    __hash__ = None

    def permute(self, perm):
        """Reorder legs; perm[i] is the source leg for target slot i."""
        if sorted(perm) != list(range(self.legs)):
            raise ShapeError("not a permutation of the legs")
        out = {}
        for (k, monos), c in self.terms.items():
            key = (k, tuple(monos[p] for p in perm))
            out[key] = out.get(key, Q(0)) + c
        return self._with_terms(out)

    def swap(self):
        """Exchange the two legs of a 2-tensor."""
        if self.legs != 2:
            raise ShapeError("swap is defined for two legs")
        return self.permute((1, 0))

    def embed(self, legs, positions):
        """Place this tensor's legs at `positions` inside a wider unit tensor."""
        if len(positions) != self.legs or sorted(set(positions)) != sorted(positions):
            raise ShapeError("positions must be distinct, one per leg")
        if any(not 0 <= p < legs for p in positions):
            raise ShapeError("position out of range")
        unit = Monomial.unit(self.algebra.m, self.algebra.n)
        out = {}
        for (k, monos), c in self.terms.items():
            wide = [unit] * legs
            for mono, p in zip(monos, positions):
                wide[p] = mono
            out[(k, tuple(wide))] = c
        return TensorElement(self.algebra, legs, out)

    def strip_unit_leg(self, leg):
        """Keep terms whose given leg is the unit monomial, dropping that leg.

        Realizes the counit applied to one leg.
        """
        if not 0 <= leg < self.legs:
            raise ShapeError("leg out of range")
        out = {}
        for (k, monos), c in self.terms.items():
            if not monos[leg].is_unit:
                continue
            rest = monos[:leg] + monos[leg + 1 :]
            key = (k, rest)
            out[key] = out.get(key, Q(0)) + c
        return TensorElement(self.algebra, self.legs - 1, _prune(out))

    def __repr__(self):
        return f"TensorElement({format_terms(self.sorted_terms(), self.algebra)})"


Element = TensorElement


def normal_order(word, algebra):
    """Normal-order a word (module-level convenience wrapper)."""
    return algebra.from_word(word)


def exp_truncated(a):
    """Truncated exponential sum_{k<=N} a^k / k!.

    Requires every term of `a` to carry deformation power >= 1, which makes
    the sum exact at the truncation order.
    """
    if any(k < 1 for k, _ in a.terms):
        raise TruncationError("exponent has a term of deformation power zero")
    acc = a.algebra.tensor_unit(a.legs)
    power = acc
    for j in range(1, a.algebra.order + 1):
        power = power * a
        if power.is_zero():
            break
        acc = acc + power.scale(Q(1, factorial(j)))
    return acc


class SeriesMatrix:
    """Square matrix with pure-H element entries (a commutative ring)."""

    __slots__ = ("algebra", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ShapeError("series matrix must be square and non-empty")
        alg = None
        for row in rows:
            for e in row:
                if not isinstance(e, Element) or e.legs != 1:
                    raise ShapeError("series matrix entries must be elements")
                if not e.is_pure_h():
                    raise ShapeError("series matrix entries must be pure-H")
                if alg is None:
                    alg = e.algebra
                elif e.algebra is not alg:
                    raise ShapeError("series matrix entries from distinct algebras")
        self.algebra = alg
        self.entries = rows

    @property
    def size(self):
        return len(self.entries)

    @classmethod
    def identity(cls, algebra, size):
        one, zero = algebra.one(), algebra.zero()
        return cls([[one if i == j else zero for j in range(size)] for i in range(size)])

    @classmethod
    def zeros(cls, algebra, size):
        zero = algebra.zero()
        return cls([[zero for _ in range(size)] for _ in range(size)])

    def entry(self, i, j):
        return self.entries[i][j]

    def __add__(self, other):
        self._check(other)
        return SeriesMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __sub__(self, other):
        self._check(other)
        return SeriesMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def scale(self, c):
        return SeriesMatrix([[e.scale(c) for e in row] for row in self.entries])

    def __matmul__(self, other):
        self._check(other)
        size = self.size
        rows = []
        for i in range(size):
            row = []
            for j in range(size):
                acc = self.algebra.zero()
                for k in range(size):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            rows.append(row)
        return SeriesMatrix(rows)

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def _check(self, other):
        if not isinstance(other, SeriesMatrix) or other.size != self.size:
            raise ShapeError("series matrix shapes differ")
        if other.algebra is not self.algebra:
            raise ShapeError("series matrices from distinct algebras")

    def __eq__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        return self.size == other.size and all(
            a == b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb)
        )

    __hash__ = None


def series_apply(coeffs, matrix):
    """Evaluate sum_k coeffs[k] * matrix^k, truncated at the algebra's order.

    Every nonzero entry of `matrix` must have deformation valuation >= 1 and
    at least order+1 coefficients must be supplied.
    """
    algebra = matrix.algebra
    if len(coeffs) < algebra.order + 1:
        raise TruncationError("need at least order+1 series coefficients")
    for row in matrix.entries:
        for e in row:
            val = e.valuation()
            if val is not None and val < 1:
                raise TruncationError("series argument has a valuation-zero entry")
    acc = SeriesMatrix.identity(algebra, matrix.size).scale(Q(coeffs[0]))
    power = SeriesMatrix.identity(algebra, matrix.size)
    for k in range(1, algebra.order + 1):
        power = power @ matrix
        if power.is_zero():
            break
        c = Q(coeffs[k])
        if c:
            acc = acc + power.scale(c)
    return acc


def exp_coefficients(order):
    return [Q(1, factorial(k)) for k in range(order + 1)]


def expm1_over_t_coefficients(order):
    """Taylor coefficients of (e^t - 1)/t."""
    return [Q(1, factorial(k + 1)) for k in range(order + 1)]


def one_minus_exp_neg_coefficients(order):
    """Taylor coefficients of 1 - e^{-t}."""
    return [Q(0)] + [-Q((-1) ** k, factorial(k)) for k in range(1, order + 1)]


# -- rendering ------------------------------------------------------------------


def format_scalar(c):
    return str(Q(c))


def format_monomial(mono, h_names=None, x_names=None):
    parts = []
    for e, name in zip(mono.h, h_names or [f"H{i+1}" for i in range(len(mono.h))]):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    for e, name in zip(mono.x, x_names or [f"X{i+1}" for i in range(len(mono.x))]):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_term(key, coeff, h_names=None, x_names=None):
    k, monos = key
    body = " ⊗ ".join(format_monomial(mo, h_names, x_names) for mo in monos)
    parts = []
    if coeff != 1:
        parts.append(format_scalar(coeff))
    if k == 1:
        parts.append("h")
    elif k:
        parts.append(f"h^{k}")
    parts.append(body)
    return " * ".join(parts)


def format_terms(sorted_terms, algebra, h_names=None, x_names=None):
    if not sorted_terms:
        return "0"
    return " + ".join(format_term(key, c, h_names, x_names) for key, c in sorted_terms)
