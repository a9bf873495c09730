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
from collections import defaultdict
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from operator import add
from typing import Mapping, NamedTuple, Sequence

from .errors import MalformedWordError, ShapeError, TruncationError

Q = Fraction


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


class Algebra:
    """Carrier for truncated deformed arithmetic.

    `table` maps ``(j, mu)`` to the terms of ``[H_j, X_mu]`` as a dict from
    ``(power, Monomial)`` to Fraction; every monomial must be pure-H.
    Elements hold a reference to their algebra, and mixed-algebra products
    are rejected, since the bracket table is part of the ring structure.

    Normal ordering runs on integers.  `_int_table` holds each bracket as
    ``((power, h_exps, num), ...)`` triples over one denominator; `bracket`
    returns the Fraction form.  Five caches live as long as the algebra, and
    no entry is mutated once stored: the intern table gives each distinct
    monomial a small int id in first-seen order (`_ids` maps a Monomial to
    its id, `_monos` an id back to its Monomial, and `unit_id` is the id of
    the unit monomial); `_single_cache` holds the normal form of
    ``X_mu H^a`` and `_block_cache` that of ``X^b H^a``, each as integer
    numerators keyed by raw ``(power, h_exps, x_exps)`` tuples over one
    denominator, in lowest terms, a block in increasing power; `_mono_cache`
    holds the product of two interned monomials, keyed by their pair of ids;
    and `_free_rows` maps a left id to its row, ``{right id: product id}``,
    of the reorder-free products found so far (the left monomial has no X or
    the right one no H, so the product is a single monomial at power 0 with
    coefficient 1).  A row is created on first use.
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
            self._table[(j, mu)] = {key: c for key, c in clean.items() if c}
        self._int_table = {}
        for j in range(m):
            for mu in range(n):
                entry = self._table.setdefault((j, mu), {})
                den = lcm(*(c.denominator for c in entry.values()))
                self._int_table[(j, mu)] = (
                    tuple(
                        (k, mono.h, c.numerator * (den // c.denominator))
                        for (k, mono), c in entry.items()
                    ),
                    den,
                )
        self._ids = {}
        self._monos = []
        self.unit_id = self._intern(Monomial.unit(m, n))
        self._single_cache = {}
        self._block_cache = {}
        self._mono_cache = {}
        self._free_rows = defaultdict(dict)

    def _intern(self, mono):
        mid = self._ids.get(mono)
        if mid is None:
            mid = self._ids[mono] = len(self._monos)
            self._monos.append(mono)
        return mid

    def monomial(self, mid):
        """The Monomial with intern id `mid`."""
        return self._monos[mid]

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
        return _canonical(self, legs, {(0, (self.unit_id,) * legs): 1}, 1)

    def tensor_zero(self, legs):
        return _canonical(self, legs, {}, 1)

    def tensor_element(self, legs, terms):
        """Build a tensor from a mapping (power, (monomial, ...)) -> coefficient.

        This is where monomials are validated and interned.  Terms above the
        truncation order are dropped; zeros are pruned.
        """
        return TensorElement(self, legs, terms)

    def _nums(self, legs, terms):
        """Integer numerators and their common denominator for a term map."""
        acc = {}
        for (k, monos), coeff in terms.items():
            if len(monos) != legs:
                raise ShapeError("tensor term with wrong number of legs")
            if k < 0:
                raise ShapeError("negative deformation power")
            monos = tuple(Monomial(tuple(mo[0]), tuple(mo[1])) for mo in monos)
            for mo in monos:
                if len(mo.h) != self.m or len(mo.x) != self.n:
                    raise ShapeError("monomial arity does not match the algebra")
                if any(e < 0 for e in mo.h) or any(e < 0 for e in mo.x):
                    raise ShapeError("negative exponent")
            c = Q(coeff)
            if c and k <= self.order:
                key = (k, tuple(self._intern(mo) for mo in monos))
                acc[key] = acc.get(key, Q(0)) + c
        # Over the lcm of reduced denominators the numerators share no factor
        # with it, so the result is already in canonical form.
        acc = {key: c for key, c in acc.items() if c}
        den = lcm(*(c.denominator for c in acc.values()))
        return {key: c.numerator * (den // c.denominator) for key, c in acc.items()}, den

    def outer(self, *factors):
        """Tensor product of the factors, their legs side by side."""
        if not factors:
            raise ShapeError("outer requires at least one factor")
        factors = [f._on(self) for f in factors]
        out = {}
        for combo in itertools.product(*(f.nums.items() for f in factors)):
            k = sum(key[0] for key, _ in combo)
            if k > self.order:
                continue
            key = (k, tuple(mid for key, _ in combo for mid in key[1]))
            out[key] = out.get(key, 0) + prod(v for _, v in combo)
        den = prod(f.den for f in factors)
        return _canonical(self, sum(f.legs for f in factors), out, den)

    # -- normal-ordering kernels ------------------------------------------------

    def _single_x_past_h(self, mu, h_exps):
        """Normal form of the word X_mu * H^h_exps, as ``(terms, den)``.

        `terms` maps ``(power, h_exps, x_exps)`` to an integer numerator over
        the denominator `den`, in lowest terms.
        """
        key = (mu, h_exps)
        cached = self._single_cache.get(key)
        if cached is not None:
            return cached
        if not any(h_exps):
            out = {(0, h_exps, Monomial.x_gen(self.m, self.n, mu).x): 1}, 1
        else:
            j = next(i for i, e in enumerate(h_exps) if e)
            rest = _tdec(h_exps, j)
            sub, sub_den = self._single_x_past_h(mu, rest)
            bracket, bracket_den = self._int_table[(j, mu)]
            den = lcm(sub_den, bracket_den)
            fs, fb = den // sub_den, den // bracket_den
            # X H_j = H_j X - [H_j, X].  The bracket is pure-H, so only the
            # terms carried over from X_mu H^rest can hold X_mu.
            terms = {(k, _tinc(h, j), x): v * fs for (k, h, x), v in sub.items()}
            no_x = (0,) * self.n
            for k, h, v in bracket:
                nk = (k, tuple(map(add, h, rest)), no_x)
                terms[nk] = terms.get(nk, 0) - v * fb
            out = _reduced(terms, den)
        self._single_cache[key] = out
        return out

    def _x_block_past_h(self, x_exps, h_exps):
        """Normal form of the word X^x_exps * H^h_exps, as ``(terms, den)``.

        The layout is that of `_single_x_past_h`, with the terms in
        increasing power.
        """
        if not any(x_exps) or not any(h_exps):
            return {(0, h_exps, x_exps): 1}, 1
        key = (x_exps, h_exps)
        cached = self._block_cache.get(key)
        if cached is not None:
            return cached
        order = self.order
        mu = max(i for i, e in enumerate(x_exps) if e)
        head = _tdec(x_exps, mu)
        # X^x H^h = X^head (X_mu H^h).  With no head this is the single map;
        # otherwise each of its terms H^h1 X^x1 leaves the block X^head H^h1,
        # over that block's own denominator.
        terms, den = self._single_x_past_h(mu, h_exps)
        if any(head):
            parts = {}
            for (k1, h1, x1), v1 in terms.items():
                sub, sub_den = self._x_block_past_h(head, h1)
                acc = parts.setdefault(sub_den * den, {})
                for (k2, h2, x2), v2 in sub.items():
                    k = k1 + k2
                    if k > order:
                        break
                    nk = (k, h2, tuple(map(add, x2, x1)))
                    acc[nk] = acc.get(nk, 0) + v1 * v2
            terms, den = _reduced(*_merged(parts))
        out = dict(sorted(terms.items())), den
        self._block_cache[key] = out
        return out

    def _mono_mul(self, a, b):
        """Product of the monomials with ids `a` and `b`, cached per pair.

        Returns a tuple of ``(power, id, coeff)`` triples in increasing
        power.  A coefficient of exactly 1 is stored as None so that callers
        can skip the multiply; any other is an integer pair ``(num, den)``
        in lowest terms.  The tuple is shared by every caller.  A
        reorder-free product is also entered in the row of `a` in
        `_free_rows`.
        """
        key = (a, b)
        cached = self._mono_cache.get(key)
        if cached is None:
            ma, mb = self._monos[a], self._monos[b]
            if not any(ma.x) or not any(mb.h):
                mono = Monomial(tuple(map(add, ma.h, mb.h)), tuple(map(add, ma.x, mb.x)))
                mid = self._free_rows[a][b] = self._intern(mono)
                cached = ((0, mid, None),)
            else:
                block, den = self._x_block_past_h(ma.x, mb.h)
                ids, out = self._ids, []
                # (k, h, x) -> (k, a.h + h, x + b.x) is injective, so the
                # block's terms map to distinct terms of the product.
                for (k, h, x), v in block.items():
                    # A Monomial hashes and compares as its plain tuple.
                    hx = (tuple(map(add, ma.h, h)), tuple(map(add, x, mb.x)))
                    mid = ids.get(hx)
                    if mid is None:
                        mid = self._intern(Monomial(*hx))
                    if v == den:
                        out.append((k, mid, None))
                    else:
                        g = gcd(v, den)
                        out.append((k, mid, (v // g, den // g)))
                cached = tuple(out)
            self._mono_cache[key] = cached
        return cached

    # -- products ----------------------------------------------------------------

    def mul_into(self, acc, a, b, scale=1):
        """Add ``scale * a * b`` to `acc`, the accumulator the caller owns.

        `acc` maps each absolute denominator to a numerator map keyed like
        `TensorElement.nums`, the layout of `_merged`; `_from_parts` reads it
        back as an element.  `scale` is an int or a Fraction.  This is the
        one product loop: `mul_tensors` runs it into an empty accumulator.
        """
        order = self.order
        cache, mono_mul = self._mono_cache, self._mono_mul
        row, get = self._free_rows.__getitem__, dict.get
        legs = range(a.legs)
        base_den = a.den * b.den * scale.denominator
        s = scale.numerator
        # The terms of b grouped by power, so that each term of a stops at
        # the first power that overshoots the order.
        by_power = {}
        for (k2, ids2), c2 in b.nums.items():
            by_power.setdefault(k2, []).append((ids2, c2))
        buckets = sorted(by_power.items())
        # A term of a above `top` pairs with no term of b.
        top = order - buckets[0][0] if buckets else -1
        # The parts of `acc` by the denominator their terms picked up from
        # cached leg coefficients, relative to `base_den`.
        out = acc.setdefault(base_den, {})
        parts = {1: out}
        for (k1, ids1), c1 in a.nums.items():
            if k1 > top:
                continue
            c1 *= s
            rows = tuple(map(row, ids1))
            for k2, bucket in buckets:
                base = k1 + k2
                if base > order:
                    break
                for ids2, c2 in bucket:
                    # Each leg's product id if it is a known reorder-free one,
                    # else None (the leg reorders, or is not known yet).
                    pids = tuple(map(get, rows, ids2))
                    misses = pids.count(None)
                    if not misses:
                        key = (base, pids)
                        out[key] = out.get(key, 0) + c1 * c2
                        continue
                    if misses == 1:
                        # One leg reorders: its terms go straight into place.
                        leg = pids.index(None)
                        head, tail = pids[:leg], pids[leg + 1 :]
                        pair = (ids1[leg], ids2[leg])
                        c = c1 * c2
                        # A cached empty product is falsy and is returned
                        # again by _mono_mul, from the same cache.
                        for km, mid, cm in cache.get(pair) or mono_mul(*pair):
                            k = base + km
                            if k > order:
                                break
                            if cm is None:
                                part, v = out, c
                            else:
                                part, v = parts.get(cm[1]), c * cm[0]
                                if part is None:
                                    part = parts[cm[1]] = acc.setdefault(cm[1] * base_den, {})
                            key = (k, head + (mid,) + tail)
                            part[key] = part.get(key, 0) + v
                        continue
                    combos = [(base, (), c1 * c2, 1)]
                    for leg in legs:
                        pair = (ids1[leg], ids2[leg])
                        legmap = cache.get(pair) or mono_mul(*pair)
                        nxt = []
                        for k, ids, c, d in combos:
                            for km, mid, cm in legmap:
                                nk = k + km
                                if nk > order:
                                    break
                                if cm is None:
                                    nxt.append((nk, ids + (mid,), c, d))
                                else:
                                    nxt.append((nk, ids + (mid,), c * cm[0], d * cm[1]))
                        combos = nxt
                        if not combos:
                            break
                    for k, ids, c, d in combos:
                        part = out if d == 1 else parts.get(d)
                        if part is None:
                            part = parts[d] = acc.setdefault(d * base_den, {})
                        key = (k, ids)
                        part[key] = part.get(key, 0) + c

    def mul_tensors(self, a, b):
        acc = {}
        self.mul_into(acc, a, b)
        return _from_parts(self, a.legs, acc)


class TensorElement:
    """Sparse element of a tensor power of the algebra, one monomial per leg.

    An element is stored as integer numerators over one denominator: `nums`
    maps ``(power, (id_1, ..., id_legs))`` to a non-zero int, the ids being
    the algebra's interned monomials, and `den` is an int > 0.  The form is
    canonical (``gcd(den, *nums) == 1``, and ``den == 1`` for zero), so two
    elements of one algebra are equal exactly when `nums` and `den` are.
    `terms` is a view built on each access, keyed ``(power, (mono_1, ...,
    mono_legs))`` with Fraction values; changing it leaves the element as
    it is.  An element of the algebra itself is the 1-leg case.
    """

    __slots__ = ("algebra", "legs", "nums", "den")

    def __init__(self, algebra, legs, terms):
        if legs < 1:
            raise ShapeError("tensor elements need at least one leg")
        self.algebra = algebra
        self.legs = legs
        self.nums, self.den = algebra._nums(legs, terms)

    @property
    def terms(self):
        """The terms as ``{(power, (Monomial, ...)): Fraction}``, built anew."""
        monos, den = self.algebra._monos, self.den
        return {(k, tuple(monos[i] for i in ids)): Q(v, den) for (k, ids), v in self.nums.items()}

    def _check_compat(self, other):
        if type(other) is not type(self):
            raise ShapeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        a, b = self.algebra, other.algebra
        if (a.m, a.n, a.order) != (b.m, b.n, b.order):
            raise ShapeError("operands live in algebras of different shape")
        if self.legs != other.legs:
            raise ShapeError("operands have different numbers of tensor legs")

    def _on(self, algebra):
        """This element with its monomial ids interned in `algebra`."""
        if self.algebra is algebra:
            return self
        return TensorElement(algebra, self.legs, self.terms)

    def _combine(self, other, sign):
        self._check_compat(other)
        other = other._on(self.algebra)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = {key: v * fa for key, v in self.nums.items()}
        for key, v in other.nums.items():
            out[key] = out.get(key, 0) + v * fb
        return _canonical(self.algebra, self.legs, out, den)

    def add_into(self, acc, scale=1):
        """Add ``scale * self`` to an accumulator in the layout of `Algebra.mul_into`."""
        s = scale.numerator
        part = acc.setdefault(self.den * scale.denominator, {})
        for key, v in self.nums.items():
            part[key] = part.get(key, 0) + s * v

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return _canonical(self.algebra, self.legs, {k: -v for k, v in self.nums.items()}, self.den)

    def scale(self, c):
        c = Q(c)
        nums = {k: c.numerator * v for k, v in self.nums.items()}
        return _canonical(self.algebra, self.legs, nums, c.denominator * self.den)

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
        return not self.nums

    def is_pure_h(self):
        monos = self.algebra._monos
        return all(monos[i].is_pure_h for _, ids in self.nums for i in ids)

    def valuation(self):
        """Smallest deformation power present, or None for zero."""
        return min((k for k, _ in self.nums), default=None)

    def unit_series(self):
        """Coefficients of the unit monomial, keyed by deformation power."""
        unit = self.algebra.unit_id
        return {
            k: Q(v, self.den) for (k, ids), v in self.nums.items() if all(i == unit for i in ids)
        }

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        a, b = self.algebra, other.algebra
        if self.legs != other.legs or (a.m, a.n, a.order) != (b.m, b.n, b.order):
            return False
        if a is b:
            return self.den == other.den and self.nums == other.nums
        return self.terms == other.terms

    __hash__ = None

    def permute(self, perm):
        """Reorder legs; perm[i] is the source leg for target slot i."""
        if sorted(perm) != list(range(self.legs)):
            raise ShapeError("not a permutation of the legs")
        # A permutation of the legs maps distinct keys to distinct keys.
        nums = {(k, tuple(ids[p] for p in perm)): v for (k, ids), v in self.nums.items()}
        return _canonical(self.algebra, self.legs, nums, self.den)

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
        unit = self.algebra.unit_id
        out = {}
        for (k, ids), v in self.nums.items():
            wide = [unit] * legs
            for mid, p in zip(ids, positions):
                wide[p] = mid
            out[(k, tuple(wide))] = v
        return _canonical(self.algebra, legs, out, self.den)

    def strip_unit_leg(self, leg):
        """Keep terms whose given leg is the unit monomial, dropping that leg.

        Realizes the counit applied to one leg.
        """
        if not 0 <= leg < self.legs:
            raise ShapeError("leg out of range")
        unit = self.algebra.unit_id
        # With the dropped leg fixed to the unit, distinct keys stay distinct.
        nums = {
            (k, ids[:leg] + ids[leg + 1 :]): v
            for (k, ids), v in self.nums.items()
            if ids[leg] == unit
        }
        return _canonical(self.algebra, self.legs - 1, nums, self.den)

    def __repr__(self):
        return f"TensorElement({format_terms(self.sorted_terms())})"


def _canonical(algebra, legs, nums, den):
    """The element ``nums / den`` in canonical form (see `_reduced`)."""
    if legs < 1:
        raise ShapeError("tensor elements need at least one leg")
    el = object.__new__(TensorElement)
    el.algebra, el.legs = algebra, legs
    el.nums, el.den = _reduced(nums, den)
    return el


def _reduced(nums, den):
    """``nums / den`` in lowest terms, as a new ``(nums, den)`` pair.

    Zero numerators are dropped and numerators and denominator are divided
    by their gcd, which leaves ``den == 1`` for zero.
    """
    nums = {key: v for key, v in nums.items() if v}
    g = gcd(den, *nums.values())
    if g != 1:
        nums = {key: v // g for key, v in nums.items()}
        den //= g
    return nums, den


def _merged(parts):
    """``sum_d parts[d] / d`` as numerators over one denominator.

    `parts` maps each denominator ``d`` to a numerator map; the maps are
    merged once, over the lcm of their denominators.  The result is not
    reduced.
    """
    if len(parts) == 1:
        ((d, nums),) = parts.items()
        return nums, d
    den = lcm(*parts)
    out = {}
    for d, nums in parts.items():
        f = den // d
        for key, v in nums.items():
            out[key] = out.get(key, 0) + v * f
    return out, den


def _from_parts(algebra, legs, parts):
    """The element ``sum_d parts[d] / d`` in canonical form."""
    return _canonical(algebra, legs, *_merged(parts))


Element = TensorElement


def normal_order(word, algebra):
    """Normal-order a word (module-level convenience wrapper)."""
    return algebra.from_word(word)


def exp_truncated(a):
    """Truncated exponential sum_{k<=N} a^k / k!.

    Requires every term of `a` to carry deformation power >= 1, which makes
    the sum exact at the truncation order.
    """
    if any(k < 1 for k, _ in a.nums):
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
        alg, cols = self.algebra, tuple(zip(*other.entries))
        rows = []
        for row in self.entries:
            rows.append([])
            for col in cols:
                acc = {}
                for a, b in zip(row, col):
                    alg.mul_into(acc, a, b)
                rows[-1].append(_from_parts(alg, 1, acc))
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


def format_terms(sorted_terms, h_names=None, x_names=None):
    if not sorted_terms:
        return "0"
    return " + ".join(format_term(key, c, h_names, x_names) for key, c in sorted_terms)
