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
``X H`` pair costs a pure-H correction read from the bracket table: ``X_mu g
= g X_mu + D_mu(g)`` for pure-H ``g``, ``D_mu`` a derivation of the H-series.
The last X of a block moves past the H first.  Multiplication normal-orders
the concatenation.  It is associative when the ``D_mu`` commute, as the Jacobi
identity of a valid spec makes them; otherwise ``X_1 (X_0 H)`` and
``(X_1 X_0) H`` can differ.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import islice, permutations
from math import factorial, gcd, lcm
from operator import itemgetter, or_
from typing import NamedTuple

from .errors import MalformedWordError, ShapeError, TruncationError

Q = Fraction

# Bits per exponent field of a packed term key (see `Algebra`).
_W = 8
_FIELD = (1 << _W) - 1


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

    def peel(self):
        """``(i, rest)`` with ``self == g_i * rest``, `g_i` the first generator present
        in the chain ``H_0..H_{m-1}, X_0..X_{n-1}``; None for the unit."""
        exps = self.h + self.x
        i = next((i for i, e in enumerate(exps) if e), None)
        if i is None:
            return None
        rest, m = exps[:i] + (exps[i] - 1,) + exps[i + 1 :], len(self.h)
        return i, Monomial(rest[:m], rest[m:])


class Algebra:
    """Carrier for truncated deformed arithmetic.

    `table` maps ``(j, mu)`` to the terms of ``[H_j, X_mu]`` as a dict from
    ``(power, Monomial)`` to Fraction; every monomial must be pure-H.
    Elements hold a reference to their algebra, and mixed-algebra products
    are rejected, since the bracket table is part of the ring structure.

    A term of a tensor is keyed by one int of packed exponents: the power,
    then the field of each leg from leg 0, a field holding the leg's H and
    then X exponents in `_W` bits each, most significant first.  Integer
    order is thus that of ``(power, [Monomial, ...])``, and the layout
    depends only on ``(m, n)`` and the number of legs (`_layout`).  Packing
    is linear: a product's key is the sum of its factors' plus a correction.
    No other module reads keys: they map legs through `substitute_leg`,
    `split_by_x` and `relabel`, and read terms through `decode` and
    `first_term`.

    Normal ordering adds packed 1-leg keys, ``power << _leg_bits | field``.
    `_int_table` holds each bracket as such keys mapped to integer numerators
    over one denominator; `bracket` returns the Fraction form.  Six caches
    live as long as the algebra, no entry mutated once stored: `_monos` maps
    a leg field to its Monomial; `_single_cache` holds the derivatives
    ``D_mu(H^a) = [X_mu, H^a]`` by X index and H part, and `_block_cache` the
    chains ``D^c(H^a)`` by an X part ``c`` of two or more X and an H part, as
    packed keys in increasing order mapped to numerators in lowest terms, no
    field reaching ``2**(_W - 1)``; `_rows` holds by leg field the blocks
    ``X^b H^a`` they give as leg products, their leading row left out, which
    `mul_into` reads for a clash on one leg (`_leg_rows`); `_tables` maps a
    leg count and the key of a clash on more legs to a table of their rows'
    products, the all-leading row left out (`_leg_table`); `_entries` interns
    the tables.  Each entry but a `_monos` one holds its reach, the power it
    is whole to: the order for a derivative, for the rest first the power
    their first use needs, then once more the order for a block (`_mono_mul`)
    and the need for a chain or a table.
    `prepare` groups a right operand of `mul_into`, and `exchange` the image of a 3-leg T under P23 (`_groups`).
    """

    def __init__(self, m, n, order, table):
        if m < 0 or n < 0 or order < 0:
            raise ShapeError("dimensions and order must be non-negative")
        self.m, self.n, self.order = m, n, order
        self._leg_bits = (m + n) * _W
        self._leg_mask = (1 << self._leg_bits) - 1
        self._x_mask = (1 << (n * _W)) - 1
        self._h_mask = self._leg_mask ^ self._x_mask
        self._table, self._int_table = {}, {}
        no_x = (0,) * n
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
        for j in range(m):
            for mu in range(n):
                entry = self._table.setdefault((j, mu), {})
                den = lcm(*(c.denominator for c in entry.values()))
                self._int_table[(j, mu)] = {
                    k << self._leg_bits | self._field(mono.h, no_x): c.numerator * (den // c.denominator)
                    for (k, mono), c in entry.items()
                }, den
        self._layouts, self._monos, self._rows, self._entries, self._tables = {}, {}, {}, {}, {}
        self._single_cache, self._block_cache, self._relabels = {}, {}, {}

    def bracket(self, j, mu):
        """Terms of [H_j, X_mu]."""
        return self._table[(j, mu)]

    # -- packed keys -------------------------------------------------------------

    def _layout(self, legs):
        """``(power shift, leg shifts, X bits, H bits, guard, H tests)`` for `legs` legs.

        X and H bits map a set of legs, leg `i` as the bit ``1 << i``, to their fields' X or H
        masks together; `guard` has the top bit of every field set; H tests pair each leg's H
        mask with its bit."""
        layout = self._layouts.get(legs)
        if layout is None:
            ps = self._leg_bits * legs
            shifts = tuple(self._leg_bits * i for i in range(legs - 1, -1, -1))
            # Sums of 2**(_W * i) over the fields, times 2**(_W - 1).
            guard = ((1 << ps) - 1) // _FIELD << (_W - 1)
            x_bits, h_bits = [0], [0]
            for s in shifts:
                x_bits += [m | self._x_mask << s for m in x_bits]
                h_bits += [m | self._h_mask << s for m in h_bits]
            tests = tuple((self._h_mask << s, 1 << i) for i, s in enumerate(shifts))
            layout = self._layouts[legs] = (ps, shifts, tuple(x_bits), tuple(h_bits), guard, tests)
        return layout

    def _field(self, h, x):
        """The leg field of ``H^h X^x``; raises unless every exponent fits a field."""
        if len(h) != self.m or len(x) != self.n:
            raise ShapeError("monomial arity does not match the algebra")
        field = 0
        for e in h + x:
            if not 0 <= e <= _FIELD:
                if e < 0:
                    raise ShapeError("negative exponent")
                raise ShapeError(f"exponent {e} does not fit a {_W}-bit field")
            field = (field << _W) | e
        return field

    def _mono(self, field):
        """The Monomial of a leg field, cached per field in `_monos`."""
        mono = self._monos.get(field)
        if mono is None:
            es = tuple((field >> (_W * i)) & _FIELD for i in range(self.m + self.n - 1, -1, -1))
            mono = self._monos[field] = Monomial(es[: self.m], es[self.m :])
        return mono

    def decode(self, key, legs):
        """The ``(power, (Monomial, ...))`` form of a term key of a `legs`-leg tensor."""
        ps, shifts = self._layout(legs)[:2]
        return key >> ps, tuple(self._mono((key >> s) & self._leg_mask) for s in shifts)

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
            acc = acc * (self.h(gid, power) if gid < self.m else self.x(gid - self.m, power))
        return acc

    # -- tensor constructors ---------------------------------------------------

    def tensor_unit(self, legs):
        return _canonical(self, legs, {0: 1}, 1)

    def tensor_zero(self, legs):
        return _canonical(self, legs, {}, 1)

    def tensor_element(self, legs, terms):
        """Build a tensor from a mapping (power, (monomial, ...)) -> coefficient.

        Monomials are validated and packed here; terms above the order are dropped, zeros pruned.
        """
        return TensorElement(self, legs, terms)

    def _nums(self, legs, terms):
        """Integer numerators and their common denominator for a term map."""
        ps, shifts = self._layout(legs)[:2]
        acc = {}
        for (k, monos), coeff in terms.items():
            if len(monos) != legs:
                raise ShapeError("tensor term with wrong number of legs")
            if k < 0:
                raise ShapeError("negative deformation power")
            key = k << ps
            for mo, s in zip(monos, shifts):
                key |= self._field(tuple(mo[0]), tuple(mo[1])) << s
            c = Q(coeff)
            if c and k <= self.order:
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
        legs = sum(f.legs for f in factors)
        limit = (self.order + 1) << self._layout(legs)[0]
        nums, den, start = {0: 1}, 1, 0
        for f in factors:
            start += f.legs
            f = f._on(self).embed(legs, range(start - f.legs, start))
            # Disjoint legs: no pair reorders, and power splits can meet on one key.
            out = {}
            for key1, v1 in nums.items():
                for key2, v2 in f.nums.items():
                    key = key1 + key2
                    if key < limit:
                        out[key] = out.get(key, 0) + v1 * v2
            nums, den = out, den * f.den
        return _canonical(self, legs, nums, den)

    # -- normal-ordering kernels ------------------------------------------------

    def _derivative(self, mu, h):
        """``D_mu(H^h) = [X_mu, H^h] = sum_j h_j H^(h - e_j) (-[H_j, X_mu])``, `h` an H part, as `_leibniz`
        gives, to the order; raises if a field of a bracket used or of the result reaches ``2**(_W - 1)``."""
        cached = self._single_cache.get((mu, h))
        if cached is None:
            parts, rest, seen = {}, h, 0
            while rest:
                # H_j, the first H left in `rest`, has its top field.
                sh = (rest.bit_length() - 1) // _W * _W
                e = rest >> sh & _FIELD
                rest -= e << sh
                bracket, den = self._int_table[(self.m + self.n - 1 - sh // _W, mu)]
                acc, base = parts.setdefault(den, {}), h - (1 << sh)
                for key, v in bracket.items():
                    seen |= key
                    key += base
                    acc[key] = acc.get(key, 0) - e * v
            cached = (*_ordered(parts), self.order)
            if reduce(or_, cached[0], seen) & self._layout(1)[4]:
                raise ShapeError(f"a product has an exponent of {1 << (_W - 1)} or more")
            self._single_cache[(mu, h)] = cached
        return cached

    def _leibniz(self, mu, series, room):
        """``D_mu`` of the pure-H series ``(terms, den, reach)`` termwise by `_derivative`, to power
        `room`, which `reach` must not fall short of: ``(terms, den, room)``, laid out as `_ordered`'s."""
        (terms, den, _), parts, single, limit = series, {}, self._single_cache, (room + 1) << self._leg_bits
        for key1, v1 in terms.items():
            h1 = key1 & self._leg_mask
            sub, sub_den, _ = single.get((mu, h1)) or self._derivative(mu, h1)
            acc, k1 = parts.setdefault(sub_den * den, {}), key1 - h1
            for key2, v2 in sub.items():
                key = key2 + k1
                if key >= limit:
                    break
                acc[key] = acc.get(key, 0) + v1 * v2
        return (*_ordered(parts), room)

    def _mono_mul(self, a, b):
        """The block ``X^a H^b`` to the order, as `_block` gives it."""
        return self._block(a, b, self.order)

    def _block(self, a, b, room):
        """The block ``X^a H^b`` to power `room` as leg products, for the X part `a` and H part `b`.

        ``X^a H^b = sum_{c <= a} binom(a, c) D^c(H^b) X^(a - c)``, no two ``c``
        sharing a term.  The last X of a word moves past the H first, so
        ``D^c = D_mu D^(c - e_mu)``, ``X_mu`` the first X of ``c``; a walk from
        ``c = 0`` meets each ``c <= a`` once, after that predecessor, and
        builds anew to `room` any chain that falls short of it.
        ``H^h1 X^a`` times ``H^b X^x2`` is ``H^h1 (X^a H^b) X^x2``, so each of
        its terms has the 1-leg key of a block term plus ``h1`` and ``x2``:
        the two fields' sum plus `delta`, the block term's key minus ``a + b``,
        which carries its `power`.  Returns ``(delta, power, num, den)`` rows
        in increasing key order, each coefficient ``num / den`` in lowest
        terms; the leading term ``H^b X^a``, row ``(0, 0, 1, 1)``, is left out.
        """
        cache, out, limit = self._block_cache, [], (room + 1) << self._leg_bits
        # The X of `a` by index, with the shift of its field.
        xs = [(mu, sh) for mu, sh in enumerate(range(_W * (self.n - 1), -1, -_W)) if a >> sh & _FIELD]
        # (c, binom(a, c), D^c(H^b), how many of `xs` may extend c).
        stack = [(0, 1, None, len(xs))]
        while stack:
            c, w, series, top = stack.pop()
            for i in range(top):
                mu, sh = xs[i]
                left = (a - c) >> sh & _FIELD
                if not left:
                    continue
                c1 = c + (1 << sh)
                entry = cache.get((c1, b)) if c else self._derivative(mu, b)
                if entry is None or entry[2] < room:
                    entry = cache[(c1, b)] = self._leibniz(mu, series, room)
                terms, den, _ = entry
                if terms:
                    w1 = w * left // (c1 >> sh & _FIELD)
                    stack.append((c1, w1, entry, i + 1))
                    x = a - c1
                    for key, v in terms.items():
                        if key >= limit:
                            break
                        v *= w1
                        g = gcd(v, den)
                        out.append((key + x, v // g, den // g))
        out.sort()
        bits = self._leg_bits
        return tuple((key - a - b, key >> bits, n, d) for key, n, d in out)

    # -- products ----------------------------------------------------------------

    def prepare(self, b):
        """An element equal to `b`, grouped once for every `mul_into` that takes it on the right:
        by power, then by the legs holding an H, then (when first needed) by a clash's H parts (`_groups`)."""
        legs, (ps, _, _, _, _, tests), by_group = b.legs, self._layout(b.legs), {}
        for key2, c2 in b.nums.items():
            # A group's index: its power, then its legs that hold an H, as bits.
            g = key2 >> ps << legs
            for hm, bit in tests:
                if key2 & hm:
                    g |= bit
            by_group.setdefault(g, []).append((key2, c2))
        return _wrap(self, legs, b.nums, b.den, _groups(legs, b.nums, by_group))

    def exchange(self, t):
        """``(P23(t), t - P23(t))`` for a 3-leg `t`, `P23` the exchange of its last two legs, in one
        pass over the terms of `t`: ``P23(t)`` comes grouped as `prepare` groups it, and both keep
        the denominator of `t`, so neither is reduced if `t` is not."""
        ps, (s0, s1, _), _, _, _, ((h0, _), (h1, _), (h2, _)) = self._layout(3)
        mask, nums, image, diff, by_group = self._leg_mask, t.nums, {}, {}, {}
        for key, c in nums.items():
            p = key >> s0 << s0 | (key >> s1 & mask) | (key & mask) << s1
            image[p] = c
            # A key that P23 fixes cancels (q is c), and one whose image is in `t` is met twice.
            q = nums.get(p, 0)
            if q != c:
                diff[key] = c - q
            if not q:
                diff[p] = -c
            # The group index of `prepare`, its three H tests unrolled.
            g = p >> ps << 3 | (p & h0 and 1) | (p & h1 and 2) | (p & h2 and 4)
            by_group.setdefault(g, []).append((p, c))
        return _wrap(self, 3, image, t.den, _groups(3, image, by_group)), _wrap(self, 3, diff, t.den)

    def _leg_rows(self, field, room):
        """``(reach, rows)`` of the block of a leg field's X part times its H part (`_block`),
        whole to at least power `room`: built to `room` on first use, then once to the order."""
        entry, order = self._rows.get(field), self.order
        if entry is None or entry[0] < room:
            a, b = field & self._x_mask, field & self._h_mask
            short = entry is None and room < order
            entry = (room, self._block(a, b, room)) if short else (order, self._mono_mul(a, b))
            self._rows[field] = entry
        return entry

    def _leg_table(self, legs, clash, key, room):
        """The table of `key`, the left X parts plus the right H parts on the legs
        `clash`, two or more, of a `legs`-leg product (a sum with no carry), built to
        power `room`: ``(reach, rows)``, the rows to power `reach` but the all-leading
        one, interned in `_entries`."""
        ps, shifts = self._layout(legs)[:2]
        rows, full, order = [(0, 0, 1, 1)], 0, self.order
        while clash:
            leg = clash.bit_length() - 1
            clash ^= 1 << leg
            sh = shifts[leg]
            lift = (1 << ps) - (1 << (sh + self._leg_bits))
            # Short rows keep the table short; a leg's rows, its leading one put back, are in power order.
            reach, prods = self._leg_rows((key >> sh) & self._leg_mask, room)
            prods = ((0, 0, 1, 1), *prods)
            full += prods[-1][1] if reach == order else room + 1
            rows = [
                (d + (dm << sh) + km * lift, k + km, n * cn, dd * cd)
                for d, k, n, dd in rows for dm, km, cn, cd in prods if k + km <= room
            ]
        # Stable, so the all-leading row stays first, and is dropped.
        rows.sort(key=itemgetter(1))
        entry = (order if full <= room else room), tuple(rows[1:])
        return self._entries.setdefault(entry, entry)

    def mul_into(self, acc, a, b, scale=1, part=None, order=None):
        """Add ``scale * a * b`` to `acc`, the accumulator the caller owns.

        `acc` maps each absolute denominator to a numerator map keyed like
        `TensorElement.nums`, the layout of `_merged`; `_from_parts` reads it
        back as an element.  `scale` is an int or a Fraction.  This is the
        one product loop: `mul_tensors` runs it into an empty accumulator.

        A pair's leading term is ``c1 * c2`` at ``key1 + key2``, its product
        in the commutative associated graded ring.  The leading pass adds them
        for a left term and all the terms of each power bucket of `b`
        (`prepare`) with room left in the order.  The correction pass adds the
        rest for the left terms with an X, classed by X part in power order:
        once per class, from each group of a bucket that holds an H, on the
        legs where the two clash (reorder).  It splits such a group by their H
        parts, and with the class's X parts on them each subgroup picks its
        rows, without their leading row, to its lowest power's room: on one leg
        the block rows (`_leg_rows`), moved to the leg, on more a table of
        those legs' rows' products (`_leg_table`).  A row's delta is added to
        the ``key1`` of each member the row has room for, and then to each key
        of the split; its denominator picks a part of `acc`.  Operand exponents
        from ``2**(_W - 1)`` are refused.
        `part` "lead" adds only the leading pass, as if no pair reordered, so
        ``lead(a, b) == lead(b, a)``, and "corr" only the correction pass.
        So `verify` sums ``lead(T - P23(T), R23) + corr(T, R23) - corr(R23, P23(T))`` for qybe, `R23`
        prepared and ``P23(T)`` grouped by `exchange`, and ``lead(D - Dop, R) + corr(R, D) -
        corr(Dop, R)``, ``D`` the coproduct of a generator and `R` prepared, for intertwining.
        An `order` below the algebra's truncates the product there instead.
        """
        order = self.order if order is None else order
        ps, shifts, x_bits, h_bits, guard, _ = self._layout(a.legs)
        tables, block_rows = self._tables.get(a.legs, {}), self._rows
        b_seen, buckets = (b if b._groups is not None else self.prepare(b))._groups
        a_seen = a._groups[0] if a._groups is not None else reduce(or_, a.nums, 0)
        if (a_seen | b_seen) & guard:
            raise ShapeError(f"a product operand has an exponent of {1 << (_W - 1)} or more")
        lead, legs, x_all = part != "corr", [1 << leg for leg in range(a.legs)], x_bits[-1]
        base_den, s = a.den * b.den * scale.denominator, scale.numerator
        # A term of a above `top` has no leading term, and above `h_top` no correction.
        top = order - buckets[0][0] if buckets and lead else -1
        h_top = -1 if part == "lead" else order - next((k2 for k2, _, groups in buckets if groups), order + 1)
        # A term goes to the part of `acc` over `base_den` times the
        # denominator `cd` it picked up from cached leg coefficients, dens[cd].
        out = acc.setdefault(base_den, {})
        dens, classes = {1: out}, {}

        for key1, c1 in a.nums.items():
            k1 = key1 >> ps
            if k1 > top and k1 > h_top:
                continue
            c1 *= s
            if k1 <= top:
                for k2, terms, _ in buckets:
                    if k1 + k2 > order:
                        break
                    for key2, c2 in terms:
                        key = key1 + key2
                        out[key] = out.get(key, 0) + c1 * c2
            if k1 <= h_top and (x1 := key1 & x_all):
                classes.setdefault(x1, []).append((k1, key1, c1))
        for x1, members in classes.items():
            # In power order, the first member with the most room; the legs that hold an X, as bits.
            members.sort()
            low, x_legs = members[0][0], 0
            for bit in legs:
                if x1 & x_bits[bit]:
                    x_legs |= bit
            for k2, terms, groups in buckets:
                room = (cap := order - k2) - low
                if room < 0:
                    break
                for h_legs, start, stop, splits in groups:
                    clash = x_legs & h_legs
                    if not clash:
                        continue
                    split = splits.get(clash)
                    if split is None:
                        # One clash leg reads its block's rows by field, a delta moved there by `sh`,
                        # its power above every leg by `lift`; more read a table, its rows in place.
                        one = not clash & (clash - 1)
                        sh = shifts[clash.bit_length() - 1] if one else 0
                        lift = (1 << ps) - (1 << (sh + self._leg_bits)) if one else 0
                        by_h, hm = {}, h_bits[clash]
                        for term in terms[start:stop]:
                            by_h.setdefault((term[0] & hm) >> sh, []).append(term)
                        split = splits[clash] = one, sh, lift, tuple(by_h.items())
                    one, sh, lift, split = split
                    xk, cache = (x1 & x_bits[clash]) >> sh, block_rows if one else tables
                    for hk, sub in split:
                        reach, rows = cache.get(xk + hk) or (-1, None)
                        if reach < room:
                            if one:
                                reach, rows = self._leg_rows(xk + hk, room)
                            else:
                                tables = cache = self._tables.setdefault(a.legs, tables)
                                reach, rows = tables[xk + hk] = self._leg_table(a.legs, clash, xk + hk, room)
                        for d, km, cn, cd in rows:
                            if km > room:
                                break
                            p = dens.get(cd)
                            if p is None:
                                p = dens[cd] = acc.setdefault(cd * base_den, {})
                            d = (d << sh) + km * lift
                            # A member above the power `order - k2 - km` has no room for the row.
                            cap_m = cap - km
                            for k1, key1, c1 in members:
                                if k1 > cap_m:
                                    break
                                c1 *= cn
                                key1 += d
                                for key2, c2 in sub:
                                    key = key1 + key2
                                    p[key] = p.get(key, 0) + c1 * c2

    def mul_tensors(self, a, b):
        acc = {}
        self.mul_into(acc, a, b)
        return _from_parts(self, a.legs, acc)

    def split_by_x(self, acc, legs, leg, perm=None):
        """Empty `acc`, a `mul_into` accumulator of `legs`-leg terms, into one per X part of `leg`.

        Returns ``{x: (size, acc_x)}``, `x` an int ordered as the X part.
        With a relabelling `perm`, the terms of an X part other than the
        smallest of its orbit under `perm` are dropped, and `size` is the
        orbit's size; where that is 1, so are the terms whose whole `leg`
        monomial is not the smallest of its orbit (see `unfold`).  Without,
        `size` is 1.  One denominator at a time is taken apart, so no term is
        held twice.
        """
        shift, slices, seen = self._layout(legs)[1][leg], {}, {}
        while acc:
            den, nums = acc.popitem()
            for key, v in nums.items():
                f = (key >> shift) & self._leg_mask
                kept = seen.get(f)
                if kept is None:
                    x = f & self._x_mask
                    size = len(orbit := self._orbit(x, perm))
                    if x != min(orbit) or size == 1 and f != min(self._orbit(f, perm)):
                        size = 0
                    kept = seen[f] = x, size
                x, size = kept
                if size:
                    slices.setdefault(x, (size, {}))[1].setdefault(den, {})[key] = v
        return slices

    # -- leg maps --------------------------------------------------------------

    @cached_property
    def symmetries(self):
        """The permutations but the identity under which `relabel` maps the bracket
        table onto itself, so each an automorphism; searched when ``m == n <= 6``."""
        if self.m != self.n or self.m > 6:
            return ()
        table = {jm: _wrap(self, 1, *entry) for jm, entry in self._int_table.items()}
        return tuple(
            p
            for p in islice(permutations(range(self.m)), 1, None)
            if all(self.relabel(entry, p) == table[p[j], p[mu]] for (j, mu), entry in table.items())
        )

    def relabel(self, tensor, perm):
        """The image of `tensor` under ``H_i -> H_perm[i]``, ``X_i -> X_perm[i]`` on every leg."""
        tensor = tensor._on(self)
        nums = {self._relabel_key(key, perm, tensor.legs): v for key, v in tensor.nums.items()}
        return _wrap(self, tensor.legs, nums, tensor.den)

    def unfold(self, tensor, leg, perm):
        """`tensor` plus the images under ``perm**i`` of each term, for ``0 < i`` below the
        length of the orbit of its `leg` monomial: the terms a `split_by_x` slice dropped."""
        s, nums = self._layout(tensor.legs)[1][leg], dict(tensor.nums)
        for key, v in tensor.nums.items():
            for _ in self._orbit((key >> s) & self._leg_mask, perm)[1:]:
                key = self._relabel_key(key, perm, tensor.legs)
                nums[key] = v
        # New keys with the tensor's values, so the form stays canonical.
        return _wrap(self, tensor.legs, nums, tensor.den)

    def _relabel_key(self, key, perm, legs):
        ps, shifts = self._layout(legs)[:2]
        new = key >> ps << ps
        for s in shifts:
            new |= self._relabel_field(key >> s & self._leg_mask, perm) << s
        return new

    def _orbit(self, field, perm):
        """The orbit of a leg field under `perm` (None: the field alone), starting at the field."""
        orbit, y = [field], field
        while perm and (y := self._relabel_field(y, perm)) != field:
            orbit.append(y)
        return orbit

    def _relabel_field(self, field, perm):
        """The leg field of the relabelled monomial, cached per `perm` and field."""
        cache = self._relabels.setdefault(perm, {})
        if field not in cache:
            inv = [perm.index(i) for i in range(self.m)]
            cache[field] = self._field(*(tuple(e[i] for i in inv) for e in self._mono(field)))
        return cache[field]

    def substitute_leg(self, tensor, leg, image, width):
        """Replace the monomial on `leg` with ``image(monomial)``, a `width`-leg tensor.

        The image's legs take the place of `leg`, powers add, and terms above
        the order are dropped.  The coproduct (width 2) and a change of H
        basis (width 1) are this loop; ``image(monomial, room)`` is called once
        per monomial, `room` the order less the lowest power it occurs at.
        """
        if not 0 <= leg < tensor.legs:
            raise ShapeError("leg out of range")
        tensor = tensor._on(self)
        order, bits = self.order, self._leg_bits
        ps, shifts = self._layout(tensor.legs)[:2]
        wide_ps, img_ps = self._layout(tensor.legs + width - 1)[0], self._layout(width)[0]
        s = shifts[leg]
        low, img_mask = (1 << s) - 1, (1 << img_ps) - 1
        # Numerator sums keyed by their denominator, the tensor's times that
        # of the images they came from; merged over the lcm at the end.  An
        # image's terms are kept as (power, shifted part, numerator): the
        # part holds the power and puts the image's legs into place.
        parts, images = {}, {}
        # In falling key order a monomial's last room, at its lowest power, is its widest.
        rooms = {(key >> s) & self._leg_mask: order - (key >> ps) for key in sorted(tensor.nums, reverse=True)}
        for key, c in tensor.nums.items():
            f = (key >> s) & self._leg_mask
            cached = images.get(f)
            if cached is None:
                img = image(self._mono(f), rooms[f])
                cached = images[f] = img.den * tensor.den, [
                    (dk >> img_ps, (dk >> img_ps << wide_ps) + ((dk & img_mask) << s), dc)
                    for dk, dc in img.nums.items()
                ]
            den, terms = cached
            out = parts.setdefault(den, {})
            k = key >> ps
            # The power and the legs before `leg` move up by `width - 1` legs;
            # the legs after it stay.
            base = (key >> (s + bits)) << (s + width * bits) | (key & low)
            for dk, part, dc in terms:
                if k + dk <= order:
                    nk = base + part
                    out[nk] = out.get(nk, 0) + c * dc
        return _from_parts(self, tensor.legs + width - 1, parts)


class TensorElement:
    """Sparse element of a tensor power of the algebra, one monomial per leg.

    An element is stored as integer numerators over one denominator: `nums`
    maps each term's packed key (see `Algebra`) to a non-zero int, and `den`
    is an int > 0.  The form is canonical (``gcd(den, *nums) == 1``, and
    ``den == 1`` for zero), so two elements of algebras of one shape are
    equal exactly when `nums` and `den` are.  `terms` is a view built on
    each access, keyed ``(power, (mono_1, ..., mono_legs))`` with Fraction
    values; changing it leaves the element as it is.  An element of the
    algebra itself is the 1-leg case.  A qybe part's operands may be unreduced
    (`Algebra.exchange`): only `mul_into` reads them, and their sum is reduced once.
    """

    __slots__ = ("algebra", "legs", "nums", "den", "_groups")

    def __init__(self, algebra, legs, terms):
        if legs < 1:
            raise ShapeError("tensor elements need at least one leg")
        self.algebra, self.legs, self._groups = algebra, legs, None
        self.nums, self.den = algebra._nums(legs, terms)

    @property
    def terms(self):
        """The terms as ``{(power, (Monomial, ...)): Fraction}``, built anew."""
        decode, legs, den = self.algebra.decode, self.legs, self.den
        return {decode(key, legs): Q(v, den) for key, v in self.nums.items()}

    def _check_compat(self, other):
        if type(other) is not type(self):
            raise ShapeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        a, b = self.algebra, other.algebra
        if (a.m, a.n, a.order) != (b.m, b.n, b.order):
            raise ShapeError("operands live in algebras of different shape")
        if self.legs != other.legs:
            raise ShapeError("operands have different numbers of tensor legs")

    def _on(self, algebra):
        """This element as one of `algebra`, which must have the same shape."""
        if self.algebra is algebra:
            return self
        a = self.algebra
        if (a.m, a.n, a.order) != (algebra.m, algebra.n, algebra.order):
            raise ShapeError("operands live in algebras of different shape")
        return _wrap(algebra, self.legs, self.nums, self.den)

    def _combine(self, other, sign):
        self._check_compat(other)
        acc = {}
        self.add_into(acc)
        other.add_into(acc, sign)
        return _from_parts(self.algebra, self.legs, acc)

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
        return _wrap(self.algebra, self.legs, {k: -v for k, v in self.nums.items()}, self.den)

    def scale(self, c):
        c = Q(c)
        nums = {k: c.numerator * v for k, v in self.nums.items()}
        return _canonical(self.algebra, self.legs, nums, c.denominator * self.den)

    def odd_powers_negated(self):
        """This element with each term of odd deformation power negated."""
        nums, ps = self.nums, self.algebra._layout(self.legs)[0]
        return _wrap(self.algebra, self.legs, {k: -v if k >> ps & 1 else v for k, v in nums.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compat(other)
        if self.algebra is not other.algebra:
            raise ShapeError("product of elements from distinct algebras")
        return self.algebra.mul_tensors(self, other)

    def __rmul__(self, other):
        return self.scale(other) if isinstance(other, (int, Fraction)) else NotImplemented

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
        x_all = self.algebra._layout(self.legs)[2][-1]
        return not any(key & x_all for key in self.nums)

    def valuation(self):
        """Smallest deformation power present, or None for zero: that of the smallest key."""
        return min(self.nums) >> self.algebra._layout(self.legs)[0] if self.nums else None

    def first_term(self):
        """The smallest term, ``((power, (Monomial, ...)), Fraction)``, or None for zero."""
        if not self.nums:
            return None
        key = min(self.nums)
        return self.algebra.decode(key, self.legs), Q(self.nums[key], self.den)

    def unit_series(self):
        """Coefficients of the unit monomial, keyed by deformation power."""
        ps = self.algebra._layout(self.legs)[0]
        low = (1 << ps) - 1
        return {key >> ps: Q(v, self.den) for key, v in self.nums.items() if not key & low}

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        a, b = self.algebra, other.algebra
        if self.legs != other.legs or (a.m, a.n, a.order) != (b.m, b.n, b.order):
            return False
        return self.den == other.den and self.nums == other.nums

    __hash__ = None

    def swap(self):
        """Exchange the two legs of a 2-tensor."""
        if self.legs != 2:
            raise ShapeError("swap is defined for two legs")
        return self.embed(2, (1, 0))

    def embed(self, legs, positions):
        """Place this tensor's legs at `positions` inside a wider unit tensor."""
        if len(positions) != self.legs or sorted(set(positions)) != sorted(positions):
            raise ShapeError("positions must be distinct, one per leg")
        if any(not 0 <= p < legs for p in positions):
            raise ShapeError("position out of range")
        alg = self.algebra
        ps, shifts = alg._layout(self.legs)[:2]
        wide_ps, wide = alg._layout(legs)[:2]
        # A unit leg's field is 0, and distinct keys stay distinct; the
        # values are kept, so the form stays canonical.
        if list(positions) == sorted(positions):
            # The legs keep their order: insert each unit leg's field, from the lowest.
            out, bits = self.nums, alg._leg_bits
            for s in sorted(wide[p] for p in set(range(legs)) - set(positions)):
                out = {key >> s << (s + bits) | key & ((1 << s) - 1): v for key, v in out.items()}
            return _wrap(alg, legs, out, self.den)
        moves = [(s, wide[p]) for s, p in zip(shifts, positions)]
        out = {}
        for key, v in self.nums.items():
            new = key >> ps << wide_ps
            for src, dst in moves:
                new |= ((key >> src) & alg._leg_mask) << dst
            out[new] = v
        return _wrap(alg, legs, out, self.den)

    def strip_unit_leg(self, leg):
        """Keep terms whose given leg is the unit monomial, dropping that leg: the counit on it."""
        if not 0 <= leg < self.legs:
            raise ShapeError("leg out of range")
        alg = self.algebra
        s = alg._layout(self.legs)[1][leg]
        mask, low = alg._leg_mask << s, (1 << s) - 1
        # With the dropped leg fixed to the unit, distinct keys stay distinct;
        # the kept terms' numerators may share a factor with `den`.
        nums = {
            (key >> (s + alg._leg_bits) << s) | (key & low): v
            for key, v in self.nums.items()
            if not key & mask
        }
        return _canonical(alg, self.legs - 1, nums, self.den)

    def __repr__(self):
        terms = " + ".join(format_term(*term) for term in self.sorted_terms())
        return f"TensorElement({terms or '0'})"


def _wrap(algebra, legs, nums, den, groups=None):
    """An element that shares the given numerators, canonical but for a qybe part's (`groups`: see `prepare`)."""
    el = object.__new__(TensorElement)
    el.algebra, el.legs, el.nums, el.den, el._groups = algebra, legs, nums, den, groups
    return el


def _groups(legs, nums, by_group):
    """The groups of the `legs`-leg terms `nums`, in `by_group` as ``(key, num)`` by group index: ``(seen,
    buckets)``, `seen` the keys or-ed, a bucket ``(power, terms, groups)`` per power, increasing, its terms in
    runs by the legs holding an H, a run with an H a group ``(legs as bits, start, stop, splits)``."""
    buckets, low = {}, (1 << legs) - 1
    for g in sorted(by_group):
        _, held, groups = buckets.setdefault(g >> legs, (g >> legs, [], []))
        if g & low:
            groups.append((g & low, len(held), len(held) + len(by_group[g]), {}))
        held += by_group.pop(g)
    return reduce(or_, nums, 0), list(buckets.values())


def _canonical(algebra, legs, nums, den):
    """The element ``nums / den`` in canonical form (see `_reduced`)."""
    if legs < 1:
        raise ShapeError("tensor elements need at least one leg")
    return _wrap(algebra, legs, *_reduced(nums, den))


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


def _ordered(parts):
    """``sum_d parts[d] / d`` (see `_merged`) in lowest terms, as `_reduced` gives it, keys increasing."""
    nums, den = _merged(parts)
    g = gcd(den, *nums.values())
    return {key: v // g for key, v in sorted(nums.items()) if v}, den // g


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


def _table_entry(el):
    """A 1-leg element as a bracket-table entry, ``{(power, Monomial): Fraction}``."""
    return {(k, mono): c for (k, (mono,)), c in el.terms.items()}


Element = TensorElement


def exp_truncated(a):
    """Truncated exponential sum_{k<=N} a^k / k!.

    Requires every term of `a` to carry deformation power >= 1, which makes
    the sum exact at the truncation order.
    """
    if a.valuation() == 0:
        raise TruncationError("exponent has a term of deformation power zero")
    acc = power = a.algebra.tensor_unit(a.legs)
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
        return self._entrywise(other, TensorElement.__add__)

    def __sub__(self, other):
        return self._entrywise(other, TensorElement.__sub__)

    def _entrywise(self, other, op):
        self._check(other)
        return SeriesMatrix([list(map(op, ra, rb)) for ra, rb in zip(self.entries, other.entries)])

    def scale(self, c):
        return SeriesMatrix([[e.scale(c) for e in row] for row in self.entries])

    def __matmul__(self, other):
        self._check(other)
        alg, cols = self.algebra, tuple(zip(*other.entries))

        def dot(row, col):
            acc = {}
            for a, b in zip(row, col):
                alg.mul_into(acc, a, b)
            return _from_parts(alg, 1, acc)

        return SeriesMatrix([[dot(row, col) for col in cols] for row in self.entries])

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


def series_powers(matrix):
    """``matrix^k`` for k = 0..order, ending before the first zero power.

    Every nonzero entry of `matrix` must have deformation valuation >= 1.
    """
    algebra = matrix.algebra
    if any(e.valuation() == 0 for row in matrix.entries for e in row):
        raise TruncationError("series argument has a valuation-zero entry")
    powers = [SeriesMatrix.identity(algebra, matrix.size)]
    for _ in range(algebra.order):
        power = powers[-1] @ matrix
        if power.is_zero():
            break
        powers.append(power)
    return powers


def series_sum(coeffs, powers, scale=1):
    """``sum_k coeffs[k] * scale^k * powers[k]``: the series in ``scale * A`` from the powers of A."""
    acc = powers[0].scale(Q(coeffs[0]))
    for k in range(1, len(powers)):
        c = Q(coeffs[k]) * Q(scale) ** k
        if c:
            acc = acc + powers[k].scale(c)
    return acc


def series_apply(coeffs, matrix):
    """Evaluate sum_k coeffs[k] * matrix^k, truncated at the algebra's order.

    Every nonzero entry of `matrix` must have deformation valuation >= 1 and
    at least order+1 coefficients must be supplied.
    """
    if len(coeffs) < matrix.algebra.order + 1:
        raise TruncationError("need at least order+1 series coefficients")
    return series_sum(coeffs, series_powers(matrix))


def exp_coefficients(order):
    return [Q(1, factorial(k)) for k in range(order + 1)]


def expm1_over_t_coefficients(order):
    """Taylor coefficients of (e^t - 1)/t."""
    return [Q(1, factorial(k + 1)) for k in range(order + 1)]


# -- rendering ------------------------------------------------------------------


def format_scalar(c):
    return str(Q(c))


def format_monomial(mono, h_names=None, x_names=None):
    names = list(h_names or [f"H{i+1}" for i in range(len(mono.h))])
    names += x_names or [f"X{i+1}" for i in range(len(mono.x))]
    parts = [name if e == 1 else f"{name}^{e}" for e, name in zip(mono.h + mono.x, names) if e]
    return "*".join(parts) if parts else "1"


def format_term(key, coeff, h_names=None, x_names=None):
    k, monos = key
    parts = [] if coeff == 1 else [format_scalar(coeff)]
    if k:
        parts.append("h" if k == 1 else f"h^{k}")
    parts.append(" ⊗ ".join(format_monomial(mo, h_names, x_names) for mo in monos))
    return " * ".join(parts)
