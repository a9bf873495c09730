"""Shared test fixtures: the naive rewriting oracle and random data builders.

The oracle normal-orders a word one adjacent swap at a time, with no merge
caching and no early truncation, so it shares nothing with the engine's
optimized kernels beyond the bracket table itself.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import factorial

from qtwist import AlgebraSpec, build_context, preset
from qtwist.algebra import Algebra, Monomial, SeriesMatrix, _from_parts, format_term
from qtwist.errors import ShapeError, SingularMatrixError
from qtwist.linalg import inverse

Q = Fraction


def one_minus_exp_neg_coefficients(order):
    """Taylor coefficients of 1 - e^{-t}."""
    return [Q(0)] + [-Q((-1) ** k, factorial(k)) for k in range(1, order + 1)]


def cached_leg_products(alg):
    """Every leg product in the algebra's row cache, as its rows of
    ``(delta, power, num, den)``; the cache holds each with its reach."""
    return [rows for _, rows in alg._rows.values()]


def fresh_algebra(alg):
    """A new algebra with `alg`'s shape and bracket table, and every cache empty."""
    table = {(j, mu): alg.bracket(j, mu) for j in range(alg.m) for mu in range(alg.n)}
    return Algebra(alg.m, alg.n, alg.order, table)


def preset_file_text(name):
    """The shipped spec file for a preset, as text."""
    fname = name.replace("(", "-").replace(")", "") + ".json"
    return (resources.files("qtwist") / "presets" / fname).read_text(encoding="utf-8")


def naive_normal_order(alg, word, coeff=Q(1), extra_power=0, out=None):
    """One-swap-at-a-time rewriting of a word into the PBW basis.

    Prunes branches whose minimum reachable power already exceeds the
    truncation order (powers never decrease under rewriting).
    """
    if out is None:
        out = {}
    word = list(word)
    if extra_power + sum(k for _, k in word) > alg.order:
        return out
    m = alg.m
    for p in range(len(word) - 1):
        g1, k1 = word[p]
        g2, k2 = word[p + 1]
        if g1 >= m and g2 < m:
            j, mu = g2, g1 - m
            swapped = word[:p] + [(g2, k2), (g1, k1)] + word[p + 2 :]
            naive_normal_order(alg, swapped, coeff, extra_power, out)
            for (kb, mono), cb in alg.bracket(j, mu).items():
                letters = []
                for i, e in enumerate(mono.h):
                    letters.extend([(i, 0)] * e)
                rest = word[:p] + letters + word[p + 2 :]
                naive_normal_order(
                    alg, rest, -coeff * cb, extra_power + kb + k1 + k2, out
                )
            return out
    h = [0] * alg.m
    x = [0] * alg.n
    k = extra_power
    for gid, kp in word:
        k += kp
        if gid < m:
            h[gid] += 1
        else:
            x[gid - m] += 1
    if k <= alg.order:
        key = (k, Monomial(tuple(h), tuple(x)))
        out[key] = out.get(key, Q(0)) + coeff
        if out[key] == 0:
            del out[key]
    return out


def mat_mul(a, b):
    """Product of two matrices given as lists of rows of rationals."""
    if len(b) != len(a[0]):
        raise ShapeError("matrix product: inner dimensions differ")
    cols = len(b[0])
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Q(0)) for j in range(cols)]
        for i in range(len(a))
    ]


def zero_series_matrix(algebra, size):
    """The size-by-size SeriesMatrix with every entry zero."""
    zero = algebra.zero()
    return SeriesMatrix([[zero for _ in range(size)] for _ in range(size)])


def one_leg(terms):
    """An oracle term map keyed like a 1-leg element: (power, (monomial,))."""
    return {(k, (mono,)): c for (k, mono), c in terms.items()}


def normal_order(word, algebra):
    """Normal-order a word: `Algebra.from_word`, with the word first."""
    return algebra.from_word(word)


def permute(t, perm):
    """Reorder the legs of `t`; perm[i] is the source leg for target slot i."""
    if sorted(perm) != list(range(t.legs)):
        raise ShapeError("not a permutation of the legs")
    return t.embed(t.legs, [perm.index(leg) for leg in range(t.legs)])


def mono_word(alg, mono):
    word = []
    for i, e in enumerate(mono.h):
        word.extend([(i, 0)] * e)
    for mu, e in enumerate(mono.x):
        word.extend([(alg.m + mu, 0)] * e)
    return word


def naive_mul_elements(alg, a, b):
    """Product of two elements via the naive oracle, as an Element."""
    out = {}
    for (k1, (m1,)), c1 in a.terms.items():
        for (k2, (m2,)), c2 in b.terms.items():
            naive_normal_order(
                alg, mono_word(alg, m1) + mono_word(alg, m2), c1 * c2, k1 + k2, out
            )
    return alg.element(out)


def naive_mul_tensors(alg, a, b):
    """Legwise product of two tensors via the naive oracle; each pair of leg
    monomials is rewritten once per call, as its rewriting is the same at any power."""
    out, legmaps = {}, {}
    for (k1, monos1), c1 in a.terms.items():
        for (k2, monos2), c2 in b.terms.items():
            combos = [(k1 + k2, (), c1 * c2)]
            for leg in range(a.legs):
                pair = monos1[leg], monos2[leg]
                legmap = legmaps.get(pair)
                if legmap is None:
                    word = mono_word(alg, pair[0]) + mono_word(alg, pair[1])
                    legmap = legmaps[pair] = naive_normal_order(alg, word)
                nxt = []
                for k, monos, c in combos:
                    for (km, mono), cm in legmap.items():
                        if k + km <= alg.order:
                            nxt.append((k + km, monos + (mono,), c * cm))
                combos = nxt
            for k, monos, c in combos:
                out[(k, monos)] = out.get((k, monos), Q(0)) + c
    return alg.tensor_element(a.legs, out)


def graded_mul_tensors(alg, a, b):
    """The product in the commutative associated graded ring: exponents add, nothing reorders."""
    out = {}
    for (k1, m1), c1 in a.terms.items():
        for (k2, m2), c2 in b.terms.items():
            if k1 + k2 <= alg.order:
                monos = tuple(
                    Monomial(tuple(map(sum, zip(p.h, q.h))), tuple(map(sum, zip(p.x, q.x)))) for p, q in zip(m1, m2)
                )
                out[(k1 + k2, monos)] = out.get((k1 + k2, monos), Q(0)) + c1 * c2
    return alg.tensor_element(a.legs, out)


def naive_exp_tensor(alg, a, order):
    """Truncated exponential via repeated naive products."""
    from math import factorial

    acc = alg.tensor_unit(a.legs)
    power = acc
    for j in range(1, order + 1):
        power = naive_mul_tensors(alg, power, a)
        if power.is_zero():
            break
        acc = acc + power.scale(Q(1, factorial(j)))
    return acc


def random_table(rng, m, n, order, max_terms=2, max_deg=2, rational=False):
    """A random pure-H bracket table.

    Any table gives each word one normal form, but such a table need not
    satisfy Jacobi, so its derivations ``D_mu = [X_mu, .]`` of the H-series
    may not commute, and then the product is not associative:
    ``X_1 (X_0 H) != (X_1 X_0) H``.

    Coefficients are integers unless `rational`, which draws a denominator
    in 1..3 as well.
    """
    table = {}
    for j in range(m):
        for mu in range(n):
            entry = {}
            for _ in range(rng.randint(0, max_terms)):
                k = rng.randint(0, min(order, 2))
                h = tuple(rng.randint(0, 1) for _ in range(m))
                if sum(h) > max_deg:
                    continue
                c = Q(rng.randint(-3, 3), rng.randint(1, 3) if rational else 1)
                if c:
                    key = (k, Monomial(h, (0,) * n))
                    entry[key] = entry.get(key, Q(0)) + c
            table[(j, mu)] = entry
    return table


def random_algebra(rng, max_dim=3, max_order=4):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    order = rng.randint(0, max_order)
    return Algebra(m, n, order, random_table(rng, m, n, order))


def random_word(rng, alg, max_len=6, max_power=2):
    length = rng.randint(0, max_len)
    return [
        (rng.randrange(alg.m + alg.n), rng.randint(0, max_power))
        for _ in range(length)
    ]


def random_element(rng, alg, max_terms=3, max_deg=2, max_power=None):
    max_power = alg.order if max_power is None else max_power
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        k = rng.randint(0, max_power)
        h = tuple(rng.randint(0, max_deg) for _ in range(alg.m))
        x = tuple(rng.randint(0, max_deg) for _ in range(alg.n))
        c = Q(rng.randint(-4, 4), rng.randint(1, 3))
        terms[(k, Monomial(h, x))] = c
    return alg.element(terms)


def random_tensor(rng, alg, legs=2, max_terms=3, max_deg=1):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        k = rng.randint(0, alg.order)
        monos = tuple(
            Monomial(
                tuple(rng.randint(0, max_deg) for _ in range(alg.m)),
                tuple(rng.randint(0, max_deg) for _ in range(alg.n)),
            )
            for _ in range(legs)
        )
        c = Q(rng.randint(-4, 4), rng.randint(1, 3))
        terms[(k, monos)] = c
    return alg.tensor_element(legs, terms)


def abelian_spec(dim=2, order=3):
    """B = 0: every bracket vanishes, all couplings are zero."""
    zeros = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    eye = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    return AlgebraSpec(name=f"abelian-{dim}", m=dim, n=dim, B=zeros, r=eye, order=order)


def random_valid_spec_2d(rng, order=3):
    """A random valid 2-dimensional declaration.

    Structure constants of the commutative associative algebra Q[t]/(t^2 - theta)
    in a random invertible basis; with r = identity this satisfies every
    classical precondition by construction.
    """
    theta = Q(rng.randint(-3, 3))
    # c[mu][sigma][nu]: coefficient of e_sigma in e_mu o e_nu
    c = [
        [[Q(1), Q(0)], [Q(0), Q(1)]],  # e_0 o e_0 = e_0 ; e_0 o e_1 = e_1
        [[Q(0), theta], [Q(1), Q(0)]],  # e_1 o e_0 = e_1 ; e_1 o e_1 = theta e_0
    ]
    while True:
        p = [[Q(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
        det = p[0][0] * p[1][1] - p[0][1] * p[1][0]
        if det:
            break
    inv = [[p[1][1] / det, -p[0][1] / det], [-p[1][0] / det, p[0][0] / det]]
    moved = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
    for mu in range(2):
        for sigma in range(2):
            for nu in range(2):
                acc = Q(0)
                for a in range(2):
                    for b in range(2):
                        for rho in range(2):
                            acc += inv[sigma][rho] * c[a][rho][b] * p[a][mu] * p[b][nu]
                moved[mu][sigma][nu] = acc
    B = [[[2 * moved[i][j][mu] for mu in range(2)] for j in range(2)] for i in range(2)]
    eye = [[1, 0], [0, 1]]
    return AlgebraSpec(
        name="random-2d", m=2, n=2, B=B, r=eye, order=order
    )


def rotate_h_basis(base, s, name="rotated"):
    """`base` in the H basis ``H'_a = sum_j s[j][a] H_j``, for an invertible s.

    B and r transform contravariantly; xi and the metadata are dropped.
    """
    sinv = inverse(s)
    dim, n = base.m, base.n
    B = [
        [
            [
                sum(sinv[b][i] * s[j][a] * base.B[i][j][mu] for i in range(dim) for j in range(dim))
                for mu in range(n)
            ]
            for a in range(dim)
        ]
        for b in range(dim)
    ]
    r = [[sum(sinv[b][i] * base.r[i][mu] for i in range(dim)) for mu in range(n)] for b in range(dim)]
    return AlgebraSpec(name=name, m=dim, n=n, B=B, r=r, order=base.order)


def _invertible(rng, dim):
    """A random dim-by-dim integer matrix with entries in -2..2 that is invertible."""
    while True:
        s = [[Q(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
        try:
            inverse(s)
        except SingularMatrixError:
            continue
        return s


def rotated_specs(name, order=2, count=5):
    """`count` copies of a preset in seeded H bases ``H'_a = sum_j s[j][a] H_j``.

    Each s is drawn with entries in -2..2 until it is invertible; B and r
    transform contravariantly, and xi and the preset's metadata are dropped.
    For the null-plane preset every spec has r != I; four have fractions in r
    and two in B.  A 1-by-1 draw of s = 1 leaves the preset as it is.
    """
    rng = random.Random(41)
    base = preset(name).with_order(order)
    for _ in range(count):
        yield rotate_h_basis(base, _invertible(rng, base.m))


def random_valid_spec_3d(rng, order=2):
    """A random valid 3-dimensional declaration with r != I.

    The structure constants of a commutative associative algebra, ``Q[t]/(p)``
    for a monic cubic p or ``Q[t]/(q) + Q`` for a monic quadratic q, in a
    random invertible basis, give a valid spec with r = I, as in
    `random_valid_spec_2d`; a random invertible change of the H basis then
    makes r dense.  Draws again until `choose_xi` finds a classical basis.
    """
    from qtwist.errors import NoValidXiError
    from qtwist.model import choose_xi

    while True:
        # mult[a][b]: e_a e_b in the basis (1, t, t^2), or ((1, 0), (t, 0), (0, 1)).
        coeffs = [Q(rng.randint(-2, 2)) for _ in range(3)]
        if rng.random() < 0.5:
            top = [-c for c in coeffs]  # t^3 = -(c0 + c1 t + c2 t^2)
            powers = [[Q(1), Q(0), Q(0)]]
            for _ in range(4):
                v = powers[-1]
                powers.append([v[2] * top[0], v[0] + v[2] * top[1], v[1] + v[2] * top[2]])
            mult = [[powers[a + b] for b in range(3)] for a in range(3)]
        else:
            zero, sq = [Q(0)] * 3, [-coeffs[0], -coeffs[1], Q(0)]  # t^2 = -(c0 + c1 t)
            mult = [
                [[Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)], zero],
                [[Q(0), Q(1), Q(0)], sq, zero],
                [zero, zero, [Q(0), Q(0), Q(1)]],
            ]
        p = _invertible(rng, 3)
        inv = inverse(p)
        # moved[mu][sigma][nu]: coefficient of f_sigma in f_mu f_nu, f_mu = sum_a p[a][mu] e_a.
        moved = [
            [
                [
                    sum(
                        inv[sigma][rho] * mult[a][b][rho] * p[a][mu] * p[b][nu]
                        for a in range(3)
                        for b in range(3)
                        for rho in range(3)
                    )
                    for nu in range(3)
                ]
                for sigma in range(3)
            ]
            for mu in range(3)
        ]
        B = [[[2 * moved[i][j][mu] for mu in range(3)] for j in range(3)] for i in range(3)]
        eye = [[int(i == j) for j in range(3)] for i in range(3)]
        base = AlgebraSpec(name="random-3d", m=3, n=3, B=B, r=eye, order=order)
        spec = rotate_h_basis(base, _invertible(rng, 3), name="random-3d")
        if spec.r == base.r:
            continue
        try:
            choose_xi(spec)
        except NoValidXiError:
            continue
        return spec


def rotated_null_plane_specs(order=2):
    """The five seeded rotations of the null-plane preset."""
    return rotated_specs("poincare-null-plane", order)


def classical_oracle(spec):
    """``(alpha_up, r_low, alpha_low)`` of a square, invertible-r spec by dense sums.

    alpha_up[i][mu][nu] = sum_j r[j][mu] B[i][j][nu] / 2, r_low is the
    transpose of the inverse of r, and alpha_low[mu][rho][nu] =
    sum_i r_low[i][mu] alpha_up[i][rho][nu].
    """
    dims = range(spec.m)
    alpha_up = tuple(
        tuple(
            tuple(sum(Q(spec.r[j][mu]) * spec.B[i][j][nu] for j in dims) / 2 for nu in dims)
            for mu in dims
        )
        for i in dims
    )
    inv = inverse([list(row) for row in spec.r])
    r_low = tuple(tuple(inv[mu][i] for mu in dims) for i in dims)
    alpha_low = tuple(
        tuple(
            tuple(sum(r_low[i][mu] * alpha_up[i][rho][nu] for i in dims) for nu in dims)
            for rho in dims
        )
        for mu in dims
    )
    return alpha_up, r_low, alpha_low


def lifted_table_oracle(ctx):
    """The lifted twin's bracket table, ``[H'_a, X_mu] = sum_j r[j][a] [H_j, X_mu]``,
    with each bracket carried forward once per ``(a, mu, j)``."""
    from qtwist.algebra import _table_entry
    from qtwist.transport import BasisChange

    alg, r_low = ctx.algebra, ctx.derived.r_low
    dims = range(alg.m)
    r = inverse([list(col) for col in zip(*r_low)])
    carry = BasisChange(alg, Algebra(alg.m, alg.n, alg.order, {}), r_low)
    table = {}
    for a in dims:
        for mu in dims:
            acc = carry.target.zero()
            for j in dims:
                if r[j][a]:
                    acc = acc + carry(alg.element(alg.bracket(j, mu))).scale(r[j][a])
            table[(a, mu)] = _table_entry(acc)
    return table


def twin_b_oracle(ctx):
    """The lifted twin's B by the triple sum ``sum_{i,j} r_low[i][b] r[j][a] B[i][j][mu]``."""
    spec, r_low = ctx.spec, ctx.derived.r_low
    dims = range(spec.m)
    r = inverse([list(col) for col in zip(*r_low)])
    return [
        [
            [sum(r_low[i][b] * r[j][a] * spec.B[i][j][mu] for i in dims for j in dims) for mu in dims]
            for a in dims
        ]
        for b in dims
    ]


@lru_cache(maxsize=None)
def cached_context(name, order=None):
    spec = preset(name)
    if order is not None and order != spec.order:
        spec = spec.with_order(order)
    return build_context(spec)


def unsliced_qybe(ctx, rmat=None):
    """The Yang-Baxter residual ``R12 R13 R23 - R23 R13 R12``, summed whole.

    The reference for `check_qybe`, which sums the residual one slice at a
    time: here both products are formed from whole operands, ``R13 R12``
    directly rather than by exchanging legs, and summed into one
    accumulator.  On a lifted twin the residual is mapped back to the user's
    basis.  Returns ``(residual, witness, keys)``: the witness as the
    check's report names it, or None, and the number of accumulator keys
    before cancellation.
    """
    r = ctx.universal_r if rmat is None else rmat
    alg = r.algebra
    r12, r13, r23 = (r.embed(3, legs) for legs in ((0, 1), (0, 2), (1, 2)))
    acc = {}
    alg.mul_into(acc, r12 * r13, r23)
    alg.mul_into(acc, r23, r13 * r12, -1)
    keys = sum(map(len, acc.values()))
    residual = _from_parts(alg, 3, acc)
    if ctx.to_user is not None:
        residual = ctx.to_user(residual)
    if residual.is_zero():
        return residual, None, keys
    key, coeff = min(residual.terms.items())
    term = format_term(key, coeff, ctx.spec.h_names, ctx.spec.x_names)
    return residual, f"yang-baxter: {term}", keys


def canonical_qybe_parts(ctx, rmat=None):
    """The parts of `check_qybe`, each assembled in canonical form.

    The reference for the check's own assembly, which merges a part of
    ``T = R12 R13`` over the lcm of its denominators and reduces neither it
    nor ``P23(T)`` nor ``T - P23(T)``.  Here T is split by leg-0 X parts
    (`Algebra.split_by_x`) and a part gathered as the check gathers it, then
    canonicalised; ``P23(T)`` is ``permute(T, (0, 2, 1))``, prepared, and the
    difference is a canonical subtraction.  Yields the parts in the form of
    a check's declaration (see `verify._check`).
    """
    from qtwist.verify import orbit_symmetry

    r, t = (ctx.universal_r, ctx.twist_exponent) if rmat is None else (rmat, rmat)
    alg, r23, perm = r.algebra, r.algebra.prepare(r.embed(3, (1, 2))), orbit_symmetry(t)
    acc = {}
    alg.mul_into(acc, r.embed(3, (0, 1)), r.embed(3, (0, 2)))
    slices = alg.split_by_x(acc, 3, 0, perm)
    slices = sorted(((sum(map(len, s.values())), x, n, s) for x, (n, s) in slices.items()), reverse=True)
    while slices:
        size, _, orbit, parts = slices.pop()
        while slices and slices[-1][2] == orbit and size + slices[-1][0] <= len(r23.nums):
            more, _, _, dens = slices.pop()
            size += more
            for den, nums in dens.items():
                parts.setdefault(den, {}).update(nums)
        tc = _from_parts(alg, 3, parts)
        tp = alg.prepare(permute(tc, (0, 2, 1)))
        terms = [(1, tc - tp, r23, "lead"), (1, tc, r23, "corr"), (-1, r23, tp, "corr")]
        yield "yang-baxter", terms, perm, ("yang-baxter",) * (orbit - 1), 0 if perm and orbit == 1 else None


def three_jordanian_spec(order=3):
    """The direct sum of three copies of `jordanian-borel`: ``B[i][i][i] = 2``, r = I."""
    B = [[[2 if i == j == mu else 0 for mu in range(3)] for j in range(3)] for i in range(3)]
    r = [[int(i == j) for j in range(3)] for i in range(3)]
    return AlgebraSpec(name="jordanian-borel-x3", m=3, n=3, B=B, r=r, order=order)


def unsplit_intertwining(ctx, rmat=None):
    """The intertwining residuals ``R Δ(g) - Δ^op(g) R``, each of two full products.

    The reference for `check_intertwine`, which adds the leading part of the
    two products once and their reorder corrections.  On a lifted twin the
    generators are the images of the user's and each residual is mapped back
    to the user's basis.  Returns ``(terms, witness)`` as the check reports
    them: the witness is the smallest surviving term, then the generator's
    name, or None.
    """
    r = ctx.universal_r if rmat is None else rmat
    count, best = 0, None
    for name, g in ctx.generator_elements():
        delta = ctx.coproduct(g)
        residual = r * delta - delta.swap() * r
        if ctx.to_user is not None:
            residual = ctx.to_user(residual)
        count += len(residual.nums)
        if not residual.is_zero():
            key, coeff = min(residual.terms.items())
            if best is None or (key, name) < best[:2]:
                best = key, name, coeff
    if best is None:
        return count, None
    key, name, coeff = best
    return count, f"{name}: {format_term(key, coeff, ctx.spec.h_names, ctx.spec.x_names)}"


def r_mutants(ctx, seed, count=4):
    """`count` copies of R, each with one seeded term below the top power
    raised by 1 (a term at the top power drops out of every product)."""
    rng = random.Random(seed)
    keys = [key for key in sorted(ctx.universal_r.terms) if key[0] < ctx.algebra.order]
    return [mutate_tensor(ctx.algebra, ctx.universal_r, rng.choice(keys)) for _ in range(count)]


def orbit_r_mutants(ctx, seed):
    """Two copies of R changed at one seeded key below the top power, whose
    image under the algebra's first symmetry is another key: the symmetric
    copy raises both keys by 1, the asymmetric copy the seeded key only."""
    alg, r = ctx.algebra, ctx.universal_r
    perm = alg.symmetries[0]
    bumps = [alg.tensor_element(2, {key: 1}) for key in sorted(r.terms) if key[0] < alg.order]
    bump = random.Random(seed).choice([b for b in bumps if alg.relabel(b, perm) != b])
    return r + bump + alg.relabel(bump, perm), r + bump


def count_parts(monkeypatch):
    """Record the parts that `verify` sums and tallies, until `monkeypatch` is undone.

    Returns a dict: "summed" counts the parts whose terms are summed, and
    "tallied" lists ``(label, residual, image)`` for each part counted, where
    `image` says that the part's residual was relabelled from an earlier
    one's rather than summed: a part of an orbit path.
    """
    from qtwist import verify

    parts = {"summed": 0, "tallied": [], "fresh": False}
    residual, tally = verify._residual, verify._tally

    def counted_residual(terms):
        parts["summed"] += 1
        parts["fresh"] = True
        return residual(terms)

    def counted_tally(label, res):
        parts["tallied"].append((label, res, not parts["fresh"]))
        parts["fresh"] = False
        return tally(label, res)

    monkeypatch.setattr(verify, "_residual", counted_residual)
    monkeypatch.setattr(verify, "_tally", counted_tally)
    return parts


def image_parts(parts):
    """The residuals of the image parts that `count_parts` recorded."""
    return [res for _, res, image in parts["tallied"] if image]


def mutate_tensor(alg, tensor, key, delta=Q(1)):
    terms = dict(tensor.terms)
    terms[key] = terms.get(key, Q(0)) + delta
    return alg.tensor_element(tensor.legs, terms)


def stale_context(ctx, field, at):
    """`ctx` with the stored B or r entry at index tuple `at` raised by 1.

    Nothing is re-derived: the context keeps the derived structure of the
    unmutated spec, as `run_single_mutation` does.
    """
    import dataclasses

    from qtwist.hopf import HopfContext

    rows = [
        [list(row) for row in block] if field == "B" else list(block)
        for block in getattr(ctx.spec, field)
    ]
    cell = rows
    for i in at[:-1]:
        cell = cell[i]
    cell[at[-1]] += 1
    spec = dataclasses.replace(ctx.spec, **{field: rows})
    return HopfContext(dataclasses.replace(ctx.derived, spec=spec))


def run_single_mutation(ctx, rng):
    """Perturb one stored rational in B, r, the twist, or the R-matrix by +1.

    The mutation hits the stored value only: nothing upstream is re-derived,
    so the perturbed context is internally inconsistent and the suite must
    notice.  Returns (target, report).
    """
    from qtwist.verify import run_suite

    spec = ctx.spec
    target = rng.choice(("B", "r", "phi", "rmat"))
    if target == "B":
        at = (rng.randrange(spec.m), rng.randrange(spec.m), rng.randrange(spec.n))
        return target, run_suite(stale_context(ctx, "B", at), "all")
    if target == "r":
        at = (rng.randrange(spec.m), rng.randrange(spec.n))
        return target, run_suite(stale_context(ctx, "r", at), "all")
    if target == "phi":
        key = rng.choice(sorted(ctx.phi.terms))
        bad = mutate_tensor(ctx.algebra, ctx.phi, key)
        return target, run_suite(ctx, "all", phi=bad)
    key = rng.choice(sorted(ctx.universal_r.terms))
    bad = mutate_tensor(ctx.algebra, ctx.universal_r, key)
    return target, run_suite(ctx, "all", rmat=bad)


@lru_cache(maxsize=1)
def genuine_algebras():
    """Deformed algebras whose tables come from real derivations.

    Arbitrary random tables give a well-defined rewriting of any fixed word,
    but imposing commutativity inside the X and H blocks is only consistent
    when the table satisfies the compatibility the construction guarantees.
    Semantic properties (oracle equivalence on words, associativity, exp
    identities) are therefore quantified over this pool, which spans
    dimensions 1..3 and orders 0..4.
    """
    from qtwist.model import classical_algebra

    rng = random.Random(99)
    pool = [
        cached_context("jordanian-borel", 0).algebra,
        cached_context("jordanian-borel", 2).algebra,
        cached_context("jordanian-borel", 4).algebra,
        cached_context("poincare-null-plane", 2).algebra,
        cached_context("poincare-null-plane", 3).algebra,
        cached_context("poincare-null-plane", 4).algebra,
        cached_context("shift-ring(2)", 3).algebra,
        cached_context("shift-ring(3)", 4).algebra,
        classical_algebra(preset("poincare-null-plane")),
        build_context(abelian_spec()).algebra,
    ]
    for _ in range(4):
        pool.append(build_context(random_valid_spec_2d(rng, order=4)).algebra)
    return tuple(pool)
