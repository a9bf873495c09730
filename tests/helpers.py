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


def _table_entry(el):
    """A 1-leg element as a bracket-table entry, ``{(power, Monomial): Fraction}``."""
    return {(k, mono): c for (k, (mono,)), c in el.terms.items()}


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


def rotate_x_basis(base, s, name="x-rotated"):
    """`base` in an X basis moved by the invertible n-by-n matrix s.

    ``B'[i][j][nu] = sum_mu B[i][j][mu] s[mu][nu]`` and ``r'[i][nu] = sum_mu
    r[i][mu] s^-1[nu][mu]``, so the twist exponent is unchanged; xi and the
    metadata are dropped.  The lift to r = I moves only H, so such a spec
    keeps a dense twin.
    """
    sinv, n = inverse(s), base.n
    B = [[[sum(row[mu] * s[mu][nu] for mu in range(n)) for nu in range(n)] for row in block] for block in base.B]
    r = [[sum(row[mu] * sinv[nu][mu] for mu in range(n)) for nu in range(n)] for row in base.r]
    return AlgebraSpec(name=name, m=base.m, n=n, B=B, r=r, order=base.order)


def x_rotated_null_plane(order=4):
    """The null-plane preset in the X basis moved by ``[[1, 1, 1], [0, 1, 1], [1, 1, 2]]``."""
    s = [[Q(1), Q(1), Q(1)], [Q(0), Q(1), Q(1)], [Q(1), Q(1), Q(2)]]
    return rotate_x_basis(preset("poincare-null-plane").with_order(order), s)


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


def _contract(mat, tensor):
    """``out[a] = sum_i mat[i][a] * tensor[i]`` over nested sequences of Fractions, as nested tuples."""
    if isinstance(tensor[0], (list, tuple)):
        # Contract each slice tensor[:][j], then put the new index first again.
        return tuple(zip(*(_contract(mat, col) for col in zip(*tensor))))
    return tuple(sum((c * t for c, t in zip(col, tensor) if c and t), Q(0)) for col in zip(*mat))


def _mat_commute(a, b):
    """The first entry (i, j), in row-major order, at which ``ab`` and ``ba`` differ; or None."""
    ab, ba = _contract(tuple(zip(*a)), b), _contract(tuple(zip(*b)), a)
    dims = range(len(a))
    return next(((i, j) for i in dims for j in dims if ab[i][j] != ba[i][j]), None)


def fraction_inverse(rows):
    """`linalg.inverse` by the Fraction route: Bareiss forward elimination of ``[rows | I]`` over
    Fractions, then back substitution."""
    mat = [[Q(v) for v in row] for row in rows]
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise SingularMatrixError("matrix is not square")
    aug = [row + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    pivots, prev, r = [], Q(1), 0
    for c in range(2 * n):
        p = next((i for i in range(r, n) if aug[i][c]), None) if r < n else None
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        piv = aug[r][c]
        for i in range(r + 1, n):
            head = aug[i][c]
            aug[i] = [(piv * a - head * b) / prev for a, b in zip(aug[i], aug[r])]
        prev = piv
        pivots.append((r, c))
        r += 1
    if pivots[:n] != [(i, i) for i in range(n)]:
        raise SingularMatrixError("matrix is singular")
    for i in range(n - 1, -1, -1):
        for j in range(n, 2 * n):
            aug[i][j] = (aug[i][j] - sum(aug[i][k] * aug[k][j] for k in range(i + 1, n))) / aug[i][i]
    return [row[n:] for row in aug]


def fraction_classical(spec):
    """The five classical fields of `model._classical` by the Fraction route: `_contract` sums,
    `_mat_commute` for the Jacobi test and `fraction_inverse` for r_low."""
    beta = tuple(zip(*(tuple(zip(*b)) for b in spec.B)))  # beta[mu][i][j] = B[i][j][mu]
    beta_clash = next(
        (
            (mu, nu, hit)
            for mu in range(spec.n)
            for nu in range(mu + 1, spec.n)
            if (hit := _mat_commute(beta[mu], beta[nu])) is not None
        ),
        None,
    )
    r_low = r_defect = alpha_low = None
    if spec.m != spec.n:
        r_defect = f"r is {spec.m}x{spec.n}, not square"
    else:
        try:
            inv = fraction_inverse(spec.r)
            r_low = tuple(tuple(inv[mu][i] for mu in range(spec.n)) for i in range(spec.m))
        except SingularMatrixError:
            r_defect = "r is singular"
    alpha_up = tuple(tuple(tuple(v / 2 for v in row) for row in _contract(spec.r, b)) for b in spec.B)
    if r_low is not None:
        alpha_low = _contract(r_low, alpha_up)
    return beta_clash, r_low, r_defect, alpha_up, alpha_low


def full_product_cybe(spec):
    """`model.cybe_residual` by full products: r's antisymmetrised 2-tensor from `outer` products,
    and ``ab - ba`` with both passes of each product for the three pairs of its embeddings."""
    from qtwist.model import classical_algebra

    alg, acc = classical_algebra(spec), {}
    for i in range(spec.m):
        for mu in range(spec.n):
            c = spec.r[i][mu]
            if c:
                alg.outer(alg.x(mu), alg.h(i)).add_into(acc, c)
                alg.outer(alg.h(i), alg.x(mu)).add_into(acc, -c)
    two = _from_parts(alg, 2, acc)
    r12, r13, r23 = (two.embed(3, legs) for legs in ((0, 1), (0, 2), (1, 2)))
    acc = {}
    for a, b in ((r12, r13), (r12, r23), (r13, r23)):
        alg.mul_into(acc, a, b)
        alg.mul_into(acc, b, a, -1)
    return _from_parts(alg, 3, acc)


def fraction_validation(spec):
    """`validate_spec`'s report by the Fraction route: the searches on `fraction_classical`'s
    fields, a consistency sum over every (i, j), and the witness of `full_product_cybe`."""
    from qtwist.model import ValidationCheck, ValidationReport, _found

    beta_clash, r_low, r_defect, alpha_up, alpha_low = fraction_classical(spec)
    hs, xs = range(spec.m), range(spec.n)
    acted = [_contract(tuple(zip(*(bj for b in spec.B for bj in b))), a) for a in alpha_up]
    consistency = next(
        (
            (i, j, k, nu)
            for i in hs
            for j in hs
            for k in hs
            for nu in xs
            if acted[i][j * spec.m + k][nu] != acted[j][i * spec.m + k][nu]
        ),
        None,
    )
    commute = next(
        (
            (i, j, hit)
            for i in hs
            for j in range(i + 1, spec.m)
            if (hit := _mat_commute(alpha_up[i], alpha_up[j])) is not None
        ),
        None,
    )
    checks = [
        _found("jacobi", beta_clash, "beta[{}] and beta[{}] disagree at entry {}"),
        ValidationCheck("invertible-r", r_low is not None, r_defect),
        _found("consistency", consistency, "indices (i,j,k,nu)=({}, {}, {}, {})"),
        _found("alpha-commute", commute, "alpha[{}] and alpha[{}] disagree at entry {}"),
    ]
    if alpha_low is None:
        checks.append(ValidationCheck("alpha-symmetry", False, "needs invertible r to lower indices"))
    else:
        symmetry = next(
            (
                (rho, muu, nu)
                for rho in xs
                for muu in xs
                for nu in range(muu + 1, spec.n)
                if alpha_low[muu][rho][nu] != alpha_low[nu][rho][muu]
            ),
            None,
        )
        checks.append(_found("alpha-symmetry", symmetry, "indices (rho,mu,nu)=({}, {}, {})"))
    first = full_product_cybe(spec).first_term()
    witness = None if first is None else f"first surviving term: {format_term(*first, spec.h_names, spec.x_names)}"
    checks.append(ValidationCheck("cybe", first is None, witness))
    return ValidationReport(spec.name, tuple(checks))


def fractional_mutants(spec, seed, count):
    """`count` copies of `spec`, each with one seeded entry of B or r moved by a nonzero fraction
    ``p/q``, q in 2, 3 and 5; every copy derives its classical data afresh."""
    import dataclasses

    rng = random.Random(seed)
    out = []
    for index in range(count):
        field = rng.choice(("B", "r"))
        rows = [[list(row) for row in block] if field == "B" else list(block) for block in getattr(spec, field)]
        cell = rows[rng.randrange(spec.m)]
        if field == "B":
            cell = cell[rng.randrange(spec.m)]
        at = rng.randrange(spec.n)
        cell[at] += Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((2, 3, 5)))
        out.append(dataclasses.replace(spec, name=f"{spec.name}-{field}{index}", **{field: rows}))
    return out


def powers_oracle(matrix):
    """``matrix^k`` for k = 0..order, ending before the first zero power, each power a sum of
    `mul_tensors` products put through the validating `SeriesMatrix` constructor."""
    alg, size = matrix.algebra, matrix.size
    powers = [SeriesMatrix([[alg.one() if i == j else alg.zero() for j in range(size)] for i in range(size)])]
    cols = list(zip(*matrix.entries))
    for _ in range(alg.order):
        power = SeriesMatrix(
            [[sum((a * b for a, b in zip(row, col)), alg.zero()) for col in cols] for row in powers[-1].entries]
        )
        if power.is_zero():
            break
        powers.append(power)
    return powers


def series_sum_oracle(coeffs, powers, scale=1):
    """``sum_k coeffs[k] * scale^k * powers[k]`` as a chain of canonical matrix sums, one per power."""
    acc = powers[0].scale(Q(coeffs[0]))
    for k in range(1, len(powers)):
        c = Q(coeffs[k]) * Q(scale) ** k
        if c:
            acc = acc + powers[k].scale(c)
    return acc


def fraction_route_algebra(m, n, order, alpha_up, B):
    """`model.deformed_algebra` by the Fraction route: ``f(2 alpha.H)`` from `series_sum_oracle`, each
    ``(f[nu][mu] * H_i).scale(B[i][j][nu])`` added to a canonical element, the sum decoded to Fractions
    (`_table_entry`) and packed again by ``Algebra(m, n, order, table)``; with the powers of alpha.H on it."""
    from qtwist.algebra import expm1_over_t_coefficients

    scratch = Algebra(m, n, order, {})
    alpha_h = SeriesMatrix(
        [
            [scratch.element({(1, Monomial.h_gen(m, n, i)): alpha_up[i][mu][nu] for i in range(m)}) for nu in range(n)]
            for mu in range(n)
        ]
    )
    powers = powers_oracle(alpha_h)
    f_matrix = series_sum_oracle(expm1_over_t_coefficients(order), powers, 2)
    table = {}
    for j in range(m):
        for mu in range(n):
            acc = scratch.zero()
            for nu in range(n):
                entry = f_matrix.entry(nu, mu)
                if entry.is_zero():
                    continue
                for i in range(m):
                    c = B[i][j][nu]
                    if c:
                        acc = acc + (entry * scratch.h(i)).scale(c)
            table[(j, mu)] = _table_entry(acc)
    algebra = Algebra(m, n, order, table)
    return algebra, [SeriesMatrix([[e._on(algebra) for e in row] for row in p.entries]) for p in powers]


def lifted_table_oracle(ctx):
    """The lifted twin's bracket table, ``[H'_a, X_mu] = sum_j r[j][a] [H_j, X_mu]``,
    with each bracket carried forward once per ``(a, mu, j)``."""
    from qtwist.hopf import _basis_change

    alg, r_low = ctx.algebra, ctx.derived.r_low
    dims = range(alg.m)
    r = inverse([list(col) for col in zip(*r_low)])
    target = Algebra(alg.m, alg.n, alg.order, {})
    carry = _basis_change(target, r_low)
    table = {}
    for a in dims:
        for mu in dims:
            acc = target.zero()
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


def split_by_x(alg, acc, legs, leg, perm=None):
    """Empty `acc`, a `mul_into` accumulator of `legs`-leg terms, into one per X part of `leg`.

    The split that `check_qybe` made of the whole of ``T = R12 R13`` before it
    built T a level at a time, kept as the reference for the level build
    (`Algebra.r12_r13_slices`).  Returns ``{x: (size, acc_x)}``, `x` an int
    ordered as the X part.  With a relabelling `perm`, the terms of an X part
    other than the smallest of its orbit under `perm` are dropped, and `size`
    is the orbit's size; where that is 1, so are the terms whose whole `leg`
    monomial is not the smallest of its orbit (see `Algebra.unfold`).
    Without, `size` is 1.
    """
    shift, slices, seen = alg._layout(legs)[1][leg], {}, {}
    while acc:
        den, nums = acc.popitem()
        for key, v in nums.items():
            f = (key >> shift) & alg._leg_mask
            kept = seen.get(f)
            if kept is None:
                x = f & alg._x_mask
                size = len(orbit := alg._orbit(x, perm))
                if x != min(orbit) or size == 1 and f != min(alg._orbit(f, perm)):
                    size = 0
                kept = seen[f] = x, size
            x, size = kept
            if size:
                slices.setdefault(x, (size, {}))[1].setdefault(den, {})[key] = v
    return slices


def whole_t(r):
    """The accumulator of ``T = R12 R13`` formed whole by one product, and its number of keys."""
    acc = {}
    r.algebra.mul_into(acc, r.embed(3, (0, 1)), r.embed(3, (0, 2)))
    return acc, sum(map(len, acc.values()))


def x_degree(alg, x):
    """The total degree of a leg's X part `x`, an int as `split_by_x` keys it."""
    return sum(alg.decode(x, 1)[1][0].x)


def whole_t_levels(r, perm=None):
    """The slices of the whole of ``T = R12 R13`` (`split_by_x`) by leg-0 X degree: a list whose
    entry ``s`` holds ``{x: (size, acc_x)}`` for the X parts of degree ``s``."""
    slices = split_by_x(r.algebra, whole_t(r)[0], 3, 0, perm)
    levels = [{} for _ in range(1 + max((x_degree(r.algebra, x) for x in slices), default=0))]
    for x, kept in slices.items():
        levels[x_degree(r.algebra, x)][x] = kept
    return levels


def canonical_qybe_parts(ctx, rmat=None):
    """The parts of `check_qybe`, each assembled in canonical form.

    The reference for the check's own assembly, which builds ``T = R12 R13``
    a level at a time, and merges a part of T over the lcm of its
    denominators and reduces neither it nor ``P23(T)`` nor ``T - P23(T)``.
    Here the whole of T is split by leg-0 X parts (`split_by_x`), the slices
    of each leg-0 X degree, the highest first, are gathered into parts as the
    check gathers them, and each part is canonicalised; ``P23(T)`` is
    ``permute(T, (0, 2, 1))``, prepared, and the difference is a canonical
    subtraction.  Yields the parts in the form of a check's declaration (see
    `verify._check`).
    """
    from qtwist.verify import orbit_symmetry

    r, t = (ctx.universal_r, ctx.twist_exponent) if rmat is None else (rmat, rmat)
    alg, r23, perm = r.algebra, r.algebra.prepare(r.embed(3, (1, 2))), orbit_symmetry(t)
    for level in reversed(whole_t_levels(r, perm)):
        slices = sorted(((sum(map(len, s.values())), x, n, s) for x, (n, s) in level.items()), reverse=True)
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
