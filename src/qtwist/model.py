"""Algebra declarations, their classical preconditions, and derived structure.

An `AlgebraSpec` declares a semidirect sum of two Abelian Lie algebras: an
m-dimensional commutative H part acting on itself trivially, an n-dimensional
commutative X part, and the mixed bracket ``[H_j, X_mu] = B^i_{j,mu} H_i``.
Together with an invertible matrix ``r`` pairing the two parts it determines
the deformed enveloping algebra whose bracket table and coproduct matrices
are built here.  Three presets cover the instances of interest: the six
generator null-plane deformation of the 3+1 Poincare algebra, the rank-one
Borel (Jordanian) case, and the shift-ring family.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

from . import linalg
from .algebra import (
    Algebra,
    Monomial,
    SeriesMatrix,
    _from_parts,
    bracket_sums,
    expm1_over_t_coefficients,
    format_term,
    series_powers,
    series_sum,
)
from .errors import (
    DegenerateRMatrixError,
    NoValidXiError,
    SingularMatrixError,
    SpecError,
)

Q = Fraction


def _freeze_tensor(value, shape, path):
    """Coerce nested sequences of rationals to nested tuples of Fractions."""
    if not shape:
        try:
            return Q(value)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"not a rational: {value!r}", field=path) from exc
    if not isinstance(value, (list, tuple)) or len(value) != shape[0]:
        raise SpecError(f"expected a sequence of length {shape[0]}", field=path)
    return tuple(
        _freeze_tensor(v, shape[1:], f"{path}[{i}]") for i, v in enumerate(value)
    )


@dataclass(frozen=True)
class AlgebraSpec:
    """Declaration of one quasi-Abelian algebra, with truncation order.

    B is indexed ``B[i][j][mu]``: the H_i coefficient of [H_j, X_mu].
    r is indexed ``r[i][mu]``.  xi, when present, selects the classical
    basis transform.
    """

    name: str
    m: int
    n: int
    B: tuple
    r: tuple
    xi: Optional[tuple] = None
    order: int = 4
    h_names: tuple = ()
    x_names: tuple = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise SpecError("dimensions must be positive")
        if self.order < 0:
            raise SpecError("truncation order must be non-negative")
        object.__setattr__(
            self, "B", _freeze_tensor(self.B, (self.m, self.m, self.n), "B")
        )
        object.__setattr__(self, "r", _freeze_tensor(self.r, (self.m, self.n), "r"))
        if self.xi is not None:
            object.__setattr__(self, "xi", _freeze_tensor(self.xi, (self.n,), "xi"))
        h_names = tuple(self.h_names) or tuple(f"H{i+1}" for i in range(self.m))
        x_names = tuple(self.x_names) or tuple(f"X{i+1}" for i in range(self.n))
        if len(h_names) != self.m or len(x_names) != self.n:
            raise SpecError("generator name lists must match the dimensions")
        if len(set(h_names) | set(x_names)) != self.m + self.n:
            raise SpecError("generator names must be distinct")
        object.__setattr__(self, "h_names", h_names)
        object.__setattr__(self, "x_names", x_names)

    def with_order(self, order):
        return dataclasses.replace(self, order=order)

    # Derived once per spec object and kept in its __dict__, which
    # dataclasses.replace does not copy: every new spec object derives its own.
    @cached_property
    def _derivation(self):
        """The classical data, shared by validation and construction."""
        return _classical(self)

    @cached_property
    def _cybe(self):
        """The classical Yang-Baxter residual of r, read by validation and the suite's cybe."""
        return cybe_residual(self)


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    witness: Optional[str] = None


@dataclass(frozen=True)
class ValidationReport:
    spec_name: str
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


@dataclass(frozen=True, eq=False)
class DerivedStructure:
    """Everything computed from a valid spec.

    alpha_up[i] is the n-by-n matrix coupling H_i into the coproduct of the
    X generators; alpha_low re-expresses the family through the inverse of
    r, and carries one matrix per X index.  The bracket table lists
    [H_j, X_mu] as truncated pure-H series; its power-zero slice is B.
    `shared` holds the data HopfContext builds from all fields but spec; see there.
    """

    spec: AlgebraSpec
    alpha_up: tuple
    r_low: tuple
    alpha_low: tuple
    algebra: Algebra
    shared: dict = field(default_factory=dict, repr=False, compare=False)

    def hopf_data(self):
        """The dict in `shared` for this structure's fields but spec, frozen to key it."""
        key = (self.algebra,) + _frozen((self.alpha_up, self.r_low, self.alpha_low))
        return self.shared.setdefault(key, {})


def _alpha_h_matrix(algebra, alpha_up):
    hs, n = [Monomial.h_gen(algebra.m, algebra.n, i) for i in range(algebra.m)], range(algebra.n)
    rows = [[algebra.element({(1, h): a[mu][nu] for h, a in zip(hs, alpha_up)}) for nu in n] for mu in n]
    return SeriesMatrix._of(algebra, rows)


def _frozen(value):
    """Nested lists and tuples as nested tuples, which can key a dict."""
    return tuple(map(_frozen, value)) if isinstance(value, (list, tuple)) else value


def _fractions(nums, den):
    """Nested integer numerators over `den` as nested tuples of Fractions."""
    return tuple(_fractions(v, den) for v in nums) if isinstance(nums, (list, tuple)) else Q(nums, den)


def _clash(a, b):
    """The first entry (i, j), in row-major order, at which ``ab`` and ``ba`` differ, for square
    integer matrices; or None."""
    dims = range(len(a))
    return next(
        ((i, j) for i in dims for j in dims if sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in dims)),
        None,
    )


def classical_algebra(spec):
    """The undeformed enveloping algebra: bracket table pinned at power zero, ``B`` itself (`bracket_sums`)."""
    scratch = Algebra(spec.m, spec.n, spec.order, {})
    return Algebra(spec.m, spec.n, spec.order, bracket_sums(SeriesMatrix.identity(scratch, spec.n), spec.B))


class _Classical(NamedTuple):
    """The classical data of a spec, each missing part with its reason."""

    beta_clash: Optional[tuple]  # (mu, nu, entry) of two non-commuting betas
    r_low: Optional[tuple]
    r_defect: Optional[str]  # why r_low is None
    alpha_up: tuple
    alpha_low: Optional[tuple]
    # B, alpha_up and alpha_low (None without r_low) as integers, each over one denominator.
    nums: tuple


def _classical(spec):
    """Derive the classical data once, for validation and construction alike.

    B and r are scaled once to integers over one denominator each; every sum and test runs on
    those, and only the fields a derived structure keeps are made Fractions.
    """
    hs, xs = range(spec.m), range(spec.n)
    (B, b_den), (r, r_den) = linalg.integers(spec.B), linalg.integers(spec.r)
    beta = [[[B[i][j][mu] for j in hs] for i in hs] for mu in xs]  # beta[mu][i][j] = B[i][j][mu]
    beta_clash = next(
        ((mu, nu, hit) for mu in xs for nu in range(mu + 1, spec.n) if (hit := _clash(beta[mu], beta[nu]))),
        None,
    )
    # alpha_up[i][mu][nu] = sum_j r[j][mu] B[i][j][nu] / 2: `up` over 2 r_den b_den.
    up = [[[sum(r[j][mu] * b[j][nu] for j in hs) for nu in xs] for mu in xs] for b in B]
    r_low = r_defect = alpha_low = low = None
    if spec.m != spec.n:
        r_defect = f"r is {spec.m}x{spec.n}, not square"
    else:
        try:
            adj, d = linalg.inverse_nums(r)
        except SingularMatrixError:
            r_defect = "r is singular"
        else:
            # r^-1 = r_den adj / d, and r_low its transpose; alpha_low[mu] = sum_i r_low[i][mu]
            # alpha_up[i], where r_den cancels: `low` over 2 d b_den.
            r_low = _fractions([[r_den * adj[mu][i] for mu in xs] for i in hs], d)
            low = [[[sum(adj[mu][i] * up[i][rho][nu] for i in hs) for nu in xs] for rho in xs] for mu in xs]
            alpha_low = _fractions(low, 2 * d * b_den)
    return _Classical(beta_clash, r_low, r_defect, _fractions(up, 2 * r_den * b_den), alpha_low, (B, up, low))


def _require_classical(spec):
    """The classical data of a spec that can be quantized; raises otherwise."""
    classical = spec._derivation
    if classical.beta_clash is not None:
        mu, nu, bad = classical.beta_clash
        raise SpecError(
            f"Jacobi identity fails: beta[{mu}] and beta[{nu}] "
            f"do not commute at entry {bad}"
        )
    if spec.m != spec.n:
        raise DegenerateRMatrixError(
            "r must be square and invertible; only non-degenerate pairings "
            "are supported"
        )
    if classical.r_low is None:
        raise DegenerateRMatrixError(
            "r is singular; restrict the declaration to the subalgebra on "
            "which r is invertible before quantizing"
        )
    return classical


def deformed_algebra(m, n, order, alpha_up, B):
    """The algebra with ``[H_j, X_mu] = sum_nu f(2 alpha.H)^nu_mu B^i_{j,nu} H_i``, ``f(t) = (e^t - 1)/t``,
    ``alpha.H = sum_i alpha_up[i] h H_i``, and the powers ``(alpha.H)^k`` for k = 0..order on it.

    The series is pure-H: a scratch Abelian algebra sums it and the table (`bracket_sums`), on packed
    numerators, and its powers carry over as they are.
    """
    scratch = Algebra(m, n, order, {})
    powers = series_powers(_alpha_h_matrix(scratch, alpha_up))
    algebra = Algebra(m, n, order, bracket_sums(series_sum(expm1_over_t_coefficients(order), powers, 2), B))
    return algebra, [SeriesMatrix._of(algebra, [[e._on(algebra) for e in row] for row in p.entries]) for p in powers]


def derive_alpha(spec):
    """Derive the coupling matrices and the deformed bracket table (`deformed_algebra`).

    Requires the Jacobi identity (commuting beta matrices) and invertible r;
    raises SpecError or DegenerateRMatrixError otherwise.
    """
    classical = _require_classical(spec)
    algebra, powers = deformed_algebra(spec.m, spec.n, spec.order, classical.alpha_up, spec.B)
    derived = DerivedStructure(
        spec=spec,
        alpha_up=classical.alpha_up,
        r_low=classical.r_low,
        alpha_low=classical.alpha_low,
        algebra=algebra,
    )
    derived.hopf_data()["alpha_h_powers"] = powers
    return derived


def cybe_residual(spec):
    """Residual of the classical Yang-Baxter equation for r.

    Computes [[r, r]] = [r12, r13] + [r12, r23] + [r13, r23] in the third
    tensor power of the undeformed algebra, every term at deformation power
    zero.  A spec object computes it once, as ``spec._cybe``.
    """
    alg, terms = classical_algebra(spec), {}
    for i, row in enumerate(spec.r):
        for mu, c in enumerate(row):
            if c:
                h, x = Monomial.h_gen(spec.m, spec.n, i), Monomial.x_gen(spec.m, spec.n, mu)
                terms[0, (x, h)], terms[0, (h, x)] = c, -c
    two = alg.tensor_element(2, terms)
    r12, r13, r23 = (two.embed(3, legs) for legs in ((0, 1), (0, 2), (1, 2)))
    acc = {}
    # [a, b] = corr(a, b) - corr(b, a): the leading passes agree (`Algebra.mul_into`) and cancel.
    for a, b in ((r12, r13), (r12, r23), (r13, r23)):
        alg.mul_into(acc, a, b, part="corr")
        alg.mul_into(acc, b, a, -1, part="corr")
    return _from_parts(alg, 3, acc)


def _found(name, bad, witness):
    """A validation check that passes when its search found nothing.

    `witness` is a format string filled with the entries of what it found.
    """
    return ValidationCheck(name, bad is None, None if bad is None else witness.format(*bad))


def validate_spec(spec):
    """Run the classical precondition checks in a fixed order."""
    classical = spec._derivation
    B, up, low = classical.nums
    hs, xs = range(spec.m), range(spec.n)
    # Each search finds the first failing entry in loop order, or None, comparing integers over one
    # denominator.  Consistency asks sum_mu alpha_up[i][mu][nu] B[j][k][mu] to be symmetric in i and
    # j, so the first failure has i < j.
    consistency = next(
        (
            (i, j, k, nu)
            for i in hs
            for j in range(i + 1, spec.m)
            for k in hs
            for nu in xs
            if sum(up[i][mu][nu] * B[j][k][mu] - up[j][mu][nu] * B[i][k][mu] for mu in xs)
        ),
        None,
    )
    commute = next(
        ((i, j, hit) for i in hs for j in range(i + 1, spec.m) if (hit := _clash(up[i], up[j]))),
        None,
    )
    checks = [
        _found("jacobi", classical.beta_clash, "beta[{}] and beta[{}] disagree at entry {}"),
        ValidationCheck("invertible-r", classical.r_low is not None, classical.r_defect),
        _found("consistency", consistency, "indices (i,j,k,nu)=({}, {}, {}, {})"),
        _found("alpha-commute", commute, "alpha[{}] and alpha[{}] disagree at entry {}"),
    ]
    if low is None:
        checks.append(
            ValidationCheck("alpha-symmetry", False, "needs invertible r to lower indices")
        )
    else:
        symmetry = next(
            (
                (rho, muu, nu)
                for rho in xs
                for muu in xs
                for nu in range(muu + 1, spec.n)
                if low[muu][rho][nu] != low[nu][rho][muu]
            ),
            None,
        )
        checks.append(_found("alpha-symmetry", symmetry, "indices (rho,mu,nu)=({}, {}, {})"))

    first = spec._cybe.first_term()
    term = None if first is None else format_term(*first, spec.h_names, spec.x_names)
    witness = None if term is None else f"first surviving term: {term}"
    checks.append(ValidationCheck("cybe", first is None, witness))

    return ValidationReport(spec.name, tuple(checks))


def h_prime_rank(spec):
    """Dimension of the subspace of H reached by brackets with X.

    Returns (rank, witness): when the rank falls short of m the witness is a
    coefficient vector for a central element lying in the X part.
    """
    alpha_low, xs = _require_classical(spec).alpha_low, range(spec.n)
    stacked = [[alpha_low[sigma][muu][nu] for sigma in xs] for muu in xs for nu in xs]
    rank = linalg.rank(stacked)
    if rank >= spec.m:
        return rank, None
    kernel = linalg.nullspace(stacked)
    return rank, tuple(kernel[0]) if kernel else None


def scan_xi(spec, alpha_low):
    """The first scaled basis vector whose induced first-order map has full rank.

    Scans scales 1 and 1/2 of each canonical basis vector, index-major, for
    the couplings `alpha_low`; returns None when none has rank ``spec.m``.
    """
    for idx in range(spec.n):
        for scale in (Q(1), Q(1, 2)):
            mat = [
                [scale * alpha_low[sigma][muu][idx] for sigma in range(spec.n)]
                for muu in range(spec.n)
            ]
            if linalg.rank(mat) == spec.m:
                return tuple(scale if nu == idx else Q(0) for nu in range(spec.n))
    return None


def choose_xi(spec):
    """The classical basis coefficients: the declared xi, else `scan_xi`'s pick."""
    if spec.xi is not None:
        return spec.xi
    xi = scan_xi(spec, _require_classical(spec).alpha_low)
    if xi is not None:
        return xi
    rank, witness = h_prime_rank(spec)
    raise NoValidXiError(
        f"no scaled basis vector yields a full-rank classical basis "
        f"(reachable rank {rank} < {spec.m})",
        center_witness=witness,
    )


# -- presets -------------------------------------------------------------------


def _poincare_spec():
    # coupling matrices in the lifted basis (r = identity)
    a1 = [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
    a2 = [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
    a3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    alpha = [a1, a2, a3]
    B = [
        [[2 * alpha[i][j][mu] for mu in range(3)] for j in range(3)]
        for i in range(3)
    ]
    r = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    return AlgebraSpec(
        name="poincare-null-plane",
        m=3,
        n=3,
        B=B,
        r=r,
        xi=(0, 0, Q(1, 2)),
        order=4,
        h_names=("H1", "H2", "H3"),
        x_names=("X1", "X2", "X3"),
        metadata={
            "family": "null-plane",
            "physical-generators": (
                "H1=-z*E1, H2=-z*E2, H3=-z*P+, Y1=2*P1, Y2=2*P2, Y3=-2*K3"
            ),
            "deformation-scale": "z=1",
        },
    )


def _jordanian_spec():
    # rank-one Borel case; convention pinned by the classical bracket
    # [H, X] = 2 H, which makes it the size-1 member of the shift-ring family
    return AlgebraSpec(
        name="jordanian-borel",
        m=1,
        n=1,
        B=[[[2]]],
        r=[[1]],
        xi=(Q(1, 2),),
        order=6,
        h_names=("H",),
        x_names=("X",),
        metadata={"family": "borel"},
    )


def _shift_ring_spec(k):
    if k < 1:
        raise SpecError("shift-ring size must be positive")
    alpha = [
        [[1 if sigma == muu + nu else 0 for nu in range(k)] for sigma in range(k)]
        for muu in range(k)
    ]
    # raised = lowered with r = identity; B pinned by the classical limit
    B = [
        [[2 * alpha[i][j][mu] for mu in range(k)] for j in range(k)]
        for i in range(k)
    ]
    r = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    return AlgebraSpec(
        name=f"shift-ring({k})",
        m=k,
        n=k,
        B=B,
        r=r,
        xi=tuple(1 if mu == 0 else 0 for mu in range(k)),
        order=4,
        h_names=tuple(f"H{i}" for i in range(k)),
        x_names=tuple(f"X{i}" for i in range(k)),
        metadata={"family": "shift-ring", "size": str(k)},
    )


def preset(name):
    """Built-in algebra declarations.

    Accepted names: ``poincare-null-plane``, ``jordanian-borel``,
    ``shift-ring`` (size 3), or ``shift-ring(k)``.
    """
    if name == "poincare-null-plane":
        return _poincare_spec()
    if name == "jordanian-borel":
        return _jordanian_spec()
    if name == "shift-ring":
        return _shift_ring_spec(3)
    if name.startswith("shift-ring(") and name.endswith(")"):
        inner = name[len("shift-ring(") : -1]
        if inner.isdigit():
            return _shift_ring_spec(int(inner))
    raise SpecError(f"unknown preset {name!r}")


PRESET_NAMES = ("poincare-null-plane", "jordanian-borel", "shift-ring(3)")
