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
import itertools
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
    _table_entry,
    expm1_over_t_coefficients,
    format_term,
    series_powers,
    series_sum,
)
from .errors import (
    DegenerateRMatrixError,
    NoValidXiError,
    ShapeError,
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

    def alpha_h_matrix(self):
        """The matrix sum_i alpha_up[i] * h*H_i with entries in the algebra."""
        return _alpha_h_matrix(self.algebra, self.alpha_up)


def _alpha_h_matrix(algebra, alpha_up):
    m, n = algebra.m, algebra.n
    rows = []
    for muu in range(n):
        row = []
        for nu in range(n):
            terms = {(1, Monomial.h_gen(m, n, i)): alpha_up[i][muu][nu] for i in range(m)}
            row.append(algebra.element(terms))
        rows.append(row)
    return SeriesMatrix(rows)


def _frozen(value):
    """Nested lists and tuples as nested tuples, which can key a dict."""
    return tuple(map(_frozen, value)) if isinstance(value, (list, tuple)) else value


def _contract(mat, tensor):
    """``out[a] = sum_i mat[i][a] * tensor[i]`` over nested sequences of rationals.

    Only pairs of nonzero factors are multiplied; the result is nested tuples.
    """
    if isinstance(tensor[0], (list, tuple)):
        # Contract each slice tensor[:][j], then put the new index first again.
        return tuple(zip(*(_contract(mat, col) for col in zip(*tensor))))
    return tuple(sum((c * t for c, t in zip(col, tensor) if c and t), Q(0)) for col in zip(*mat))


def _r_low(spec):
    """r with lowered indices: the transpose of the inverse of r."""
    inv = linalg.inverse([list(row) for row in spec.r])
    return tuple(tuple(inv[mu][i] for mu in range(spec.n)) for i in range(spec.m))


def _mat_commute(a, b):
    """The first entry (i, j), in row-major order, at which ``ab`` and ``ba`` differ; or None."""
    ab, ba = _contract(tuple(zip(*a)), b), _contract(tuple(zip(*b)), a)
    return next(
        ((i, j) for i, j in itertools.product(range(len(a)), repeat=2) if ab[i][j] != ba[i][j]),
        None,
    )


def classical_algebra(spec):
    """The undeformed enveloping algebra: bracket table pinned at power zero."""
    table = {}
    for j in range(spec.m):
        for mu in range(spec.n):
            entry = {}
            for i in range(spec.m):
                c = spec.B[i][j][mu]
                if c:
                    entry[(0, Monomial.h_gen(spec.m, spec.n, i))] = c
            table[(j, mu)] = entry
    return Algebra(spec.m, spec.n, spec.order, table)


class _Classical(NamedTuple):
    """The classical data of a spec, each missing part with its reason."""

    beta_clash: Optional[tuple]  # (mu, nu, entry) of two non-commuting betas
    r_low: Optional[tuple]
    r_defect: Optional[str]  # why r_low is None
    alpha_up: tuple
    alpha_low: Optional[tuple]


def _classical(spec):
    """Derive the classical data once, for validation and construction alike."""
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
            r_low = _r_low(spec)
        except SingularMatrixError:
            r_defect = "r is singular"
    alpha_up = tuple(_frozen([[v / 2 for v in row] for row in _contract(spec.r, b)]) for b in spec.B)
    if r_low is not None:
        alpha_low = _contract(r_low, alpha_up)
    return _Classical(beta_clash, r_low, r_defect, alpha_up, alpha_low)


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


def derive_alpha(spec):
    """Derive the coupling matrices and the deformed bracket table.

    Requires the Jacobi identity (commuting beta matrices) and invertible r;
    raises SpecError or DegenerateRMatrixError otherwise.
    """
    classical = _require_classical(spec)
    # Build [H_j, X_mu] = sum_nu f(2 alpha.H)^nu_mu B^i_{j,nu} H_i with
    # f(t) = (e^t - 1)/t, in a scratch copy of the Abelian algebra (the
    # series is pure-H, so no bracket is ever consulted while building it).
    scratch = Algebra(spec.m, spec.n, spec.order, {})
    powers = series_powers(_alpha_h_matrix(scratch, classical.alpha_up))
    f_matrix = series_sum(expm1_over_t_coefficients(spec.order), powers, 2)
    table = {}
    for j in range(spec.m):
        for mu in range(spec.n):
            acc = scratch.zero()
            for nu in range(spec.n):
                entry = f_matrix.entry(nu, mu)
                if entry.is_zero():
                    continue
                for i in range(spec.m):
                    c = spec.B[i][j][nu]
                    if c:
                        acc = acc + (entry * scratch.h(i)).scale(c)
            table[(j, mu)] = _table_entry(acc)
    algebra = Algebra(spec.m, spec.n, spec.order, table)
    derived = DerivedStructure(
        spec=spec,
        alpha_up=classical.alpha_up,
        r_low=classical.r_low,
        alpha_low=classical.alpha_low,
        algebra=algebra,
    )
    # The powers of alpha.H are pure-H, so they carry over to the context as they are.
    derived.hopf_data()["alpha_h_powers"] = [
        SeriesMatrix([[e._on(algebra) for e in row] for row in p.entries]) for p in powers
    ]
    return derived


def cybe_residual(spec):
    """Residual of the classical Yang-Baxter equation for r.

    Computes [[r, r]] = [r12, r13] + [r12, r23] + [r13, r23] in the third
    tensor power of the undeformed algebra, every term at deformation power
    zero.  A spec object computes it once, as ``spec._cybe``.
    """
    alg = classical_algebra(spec)
    acc = {}
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


def _found(name, bad, witness):
    """A validation check that passes when its search found nothing.

    `witness` is a format string filled with the entries of what it found.
    """
    return ValidationCheck(name, bad is None, None if bad is None else witness.format(*bad))


def validate_spec(spec):
    """Run the classical precondition checks in a fixed order."""
    classical = spec._derivation
    alpha_up, alpha_low = classical.alpha_up, classical.alpha_low
    hs, xs = range(spec.m), range(spec.n)
    # Each search finds the first failing entry in loop order, or None.
    # acted[i][j * m + k][nu] = sum_mu alpha_up[i][mu][nu] B[j][k][mu].
    acted = [_contract(tuple(zip(*(bj for b in spec.B for bj in b))), a) for a in alpha_up]
    consistency = next(
        (
            (i, j, k, nu)
            for i, j, k, nu in itertools.product(hs, hs, hs, xs)
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
        _found("jacobi", classical.beta_clash, "beta[{}] and beta[{}] disagree at entry {}"),
        ValidationCheck("invertible-r", classical.r_low is not None, classical.r_defect),
        _found("consistency", consistency, "indices (i,j,k,nu)=({}, {}, {}, {})"),
        _found("alpha-commute", commute, "alpha[{}] and alpha[{}] disagree at entry {}"),
    ]
    if alpha_low is None:
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
                if alpha_low[muu][rho][nu] != alpha_low[nu][rho][muu]
            ),
            None,
        )
        checks.append(_found("alpha-symmetry", symmetry, "indices (rho,mu,nu)=({}, {}, {})"))

    first = spec._cybe.first_term()
    term = None if first is None else format_term(*first, spec.h_names, spec.x_names)
    witness = None if term is None else f"first surviving term: {term}"
    checks.append(ValidationCheck("cybe", first is None, witness))

    return ValidationReport(spec.name, tuple(checks))


def _stacked_alpha_low(spec, alpha_low):
    rows = []
    for muu in range(spec.n):
        for nu in range(spec.n):
            rows.append([alpha_low[sigma][muu][nu] for sigma in range(spec.n)])
    return rows


def h_prime_rank(spec):
    """Dimension of the subspace of H reached by brackets with X.

    Returns (rank, witness): when the rank falls short of m the witness is a
    coefficient vector for a central element lying in the X part.
    """
    stacked = _stacked_alpha_low(spec, _require_classical(spec).alpha_low)
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
