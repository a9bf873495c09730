"""The classical set-up on integer numerators equals the Fraction route it replaced.

`model._classical` scales B and r once to integers over one denominator
each, `validate_spec` searches those integers, `linalg.inverse` eliminates on
integer numerators, and `cybe_residual` sums only the correction passes of
its products, since ``lead(a, b) == lead(b, a)``.  `tests/helpers.py` keeps
the Fraction route as the oracle (`fraction_classical`, `fraction_validation`,
`full_product_cybe`, `fraction_inverse`).  For the presets, the rotated spec
file, random valid specs, seeded mutants with fractional entries, and specs
with a singular, a non-square and an all-zero part, the classical fields,
the validation report's text, the cybe residual and the inverses must be
equal.
"""

import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from helpers import (
    fraction_classical,
    fraction_inverse,
    fraction_validation,
    fractional_mutants,
    full_product_cybe,
    random_valid_spec_2d,
    random_valid_spec_3d,
)
from qtwist import AlgebraSpec, linalg, model, parse_spec_file, preset, validate_spec
from qtwist.algebra import Algebra
from qtwist.cli import render_validation_text
from qtwist.errors import SingularMatrixError
from qtwist.model import PRESET_NAMES

DATA = Path(__file__).parent / "data"
_ROTATED_R = [[2, 1, Q(-1, 2)], [0, 0, Q(1, 2)], [1, 1, Q(-1, 2)]]


def _bases():
    """The specs whose fractional mutants are drawn."""
    specs = [preset(name) for name in PRESET_NAMES + ("shift-ring(4)",)]
    return specs + [parse_spec_file(DATA / "rotated-null-plane.json")]


SPECS = {spec.name: lambda spec=spec: spec for spec in _bases()}
SPECS.update(
    (f"random-2d-{seed}", lambda seed=seed: random_valid_spec_2d(random.Random(seed))) for seed in range(3)
)
SPECS.update(
    (f"random-3d-{seed}", lambda seed=seed: random_valid_spec_3d(random.Random(seed))) for seed in range(2)
)
SPECS.update(
    {
        "zero-r": lambda: AlgebraSpec(
            name="zero-r", m=2, n=2, B=[[[1, 0], [0, 0]], [[0, 0], [0, 2]]], r=[[0, 0], [0, 0]], order=2
        ),
        "wide-r": lambda: AlgebraSpec(name="wide-r", m=1, n=2, B=[[[2, Q(1, 3)]]], r=[[1, Q(-1, 2)]], order=2),
        "zero-B": lambda: AlgebraSpec(name="zero-B", m=3, n=3, B=[[[0] * 3] * 3] * 3, r=_ROTATED_R, order=2),
    }
)
MUTANTS = [mutant for index, base in enumerate(_bases()) for mutant in fractional_mutants(base, index, 12)]
CASES = [(name, make()) for name, make in SPECS.items()] + [(m.name, m) for m in MUTANTS]


@pytest.mark.parametrize("name, spec", CASES, ids=[name for name, _ in CASES])
def test_the_integer_route_equals_the_fraction_route(name, spec):
    classical = model._classical(spec)
    assert classical[:5] == fraction_classical(spec)
    assert render_validation_text(validate_spec(spec)) == render_validation_text(fraction_validation(spec))
    oracle = full_product_cybe(spec)
    assert spec._cybe == oracle and spec._cybe.first_term() == oracle.first_term()
    try:
        want = fraction_inverse(spec.r)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            linalg.inverse(spec.r)
    else:
        assert linalg.inverse(spec.r) == want


def test_the_inputs_reach_every_failing_check_and_both_r_defects():
    reports = [validate_spec(spec) for _, spec in CASES]
    failed = {c.name for report in reports for c in report.checks if not c.passed}
    assert failed == {"jacobi", "invertible-r", "consistency", "alpha-commute", "alpha-symmetry", "cybe"}
    defects = {c.witness for report in reports for c in report.checks if c.name == "invertible-r"}
    assert {"r is singular", "r is 1x2, not square"} <= defects
    assert sum(not report.passed for report in reports) >= len(MUTANTS) // 2
    assert any(report.passed for report in reports[len(SPECS) :])


def test_inverses_of_random_rational_matrices_equal_the_fraction_route():
    rng = random.Random(11)
    singular = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[Q(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
        try:
            want = fraction_inverse(rows)
        except SingularMatrixError:
            singular += 1
            with pytest.raises(SingularMatrixError):
                linalg.inverse(rows)
            continue
        assert linalg.inverse(rows) == want
    assert 20 < singular < 150


def test_cybe_sums_only_correction_passes(monkeypatch):
    """[[r, r]] adds corr(a, b) - corr(b, a) for each pair: no product runs its leading pass."""
    parts, mul_into = [], Algebra.mul_into

    def recorded(self, acc, a, b, scale=1, part=None, order=None):
        parts.append(part)
        return mul_into(self, acc, a, b, scale, part, order)

    monkeypatch.setattr(Algebra, "mul_into", recorded)
    spec = parse_spec_file(DATA / "rotated-null-plane-r-bumped.json")
    assert not model.cybe_residual(spec).is_zero()
    assert parts == ["corr"] * 6
