"""One classical derivation per spec object, shared by validation and construction.

`validate_spec`, `derive_alpha` (through `build_context`), `choose_xi` and
`h_prime_rank` all read the classical data that `model._classical` derives,
kept on the spec object.  Nothing is cached by spec contents: a
`dataclasses.replace` copy, such as a B mutant, and a second spec object
with equal fields each derive their own.  The derivation's sums multiply
only nonzero factors, so the dense sums are their oracle, and invalid specs
keep their validation reports and their construction errors.
"""

import dataclasses
from pathlib import Path

import pytest

from helpers import classical_oracle, rotated_null_plane_specs
from qtwist import AlgebraSpec, build_context, parse_spec_file, preset, validate_spec
from qtwist import model
from qtwist.cli import render_validation_text
from qtwist.errors import DegenerateRMatrixError, SpecError
from qtwist.model import PRESET_NAMES, choose_xi, h_prime_rank, scan_xi
from qtwist.verify import run_suite


ROTATED = Path(__file__).parent / "data" / "rotated-null-plane.json"


@pytest.fixture
def derivations(monkeypatch):
    """The specs `model._classical` derives, in call order."""
    calls, derive = [], model._classical

    def counted(spec):
        calls.append(spec)
        return derive(spec)

    monkeypatch.setattr(model, "_classical", counted)
    return calls


def _spec():
    # No declared xi, so choose_xi scans the couplings.
    return dataclasses.replace(preset("poincare-null-plane").with_order(3), xi=None)


def test_validation_construction_and_xi_derive_once(derivations):
    spec = _spec()
    assert validate_spec(spec).passed
    ctx = build_context(spec)
    assert choose_xi(spec) == scan_xi(spec, ctx.derived.alpha_low) is not None
    assert h_prime_rank(spec) == (3, None)
    assert run_suite(ctx, "classical").passed
    assert len(derivations) == 1 and derivations[0] is spec


def test_a_suite_on_a_lifted_twin_derives_nothing_more(derivations):
    spec = parse_spec_file(ROTATED)
    assert validate_spec(spec).passed
    ctx = build_context(spec)
    assert ctx.lifted is not ctx
    assert run_suite(ctx, "all").passed
    assert len(derivations) == 1 and derivations[0] is spec


def test_each_new_spec_object_derives_its_own(derivations):
    spec = _spec()
    validate_spec(spec)
    build_context(spec)
    B = [[list(row) for row in block] for block in spec.B]
    B[1][0][2] += 1
    mutant = dataclasses.replace(spec, B=B)
    assert not validate_spec(mutant).passed
    # Equal fields, another object: no cache keyed by contents may serve it.
    again = _spec()
    assert again == spec and again is not spec
    validate_spec(again)
    build_context(again)
    assert len(derivations) == 3
    assert all(got is want for got, want in zip(derivations, (spec, mutant, again)))


SPECS = {name: lambda name=name: preset(name) for name in PRESET_NAMES}
SPECS.update(
    (f"rotated{index}", lambda index=index: list(rotated_null_plane_specs())[index])
    for index in range(5)
)


@pytest.mark.parametrize("name", SPECS)
def test_the_shared_derivation_equals_a_fresh_one_and_the_dense_sums(name):
    spec = SPECS[name]()
    assert validate_spec(spec).passed
    ctx = build_context(spec)
    shared = spec._derivation
    assert shared == model._classical(spec)
    assert (shared.alpha_up, shared.r_low, shared.alpha_low) == classical_oracle(spec)
    derived = ctx.derived
    assert derived.alpha_up is shared.alpha_up and derived.alpha_low is shared.alpha_low


_DENSE_B = [
    [[1, 0, 2], [0, -1, 0], [1, 1, 0]],
    [[0, 2, 0], [1, 0, -1], [0, 0, 1]],
    [[-1, 0, 0], [0, 1, 1], [2, 0, 0]],
]
# Each spec with its validation report and the error build_context raises.
INVALID = {
    "jacobi": (
        AlgebraSpec(name="dense-bad", m=3, n=3, B=_DENSE_B, r=[[1, 2, 0], [0, 1, -1], [1, 0, 1]], order=2),
        "spec: dense-bad\n"
        "FAIL jacobi  (beta[0] and beta[1] disagree at entry (0, 0))\n"
        "PASS invertible-r\n"
        "FAIL consistency  (indices (i,j,k,nu)=(0, 1, 0, 0))\n"
        "FAIL alpha-commute  (alpha[0] and alpha[1] disagree at entry (0, 0))\n"
        "FAIL alpha-symmetry  (indices (rho,mu,nu)=(0, 0, 1))\n"
        "FAIL cybe  (first surviving term: -1 * X3 ⊗ H3 ⊗ H2)\n"
        "overall: FAIL\n",
        SpecError,
        "Jacobi identity fails: beta[0] and beta[1] do not commute at entry (0, 0)",
    ),
    "singular-r": (
        AlgebraSpec(name="sing", m=2, n=2, B=[[[1, 0], [0, 0]], [[0, 0], [0, 2]]], r=[[-1, 0], [1, 0]], order=2),
        "spec: sing\n"
        "PASS jacobi\n"
        "FAIL invertible-r  (r is singular)\n"
        "FAIL consistency  (indices (i,j,k,nu)=(0, 1, 0, 1))\n"
        "FAIL alpha-commute  (alpha[0] and alpha[1] disagree at entry (0, 1))\n"
        "FAIL alpha-symmetry  (needs invertible r to lower indices)\n"
        "FAIL cybe  (first surviving term: X1 ⊗ H2 ⊗ H1)\n"
        "overall: FAIL\n",
        DegenerateRMatrixError,
        "r is singular; restrict the declaration to the subalgebra on which r is "
        "invertible before quantizing",
    ),
}


@pytest.mark.parametrize("name", INVALID)
def test_invalid_specs_keep_their_reports_and_errors(name, derivations):
    spec, report, error, message = INVALID[name]
    spec = dataclasses.replace(spec)
    assert render_validation_text(validate_spec(spec)) == report
    with pytest.raises(error) as err:
        build_context(spec)
    assert str(err.value) == message
    assert len(derivations) == 1
