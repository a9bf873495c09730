"""Byte-for-byte pins of machine reports and machine expansions.

Each case renders one output and compares it with a file under
``tests/golden/``.  A change to term keys, witness selection or formatting
shows here as a diff.  Regenerate the files only for an intended change of
output: ``PYTHONPATH=src python tests/test_golden.py``.
"""

import io
from functools import lru_cache
from pathlib import Path

import pytest

from helpers import cached_context, mutate_tensor, rotated_null_plane_specs, stale_context
from qtwist import build_context
from qtwist.cli import main, render_report_machine
from qtwist.model import choose_xi
from qtwist.verify import run_suite

GOLDEN = Path(__file__).parent / "golden"


def _suite(name, order):
    return render_report_machine(run_suite(cached_context(name, order), "all"))


def _mutated_phi():
    ctx = cached_context("jordanian-borel", 4)
    bad = mutate_tensor(ctx.algebra, ctx.phi, max(ctx.phi.terms))
    return render_report_machine(run_suite(ctx, "all", phi=bad))


@lru_cache(maxsize=1)
def _rotated_context():
    """The first seeded rotated null-plane spec: r != I, a dense rational table."""
    return build_context(next(rotated_null_plane_specs(order=3)))


def _rotated(mutated):
    ctx = _rotated_context()
    if not mutated:
        return render_report_machine(run_suite(ctx, "all"))
    if mutated == "phi":
        bad = mutate_tensor(ctx.algebra, ctx.phi, sorted(ctx.phi.terms)[1])
        return render_report_machine(run_suite(ctx, "all", phi=bad))
    # Index 1 of the sorted terms is the first term of power 1.
    bad = mutate_tensor(ctx.algebra, ctx.universal_r, sorted(ctx.universal_r.terms)[1])
    return render_report_machine(run_suite(ctx, "all", rmat=bad))


def _rotated_stale(field, at, xi=None):
    """The rotated spec with one stored B or r entry raised by 1 after derivation.

    The spec has no xi, so without an override the classical basis scans the
    couplings the context was derived with, which are those of the genuine
    spec: the report equals the one with ``xi=choose_xi(genuine spec)``.
    """
    stale = stale_context(_rotated_context(), field, at)
    return render_report_machine(run_suite(stale, "all", xi=xi))


def _expand(expr):
    out = io.StringIO()
    argv = ["expand", "--preset", "poincare-null-plane", "--order", "2"]
    code = main(argv + ["--expr", expr, "--format", "machine"], out=out)
    assert code == 0
    return out.getvalue()


CASES = {
    "check-poincare-null-plane-n3": lambda: _suite("poincare-null-plane", 3),
    "check-jordanian-borel-n6": lambda: _suite("jordanian-borel", 6),
    "check-shift-ring3-n3": lambda: _suite("shift-ring(3)", 3),
    "check-jordanian-borel-n4-phi-mutated": _mutated_phi,
    "check-rotated-null-plane-n3": lambda: _rotated(False),
    "check-rotated-null-plane-n3-rmat-mutated": lambda: _rotated("rmat"),
    "check-rotated-null-plane-n3-phi-mutated": lambda: _rotated("phi"),
    "check-rotated-null-plane-n3-B-stale": lambda: _rotated_stale("B", (0, 1, 2)),
    "check-rotated-null-plane-n3-B-stale-xi": lambda: _rotated_stale(
        "B", (0, 1, 2), xi=choose_xi(_rotated_context().spec)
    ),
    "check-rotated-null-plane-n3-r-stale": lambda: _rotated_stale("r", (0, 1)),
    "check-rotated-null-plane-n3-r-stale-xi": lambda: _rotated_stale(
        "r", (0, 1), xi=choose_xi(_rotated_context().spec)
    ),
    "expand-phi": lambda: _expand("phi"),
    "expand-K": lambda: _expand("K"),
    "expand-coproduct-X1": lambda: _expand("coproduct:X1"),
}


@pytest.mark.parametrize("field, at", [("B", (0, 1, 2)), ("r", (0, 1))])
def test_stale_contexts_report_failing_checks(field, at):
    """A stale B or r fails checks, each with a witness, and raises nothing."""
    report = run_suite(stale_context(_rotated_context(), field, at), "all")
    failing = [r for r in report.results if not r.passed]
    assert failing and all(r.witness and r.residual_terms for r in failing)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    want = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert CASES[name]() == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, make in CASES.items():
        (GOLDEN / f"{name}.json").write_text(make(), encoding="utf-8")
