"""Leg tables and block rows live as long as their algebra, so a second suite reuses them.

`Algebra.mul_into` keeps the tables it builds for clashes on two or more
legs on its algebra (`Algebra._tables`), and the block rows that a clash on
one leg reads (`Algebra._rows`).  A table depends only on the algebra, the
leg count and its key, and a block's rows on the algebra and its leg field,
so `all` run twice on one context builds no table and no rows the second time,
and both machine reports are byte-identical to that of a fresh context.  The
rotated spec's product checks run on its lifted twin.
"""

from pathlib import Path

import pytest

from qtwist import build_context, parse_spec_file, preset
from qtwist.algebra import Algebra
from qtwist.cli import render_report_machine
from qtwist.verify import run_suite

ROTATED = Path(__file__).parent / "data" / "rotated-null-plane.json"
SPECS = {
    "poincare-null-plane": lambda: preset("poincare-null-plane").with_order(4),
    "rotated-null-plane": lambda: parse_spec_file(ROTATED),
}


@pytest.mark.parametrize("name", SPECS)
def test_a_second_suite_on_one_context_builds_no_table(monkeypatch, name):
    builds, leg_table, block = [], Algebra._leg_table, Algebra._block

    def logged(self, legs, clash, key, room):
        builds.append(self)
        return leg_table(self, legs, clash, key, room)

    def logged_block(self, a, b, room):
        builds.append(self)
        return block(self, a, b, room)

    monkeypatch.setattr(Algebra, "_leg_table", logged)
    monkeypatch.setattr(Algebra, "_block", logged_block)
    ctx = build_context(SPECS[name]())
    report = run_suite(ctx, "all")
    assert report.passed and ctx.lifted.algebra in builds
    first = render_report_machine(report)
    assert (ctx.lifted is not ctx) == (name == "rotated-null-plane")
    builds.clear()
    second = render_report_machine(run_suite(ctx, "all"))
    assert builds == []
    fresh_ctx = build_context(SPECS[name]())
    fresh = render_report_machine(run_suite(fresh_ctx, "all"))
    assert fresh_ctx.lifted.algebra in builds
    assert first == second == fresh
