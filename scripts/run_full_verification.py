#!/usr/bin/env python3
"""Run every suite on every preset at its acceptance order and print reports.

Also runs a null-plane spec rotated into a dense H basis (r != I), read from
``tests/data/rotated-null-plane.json``.  Exit status is nonzero if any check
fails anywhere.
"""

import sys
from pathlib import Path

from qtwist import build_context, parse_spec_file, preset, validate_spec
from qtwist.cli import render_report_text, render_validation_text
from qtwist.verify import run_suite

ROTATED = Path(__file__).resolve().parents[1] / "tests" / "data" / "rotated-null-plane.json"

RUNS = (
    ("poincare-null-plane", 4, "all"),
    ("poincare-null-plane", 5, "all"),
    ("poincare-null-plane", 6, "all"),
    ("jordanian-borel", 6, "all"),
    ("shift-ring(3)", 4, "all"),
    (ROTATED, 3, "all"),
    (ROTATED, 4, "all"),
    (ROTATED, 5, "all"),
)


def main():
    ok = True
    for source, order, suite in RUNS:
        spec = parse_spec_file(source) if isinstance(source, Path) else preset(source)
        spec = spec.with_order(order)
        validation = validate_spec(spec)
        sys.stdout.write(render_validation_text(validation))
        ok &= validation.passed
        report = run_suite(build_context(spec), suite)
        sys.stdout.write(render_report_text(report))
        sys.stdout.write("\n")
        ok &= report.passed
    print("VERIFICATION", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
