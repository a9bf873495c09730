#!/usr/bin/env python3
"""Run every suite on every preset at its acceptance order and print reports.

Exit status is nonzero if any check fails anywhere.
"""

import sys

from qtwist import build_context, preset, validate_spec
from qtwist.cli import render_report_text, render_validation_text
from qtwist.verify import run_suite

RUNS = (
    ("poincare-null-plane", 4, "all"),
    ("poincare-null-plane", 5, "all"),
    ("poincare-null-plane", 6, "all"),
    ("jordanian-borel", 6, "all"),
    ("shift-ring(3)", 4, "all"),
)


def main():
    ok = True
    for name, order, suite in RUNS:
        spec = preset(name).with_order(order)
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
