#!/usr/bin/env python3
"""Run every suite on every preset at its acceptance order and print reports.

Also runs `shift-ring(4)` at order 5, a spec with no symmetry, so that qybe
sums every slice, and a null-plane spec rotated into a dense H basis (r != I),
read from ``tests/data/rotated-null-plane.json``.  After each run it prints
the run's wall time, its set-up time apart from its suite time (set-up is
`validate_spec`, `build_context`, the lifted twin and the twin's phi and R),
its process CPU time (user plus system, which drifts less than wall time on
a shared machine), all in ms, and the peak RSS of the process so far; the runs go up in
order, so the log shows memory by order.  It also prints the
generator relabelling whose orbits qybe and intertwining evaluated once, or
``none`` when they summed every part.  Exit status is nonzero if any check fails
anywhere, or if the peak RSS after null-plane N=7 is over
`N7_PEAK_LIMIT_MB`.
"""

import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The checkout's sources, so that the script needs no installed package.
sys.path.insert(0, str(ROOT / "src"))

from qtwist import build_context, parse_spec_file, preset, validate_spec  # noqa: E402
from qtwist.cli import render_report_text, render_validation_text  # noqa: E402
from qtwist.verify import orbit_symmetry, run_suite  # noqa: E402

ROTATED = ROOT / "tests" / "data" / "rotated-null-plane.json"

RUNS = (
    ("poincare-null-plane", 4, "all"),
    ("poincare-null-plane", 5, "all"),
    ("poincare-null-plane", 6, "all"),
    ("poincare-null-plane", 7, "all"),
    # No symmetry: every qybe slice is summed, past order 4.
    ("shift-ring(4)", 5, "all"),
    ("jordanian-borel", 6, "all"),
    ("shift-ring(3)", 4, "all"),
    (ROTATED, 3, "all"),
    (ROTATED, 4, "all"),
    (ROTATED, 5, "all"),
)

# Peak RSS bound in MB after null-plane N=7, which peaks at about 47 MB since
# qybe builds R12 R13 a level at a time (61 MB before; 64 MB before a clash on
# one leg read its block's rows; 76 MB before normal-ordering blocks and
# monomial coproducts were built only to the power their first use needs;
# 90 MB before normal ordering ran through derivations).
N7_PEAK_LIMIT_MB = 100


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main():
    ok = True
    for source, order, suite in RUNS:
        t0, c0 = time.perf_counter(), cpu_seconds()
        spec = parse_spec_file(source) if isinstance(source, Path) else preset(source)
        spec = spec.with_order(order)
        validation = validate_spec(spec)
        sys.stdout.write(render_validation_text(validation))
        ok &= validation.passed
        ctx = build_context(spec)
        # The suite's checks run on the lifted twin: build its phi and R here.
        twin = ctx.lifted
        twin.phi, twin.universal_r
        t1 = time.perf_counter()
        report = run_suite(ctx, suite)
        sys.stdout.write(render_report_text(report))
        # ru_maxrss is in KiB on Linux.
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        end, cpu = time.perf_counter(), cpu_seconds() - c0
        print(
            f"run {spec.name} N={order} {suite}: {(end - t0) * 1e3:.1f} ms wall "
            f"(set-up {(t1 - t0) * 1e3:.1f} ms, suite {(end - t1) * 1e3:.1f} ms), {cpu * 1e3:.0f} ms CPU, "
            f"peak RSS so far {peak:.0f} MB"
        )
        # The product checks run on the lifted twin, where the symmetry is sought.
        print(f"symmetry used by qybe and intertwining: {orbit_symmetry(ctx.lifted.universal_r) or 'none'}")
        if (source, order) == ("poincare-null-plane", 7) and peak > N7_PEAK_LIMIT_MB:
            print(f"peak RSS {peak:.0f} MB is over the {N7_PEAK_LIMIT_MB} MB bound for this run")
            ok = False
        sys.stdout.write("\n")
        ok &= report.passed
    print("VERIFICATION", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
