#!/usr/bin/env python3
"""Print the twist, its inverse, the R-matrix, the classical basis, and the
physical-basis tables for the null-plane preset at a small order."""

import sys
from pathlib import Path

# The checkout's sources, so that the script needs no installed package.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qtwist import build_context, choose_xi, exp_truncated, preset  # noqa: E402
from qtwist.algebra import format_term  # noqa: E402

ORDER = 3


def show(label, value, spec):
    print(f"{label} =")
    for key, coeff in value.sorted_terms():
        print("  " + format_term(key, coeff, spec.h_names, spec.x_names))
    print()


def main():
    spec = preset("poincare-null-plane").with_order(ORDER)
    ctx = build_context(spec)
    show("phi", ctx.phi, spec)
    show("F = phi^{-1}", ctx.phi_inverse, spec)
    show("R", ctx.universal_r, spec)
    xi = choose_xi(spec)
    for mu, k in enumerate(ctx.classical_K(xi)):
        show(f"K{mu + 1}  (xi={tuple(str(v) for v in xi)})", k, spec)
    ys = ctx.physical_basis()
    for nu, y in enumerate(ys):
        show(f"Y{nu + 1}", y, spec)
    h3 = ctx.lifted_h(2)
    show("[H^3, Y3]", h3 * ys[2] - ys[2] * h3, spec)
    show("2 sinh(H^3)", exp_truncated(h3) - exp_truncated(h3.scale(-1)), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
