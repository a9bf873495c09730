"""Command-line surface: validate, check, expand.

Exit codes: 0 success, 1 a validation or suite check failed, 2 usage or
parse errors.  Machine-format output is byte-stable across runs: keys are
sorted and timings are suppressed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import format_term
from .errors import (
    NoValidXiError,
    QTwistError,
    SpecError,
    SpecFileError,
    UnsupportedPresetError,
)
from .hopf import build_context
from .model import choose_xi, preset, validate_spec
from .specfile import parse_spec_file
from .verify import SUITES, run_suite


def _load_spec(args, parser):
    if getattr(args, "preset", None):
        try:
            return preset(args.preset)
        except SpecError as exc:
            parser.error(str(exc))
    if getattr(args, "path", None):
        return parse_spec_file(args.path)
    parser.error("give a spec file path or --preset NAME")


def _term_document(key, coeff):
    power, monos = key
    return {
        "power": power,
        "coeff": str(coeff),
        "legs": [{"H": list(mo.h), "X": list(mo.x)} for mo in monos],
    }


def _print_expansion(name, spec, obj, fmt, out):
    elements = obj if isinstance(obj, dict) else {name: obj}
    if fmt == "machine":
        docs = {label: [_term_document(k, c) for k, c in el.sorted_terms()] for label, el in elements.items()}
        doc = {"expr": name, "spec": spec.name, "order": spec.order, "elements": docs}
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return
    for label, value in elements.items():
        terms = value.sorted_terms()
        out.write(f"{label} =\n")
        if not terms:
            out.write("  0\n")
        for key, coeff in terms:
            out.write(
                "  " + format_term(key, coeff, spec.h_names, spec.x_names) + "\n"
            )


def _report_document(report, machine):
    checks = []
    for r in report.results:
        checks.append(
            {
                "name": r.name,
                "status": "pass" if r.passed else "fail",
                "residual_terms": r.residual_terms,
                "elapsed_ms": 0 if machine else r.elapsed_ms,
                "witness": r.witness,
            }
        )
    return {
        "spec": report.spec_name,
        "order": report.order,
        "suite": report.suite,
        "overall": "pass" if report.passed else "fail",
        "checks": checks,
    }


def render_report_machine(report):
    """Byte-stable JSON rendering (timings pinned to zero)."""
    return json.dumps(_report_document(report, machine=True), indent=2, sort_keys=True) + "\n"


def render_report_text(report):
    lines = [f"spec: {report.spec_name}   order: {report.order}   suite: {report.suite}"]
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name:28s} residual_terms={r.residual_terms}  {r.elapsed_ms} ms"
        lines.append(line)
        if r.witness:
            lines.append(f"     witness: {r.witness}")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def render_validation_text(report):
    lines = [f"spec: {report.spec_name}"]
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        line = f"{status} {c.name}"
        if c.witness:
            line += f"  ({c.witness})"
        lines.append(line)
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def cmd_validate(args, parser, out):
    spec = parse_spec_file(args.path)
    report = validate_spec(spec)
    out.write(render_validation_text(report))
    return 0 if report.passed else 1


def _load_context(args, parser, out):
    """Load the spec at the requested order, validate it and build its context.

    Returns None after printing the validation report of an invalid spec.
    """
    spec = _load_spec(args, parser)
    if args.order is not None:
        spec = spec.with_order(args.order)
    validation = validate_spec(spec)
    if not validation.passed:
        out.write(render_validation_text(validation))
        return None
    return build_context(spec)


def cmd_check(args, parser, out):
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, not {args.jobs}")
    ctx = _load_context(args, parser, out)
    if ctx is None:
        return 1
    try:
        report = run_suite(ctx, suite=args.suite, jobs=args.jobs)
    except UnsupportedPresetError as exc:
        parser.error(str(exc))
    if args.format == "machine":
        out.write(render_report_machine(report))
    else:
        out.write(render_report_text(report))
    return 0 if report.passed else 1


def cmd_expand(args, parser, out):
    ctx = _load_context(args, parser, out)
    if ctx is None:
        return 1
    spec, expr = ctx.spec, args.expr
    if expr == "phi":
        obj = ctx.phi
    elif expr == "F":
        obj = ctx.phi_inverse
    elif expr == "rmat":
        obj = ctx.universal_r
    elif expr == "K":
        try:
            xi = choose_xi(spec)
        except NoValidXiError as exc:
            out.write(f"no valid xi: {exc}\n")
            return 1
        ks = ctx.classical_K(xi)
        obj = {f"K{mu + 1}": k for mu, k in enumerate(ks)}
    elif expr.startswith("coproduct:"):
        gen = expr.split(":", 1)[1]
        gens = dict(ctx.generator_elements())
        if gen not in gens:
            parser.error(f"unknown generator {gen!r}; choose from {', '.join(gens)}")
        obj = ctx.coproduct(gens[gen])
    else:
        parser.error(f"unknown expression {expr!r}")
    _print_expansion(expr, spec, obj, args.format, out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qtwist",
        description=(
            "Exact construction and verification of twist-generated "
            "quantizations of semidirect sums of Abelian Lie algebras."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="run the classical precondition checks")
    p_val.add_argument("path", help="spec file (JSON)")

    p_chk = sub.add_parser("check", help="run a verification suite")
    p_chk.add_argument("path", nargs="?", help="spec file (JSON)")
    p_chk.add_argument("--preset", help="built-in spec name")
    p_chk.add_argument("--suite", choices=SUITES, default="all")
    p_chk.add_argument("--order", type=int, default=None)
    p_chk.add_argument("--format", choices=("text", "machine"), default="text")
    p_chk.add_argument(
        "--jobs", type=int, default=1, help="accepted; checks always run serially"
    )

    p_exp = sub.add_parser("expand", help="print a named expansion")
    p_exp.add_argument("path", nargs="?", help="spec file (JSON)")
    p_exp.add_argument("--preset", help="built-in spec name")
    p_exp.add_argument(
        "--expr",
        required=True,
        help="phi | F | rmat | K | coproduct:GEN",
    )
    p_exp.add_argument("--order", type=int, default=None)
    p_exp.add_argument("--format", choices=("text", "machine"), default="text")
    return parser


def main(argv=None, out=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out or sys.stdout
    handlers = {"validate": cmd_validate, "check": cmd_check, "expand": cmd_expand}
    try:
        return handlers[args.command](args, parser, out)
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QTwistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
