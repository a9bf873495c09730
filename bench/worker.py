"""One measured repeat of a workload, in a fresh process.

Usage: python3 bench/worker.py INPUTS.json --trace 0|1

Reads the inputs that `run.py` generated, drives the engine the way
``qtwist check --format machine`` does (spec -> validate_spec ->
build_context -> run_suite -> render_report_machine) at ``jobs=1``, checks
every outcome, and prints one JSON object as its last line of output.
Every engine function is looked up through its module at call time, so the
tracer's wrappers apply when ``--trace 1`` installs them.

Every worker runs the speed probe (speed.py) and reports its times at the
reference speed, with the unscaled verdict time beside them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import qtwist  # noqa: E402
import qtwist.cli  # noqa: E402
import qtwist.hopf  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

# Set-ups per untraced process; the last is the measured verdict's own.
# Their median is `setup_s`: one set-up (15-500 ms) spreads by +-40%.
SETUPS = 6

SETUP_BUILDS = (
    "phi",
    "phi_inverse",
    "universal_r",
    "exp_2alpha_h",
    "exp_neg2alpha_h",
    "one_minus_exp_neg2",
)


def load_spec(item):
    if "spec_path" in item:
        spec = qtwist.parse_spec_file(ROOT / item["spec_path"])
    else:
        spec = qtwist.preset(item["preset"])
    return spec.with_order(item["order"])


def set_up(item):
    """Spec to a validated context with the twist and R-matrix built."""
    spec = load_spec(item)
    validation = qtwist.validate_spec(spec)
    if not validation.passed:
        raise SystemExit(f"{spec.name}: validation failed: {validation.checks}")
    ctx = qtwist.build_context(spec)
    for name in SETUP_BUILDS:
        getattr(ctx, name)
    return ctx


def set_up_all(specs, spans):
    """Set up every spec, appending the (start, end) of the whole to `spans`."""
    t0 = time.perf_counter()
    contexts = [set_up(item) for item in specs]
    spans.append((t0, time.perf_counter()))
    return contexts


def failed_checks(text, reference):
    """Checks whose machine-report entry differs from the reference's.

    At least one when the bytes differ at all.
    """
    if text == reference:
        return 0
    got = json.loads(text)["checks"]
    want = json.loads(reference)["checks"]
    bad = sum(1 for g, w in zip(got, want) if g != w) + abs(len(got) - len(want))
    return max(bad, 1)


def run_genuine(inputs, setups):
    item = inputs["spec"]
    setup_spans = []
    for _ in range(setups - 1):
        set_up_all([item], setup_spans)
    (ctx,) = set_up_all([item], setup_spans)
    report = qtwist.run_suite(ctx, suite="all", jobs=1)
    t_suite = time.perf_counter()
    text = qtwist.cli.render_report_machine(report)
    end = time.perf_counter()

    if "reference" in inputs:
        reference = (BENCH / inputs["reference"]).read_text(encoding="utf-8")
        failed = failed_checks(text, reference)
    else:
        failed = sum(1 for r in report.results if not r.passed)
    start, t_setup = setup_spans[-1]
    return {
        "setup": setup_spans,
        "suite": [(t_setup, t_suite)],
        "verdict": (start, end),
        "ops": len(report.results),
        "op_spans": [],
        "failed": failed,
        "reports": [text],
        "contexts": [ctx],
        "mutated_contexts": [],
    }


def thaw(value):
    """Nested tuples to nested lists."""
    return [thaw(v) for v in value] if isinstance(value, tuple) else value


def mutate_tensor(tensor, index):
    """Add 1 to the coefficient of the index-th term, in sorted order."""
    key = sorted(tensor.terms)[index]
    terms = dict(tensor.terms)
    terms[key] = terms[key] + 1
    return tensor.algebra.tensor_element(tensor.legs, terms)


def run_mutant(ctx, mutant):
    """Apply one single-value mutation and run the whole suite on it.

    B and r mutations change the stored declaration only, so the stale
    derived structure no longer matches it and phi, F and R are rebuilt on
    a fresh context; phi and rmat mutations override the context's own.
    """
    target, at = mutant["target"], mutant["at"]
    if target in ("B", "r"):
        rows = thaw(getattr(ctx.spec, target))
        cell = rows
        for i in at[:-1]:
            cell = cell[i]
        cell[at[-1]] += 1
        spec = dataclasses.replace(ctx.spec, **{target: rows})
        mutated = qtwist.hopf.HopfContext(dataclasses.replace(ctx.derived, spec=spec))
        return mutated, qtwist.run_suite(mutated, suite="all", jobs=1)
    if target == "phi":
        return ctx, qtwist.run_suite(ctx, suite="all", jobs=1, phi=mutate_tensor(ctx.phi, at))
    return ctx, qtwist.run_suite(ctx, suite="all", jobs=1, rmat=mutate_tensor(ctx.universal_r, at))


def run_mutation_sweep(inputs, setups, keep_mutated):
    specs = inputs["specs"]
    setup_spans = []
    for _ in range(setups - 1):
        set_up_all(specs, setup_spans)
    contexts = set_up_all(specs, setup_spans)
    by_name = {item["preset"]: ctx for item, ctx in zip(specs, contexts)}
    op_spans, suite_spans, reports, mutated_contexts, failed = [], [], [], [], 0
    for mutant in inputs["mutants"]:
        t0 = time.perf_counter()
        mutated, report = run_mutant(by_name[mutant["preset"]], mutant)
        t1 = time.perf_counter()
        text = qtwist.cli.render_report_machine(report)
        op_spans.append((t0, time.perf_counter()))
        suite_spans.append((t0, t1))
        reports.append(text)
        if keep_mutated and mutated is not by_name[mutant["preset"]]:
            mutated_contexts.append(mutated)
        caught = [r for r in report.results if not r.passed]
        if not caught or not all(r.witness for r in caught):
            failed += 1
    return {
        "setup": setup_spans,
        "suite": suite_spans,
        "verdict": (setup_spans[-1][0], time.perf_counter()),
        "ops": len(op_spans),
        "op_spans": op_spans,
        "failed": failed,
        "reports": reports,
        "contexts": contexts,
        "mutated_contexts": mutated_contexts,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    # A traced process reports layers, not set-up time, so it sets up once
    # and its counts cover exactly one verdict.
    setups = 1 if tracer else SETUPS
    probe = SpeedProbe()
    probe.start()
    try:
        if inputs["kind"] == "genuine":
            run = run_genuine(inputs, setups)
        else:
            run = run_mutation_sweep(inputs, setups, keep_mutated=tracer is not None)
    finally:
        probe.stop()

    out = {
        "setup_s": [probe.seconds(*s) for s in run["setup"]],
        "suite_s": sum(probe.seconds(*s) for s in run["suite"]),
        "verdict_s": probe.seconds(*run["verdict"]),
        "verdict_raw_s": probe.raw_seconds(*run["verdict"]),
        "op_s": [probe.seconds(*s) for s in run["op_spans"]],
        "ops": run["ops"],
        "failed": run["failed"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": hashlib.sha256("".join(run["reports"]).encode("utf-8")).hexdigest(),
        "probes": len(probe.durations),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(run["contexts"], run["mutated_contexts"], probe.seconds)
        out["absent"] = tracer.absent
        tracer.uninstall()
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
