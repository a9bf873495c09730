"""qtwist benchmark: time to a verdict of ``check --suite all``.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then runs measured repeats,
each in a fresh ``bench/worker.py`` process, one after another (a closed
loop with one client at ``jobs=1``) until S seconds have passed.  Prints
the drawn inputs and the sample counts, then, as the last line, one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer metrics
of the traced repeats (``--trace 1``).  Exits non-zero without a result
line when the engine cannot be found or a worker fails.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("nullplane-n5", "rotated-n3", "mutation-sweep")
# A worker that runs longer than this has hung; a whole run is meant to end
# within three minutes.
WORKER_TIMEOUT = 150
# No repeat starts once this much of a run is spent.
RUN_BUDGET = 120


def run_worker(inputs_path, trace):
    cmd = [sys.executable, str(BENCH / "worker.py"), str(inputs_path), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(inputs_path, seconds, traces):
    """Run cycles of workers, one per entry of `traces`, until `seconds` pass.

    Stops only after a whole cycle, so every kind of repeat runs as often,
    and starts no cycle that would end after RUN_BUDGET seconds.  A cycle
    longer than `seconds` (one null-plane N=5 verdict) runs once.
    """
    results = {t: [] for t in traces}
    start = time.monotonic()
    cycles = 0
    while True:
        for t in traces:
            results[t].append(run_worker(inputs_path, t))
        cycles += 1
        spent = time.monotonic() - start
        if spent >= seconds or spent * (cycles + 1) / cycles > RUN_BUDGET:
            return results


def tail_percentile(samples):
    """The highest of p90, p75 with at least ten samples beyond it."""
    for p in (90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None, None


def end_to_end(runs):
    setups = [s for r in runs for s in r["setup_s"]]
    ops = [s for r in runs for s in r["op_s"]]  # mutant latencies
    metrics = {
        "verdict_s": (statistics.median(r["verdict_s"] for r in runs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "suite_s": (statistics.median(r["suite_s"] for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "ops_per_s": (statistics.median(r["ops"] / r["suite_s"] for r in runs), "1/s"),
    }
    samples = {
        "repeats": len(runs),
        "setups": len(setups),
        "probes": sum(r["probes"] for r in runs),
        "verdict_raw_s": statistics.median(r["verdict_raw_s"] for r in runs),
    }
    if ops:
        samples["mutants"] = len(ops)
        samples["op_s_p50"] = statistics.median(ops)
        p, tail = tail_percentile(ops)
        if p is not None:
            samples[f"op_s_p{p}"] = tail
    return metrics, samples


def per_layer(traced, untraced):
    first = traced[0]["layers"]
    metrics = {}
    for name, value in first.items():
        if name.endswith("_s"):
            value = statistics.median(r["layers"][name] for r in traced)
            unit = "s"
        elif name.endswith(".reuse"):
            unit = "ratio"
        else:
            unit = "count"
        metrics[name] = (value, unit)
    overhead = statistics.median(r["verdict_s"] for r in traced) - statistics.median(
        r["verdict_s"] for r in untraced
    )
    metrics["trace.overhead_s"] = (overhead, "s")
    counts = [{k: v for k, v in r["layers"].items() if not k.endswith("_s")} for r in traced]
    return metrics, all(c == counts[0] for c in counts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qtwist" / "__init__.py").is_file():
        print(f"error: no qtwist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from inputs import make_inputs

    workdir = ROOT / ".bench_build" / f"qtwist-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.monotonic()
        inputs, record = make_inputs(args.workload, args.seed, workdir, ROOT)
        inputs_path = workdir / "inputs.json"
        inputs_path.write_text(json.dumps(inputs, indent=1), encoding="utf-8")
        record["generate_s"] = round(time.monotonic() - t0, 3)
        print("inputs: " + json.dumps(record, sort_keys=True), flush=True)

        traces = (0, 1) if args.trace else (0,)
        results = repeat(inputs_path, args.seconds, traces)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = [r for runs in results.values() for r in runs]
    attempted = sum(r["ops"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    # Every repeat, traced or not, must render byte-identical reports.
    first = results[0][0]["digest"]
    differing = [r for r in everything if r["digest"] != first]
    if differing:
        print(f"{len(differing)} repeats rendered other reports than the first", file=sys.stderr)
        failed += sum(r["ops"] for r in differing)
    correct = failed == 0

    if args.trace:
        metrics, counts_repeat = per_layer(results[1], results[0])
        absent = sorted({a for r in results[1] for a in r["absent"]})
        print("trace: " + json.dumps({"absent": absent, "counts_repeat": counts_repeat}), flush=True)
    else:
        metrics, samples = end_to_end(results[0])
        print("samples: " + json.dumps(samples, sort_keys=True), flush=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
