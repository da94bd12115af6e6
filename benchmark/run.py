#!/usr/bin/env python3
"""Benchmark of phasefuse: run one workload and print one JSON result line.

    python3 benchmark/run.py --workload fig1 --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. Workloads (see workloads.py): fig1,
feedback, verify. With ``--trace 0`` the last stdout line holds every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric, from a
fixed number of passes, each run untraced and then with spans recorded. A
fuller record (environment, failure counts, spans) goes to
``benchmark/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

WORKLOAD_NAMES = ("fig1", "feedback", "verify")
# Default BLAS threading makes a feedback cycle at N = 60..100 several times
# slower and unsteady on small machines, too slow to time 200 cycles in a
# run; that workload runs with BLAS pinned. The rest run as shipped.
BLAS_PINNED_WORKLOADS = ("feedback",)
# Must be in the environment before numpy loads OpenBLAS.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "var_over_bound": "ratio",
}
# Percentiles need at least ten samples beyond them (p95: 200 ops).
MIN_LATENCY_SAMPLES = 200
SETUP_REPEATS = 9
PINNED_REFERENCE_PASSES = 2
CHILD_TIMEOUT_S = 120
MAX_REPORTED_MISMATCHES = 20

# Set-up as a fresh process pays it: import phasefuse, then one warm-up op.
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import workloads
workloads.WORKLOADS[sys.argv[2]](int(sys.argv[3])).warmup()
print(repr(time.perf_counter() - t0))
"""


def percentile(samples: list[float], q: int) -> float | None:
    """The q-th percentile, or None when fewer than ten samples lie beyond it."""
    if len(samples) * (100 - q) < 1000:
        return None
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


@dataclass
class Tally:
    latencies: list = field(default_factory=list)
    pass_times: list = field(default_factory=list)
    units: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)
    mismatch_count: int = 0
    qualities: list = field(default_factory=list)  # one list per pass
    output_bytes: int = 0

    @property
    def op_time(self) -> float:
        return sum(self.pass_times)


def run_pass(wl, p: int, t: Tally, tracer=None) -> None:
    """Run pass ``p`` of ``wl`` into ``t``. Only the ops themselves are
    timed; making their inputs and checking their outputs is not."""
    import workloads

    latencies, qualities = [], []
    for i, op in enumerate(wl.pass_ops(p)):
        if tracer is not None:
            tracer.current_op = len(t.latencies) + i
            tracer.recording = True
            root = tracer.open("op")
        t0 = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # a failed op is counted, not fatal
            out, error = None, exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
            tracer.recording = False
        latencies.append(dt)
        try:
            if error is not None:
                raise error
            o = op.check(out)
        except Exception as exc:
            o = workloads.Outcome(wl.units_per_op, wl.units_per_op, (repr(exc),))
        t.units += o.units
        t.failed += o.failed
        t.mismatch_count += len(o.mismatches)
        room = MAX_REPORTED_MISMATCHES - len(t.mismatches)
        t.mismatches.extend(f"pass {p} op {i}: {m}" for m in o.mismatches[:room])
        if o.quality is not None:
            qualities.append(o.quality)
        t.output_bytes += o.output_bytes
    t.latencies.extend(latencies)
    t.pass_times.append(sum(latencies))
    t.qualities.append(qualities)


def measure(wl, seconds: float, min_passes: int) -> tuple[Tally, list[float]]:
    """Run passes until ``seconds`` have gone by and ``min_passes`` are done.

    Between passes, one set-up sample is taken every ``seconds /
    SETUP_REPEATS``, so the samples see the machine over the whole run
    rather than in one moment of it. Returns the tally and the samples."""
    t, setups = Tally(), []
    start = time.perf_counter()
    while len(t.pass_times) < min_passes or time.perf_counter() - start < seconds:
        if (len(setups) < SETUP_REPEATS and
                time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS):
            setups.append(setup_seconds(wl.name, wl.seed))
        run_pass(wl, len(t.pass_times), t)
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_seconds(wl.name, wl.seed))
    return t, setups


def measure_traced(wl, tracing) -> tuple[Tally, Tally, object]:
    """Each of the first ``wl.trace_passes`` passes untraced, then again with
    the wrappers installed, so both sides see the same inputs and the same
    machine conditions."""
    base, traced = Tally(), Tally()
    tracer = tracing.Tracer()
    for p in range(wl.trace_passes):
        run_pass(wl, p, base)
        with tracer:
            run_pass(wl, p, traced, tracer)
    return base, traced, tracer


def setup_seconds(name: str, seed: int) -> float:
    """Set-up time of one fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(BENCH_DIR), name, str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def pinned_fig1_reference(seed: int) -> dict:
    """Ungated: fig1 pass time with BLAS pinned to one thread, in a child."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", "fig1",
         "--seed", str(seed), "--pinned-reference-child"],
        env={**os.environ, **BLAS_PIN}, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(t: Tally, setup: float, units_per_pass: int,
               quality_passes: int) -> dict[str, float]:
    """End-to-end metrics of a timed run. ``var_over_bound`` averages over
    the first ``quality_passes`` passes only, so that it compares the same
    instances whatever number of passes the run's speed allowed."""
    p50 = percentile(t.latencies, 50)
    p95 = percentile(t.latencies, 95)
    if p50 is None or p95 is None:
        raise RuntimeError(f"only {len(t.latencies)} ops timed; p95 needs "
                           f"{MIN_LATENCY_SAMPLES}")
    return {
        "setup_s": setup,
        "wall_s": statistics.median(t.pass_times),
        "ops_per_s": units_per_pass * len(t.pass_times) / t.op_time,
        "op_p50_ms": 1e3 * p50,
        "op_p95_ms": 1e3 * p95,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "var_over_bound": statistics.fmean(
            q for qs in t.qualities[:quality_passes] for q in qs),
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pinned-reference-child", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "phasefuse" / "__init__.py").is_file():
        print(f"error: no phasefuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 3
    if args.workload in BLAS_PINNED_WORKLOADS:
        os.environ.update(BLAS_PIN)
    sys.path.insert(0, str(BENCH_DIR))
    import workloads  # after the BLAS environment is final

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.pinned_reference_child:
        wl.warmup()
        t = Tally()
        for p in range(PINNED_REFERENCE_PASSES):
            run_pass(wl, p, t)
        print(json.dumps({"wall_s": statistics.median(t.pass_times),
                          "correct": t.mismatch_count == 0}))
        return 0

    import envinfo
    import tracing

    wl.warmup()
    extra: dict = {}
    ops_per_pass = len(wl.pass_ops(0))
    if args.trace == 0:
        min_passes = math.ceil(MIN_LATENCY_SAMPLES / ops_per_pass)
        t, setups = measure(wl, args.seconds, min_passes)
        extra["setup_s_samples"] = setups
        values = end_to_end(t, statistics.median(setups), wl.units_per_op * ops_per_pass,
                            min_passes)
        units = END_TO_END
        if args.workload == "fig1":
            extra["fig1_blas_pinned_1thread"] = pinned_fig1_reference(args.seed)
        tallies = [t]
    else:
        base, traced, tracer = measure_traced(wl, tracing)
        tracing.resolve_rounding(tracer.spans)
        values = tracing.layer_metrics(
            tracer.spans, wl.trace_passes, traced.op_time,
            traced.op_time / base.op_time - 1.0, traced.output_bytes)
        units = tracing.LAYER_METRICS
        tallies = [base, traced]
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"spans_{args.workload}_seed{args.seed}.json").write_text(
            json.dumps(tracing.span_records(tracer.spans)))

    attempted = sum(t.units for t in tallies)
    failed = sum(t.failed for t in tallies)
    correct = all(t.mismatch_count == 0 for t in tallies)
    extra.update({
        "failed_frac": failed / attempted,
        "ops_timed": sum(len(t.latencies) for t in tallies),
        "pass_times_s": [t.pass_times for t in tallies],
        "mismatches": [m for t in tallies for m in t.mismatches],
    })
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": envinfo.environment(args.seed),
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "extra": extra}
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("environment: " + json.dumps(record["environment"]))
    for k, m in metrics.items():
        print(f"{args.workload} {k} = {m['value']:.6g} {m['unit']}")
    for m in record["extra"]["mismatches"]:
        print(f"MISMATCH {m}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
