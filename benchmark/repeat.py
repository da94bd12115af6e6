#!/usr/bin/env python3
"""Repeat mode: run each workload k times on consecutive seeds and print,
per end-to-end metric, the median, the quartiles and whether the spread
fits the metric's bound in BENCHMARK.json. Runs every workload listed there.

    python3 benchmark/repeat.py --runs 10 --seed 0
    python3 benchmark/repeat.py --runs 10 --seed 100 --against benchmark/results/repeat_seed0.json

Spread is (Q3 - Q1) / median with ``statistics.quantiles(values, n=4)``;
it fits when it is at most the bound. With ``--against``, each median is
also compared with an earlier summary: it fits when it is no worse by more
than the bound. Runs one process at a time; the summary goes to
``benchmark/results/repeat_seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
RUN_TIMEOUT_S = 180


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med)


def worse_by(new: float, old: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0, help="first seed")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--against", type=Path, default=None)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")
    earlier = json.loads(args.against.read_text()) if args.against else None

    summary: dict = {"seed": args.seed, "runs": args.runs, "workloads": {}}
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        extras = []
        for i in range(args.runs):
            seed = args.seed + i
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{name} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            record = RESULTS_DIR / f"{name}_seed{seed}_trace0.json"
            extras.append(json.loads(record.read_text())["extra"])
        rows = {}
        print(f"\n{name}: {args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1}")
        print(f"  {'metric':<16}{'unit':<7}{'median':>12}{'Q1':>12}{'Q3':>12}"
              f"{'spread':>9}{'bound':>7}  fits")
        for metric in spec["end_to_end"]:
            k = metric["name"]
            med, q1, q3, sp = spread(values[k])
            fits = sp <= metric["bound"]
            verdict = "yes" if fits else "NO"
            if earlier is not None:
                old = earlier["workloads"][name][k]["median"]
                drift = worse_by(med, old, metric["better"])
                fits = fits and drift <= metric["bound"]
                verdict += f"  vs earlier median {old:.6g}: worse by {drift:+.3f}"
            ok = ok and fits
            rows[k] = {"unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                       "spread": sp, "bound": metric["bound"], "fits": fits,
                       "values": values[k]}
            print(f"  {k:<16}{metric['unit']:<7}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                  f"{sp:>9.4f}{metric['bound']:>7}  {verdict}")
        pinned = [e["fig1_blas_pinned_1thread"]["wall_s"] for e in extras
                  if "fig1_blas_pinned_1thread" in e]
        if pinned:
            med, q1, q3, sp = spread(pinned)
            rows["blas_pinned_1thread_wall_s"] = {"median": med, "q1": q1, "q3": q3,
                                                 "spread": sp, "values": pinned}
            print(f"  ungated: fig1 pass with BLAS pinned to 1 thread: median "
                  f"{med:.6g} s (Q1 {q1:.6g}, Q3 {q3:.6g}) beside default "
                  f"{rows['wall_s']['median']:.6g} s")
        summary["workloads"][name] = rows

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"repeat_seed{args.seed}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"\nsummary: {out.relative_to(ROOT)}; all fit: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
