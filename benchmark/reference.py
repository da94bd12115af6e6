"""Stored reference outputs of the fig1 workload, and the check against them.

``reference.json`` holds, for each of REFERENCE_KEYS keys, the CSV text
each grid point's CLI call printed when the file was made. Pass p of a run
with workload seed s uses key ``(s + p) % REFERENCE_KEYS``. Regenerate the file only on
purpose, from a commit whose outputs are known good:

    python3 benchmark/reference.py
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_KEYS = 32

# Columns that must match exactly, and those compared within RTOL. Only
# mean_variance depends on the SDP iterates; the others are closed forms of
# the sampled instance. Measured on the reference seeds: pinning BLAS to one
# thread changes nothing, stopping the IPM at a 10x looser duality gap
# (1e-8, still certified) moves mean_variance by up to 3.8e-6, and cutting
# the rounding pool to one random candidate moves it by up to 7.8e-3.
EXACT_COLUMNS = ("sweep_param", "value", "strategy", "trials")
CLOSE_COLUMNS = ("mean_variance", "lower_bound_mean", "eq11", "eq12", "eq17")
RTOL = 1e-4

_cache: dict | None = None


def master_seed(seed: int, point: int) -> int:
    """The ``--seed`` passed to the CLI for one grid point."""
    return 1000 * (seed % REFERENCE_KEYS) + point


def expected(workload: str, seed: int) -> list[str]:
    global _cache
    if _cache is None:
        _cache = json.loads(REFERENCE_PATH.read_text())
    return _cache[workload][str(seed % REFERENCE_KEYS)]


def parse(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def compare(text: str, reference: str) -> list[str]:
    """Differences of one CSV output from its reference; empty if it agrees."""
    got_lines, ref_lines = text.splitlines(), reference.splitlines()
    if not got_lines or got_lines[0] != ref_lines[0]:
        return ["header differs"]
    if len(got_lines) != len(ref_lines):
        return [f"{len(got_lines) - 1} rows, expected {len(ref_lines) - 1}"]
    bad = []
    for i, (got, ref) in enumerate(zip(parse(text), parse(reference))):
        for col in EXACT_COLUMNS:
            if got[col] != ref[col]:
                bad.append(f"row {i} {col}: {got[col]!r} != {ref[col]!r}")
        for col in CLOSE_COLUMNS:
            if (got[col] == "") != (ref[col] == ""):
                bad.append(f"row {i} {col}: {got[col]!r} != {ref[col]!r}")
            elif ref[col] and not math.isclose(float(got[col]), float(ref[col]),
                                               rel_tol=RTOL, abs_tol=0.0):
                bad.append(f"row {i} {col}: {got[col]} != {ref[col]} (rtol {RTOL})")
    return bad


def main() -> int:
    import envinfo
    import workloads

    out = {"meta": envinfo.environment(seed=None), "fig1": {}}
    for key in range(REFERENCE_KEYS):
        wl = workloads.Fig1(key)
        texts = []
        for point in range(len(wl.grid)):
            rc, text = workloads.run_cli(wl.argv(point, key))
            if rc != 0:
                print(f"fig1 key {key} point {point}: exit {rc}", file=sys.stderr)
                return 1
            texts.append(text)
        out["fig1"][str(key)] = texts
    REFERENCE_PATH.write_text(json.dumps(out, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
