"""Every stored output of the fig1 benchmark workload, read from
``benchmark/reference.json`` and compared with ``benchmark/reference.py``'s
``compare``: 32 keys x 15 grid points, one ``phasefuse fig1`` call each
(about 15 s in all). A run of the benchmark checks one key per pass, so a
change that moves another key's output would otherwise pass tier-1."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import reference  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("key", range(reference.REFERENCE_KEYS))
def test_fig1_outputs_match_the_reference(key):
    wl = workloads.Fig1(key)
    bad = []
    for point, expected in enumerate(reference.expected("fig1", key)):
        rc, text = workloads.run_cli(wl.argv(point, key))
        diffs = reference.compare(text, expected) if rc == 0 else [f"exit code {rc}"]
        bad += [f"point {point}: {d}" for d in diffs]
    assert len(reference.expected("fig1", key)) == len(wl.grid)
    assert bad == []
