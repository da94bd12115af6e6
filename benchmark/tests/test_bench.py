"""Tests of the benchmark's own logic.

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from phasefuse import montecarlo, phase_opt, sdp  # noqa: E402
from phasefuse.rng import RngStream  # noqa: E402


def test_self_time_subtracts_union_of_children():
    spans = [
        tracing.Span("op", 0.0, 10.0),
        tracing.Span("a", 1.0, 4.0, parent=0),
        tracing.Span("b", 3.0, 6.0, parent=0),   # overlaps a: union 1..6
        tracing.Span("c", 8.0, 9.0, parent=0),
        tracing.Span("d", 2.0, 3.0, parent=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])


def test_busy_time_counts_same_name_nesting_once():
    spans = [
        tracing.Span("op", 0.0, 10.0),
        tracing.Span("x", 1.0, 5.0, parent=0),
        tracing.Span("y", 2.0, 4.0, parent=1),
        tracing.Span("x", 2.5, 3.5, parent=2),   # inside another x
        tracing.Span("x", 6.0, 7.0, parent=0),
    ]
    assert tracing.busy_time(spans, "x") == pytest.approx(5.0)
    assert tracing.busy_time(spans, "y") == pytest.approx(2.0)


def test_union_length():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


def test_p95_needs_ten_samples_beyond_it():
    assert run.percentile([1.0] * 199, 95) is None
    samples = [float(i) for i in range(200)]
    assert run.percentile(samples, 95) == pytest.approx(189.05)
    assert run.percentile(samples[:19], 50) is None
    assert run.percentile(samples[:20], 50) == pytest.approx(9.5)


def _fig1_reference() -> str:
    return reference.expected("fig1", 0)[3]


def test_reference_accepts_itself_and_flags_a_perturbed_csv():
    text = _fig1_reference()
    assert reference.compare(text, text) == []
    header, row, *rest = text.splitlines()
    cells = row.split(",")
    mean_variance = header.split(",").index("mean_variance")
    cells[mean_variance] = repr(float(cells[mean_variance]) * (1 + 10 * reference.RTOL))
    perturbed = "\n".join([header, ",".join(cells), *rest]) + "\n"
    assert any("mean_variance" in m for m in reference.compare(perturbed, text))


def test_reference_tolerates_drift_below_rtol():
    text = _fig1_reference()
    header, row, *rest = text.splitlines()
    cells = row.split(",")
    col = header.split(",").index("lower_bound_mean")
    cells[col] = repr(float(cells[col]) * (1 + reference.RTOL / 10))
    drifted = "\n".join([header, ",".join(cells), *rest]) + "\n"
    assert reference.compare(drifted, text) == []


def test_reference_flags_schema_and_row_count():
    text = _fig1_reference()
    lines = text.splitlines()
    assert reference.compare("\n".join(lines[:-1]) + "\n", text)
    assert reference.compare(text.replace("eq17", "eq18"), text) == ["header differs"]


def test_tracer_records_spans_and_restores_every_wrapper():
    sites = tracing.layer_sites()
    originals = [owner.__dict__[attr] for owner, attr, _, _ in sites]
    b = np.array([[2.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]])
    with tracing.Tracer() as tracer:
        assert sdp.solve is not originals[[a for _, a, _, _ in sites].index("solve")]
        tracer.recording = True
        root = tracer.open("op")
        phase_opt.optimize_phases(b, phase_opt.PhaseStrategy("sdp"), RngStream(0))
        tracer.close(root)
        tracer.recording = False
    for (owner, attr, _, _), original in zip(sites, originals):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} still wrapped"
    names = [s.name for s in tracer.spans]
    assert {"op", "sdp.solve", "sdp.round", "rng.generator", "estimator.bounds"} <= set(names)
    solve = tracer.spans[names.index("sdp.solve")]
    assert tracer.spans[solve.parent].name == "phase_opt.optimize"
    assert solve.attrs["n"] == 2 and solve.attrs["iters"] > 0


def test_tracer_records_nothing_while_not_recording():
    with tracing.Tracer() as tracer:
        montecarlo.verify_unbiasedness  # looked up, not called
        phase_opt.optimize_phases(np.eye(2), phase_opt.PhaseStrategy("all_ones"),
                                  RngStream(0))
    assert tracer.spans == []


def test_rounding_winner_classification():
    b = np.array([[2.0, 1.0j], [-1.0j, 1.0]])
    lead = np.array([1.0, -1.0j])   # phase of the leading eigenvector of b
    gram = np.outer(lead, lead.conj())
    # Rank-one A*: a global rotation of the eigenvector is a tie, not a win.
    assert tracing.classify_rounding(gram, b, lead * 1j) == "eigenvector"
    anti = np.outer([1.0, -1.0], [1.0, -1.0])
    assert tracing.classify_rounding(anti, np.ones((2, 2)), np.ones(2)) == "all_ones"
    # A candidate better than both fixed ones is a random win.
    assert tracing.classify_rounding(np.eye(2), b, lead) == "random"


def test_traced_run_leaves_untraced_numbers_clean():
    wl = workloads.Fig1(0)
    wl.trace_passes = 1
    originals = [owner.__dict__[attr] for owner, attr, _, _ in tracing.layer_sites()]
    base, traced, tracer = run.measure_traced(wl, tracing)
    calls = len(tracer.spans)
    assert calls > 0 and base.mismatch_count == 0 and traced.mismatch_count == 0
    assert [owner.__dict__[attr] for owner, attr, _, _ in tracing.layer_sites()] == originals
    run.run_pass(wl, 0, run.Tally())
    assert len(tracer.spans) == calls
