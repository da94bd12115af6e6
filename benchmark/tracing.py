"""Spans recorded from outside the program, and the per-layer metrics built
from them.

A ``Tracer`` replaces each public function at the name its caller looks it
up by (``phase_opt`` calls ``sdp.solve`` through the module, ``montecarlo``
imported ``fisher_matrix`` by name, and so on), records one span per call
while ``recording`` is set, and puts every original back on exit. Spans are
kept in memory; ``layer_metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

SOLVE_SIZES = (2, 10, 30, 60, 100)
# A random rounding candidate wins only by beating the eigenvector and
# all-ones candidates by more than rounding error.
RANDOM_WIN_MARGIN = 1e-12

# Every per-layer metric the traced run reports, with its unit. A layer the
# workload never calls reads 0.
LAYER_METRICS = {
    "sdp.solve.calls": "count",
    "sdp.solve.busy_s": "s",
    "sdp.solve.share": "frac",
    "sdp.solve.iters_total": "count",
    "sdp.solve.gap_max_rel": "ratio",
    **{f"sdp.solve.p50_ms.N{n}": "ms" for n in SOLVE_SIZES},
    "sdp.round.calls": "count",
    "sdp.round.busy_s": "s",
    "sdp.round.random_win_frac": "frac",
    "phase_opt.optimize.busy_s": "s",
    "phase_opt.optimize.self_s": "s",
    "channel.sample.busy_s": "s",
    "channel.synth.busy_s": "s",
    "rng.generator.calls": "count",
    "rng.generator.busy_s": "s",
    "estimator.fisher.busy_s": "s",
    "estimator.bounds.busy_s": "s",
    "estimator.ml.busy_s": "s",
    "asymptotics.busy_s": "s",
    "montecarlo.sweep.self_s": "s",
    "montecarlo.verify.busy_s": "s",
    "cli.output.busy_s": "s",
    "cli.output.bytes": "B",
    "trace.overhead_frac": "frac",
}

@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_attrs(args, kwargs, sol) -> dict:
    problem = args[0] if args else kwargs["problem"]
    obj = sol.objective_value
    return {
        "n": problem.dimension,
        "iters": sol.iterations,
        "gap_rel": sol.duality_gap / max(1.0, abs(obj)),
    }


def _round_attrs(args, kwargs, phases) -> dict:
    # Classified after the run (resolve_rounding) so the eigendecomposition
    # is not charged to the traced op.
    solution, problem = (list(args) + [kwargs.get("solution"), kwargs.get("problem")])[:2]
    return {"gram": solution.gram, "b": problem.objective, "phases": phases}


def layer_sites() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, annotate) for each wrapped lookup."""
    from phasefuse import (
        asymptotics,
        channel,
        cli,
        estimator,
        montecarlo,
        phase_opt,
        sdp,
    )
    from phasefuse.rng import RngStream

    return [
        (cli, "main", "cli.main", None),
        (cli, "run_sweep", "montecarlo.sweep", None),
        (cli, "write_csv", "cli.output", None),
        (montecarlo, "sample_scenario", "channel.sample", None),
        (montecarlo, "generate_channel", "channel.sample", None),
        (montecarlo, "fisher_matrix", "estimator.fisher", None),
        (montecarlo, "variance_lower_bound", "estimator.bounds", None),
        (montecarlo, "optimize_phases", "phase_opt.optimize", None),
        (montecarlo, "eigenvector_rounding", "phase_opt.eigvec", None),
        (montecarlo, "verify_unbiasedness", "montecarlo.verify", None),
        (montecarlo, "verify_diagonal_concentration", "montecarlo.verify", None),
        (asymptotics, "large_n_lower_bound", "asymptotics", None),
        (asymptotics, "single_antenna_upper_bound", "asymptotics", None),
        (asymptotics, "large_m_variance", "asymptotics", None),
        (phase_opt, "feedback_round", "phase_opt.feedback", None),
        (phase_opt, "optimize_phases", "phase_opt.optimize", None),
        (phase_opt, "eigenvector_rounding", "phase_opt.eigvec", None),
        (phase_opt, "fisher_matrix", "estimator.fisher", None),
        (phase_opt, "variance_lower_bound", "estimator.bounds", None),
        (phase_opt, "estimator_variance", "estimator.bounds", None),
        (sdp, "solve", "sdp.solve", _solve_attrs),
        (sdp, "extract_rank_one", "sdp.round", _round_attrs),
        (estimator, "fisher_matrix", "estimator.fisher", None),
        (estimator, "ml_estimate", "estimator.ml", None),
        (channel, "synthesize_received_signal", "channel.synth", None),
        (RngStream, "generator", "rng.generator", None),
    ]


class Tracer:
    """Install span-recording wrappers on enter, restore the originals on exit.

    Wrappers record only while ``recording`` is true, so input generation
    and the benchmark's own checks stay out of the spans.
    """

    def __init__(self):
        self._sites = layer_sites()
        self._saved: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self.spans: list[Span] = []
        self.recording = False
        self.current_op: int | None = None

    def __enter__(self) -> "Tracer":
        for owner, attr, name, annotate in self._sites:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, annotate))
        return self

    def __exit__(self, *exc) -> None:
        self.recording = False
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        self.spans.append(
            Span(name, time.perf_counter(), parent=stack[-1] if stack else None,
                 op=self.current_op)
        )
        stack.append(len(self.spans) - 1)
        return stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, name, annotate):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if annotate is not None:
                tracer.spans[index].attrs.update(annotate(args, kwargs, result))
            return result

        return wrapper


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's length minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children.get(i, ())]
        out.append(s.duration - union_length([c for c in clipped if c[1] > c[0]]))
    return out


def busy_time(spans: list[Span], name: str) -> float:
    """Summed length of the spans called ``name``, not counting a span
    nested inside another span of the same name twice."""
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and spans[p].name != name:
            p = spans[p].parent
        if p is None:
            total += s.duration
    return total


def classify_rounding(gram: np.ndarray, b: np.ndarray, phases: np.ndarray) -> str:
    """Which candidate of ``extract_rank_one`` won: the phase-normalized
    leading eigenvector of A*, the all-ones vector, or a random one. A random
    candidate that only ties a fixed one (rank-one A* makes every candidate
    the eigenvector up to a global phase) does not count as a random win."""
    _, u = sla.eigh(gram)
    mag = np.abs(u[:, -1])
    lead = np.where(mag > 0, u[:, -1] / np.where(mag > 0, mag, 1.0), 1.0)

    def value(a):
        return float(np.real(np.vdot(a, b @ a)))

    fixed = {"eigenvector": value(lead), "all_ones": value(np.ones(len(phases)))}
    best = max(fixed, key=fixed.get)
    return "random" if value(phases) > fixed[best] * (1 + RANDOM_WIN_MARGIN) else best


def resolve_rounding(spans: list[Span]) -> None:
    """Replace the arrays kept on each ``sdp.round`` span by its winner."""
    for s in spans:
        if "gram" in s.attrs:
            a = s.attrs
            s.attrs = {"winner": classify_rounding(a["gram"], a["b"], a["phases"])}


def layer_metrics(spans: list[Span], passes: int, op_time: float,
                  overhead_frac: float, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics per pass of the workload (``passes`` traced).

    Call ``resolve_rounding`` on the spans first."""
    selfs = self_times(spans)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def self_sum(name):
        return sum(t for s, t in zip(spans, selfs) if s.name == name)

    solves = [s for s in spans if s.name == "sdp.solve" and "n" in s.attrs]
    winners = [s.attrs["winner"] for s in spans
               if s.name == "sdp.round" and "winner" in s.attrs]
    solve_busy = busy_time(spans, "sdp.solve")
    m = {
        "sdp.solve.calls": calls("sdp.solve") / passes,
        "sdp.solve.busy_s": solve_busy / passes,
        "sdp.solve.share": solve_busy / op_time if op_time > 0 else 0.0,
        "sdp.solve.iters_total": sum(s.attrs["iters"] for s in solves) / passes,
        "sdp.solve.gap_max_rel": max((s.attrs["gap_rel"] for s in solves), default=0.0),
    }
    for n in SOLVE_SIZES:
        d = [s.duration for s in solves if s.attrs["n"] == n]
        m[f"sdp.solve.p50_ms.N{n}"] = 1e3 * statistics.median(d) if d else 0.0
    m["sdp.round.calls"] = calls("sdp.round") / passes
    m["sdp.round.busy_s"] = busy_time(spans, "sdp.round") / passes
    m["sdp.round.random_win_frac"] = (
        winners.count("random") / len(winners) if winners else 0.0
    )
    m["phase_opt.optimize.busy_s"] = busy_time(spans, "phase_opt.optimize") / passes
    m["phase_opt.optimize.self_s"] = self_sum("phase_opt.optimize") / passes
    for name in ("channel.sample", "channel.synth", "rng.generator",
                 "estimator.fisher", "estimator.bounds", "estimator.ml",
                 "asymptotics", "montecarlo.verify", "cli.output"):
        m[f"{name}.busy_s"] = busy_time(spans, name) / passes
    m["rng.generator.calls"] = calls("rng.generator") / passes
    m["montecarlo.sweep.self_s"] = self_sum("montecarlo.sweep") / passes
    m["cli.output.bytes"] = output_bytes / passes
    m["trace.overhead_frac"] = overhead_frac
    return {k: float(m[k]) for k in LAYER_METRICS}


def span_records(spans: list[Span]) -> list[dict]:
    """JSON-ready spans (after ``resolve_rounding``)."""
    return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "attrs": s.attrs} for s in spans]
